/**
 * @file
 * Measurement from outside the library: a wrapper on the public
 * Layer interface that reads the MercuryContext ReuseStats deltas
 * around each forward / backward call and, while tracing is on,
 * records one span per forward / backward / step call. describeStep
 * passes through, so planning sees the same step description as the
 * unwrapped network.
 */

#ifndef PERFBENCH_PROBE_HPP
#define PERFBENCH_PROBE_HPP

#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "nn/layers.hpp"
#include "nn/network.hpp"

namespace perfbench {

using mercury::Layer;
using mercury::MercuryContext;
using mercury::ReuseStats;
using mercury::StepDescBuilder;
using mercury::Tensor;

inline ReuseStats
statsMinus(const ReuseStats &now, const ReuseStats &before)
{
    ReuseStats d;
    d.mix.vectors = now.mix.vectors - before.mix.vectors;
    d.mix.hit = now.mix.hit - before.mix.hit;
    d.mix.mau = now.mix.mau - before.mix.mau;
    d.mix.mnu = now.mix.mnu - before.mix.mnu;
    d.macsTotal = now.macsTotal - before.macsTotal;
    d.macsSkipped = now.macsSkipped - before.macsSkipped;
    d.channelPasses = now.channelPasses - before.channelPasses;
    return d;
}

inline void
statsAdd(ReuseStats &into, const ReuseStats &s)
{
    into.mix += s.mix;
    into.macsTotal += s.macsTotal;
    into.macsSkipped += s.macsSkipped;
    into.channelPasses += s.channelPasses;
}

/** Reuse counters of one wrapped layer since the last harvest. */
struct LayerCounters
{
    ReuseStats fwd; ///< forward detection passes
    ReuseStats dx;  ///< input-gradient replay
    ReuseStats dw;  ///< weight-gradient replay

    bool ranPasses() const
    {
        return fwd.channelPasses + dx.channelPasses + dw.channelPasses > 0;
    }
};

class TimedLayer;

/**
 * Shared state of one wrapped network: the per-layer counters (always
 * on; a struct copy per call) and the span recording (while tracing
 * is on). One network runs on one thread at a time: a training loop,
 * or a served session's serial chain.
 */
class NetProbe
{
  public:
    /**
     * @param prefix     span-name prefix ("L" measured, "E" exact)
     * @param group_base id of the first step / job; step and job span
     *                   ids must stay clear of SpanRecorder::newId ids
     */
    NetProbe(SpanRecorder &rec, std::string prefix, int64_t group_base)
        : rec_(rec), prefix_(std::move(prefix)), groupBase_(group_base)
    {
    }

    /**
     * Record spans. Toggle only between steps or jobs, from the thread
     * that orders them (a served client toggles its session's probe
     * while no job of it is outstanding).
     */
    void setTracing(bool on) { tracing_ = on; }

    /** Wrap `inner` and remember its slot (call in network order). */
    std::unique_ptr<Layer> wrap(std::unique_ptr<Layer> inner);

    /**
     * Step / job ids: layer 0's forward opens the next one
     * (group_base + index), so a client that counts its own
     * submissions knows the id of every job it sent.
     */
    int64_t groupOf(int64_t index) const { return groupBase_ + index; }
    int64_t nextGroup() const { return groupBase_ + jobs_; }

    /** Per-layer counters since the last harvest, then reset. */
    std::vector<LayerCounters> harvest()
    {
        std::vector<LayerCounters> out = counters_;
        for (auto &c : counters_)
            c = LayerCounters{};
        return out;
    }

    size_t size() const { return layers_.size(); }
    TimedLayer &layer(size_t i) { return *layers_[i]; }

  private:
    friend class TimedLayer;

    SpanRecorder &rec_;
    std::string prefix_;
    int64_t groupBase_;
    int64_t group_ = 0;
    int64_t jobs_ = 0;
    bool tracing_ = false;
    std::vector<TimedLayer *> layers_; // owned by the network
    std::vector<LayerCounters> counters_;
};

/** The timing wrapper (see file header). */
class TimedLayer : public Layer
{
  public:
    TimedLayer(std::unique_ptr<Layer> inner, NetProbe &probe, size_t slot)
        : inner_(std::move(inner)), probe_(probe), slot_(slot)
    {
    }

    Tensor forward(const Tensor &x, MercuryContext *ctx) override
    {
        if (slot_ == 0)
            probe_.group_ = probe_.groupOf(probe_.jobs_++);
        if (keepInput_)
            lastInput_ = x;
        const ReuseStats f0 = ctx ? ctx->totals() : ReuseStats{};
        const double t0 = probe_.tracing_ ? nowUs() : 0.0;
        Tensor y = inner_->forward(x, ctx);
        if (ctx)
            statsAdd(counters().fwd, statsMinus(ctx->totals(), f0));
        if (probe_.tracing_)
            record("fwd", t0);
        return y;
    }

    void step(float lr) override
    {
        const double t0 = probe_.tracing_ ? nowUs() : 0.0;
        inner_->step(lr);
        if (probe_.tracing_)
            record("sgd", t0);
    }

    void describeStep(StepDescBuilder &b) const override
    {
        opBegin_ = b.ops().size();
        inner_->describeStep(b);
        opEnd_ = b.ops().size();
    }

    std::string name() const override { return inner_->name(); }
    uint64_t paramCount() const override { return inner_->paramCount(); }

    Layer &inner() { return *inner_; }

    /** Op range this layer emitted in the latest describeStep. */
    size_t opBegin() const { return opBegin_; }
    size_t opEnd() const { return opEnd_; }

    /** Keep a copy of each forward input (the stage probe's input). */
    void keepInput(bool on) { keepInput_ = on; }
    const Tensor &lastInput() const { return lastInput_; }

  protected:
    Tensor backwardImpl(const Tensor &grad, MercuryContext *ctx) override
    {
        const ReuseStats b0 = ctx ? ctx->backwardTotals() : ReuseStats{};
        const ReuseStats w0 = ctx ? ctx->weightGradTotals() : ReuseStats{};
        const double t0 = probe_.tracing_ ? nowUs() : 0.0;
        Tensor g = inner_->backward(grad, ctx);
        if (ctx) {
            statsAdd(counters().dx, statsMinus(ctx->backwardTotals(), b0));
            statsAdd(counters().dw, statsMinus(ctx->weightGradTotals(), w0));
        }
        if (probe_.tracing_)
            record("bwd", t0);
        return g;
    }

  private:
    std::unique_ptr<Layer> inner_;
    NetProbe &probe_;
    size_t slot_;
    mutable size_t opBegin_ = 0;
    mutable size_t opEnd_ = 0;
    bool keepInput_ = false;
    Tensor lastInput_;

    LayerCounters &counters() { return probe_.counters_[slot_]; }

    /** Record the span of a call that started at t0. */
    void record(const char *phase, double t0)
    {
        Span s;
        s.name = probe_.prefix_ + std::to_string(slot_) + "." +
                 inner_->name() + "." + phase;
        s.cat = phase;
        s.id = probe_.rec_.newId();
        s.parent = probe_.group_;
        s.group = probe_.group_;
        s.tid = traceTid();
        s.startUs = t0;
        s.endUs = nowUs();
        probe_.rec_.add(std::move(s));
    }
};

inline std::unique_ptr<Layer>
NetProbe::wrap(std::unique_ptr<Layer> inner)
{
    auto layer =
        std::make_unique<TimedLayer>(std::move(inner), *this, layers_.size());
    layers_.push_back(layer.get());
    counters_.emplace_back();
    return layer;
}

} // namespace perfbench

#endif // PERFBENCH_PROBE_HPP
