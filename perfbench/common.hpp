/**
 * @file
 * Shared pieces of the benchmark workloads: options, the run record,
 * the network builders, the training context, the modeled step cost,
 * the stage probe and the per-layer summaries of a traced run.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <sys/resource.h>
#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "probe.hpp"

#include "core/conv_reuse_engine.hpp"
#include "core/fc_engine.hpp"
#include "models/proxies.hpp"
#include "nn/attention_layer.hpp"
#include "nn/blocks.hpp"
#include "sim/cost_model.hpp"

namespace perfbench {

using namespace mercury;
using NetPtr = std::unique_ptr<Network>;

/** Command-line options (see main.cpp). */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Detection-pipeline threads; 0 = the workload's default. */
    int threads = 0;
};

/** Everything one run reports. */
struct Run
{
    Metrics endToEnd;
    Metrics perLayer;
    FailCount fails;
    bool correct = true;

    /** Record a failed output check (the run then exits non-zero). */
    void checkFailed(const std::string &what)
    {
        correct = false;
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    }
};

/** Usable hardware threads (at least 1). */
inline int
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Independent 64-bit seeds derived from the workload seed. */
inline uint64_t
deriveSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt * 0xBF58476D1CE4E5B9ull +
                 0x94D049BB133111EBull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

inline bool
bitEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

inline bool
bitEqual(float a, float b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Rows [r0, r1) of a tensor along its first dimension. */
inline Tensor
sliceRows(const Tensor &t, int64_t r0, int64_t r1)
{
    std::vector<int64_t> shape = t.shape();
    const int64_t per = t.numel() / shape[0];
    shape[0] = r1 - r0;
    std::vector<float> data(t.data() + r0 * per, t.data() + r1 * per);
    return Tensor(shape, std::move(data));
}

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** getrusage snapshot of this process. */
struct Usage
{
    double userMs = 0.0;
    double sysMs = 0.0;
    double volCtxsw = 0.0;

    static Usage now()
    {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        Usage u;
        u.userMs = ru.ru_utime.tv_sec * 1e3 + ru.ru_utime.tv_usec / 1e3;
        u.sysMs = ru.ru_stime.tv_sec * 1e3 + ru.ru_stime.tv_usec / 1e3;
        u.volCtxsw = static_cast<double>(ru.ru_nvcsw);
        return u;
    }

    Usage operator-(const Usage &o) const
    {
        return {userMs - o.userMs, sysMs - o.sysMs, volCtxsw - o.volCtxsw};
    }

    Usage &operator+=(const Usage &o)
    {
        userMs += o.userMs;
        sysMs += o.sysMs;
        volCtxsw += o.volCtxsw;
        return *this;
    }
};

inline double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // Linux: KiB
}

// ---- Network builders ------------------------------------------------
//
// The benchmark builds its networks itself so every top-level layer
// can be wrapped. Each builder draws from `rng` in the same order as
// the matching models/proxies builder and uses the same layer ids, so
// at the proxies' 12x12 geometry it is the proxy (checked bit for bit
// by checkBuilderParity).

inline void
addLayer(Network &net, NetProbe *probe, std::unique_ptr<Layer> layer)
{
    net.add(probe ? probe->wrap(std::move(layer)) : std::move(layer));
}

/** VGG-13 proxy stack: 2x conv12, pool, 2x conv24, pool, dense. */
inline NetPtr
buildVgg13(Rng &rng, int64_t hw, int classes, NetProbe *probe)
{
    auto net = std::make_unique<Network>();
    int64_t c = kProxyImageChannels;
    uint64_t id = 1;
    for (int64_t width : {12, 24}) {
        for (int i = 0; i < 2; ++i) {
            addLayer(*net, probe,
                     std::make_unique<Conv2dLayer>(c, width, 3, 1, 1, rng,
                                                   id++));
            addLayer(*net, probe, std::make_unique<ReluLayer>());
            c = width;
        }
        addLayer(*net, probe, std::make_unique<MaxPoolLayer>());
    }
    addLayer(*net, probe, std::make_unique<FlattenLayer>());
    addLayer(*net, probe,
             std::make_unique<DenseLayer>(24 * (hw / 4) * (hw / 4), classes,
                                          rng, id++));
    return net;
}

/** MobileNetV2 proxy: stem conv, two inverted-residual blocks. */
inline NetPtr
buildMobileNetV2(Rng &rng, int64_t hw, int classes, NetProbe *probe)
{
    auto net = std::make_unique<Network>();
    uint64_t id = 1;
    addLayer(*net, probe,
             std::make_unique<Conv2dLayer>(kProxyImageChannels, 12, 3, 1, 1,
                                           rng, id++));
    addLayer(*net, probe, std::make_unique<ReluLayer>());
    addLayer(*net, probe,
             std::make_unique<InvertedResidualBlock>(12, 12, 2, 1, rng,
                                                     id++));
    addLayer(*net, probe,
             std::make_unique<InvertedResidualBlock>(12, 16, 2, 1, rng,
                                                     id++));
    addLayer(*net, probe, std::make_unique<MaxPoolLayer>());
    addLayer(*net, probe, std::make_unique<FlattenLayer>());
    addLayer(*net, probe,
             std::make_unique<DenseLayer>(16 * (hw / 2) * (hw / 2), classes,
                                          rng, id++));
    return net;
}

/** Transformer proxy: self-attention, then two dense layers. */
inline NetPtr
buildTransformer(Rng &rng, int classes, NetProbe *probe)
{
    auto net = std::make_unique<Network>();
    uint64_t id = 1;
    addLayer(*net, probe,
             std::make_unique<SelfAttentionLayer>(
                 kProxySeqLen, kProxyEmbedDim, id++,
                 1.0f / static_cast<float>(kProxySeqLen)));
    addLayer(*net, probe, std::make_unique<ReluLayer>());
    addLayer(*net, probe,
             std::make_unique<DenseLayer>(kProxySeqLen * kProxyEmbedDim, 32,
                                          rng, id++));
    addLayer(*net, probe, std::make_unique<ReluLayer>());
    addLayer(*net, probe,
             std::make_unique<DenseLayer>(32, classes, rng, id++));
    return net;
}

/**
 * The training context every training workload uses: 28-bit
 * signatures, a 64x16x4 MCACHE, backward and weight-gradient replay,
 * planned execution, overlap Auto.
 */
inline std::unique_ptr<MercuryContext>
makeTrainContext(int threads)
{
    auto ctx = std::make_unique<MercuryContext>(28, 64, 16, 4);
    PipelineConfig pipe;
    pipe.threads = threads;
    pipe.overlap = OverlapMode::Auto;
    ctx->setPipeline(pipe);
    ctx->setBackwardReuse(true);
    ctx->setWeightGradReuse(true);
    ctx->setPlanExecution(true);
    return ctx;
}

/**
 * Output check: `own` (built by the benchmark, wrapped) and the
 * library's buildProxy network produce bit-identical forward outputs,
 * exactly and through a fresh context from `make_ctx`.
 */
template <typename Build, typename MakeCtx>
bool
checkBuilderParity(const std::string &family, int classes, uint64_t seed,
                   const Tensor &x, Build build, MakeCtx make_ctx,
                   SpanRecorder &rec)
{
    Rng r1(seed), r2(seed);
    NetPtr proxy = buildProxy(family, r1, classes);
    NetProbe probe(rec, "parity", 0);
    NetPtr own = build(r2, &probe);
    if (!bitEqual(proxy->forward(x, nullptr), own->forward(x, nullptr)))
        return false;
    auto c1 = make_ctx();
    auto c2 = make_ctx();
    return bitEqual(proxy->forward(x, c1.get()), own->forward(x, c2.get()));
}

// ---- Modeled step cost ----------------------------------------------

/**
 * Baseline and MERCURY modeled cycles of one step: the analytic
 * sim::CostModel stepCost over the step description's layer stack,
 * each reusable layer with its own measured forward mix.
 */
struct StepModel
{
    std::unique_ptr<sim::CostModel> model;
    std::vector<LayerShape> stack;
    std::vector<int> owner; ///< wrapped-layer slot per stack entry (-1)
    int64_t batch = 0;
    int sigBits = 0;

    /** Build from a wrapped network and a representative input. */
    static StepModel forNetwork(Network &net, NetProbe &probe,
                                const Tensor &x, int sig_bits,
                                const AcceleratorConfig &acfg)
    {
        StepModel m;
        m.model = sim::CostModel::create(acfg);
        const StepDescBuilder desc = net.describeStep(x);
        m.stack = shapesFromStepDesc(desc);
        m.batch = x.dim(0);
        m.sigBits = sig_bits;
        // Reusable stack entries follow the reuse ops in order.
        std::vector<int> reuse_owner;
        for (size_t op = 0; op < desc.ops().size(); ++op) {
            const StepOpKind k = desc.ops()[op].kind;
            if (k != StepOpKind::Conv && k != StepOpKind::Dense &&
                k != StepOpKind::Attention)
                continue;
            int slot = -1;
            for (size_t i = 0; i < probe.size(); ++i)
                if (op >= probe.layer(i).opBegin() &&
                    op < probe.layer(i).opEnd())
                    slot = static_cast<int>(i);
            reuse_owner.push_back(slot);
        }
        size_t next = 0;
        for (const LayerShape &s : m.stack)
            m.owner.push_back(s.reusable() && next < reuse_owner.size()
                                  ? reuse_owner[next++]
                                  : -1);
        return m;
    }

    /** Per-channel-pass mixes of the stack from per-layer counters. */
    std::vector<HitMix> mixes(const std::vector<LayerCounters> &layers) const
    {
        std::vector<HitMix> out(stack.size());
        for (size_t i = 0; i < stack.size(); ++i) {
            if (owner[i] < 0)
                continue;
            const HitMix &m = layers[static_cast<size_t>(owner[i])].fwd.mix;
            const double v = static_cast<double>(std::max<int64_t>(1, m.vectors));
            out[i] = HitMix::fromFractions(stack[i].vectorsPerChannel(),
                                           static_cast<double>(m.hit) / v,
                                           static_cast<double>(m.mnu) / v);
        }
        return out;
    }

    /** Modeled cycles of one step from its per-layer counters. */
    sim::CostBreakdown cost(const std::vector<LayerCounters> &layers) const
    {
        return model->stepCost(stack, mixes(layers), batch, sigBits);
    }

    /**
     * Span arguments of a traced step: its modeled cycles, and per
     * reusable layer the forward + dX + dW MERCURY cycles.
     */
    std::string spanArgs(const std::vector<LayerCounters> &layers) const
    {
        const std::vector<HitMix> mix = mixes(layers);
        const sim::CostBreakdown total = model->stepCost(stack, mix, batch, sigBits);
        std::string a = "\"baseline_cycles\":" +
                        std::to_string(total.cycles.baseline) +
                        ",\"mercury_cycles\":" +
                        std::to_string(total.cycles.mercuryTotal());
        for (size_t i = 0; i < stack.size(); ++i) {
            if (owner[i] < 0)
                continue;
            const uint64_t c =
                model->layerCost(stack[i], batch, mix[i], sigBits, true)
                    .mercuryTotal() +
                model->backwardCost(stack[i], batch, mix[i], sigBits)
                    .mercuryTotal() +
                model->weightGradCost(stack[i], batch, mix[i], sigBits)
                    .mercuryTotal();
            a += ",\"L" + std::to_string(owner[i]) +
                 "_mercury_cycles\":" + std::to_string(c);
        }
        return a;
    }
};

// ---- Deterministic reuse counts --------------------------------------

/** Reuse counts summed over a fixed prefix of steps or jobs. */
struct ReuseCounts
{
    ReuseStats fwd, dx, dw;
    int64_t steps = 0;
    uint64_t baselineCycles = 0;
    uint64_t mercuryCycles = 0;

    static double frac(uint64_t a, uint64_t b)
    {
        return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    }

    double macsSkippedFrac() const
    {
        return frac(fwd.macsSkipped + dx.macsSkipped + dw.macsSkipped,
                    fwd.macsTotal + dx.macsTotal + dw.macsTotal);
    }

    double modelSpeedup() const
    {
        return frac(baselineCycles, mercuryCycles);
    }

    /** The deterministic core.* and sim.* per-layer metrics. */
    void report(Metrics &m) const
    {
        const double n = static_cast<double>(std::max<int64_t>(1, steps));
        const auto passes = static_cast<double>(fwd.channelPasses);
        const auto rows = static_cast<double>(fwd.mix.vectors);
        m.set("core.passes_per_step", passes / n, "count");
        m.set("core.rows_per_pass", passes > 0 ? rows / passes : 0.0, "count");
        m.set("core.hit_frac",
              frac(static_cast<uint64_t>(fwd.mix.hit),
                   static_cast<uint64_t>(fwd.mix.vectors)),
              "ratio");
        m.set("core.mnu_frac",
              frac(static_cast<uint64_t>(fwd.mix.mnu),
                   static_cast<uint64_t>(fwd.mix.vectors)),
              "ratio");
        m.set("core.macs_skipped_frac.fwd", fwd.skipFraction(), "ratio");
        m.set("core.macs_skipped_frac.dx", dx.skipFraction(), "ratio");
        m.set("core.macs_skipped_frac.dw", dw.skipFraction(), "ratio");
        m.set("sim.baseline_mcycles", static_cast<double>(baselineCycles) / 1e6 / n,
              "Mcycles");
        m.set("sim.mercury_mcycles", static_cast<double>(mercuryCycles) / 1e6 / n,
              "Mcycles");
    }
};

// ---- Stage probe -----------------------------------------------------

/** Per-row stage times from re-running layers on captured inputs. */
struct StageTimes
{
    double detectNs = 0.0; ///< DetectionFrontend::detect
    double engineNs = 0.0; ///< ConvReuseEngine / FcEngine forward
    double exactNs = 0.0;  ///< conv2dForward / matmul
    int64_t rows = 0;

    void report(Metrics &m) const
    {
        const double r = static_cast<double>(std::max<int64_t>(1, rows));
        m.set("pipeline.detect_ns_per_row", detectNs / r, "ns");
        m.set("core.engine_fwd_ns_per_row", engineNs / r, "ns");
        m.set("core.filter_ns_per_row", (engineNs - detectNs) / r, "ns");
        m.set("tensor.exact_fwd_ns_per_row", exactNs / r, "ns");
    }
};

/** Median wall time in ns of `reps` calls of `fn`. */
template <typename Fn>
double
medianNs(int reps, Fn fn)
{
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        fn();
        t.push_back(
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count());
    }
    return median(t);
}

/**
 * Re-run every wrapped top-level Conv2dLayer (or, when a network has
 * none, every DenseLayer) on its captured forward input through the
 * public stage entry points, on a private frontend with the
 * workload's cache organization and pipeline knobs.
 */
inline StageTimes
probeStages(NetProbe &probe, int sets, int ways, int versions, int bits,
            const PipelineConfig &pipe)
{
    constexpr int kReps = 3;
    StageTimes st;
    bool any_conv = false;
    for (size_t i = 0; i < probe.size(); ++i)
        any_conv |= dynamic_cast<Conv2dLayer *>(&probe.layer(i).inner()) !=
                    nullptr;
    for (size_t i = 0; i < probe.size(); ++i) {
        TimedLayer &tl = probe.layer(i);
        const Tensor &x = tl.lastInput();
        if (x.numel() == 0)
            continue;
        DetectionFrontend fe(sets, ways, versions, bits,
                             deriveSeed(0xC0FFEE, i), pipe);
        if (auto *conv = dynamic_cast<Conv2dLayer *>(&tl.inner())) {
            const ConvSpec &spec = conv->spec();
            const int64_t oh = spec.outH(x.dim(2));
            const int64_t ow = spec.outW(x.dim(3));
            Tensor bias({spec.outChannels});
            bias.fill(0.0f);
            std::vector<Tensor> passes;
            for (int64_t b = 0; b < x.dim(0); ++b)
                for (int64_t c = 0; c < x.dim(1); ++c) {
                    Tensor rows({oh * ow, spec.kernelH * spec.kernelW});
                    extractChannelPatches(x, spec, b, c, oh, ow, rows);
                    passes.push_back(std::move(rows));
                }
            int64_t rows = 0;
            for (const Tensor &p : passes)
                rows += p.dim(0);
            st.detectNs += medianNs(kReps, [&] {
                for (const Tensor &p : passes)
                    fe.detect(p, bits);
            });
            ConvReuseEngine engine(fe, bits);
            st.engineNs += medianNs(kReps, [&] {
                ReuseStats s;
                engine.forward(x, conv->weights(), bias, spec, s);
            });
            st.exactNs += medianNs(kReps, [&] {
                conv2dForward(x, conv->weights(), bias, spec);
            });
            st.rows += rows;
        } else if (auto *dense = dynamic_cast<DenseLayer *>(&tl.inner());
                   dense && !any_conv) {
            st.detectNs += medianNs(kReps, [&] { fe.detect(x, bits); });
            FcEngine engine(fe, bits);
            st.engineNs += medianNs(kReps, [&] {
                ReuseStats s;
                engine.forward(x, dense->weights(), s);
            });
            st.exactNs += medianNs(kReps,
                                   [&] { matmul(x, dense->weights()); });
            st.rows += x.dim(0);
        }
    }
    return st;
}

/** Arm the stage probe's input capture on the layers it re-runs. */
inline void
keepStageInputs(NetProbe &probe)
{
    for (size_t i = 0; i < probe.size(); ++i) {
        Layer &l = probe.layer(i).inner();
        if (dynamic_cast<Conv2dLayer *>(&l) || dynamic_cast<DenseLayer *>(&l))
            probe.layer(i).keepInput(true);
    }
}

// ---- Traced-run summaries --------------------------------------------

/**
 * Per-step (or per-job) layer-time breakdown of the traced groups,
 * from the spans: `groups` are the step / job spans, layer spans hang
 * off them. Means per group, so the parts add up.
 */
struct LayerBreakdown
{
    double fwdMs = 0.0, bwdMs = 0.0, sgdMs = 0.0;
    double reuseMs = 0.0, plainMs = 0.0;
    double unattributedMs = 0.0;
    std::vector<double> computeMs;  ///< per group: sum of layer spans
    std::vector<double> overheadMs; ///< per group: self time
    std::vector<double> leadMs;     ///< per group: start to first layer
    int64_t groups = 0;

    /**
     * @param reuse_slot  per wrapped-layer slot: ran detection passes
     * @param prefix      layer-span name prefix of the measured net
     */
    static LayerBreakdown of(const std::vector<Span> &spans,
                             const std::string &group_cat,
                             const std::string &prefix,
                             const std::vector<bool> &reuse_slot)
    {
        LayerBreakdown b;
        std::map<int64_t, const Span *> group_spans;
        for (const Span &s : spans)
            if (s.cat == group_cat)
                group_spans[s.id] = &s;
        const auto self = selfTimesUs(spans);
        std::map<int64_t, double> compute, first;
        for (const Span &s : spans) {
            if (s.parent == 0 || !group_spans.count(s.parent) ||
                s.name.compare(0, prefix.size(), prefix) != 0)
                continue;
            const double ms = s.durUs() / 1e3;
            compute[s.parent] += ms;
            auto f = first.find(s.parent);
            if (f == first.end() || s.startUs < f->second)
                first[s.parent] = s.startUs;
            if (s.cat == "fwd")
                b.fwdMs += ms;
            else if (s.cat == "bwd")
                b.bwdMs += ms;
            else
                b.sgdMs += ms;
            const size_t slot = static_cast<size_t>(
                std::stoul(s.name.substr(prefix.size())));
            (slot < reuse_slot.size() && reuse_slot[slot] ? b.reuseMs
                                                          : b.plainMs) += ms;
        }
        for (const auto &[id, g] : group_spans) {
            b.computeMs.push_back(compute[id]);
            b.overheadMs.push_back(self.at(id) / 1e3);
            b.unattributedMs += self.at(id) / 1e3;
            auto f = first.find(id);
            b.leadMs.push_back(f == first.end() ? 0.0
                                                : (f->second - g->startUs) / 1e3);
        }
        b.groups = static_cast<int64_t>(group_spans.size());
        const double n = static_cast<double>(std::max<int64_t>(1, b.groups));
        for (double *v : {&b.fwdMs, &b.bwdMs, &b.sgdMs, &b.reuseMs, &b.plainMs,
                          &b.unattributedMs})
            *v /= n;
        return b;
    }
};

/** What a traced run measured besides its spans. */
struct TracedRun
{
    std::string groupCat;       ///< "step" or "job" spans
    std::vector<bool> reuseSlot; ///< wrapped layers that ran passes
    Usage usage;                ///< getrusage over the timed window
    int64_t ops = 0;            ///< steps / jobs in the timed window
    std::vector<double> traced, untraced; ///< their latencies, ms
    /** Per op: submit() call (serving); empty = step start to first
     *  layer (training). */
    std::vector<double> submitUs;
};

/**
 * The per-layer metrics of a traced run: measured layers carry span
 * names "L<slot>...", the exact path's "E<slot>..." (see probe.hpp).
 */
inline void
reportTracedRun(const std::vector<Span> &spans, const TracedRun &t,
                const ReuseCounts &counts, const StageTimes &stages,
                Metrics &p)
{
    const LayerBreakdown lb = LayerBreakdown::of(spans, t.groupCat, "L",
                                                 t.reuseSlot);
    p.set("nn.fwd_ms", lb.fwdMs, "ms");
    p.set("nn.bwd_ms", lb.bwdMs, "ms");
    p.set("nn.sgd_ms", lb.sgdMs, "ms");
    p.set("nn.reuse_layers_ms", lb.reuseMs, "ms");
    p.set("nn.plain_layers_ms", lb.plainMs, "ms");
    p.set("nn.unattributed_ms", lb.unattributedMs, "ms");

    double exact_fwd = 0.0, exact_bwd = 0.0, reuse_fwd = 0.0;
    std::set<int64_t> exact_groups;
    for (const Span &s : spans) {
        if (s.name[0] == 'E') {
            exact_groups.insert(s.group);
            if (s.cat == "fwd")
                exact_fwd += s.durUs() / 1e3;
            else if (s.cat == "bwd")
                exact_bwd += s.durUs() / 1e3;
        } else if (s.name[0] == 'L' && s.cat == "fwd") {
            const size_t slot = std::stoul(s.name.substr(1));
            if (slot < t.reuseSlot.size() && t.reuseSlot[slot])
                reuse_fwd += s.durUs() / 1e3;
        }
    }
    const double ne = static_cast<double>(std::max<size_t>(1, exact_groups.size()));
    p.set("nn.exact_fwd_ms", exact_fwd / ne, "ms");
    p.set("nn.exact_bwd_ms", exact_bwd / ne, "ms");

    counts.report(p);
    // Per-pass and per-row cost of the reuse layers' forward calls.
    const double n = static_cast<double>(std::max<int64_t>(1, counts.steps));
    const double passes = static_cast<double>(counts.fwd.channelPasses) / n;
    const double rows = static_cast<double>(counts.fwd.mix.vectors) / n;
    const double fwd_ms =
        reuse_fwd / static_cast<double>(std::max<int64_t>(1, lb.groups));
    p.set("core.us_per_pass", passes > 0 ? fwd_ms * 1e3 / passes : 0.0, "us");
    p.set("core.ns_per_row", rows > 0 ? fwd_ms * 1e6 / rows : 0.0, "ns");
    stages.report(p);

    const double ops = static_cast<double>(std::max<int64_t>(1, t.ops));
    p.set("util.cpu_ms_per_step", (t.usage.userMs + t.usage.sysMs) / ops, "ms");
    p.set("util.sys_ms_per_step", t.usage.sysMs / ops, "ms");
    p.set("util.vol_ctxsw_per_step", t.usage.volCtxsw / ops, "count");
    p.set("serve.compute_ms_p50", median(lb.computeMs), "ms");
    p.set("serve.overhead_ms_p50", median(lb.overheadMs), "ms");
    p.set("serve.overhead_ms_tail", tailPercentile(lb.overheadMs).value, "ms");
    std::vector<double> submit_us = t.submitUs;
    if (submit_us.empty())
        for (double ms : lb.leadMs)
            submit_us.push_back(ms * 1e3);
    p.set("serve.submit_us_p50", median(submit_us), "us");

    const double on = median(t.traced), off = median(t.untraced);
    p.set("trace.overhead_pct", off > 0.0 ? 100.0 * (on / off - 1.0) : 0.0,
          "%");
    std::printf("tracing overhead: %s p50 %.3f ms traced vs %.3f ms "
                "untraced (%zu / %zu)\n",
                t.groupCat.c_str(), on, off, t.traced.size(),
                t.untraced.size());
}

/** Write the span file under .bench_build/traces/ (relative to the
 *  working directory, the checkout root) and print where it went. */
inline void
writeTrace(const Options &opt, const SpanRecorder &rec)
{
    ::mkdir(".bench_build", 0755);
    ::mkdir(".bench_build/traces", 0755);
    const std::string path = ".bench_build/traces/" + opt.workload +
                             "_seed" + std::to_string(opt.seed) +
                             ".trace.json";
    const auto spans = rec.spans();
    if (writeChromeTrace(path, spans))
        std::printf("trace: %zu spans written to %s\n", spans.size(),
                    path.c_str());
    else
        std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
