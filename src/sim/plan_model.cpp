#include "sim/plan_model.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace mercury {

namespace {

/** Detection passes one forward invocation of a layer runs (the same
 *  counts the functional engines drive — conv: one per (image,
 *  channel); FC: one per minibatch; attention: one per sample). */
int64_t
passesPerStep(const LayerShape &shape, int64_t batch)
{
    switch (shape.type) {
    case LayerType::Conv:
        return batch * shape.inChannels;
    case LayerType::FullyConnected:
        return 1;
    case LayerType::Attention:
        return batch;
    case LayerType::Pool:
        return 0;
    }
    return 0;
}

} // namespace

PlannedStepModel
modelPlannedStep(const AcceleratorConfig &cfg,
                 const std::vector<LayerShape> &stack,
                 const std::vector<HitMix> &mixes, int64_t batch,
                 int sig_bits)
{
    if (stack.size() != mixes.size())
        panic("modelPlannedStep needs one mix per layer, got ",
              mixes.size(), " for ", stack.size());
    std::unique_ptr<Dataflow> flow = Dataflow::create(cfg);

    PlannedStepModel model;
    // Per-layer forward cycle decomposition (needed again for the
    // fused-edge windows) and the full per-layer step cost.
    std::vector<LayerCycles> fwd(stack.size());
    for (size_t i = 0; i < stack.size(); ++i) {
        const LayerShape &shape = stack[i];
        if (!shape.reusable()) {
            // Pools run exactly; their (small) cost appears in both
            // totals via the baseline charge.
            const uint64_t pool = flow->baselineLayerCycles(shape, batch);
            fwd[i].computation = pool;
            fwd[i].baseline = pool;
            model.baseCycles += pool;
            continue;
        }
        fwd[i] = flow->mercuryLayerCycles(shape, batch, mixes[i],
                                          sig_bits);
        uint64_t layer = fwd[i].mercuryTotal();
        if (cfg.backwardReuse || cfg.weightGradReuse) {
            layer += flow->backwardLayerCycles(shape, batch, mixes[i],
                                               sig_bits,
                                               cfg.weightGradReuse)
                         .mercuryTotal();
        }
        model.baseCycles += layer;
        // The schedule work a plan replays instead of re-deriving:
        // charged per detection pass plus a per-layer constant. The
        // gradient passes replay the forward schedule, so the charge
        // is per forward pass regardless of the reuse flags.
        model.setupCycles += kSetupCyclesPerLayer +
                             kSetupCyclesPerPass *
                                 static_cast<uint64_t>(
                                     passesPerStep(shape, batch));
    }

    // Fused conv→conv edges: the successor's signature hides under the
    // predecessor's trailing channel-pass drain. Pool entries between
    // two convs are channelwise and keep the edge alive, matching the
    // functional planner's edge rule.
    int prev_conv = -1;
    for (size_t i = 0; i < stack.size(); ++i) {
        if (stack[i].type == LayerType::Pool)
            continue;
        if (stack[i].type != LayerType::Conv) {
            prev_conv = -1;
            continue;
        }
        if (prev_conv >= 0) {
            const LayerCycles &pred = fwd[static_cast<size_t>(prev_conv)];
            const int64_t pred_passes = passesPerStep(
                stack[static_cast<size_t>(prev_conv)], batch);
            // One trailing channel-pass of predecessor compute is the
            // window a fused edge opens (the successor's first hash
            // can launch once the last input-channel pass's first
            // filters drain).
            const uint64_t window =
                pred_passes > 0
                    ? pred.computation /
                          static_cast<uint64_t>(pred_passes)
                    : 0;
            model.hiddenSignature +=
                std::min(window, fwd[i].signature);
            ++model.fusedEdges;
        }
        prev_conv = static_cast<int>(i);
    }

    model.barrierCycles = model.baseCycles + model.setupCycles;
    model.plannedCycles = model.baseCycles - model.hiddenSignature;
    return model;
}

} // namespace mercury
