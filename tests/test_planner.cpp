/**
 * @file
 * RuntimePlanner tests (core/runtime_planner.hpp): planned execution
 * is a pure schedule change, so its contract is bit-identity — same
 * outputs, same losses, same reuse statistics as the unplanned path —
 * across every engine (conv / FC / attention), every gradient pass
 * (forward / dX / dW), every conv geometry (dense / strided / grouped
 * / depthwise), and every pipeline knob (1 thread, 4 threads, with
 * the modeled overlap knob off or on). Plus the plan-cache lifecycle
 * (hit / invalidation / cross-context sharing), the once-per-shape
 * knob-resolution guarantee, and the unplannable-step fallback.
 *
 * The 4-thread golden runs double as a race stress: this binary runs
 * under the ThreadSanitizer CI job.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "core/runtime_planner.hpp"
#include "nn/attention_layer.hpp"
#include "nn/layers.hpp"
#include "nn/network.hpp"
#include "workloads/synthetic.hpp"

namespace mercury {
namespace {

void
expectStatsEq(const ReuseStats &a, const ReuseStats &b,
              const char *what)
{
    EXPECT_EQ(a.mix.vectors, b.mix.vectors) << what;
    EXPECT_EQ(a.mix.hit, b.mix.hit) << what;
    EXPECT_EQ(a.mix.mau, b.mix.mau) << what;
    EXPECT_EQ(a.mix.mnu, b.mix.mnu) << what;
    EXPECT_EQ(a.macsTotal, b.macsTotal) << what;
    EXPECT_EQ(a.macsSkipped, b.macsSkipped) << what;
    EXPECT_EQ(a.channelPasses, b.channelPasses) << what;
}

void
expectTensorsEq(const Tensor &a, const Tensor &b, const char *what)
{
    ASSERT_EQ(a.numel(), b.numel()) << what;
    for (int64_t i = 0; i < a.numel(); ++i)
        ASSERT_EQ(a[i], b[i]) << what << " element " << i;
}

using NetBuilder = std::function<std::unique_ptr<Network>(Rng &)>;

/** Everything one planned-vs-unplanned comparison looks at. */
struct StepTrace
{
    std::vector<float> losses;
    Tensor out; ///< post-training forward on the same inputs
    ReuseStats fwd, bwd, wgrad;
    int64_t lookups = 0;
    int64_t hits = 0;
};

StepTrace
runSteps(const NetBuilder &build, const Dataset &ds,
         const PipelineConfig &pipe, bool planned, int steps)
{
    Rng rng(4321);
    std::unique_ptr<Network> net = build(rng);
    MercuryContext ctx(14, 32, 8, 2, 0xFEED);
    ctx.setPipeline(pipe);
    ctx.setBackwardReuse(true);
    ctx.setWeightGradReuse(true);
    ctx.setPlanExecution(planned);
    StepTrace tr;
    for (int s = 0; s < steps; ++s)
        tr.losses.push_back(
            net->trainBatch(ds.inputs, ds.labels, 0.05f, &ctx));
    tr.out = net->forward(ds.inputs, &ctx);
    tr.fwd = ctx.totals();
    tr.bwd = ctx.backwardTotals();
    tr.wgrad = ctx.weightGradTotals();
    tr.lookups = ctx.planLookups();
    tr.hits = ctx.planHits();
    return tr;
}

/** Assert two traces match bit-for-bit (losses, outputs, all nine
 *  pass families' statistics). */
void
expectTracesEq(const StepTrace &a, const StepTrace &b,
               const char *what)
{
    ASSERT_EQ(a.losses.size(), b.losses.size()) << what;
    for (size_t i = 0; i < a.losses.size(); ++i)
        EXPECT_EQ(a.losses[i], b.losses[i]) << what << " step " << i;
    expectTensorsEq(a.out, b.out, what);
    expectStatsEq(a.fwd, b.fwd, what);
    expectStatsEq(a.bwd, b.bwd, what);
    expectStatsEq(a.wgrad, b.wgrad, what);
}

/** conv → relu → conv(variant) → pool → GAP → dense head. */
NetBuilder
convNet(int64_t stride2, int64_t groups2)
{
    return [stride2, groups2](Rng &rng) {
        auto net = std::make_unique<Network>();
        net->add(std::make_unique<Conv2dLayer>(3, 8, 3, 1, 1, rng,
                                               /*layer_id=*/1));
        net->add(std::make_unique<ReluLayer>());
        net->add(std::make_unique<Conv2dLayer>(8, 8, 3, stride2, 1,
                                               rng, /*layer_id=*/2,
                                               groups2));
        net->add(std::make_unique<MaxPoolLayer>());
        net->add(std::make_unique<GlobalAvgPoolLayer>());
        net->add(std::make_unique<DenseLayer>(8, 3, rng,
                                              /*layer_id=*/3));
        return net;
    };
}

NetBuilder
attentionNet()
{
    return [](Rng &rng) {
        auto net = std::make_unique<Network>();
        net->add(std::make_unique<SelfAttentionLayer>(
            6, 8, /*layer_id=*/7, 0.5f));
        net->add(std::make_unique<DenseLayer>(6 * 8, 4, rng,
                                              /*layer_id=*/8));
        return net;
    };
}

Dataset
images()
{
    return makeImageDataset(8, 3, 3, 12, 8801, 0.03f);
}

PipelineConfig
pipeOf(int threads, bool overlap)
{
    PipelineConfig pipe;
    pipe.threads = threads;
    pipe.overlap = overlap ? OverlapMode::On : OverlapMode::Off;
    return pipe;
}

// ---- Golden equivalence: the nine-pass matrix ----------------------

struct ConvVariant
{
    const char *name;
    int64_t stride2;
    int64_t groups2;
};

TEST(PlannerGolden, ConvVariantsBitIdentical)
{
    const Dataset ds = images();
    const ConvVariant variants[] = {
        {"dense", 1, 1},
        {"strided", 2, 1},
        {"grouped", 1, 2},
        {"depthwise", 1, 8},
    };
    for (const ConvVariant &v : variants) {
        const NetBuilder build = convNet(v.stride2, v.groups2);
        const StepTrace plain =
            runSteps(build, ds, pipeOf(1, false), false, 3);
        const StepTrace planned =
            runSteps(build, ds, pipeOf(1, false), true, 3);
        expectTracesEq(plain, planned, v.name);
        // Reuse must actually be happening for the comparison to
        // mean anything.
        EXPECT_GT(planned.fwd.mix.vectors, 0) << v.name;
        EXPECT_GT(planned.wgrad.mix.vectors, 0) << v.name;
        // 4 trainBatch/forward binds, one compile.
        EXPECT_EQ(planned.lookups, 4) << v.name;
        EXPECT_EQ(planned.hits, 3) << v.name;
        EXPECT_EQ(plain.lookups, 0) << v.name;
    }
}

TEST(PlannerGolden, FourThreadCornersBitIdenticalToOneThread)
{
    // Four threads, planned or unplanned, with the modeled overlap
    // knob off or on (it changes the plan key, never the host
    // schedule): all four corners must agree with the 1-thread
    // unplanned golden. On the planned path conv1 → relu → conv2
    // fuses a cross-layer edge. Runs under TSan in CI.
    const Dataset ds = images();
    const NetBuilder build = convNet(1, 1);
    const StepTrace golden =
        runSteps(build, ds, pipeOf(1, false), false, 3);
    const struct
    {
        const char *name;
        int threads;
        bool overlap;
        bool planned;
    } corners[] = {
        {"threads4", 4, false, false},
        {"threads4+planned", 4, false, true},
        {"threads4+overlap", 4, true, false},
        {"threads4+overlap+planned", 4, true, true},
    };
    for (const auto &c : corners) {
        const StepTrace tr = runSteps(
            build, ds, pipeOf(c.threads, c.overlap), c.planned, 3);
        expectTracesEq(golden, tr, c.name);
    }
}

TEST(PlannerGolden, AttentionAndDenseBitIdentical)
{
    const Dataset ds = makeTokenDataset(8, 4, 6, 8, 8802, 0.03f);
    const NetBuilder build = attentionNet();
    for (const bool overlap : {false, true}) {
        const StepTrace plain = runSteps(
            build, ds, pipeOf(overlap ? 4 : 1, overlap), false, 3);
        const StepTrace planned = runSteps(
            build, ds, pipeOf(overlap ? 4 : 1, overlap), true, 3);
        expectTracesEq(plain, planned,
                       overlap ? "attention overlap" : "attention");
        EXPECT_GT(planned.fwd.mix.vectors, 0);
    }
}

// ---- Plan-cache lifecycle ------------------------------------------

TEST(PlannerCache, HitFastPathAndShapeMiss)
{
    Rng rng(11);
    const NetBuilder build = convNet(1, 1);
    std::unique_ptr<Network> net = build(rng);
    const Dataset big = images();
    const Dataset small = makeImageDataset(4, 3, 3, 12, 8803, 0.03f);

    MercuryContext ctx(14, 32, 8, 2, 0xFEED);
    ctx.setPlanExecution(true);

    net->forward(big.inputs, &ctx); // compile
    EXPECT_EQ(ctx.planLookups(), 1);
    EXPECT_EQ(ctx.planHits(), 0);
    ASSERT_NE(ctx.boundPlan(), nullptr);
    const uint64_t key_big = ctx.boundPlan()->key;
    EXPECT_TRUE(ctx.boundPlan()->plannable);

    net->forward(big.inputs, &ctx); // bound-plan fast path
    EXPECT_EQ(ctx.planLookups(), 2);
    EXPECT_EQ(ctx.planHits(), 1);

    net->forward(small.inputs, &ctx); // batch changed: new compile
    EXPECT_EQ(ctx.planLookups(), 3);
    EXPECT_EQ(ctx.planHits(), 1);
    EXPECT_NE(ctx.boundPlan()->key, key_big);

    net->forward(big.inputs, &ctx); // back: plan-cache find, no compile
    EXPECT_EQ(ctx.planLookups(), 4);
    EXPECT_EQ(ctx.planHits(), 2);
    EXPECT_EQ(ctx.boundPlan()->key, key_big);
}

TEST(PlannerCache, ConfigChangeInvalidates)
{
    Rng rng(12);
    std::unique_ptr<Network> net = convNet(1, 1)(rng);
    const Dataset ds = images();
    MercuryContext ctx(14, 32, 8, 2, 0xFEED);
    ctx.setPlanExecution(true);

    net->forward(ds.inputs, &ctx);
    const uint64_t key14 = ctx.boundPlan()->key;

    // Signature growth drops the bound exec and changes the key: the
    // next bind recompiles rather than hitting.
    ctx.setSignatureBits(16);
    EXPECT_EQ(ctx.boundPlan(), nullptr);
    net->forward(ds.inputs, &ctx);
    EXPECT_EQ(ctx.planLookups(), 2);
    EXPECT_EQ(ctx.planHits(), 0);
    EXPECT_NE(ctx.boundPlan()->key, key14);

    // Pipeline knobs participate in the key too.
    ctx.setPipeline(pipeOf(4, true));
    EXPECT_EQ(ctx.boundPlan(), nullptr);
    net->forward(ds.inputs, &ctx);
    EXPECT_EQ(ctx.planHits(), 0);

    // resetPlanState drops the private cache: same shape recompiles.
    const int64_t lookups = ctx.planLookups();
    ctx.resetPlanState();
    net->forward(ds.inputs, &ctx);
    EXPECT_EQ(ctx.planLookups(), lookups + 1);
    EXPECT_EQ(ctx.planHits(), 0);
}

TEST(PlannerCache, SharedAcrossContexts)
{
    PlanCache shared;
    Rng rng_a(13), rng_b(13);
    std::unique_ptr<Network> net_a = convNet(1, 1)(rng_a);
    std::unique_ptr<Network> net_b = convNet(1, 1)(rng_b);
    const Dataset ds = images();

    MercuryContext a(14, 32, 8, 2, 0xFEED);
    a.setPlanExecution(true);
    a.setSharedPlanCache(&shared);
    MercuryContext b(14, 32, 8, 2, 0xFEED);
    b.setPlanExecution(true);
    b.setSharedPlanCache(&shared);

    const Tensor out_a = net_a->forward(ds.inputs, &a);
    EXPECT_EQ(shared.size(), 1);
    EXPECT_EQ(a.planHits(), 0);

    // Same shapes in the second context: the shared cache already
    // holds the plan, so its very first bind is a hit — and the
    // execution state is still private, so results are unchanged.
    const Tensor out_b = net_b->forward(ds.inputs, &b);
    EXPECT_EQ(shared.size(), 1);
    EXPECT_EQ(b.planLookups(), 1);
    EXPECT_EQ(b.planHits(), 1);
    expectTensorsEq(out_a, out_b, "shared plan cache");
}

// ---- Unplannable fallback ------------------------------------------

/** 4D identity that reports opaque (the describeStep default). */
class OpaqueIdentityLayer : public Layer
{
  public:
    Tensor forward(const Tensor &x, MercuryContext *) override
    {
        return x;
    }
    std::string name() const override { return "opaque-identity"; }

  protected:
    Tensor backwardImpl(const Tensor &grad, MercuryContext *) override
    {
        return grad;
    }
};

TEST(PlannerCache, UnplannableStepFallsBack)
{
    // An opaque op breaks shape tracking; the conv behind it makes
    // the whole step unplannable. The bind must still fast-path
    // repeat steps, rowPlanFor must return null (unplanned path),
    // and results must match planning off.
    const Dataset ds = images();
    const NetBuilder build = [](Rng &rng) {
        auto net = std::make_unique<Network>();
        net->add(std::make_unique<OpaqueIdentityLayer>());
        net->add(std::make_unique<Conv2dLayer>(3, 8, 3, 1, 1, rng,
                                               /*layer_id=*/1));
        net->add(std::make_unique<GlobalAvgPoolLayer>());
        net->add(std::make_unique<DenseLayer>(8, 3, rng,
                                              /*layer_id=*/2));
        return net;
    };
    const StepTrace plain =
        runSteps(build, ds, pipeOf(1, false), false, 2);
    const StepTrace planned =
        runSteps(build, ds, pipeOf(1, false), true, 2);
    expectTracesEq(plain, planned, "unplannable");
    EXPECT_EQ(planned.lookups, 3);
    EXPECT_EQ(planned.hits, 2); // fast path still keys the bound plan

    Rng rng(14);
    std::unique_ptr<Network> net = build(rng);
    MercuryContext ctx(14, 32, 8, 2, 0xFEED);
    ctx.setPlanExecution(true);
    net->forward(ds.inputs, &ctx);
    ASSERT_NE(ctx.boundPlan(), nullptr);
    EXPECT_FALSE(ctx.boundPlan()->plannable);
    EXPECT_EQ(ctx.rowPlanFor(2), nullptr);
}

// ---- Knob resolution: once per shape, not once per step ------------

TEST(PlannerKnobs, ResolvedOncePerShape)
{
    Rng rng(15);
    std::unique_ptr<Network> net = convNet(1, 1)(rng);
    const Dataset ds = images();
    MercuryContext ctx(14, 32, 8, 2, 0xFEED);
    ctx.setBackwardReuse(true);
    ctx.setWeightGradReuse(true);
    ctx.setPlanExecution(true);

    net->trainBatch(ds.inputs, ds.labels, 0.05f, &ctx);
    const int64_t after_first = ctx.frontendFor(1).knobResolutions() +
                                ctx.frontendFor(2).knobResolutions() +
                                ctx.frontendFor(3).knobResolutions();
    EXPECT_GT(after_first, 0);
    for (int s = 0; s < 4; ++s)
        net->trainBatch(ds.inputs, ds.labels, 0.05f, &ctx);
    // Steady state: every later step replays the resolved knobs.
    EXPECT_EQ(ctx.frontendFor(1).knobResolutions() +
                  ctx.frontendFor(2).knobResolutions() +
                  ctx.frontendFor(3).knobResolutions(),
              after_first);
}

// ---- Plan compilation shape ----------------------------------------

TEST(PlannerCompile, GeometryAndEdges)
{
    // conv(3→8, 12x12) → relu → conv(8→8) → pool → conv(8→16, 6x6)
    StepDescBuilder b({4, 3, 12, 12});
    ConvSpec c1;
    c1.inChannels = 3;
    c1.outChannels = 8;
    c1.kernelH = 3;
    c1.kernelW = 3;
    c1.stride = 1;
    c1.pad = 1;
    ConvSpec c2 = c1;
    c2.inChannels = 8;
    ConvSpec c3 = c2;
    c3.outChannels = 16;
    b.conv(1, c1);
    b.relu();
    b.conv(2, c2);
    b.maxPool2x2();
    b.conv(3, c3);

    PlanKeyConfig cfg;
    cfg.sigBits = 14;
    cfg.sets = 32;
    cfg.ways = 8;
    cfg.dataVersions = 2;

    std::shared_ptr<const StepPlan> plan =
        RuntimePlanner::compile(b, cfg);
    ASSERT_TRUE(plan->plannable);
    ASSERT_EQ(plan->layers.size(), 3u);
    EXPECT_EQ(plan->fusedEdges, 2);

    const LayerPlan *lp1 = plan->layerPlan(1);
    ASSERT_NE(lp1, nullptr);
    EXPECT_EQ(lp1->rows, 12 * 12);
    EXPECT_EQ(lp1->vecDim, 3 * 3);
    EXPECT_EQ(lp1->passes, 4 * 3); // batch * inChannels
    EXPECT_EQ(lp1->inFlight, 8);
    EXPECT_EQ(lp1->nextConv, 1);
    ASSERT_EQ(lp1->edgeTransforms.size(), 1u);
    EXPECT_EQ(lp1->edgeTransforms[0], StepOpKind::Relu);

    const LayerPlan *lp3 = plan->layerPlan(3);
    ASSERT_NE(lp3, nullptr);
    EXPECT_EQ(lp3->rows, 6 * 6); // pool halved the spatial dims
    EXPECT_EQ(lp3->prevConv, 1);
    EXPECT_GT(lp3->scratchFloats, 0u);

    // The key is stable and sensitive to config.
    EXPECT_EQ(RuntimePlanner::planKey(b, cfg), plan->key);
    PlanKeyConfig cfg2 = cfg;
    cfg2.sigBits = 16;
    EXPECT_NE(RuntimePlanner::planKey(b, cfg2), plan->key);
    PlanKeyConfig cfg3 = cfg;
    cfg3.pipe.overlap = OverlapMode::On;
    EXPECT_NE(RuntimePlanner::planKey(b, cfg3), plan->key);
}

} // namespace
} // namespace mercury
