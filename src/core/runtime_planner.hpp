/**
 * @file
 * RuntimePlanner: ahead-of-time compilation of one training step's
 * pass graph into a reusable StepPlan (ROADMAP "compile the pass
 * graph once, execute steps as replay of a precomputed plan").
 *
 * Every unplanned step re-derives the same work: each layer re-builds
 * its ReuseRuntime pass descriptors and re-resolves the tuning knobs
 * (tunedPipelineFor / resolvedShards). None of that depends on the
 * batch *values* — only on layer shapes and configuration — so the
 * planner walks the network's step description once and emits:
 *
 *  - a LayerPlan per reuse-capable layer: resolved pass geometry
 *    (rows, vector dim, pass count, in-flight filter width), the
 *    per-shape pipeline knobs resolved exactly once,
 *    the per-lane buffer high-water, and the SignatureRecord
 *    hold/spill decision (storage-byte prediction vs the hold
 *    threshold) made at plan time instead of per step;
 *
 *  - dependency edges between adjacent conv layers separated only by
 *    channelwise transforms (ReLU / 2x2 max pool). Channelwise
 *    transforms keep channel 0 of image 0 self-contained, so on the
 *    accelerator the successor's first channel pass can be extracted
 *    and hashed while the predecessor's trailing filter ranges drain
 *    (cross-LAYER overlap); the timing model (sim/plan_model.hpp)
 *    charges that overlap per edge. Barriers remain only where a
 *    genuine data dependence through a non-channelwise op requires
 *    them; StepPlan counts both. The host executor needs no edge:
 *    it runs whole channel passes on lanes (core/reuse_runtime.hpp,
 *    ConvLanes), whose one join per layer call is the only barrier.
 *
 * Plans are immutable and shareable: a StepPlan holds no frontend or
 * cache pointers, so one PlanCache can serve every same-shape session
 * of a MercuryServer. The mutable half — the dense and attention
 * layers' persistent ReuseRuntimes and row-pass scratch — lives in a
 * per-context PlanExec built by
 * buildPlanExec() and invalidated whenever the context's frontends
 * are (setPipeline / setSignatureBits / setLayerCacheProvider).
 *
 * Plan-cache keying: FNV-1a over the ordered step description (op
 * kinds, layer ids, conv specs with resolved input spatial dims,
 * dense/attention dims, batch) plus every knob that changes pass
 * construction — signature bits, MCACHE organization (sets / ways /
 * data versions), pipeline knobs (block rows, shards, threads,
 * overlap, persistent), and the backward / weight-gradient capture
 * flags. Anything else (seeds, weights, batch values) affects values,
 * not structure, and is deliberately outside the key.
 */

#ifndef MERCURY_CORE_RUNTIME_PLANNER_HPP
#define MERCURY_CORE_RUNTIME_PLANNER_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/reuse_runtime.hpp"
#include "pipeline/detection_frontend.hpp"
#include "sim/layer_shape.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace mercury {

/** One op of a network's step description (forward order). */
enum class StepOpKind
{
    Conv,       ///< reuse-capable convolution
    Dense,      ///< reuse-capable fully connected layer
    Attention,  ///< reuse-capable self-attention
    Relu,       ///< channelwise; fusable across a conv→conv edge
    MaxPool2x2, ///< channelwise; fusable across a conv→conv edge
    Opaque,     ///< anything else; breaks shape tracking and fusion
};

/** Static description of one layer's step contribution. */
struct LayerStepDesc
{
    StepOpKind kind = StepOpKind::Opaque;
    uint64_t layerId = 0;

    // Conv: spec plus the input spatial dims resolved by the walk.
    ConvSpec conv;
    int64_t inH = 0;
    int64_t inW = 0;

    // Dense.
    int64_t inFeatures = 0;
    int64_t outFeatures = 0;

    // Attention.
    int64_t seqLen = 0;
    int64_t embedDim = 0;
};

/**
 * Collects a network's step description in one forward walk
 * (Layer::describeStep). Tracks the activation shape so conv layers
 * get resolved spatial dims; an Opaque op (or a shape the tracker
 * cannot follow) invalidates 4D tracking — a later conv then marks
 * the whole plan unplannable and every layer runs the unplanned path
 * (bit-identical either way; planning is purely a schedule).
 */
class StepDescBuilder
{
  public:
    explicit StepDescBuilder(const std::vector<int64_t> &input_shape);

    void conv(uint64_t layer_id, const ConvSpec &spec);
    void dense(uint64_t layer_id, int64_t in_features,
               int64_t out_features);
    void attention(uint64_t layer_id, int64_t seq_len, int64_t embed_dim);
    void relu();
    void maxPool2x2();
    void opaque();

    const std::vector<LayerStepDesc> &ops() const { return ops_; }
    int64_t batch() const { return batch_; }
    /** False once a conv was described with untrackable input shape. */
    bool plannable() const { return plannable_; }

  private:
    std::vector<LayerStepDesc> ops_;
    int64_t batch_ = 0;
    // Tracked 4D activation shape (valid4d_ false after flatten /
    // GAP / opaque ops — dense and attention do not need it).
    bool valid4d_ = false;
    int64_t c_ = 0, h_ = 0, w_ = 0;
    bool plannable_ = true;
};

/** Config slice that participates in the plan key (see file header). */
struct PlanKeyConfig
{
    int sigBits = 0;
    int sets = 0;
    int ways = 0;
    int dataVersions = 0;
    PipelineConfig pipe;
    bool backwardReuse = false;
    bool weightGradReuse = false;
};

/** Compiled per-layer schedule of one step (immutable). */
struct LayerPlan
{
    LayerStepDesc desc;

    // Pass geometry resolved at compile time.
    int64_t rows = 0;     ///< vectors per detection pass
    int64_t vecDim = 0;   ///< extracted vector dimensionality
    int64_t passes = 0;   ///< detection passes per forward invocation
    int64_t outH = 0;     ///< conv output spatial dims
    int64_t outW = 0;
    int64_t inFlight = 0; ///< conv filters in flight (cout / groups)

    /** Pipeline knobs resolved once per shape (satellite: the
     *  per-pass tunedPipelineFor / resolvedShards churn is hoisted
     *  here and to DetectionFrontend::resolvedPipeFor). Includes the
     *  modeled overlap decision — pipe.overlap is On or Off here,
     *  never Auto (PipelineConfig::resolvedOverlapFor applied to this
     *  layer's rows at compile time); the host schedule ignores it. */
    PipelineConfig pipe;

    /** Per-lane buffer high-water in floats of one channel pass
     *  (conv: patch rows, plus a grad column and group sums when the
     *  backward passes replay). */
    uint64_t scratchFloats = 0;

    /** Predicted SignatureRecord bytes of a captured forward, and the
     *  plan-time hold (true) vs spill (false) decision the timing
     *  model charges for (functional execution always holds — host
     *  memory is the spill target). */
    uint64_t recordBytes = 0;
    bool holdRecord = true;

    // Cross-layer dependency edge (conv→conv through channelwise
    // transforms only). Indices into StepPlan::layers; -1 = none.
    int nextConv = -1;
    int prevConv = -1;
    /** Transforms interposed on the fused edge, in forward order
     *  (Relu / MaxPool2x2 only). */
    std::vector<StepOpKind> edgeTransforms;
};

/** Compiled whole-step schedule (immutable, shareable, cache-keyed). */
struct StepPlan
{
    uint64_t key = 0;
    int64_t batch = 0;
    bool plannable = false;
    /** Reuse-capable layers in forward order. */
    std::vector<LayerPlan> layers;
    /** Knob resolutions compile performed (once per layer shape). */
    int knobResolutions = 0;
    /** Layer-boundary joins the ordering contract retains. */
    int stepBarriers = 0;
    /** Conv→conv edges scheduled for cross-layer overlap. */
    int fusedEdges = 0;

    /** Plan for layer `layer_id`, or null. */
    const LayerPlan *layerPlan(uint64_t layer_id) const;
};

/** Walks a step description once and emits the compiled plan. */
class RuntimePlanner
{
  public:
    /** Cache key of the plan compile() would emit (cheap; no plan
     *  construction). Stable across processes for identical input. */
    static uint64_t planKey(const StepDescBuilder &desc,
                            const PlanKeyConfig &cfg);

    static std::shared_ptr<const StepPlan>
    compile(const StepDescBuilder &desc, const PlanKeyConfig &cfg);
};

/**
 * Keyed store of compiled plans. Thread-safe (a MercuryServer shares
 * one across sessions); plans are immutable so a found plan needs no
 * further synchronization.
 */
class PlanCache
{
  public:
    std::shared_ptr<const StepPlan> find(uint64_t key) const;
    void insert(std::shared_ptr<const StepPlan> plan);
    void clear();
    int64_t size() const;

  private:
    mutable std::mutex mutex_;
    std::map<uint64_t, std::shared_ptr<const StepPlan>> plans_;
};

/** Mutable row-pass execution state (dense / attention layers). */
struct RowPlanSlot
{
    const LayerPlan *plan = nullptr;
    std::unique_ptr<ReuseRuntime> runtime;
    std::vector<int64_t> ownerOfEntry;
    std::vector<int64_t> owner;
};

/** A bound plan plus its per-layer execution slots. */
struct PlanExec
{
    std::shared_ptr<const StepPlan> plan;
    std::map<uint64_t, std::unique_ptr<RowPlanSlot>> row;

    RowPlanSlot *rowSlot(uint64_t layer_id);
};

/**
 * Backend-neutral replay record of one layer's detection passes,
 * exported from a compiled StepPlan for consumers that model (rather
 * than execute) the step — the event-model backend replays these
 * through its memory hierarchy, so the timing study and the
 * functional executor share one workload definition (ROADMAP
 * "plan-driven multi-backend dispatch").
 */
struct PassDescriptor
{
    uint64_t layerId = 0;
    StepOpKind kind = StepOpKind::Opaque;

    // Pass geometry (LayerPlan fields, verbatim).
    int64_t rows = 0;     ///< vectors per detection pass
    int64_t vecDim = 0;   ///< extracted vector dimensionality
    int64_t passes = 0;   ///< detection passes per step
    int64_t inFlight = 0; ///< filters in flight per pass

    /**
     * Raw activation bytes one pass streams from its input tensor
     * (conv: one channel plane — patch extraction runs on-chip over
     * the streamed plane; dense / attention: the whole row block).
     */
    int64_t inputBytesPerPass = 0;
    /** Whole input tensor bytes (GlobalBuffer residency decision). */
    int64_t inputTensorBytes = 0;

    /** SignatureRecord bytes held between forward and the gradient
     *  passes, and the plan-time hold (true) vs spill (false) call. */
    uint64_t recordBytes = 0;
    bool holdRecord = true;

    /** Fused conv→conv edge indices into the descriptor vector
     *  (-1 = none): the successor's first hash overlaps the
     *  predecessor's trailing drain. */
    int prevConv = -1;
    int nextConv = -1;
};

/** Export one PassDescriptor per plan layer, in forward order.
 *  Empty when the plan is not plannable. */
std::vector<PassDescriptor> exportPassDescriptors(const StepPlan &plan);

/**
 * Describe a model-zoo layer stack as a step description, so shape
 * stacks compile through RuntimePlanner::compile exactly like a live
 * Network walk (sim::CostModel drives both entry points through one
 * planner). Sequential stacks with chain-consistent geometry (VGG,
 * MobileNet) come out plannable; branching stacks (inception /
 * residual tables, whose listed convs do not chain) and pools other
 * than 2x2/s2 degrade to opaque ops — unplannable, the same verdict a
 * live walk of such a topology would reach.
 */
StepDescBuilder describeShapeStack(const std::vector<LayerShape> &stack,
                                   int64_t batch);

/**
 * Reconstruct the timing-model layer stack of a step description:
 * one LayerShape per reuse op plus one per tracked 2x2 max pool
 * (ReLU / opaque ops carry no cycles). The inverse of
 * describeShapeStack up to layer names; feeds a compiled plan back
 * into the closed-form step model.
 */
std::vector<LayerShape> shapesFromStepDesc(const StepDescBuilder &desc);

/**
 * Build the execution state of a compiled plan: persistent runtimes
 * for the dense and attention layers' frontends (conv layers run on
 * the context's lanes and need none). `frontend_for(layer_id)` provisions
 * the layer's detection front-end (MercuryContext::frontendFor); the
 * call also primes each frontend's per-shape knob memo
 * (DetectionFrontend::resolvedPipeFor) so steady-state passes never
 * re-resolve.
 */
std::unique_ptr<PlanExec> buildPlanExec(
    std::shared_ptr<const StepPlan> plan, int sig_bits,
    const std::function<DetectionFrontend &(uint64_t)> &frontend_for);

} // namespace mercury

#endif // MERCURY_CORE_RUNTIME_PLANNER_HPP
