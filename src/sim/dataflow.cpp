#include "sim/dataflow.hpp"

#include <algorithm>
#include <cmath>

#include "pipeline/detection_pipeline.hpp"
#include "sim/cycle_model.hpp"
#include "util/logging.hpp"

namespace mercury {

const char *
dataflowName(DataflowKind kind)
{
    switch (kind) {
      case DataflowKind::RowStationary:
        return "row-stationary";
      case DataflowKind::WeightStationary:
        return "weight-stationary";
      case DataflowKind::InputStationary:
        return "input-stationary";
    }
    return "?";
}

const char *
overlapModeName(OverlapMode mode)
{
    switch (mode) {
      case OverlapMode::Off:
        return "off";
      case OverlapMode::On:
        return "on";
      case OverlapMode::Auto:
        return "auto";
    }
    return "?";
}

double
HitMix::hitFraction() const
{
    return vectors ? static_cast<double>(hit) / static_cast<double>(vectors)
                   : 0.0;
}

HitMix
HitMix::fromFractions(int64_t vectors, double hit_frac, double mnu_frac)
{
    if (hit_frac < 0 || mnu_frac < 0 || hit_frac + mnu_frac > 1.0)
        panic("invalid hit mix fractions ", hit_frac, ", ", mnu_frac);
    HitMix m;
    m.vectors = vectors;
    m.hit = static_cast<int64_t>(std::llround(hit_frac * vectors));
    m.mnu = static_cast<int64_t>(std::llround(mnu_frac * vectors));
    if (m.hit + m.mnu > vectors)
        m.mnu = vectors - m.hit;
    m.mau = vectors - m.hit - m.mnu;
    return m;
}

HitMix
HitMix::scaledTo(int64_t new_vectors) const
{
    if (vectors == 0) {
        HitMix m;
        m.vectors = new_vectors;
        m.mau = new_vectors;
        return m;
    }
    const double scale =
        static_cast<double>(new_vectors) / static_cast<double>(vectors);
    HitMix m;
    m.vectors = new_vectors;
    m.hit = static_cast<int64_t>(std::llround(hit * scale));
    m.mnu = static_cast<int64_t>(std::llround(mnu * scale));
    if (m.hit + m.mnu > new_vectors)
        m.mnu = new_vectors - m.hit;
    m.mau = new_vectors - m.hit - m.mnu;
    return m;
}

double
LayerCycles::speedup() const
{
    const uint64_t merc = mercuryTotal();
    if (merc == 0)
        return 1.0;
    return static_cast<double>(baseline) / static_cast<double>(merc);
}

LayerCycles &
LayerCycles::operator+=(const LayerCycles &other)
{
    baseline += other.baseline;
    computation += other.computation;
    signature += other.signature;
    cacheOverhead += other.cacheOverhead;
    return *this;
}

std::unique_ptr<Dataflow>
Dataflow::create(const AcceleratorConfig &cfg)
{
    switch (cfg.dataflow) {
      case DataflowKind::RowStationary:
        return std::make_unique<RowStationaryDataflow>(cfg);
      case DataflowKind::WeightStationary:
        return std::make_unique<WeightStationaryDataflow>(cfg);
      case DataflowKind::InputStationary:
        return std::make_unique<InputStationaryDataflow>(cfg);
    }
    panic("unknown dataflow kind");
}

Dataflow::Dataflow(const AcceleratorConfig &cfg)
    : config_(cfg)
{
    if (cfg.numPEs <= 0)
        fatal("accelerator needs at least one PE");
}

uint64_t
Dataflow::insertOverhead(const HitMix &mix) const
{
    // MAU vectors enqueue one tag insert each; the per-set queue
    // controller serializes inserts within a set while different sets
    // proceed in parallel (§V). The expected serial chain is the
    // largest per-set backlog, approximated by the mean backlog.
    const uint64_t inserts = static_cast<uint64_t>(std::max<int64_t>(
        mix.mau, 0));
    return static_cast<uint64_t>(config_.sim.cacheInsertCycles) *
           ceilDiv(inserts, static_cast<uint64_t>(
                                std::max(config_.mcacheSets, 1)));
}

namespace {

/**
 * A 1x1 convolution has degenerate per-channel vectors (dimension 1),
 * so MERCURY treats it like a fully connected layer whose input
 * vectors span the channel dimension: every spatial position is one
 * Cin-dimensional vector meeting Cout weight vectors.
 */
LayerShape
pointwiseAsFc(const LayerShape &shape)
{
    return LayerShape::fc(shape.name + ".pw", shape.inChannels / shape.groups,
                          shape.outChannels / shape.groups);
}

/** Batch multiplier for the pointwise-as-FC mapping. */
int64_t
pointwiseBatch(const LayerShape &shape, int64_t batch)
{
    // Every spatial position of every group is one input vector.
    return batch * shape.vectorsPerChannel() * shape.groups;
}

/**
 * Rows of one detection pass of this layer — the granularity at which
 * OverlapMode::Auto resolves in the functional engines: a conv layer
 * runs one pass per (image, channel) over its spatial positions,
 * while FC-like layers (and the pointwise-as-FC mapping) hash the
 * whole batch as one pass.
 */
int64_t
rowsPerDetectionPass(const LayerShape &shape, int64_t batch)
{
    switch (shape.type) {
      case LayerType::Conv:
        if (shape.kernel == 1)
            return pointwiseBatch(shape, batch);
        return shape.vectorsPerChannel();
      case LayerType::FullyConnected:
      case LayerType::Attention:
        return batch * shape.vectorsPerImage();
      case LayerType::Pool:
        return 0;
    }
    return 0;
}

/**
 * Whether the modeled accelerator overlaps a detection pass of this
 * shape with its PE work (Fig. 8) — Auto resolves through the threads
 * x rows policy of PipelineConfig::resolvedOverlapFor. This models
 * the accelerator only: the host always detects a pass fully before
 * computing it.
 */
bool
overlapsDetection(const AcceleratorConfig &config, const LayerShape &shape,
                  int64_t batch)
{
    PipelineConfig pipe;
    pipe.threads = config.pipelineThreads;
    pipe.overlap = config.overlapDetection;
    return pipe.resolvedOverlapFor(rowsPerDetectionPass(shape, batch)) ==
           OverlapMode::On;
}

} // namespace

uint64_t
Dataflow::baselineLayerCycles(const LayerShape &shape, int64_t batch) const
{
    switch (shape.type) {
      case LayerType::Conv:
        if (shape.kernel == 1) {
            return fcBaseline(pointwiseAsFc(shape),
                              pointwiseBatch(shape, batch));
        }
        return static_cast<uint64_t>(batch) *
               static_cast<uint64_t>(shape.inChannels) *
               convChannelBaseline(shape);
      case LayerType::FullyConnected:
      case LayerType::Attention:
        return fcBaseline(shape, batch);
      case LayerType::Pool:
        return poolCycles(shape, batch);
    }
    panic("unknown layer type");
}

LayerCycles
Dataflow::mercuryLayerCycles(const LayerShape &shape, int64_t batch,
                             const HitMix &channel_mix, int sig_bits,
                             bool saved_signatures) const
{
    if (!channel_mix.consistent())
        panic("inconsistent hit mix for layer ", shape.name);
    LayerCycles c;
    switch (shape.type) {
      case LayerType::Conv: {
        if (shape.kernel == 1) {
            c = fcMercury(pointwiseAsFc(shape),
                          pointwiseBatch(shape, batch), channel_mix,
                          sig_bits, saved_signatures);
            break;
        }
        const LayerCycles per_channel = convChannelMercury(
            shape, channel_mix, sig_bits, saved_signatures);
        const uint64_t n = static_cast<uint64_t>(batch) *
                           static_cast<uint64_t>(shape.inChannels);
        c.baseline = per_channel.baseline * n;
        c.computation = per_channel.computation * n;
        c.signature = per_channel.signature * n;
        c.cacheOverhead = per_channel.cacheOverhead * n;
        break;
      }
      case LayerType::FullyConnected:
      case LayerType::Attention:
        c = fcMercury(shape, batch, channel_mix, sig_bits,
                      saved_signatures);
        break;
      case LayerType::Pool:
        c.baseline = poolCycles(shape, batch);
        c.computation = c.baseline;
        return c; // no signature work to overlap
      default:
        panic("unknown layer type");
    }

    // Overlapped detection (§III-B, Fig. 8): signature generation
    // streams ahead of the filter passes, so only the portion that
    // exceeds the layer's compute time is exposed on the critical
    // path. Serial accounting charges the full generation cost.
    if (overlapsDetection(config_, shape, batch))
        c.signature -= std::min(c.signature, c.computation);
    return c;
}

namespace {

/** Vectors a layer hashes over a batch (for the replay charge). */
uint64_t
hashedVectors(const LayerShape &shape, int64_t batch)
{
    switch (shape.type) {
      case LayerType::Conv:
        if (shape.kernel == 1)
            return static_cast<uint64_t>(pointwiseBatch(shape, batch));
        return static_cast<uint64_t>(batch) *
               static_cast<uint64_t>(shape.inChannels) *
               static_cast<uint64_t>(shape.vectorsPerChannel());
      case LayerType::FullyConnected:
      case LayerType::Attention:
        return static_cast<uint64_t>(batch) *
               static_cast<uint64_t>(shape.vectorsPerImage());
      case LayerType::Pool:
        return 0;
    }
    return 0;
}

} // namespace

LayerCycles
Dataflow::backwardLayerCycles(const LayerShape &shape, int64_t batch,
                              const HitMix &channel_mix, int sig_bits,
                              bool include_weight_grad) const
{
    LayerCycles c;
    if (!config_.backwardReuse || !shape.reusable()) {
        // No replay: the input-gradient pass runs at the baseline
        // cost (pooling backward mirrors pooling forward too).
        c.baseline = baselineLayerCycles(shape, batch);
        c.computation = c.baseline;
    } else {
        // Replayed reuse: the compute shrinkage follows the forward
        // accounting with signature generation free (saved
        // signatures, §III-C2) — then the replay streaming charge and
        // the vanished insert serialization are applied on top.
        c = mercuryLayerCycles(shape, batch, channel_mix, sig_bits,
                               /*saved_signatures=*/true);
        c.cacheOverhead = 0; // replay performs no MCACHE inserts
        c.signature = signatureReplayCycles(
            hashedVectors(shape, batch),
            static_cast<uint64_t>(config_.numPEs));
        // Fig. 8 extended to backward: the replay stream hides under
        // the remaining gradient compute when detection overlap is
        // on.
        if (overlapsDetection(config_, shape, batch))
            c.signature -= std::min(c.signature, c.computation);
    }
    if (include_weight_grad) {
        c += weightGradLayerCycles(shape, batch, channel_mix, sig_bits);
    }
    return c;
}

LayerCycles
Dataflow::weightGradLayerCycles(const LayerShape &shape, int64_t batch,
                                const HitMix &channel_mix,
                                int sig_bits) const
{
    if (!config_.weightGradReuse || !shape.reusable()) {
        // No replay: dW walks the same MAC structure as the forward
        // pass, at the baseline cost.
        LayerCycles c;
        c.baseline = baselineLayerCycles(shape, batch);
        c.computation = c.baseline;
        return c;
    }

    // Replayed sum-then-multiply (§III-C2 on Eq. 1): the owner-only
    // outer products follow the forward compute shrinkage with
    // signature generation free; on top, every HIT row pays one
    // accumulate add per filter to fold its output gradient into the
    // owner's group sum, spread across the PEs.
    LayerCycles c = mercuryLayerCycles(shape, batch, channel_mix,
                                       sig_bits,
                                       /*saved_signatures=*/true);
    c.cacheOverhead = 0; // replay performs no MCACHE inserts
    const uint64_t vectors = hashedVectors(shape, batch);
    const uint64_t hits = static_cast<uint64_t>(std::llround(
        channel_mix.hitFraction() * static_cast<double>(vectors)));
    c.computation += ceilDiv(
        hits * static_cast<uint64_t>(shape.weightVectors()),
        static_cast<uint64_t>(config_.numPEs));
    c.signature = signatureReplayCycles(
        vectors, static_cast<uint64_t>(config_.numPEs));
    if (overlapsDetection(config_, shape, batch))
        c.signature -= std::min(c.signature, c.computation);
    return c;
}

uint64_t
Dataflow::recordSpillBytes(const LayerShape &shape, int64_t batch,
                           int sig_bits) const
{
    if (!shape.reusable())
        return 0;
    // Per recorded row: the bit-packed signature words, a 4-byte
    // entry id, and a 1-byte outcome — SignatureRecord's layout.
    const uint64_t per_row =
        static_cast<uint64_t>((sig_bits + 63) / 64) * 8 + 4 + 1;
    return hashedVectors(shape, batch) * per_row;
}

uint64_t
Dataflow::fcBaseline(const LayerShape &shape, int64_t batch) const
{
    // One PE per input vector, streaming the M weight vectors
    // serially (§III-C3). Work is spread over all PEs.
    const uint64_t n = static_cast<uint64_t>(batch) *
                       static_cast<uint64_t>(shape.vectorsPerImage());
    const uint64_t d = static_cast<uint64_t>(shape.vectorDim());
    const uint64_t m = static_cast<uint64_t>(shape.weightVectors());
    const uint64_t per_input = m * broadcastDotCycles(d);
    return ceilDiv(n * per_input, static_cast<uint64_t>(config_.numPEs));
}

LayerCycles
Dataflow::fcMercury(const LayerShape &shape, int64_t batch,
                    const HitMix &mix, int sig_bits,
                    bool saved_signatures) const
{
    const uint64_t n = static_cast<uint64_t>(batch) *
                       static_cast<uint64_t>(shape.vectorsPerImage());
    const uint64_t d = static_cast<uint64_t>(shape.vectorDim());
    const uint64_t m = static_cast<uint64_t>(shape.weightVectors());
    const uint64_t p = static_cast<uint64_t>(config_.numPEs);
    const HitMix full = mix.scaledTo(static_cast<int64_t>(n));

    LayerCycles c;
    c.baseline = fcBaseline(shape, batch);

    // Free PEs pull the next input as soon as they finish (the
    // "earlier PE" scheme), so the layer behaves like a work queue:
    // misses compute all M dot products; hits only receive M results
    // from the matching earlier PE.
    const uint64_t miss_work =
        static_cast<uint64_t>(full.misses()) * m * broadcastDotCycles(d);
    const uint64_t hit_work =
        static_cast<uint64_t>(full.hit) * m *
        static_cast<uint64_t>(config_.sim.resultSendCycles);
    c.computation = ceilDiv(miss_work + hit_work, p);

    if (!saved_signatures) {
        const uint64_t sig_work = n * static_cast<uint64_t>(sig_bits) *
                                  broadcastDotCycles(d);
        c.signature = ceilDiv(sig_work, p);
    }
    c.cacheOverhead = insertOverhead(full);
    return c;
}

uint64_t
Dataflow::poolCycles(const LayerShape &shape, int64_t batch) const
{
    // Pooling is elementwise over k*k windows; it is spread across
    // all PEs and is identical for baseline and MERCURY.
    return ceilDiv(shape.macCount(batch),
                   static_cast<uint64_t>(config_.numPEs)) +
           1;
}

// ---------------------------------------------------------------------
// Row stationary
// ---------------------------------------------------------------------

RowStationaryDataflow::RowStationaryDataflow(const AcceleratorConfig &cfg)
    : Dataflow(cfg)
{
}

int64_t
RowStationaryDataflow::numPESets(int64_t x) const
{
    const int64_t sets = config_.numPEs / std::max<int64_t>(x, 1);
    return std::max<int64_t>(sets, 1);
}

uint64_t
RowStationaryDataflow::convChannelBaseline(const LayerShape &shape) const
{
    const int64_t x = shape.kernel;
    const int64_t sets = numPESets(x);
    const uint64_t v = static_cast<uint64_t>(shape.vectorsPerChannel());
    const uint64_t vps = ceilDiv(v, static_cast<uint64_t>(sets));
    return static_cast<uint64_t>(shape.weightVectors()) *
           pipelinedPassCycles(vps, static_cast<uint64_t>(x));
}

void
RowStationaryDataflow::perSetMix(const LayerShape &shape, const HitMix &mix,
                                 std::vector<HitMix> &out) const
{
    const int64_t sets = numPESets(shape.kernel);
    const int64_t v = shape.vectorsPerChannel();
    const HitMix scaled = mix.scaledTo(v);
    out.clear();
    out.reserve(static_cast<size_t>(sets));

    // Largest-remainder apportionment of vectors, then of hits/mnus
    // within each set. Sets receive floor/ceil vector counts.
    int64_t rem_v = v, rem_hit = scaled.hit, rem_mnu = scaled.mnu;
    for (int64_t s = 0; s < sets; ++s) {
        const int64_t sets_left = sets - s;
        HitMix m;
        m.vectors = (rem_v + sets_left - 1) / sets_left;
        // Hits proportional to remaining share.
        m.hit = rem_v ? (rem_hit * m.vectors + rem_v - 1) / rem_v : 0;
        m.hit = std::min(m.hit, std::min(rem_hit, m.vectors));
        m.mnu = rem_v ? (rem_mnu * m.vectors) / rem_v : 0;
        m.mnu = std::min(m.mnu, std::min(rem_mnu, m.vectors - m.hit));
        m.mau = m.vectors - m.hit - m.mnu;
        out.push_back(m);
        rem_v -= m.vectors;
        rem_hit -= m.hit;
        rem_mnu -= m.mnu;
        if (rem_v == 0)
            break;
    }
}

LayerCycles
RowStationaryDataflow::convChannelMercury(const LayerShape &shape,
                                          const HitMix &mix, int sig_bits,
                                          bool saved_signatures) const
{
    const uint64_t x = static_cast<uint64_t>(shape.kernel);
    const uint64_t cout = static_cast<uint64_t>(shape.weightVectors());
    std::vector<HitMix> sets;
    perSetMix(shape, mix, sets);

    LayerCycles c;
    c.baseline = convChannelBaseline(shape);

    // Per-set per-filter compute cost: stream the set's non-HIT
    // vectors through the pipelined schedule. HIT results are fetched
    // from MCACHE by entry id on a parallel path (§V: shared slice
    // registers readable within a fixed delay), so they only bound
    // the pass when fetches outnumber compute cycles.
    uint64_t max_filter_cost = 0;
    uint64_t sum_filter_cost = 0;
    uint64_t max_sig_cost = 0;
    uint64_t sum_sig_cost = 0;
    for (const HitMix &m : sets) {
        const uint64_t filter_cost = std::max(
            pipelinedPassCycles(static_cast<uint64_t>(m.misses()), x),
            static_cast<uint64_t>(m.hit) *
                static_cast<uint64_t>(config_.sim.cacheReadCycles));
        max_filter_cost = std::max(max_filter_cost, filter_cost);
        sum_filter_cost += filter_cost;
        const uint64_t sig_cost =
            saved_signatures
                ? 0
                : static_cast<uint64_t>(sig_bits) *
                      pipelinedPassCycles(
                          static_cast<uint64_t>(m.vectors), x);
        max_sig_cost = std::max(max_sig_cost, sig_cost);
        sum_sig_cost += sig_cost;
    }
    const uint64_t nsets = std::max<uint64_t>(sets.size(), 1);

    const bool async =
        config_.asyncDesign && config_.filterBufferSlots >= 2;
    if (async) {
        // Imbalance is smoothed over passes; long-run cost is the
        // average set load plus one drain of the worst-vs-average gap.
        const uint64_t avg_compute =
            ceilDiv(sum_filter_cost * cout, nsets);
        const uint64_t max_compute = max_filter_cost * cout;
        c.computation = avg_compute + (max_compute - avg_compute) /
                                          std::max<uint64_t>(cout, 1);
        c.signature = ceilDiv(sum_sig_cost, nsets);
    } else {
        c.computation = max_filter_cost * cout;
        c.signature = max_sig_cost;
    }
    c.cacheOverhead = insertOverhead(mix.scaledTo(
        shape.vectorsPerChannel()));
    return c;
}

// ---------------------------------------------------------------------
// Weight stationary
// ---------------------------------------------------------------------

WeightStationaryDataflow::WeightStationaryDataflow(
    const AcceleratorConfig &cfg)
    : Dataflow(cfg)
{
}

namespace {

/**
 * Weight-stationary mapping: one weight element per PE, so a filter
 * of d weights occupies d PEs and numPEs/d filters are resident at
 * once. A streaming pass broadcasts v vectors through the resident
 * filters at one vector per cycle after a d-cycle pipeline fill.
 */
uint64_t
wsFiltersInFlight(int num_pes, uint64_t d)
{
    return std::max<uint64_t>(static_cast<uint64_t>(num_pes) / d, 1);
}

uint64_t
wsPassCycles(uint64_t vectors, uint64_t d)
{
    if (vectors == 0)
        return 0;
    return vectors + d;
}

} // namespace

uint64_t
WeightStationaryDataflow::convChannelBaseline(const LayerShape &shape) const
{
    const uint64_t d = static_cast<uint64_t>(shape.vectorDim());
    const uint64_t in_flight = wsFiltersInFlight(config_.numPEs, d);
    const uint64_t groups =
        ceilDiv(static_cast<uint64_t>(shape.weightVectors()), in_flight);
    const uint64_t v = static_cast<uint64_t>(shape.vectorsPerChannel());
    return groups * wsPassCycles(v, d);
}

LayerCycles
WeightStationaryDataflow::convChannelMercury(const LayerShape &shape,
                                             const HitMix &mix,
                                             int sig_bits,
                                             bool saved_signatures) const
{
    const uint64_t d = static_cast<uint64_t>(shape.vectorDim());
    const uint64_t in_flight = wsFiltersInFlight(config_.numPEs, d);
    const uint64_t groups =
        ceilDiv(static_cast<uint64_t>(shape.weightVectors()), in_flight);
    const uint64_t v = static_cast<uint64_t>(shape.vectorsPerChannel());
    const HitMix m = mix.scaledTo(static_cast<int64_t>(v));

    LayerCycles c;
    c.baseline = convChannelBaseline(shape);

    // Signatures: the random filters are loaded "as the first part of
    // filters" (§IV), i.e. they are prepended to the layer's filter
    // list and share group slots with regular filters. The cost is
    // therefore only the *extra* group passes the longer filter list
    // needs — often a single pass, since the last group's slack
    // absorbs part of the random filters.
    if (!saved_signatures) {
        const uint64_t cout =
            static_cast<uint64_t>(shape.weightVectors());
        const uint64_t groups_with_sig =
            ceilDiv(cout + static_cast<uint64_t>(sig_bits), in_flight);
        c.signature = (groups_with_sig - groups) * wsPassCycles(v, d);
    }

    // Compute: HIT vectors are skipped while streaming from the
    // global buffer. Their reused results are copied from MCACHE to
    // the output buffer by the cache controller, in parallel with the
    // PE stream; one lookup per skipped vector reaches the line whose
    // multi-version data covers the resident filters.
    c.computation =
        groups * wsPassCycles(static_cast<uint64_t>(m.misses()), d) +
        static_cast<uint64_t>(m.hit) *
            static_cast<uint64_t>(config_.sim.cacheReadCycles);
    c.cacheOverhead = insertOverhead(m);
    return c;
}

// ---------------------------------------------------------------------
// Input stationary
// ---------------------------------------------------------------------

InputStationaryDataflow::InputStationaryDataflow(
    const AcceleratorConfig &cfg)
    : Dataflow(cfg)
{
}

namespace {

/**
 * Input-stationary mapping: one input-vector element per PE, so a
 * vector of d elements occupies d PEs and numPEs/d vectors are
 * resident at once. A round streams `weights` filters through the
 * resident vectors, d broadcast cycles per filter.
 */
uint64_t
isVectorsInFlight(int num_pes, uint64_t d)
{
    return std::max<uint64_t>(static_cast<uint64_t>(num_pes) / d, 1);
}

uint64_t
isRoundCycles(uint64_t weights, uint64_t d)
{
    if (weights == 0)
        return 0;
    return weights * d + 1;
}

} // namespace

uint64_t
InputStationaryDataflow::convChannelBaseline(const LayerShape &shape) const
{
    const uint64_t d = static_cast<uint64_t>(shape.vectorDim());
    const uint64_t v = static_cast<uint64_t>(shape.vectorsPerChannel());
    const uint64_t rounds =
        ceilDiv(v, isVectorsInFlight(config_.numPEs, d));
    return rounds *
           isRoundCycles(static_cast<uint64_t>(shape.weightVectors()), d);
}

LayerCycles
InputStationaryDataflow::convChannelMercury(const LayerShape &shape,
                                            const HitMix &mix,
                                            int sig_bits,
                                            bool saved_signatures) const
{
    const uint64_t d = static_cast<uint64_t>(shape.vectorDim());
    const uint64_t v = static_cast<uint64_t>(shape.vectorsPerChannel());
    const uint64_t in_flight = isVectorsInFlight(config_.numPEs, d);
    const uint64_t cout = static_cast<uint64_t>(shape.weightVectors());
    const HitMix m = mix.scaledTo(static_cast<int64_t>(v));

    LayerCycles c;
    c.baseline = convChannelBaseline(shape);

    // Signatures: all vectors are loaded once and the N random
    // vectors are broadcast like weights (§IV).
    if (!saved_signatures) {
        c.signature = ceilDiv(v, in_flight) *
                      isRoundCycles(static_cast<uint64_t>(sig_bits), d);
    }

    // Compute: HIT vectors are never re-loaded, shrinking the number
    // of resident rounds ("MCACHE skips the rest of the weights and
    // loads the next input vector"). Reused results stream from
    // MCACHE to the output buffer in parallel, one lookup per hit.
    const uint64_t miss_rounds =
        ceilDiv(static_cast<uint64_t>(m.misses()), in_flight);
    c.computation =
        miss_rounds * isRoundCycles(cout, d) +
        static_cast<uint64_t>(m.hit) *
            static_cast<uint64_t>(config_.sim.cacheReadCycles);
    c.cacheOverhead = insertOverhead(m);
    return c;
}

} // namespace mercury
