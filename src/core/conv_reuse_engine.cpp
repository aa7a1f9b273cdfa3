#include "core/conv_reuse_engine.hpp"

#include <algorithm>

#include "core/kernels/kernels.hpp"
#include "core/span_batcher.hpp"
#include "util/logging.hpp"

namespace mercury {

ConvReuseEngine::ConvReuseEngine(MCache &cache, int sig_bits,
                                 uint64_t seed, const PipelineConfig &pipe)
    : frontend_(cache, sig_bits, seed, pipe, "ConvReuseEngine")
{
}

ConvReuseEngine::ConvReuseEngine(DetectionFrontend &frontend, int sig_bits,
                                 ConvLanes *lanes)
    : frontend_(frontend, sig_bits, "ConvReuseEngine"), lanes_(lanes)
{
}

ConvLanes &
ConvReuseEngine::lanes()
{
    if (lanes_)
        return *lanes_;
    if (!ownLanes_)
        ownLanes_ = std::make_unique<ConvLanes>();
    return *ownLanes_;
}

namespace {

/** Channel-pass geometry shared by the three conv passes. */
struct ConvGeometry
{
    int64_t n = 0;      ///< images
    int64_t oh = 0;     ///< output height
    int64_t ow = 0;     ///< output width
    int64_t k = 0;      ///< square kernel side
    int64_t d = 0;      ///< vector dimension k*k
    int64_t v = 0;      ///< rows per channel pass (output positions)
    int64_t groups = 0;
    int64_t cinG = 0;   ///< input channels per group
    int64_t coutG = 0;  ///< filters per group

    ConvGeometry(const ConvSpec &spec, int64_t images, int64_t out_h,
                 int64_t out_w)
        : n(images), oh(out_h), ow(out_w), k(spec.kernelH), d(k * k),
          v(out_h * out_w),
          groups(spec.groups), cinG(spec.inChannels / spec.groups),
          coutG(spec.outChannels / spec.groups)
    {
        if (spec.kernelW != k)
            panic("ConvReuseEngine expects square kernels");
    }

    /** Channel passes of one layer call. */
    int64_t passes() const { return n * groups * cinG; }

    /**
     * Forward-order index of pass (image b, group g, channel ic): the
     * record's pass order, which every replay re-walks.
     */
    int64_t passIndex(int64_t b, int64_t g, int64_t ic) const
    {
        return (b * groups + g) * cinG + ic;
    }

    /** Baseline MACs of one channel pass (every filter, every row). */
    uint64_t passMacs() const
    {
        return static_cast<uint64_t>(v) * static_cast<uint64_t>(coutG) *
               static_cast<uint64_t>(d);
    }

    /** Kernel of filter `f` of group `g` against input channel `ic`. */
    const float *kernel(const Tensor &weight, int64_t g, int64_t f,
                        int64_t ic) const
    {
        return weight.data() + (((g * coutG + f) * cinG + ic) * k) * k;
    }
};

/** Size a lane's patch buffer to (rows, dim); no-op in steady state. */
void
shapeRows(Tensor &rows, int64_t n, int64_t d)
{
    if (rows.rank() != 2 || rows.dim(0) != n || rows.dim(1) != d)
        rows = Tensor({n, d});
}

/**
 * One filter pass over a channel pass's rows: HIT vectors fetch the
 * owner's dot product from the data plane, misses compute, MAU rows
 * deposit. Returns the MACs skipped. Rows run in order, so every
 * HIT's owner (an earlier MAU row) has already deposited; the plane
 * holds this filter's values only (invalidated before each filter).
 */
uint64_t
filterPass(PassDataPlane &plane, const Tensor &rows,
           const McacheResult *row_results, const float *w, int64_t v,
           int64_t d, float *out_base)
{
    uint64_t skipped = 0;
    for (int64_t i = 0; i < v; ++i) {
        const McacheResult &mr = row_results[i];
        // Hide the next row's data-plane latency behind this row's
        // dot product (entry ids jump around the plane, so the
        // hardware stride prefetcher cannot see this pattern).
        if (i + 1 < v)
            plane.prefetch(row_results[i + 1].entryId, 0);
        float val;
        if (mr.outcome == McacheOutcome::Hit &&
            plane.readIfValid(mr.entryId, 0, val)) {
            // Reuse the earlier vector's result.
            skipped += static_cast<uint64_t>(d);
        } else {
            const float *row = rows.data() + i * d;
            float acc = 0.0f;
            for (int64_t e = 0; e < d; ++e)
                acc += row[e] * w[e];
            val = acc;
            if (mr.outcome == McacheOutcome::Mau)
                plane.write(mr.entryId, 0, acc);
        }
        out_base[i] += val;
    }
    return skipped;
}

/**
 * Fill one filter's grad column: a row that computed forward
 * multiplies its output gradient into the kernel; a forward-HIT row
 * copies its owner's already-filled row (§III-C2 — the owner is an
 * earlier row of the same pass). Returns the MACs skipped.
 */
uint64_t
gradColumn(const std::vector<int64_t> &owner, const float *go,
           const float *w, float *col, int64_t v, int64_t d)
{
    const kernels::KernelOps &k = kernels::ops();
    uint64_t skipped = 0;
    int64_t r = 0;
    while (r < v) {
        const int64_t o = owner[static_cast<size_t>(r)];
        if (o == r) {
            k.scaleSpan(col + r * d, go[r], w, d);
            ++r;
            continue;
        }
        // Coalesce adjacent HIT rows whose owners are also adjacent
        // into one span copy: destination rows r.. and source rows
        // o.. are each contiguous in the column buffer, and the
        // owner run ends before row r (owners are computed rows, so
        // the index sets are disjoint and o + len <= r) — the ranges
        // never overlap.
        int64_t e = r + 1;
        while (e < v && owner[static_cast<size_t>(e)] != e &&
               owner[static_cast<size_t>(e)] ==
                   owner[static_cast<size_t>(e - 1)] + 1)
            ++e;
        k.copySpan(col + r * d, col + o * d, (e - r) * d);
        skipped += static_cast<uint64_t>(e - r) * static_cast<uint64_t>(d);
        r = e;
    }
    return skipped;
}

/**
 * Scatter one filter's grad column into its input-channel plane in
 * the exact path's accumulation order — output positions ascending,
 * kernel rows ascending — so that with filters scattered in ascending
 * order a zero-hit replay reproduces conv2dBackwardInput bit for bit.
 * Each kernel row clips to one contiguous in-bounds window
 * (span_batcher.hpp), so the scatter is one addSpan per (position,
 * kernel row): elementwise adds in the per-element loop's order.
 */
void
scatterGradColumn(const float *col, const ConvSpec &spec, int64_t oh,
                  int64_t ow, int64_t in_h, int64_t in_w, float *gin)
{
    const kernels::KernelOps &kn = kernels::ops();
    const int64_t k = spec.kernelH;
    const int64_t d = k * k;
    int64_t r = 0;
    for (int64_t y = 0; y < oh; ++y) {
        const int64_t iy0 = y * spec.stride - spec.pad;
        for (int64_t x = 0; x < ow; ++x, ++r) {
            const KxSpan kxs = kxSpan(x, spec.stride, spec.pad, k, in_w);
            if (kxs.kx0 >= kxs.kx1)
                continue;
            const float *src = col + r * d + kxs.kx0;
            const int64_t ix0 = x * spec.stride - spec.pad + kxs.kx0;
            for (int64_t ky = 0; ky < k; ++ky) {
                const int64_t iy = iy0 + ky;
                if (iy < 0 || iy >= in_h)
                    continue;
                kn.addSpan(gin + iy * in_w + ix0, src + ky * k,
                           kxs.kx1 - kxs.kx0);
            }
        }
    }
}

/**
 * Fold each row's output gradient into its owner's group sum (§III-C2
 * sum-then-multiply, Eq. 1). An owner slot starts as a bit-exact copy
 * of its own gradient, so singleton groups reproduce the exact per-row
 * contribution; HIT rows accumulate with adds. Returns the MACs the
 * filter's deferred outer products skip.
 */
uint64_t
groupSums(const std::vector<int64_t> &owner, const float *go, float *gcol,
          int64_t v, int64_t d)
{
    uint64_t skipped = 0;
    for (int64_t r = 0; r < v; ++r) {
        const int64_t o = owner[static_cast<size_t>(r)];
        if (o == r) {
            gcol[r] = go[r];
        } else {
            gcol[o] += go[r];
            skipped += static_cast<uint64_t>(d);
        }
    }
    return skipped;
}

/** The recorded pass of (b, g, ic), checked against the geometry. */
const SignatureRecord::Pass &
recordedPass(const SignatureRecord &record, const ConvGeometry &geo,
             int64_t b, int64_t g, int64_t ic)
{
    const SignatureRecord::Pass &pass =
        record.pass(geo.passIndex(b, g, ic));
    if (pass.rows != geo.v)
        panic("recorded pass holds ", pass.rows, " rows, gradient has ",
              geo.v);
    return pass;
}

void
checkRecord(const SignatureRecord &record, const ConvGeometry &geo,
            const char *what)
{
    if (record.passCount() != geo.passes())
        panic("record holds ", record.passCount(), " passes, ", what,
              " needs ", geo.passes(),
              " — was forward captured with the same layer geometry?");
}

} // namespace

// Declared in the header (shared with the pipeline's fused
// extraction): the Fig. 7a per-channel vector extraction, routed
// through the extractPatches kernel (span-clipped copies —
// bit-identical to the elementwise loop it replaced, since extraction
// moves values without arithmetic).
void
extractChannelPatchRows(const Tensor &input, const ConvSpec &spec,
                        int64_t b, int64_t c, int64_t ow, int64_t r0,
                        int64_t r1, Tensor &rows)
{
    kernels::ops().extractPatches(
        input.data() + input.offset4(b, c, 0, 0), input.dim(2),
        input.dim(3), ow, spec.stride, spec.pad, spec.kernelH, r0, r1,
        rows.data());
}

void
extractChannelPatches(const Tensor &input, const ConvSpec &spec, int64_t b,
                      int64_t c, int64_t oh, int64_t ow, Tensor &rows)
{
    extractChannelPatchRows(input, spec, b, c, ow, 0, oh * ow, rows);
}

Tensor
ConvReuseEngine::forward(const Tensor &input, const Tensor &weight,
                         const Tensor &bias, const ConvSpec &spec,
                         ReuseStats &stats, SignatureRecord *record)
{
    if (input.rank() != 4 || weight.rank() != 4)
        panic("ConvReuseEngine expects rank-4 input and weight");
    const ConvGeometry geo(spec, input.dim(0), spec.outH(input.dim(2)),
                           spec.outW(input.dim(3)));
    const int bits = frontend_.signatureBits();
    DetectionFrontend &fe = *frontend_;

    Tensor out({geo.n, spec.outChannels, geo.oh, geo.ow});
    if (bias.numel()) {
        for (int64_t b = 0; b < geo.n; ++b)
            for (int64_t oc = 0; oc < spec.outChannels; ++oc)
                for (int64_t i = 0; i < geo.v; ++i)
                    out[out.offset4(b, oc, 0, 0) + i] = bias[oc];
    }

    // Independent passes (every pass starts from a cleared cache) deal
    // the images to the lanes whole: an image's passes accumulate into
    // its own output planes, in the same (group, channel) order as a
    // serial run, and each lane probes its own MCACHE through the
    // layer's read-only projection. On a persistent or quota'd cache
    // a pass depends on the ones before it, so one lane runs every
    // image in (image, group, channel) order on the driving thread and
    // detects through the frontend's cache (pooled; a persistent
    // cache is not cleared, a quota'd one is probed in stream order).
    // Either way HIT forwarding runs on the lane's data plane with one
    // version slot, invalidated per filter: a filter only ever reads
    // what it deposited itself in this pass.
    const bool independent = fe.passesIndependent();
    const DetectionFrontend::LaneView view =
        fe.laneView(geo.v, geo.d, bits);
    if (record)
        record->resizePasses(geo.passes(), fe.dataVersions(),
                             fe.entries());
    const int64_t entries = fe.entries();
    const auto forwardImage = [&](ConvLane &lane, int64_t b) {
        for (int64_t g = 0; g < geo.groups; ++g) {
            for (int64_t ic = 0; ic < geo.cinG; ++ic) {
                const int64_t c = g * geo.cinG + ic;
                // Single-touch fusion: each projection block extracts
                // its rows right before hashing them.
                const RowFiller fill = [&](int64_t r0, int64_t r1) {
                    extractChannelPatchRows(input, spec, b, c, geo.ow, r0,
                                            r1, lane.rows);
                };
                const DetectionResult det =
                    independent ? view.detect(*lane.cache, lane.rows, fill)
                                : fe.detect(lane.rows, bits, nullptr, fill);
                if (record)
                    record->capturePassAt(geo.passIndex(b, g, ic), det,
                                          bits);
                for (int64_t i = 0; i < geo.v; ++i)
                    lane.results[static_cast<size_t>(i)] = {
                        det.hitmap.outcome(i), det.hitmap.entryId(i)};
                for (int64_t f = 0; f < geo.coutG; ++f) {
                    lane.plane.invalidateAll();
                    lane.stats.macsSkipped += filterPass(
                        lane.plane, lane.rows, lane.results.data(),
                        geo.kernel(weight, g, f, ic), geo.v, geo.d,
                        out.data() +
                            out.offset4(b, g * geo.coutG + f, 0, 0));
                }
                lane.stats.mix += det.mix();
                ++lane.stats.channelPasses;
                lane.stats.macsTotal += geo.passMacs();
            }
        }
    };
    stats = lanes().run(
        fe, independent ? geo.n : 1, [&](ConvLane &lane, int64_t item) {
            shapeRows(lane.rows, geo.v, geo.d);
            lane.plane.configure(entries, 1);
            lane.results.resize(static_cast<size_t>(geo.v));
            const int64_t b0 = independent ? item : 0;
            const int64_t b1 = independent ? item + 1 : geo.n;
            for (int64_t b = b0; b < b1; ++b)
                forwardImage(lane, b);
        });
    return out;
}

Tensor
ConvReuseEngine::backwardInput(const Tensor &gradOut, const Tensor &weight,
                               const ConvSpec &spec, int64_t in_h,
                               int64_t in_w, const SignatureRecord &record,
                               ReuseStats &stats)
{
    if (gradOut.rank() != 4 || weight.rank() != 4)
        panic("ConvReuseEngine expects rank-4 gradient and weight");
    const ConvGeometry geo(spec, gradOut.dim(0), gradOut.dim(2),
                           gradOut.dim(3));
    checkRecord(record, geo, "backward");
    Tensor grad_in({geo.n, spec.inChannels, in_h, in_w});

    // A replay never touches the MCACHE, so its passes are independent
    // on any cache: the images are dealt to the lanes whole. Within a
    // pass each filter fills the lane's grad column and scatters it
    // before the next, so every input cell receives its adds in the
    // exact path's (filter, position, kernel row) order.
    stats = lanes().run(*frontend_, geo.n, [&](ConvLane &lane, int64_t b) {
        lane.col.resize(static_cast<size_t>(geo.v * geo.d));
        float *col = lane.col.data();
        for (int64_t g = 0; g < geo.groups; ++g) {
            for (int64_t ic = 0; ic < geo.cinG; ++ic) {
                const SignatureRecord::Pass &pass =
                    recordedPass(record, geo, b, g, ic);
                record.ownersOf(pass, lane.owner);
                float *gin = grad_in.data() +
                             grad_in.offset4(b, g * geo.cinG + ic, 0, 0);
                for (int64_t f = 0; f < geo.coutG; ++f) {
                    lane.stats.macsSkipped += gradColumn(
                        lane.owner,
                        gradOut.data() +
                            gradOut.offset4(b, g * geo.coutG + f, 0, 0),
                        geo.kernel(weight, g, f, ic), col, geo.v, geo.d);
                    scatterGradColumn(col, spec, geo.oh, geo.ow, in_h,
                                      in_w, gin);
                }
                lane.stats.mix += pass.mix;
                ++lane.stats.channelPasses;
                lane.stats.macsTotal += geo.passMacs();
            }
        }
    });
    return grad_in;
}

Tensor
ConvReuseEngine::backwardWeights(const Tensor &input, const Tensor &gradOut,
                                 const ConvSpec &spec,
                                 const SignatureRecord &record,
                                 ReuseStats &stats)
{
    if (input.rank() != 4 || gradOut.rank() != 4)
        panic("ConvReuseEngine expects rank-4 input and gradient");
    const ConvGeometry geo(spec, input.dim(0), gradOut.dim(2),
                           gradOut.dim(3));
    checkRecord(record, geo, "weight gradient");
    Tensor grad_w({spec.outChannels, geo.cinG, geo.k, geo.k});

    // dW sums over images, so the lanes are dealt (group, input
    // channel) columns instead: a column's grad_w rows belong to it
    // alone, and the lane walks its images in order, so every weight
    // element accumulates in conv2dBackwardWeight's (image, output
    // position) order — owners ascending within a pass, one multiply
    // per hit-group through the owner's re-extracted patch.
    stats = lanes().run(
        *frontend_, geo.groups * geo.cinG, [&](ConvLane &lane, int64_t gc) {
            const kernels::KernelOps &kn = kernels::ops();
            const int64_t g = gc / geo.cinG;
            const int64_t ic = gc % geo.cinG;
            shapeRows(lane.rows, geo.v, geo.d);
            lane.gcol.resize(static_cast<size_t>(geo.v));
            float *gcol = lane.gcol.data();
            for (int64_t b = 0; b < geo.n; ++b) {
                const SignatureRecord::Pass &pass =
                    recordedPass(record, geo, b, g, ic);
                record.ownersOf(pass, lane.owner);
                extractChannelPatches(input, spec, b, gc, geo.oh, geo.ow,
                                      lane.rows);
                for (int64_t f = 0; f < geo.coutG; ++f) {
                    const int64_t oc = g * geo.coutG + f;
                    lane.stats.macsSkipped += groupSums(
                        lane.owner,
                        gradOut.data() + gradOut.offset4(b, oc, 0, 0),
                        gcol, geo.v, geo.d);
                    float *gw =
                        grad_w.data() + ((oc * geo.cinG + ic) * geo.k) * geo.k;
                    for (int64_t r = 0; r < geo.v; ++r) {
                        if (lane.owner[static_cast<size_t>(r)] == r)
                            kn.axpy(gw, gcol[r],
                                    lane.rows.data() + r * geo.d, geo.d);
                    }
                }
                lane.stats.mix += pass.mix;
                ++lane.stats.channelPasses;
                lane.stats.macsTotal += geo.passMacs();
            }
        });
    return grad_w;
}

} // namespace mercury
