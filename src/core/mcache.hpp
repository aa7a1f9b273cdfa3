/**
 * @file
 * MCACHE: the signature-indexed result cache at the heart of MERCURY
 * (§III-B3, §III-C1, §V).
 *
 * Differences from an ordinary cache, per the paper:
 *  - there is no replacement: inserting into a full set fails (the
 *    requesting vector becomes Miss-No-Update);
 *  - entries are addressable by a dense id so later accesses skip tag
 *    comparison (§V), and per-set insert queues serialize
 *    simultaneous inserts.
 *
 * This class is the tag plane only. The paper's multi-version data
 * portion (one result slot per in-flight filter, Valid-Data bits set
 * after the tag, a bitline clearing them per filter) is carried by
 * the engines' PassDataPlane (core/pass_arena.hpp), indexed by the
 * entry ids this class hands out. The version count survives here as
 * geometry: dataVersions() feeds the cycle model and the snapshot
 * format.
 */

#ifndef MERCURY_CORE_MCACHE_HPP
#define MERCURY_CORE_MCACHE_HPP

#include <cstdint>
#include <vector>

#include "core/signature.hpp"
#include "util/stats.hpp"

namespace mercury {

/** Outcome of presenting a signature to MCACHE (Fig. 9). */
enum class McacheOutcome
{
    Hit, ///< signature already present: reuse
    Mau, ///< miss-and-update: tag inserted, data to follow
    Mnu, ///< miss-no-update: set full, nothing inserted
};

/** Printable name of an outcome. */
const char *mcacheOutcomeName(McacheOutcome outcome);

/** Result of an MCACHE lookup: outcome plus the entry id (if any). */
struct McacheResult
{
    McacheOutcome outcome = McacheOutcome::Mnu;
    int64_t entryId = -1; ///< dense id (set * ways + way), -1 for MNU
};

/**
 * Capacity gate consulted before a tag insert claims a line for a
 * tenant (serving layer: per-tenant quota over a shared cache). A
 * rejected reservation turns the insert into MNU. Implementations
 * must pair every successful tryReserve with exactly one release when
 * the line is evicted or cleared.
 */
class McacheQuotaGate
{
  public:
    virtual ~McacheQuotaGate() = default;
    /** Reserve one line for `tenant`; false rejects the insert. */
    virtual bool tryReserve(int tenant) = 0;
    /** Return one line previously reserved for `tenant`. */
    virtual void release(int tenant) = 0;
};

/** The MERCURY result cache. */
class MCache
{
  public:
    /**
     * @param sets          number of sets
     * @param ways          associativity
     * @param data_versions in-flight filters M (cycle-model geometry)
     */
    MCache(int sets, int ways, int data_versions);

    int sets() const { return sets_; }
    int ways() const { return ways_; }
    int dataVersions() const { return versions_; }
    int64_t entries() const { return static_cast<int64_t>(sets_) * ways_; }

    /**
     * Present a signature: HIT if present, otherwise insert (MAU) or
     * report a full set (MNU). Implements the Fig. 9 flow.
     */
    McacheResult lookupOrInsert(const Signature &sig);

    /**
     * lookupOrInsert with an externally computed set index. This is
     * the sharded entry point (pipeline/sharded_mcache.hpp): a shard
     * owns a contiguous range of the global sets and addresses its
     * local sets directly, so the signature hash is taken once at the
     * front of the pipeline instead of once per probe.
     */
    McacheResult lookupOrInsertInSet(int set, const Signature &sig);

    /** Clear every tag: a new channel's vectors arrived. */
    void clear();

    /** Set index a signature maps to (exposed for tests). */
    int setIndexOf(const Signature &sig) const;

    /** Occupancy (valid tags) of one set. */
    int setOccupancy(int set) const;

    /**
     * Drain-cost model of the per-set insert queues (§V): given the
     * inserts recorded since the last clear, the serialization cost
     * is the largest per-set insert count.
     */
    uint64_t maxInsertBacklog() const;

    /**
     * Reset the insert-queue model without touching tags. Persistent
     * passes (serving layer) call this at each pass boundary, where
     * the non-persistent path would have called clear(), so the §V
     * drain cost stays a per-pass quantity.
     */
    void resetInsertBacklog();

    // ---- Lifecycle metadata (serving layer) -------------------------
    //
    // Every line carries a last-touch epoch (stamped on insert,
    // refreshed on HIT) and an owning tenant (stamped on insert).
    // Eviction sweeps remove valid lines by epoch age or by tenant.

    /** Epoch stamped on inserts and refreshed on HITs from now on. */
    void setEpoch(uint64_t epoch) { epoch_ = epoch; }
    uint64_t epoch() const { return epoch_; }

    /** Tenant stamped on inserts from now on (-1 = unowned). */
    void setInsertTenant(int tenant) { insertTenant_ = tenant; }
    int insertTenant() const { return insertTenant_; }

    /** Gate consulted before each insert; nullptr admits everything. */
    void setQuotaGate(McacheQuotaGate *gate) { quotaGate_ = gate; }

    /** Last-touch epoch of a line (insert-stamped, HIT-refreshed). */
    uint64_t entryEpoch(int64_t entry_id) const;

    /** Owning tenant of a line (-1 when inserted unowned). */
    int entryTenant(int64_t entry_id) const;

    /** True if the line holds a valid tag. */
    bool tagValid(int64_t entry_id) const;

    /** Tag of a valid line; panics on an invalid line. */
    const Signature &tagOf(int64_t entry_id) const;

    /** Valid lines currently stamped with `tenant`. */
    int64_t tenantEntries(int tenant) const;

    /**
     * Evict valid lines last touched before `min_epoch` (epoch-tag
     * aging: oldest lines go first as the floor rises). Returns the
     * number of lines evicted.
     */
    int64_t evictOlderThan(uint64_t min_epoch);

    /** Evict every valid line stamped with `tenant`. */
    int64_t evictTenant(int tenant);

    /**
     * Snapshot restore: install a tag plus lifecycle metadata into an
     * empty line (panics if the line already holds a valid tag — the
     * restore target must be cleared first). The quota gate is
     * bypassed; callers recount
     * reservations afterwards (ShardedMCache::recountTenantReservations).
     */
    void restoreLine(int64_t entry_id, const Signature &sig,
                     uint64_t epoch, int tenant);

    /**
     * Lifetime counters. Plain integers: the probe bumps them on every
     * lookup, so they must cost an add, not a string-keyed map lookup.
     */
    struct Counters
    {
        uint64_t hits = 0;
        uint64_t mau = 0;
        uint64_t mnu = 0;
        uint64_t inserts = 0;
        uint64_t quotaRejects = 0;
        uint64_t clears = 0;
        uint64_t evictions = 0;
        uint64_t restores = 0;
    };
    const Counters &counters() const { return counters_; }

    /**
     * Lifetime statistics (hits, mau, mnu, inserts, evictions, ...)
     * as a named StatGroup, built from counters() on each call. A
     * counter appears once it has counted at least one event.
     */
    StatGroup stats() const;

  private:
    struct Line
    {
        Signature tag;
        bool validTag = false;
        uint64_t epoch = 0; ///< last-touch epoch (insert / HIT)
        int tenant = -1;    ///< owning tenant (-1 = unowned)
    };

    int sets_;
    int ways_;
    int versions_;
    std::vector<Line> lines_;
    std::vector<uint64_t> insertBacklog_;
    uint64_t epoch_ = 0;
    int insertTenant_ = -1;
    McacheQuotaGate *quotaGate_ = nullptr;
    Counters counters_;

    Line &line(int64_t entry_id);
    const Line &line(int64_t entry_id) const;
    void evictLine(Line &l);
};

} // namespace mercury

#endif // MERCURY_CORE_MCACHE_HPP
