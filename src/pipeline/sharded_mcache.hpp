/**
 * @file
 * Sharded MCACHE: N independent MCache shards behind the exact
 * semantics of one big MCache.
 *
 * A signature maps to a global set (hash % sets) exactly as in the
 * monolithic cache; the shard is the high bits of that set index
 * (shards own contiguous, disjoint set ranges). Because shards share
 * no state, the detection pipeline can probe them from different
 * worker threads — as long as each shard sees its signatures in
 * stream order, every outcome, entry id, and per-set fill pattern is
 * bit-identical to the single-cache single-thread path. Per-shard
 * statistics merge into one HitMix.
 *
 * Thread-safety contract: the cache has no locks. Two access
 * patterns exist and they never overlap on one shard:
 *
 *  - the detection pass (DetectionPipeline::run) runs one prober per
 *    shard, each presenting its shard's signatures in stream order;
 *  - lifecycle and statistics calls (clear, epochs, eviction, quota,
 *    snapshot restore, lookupMix, shard()) run between passes.
 *
 * When a tenant quota is set, inserts of different shards compete for
 * one per-tenant budget, so a quota'd pass probes every row in stream
 * order on one thread. The gate's counters stay atomic, so a caller
 * that does probe distinct shards concurrently still never pushes a
 * tenant past its quota.
 *
 * The class can also wrap an externally owned MCache as its single
 * shard, which is how the legacy engine constructors keep sharing a
 * caller-provided cache through the new pipeline front-end.
 */

#ifndef MERCURY_PIPELINE_SHARDED_MCACHE_HPP
#define MERCURY_PIPELINE_SHARDED_MCACHE_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/mcache.hpp"
#include "sim/dataflow.hpp"

namespace mercury {

/** N-shard MCACHE with monolithic-MCache semantics. */
class ShardedMCache
{
  public:
    /**
     * Owning form: exactly min(max(shards, 1), sets) disjoint MCache
     * shards covering `sets` global sets in total, sized within one
     * set of each other (floor/ceil distribution).
     */
    ShardedMCache(int sets, int ways, int data_versions, int shards);

    /** View form: wrap an external MCache as the single shard. */
    explicit ShardedMCache(MCache &external);

    int sets() const { return sets_; }
    int ways() const { return ways_; }
    int dataVersions() const { return versions_; }
    int shardCount() const { return static_cast<int>(shards_.size()); }
    int64_t entries() const { return static_cast<int64_t>(sets_) * ways_; }

    /** Global set index of a signature (identical to MCache). */
    int setIndexOf(const Signature &sig) const;

    /** Shard owning a global set (its high bits). */
    int shardOfSet(int set) const;

    /** Shard a signature maps to. */
    int shardOf(const Signature &sig) const
    {
        return shardOfSet(setIndexOf(sig));
    }

    /** Monolithic-equivalent lookup (single-threaded convenience). */
    McacheResult lookupOrInsert(const Signature &sig);

    /**
     * Lookup with a precomputed global set index. For bit-identical
     * results each shard must be presented its signatures in stream
     * order (one prober per shard, or one global in-order prober).
     */
    McacheResult lookupOrInsertInSet(int set, const Signature &sig);

    /** Clear the tags of every shard. Between passes only. */
    void clear();

    /** Largest per-set insert backlog across all shards (§V). */
    uint64_t maxInsertBacklog() const;

    /** Reset the §V insert-queue model at a persistent pass boundary. */
    void resetInsertBacklog();

    // ---- Serving-layer lifecycle (see docs/ARCHITECTURE.md) ---------

    /** Stamp subsequent inserts/HIT-refreshes with `epoch` (all shards). */
    void setEpoch(uint64_t epoch);
    uint64_t epoch() const;

    /** Stamp subsequent inserts with `tenant` (all shards). */
    void setInsertTenant(int tenant);

    /**
     * Enable a per-tenant line quota: once a tenant holds `entries`
     * valid lines, further inserts for it become MNU until eviction
     * frees lines. Reservation is one compare-exchange that increments
     * only below the quota, so the count never exceeds the quota even
     * under concurrent interleaved inserts. `entries` <= 0 disables
     * the gate. Tenants are ids in [0, max_tenants); id -1 (unowned)
     * is never gated.
     */
    void setTenantQuota(int64_t entries, int max_tenants = 64);
    int64_t tenantQuota() const { return quotaEntries_; }

    /** Tenant-id bound of the quota gate (0 when no quota is set). */
    int quotaMaxTenants() const
    {
        return quotaGate_ ? quotaGate_->maxTenants() : 0;
    }

    /** Lines currently reserved for `tenant` by the quota gate. */
    int64_t tenantReserved(int tenant) const;

    /**
     * Recompute the quota-gate reservations from the actual cache
     * contents (after a snapshot restore, which bypasses the gate).
     * Between passes only.
     */
    void recountTenantReservations();

    /** Evict lines last touched before `min_epoch` (all shards). */
    int64_t evictOlderThan(uint64_t min_epoch);

    /** Evict every line stamped with `tenant` (all shards). */
    int64_t evictTenant(int tenant);

    /** Lifecycle metadata of a line (global entry id). */
    bool tagValid(int64_t entry_id) const;
    uint64_t entryEpoch(int64_t entry_id) const;
    int entryTenant(int64_t entry_id) const;

    /** Copy of a valid line's tag (snapshot serialization). */
    Signature tagAt(int64_t entry_id) const;

    /** Snapshot restore of one line (global entry id). */
    void restoreLine(int64_t entry_id, const Signature &sig,
                     uint64_t epoch, int tenant);

    /** Per-shard lifetime stats merged into one HitMix. */
    HitMix lookupMix() const;

    /** Direct shard access (tests, stats; between passes only). */
    MCache &shard(int s);
    const MCache &shard(int s) const;

  private:
    /**
     * Atomic per-tenant line counter behind McacheQuotaGate: a
     * compare-exchange loop increments only while the count is below
     * the quota, so concurrent inserts can never push a tenant past
     * it, and a concurrent tenantReserved() never reads over-quota.
     */
    class TenantQuotaGate : public McacheQuotaGate
    {
      public:
        TenantQuotaGate(int64_t quota, int max_tenants);
        bool tryReserve(int tenant) override;
        void release(int tenant) override;
        int64_t reserved(int tenant) const;
        int maxTenants() const { return maxTenants_; }
        void reset();

      private:
        int64_t quota_;
        int maxTenants_;
        std::unique_ptr<std::atomic<int64_t>[]> counts_;
    };

    std::vector<std::unique_ptr<MCache>> owned_;
    std::vector<MCache *> shards_;
    std::vector<int> shardBaseSet_; ///< first global set of each shard
    std::unique_ptr<TenantQuotaGate> quotaGate_;
    int64_t quotaEntries_ = 0;
    int sets_;
    int ways_;
    int versions_;
    // Floor/ceil set distribution: the first setRemainder_ shards
    // hold setQuota_ + 1 sets, the rest setQuota_.
    int setQuota_;
    int setRemainder_;

    /** Shard plus local entry id of a global entry id. */
    struct Ref
    {
        MCache *cache;
        int64_t localId;
    };

    Ref refOf(int64_t entry_id) const;
};

} // namespace mercury

#endif // MERCURY_PIPELINE_SHARDED_MCACHE_HPP
