/**
 * @file
 * Serving-snapshot format tests: canonical round-trips across cache
 * organizations and shard counts, the full-validate-then-move failure
 * contract (truncation / corruption / version bumps reject cleanly
 * with no partial restore, tenants the target's quota gate cannot
 * hold), SignatureRecord sections, and a seeded byte-mutation fuzz
 * loop over parse() and restoreCache().
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "serve/snapshot.hpp"
#include "util/rng.hpp"

namespace mercury {
namespace {

Signature
sigOf(uint64_t pattern, int bits = 20)
{
    Signature s(bits);
    for (int i = 0; i < bits && i < 64; ++i)
        s.setBit(i, (pattern >> i) & 1);
    return s;
}

/** Fill a cache with `n` distinct tags across epochs and tenants. */
void
populate(ShardedMCache &cache, int n, int bits)
{
    for (int i = 0; i < n; ++i) {
        cache.setEpoch(static_cast<uint64_t>(1 + i % 5));
        cache.setInsertTenant(i % 3);
        (void)cache.lookupOrInsert(
            sigOf(static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ull + 1,
                  bits));
    }
}

/** Serialized bytes of a cache's tag plane under one key. */
std::vector<uint8_t>
bytesOf(const ShardedMCache &cache, uint64_t key)
{
    Snapshot snap;
    snap.addCache(key, cache);
    return snap.serialize();
}

// ---- Round-trips ----------------------------------------------------

class SnapshotOrgTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(SnapshotOrgTest, SerializeRestoreSerializeIsByteIdentical)
{
    const auto [sets, ways, shards, lines] = GetParam();
    ShardedMCache cache(sets, ways, /*data_versions=*/2, shards);
    populate(cache, lines, /*bits=*/24);

    const std::vector<uint8_t> first = bytesOf(cache, 7);

    Snapshot parsed;
    std::string error;
    ASSERT_TRUE(
        Snapshot::parse(first.data(), first.size(), parsed, error))
        << error;

    // Restore into a fresh cache with a DIFFERENT shard count: global
    // entry ids make shard count a throughput knob, not state.
    ShardedMCache restored(sets, ways, /*data_versions=*/2,
                           shards == 1 ? 4 : 1);
    ASSERT_TRUE(parsed.restoreCache(7, restored, error)) << error;

    EXPECT_EQ(bytesOf(restored, 7), first);
}

INSTANTIATE_TEST_SUITE_P(
    Organizations, SnapshotOrgTest,
    ::testing::Values(std::make_tuple(16, 2, 1, 0),
                      std::make_tuple(16, 2, 1, 12),
                      std::make_tuple(64, 8, 4, 100),
                      std::make_tuple(128, 4, 8, 300)));

TEST(Snapshot, RestoredCacheHitsTheOriginalTags)
{
    ShardedMCache cache(32, 4, 1, 2);
    populate(cache, 40, 20);

    Snapshot snap;
    snap.addCache(1, cache);

    ShardedMCache restored(32, 4, 1, 3);
    std::string error;
    ASSERT_TRUE(snap.restoreCache(1, restored, error)) << error;

    // Every tag probes to a HIT with the original global entry id and
    // keeps its lifecycle metadata.
    for (int i = 0; i < 40; ++i) {
        const Signature s = sigOf(
            static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ull + 1, 20);
        const auto orig = cache.lookupOrInsert(s);
        ASSERT_EQ(orig.outcome, McacheOutcome::Hit);
        const auto got = restored.lookupOrInsert(s);
        EXPECT_EQ(got.outcome, McacheOutcome::Hit);
        EXPECT_EQ(got.entryId, orig.entryId);
        EXPECT_EQ(restored.entryTenant(got.entryId),
                  cache.entryTenant(orig.entryId));
    }
}

TEST(Snapshot, RestorePreservesEpochsForEviction)
{
    ShardedMCache cache(32, 4, 1, 1);
    cache.setEpoch(3);
    (void)cache.lookupOrInsert(sigOf(1));
    cache.setEpoch(9);
    (void)cache.lookupOrInsert(sigOf(2));

    Snapshot snap;
    snap.addCache(1, cache);
    ShardedMCache restored(32, 4, 1, 1);
    std::string error;
    ASSERT_TRUE(snap.restoreCache(1, restored, error)) << error;

    // Aging continues from the restored epochs.
    EXPECT_EQ(restored.evictOlderThan(9), 1);
    EXPECT_EQ(restored.lookupOrInsert(sigOf(2)).outcome,
              McacheOutcome::Hit);
}

TEST(Snapshot, RestoreRecountsTenantQuota)
{
    ShardedMCache cache(64, 8, 1, 2);
    populate(cache, 30, 20); // tenants 0..2, ~10 lines each

    Snapshot snap;
    snap.addCache(1, cache);

    ShardedMCache restored(64, 8, 1, 2);
    restored.setTenantQuota(64, /*max_tenants=*/8);
    std::string error;
    ASSERT_TRUE(snap.restoreCache(1, restored, error)) << error;

    int64_t total = 0;
    for (int t = 0; t < 3; ++t) {
        int64_t held = 0;
        for (int s = 0; s < cache.shardCount(); ++s)
            held += cache.shard(s).tenantEntries(t);
        EXPECT_EQ(restored.tenantReserved(t), held);
        total += held;
    }
    EXPECT_GT(total, 0);
}

TEST(Snapshot, RestoreRejectsTenantsOutsideTheQuotaGateRange)
{
    // Lines stamped with tenant 70 cannot be held by a gate sized for
    // tenants 0..63 (a server restarted with a smaller maxTenants).
    ShardedMCache cache(64, 8, 1, 2);
    cache.setInsertTenant(70);
    for (int i = 0; i < 20; ++i)
        (void)cache.lookupOrInsert(
            sigOf(static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ull + 1));
    Snapshot snap;
    snap.addCache(1, cache);

    ShardedMCache target(64, 8, 1, 2);
    target.setTenantQuota(100, /*max_tenants=*/64);
    target.setInsertTenant(1);
    (void)target.lookupOrInsert(sigOf(0xBEEF));
    const std::vector<uint8_t> before = bytesOf(target, 1);

    std::string error;
    EXPECT_FALSE(snap.restoreCache(1, target, error));
    EXPECT_NE(error.find("70"), std::string::npos) << error;
    EXPECT_EQ(bytesOf(target, 1), before);
    EXPECT_EQ(target.tenantReserved(1), 1);
}

TEST(Snapshot, RestoreRejectsTenantsOverTheTargetQuota)
{
    // 20 lines of tenant 3 into a target whose quota holds 5 (a server
    // restarted with a smaller tenantQuotaEntries).
    ShardedMCache cache(64, 8, 1, 2);
    cache.setInsertTenant(3);
    for (int i = 0; i < 20; ++i)
        (void)cache.lookupOrInsert(
            sigOf(static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ull + 1));
    Snapshot snap;
    snap.addCache(1, cache);

    ShardedMCache target(64, 8, 1, 4);
    target.setTenantQuota(5, /*max_tenants=*/8);
    target.setInsertTenant(3);
    (void)target.lookupOrInsert(sigOf(0xBEEF));
    const std::vector<uint8_t> before = bytesOf(target, 1);

    std::string error;
    EXPECT_FALSE(snap.restoreCache(1, target, error));
    EXPECT_NE(error.find("quota"), std::string::npos) << error;
    EXPECT_EQ(bytesOf(target, 1), before);
    EXPECT_EQ(target.tenantReserved(3), 1);
}

TEST(Snapshot, RestoreAcceptsTenantsExactlyAtTheTargetQuota)
{
    // The quota check is "more than", not "as many as": a snapshot
    // holding exactly the quota restores, and the gate is then full.
    ShardedMCache cache(64, 8, 1, 2);
    cache.setInsertTenant(3);
    for (int i = 0; i < 5; ++i)
        (void)cache.lookupOrInsert(
            sigOf(static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ull + 1));
    Snapshot snap;
    snap.addCache(1, cache);

    ShardedMCache target(64, 8, 1, 4);
    target.setTenantQuota(5, /*max_tenants=*/8);
    std::string error;
    ASSERT_TRUE(snap.restoreCache(1, target, error)) << error;
    EXPECT_EQ(bytesOf(target, 1), bytesOf(cache, 1));
    EXPECT_EQ(target.tenantReserved(3), 5);
    target.setInsertTenant(3);
    EXPECT_EQ(target.lookupOrInsert(sigOf(0xBEEF)).outcome,
              McacheOutcome::Mnu);
}

TEST(Snapshot, RestoreAdmitsUnownedLinesIntoAQuotaTarget)
{
    // Unowned lines (tenant -1) are never gated, so any number of them
    // restores into a quota'd target and reserves nothing.
    ShardedMCache cache(64, 8, 1, 2);
    for (int i = 0; i < 20; ++i)
        (void)cache.lookupOrInsert(
            sigOf(static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ull + 1));
    Snapshot snap;
    snap.addCache(1, cache);

    ShardedMCache target(64, 8, 1, 4);
    target.setTenantQuota(1, /*max_tenants=*/2);
    std::string error;
    ASSERT_TRUE(snap.restoreCache(1, target, error)) << error;
    EXPECT_EQ(bytesOf(target, 1), bytesOf(cache, 1));
    EXPECT_EQ(target.tenantReserved(0), 0);
    EXPECT_EQ(target.tenantReserved(1), 0);
}

TEST(Snapshot, ParseRejectsTenantsBelowMinusOne)
{
    // -1 means unowned; anything lower is corrupt, even with a valid
    // checksum.
    ShardedMCache cache(16, 2, 1, 1);
    cache.restoreLine(3, sigOf(0xABC), /*epoch=*/1, /*tenant=*/-2);
    const auto bytes = bytesOf(cache, 5);

    Snapshot out;
    std::string error;
    EXPECT_FALSE(
        Snapshot::parse(bytes.data(), bytes.size(), out, error));
    EXPECT_NE(error.find("tenant"), std::string::npos) << error;
}

TEST(Snapshot, MultipleSectionsAndLookup)
{
    ShardedMCache a(16, 2, 1, 1);
    ShardedMCache b(32, 4, 1, 2);
    populate(a, 5, 20);
    populate(b, 9, 20);

    Snapshot snap;
    snap.addCache(10, a);
    snap.addCache(20, b);
    ASSERT_NE(snap.findCache(10), nullptr);
    ASSERT_NE(snap.findCache(20), nullptr);
    EXPECT_EQ(snap.findCache(30), nullptr);
    EXPECT_EQ(snap.findCache(10)->sets, 16);
    EXPECT_EQ(snap.findCache(20)->sets, 32);

    std::string error;
    ShardedMCache target(16, 2, 1, 1);
    EXPECT_FALSE(snap.restoreCache(30, target, error));
    EXPECT_NE(error.find("30"), std::string::npos);
}

TEST(Snapshot, GeometryMismatchLeavesTargetUntouched)
{
    ShardedMCache cache(32, 4, 1, 1);
    populate(cache, 10, 20);
    Snapshot snap;
    snap.addCache(1, cache);

    // The target has different geometry and pre-existing content; the
    // failed restore must not clear it.
    ShardedMCache target(16, 4, 1, 1);
    const auto kept = target.lookupOrInsert(sigOf(0xBEEF));
    std::string error;
    EXPECT_FALSE(snap.restoreCache(1, target, error));
    EXPECT_NE(error.find("geometry"), std::string::npos) << error;
    EXPECT_EQ(target.lookupOrInsert(sigOf(0xBEEF)).outcome,
              McacheOutcome::Hit);
    EXPECT_EQ(target.lookupOrInsert(sigOf(0xBEEF)).entryId,
              kept.entryId);
}

TEST(Snapshot, EmptySnapshotRoundTrips)
{
    Snapshot snap;
    const auto bytes = snap.serialize();
    Snapshot parsed;
    std::string error;
    ASSERT_TRUE(
        Snapshot::parse(bytes.data(), bytes.size(), parsed, error))
        << error;
    EXPECT_TRUE(parsed.caches().empty());
    EXPECT_TRUE(parsed.records().empty());
    EXPECT_EQ(parsed.serialize(), bytes);
}

// ---- Failure contract ----------------------------------------------

TEST(Snapshot, EveryTruncationIsRejectedWithoutPartialParse)
{
    ShardedMCache cache(32, 4, 2, 2);
    populate(cache, 25, 20);
    const auto bytes = bytesOf(cache, 5);

    for (size_t len = 0; len < bytes.size(); ++len) {
        Snapshot out;
        // Pre-load `out` with a sentinel section: a failed parse must
        // leave it untouched, not half-replaced.
        ShardedMCache sentinel(16, 2, 1, 1);
        out.addCache(99, sentinel);

        std::string error;
        EXPECT_FALSE(Snapshot::parse(bytes.data(), len, out, error))
            << "parse accepted a " << len << "-byte truncation of a "
            << bytes.size() << "-byte snapshot";
        EXPECT_FALSE(error.empty());
        ASSERT_EQ(out.caches().size(), 1u);
        EXPECT_EQ(out.caches()[0].key, 99u);
    }
}

TEST(Snapshot, CorruptedPayloadFailsTheChecksum)
{
    ShardedMCache cache(32, 4, 1, 1);
    populate(cache, 20, 20);
    auto bytes = bytesOf(cache, 5);

    // Flip one bit somewhere in the payload (past the 32-byte header).
    ASSERT_GT(bytes.size(), 40u);
    bytes[40] ^= 0x10;

    Snapshot out;
    std::string error;
    EXPECT_FALSE(
        Snapshot::parse(bytes.data(), bytes.size(), out, error));
    EXPECT_NE(error.find("corrupt"), std::string::npos) << error;
}

TEST(Snapshot, WrongMagicIsRejected)
{
    ShardedMCache cache(16, 2, 1, 1);
    auto bytes = bytesOf(cache, 5);
    bytes[0] = 'X';
    Snapshot out;
    std::string error;
    EXPECT_FALSE(
        Snapshot::parse(bytes.data(), bytes.size(), out, error));
    EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(Snapshot, VersionBumpFailsLoudly)
{
    ShardedMCache cache(16, 2, 1, 1);
    populate(cache, 4, 20);
    auto bytes = bytesOf(cache, 5);

    // The u32 version sits right after the 8-byte magic.
    const uint32_t bumped = kSnapshotVersion + 1;
    bytes[8] = static_cast<uint8_t>(bumped & 0xFF);
    bytes[9] = static_cast<uint8_t>((bumped >> 8) & 0xFF);

    Snapshot out;
    std::string error;
    EXPECT_FALSE(
        Snapshot::parse(bytes.data(), bytes.size(), out, error));
    // The error names both the found and the supported version.
    EXPECT_NE(error.find(std::to_string(bumped)), std::string::npos)
        << error;
    EXPECT_NE(error.find(std::to_string(kSnapshotVersion)),
              std::string::npos)
        << error;
}

TEST(Snapshot, TrailingGarbageIsRejected)
{
    ShardedMCache cache(16, 2, 1, 1);
    populate(cache, 4, 20);
    auto bytes = bytesOf(cache, 5);
    bytes.push_back(0xAB);
    Snapshot out;
    std::string error;
    EXPECT_FALSE(
        Snapshot::parse(bytes.data(), bytes.size(), out, error));
    EXPECT_FALSE(error.empty());
}

// ---- Record sections ------------------------------------------------

SignatureRecord
makeRecord()
{
    // Two hand-built passes over a 64-entry, 2-version organization.
    std::vector<SignatureRecord::Pass> passes;
    for (int p = 0; p < 2; ++p) {
        SignatureRecord::Pass pass;
        pass.rows = 3;
        pass.bits = 20;
        pass.sigWordsPerRow = 1;
        for (int64_t r = 0; r < pass.rows; ++r) {
            pass.sigWords.push_back(
                0x12345u + static_cast<uint64_t>(p * 10 + r));
            pass.entryIds.push_back(r == 2 ? -1 : static_cast<int32_t>(
                                                      p * 8 + r));
            pass.outcomes.push_back(static_cast<uint8_t>(
                r == 2 ? McacheOutcome::Mnu
                       : (r == 0 ? McacheOutcome::Hit
                                 : McacheOutcome::Mau)));
        }
        pass.mix.vectors = 3;
        pass.mix.hit = 1;
        pass.mix.mau = 1;
        pass.mix.mnu = 1;
        passes.push_back(std::move(pass));
    }
    SignatureRecord rec;
    rec.restore(std::move(passes), /*data_versions=*/2, /*entries=*/64);
    return rec;
}

TEST(Snapshot, RecordSectionRoundTrips)
{
    const SignatureRecord rec = makeRecord();
    Snapshot snap;
    snap.addRecord(77, rec);

    const auto bytes = snap.serialize();
    Snapshot parsed;
    std::string error;
    ASSERT_TRUE(
        Snapshot::parse(bytes.data(), bytes.size(), parsed, error))
        << error;
    EXPECT_EQ(parsed.serialize(), bytes);

    SignatureRecord back;
    ASSERT_TRUE(parsed.restoreRecord(77, back, error)) << error;
    ASSERT_EQ(back.passCount(), rec.passCount());
    EXPECT_EQ(back.dataVersions(), rec.dataVersions());
    EXPECT_EQ(back.entries(), rec.entries());
    for (int64_t p = 0; p < rec.passCount(); ++p) {
        const auto &a = rec.pass(p);
        const auto &b = back.pass(p);
        EXPECT_EQ(b.rows, a.rows);
        EXPECT_EQ(b.bits, a.bits);
        EXPECT_EQ(b.sigWords, a.sigWords);
        EXPECT_EQ(b.entryIds, a.entryIds);
        EXPECT_EQ(b.outcomes, a.outcomes);
        EXPECT_EQ(b.mix.vectors, a.mix.vectors);
        EXPECT_EQ(b.mix.hit, a.mix.hit);
        EXPECT_EQ(b.mix.mau, a.mix.mau);
        EXPECT_EQ(b.mix.mnu, a.mix.mnu);
    }

    SignatureRecord missing;
    EXPECT_FALSE(parsed.restoreRecord(78, missing, error));
}

/** Recompute the header's FNV-1a-64 payload checksum in place. */
void
resealChecksum(std::vector<uint8_t> &bytes)
{
    constexpr size_t kHeader = 32; // magic, version, flags, len, sum
    uint64_t h = 1469598103934665603ull;
    for (size_t i = kHeader; i < bytes.size(); ++i) {
        h ^= bytes[i];
        h *= 1099511628211ull;
    }
    std::memcpy(bytes.data() + kHeader - sizeof h, &h, sizeof h);
}

// Byte offsets in a snapshot holding no cache and one record section:
// the 32-byte header, the cache and record counts, then the record's
// key, versions, entries and pass count, then its first pass's rows.
constexpr size_t kRecordEntriesAt = 32 + 4 + 4 + 8 + 4;
constexpr size_t kFirstPassRowsAt = kRecordEntriesAt + 8 + 4;

/** Serialized one-row record (64 entries, 2 versions) under key 1. */
std::vector<uint8_t>
oneRowRecordBytes(McacheOutcome outcome, int32_t entry_id)
{
    std::vector<SignatureRecord::Pass> passes(1);
    SignatureRecord::Pass &pass = passes[0];
    pass.rows = 1;
    pass.bits = 20;
    pass.sigWordsPerRow = 1;
    pass.sigWords = {0x12345u};
    pass.entryIds = {entry_id};
    pass.outcomes = {static_cast<uint8_t>(outcome)};
    pass.mix.vectors = 1;
    pass.mix.hit = outcome == McacheOutcome::Hit;
    pass.mix.mau = outcome == McacheOutcome::Mau;
    pass.mix.mnu = outcome == McacheOutcome::Mnu;
    SignatureRecord rec;
    rec.restore(std::move(passes), /*data_versions=*/2, /*entries=*/64);
    Snapshot snap;
    snap.addRecord(1, rec);
    return snap.serialize();
}

/** Parse `bytes`, expecting a rejection whose error names `what`. */
void
expectParseRejects(const std::vector<uint8_t> &bytes,
                   const std::string &what)
{
    Snapshot out;
    std::string error;
    EXPECT_FALSE(
        Snapshot::parse(bytes.data(), bytes.size(), out, error));
    EXPECT_NE(error.find(what), std::string::npos) << error;
    EXPECT_EQ(out.serialize(), Snapshot().serialize());
}

TEST(Snapshot, ParseRejectsRecordEntryIdsOutOfRange)
{
    // A replay indexes per-entry tables by the recorded ids of HIT and
    // MAU rows, so an id outside the record's entry count is corrupt.
    expectParseRejects(oneRowRecordBytes(McacheOutcome::Mau, 64),
                       "entry id");
}

TEST(Snapshot, ParseRejectsHitRowsWithoutAnEntry)
{
    // Only MNU rows may carry the "no entry" id -1.
    const auto ok = oneRowRecordBytes(McacheOutcome::Mnu, -1);
    Snapshot parsed;
    std::string error;
    ASSERT_TRUE(Snapshot::parse(ok.data(), ok.size(), parsed, error))
        << error;
    expectParseRejects(oneRowRecordBytes(McacheOutcome::Hit, -1),
                       "entry id");
    expectParseRejects(oneRowRecordBytes(McacheOutcome::Mau, -1),
                       "entry id");
}

TEST(Snapshot, ParseRejectsMnuEntryIdsBelowMinusOne)
{
    expectParseRejects(oneRowRecordBytes(McacheOutcome::Mnu, -2),
                       "entry id");
}

TEST(Snapshot, ParseRejectsPassRowsBeyondThePayload)
{
    // A row count no payload could hold is rejected before anything
    // is sized from it.
    auto bytes = oneRowRecordBytes(McacheOutcome::Mau, 3);
    uint64_t rows = 0;
    std::memcpy(&rows, bytes.data() + kFirstPassRowsAt, sizeof rows);
    ASSERT_EQ(rows, 1u);
    rows = uint64_t{1} << 40;
    std::memcpy(bytes.data() + kFirstPassRowsAt, &rows, sizeof rows);
    resealChecksum(bytes);
    expectParseRejects(bytes, "rows exceed the payload");
}

TEST(Snapshot, ParseRejectsRecordEntriesBeyond32BitIds)
{
    // Recorded entry ids are int32, so 2^31 entries is the largest
    // organization a record can address.
    auto bytes = oneRowRecordBytes(McacheOutcome::Mau, 3);
    uint64_t entries = 0;
    std::memcpy(&entries, bytes.data() + kRecordEntriesAt,
                sizeof entries);
    ASSERT_EQ(entries, 64u);
    entries = (uint64_t{1} << 31) + 1;
    std::memcpy(bytes.data() + kRecordEntriesAt, &entries,
                sizeof entries);
    resealChecksum(bytes);
    expectParseRejects(bytes, "32-bit");

    entries = uint64_t{1} << 31;
    std::memcpy(bytes.data() + kRecordEntriesAt, &entries,
                sizeof entries);
    resealChecksum(bytes);
    Snapshot parsed;
    std::string error;
    EXPECT_TRUE(
        Snapshot::parse(bytes.data(), bytes.size(), parsed, error))
        << error;
}

// ---- Fuzzing --------------------------------------------------------

TEST(SnapshotFuzz, MutatedPayloadsParseOrFailWithoutPartialState)
{
    // Mutate 1-4 payload bytes of a two-section snapshot and re-seal
    // the checksum, so the structural checks of parse() — not only
    // the checksum — see the damage. Every outcome must be clean: a
    // parse either fails with an error and leaves `out` untouched, or
    // succeeds; a successful parse then restores into a quota'd target
    // of matching geometry, or fails leaving that target unchanged.
    ShardedMCache source(64, 4, 2, 2);
    populate(source, 60, 24); // tenants 0..2, 20 lines each
    Snapshot snap;
    snap.addCache(1, source);
    snap.addRecord(2, makeRecord());
    const std::vector<uint8_t> clean = snap.serialize();
    constexpr size_t kHeader = 32;
    ASSERT_GT(clean.size(), kHeader + 64);

    Rng rng(2024);
    int parsed_ok = 0, restored_ok = 0;
    for (int iter = 0; iter < 2000; ++iter) {
        std::vector<uint8_t> bytes = clean;
        const int mutations = 1 + static_cast<int>(rng.uniformInt(4));
        for (int m = 0; m < mutations; ++m) {
            const size_t at =
                kHeader + rng.uniformInt(bytes.size() - kHeader);
            bytes[at] ^= static_cast<uint8_t>(1 + rng.uniformInt(255));
        }
        resealChecksum(bytes);
        SCOPED_TRACE("iteration " + std::to_string(iter));

        Snapshot out;
        ShardedMCache sentinel(16, 2, 1, 1);
        out.addCache(99, sentinel);
        const std::vector<uint8_t> out_before = out.serialize();
        std::string error;
        if (!Snapshot::parse(bytes.data(), bytes.size(), out, error)) {
            EXPECT_FALSE(error.empty());
            ASSERT_EQ(out.serialize(), out_before);
            continue;
        }
        ++parsed_ok;

        ShardedMCache target(64, 4, 2, 3);
        target.setTenantQuota(24, /*max_tenants=*/4);
        target.setInsertTenant(1);
        (void)target.lookupOrInsert(sigOf(0xBEEF, 24));
        const std::vector<uint8_t> target_before = bytesOf(target, 1);
        if (out.restoreCache(1, target, error)) {
            ++restored_ok;
        } else {
            EXPECT_FALSE(error.empty());
            ASSERT_EQ(bytesOf(target, 1), target_before);
        }
    }
    // Mutations of signature words and epochs leave a valid snapshot,
    // so both branches of the contract are exercised.
    EXPECT_GT(parsed_ok, 0);
    EXPECT_GT(restored_ok, 0);
}

// ---- File I/O -------------------------------------------------------

TEST(Snapshot, FileRoundTrip)
{
    ShardedMCache cache(32, 4, 1, 2);
    populate(cache, 15, 20);
    Snapshot snap;
    snap.addCache(3, cache);
    snap.addRecord(4, makeRecord());

    const std::string path = ::testing::TempDir() + "snap_test.mcry";
    std::string error;
    ASSERT_TRUE(snap.writeFile(path, error)) << error;

    Snapshot back;
    ASSERT_TRUE(Snapshot::readFile(path, back, error)) << error;
    EXPECT_EQ(back.serialize(), snap.serialize());
    std::remove(path.c_str());

    EXPECT_FALSE(Snapshot::readFile(path + ".missing", back, error));
    EXPECT_FALSE(error.empty());
}

} // namespace
} // namespace mercury
