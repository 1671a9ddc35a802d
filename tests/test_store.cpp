/**
 * @file
 * Tests for the persistent content-addressed result store: key
 * derivation and sensitivity, the full-fidelity result codec, store
 * round trips, robustness against corrupt entries / truncated indexes
 * / concurrent writers, and the sweep driver's store integration with
 * its counter conservation laws.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <type_traits>

#include "analysis/export.hh"
#include "driver/sweep.hh"
#include "store/codec.hh"
#include "store/key.hh"
#include "store/result_store.hh"

using namespace dlp;
namespace fs = std::filesystem;

namespace {

/** A fresh private directory under the test temp root. */
std::string
freshDir(const std::string &tag)
{
    std::string tmpl = ::testing::TempDir() + "dlp_store_" + tag + "_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char *made = ::mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    return made ? made : tmpl;
}

/** A small, fast experiment cell. */
driver::SweepTask
quickTask(const std::string &kernel = "fft",
          const std::string &config = "S", uint64_t seed = 1234)
{
    driver::SweepTask t;
    t.kernel = kernel;
    t.config = config;
    t.scaleDiv = 8;
    t.seed = seed;
    return t;
}

std::string
keyFor(const driver::SweepTask &t)
{
    return store::experimentKey(t.kernel, t.config,
                                driver::resolvedScale(t), t.seed);
}

/** Restores the default code version even if a test fails mid-way. */
struct CodeVersionGuard
{
    ~CodeVersionGuard() { store::setCodeVersion(""); }
};

} // namespace

TEST(StoreKey, ShapeAndDeterminism)
{
    std::string k = keyFor(quickTask());
    EXPECT_EQ(k.size(), 32u);
    EXPECT_EQ(k.find_first_not_of("0123456789abcdef"), std::string::npos);
    EXPECT_EQ(k, keyFor(quickTask()));
}

TEST(StoreKey, SensitiveToEveryComponent)
{
    std::string base = keyFor(quickTask());
    EXPECT_NE(base, keyFor(quickTask("lu")));
    EXPECT_NE(base, keyFor(quickTask("fft", "M-D")));
    EXPECT_NE(base, keyFor(quickTask("fft", "S", 99)));
    driver::SweepTask widerScale = quickTask();
    widerScale.scaleDiv = 1;
    EXPECT_NE(base, keyFor(widerScale));
}

TEST(StoreKey, CodeVersionInvalidatesKeys)
{
    CodeVersionGuard guard;
    std::string before = keyFor(quickTask());
    store::setCodeVersion("vA");
    std::string versionA = keyFor(quickTask());
    store::setCodeVersion("vB");
    std::string versionB = keyFor(quickTask());
    store::setCodeVersion("");
    EXPECT_NE(versionA, before);
    EXPECT_NE(versionB, versionA);
    // Restoring the default restores the original key.
    EXPECT_EQ(keyFor(quickTask()), before);
}

TEST(StoreCodec, RoundTripIsExportIdentical)
{
    arch::ExperimentResult original = driver::runTask(quickTask());
    arch::ExperimentResult decoded =
        store::resultFromJson(store::resultToJson(original));
    // The analysis exporter is the consumer whose view must not be
    // able to tell the difference — compare its full serialized text,
    // which covers every scalar, formula, distribution moment and
    // vector bit-for-bit.
    EXPECT_EQ(json::write(analysis::toJson(original)),
              json::write(analysis::toJson(decoded)));
}

TEST(StoreCodec, RoundTripWithFindingsIsExportIdentical)
{
    // Audit and check findings ride through the codec as well. Clean
    // catalog runs carry none, so attach some by hand.
    arch::ExperimentResult original = driver::runTask(quickTask());
    original.audited = true;
    original.auditViolations = {
        {"event-ledger", "scheduled 10 events, executed 9"},
        {"smc-burst-book", "reads 4 != bursts 3 x 2"}};
    original.checked = true;
    original.checkErrors = 1;
    original.checkWarnings = 1;
    original.checkFindings = {
        {"MEM-ORDER", "error", "b0:i3.s1", "load may pass the store"},
        {"CFG-TBL-BUDGET", "warning", "b1:i0.s0", "table over budget"}};
    arch::ExperimentResult decoded = store::resultFromJson(
        json::parse(json::write(store::resultToJson(original), 0)));
    std::string text = json::write(analysis::toJson(original));
    EXPECT_NE(text.find("scheduled 10 events"), std::string::npos);
    EXPECT_NE(text.find("load may pass the store"), std::string::npos);
    EXPECT_EQ(text, json::write(analysis::toJson(decoded)));
}

TEST(StoreCodec, CountersAboveDoublePrecisionStayExact)
{
    // A very long simulation's uint64 counters exceed 2^53; the codec
    // and the JSON layer must carry them bit-exactly, not through a
    // double. Every integer field the tables reach gets its own odd
    // value above 2^53 (none of them a double), so a read walk that
    // drifted from the write walk lands a value in the wrong field.
    auto counters = [](uint64_t &next) {
        return [&next](const char *, auto &f) {
            if constexpr (std::is_same_v<std::remove_cvref_t<decltype(f)>,
                                         uint64_t>) {
                f = next;
                next -= 1ull << 59;
            }
        };
    };
    arch::ExperimentResult original = driver::runTask(quickTask());
    uint64_t next = ~0ull;  // 2^64 - 1 first
    arch::visitFields(original, counters(next));
    arch::visitHostFields(original, counters(next));
    ASSERT_GT(next + (1ull << 59), 1ull << 53);

    arch::ExperimentResult decoded = store::resultFromJson(
        json::parse(json::write(store::resultToJson(original), 0)));
    uint64_t expected = ~0ull;
    auto check = [&](const char *key, const auto &f) {
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(f)>,
                                     uint64_t>) {
            EXPECT_EQ(f, expected) << key;
            expected -= 1ull << 59;
        }
    };
    arch::visitFields(decoded, check);
    arch::visitHostFields(decoded, check);
}

TEST(StoreCodec, DocumentMissingATableKeyIsRejected)
{
    // The store key hashes the key format and code versions, so every
    // document under a current key carries every table key: a missing
    // one is a defect, never an older shape to default. A document is
    // input, so a missing key or a value of the wrong type is a
    // FatalError, not a simulator panic.
    json::Value full = store::resultToJson(driver::runTask(quickTask()));
    store::ResultStore rs(freshDir("missing"));
    uint64_t corrupt = 0;
    struct Defect
    {
        const char *key;
        bool retyped; ///< the key stays, holding a string
    };
    for (auto [key, retyped] : {Defect{"cost", false},
                                Defect{"eventActivations", false},
                                Defect{"cycles", true}}) {
        json::Value doc = json::Value::object();
        for (const auto &m : full.members()) {
            if (m.key() != key)
                doc.set(m.key(), m.value());
            else if (retyped)
                doc.set(m.key(), "12");
        }
        EXPECT_THROW(store::resultFromJson(doc), FatalError) << key;

        std::string entry = keyFor(quickTask("fft", "S", ++corrupt));
        rs.insertRaw(entry, doc, "fft");
        arch::ExperimentResult r;
        EXPECT_FALSE(rs.lookup(entry, r)) << key;
        EXPECT_EQ(rs.stats().corrupt, corrupt) << key;
        EXPECT_FALSE(fs::exists(rs.entryPath(entry))) << key;
    }
}

TEST(ResultStore, InsertLookupVerifyStats)
{
    std::string dir = freshDir("rt");
    store::ResultStore rs(dir);
    std::string key = keyFor(quickTask());
    arch::ExperimentResult r;
    EXPECT_FALSE(rs.lookup(key, r));
    EXPECT_FALSE(rs.verifyEntry(key));

    arch::ExperimentResult computed = driver::runTask(quickTask());
    rs.insert(key, computed);
    EXPECT_TRUE(rs.verifyEntry(key));
    EXPECT_TRUE(rs.lookup(key, r));
    EXPECT_EQ(json::write(analysis::toJson(computed)),
              json::write(analysis::toJson(r)));

    store::StoreStats s = rs.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.inserts, 1u);
    EXPECT_EQ(s.corrupt, 0u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_GT(s.bytes, 0u);
    EXPECT_TRUE(fs::exists(rs.entryPath(key)));
}

TEST(ResultStore, CorruptEntryDegradesToMissAndRepairs)
{
    std::string dir = freshDir("corrupt");
    store::ResultStore rs(dir);
    std::string key = keyFor(quickTask());
    arch::ExperimentResult computed = driver::runTask(quickTask());
    rs.insert(key, computed);

    // Flip bytes in the middle of the entry: the checksum (or the
    // JSON parse) must reject it, the lookup must miss, and the bad
    // file must be unlinked so the next insert repairs it.
    {
        std::fstream f(rs.entryPath(key),
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(200);
        f.write("XXXX", 4);
    }
    EXPECT_FALSE(rs.verifyEntry(key));
    arch::ExperimentResult r;
    EXPECT_FALSE(rs.lookup(key, r));
    EXPECT_FALSE(fs::exists(rs.entryPath(key)));
    EXPECT_EQ(rs.stats().corrupt, 1u);

    rs.insert(key, computed);
    EXPECT_TRUE(rs.lookup(key, r));

    // Truncation (a torn write that somehow survived) is also a miss.
    {
        std::ofstream f(rs.entryPath(key),
                        std::ios::binary | std::ios::trunc);
        f << "{\"format\":1,\"codeVer";
    }
    EXPECT_FALSE(rs.lookup(key, r));
    EXPECT_EQ(rs.stats().corrupt, 2u);
}

TEST(ResultStore, ForeignCodeVersionIsAMiss)
{
    CodeVersionGuard guard;
    std::string dir = freshDir("ver");
    store::setCodeVersion("vOld");
    std::string oldKey = keyFor(quickTask());
    {
        store::ResultStore rs(dir);
        rs.insert(oldKey, driver::runTask(quickTask()));
    }
    // A new code version derives a different key, so the old entry is
    // simply never addressed...
    store::setCodeVersion("vNew");
    EXPECT_NE(keyFor(quickTask()), oldKey);
    // ...and even if something probes the old key verbatim (a copied
    // store, a renamed directory), the entry's recorded version no
    // longer matches and it reads as absent/corrupt, never as a stale
    // result.
    store::ResultStore rs(dir);
    arch::ExperimentResult r;
    EXPECT_FALSE(rs.lookup(oldKey, r));
}

TEST(ResultStore, TruncatedIndexToleratedAndRebuilt)
{
    std::string dir = freshDir("index");
    store::ResultStore rs(dir);
    std::string keyA = keyFor(quickTask());
    std::string keyB = keyFor(quickTask("fft", "S", 77));
    rs.insert(keyA, driver::runTask(quickTask()));
    rs.insert(keyB, driver::runTask(quickTask("fft", "S", 77)));

    // Tear the index mid-line (as an interrupted append would): stats
    // keeps counting the intact lines and lookups are unaffected,
    // because lookups never consult the index at all.
    std::string index;
    {
        std::ifstream in(rs.indexPath(), std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        index = ss.str();
    }
    {
        std::ofstream out(rs.indexPath(),
                          std::ios::binary | std::ios::trunc);
        out << index.substr(0, index.find('\n') + 10);
    }
    EXPECT_EQ(rs.stats().entries, 1u);
    arch::ExperimentResult r;
    EXPECT_TRUE(rs.lookup(keyB, r));

    // rebuildIndex repairs the index from the objects directory.
    rs.rebuildIndex();
    EXPECT_EQ(rs.stats().entries, 2u);

    // Even a destroyed index only loses stats, never results.
    {
        std::ofstream out(rs.indexPath(),
                          std::ios::binary | std::ios::trunc);
        out << "garbage that is not json\n";
    }
    EXPECT_EQ(rs.stats().entries, 0u);
    EXPECT_TRUE(rs.lookup(keyA, r));
    rs.rebuildIndex();
    EXPECT_EQ(rs.stats().entries, 2u);
}

TEST(ResultStore, ConcurrentSameKeyWritersRaceBenignly)
{
    std::string dir = freshDir("race");
    std::string key = keyFor(quickTask());
    arch::ExperimentResult computed = driver::runTask(quickTask());

    // Two child processes insert the same key at once. The simulator
    // is deterministic, so both write identical bytes and either
    // rename winning is correct; the parent must read a valid entry.
    pid_t pids[2];
    for (auto &pid : pids) {
        pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            store::ResultStore rs(dir);
            rs.insert(key, computed);
            ::_exit(0);
        }
    }
    for (pid_t pid : pids) {
        int status = 0;
        ::waitpid(pid, &status, 0);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    store::ResultStore rs(dir);
    EXPECT_TRUE(rs.verifyEntry(key));
    arch::ExperimentResult r;
    EXPECT_TRUE(rs.lookup(key, r));
    EXPECT_EQ(json::write(analysis::toJson(computed)),
              json::write(analysis::toJson(r)));
    // The index saw both appends but deduplicates by key.
    EXPECT_EQ(rs.stats().entries, 1u);
}

TEST(SweepStore, WarmRerunIsBitIdenticalAndFullyHit)
{
    std::string dir = freshDir("sweep");
    driver::SweepPlan plan;
    plan.add("fft", "S", 8, 4242);
    plan.add("fft", "M-D", 8, 4242);
    plan.add("lu", "S", 8, 4242);

    driver::SweepOptions opts;
    opts.storeDir = dir;

    uint64_t hits0 = driver::resultCacheHits();
    uint64_t misses0 = driver::resultCacheMisses();
    store::StoreStats st0 = driver::storeTraffic();

    auto cold = driver::runSweep(plan, opts);

    // Conservation: every cell is exactly one cache hit or miss, and
    // the store is consulted exactly once per cache miss.
    uint64_t coldHits = driver::resultCacheHits() - hits0;
    uint64_t coldMisses = driver::resultCacheMisses() - misses0;
    store::StoreStats st1 = driver::storeTraffic();
    EXPECT_EQ(coldHits + coldMisses, plan.size());
    EXPECT_EQ((st1.hits - st0.hits) + (st1.misses - st0.misses),
              coldMisses);
    EXPECT_EQ(st1.inserts - st0.inserts, st1.misses - st0.misses);

    // Drop the in-process cache to simulate a fresh process: the warm
    // rerun must be served entirely from the store, bit-identically.
    driver::clearResultCache();
    auto warm = driver::runSweep(plan, opts);
    store::StoreStats st2 = driver::storeTraffic();
    EXPECT_EQ(st2.hits - st1.hits, plan.size());
    EXPECT_EQ(st2.misses, st1.misses);
    EXPECT_EQ(st2.inserts, st1.inserts);
    ASSERT_EQ(warm.size(), cold.size());
    for (size_t i = 0; i < cold.size(); ++i)
        EXPECT_EQ(json::write(analysis::toJson(cold[i])),
                  json::write(analysis::toJson(warm[i])));

    // The exported "store" object reflects the same counters.
    json::Value stats = driver::storeStatsJson();
    EXPECT_EQ(uint64_t(stats.at("cacheHits").asNumber()),
              driver::resultCacheHits());
    EXPECT_EQ(uint64_t(stats.at("storeHits").asNumber()), st2.hits);
    EXPECT_TRUE(stats.has("entries"));
}
