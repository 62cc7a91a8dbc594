/**
 * @file
 * Tests of the result cache (src/sim/service/cache.*): canonical-key
 * stability and sensitivity (every semantic input must change the
 * key), store/lookup round-trips through the row codec, the
 * corruption defenses — truncated, garbage, tampered and
 * version-skewed entries must all be rejected and recomputed, never
 * trusted — and the driver's cached path end to end: CSV output with
 * a cold or warm --cache-dir is byte-identical to an uncached run at
 * any --jobs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "scenarios/scenarios.hh"
#include "sim/experiment/driver.hh"
#include "sim/experiment/sweep.hh"
#include "sim/experiment/value.hh"
#include "sim/service/cache.hh"
#include "sim/service/wire.hh"

using namespace specint;
using namespace specint::experiment;
using namespace specint::service;

namespace fs = std::filesystem;

namespace
{

/** A scratch cache directory, removed on destruction. */
struct TempDir
{
    fs::path path;

    TempDir()
    {
        path = fs::temp_directory_path() /
               ("specsim_cache_test_" +
                std::to_string(::getpid()) + "_" +
                std::to_string(counter()++));
        fs::create_directories(path);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }

    static int &counter()
    {
        static int n = 0;
        return n;
    }
};

JobSpec
baseSpec()
{
    JobSpec spec;
    spec.scenario = "table1";
    spec.trials = 3;
    spec.seed = 0xdeadbeefcafe1234ULL;
    spec.extra["bits"] = 8;
    spec.extra["warmup"] = 2;
    return spec;
}

SweepPoint
basePoint()
{
    SweepSpec sweep;
    sweep.axis("channel", {"dcache", "icache"})
        .axis("defense", {"none", "fence"});
    return sweep.expand()[1];
}

/** The entry file a key lands in (mirrors ResultCache's layout). */
fs::path
entryPathFor(const fs::path &root, const CacheKey &key)
{
    return root / "objects" / (key.hex() + ".json");
}

std::vector<Row>
sampleRows()
{
    // One cell of every Value kind, including values a double cannot
    // represent (full-width uint64) and a real with display precision.
    Row r1{Value::str("dcache"), Value::integer(-42),
           Value::uinteger(0xffffffffffffffffULL),
           Value::real(0.12345678901234567, 4), Value::boolean(true)};
    Row r2{Value::str("icache"), Value::integer(7),
           Value::uinteger(1), Value::real(-1.5e-300, 2),
           Value::boolean(false)};
    return {r1, r2};
}

/** Deep row equality via the deterministic row encoding. */
void
expectRowsEqual(const std::vector<Row> &a, const std::vector<Row> &b)
{
    EXPECT_EQ(encodeRows(a).dump(), encodeRows(b).dump());
}

} // namespace

// --------------------------------------------------------------------------
// fnv1a64 / key derivation
// --------------------------------------------------------------------------

TEST(Fnv1a64, MatchesReferenceVectors)
{
    // Classic FNV-1a test vectors (64-bit, default offset basis).
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a64, DistinctBasesDecorrelate)
{
    const std::string s = "same input";
    EXPECT_NE(fnv1a64(s), fnv1a64(s, 0x9ae16a3b2f90404fULL));
}

TEST(CacheKey, StableAcrossCalls)
{
    const CacheKey a =
        makeCacheKey(baseSpec(), 5, 0x123456789abcdef0ULL,
                     basePoint(), "fp0");
    const CacheKey b =
        makeCacheKey(baseSpec(), 5, 0x123456789abcdef0ULL,
                     basePoint(), "fp0");
    EXPECT_EQ(a.canonical, b.canonical);
    EXPECT_EQ(a.hi, b.hi);
    EXPECT_EQ(a.lo, b.lo);
    EXPECT_EQ(a.hex(), b.hex());
    EXPECT_EQ(a.hex().size(), 32u);
}

TEST(CacheKey, EverySemanticInputChangesTheKey)
{
    const CacheKey base = makeCacheKey(baseSpec(), 5, 99, basePoint(),
                                       "fp0");

    JobSpec s1 = baseSpec();
    s1.scenario = "fig8";
    JobSpec s2 = baseSpec();
    s2.trials = 4;
    JobSpec s3 = baseSpec();
    s3.seed ^= 1;
    JobSpec s4 = baseSpec();
    s4.extra["bits"] = 9;
    JobSpec s5 = baseSpec();
    s5.extra["newflag"] = 0;

    const CacheKey variants[] = {
        makeCacheKey(s1, 5, 99, basePoint(), "fp0"),
        makeCacheKey(s2, 5, 99, basePoint(), "fp0"),
        makeCacheKey(s3, 5, 99, basePoint(), "fp0"),
        makeCacheKey(s4, 5, 99, basePoint(), "fp0"),
        makeCacheKey(s5, 5, 99, basePoint(), "fp0"),
        // Point index, point seed, fingerprint.
        makeCacheKey(baseSpec(), 6, 99, basePoint(), "fp0"),
        makeCacheKey(baseSpec(), 5, 100, basePoint(), "fp0"),
        makeCacheKey(baseSpec(), 5, 99, basePoint(), "fp1"),
    };
    for (const CacheKey &v : variants) {
        EXPECT_NE(v.canonical, base.canonical);
        EXPECT_NE(v.hex(), base.hex());
    }
}

TEST(CacheKey, AxisValuesAreEncoded)
{
    SweepSpec sweep;
    sweep.axis("channel", {"dcache", "icache"});
    const std::vector<SweepPoint> pts = sweep.expand();
    const CacheKey a =
        makeCacheKey(baseSpec(), 0, 99, pts[0], "fp0");
    const CacheKey b =
        makeCacheKey(baseSpec(), 0, 99, pts[1], "fp0");
    EXPECT_NE(a.canonical, b.canonical);
    EXPECT_NE(a.canonical.find("dcache"), std::string::npos);
}

// --------------------------------------------------------------------------
// ResultCache
// --------------------------------------------------------------------------

TEST(ResultCache, StoreLookupRoundTripsEveryValueKind)
{
    TempDir tmp;
    ResultCache cache(tmp.path.string());
    ASSERT_TRUE(cache.enabled());

    const CacheKey key =
        makeCacheKey(baseSpec(), 0, 1, basePoint(), "fp0");
    const std::vector<Row> rows = sampleRows();
    const std::string legacy = "legacy text\nwith two lines\n";

    std::vector<Row> out;
    std::string out_legacy;
    EXPECT_FALSE(cache.lookup(key, out, out_legacy));
    cache.store(key, rows, legacy);
    ASSERT_TRUE(cache.lookup(key, out, out_legacy));
    expectRowsEqual(out, rows);
    EXPECT_EQ(out_legacy, legacy);

    // Exact text rendering survives (what CSV byte-identity needs).
    EXPECT_EQ(out[0][3].text(), rows[0][3].text());

    const CacheStats st = cache.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.stores, 1u);
    EXPECT_EQ(st.corrupt, 0u);
}

TEST(ResultCache, SecondHandleSeesPersistedEntries)
{
    TempDir tmp;
    const CacheKey key =
        makeCacheKey(baseSpec(), 2, 3, basePoint(), "fp0");
    {
        ResultCache writer(tmp.path.string());
        writer.store(key, sampleRows(), "L");
        writer.flushIndex("fp0");
    }
    ResultCache reader(tmp.path.string());
    std::vector<Row> out;
    std::string legacy;
    ASSERT_TRUE(reader.lookup(key, out, legacy));
    expectRowsEqual(out, sampleRows());
    EXPECT_TRUE(fs::exists(tmp.path / "index.json"));
}

TEST(ResultCache, GarbageEntryIsRejectedAndRecomputable)
{
    TempDir tmp;
    ResultCache cache(tmp.path.string());
    const CacheKey key =
        makeCacheKey(baseSpec(), 0, 1, basePoint(), "fp0");
    std::ofstream(entryPathFor(tmp.path, key)) << "this is not json {";

    std::vector<Row> out;
    std::string legacy;
    EXPECT_FALSE(cache.lookup(key, out, legacy));
    EXPECT_EQ(cache.stats().corrupt, 1u);

    // The normal store/lookup path recovers.
    cache.store(key, sampleRows(), "L");
    EXPECT_TRUE(cache.lookup(key, out, legacy));
}

TEST(ResultCache, TruncatedEntryIsRejected)
{
    TempDir tmp;
    ResultCache cache(tmp.path.string());
    const CacheKey key =
        makeCacheKey(baseSpec(), 0, 1, basePoint(), "fp0");
    cache.store(key, sampleRows(), "L");

    const fs::path path = entryPathFor(tmp.path, key);
    ASSERT_TRUE(fs::exists(path));
    const auto size = fs::file_size(path);
    fs::resize_file(path, size / 2);

    std::vector<Row> out;
    std::string legacy;
    EXPECT_FALSE(cache.lookup(key, out, legacy));
    EXPECT_EQ(cache.stats().corrupt, 1u);
}

TEST(ResultCache, TamperedPayloadFailsChecksum)
{
    TempDir tmp;
    ResultCache cache(tmp.path.string());
    const CacheKey key =
        makeCacheKey(baseSpec(), 0, 1, basePoint(), "fp0");
    cache.store(key, sampleRows(), "authentic");

    // Flip the legacy payload without recomputing the checksum: a
    // well-formed but tampered entry must not be served.
    const fs::path path = entryPathFor(tmp.path, key);
    std::ifstream in(path);
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    const std::string from = "authentic";
    const std::string to = "tampered!";
    body.replace(body.find(from), from.size(), to);
    std::ofstream(path) << body;

    std::vector<Row> out;
    std::string legacy;
    EXPECT_FALSE(cache.lookup(key, out, legacy));
    EXPECT_EQ(cache.stats().corrupt, 1u);
}

TEST(ResultCache, WrongKeyInEntryIsRejected)
{
    // Simulates a 128-bit address collision: the entry at the probed
    // path embeds a different canonical key and must be treated as a
    // miss, never aliased.
    TempDir tmp;
    ResultCache cache(tmp.path.string());
    const CacheKey stored =
        makeCacheKey(baseSpec(), 0, 1, basePoint(), "fp0");
    cache.store(stored, sampleRows(), "L");

    CacheKey probe = stored; // same path, different canonical string
    probe.canonical += ";different";
    std::vector<Row> out;
    std::string legacy;
    EXPECT_FALSE(cache.lookup(probe, out, legacy));
    EXPECT_EQ(cache.stats().corrupt, 1u);
}

TEST(ResultCache, UnwritableRootDegradesToDisabled)
{
    ResultCache cache("/dev/null/not_a_directory");
    EXPECT_FALSE(cache.enabled());
    const CacheKey key =
        makeCacheKey(baseSpec(), 0, 1, basePoint(), "fp0");
    std::vector<Row> out;
    std::string legacy;
    EXPECT_FALSE(cache.lookup(key, out, legacy)); // miss, no crash
    cache.store(key, sampleRows(), "L");          // dropped, no crash
    cache.flushIndex("fp0");
    EXPECT_EQ(cache.stats().stores, 0u);
}

TEST(ResultCache, FingerprintChangeMissesOldEntries)
{
    // The end-to-end invalidation story: same sweep, new build
    // fingerprint -> different key -> miss (stale results are never
    // served across code changes).
    TempDir tmp;
    ResultCache cache(tmp.path.string());
    const CacheKey old_key =
        makeCacheKey(baseSpec(), 0, 1, basePoint(), "fp-old");
    cache.store(old_key, sampleRows(), "L");

    const CacheKey new_key =
        makeCacheKey(baseSpec(), 0, 1, basePoint(), "fp-new");
    std::vector<Row> out;
    std::string legacy;
    EXPECT_FALSE(cache.lookup(new_key, out, legacy));
    EXPECT_TRUE(cache.lookup(old_key, out, legacy));
}

TEST(ResultCache, ConcurrentWritersNeverLoseIndexUpdates)
{
    // Several runs may share one --cache-dir at once. Object files
    // are content-addressed and rename-published, but index.json is a
    // read-merge-write — without the flock it is a lost-update race.
    // Hammer it: several forked writers each store distinct entries
    // and flush concurrently; the final index must account for every
    // store.
    constexpr int kWriters = 8;
    constexpr int kStoresPerWriter = 4;

    TempDir tmp;
    std::vector<pid_t> children;
    for (int w = 0; w < kWriters; ++w) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ResultCache cache(tmp.path.string());
            for (int s = 0; s < kStoresPerWriter; ++s) {
                // Distinct (writer, store) -> distinct key.
                const CacheKey key = makeCacheKey(
                    baseSpec(),
                    static_cast<std::size_t>(w * kStoresPerWriter +
                                             s),
                    static_cast<std::uint64_t>(w + 1), basePoint(),
                    "fp-mp");
                cache.store(key, sampleRows(), "L");
            }
            cache.flushIndex("fp-mp");
            ::_exit(::testing::Test::HasFailure() ? 1 : 0);
        }
        children.push_back(pid);
    }
    for (const pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0);
    }

    std::ifstream in(tmp.path / "index.json");
    ASSERT_TRUE(in.good());
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    Json index;
    ASSERT_TRUE(Json::parse(body, index)) << body;
    EXPECT_EQ(index.getU64("stores"),
              static_cast<std::uint64_t>(kWriters) *
                  kStoresPerWriter)
        << body;

    // Every entry is individually readable from a fresh handle.
    ResultCache reader(tmp.path.string());
    for (int w = 0; w < kWriters; ++w)
        for (int s = 0; s < kStoresPerWriter; ++s) {
            const CacheKey key = makeCacheKey(
                baseSpec(),
                static_cast<std::size_t>(w * kStoresPerWriter + s),
                static_cast<std::uint64_t>(w + 1), basePoint(),
                "fp-mp");
            std::vector<Row> out;
            std::string legacy;
            EXPECT_TRUE(reader.lookup(key, out, legacy))
                << "writer " << w << " store " << s;
        }
}

// --------------------------------------------------------------------------
// The driver's cached path (runScenarioCli with --cache-dir)
// --------------------------------------------------------------------------

namespace
{

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

Json
readJson(const fs::path &path)
{
    Json j;
    EXPECT_TRUE(Json::parse(readFile(path), j)) << path;
    return j;
}

/** Run `specsim_bench <args...>` in-process; returns the exit code. */
int
runCli(std::vector<std::string> args)
{
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return runScenarioCli(scenarios::all(), args.front(),
                          static_cast<int>(argv.size()), argv.data());
}

std::uint64_t
defaultPointCount(const std::string &name)
{
    const Scenario *sc = scenarios::all().find(name);
    RunOptions defaults;
    defaults.trials = sc->defaultTrials;
    defaults.seed = sc->defaultSeed;
    for (const ExtraFlag &f : sc->extraFlags)
        defaults.extra[f.name] = f.defaultValue;
    return sc->sweep(defaults).size();
}

} // namespace

class CachedCli : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CachedCli, CsvIsByteIdenticalUncachedColdAndWarmAtJobs1And4)
{
    // Six runs per scenario: {no cache, cold, warm} x {--jobs 1, 4}.
    // At --jobs 4 points finish out of order, so this also covers the
    // grid-order assembly of cached and computed points alike.
    const std::string name = GetParam();
    const std::uint64_t points = defaultPointCount(name);
    TempDir tmp;
    std::vector<std::string> csvs;
    for (const std::string jobs : {"1", "4"}) {
        const fs::path cache = tmp.path / ("cache-j" + jobs);
        for (const std::string mode : {"none", "cold", "warm"}) {
            const fs::path out =
                tmp.path / (name + "-j" + jobs + "-" + mode + ".csv");
            std::vector<std::string> args = {name,    "--csv",
                                             "--out", out.string(),
                                             "--jobs", jobs};
            if (mode != "none") {
                args.push_back("--cache-dir");
                args.push_back(cache.string());
            }
            ASSERT_EQ(runCli(args), 0) << mode << " --jobs " << jobs;
            csvs.push_back(readFile(out));
            if (mode == "cold") {
                EXPECT_EQ(readJson(cache / "index.json").getU64("stores"),
                          points)
                    << "--jobs " << jobs;
            }
        }
    }
    ASSERT_FALSE(csvs.front().empty());
    for (std::size_t i = 1; i < csvs.size(); ++i)
        EXPECT_EQ(csvs[i], csvs.front()) << "run " << i;

    // A warm JSON report accounts every point as a hit.
    const fs::path json = tmp.path / (name + "-warm.json");
    ASSERT_EQ(runCli({name, "--json", "--out", json.string(),
                      "--cache-dir", (tmp.path / "cache-j1").string()}),
              0);
    const Json cache = readJson(json).get("cache");
    EXPECT_EQ(cache.getU64("hits"), points);
    EXPECT_EQ(cache.getU64("misses"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Scenarios, CachedCli,
                         ::testing::Values("fig8", "ablation_rs"));
