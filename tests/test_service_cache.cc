/**
 * @file
 * Tests of the result cache (src/sim/service/cache.*): canonical-key
 * stability and sensitivity (every semantic input must change the
 * key), store/lookup round-trips through the entry codec, the
 * corruption defenses — truncated, garbage, tampered, wrong-key and
 * old-format entries must all be rejected and recomputed, never
 * trusted — writers sharing one directory, and the driver's cached
 * path end to end: CSV output with a cold or warm --cache-dir is
 * byte-identical to an uncached run at any --jobs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
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
    return root / "objects" / key.hex();
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

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

std::size_t
filesIn(const fs::path &dir)
{
    std::size_t n = 0;
    for (const fs::directory_entry &e : fs::directory_iterator(dir))
        n += e.is_regular_file();
    return n;
}

} // namespace

// --------------------------------------------------------------------------
// fnv1a64 / key derivation / rows text
// --------------------------------------------------------------------------

TEST(EncodeRows, SpellsRowsAsTheVersionOneCacheDid)
{
    // perfbench's sweep_replay digests this text against its committed
    // reference, so it must not change by a byte.
    EXPECT_EQ(
        encodeRows(sampleRows()).dump(),
        "[[{\"t\":\"s\",\"v\":\"dcache\"},{\"t\":\"i\",\"v\":-42},"
        "{\"t\":\"u\",\"v\":18446744073709551615},"
        "{\"p\":4,\"t\":\"r\",\"v\":\"0.12345678901234566\"},"
        "{\"t\":\"b\",\"v\":true}],"
        "[{\"t\":\"s\",\"v\":\"icache\"},{\"t\":\"i\",\"v\":7},"
        "{\"t\":\"u\",\"v\":1},"
        "{\"p\":2,\"t\":\"r\",\"v\":\"-1.5000000000000001e-300\"},"
        "{\"t\":\"b\",\"v\":false}]]");
    EXPECT_EQ(encodeRows({}).dump(), "[]");
    EXPECT_EQ(encodeRows({Row{}}).dump(), "[[]]");
    EXPECT_EQ(encodeRows({{Value::str("a\n\"\\\x1f\xc3\xa9")}}).dump(),
              "[[{\"t\":\"s\",\"v\":\"a\\n\\\"\\\\\\u001f\xc3\xa9\"}]]");
}

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

    // Any byte survives a string cell, and empty parts round-trip.
    const struct
    {
        std::vector<Row> rows;
        std::string legacy;
    } cases[] = {
        {{{Value::str("a\nb\"c\\d\x1f\xc3\xa9"), Value::str("")},
          {},
          {Value::str("\n")}},
         "legacy\n"},
        {{}, "no rows\n"},
        {sampleRows(), ""},
        {sampleRows(), "no trailing newline"},
    };
    for (std::size_t i = 0; i < std::size(cases); ++i) {
        const CacheKey k =
            makeCacheKey(baseSpec(), 10 + i, 1, basePoint(), "fp0");
        cache.store(k, cases[i].rows, cases[i].legacy);
        out.assign(3, Row{Value::str("stale")});
        out_legacy = "stale";
        ASSERT_TRUE(cache.lookup(k, out, out_legacy)) << "case " << i;
        expectRowsEqual(out, cases[i].rows);
        EXPECT_EQ(out_legacy, cases[i].legacy) << "case " << i;
    }

    const CacheStats st = cache.stats();
    EXPECT_EQ(st.hits, 1u + std::size(cases));
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.stores, 1u + std::size(cases));
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
    }
    ResultCache reader(tmp.path.string());
    std::vector<Row> out;
    std::string legacy;
    ASSERT_TRUE(reader.lookup(key, out, legacy));
    expectRowsEqual(out, sampleRows());
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

TEST(ResultCache, VersionOneEntryIsRejectedAndRecomputed)
{
    // An entry as the version-1 cache wrote it, checksum and all,
    // placed where this key's entry lives: the format changed, so it is
    // counted corrupt and recomputed, never parsed as a hit.
    TempDir tmp;
    ResultCache cache(tmp.path.string());
    const CacheKey key =
        makeCacheKey(baseSpec(), 0, 1, basePoint(), "fp0");
    const std::string rows = encodeRows(sampleRows()).dump();
    const std::string legacy = "L\n";
    std::ofstream(entryPathFor(tmp.path, key), std::ios::binary)
        << "{\"checksum\":" << fnv1a64(rows + "\x1f" + legacy)
        << ",\"key\":" << jsonEscape(key.canonical)
        << ",\"legacy\":" << jsonEscape(legacy) << ",\"rows\":" << rows
        << ",\"v\":1}\n";

    std::vector<Row> out;
    std::string out_legacy;
    EXPECT_FALSE(cache.lookup(key, out, out_legacy));
    EXPECT_EQ(cache.stats().corrupt, 1u);

    cache.store(key, sampleRows(), legacy);
    ASSERT_TRUE(cache.lookup(key, out, out_legacy));
    expectRowsEqual(out, sampleRows());
    EXPECT_EQ(out_legacy, legacy);
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

TEST(ResultCache, ConcurrentWritersOfTheSameKeysLeaveValidEntries)
{
    // Several runs may share one --cache-dir at once, and nothing but
    // tmp file + rename() keeps them apart. Hammer it: forked writers
    // all store the same keys at once; every entry must then verify
    // from a fresh handle, and no writer may leave a tmp file behind.
    constexpr int kWriters = 8;
    constexpr std::size_t kKeys = 4;
    const auto keyOf = [](std::size_t k) {
        return makeCacheKey(baseSpec(), k, 1, basePoint(), "fp-mp");
    };

    TempDir tmp;
    std::vector<pid_t> children;
    for (int w = 0; w < kWriters; ++w) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ResultCache cache(tmp.path.string());
            for (std::size_t k = 0; k < kKeys; ++k)
                cache.store(keyOf(k), sampleRows(), "L");
            ::_exit(cache.stats().stores == kKeys ? 0 : 1);
        }
        children.push_back(pid);
    }
    for (const pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0);
    }

    ResultCache reader(tmp.path.string());
    for (std::size_t k = 0; k < kKeys; ++k) {
        std::vector<Row> out;
        std::string legacy;
        EXPECT_TRUE(reader.lookup(keyOf(k), out, legacy)) << "key " << k;
        expectRowsEqual(out, sampleRows());
    }
    EXPECT_EQ(reader.stats().corrupt, 0u);
    EXPECT_EQ(filesIn(tmp.path / "objects"), kKeys);
    EXPECT_EQ(filesIn(tmp.path / "tmp"), 0u);
}

// --------------------------------------------------------------------------
// The driver's cached path (runScenarioCli with --cache-dir)
// --------------------------------------------------------------------------

namespace
{

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
                // One entry per point; no index beside them.
                EXPECT_EQ(filesIn(cache / "objects"), points)
                    << "--jobs " << jobs;
                EXPECT_EQ(filesIn(cache / "tmp"), 0u);
                std::set<std::string> root;
                for (const fs::directory_entry &e :
                     fs::directory_iterator(cache))
                    root.insert(e.path().filename().string());
                EXPECT_EQ(root, (std::set<std::string>{"objects", "tmp"}));
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
    EXPECT_NE(readFile(json).find("\"cache\": {\"hits\": " +
                                  std::to_string(points) +
                                  ", \"misses\": 0}"),
              std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Scenarios, CachedCli,
                         ::testing::Values("fig8", "ablation_rs"));
