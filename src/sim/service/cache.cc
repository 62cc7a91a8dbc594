/**
 * @file
 * ResultCache implementation: canonical keys, FNV-1a addressing,
 * verified reads and atomic writes.
 */

#include "sim/service/cache.hh"

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

namespace fs = std::filesystem;

namespace specint::service
{

std::uint64_t
fnv1a64(const std::string &data, std::uint64_t basis)
{
    std::uint64_t h = basis;
    for (unsigned char c : data) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
CacheKey::hex() const
{
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(lo));
    return buf;
}

CacheKey
makeCacheKey(const JobSpec &spec, std::size_t point_index,
             std::uint64_t point_seed,
             const experiment::SweepPoint &point,
             const std::string &fingerprint)
{
    // Canonical, order-stable serialization of every semantic input.
    // JobSpec::extra is a std::map, so flag order is already sorted.
    std::ostringstream os;
    os << "scenario=" << spec.scenario;
    os << ";trials=" << spec.trials;
    os << ";seed=" << spec.seed;
    os << ";extra=";
    bool first = true;
    for (const auto &[k, v] : spec.extra) {
        if (!first)
            os << ',';
        first = false;
        os << k << '=' << v;
    }
    os << ";point=" << point_index;
    os << ";pointSeed=" << point_seed;
    os << ";axes=";
    for (std::size_t i = 0; i < point.axisNames().size(); ++i) {
        if (i)
            os << ',';
        os << point.axisNames()[i] << '=' << point.values()[i];
    }
    os << ";fp=" << fingerprint;

    CacheKey key;
    key.canonical = os.str();
    // Two independent FNV-1a streams (standard offset basis and a
    // re-seeded one) give a 128-bit address; the canonical string is
    // still verified byte-for-byte on every hit, so even a full
    // collision cannot alias results.
    key.hi = fnv1a64(key.canonical);
    key.lo = fnv1a64(key.canonical, 0x9ae16a3b2f90404fULL);
    return key;
}

namespace
{

/** Checksum material: the payload a reader must be able to trust. */
std::string
payloadChecksumInput(const Json &rows, const std::string &legacy)
{
    return rows.dump() + "\x1f" + legacy;
}

} // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(fs::path(dir_) / "objects", ec);
    if (!ec)
        fs::create_directories(fs::path(dir_) / "tmp", ec);
    if (ec) {
        std::fprintf(stderr,
                     "[cache] cannot create '%s' (%s); caching "
                     "disabled for this run\n",
                     dir_.c_str(), ec.message().c_str());
        enabled_ = false;
        return;
    }
    enabled_ = true;
}

std::string
ResultCache::entryPath(const CacheKey &key) const
{
    return (fs::path(dir_) / "objects" / (key.hex() + ".json")).string();
}

bool
ResultCache::lookup(const CacheKey &key,
                    std::vector<experiment::Row> &rows,
                    std::string &legacy)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!enabled_) {
        ++stats_.misses;
        return false;
    }
    std::ifstream in(entryPath(key), std::ios::binary);
    if (!in) {
        ++stats_.misses;
        return false;
    }
    std::ostringstream body;
    body << in.rdbuf();

    // Every rejection below is a corrupt (or foreign) entry: fall
    // through to recomputation rather than trusting it.
    auto reject = [&](const char *why) {
        std::fprintf(stderr,
                     "[cache] rejecting entry %s (%s); recomputing\n",
                     key.hex().c_str(), why);
        ++stats_.corrupt;
        ++stats_.misses;
        return false;
    };

    Json entry;
    if (!Json::parse(body.str(), entry) || !entry.isObj())
        return reject("unparseable");
    if (entry.getU64("v") != 1)
        return reject("unknown version");
    if (entry.getStr("key") != key.canonical)
        return reject("key mismatch");
    const Json &jrows = entry.get("rows");
    const std::string entry_legacy = entry.getStr("legacy");
    const std::uint64_t want =
        fnv1a64(payloadChecksumInput(jrows, entry_legacy));
    if (entry.getU64("checksum") != want)
        return reject("checksum mismatch");
    std::vector<experiment::Row> decoded;
    if (!decodeRows(jrows, decoded))
        return reject("undecodable rows");

    rows = std::move(decoded);
    legacy = entry_legacy;
    ++stats_.hits;
    return true;
}

void
ResultCache::store(const CacheKey &key,
                   const std::vector<experiment::Row> &rows,
                   const std::string &legacy)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!enabled_)
        return;

    Json jrows = encodeRows(rows);
    Json entry = Json::object();
    entry.set("v", Json::uinteger(1));
    entry.set("key", Json::str(key.canonical));
    entry.set("checksum",
              Json::uinteger(
                  fnv1a64(payloadChecksumInput(jrows, legacy))));
    entry.set("legacy", Json::str(legacy));
    entry.set("rows", std::move(jrows));

    // Unique tmp name per writer: concurrent runs sharing one
    // --cache-dir never clobber each other's half-written files, and
    // rename() makes publication atomic.
    const std::string tmp_path =
        (fs::path(dir_) / "tmp" /
         (key.hex() + "." + std::to_string(::getpid())))
            .string();
    {
        std::ofstream out(tmp_path, std::ios::binary);
        if (!out)
            return;
        out << entry.dump() << '\n';
        if (!out.good())
            return;
    }
    std::error_code ec;
    fs::rename(tmp_path, entryPath(key), ec);
    if (ec) {
        fs::remove(tmp_path, ec);
        return;
    }
    ++stats_.stores;
}

void
ResultCache::flushIndex(const std::string &fingerprint)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!enabled_)
        return;
    // Cumulative counters: merge this handle's stats into whatever a
    // previous run recorded, atomically like any entry. The
    // read-merge-write below is a classic lost-update race when two
    // runs share one --cache-dir, so it runs under an exclusive flock
    // on a sidecar lockfile (advisory, but every writer is this
    // code). Object files need no lock: they are content-addressed
    // and published by rename.
    const std::string lock_path =
        (fs::path(dir_) / "index.lock").string();
    const int lock_fd =
        ::open(lock_path.c_str(), O_CREAT | O_RDWR, 0644);
    if (lock_fd >= 0) {
        while (::flock(lock_fd, LOCK_EX) != 0 && errno == EINTR) {
        }
    }

    std::uint64_t hits = stats_.hits, misses = stats_.misses,
                  stores = stats_.stores, corrupt = stats_.corrupt;
    const std::string index_path =
        (fs::path(dir_) / "index.json").string();
    {
        std::ifstream in(index_path, std::ios::binary);
        if (in) {
            std::ostringstream body;
            body << in.rdbuf();
            Json prev;
            if (Json::parse(body.str(), prev) && prev.isObj()) {
                hits += prev.getU64("hits");
                misses += prev.getU64("misses");
                stores += prev.getU64("stores");
                corrupt += prev.getU64("corrupt");
            }
        }
    }
    Json index = Json::object();
    index.set("v", Json::uinteger(1));
    index.set("fingerprint", Json::str(fingerprint));
    index.set("hits", Json::uinteger(hits));
    index.set("misses", Json::uinteger(misses));
    index.set("stores", Json::uinteger(stores));
    index.set("corrupt", Json::uinteger(corrupt));

    const std::string tmp_path =
        (fs::path(dir_) / "tmp" /
         ("index." + std::to_string(::getpid())))
            .string();
    std::error_code ec;
    {
        std::ofstream out(tmp_path, std::ios::binary);
        if (out)
            out << index.dump() << '\n';
        if (!out) {
            if (lock_fd >= 0)
                ::close(lock_fd);
            return;
        }
    }
    fs::rename(tmp_path, index_path, ec);
    if (ec)
        fs::remove(tmp_path, ec);
    if (lock_fd >= 0)
        ::close(lock_fd); // releases the flock
}

} // namespace specint::service
