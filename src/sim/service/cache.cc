/**
 * @file
 * ResultCache implementation: canonical keys, FNV-1a addressing,
 * verified reads and atomic writes.
 */

#include "sim/service/cache.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include <unistd.h>

namespace fs = std::filesystem;

namespace specint::service
{

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
    return (fs::path(dir_) / "objects" / key.hex()).string();
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

    std::vector<experiment::Row> decoded;
    std::string entry_legacy;
    if (const char *why =
            decodeEntry(body.str(), key.canonical, decoded, entry_legacy))
        return reject(why);

    rows = std::move(decoded);
    legacy = std::move(entry_legacy);
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

    // Unique tmp name per writer: concurrent runs sharing one
    // --cache-dir never clobber each other's half-written files, and
    // rename() makes publication atomic.
    const std::string tmp_path =
        (fs::path(dir_) / "tmp" /
         (key.hex() + "." + std::to_string(::getpid())))
            .string();
    const std::string entry = encodeEntry(key.canonical, rows, legacy);
    bool written;
    {
        std::ofstream out(tmp_path, std::ios::binary);
        written = out.write(entry.data(),
                            static_cast<std::streamsize>(entry.size()))
                      .flush()
                      .good();
    }
    std::error_code ec;
    if (written)
        fs::rename(tmp_path, entryPath(key), ec);
    if (!written || ec) {
        fs::remove(tmp_path, ec);
        return;
    }
    ++stats_.stores;
}

} // namespace specint::service
