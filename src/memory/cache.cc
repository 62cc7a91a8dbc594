/**
 * @file
 * Set-associative cache array implementation: touch/fill/
 * invalidate with LRU or QLRU replacement and the deferred touch
 * used by Delay-on-Miss.
 */

#include "memory/cache.hh"

#include <algorithm>
#include <cassert>

#include "sim/log.hh"

namespace specint
{

CacheArray::CacheArray(CacheGeometry geo)
    : geo_(std::move(geo)),
      lines_(geo_.sets * geo_.ways),
      repl_(geo_.sets * geo_.ways)
{
    assert(geo_.sets > 0 && geo_.ways > 0);
    if (geo_.ways > kMaxCacheWays) {
        panic("CacheArray " + geo_.name + ": " + std::to_string(geo_.ways) +
              " ways exceed kMaxCacheWays (" +
              std::to_string(kMaxCacheWays) + ")");
    }
    if ((geo_.sets & (geo_.sets - 1)) != 0) {
        panic("CacheArray " + geo_.name + ": " + std::to_string(geo_.sets) +
              " sets is not a power of two");
    }
}

unsigned
CacheArray::setIndex(Addr addr) const
{
    return static_cast<unsigned>(lineNumber(addr) & (geo_.sets - 1));
}

int
CacheArray::findWay(unsigned set, Addr line_num) const
{
    const Line *row = &lines_[static_cast<std::size_t>(set) * geo_.ways];
    for (unsigned w = 0; w < geo_.ways; ++w)
        if (row[w].valid && row[w].lineNum == line_num)
            return static_cast<int>(w);
    return -1;
}

int
CacheArray::findFree(unsigned set) const
{
    const Line *row = &lines_[static_cast<std::size_t>(set) * geo_.ways];
    for (unsigned w = 0; w < geo_.ways; ++w)
        if (!row[w].valid)
            return static_cast<int>(w);
    return -1;
}

bool
CacheArray::contains(Addr addr) const
{
    return findWay(setIndex(addr), lineNumber(addr)) >= 0;
}

bool
CacheArray::touch(Addr addr)
{
    const unsigned set = setIndex(addr);
    const int way = findWay(set, lineNumber(addr));
    if (way < 0)
        return false;
    replHit(geo_.policy, replRow(set), static_cast<unsigned>(way), clock_);
    return true;
}

Addr
CacheArray::fill(Addr addr)
{
    const unsigned set = setIndex(addr);
    const Addr line_num = lineNumber(addr);
    assert(findWay(set, line_num) < 0 && "fill of resident line");

    Line *row = &lines_[static_cast<std::size_t>(set) * geo_.ways];
    Addr evicted = kAddrInvalid;

    int way = findFree(set);
    if (way < 0) {
        way = static_cast<int>(
            replVictim(geo_.policy, replRow(set), geo_.ways));
        assert(row[way].valid);
        evicted = row[way].lineNum << kLineShift;
    }

    row[way].valid = true;
    row[way].lineNum = line_num;
    replInsert(geo_.policy, replRow(set), static_cast<unsigned>(way),
               clock_);
    return evicted;
}

bool
CacheArray::invalidate(Addr addr)
{
    const unsigned set = setIndex(addr);
    const int way = findWay(set, lineNumber(addr));
    if (way < 0)
        return false;
    lines_[static_cast<std::size_t>(set) * geo_.ways + way].valid = false;
    return true;
}

void
CacheArray::reset()
{
    for (auto &l : lines_)
        l.valid = false;
    std::fill(repl_.begin(), repl_.end(), 0);
    clock_ = 0;
}

void
CacheArray::deferredTouch(Addr addr)
{
    const unsigned set = setIndex(addr);
    const int way = findWay(set, lineNumber(addr));
    if (way >= 0)
        replHit(geo_.policy, replRow(set), static_cast<unsigned>(way), clock_);
}

std::vector<WaySnapshot>
CacheArray::snapshotSet(unsigned set) const
{
    assert(set < geo_.sets);
    std::vector<WaySnapshot> out(geo_.ways);
    const std::size_t base = static_cast<std::size_t>(set) * geo_.ways;
    const Line *row = &lines_[base];
    for (unsigned w = 0; w < geo_.ways; ++w) {
        out[w].valid = row[w].valid;
        out[w].lineAddr =
            row[w].valid ? (row[w].lineNum << kLineShift) : kAddrInvalid;
        if (geo_.policy == ReplKind::Qlru)
            out[w].age = static_cast<std::uint8_t>(repl_[base + w]);
    }
    return out;
}

unsigned
CacheArray::occupancy(unsigned set) const
{
    unsigned n = 0;
    const Line *row = &lines_[static_cast<std::size_t>(set) * geo_.ways];
    for (unsigned w = 0; w < geo_.ways; ++w)
        n += row[w].valid ? 1 : 0;
    return n;
}

} // namespace specint
