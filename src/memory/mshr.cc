/**
 * @file
 * MSHR file implementation: fixed-capacity allocation in issue
 * order, the same-line lookup a merging miss uses, expiry at miss
 * completion, and the squash / speculative-preemption hooks.
 */

#include "memory/mshr.hh"

#include <algorithm>
#include <cassert>

namespace specint
{

void
MshrFile::expire(Tick now)
{
    if (now < earliest_)
        return; // no entry's data has returned yet
    live_.erase(std::remove_if(live_.begin(), live_.end(),
                               [now](const MshrEntry &e) {
                                   return e.readyAt <= now;
                               }),
                live_.end());
    earliest_ = kTickMax;
    for (const auto &e : live_)
        earliest_ = std::min(earliest_, e.readyAt);
}

unsigned
MshrFile::inUse(Tick now)
{
    expire(now);
    return static_cast<unsigned>(live_.size());
}

bool
MshrFile::hasEntry(Addr addr, Tick now)
{
    expire(now);
    const Addr line = lineAlign(addr);
    for (const auto &e : live_)
        if (e.lineAddr == line)
            return true;
    return false;
}

void
MshrFile::allocate(Addr addr, Tick now, Tick ready_at, SeqNum seq,
                   bool speculative, ThreadId tid)
{
    expire(now);
    assert(live_.size() < entries_);
    assert(!hasEntry(addr, now));
    MshrEntry e;
    e.lineAddr = lineAlign(addr);
    e.readyAt = ready_at;
    e.allocSeq = seq;
    e.speculative = speculative;
    e.tid = tid;
    live_.push_back(e);
    earliest_ = std::min(earliest_, ready_at);
}

Tick
MshrFile::earliestReady(Tick now)
{
    expire(now);
    Tick best = kTickMax;
    for (const auto &e : live_)
        best = std::min(best, e.readyAt);
    return best;
}

bool
MshrFile::preemptYoungestSpeculative(Tick now, ThreadId tid)
{
    expire(now);
    auto victim = live_.end();
    for (auto it = live_.begin(); it != live_.end(); ++it) {
        if (!it->speculative || it->tid != tid)
            continue;
        if (victim == live_.end() || it->allocSeq > victim->allocSeq)
            victim = it;
    }
    if (victim == live_.end())
        return false;
    live_.erase(victim);
    return true;
}

void
MshrFile::squashThread(ThreadId tid, SeqNum bound)
{
    live_.erase(std::remove_if(live_.begin(), live_.end(),
                               [tid, bound](const MshrEntry &e) {
                                   return e.speculative && e.tid == tid &&
                                          e.allocSeq != kSeqNumInvalid &&
                                          e.allocSeq > bound;
                               }),
                live_.end());
}

} // namespace specint
