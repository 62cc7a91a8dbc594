/**
 * @file
 * Miss status holding registers (MSHRs).
 *
 * The G^D_MSHR gadget (paper §3.2.2, Fig. 4) works by exhausting the
 * L1-D MSHR file with M speculative misses to distinct lines, so the
 * MSHR model must capture: a fixed number of entries, merging of
 * requests to the same line into one entry, and allocation in issue
 * order. Entries free when their miss completes.
 */

#ifndef SPECINT_MEMORY_MSHR_HH
#define SPECINT_MEMORY_MSHR_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace specint
{

/** One in-flight miss. */
struct MshrEntry
{
    Addr lineAddr = kAddrInvalid;
    /** Cycle at which the miss data returns and the entry frees. */
    Tick readyAt = kTickMax;
    /** Sequence number of the (youngest) speculative allocator, used
     *  by AdvancedDefense to preempt speculative holders. */
    SeqNum allocSeq = kSeqNumInvalid;
    bool speculative = false;
    /** SMT thread of the first allocator. SeqNums are per-thread, so
     *  squash and preemption must be scoped to this thread. */
    ThreadId tid = 0;
};

/**
 * Fixed-capacity MSHR file for one L1-D cache.
 */
class MshrFile
{
  public:
    explicit MshrFile(unsigned entries = 10) : entries_(entries) {}

    /** Entries currently allocated at time @p now (after expiry). */
    unsigned inUse(Tick now);

    /**
     * Entry-cycles each thread holds over [@p from, @p to) if no entry
     * is allocated or dropped in that span: an entry counts every
     * cycle before its readyAt. Adds thread t's share to
     * @p by_thread[t] and @return the total. The occupancy integral
     * of the SMT MSHR-contention channel; over [now, now + 1) it is
     * inUse(now) split by thread.
     */
    Tick
    heldCycles(Tick from, Tick to,
               std::array<Tick, kMaxSmtThreads> &by_thread) const
    {
        Tick total = 0;
        for (const MshrEntry &e : live_) {
            if (e.readyAt > from) {
                const Tick n = std::min(e.readyAt, to) - from;
                by_thread[e.tid] += n;
                total += n;
            }
        }
        return total;
    }

    bool full(Tick now) { return inUse(now) >= entries_; }

    /** Is there already an entry for this line? */
    bool hasEntry(Addr addr, Tick now);

    /**
     * Append a new entry for a miss on @p addr completing at
     * @p ready_at. A miss whose line already has an entry merges into
     * it and takes none (hasEntry), and the file must not be full:
     * both are asserted. The MSHR file is fully shared between SMT
     * threads; @p tid only tags the entry for accounting and
     * thread-local squash.
     */
    void allocate(Addr addr, Tick now, Tick ready_at,
                  SeqNum seq = kSeqNumInvalid, bool speculative = false,
                  ThreadId tid = 0);

    /**
     * Earliest completion time over all live entries (kTickMax if the
     * file is empty) — when a blocked load should retry.
     */
    Tick earliestReady(Tick now);

    /**
     * Free the youngest speculative entry of thread @p tid
     * (AdvancedDefense "squashable resource" rule; age comparisons use
     * per-thread SeqNums, so the rule is thread-local).
     * @return true if one was freed.
     */
    bool preemptYoungestSpeculative(Tick now, ThreadId tid = 0);

    /** Per-thread squash: drop speculative entries of @p tid with
     *  seq > bound. A sibling thread's entries are untouched. */
    void squashThread(ThreadId tid, SeqNum bound);

    /** Drop everything. */
    void
    reset()
    {
        live_.clear();
        earliest_ = kTickMax;
    }

  private:
    /** Remove entries whose data has returned. Every query calls it,
     *  so it sweeps only once @p now reaches earliest_. */
    void expire(Tick now);

    unsigned entries_;
    std::vector<MshrEntry> live_;
    /** Lower bound on the live entries' readyAt (kTickMax: none):
     *  lowered by allocate(), recomputed by a sweep. Squash and
     *  preemption only remove entries, so they can leave it stale-low,
     *  which costs one sweep that removes nothing. */
    Tick earliest_ = kTickMax;
};

} // namespace specint

#endif // SPECINT_MEMORY_MSHR_HH
