/**
 * @file
 * Load/store queue: occupancy accounting plus store-to-load forwarding.
 *
 * The model is conservative (no memory-dependence speculation): a load
 * may not issue while an older store's address is unknown (the issue
 * stage's waitsOnStore()), and a load whose word is covered by an older
 * store forwards from the store queue without touching the cache. This
 * keeps the memory model simple while preserving the properties the
 * attacks use (loads hitting the cache hierarchy at issue time).
 *
 * Under SMT the LQ/SQ capacities are split between hardware threads by
 * a SharingPolicy (partitioned or competitively shared), mirroring the
 * RS. Disambiguation stays thread-local: the SMT core passes each
 * load's own-thread ROB, and no cross-thread memory ordering is
 * modelled (the attack programs use disjoint address ranges).
 */

#ifndef SPECINT_CPU_LSQ_HH
#define SPECINT_CPU_LSQ_HH

#include <vector>

#include "cpu/rob.hh"
#include "smt/policy.hh"

namespace specint
{

class Lsq
{
  public:
    Lsq(unsigned lq_size = 72, unsigned sq_size = 56,
        unsigned num_threads = 1,
        SharingPolicy lq_policy = SharingPolicy::Shared,
        SharingPolicy sq_policy = SharingPolicy::Shared)
        : lqSize_(lq_size), sqSize_(sq_size), lqPolicy_(lq_policy),
          sqPolicy_(sq_policy),
          loads_(num_threads == 0 ? 1 : num_threads, 0),
          stores_(num_threads == 0 ? 1 : num_threads, 0)
    {}

    bool lqFull(ThreadId tid) const;
    bool sqFull(ThreadId tid) const;
    unsigned loads() const;
    unsigned stores() const;
    unsigned loads(ThreadId tid) const { return loads_[tid]; }
    unsigned stores(ThreadId tid) const { return stores_[tid]; }

    /** Would an instruction of @p si's class from @p tid fit right
     *  now? Pure query form of allocate() — the engine's stall
     *  predicate uses it without building a DynInst probe. */
    bool canAllocate(const StaticInst &si, ThreadId tid) const;

    /** Dispatch-time allocation (accounted to inst.tid).
     *  @return false if no space. */
    bool allocate(const DynInst &inst);
    /** Retire/squash-time release. */
    void release(const DynInst &inst);

    /**
     * The nearest store older than @p load (already address-resolved)
     * that writes the load's word, or nullptr. @p rob must be the
     * load's own thread's ROB and @p stores that thread's store set;
     * every older store must be written back (the load waited for it).
     */
    const DynInst *forwardingStore(const DynInst &load, const Rob &rob,
                                   const SlotSet &stores) const;

    void clear();

  private:
    unsigned lqSize_;
    unsigned sqSize_;
    SharingPolicy lqPolicy_;
    SharingPolicy sqPolicy_;
    std::vector<unsigned> loads_;
    std::vector<unsigned> stores_;
};

} // namespace specint

#endif // SPECINT_CPU_LSQ_HH
