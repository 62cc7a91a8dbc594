/**
 * @file
 * Fetch/decode frontend.
 *
 * Fetches along the predicted path through the L1-I cache and feeds a
 * bounded decode queue that dispatch drains. When the decode queue is
 * full (because dispatch stalled on a full RS) fetch stops — the
 * back-throttling mechanism the G^I_RS gadget turns into a covert
 * channel: whether the frontend's I-cache access for a later line ever
 * happens becomes secret-dependent (§3.2.2, Fig. 5).
 *
 * I-cache accesses are delegated to the core through a callback so the
 * active speculation scheme can make speculative fetches invisible
 * (SafeSpec's shadow I-cache / MuonTrap's instruction filter).
 */

#ifndef SPECINT_CPU_FRONTEND_HH
#define SPECINT_CPU_FRONTEND_HH

#include <cstdint>
#include <deque>
#include <functional>

#include "cpu/branch_predictor.hh"
#include "cpu/program.hh"
#include "sim/types.hh"

namespace specint
{

/** One fetched (not yet dispatched) instruction. */
struct FetchedInst
{
    std::uint32_t pc = 0;
    bool predictedTaken = false;
    /** This instruction carries the deferred visible fetch of its
     *  line (I-fetch was invisible; expose at retire). */
    Addr exposureLine = kAddrInvalid;
};

/** Result of an I-cache access request. */
struct IFetchResult
{
    /** Cycle at which fetch from this line may proceed. */
    Tick readyAt = 0;
    /** The access was performed invisibly (needs exposure). */
    bool invisible = false;
};

class Frontend
{
  public:
    struct Config
    {
        unsigned fetchWidth = 4;
        unsigned queueCapacity = 24;
    };

    using IFetchFn = std::function<IFetchResult(Addr line)>;

    Frontend() : Frontend(Config{}) {}
    explicit Frontend(Config cfg) : cfg_(cfg) {}

    /** Could a tick() at @p now make progress? Used by the SMT fetch
     *  arbiter so a stalled thread never wastes the fetch slot.
     *  (When false, tick() would be a no-op anyway.) */
    bool canFetch(Tick now) const
    {
        return !halted_ && now >= busyUntil_ && !queueFull();
    }

    /** Start fetching a fresh program at @p pc. */
    void reset(std::uint32_t pc = 0);

    /** Squash recovery: drop the queue and refetch from @p pc once
     *  @p ready_at is reached. */
    void redirect(std::uint32_t pc, Tick ready_at);

    /** Fetch up to fetchWidth instructions this cycle. */
    void tick(Tick now, const Program &prog,
              const BranchPredictor &predictor, const IFetchFn &ifetch);

    bool queueEmpty() const { return queue_.empty(); }
    bool queueFull() const { return queue_.size() >= cfg_.queueCapacity; }
    std::size_t queueSize() const { return queue_.size(); }

    const FetchedInst &front() const { return queue_.front(); }
    FetchedInst popFront();

    bool halted() const { return halted_; }
    /** Cycle the fetch stage is next free (engine stall predicate). */
    Tick busyUntil() const { return busyUntil_; }

  private:
    Config cfg_;
    std::uint32_t pc_ = 0;
    bool halted_ = false;
    Tick busyUntil_ = 0;
    Addr currentLine_ = kAddrInvalid;
    bool pendingInvisible_ = false;
    bool firstOfLine_ = false;
    std::deque<FetchedInst> queue_;
};

} // namespace specint

#endif // SPECINT_CPU_FRONTEND_HH
