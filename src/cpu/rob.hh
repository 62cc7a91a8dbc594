/**
 * @file
 * Dynamic instruction record and reorder buffer.
 *
 * DynInst is split into a hot/cold pair banked by the ROB. The hot
 * record is exactly one cache line and carries only the fields the
 * per-cycle stages read — issue selection, CDB collection, the safety
 * stage and the retire head check all touch `state`, the readiness
 * bits, the tick fields and the cached kind flags. Everything an
 * instruction accumulates at discrete pipeline events (renamed operand
 * values, the decoded StaticInst, the effective address, trace
 * timestamps, the consumer waiter list) lives in a parallel
 * DynInstCold bank reached through one pointer hop, touched only at
 * dispatch/execute/writeback/retire.
 *
 * The ROB owns both banks as capacity-sized parallel arrays indexed by
 * a dense ring slot id, with contiguous sequence numbers, so lookup by
 * SeqNum is O(1) and pushing/popping entries is pure index arithmetic
 * — no allocation anywhere on the per-instruction path. Records never
 * move while in the ROB, and a record's ring slot doubles as its key in
 * per-slot sets (the thread's ready, in-flight and shadow bitmaps).
 */

#ifndef SPECINT_CPU_ROB_HH
#define SPECINT_CPU_ROB_HH

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cpu/isa.hh"
#include "sim/types.hh"

namespace specint
{

/** Pipeline state of a dynamic instruction. */
enum class InstState : std::uint8_t
{
    Dispatched, ///< in ROB + RS, waiting for operands / issue
    Issued,     ///< executing, or complete and waiting for a CDB slot
    WrittenBack,///< result broadcast; eligible to retire
    Retired,
};

/** Load-specific phase for the speculation schemes. */
enum class LoadPhase : std::uint8_t
{
    None,         ///< not a load / nothing special
    WaitSafe,     ///< delayed by the scheme until non-speculative
    WaitMshr,     ///< L1 miss but the MSHR file is full
    InFlight,     ///< memory access outstanding
    Done,
};

/**
 * Cold remainder of a dynamic instruction: everything touched only at
 * discrete pipeline events, banked beside the hot record so per-cycle
 * scans never drag these bytes through the cache.
 */
struct DynInstCold
{
    std::uint32_t pc = 0;
    /** Decoded static instruction. Points into the owning Program's
     *  code store, which is immutable and outlives the run — the old
     *  by-value copy (with its std::string label) is gone. */
    const StaticInst *si = nullptr;

    /** @name Renamed operands (written at dispatch/writeback) */
    /// @{
    std::uint64_t src1Val = 0;
    std::uint64_t src2Val = 0;
    SeqNum src1Prod = kSeqNumInvalid;
    SeqNum src2Prod = kSeqNumInvalid;
    /// @}

    std::uint64_t result = 0;

    /** Effective address of a load or store. */
    Addr effAddr = kAddrInvalid;

    /** @name Branch outcome (written at execute) */
    /// @{
    bool predictedTaken = false;
    bool actualTaken = false;
    bool mispredicted = false;
    /// @}

    /** @name Event timestamps (trace metadata) */
    /// @{
    Tick dispatchedAt = 0;
    Tick issuedAt = kTickMax;
    /// @}

    /** I-fetch exposure: line whose visible fetch happens at retire
     *  (schemes that protect the I-cache). */
    Addr ifetchExposureLine = kAddrInvalid;

    /** @name Consumer waiter list
     *  Seqs of younger instructions renamed against this producer,
     *  recorded at dispatch so writeback wakes them directly instead
     *  of scanning the ROB tail. Wakes re-validate every entry
     *  (presence, state, srcProd match), so stale seqs left behind by
     *  a squash-and-reuse are harmless. On overflow the wake falls
     *  back to the positional scan. */
    /// @{
    static constexpr unsigned kMaxInlineWaiters = 4;
    std::array<SeqNum, kMaxInlineWaiters> waiters{};
    std::uint8_t numWaiters = 0;
    bool waiterOverflow = false;
    /// @}
};

/**
 * One dynamic instruction — the hot record. Exactly one cache line;
 * the cold remainder hangs off @ref cold_ (wired once by the owning
 * Rob).
 */
struct alignas(64) DynInst
{
    SeqNum seq = kSeqNumInvalid;
    /** Core-global dispatch order, shared by all SMT threads: the age
     *  key for cross-thread arbitration (CDB slots, issue ports). */
    std::uint64_t stamp = 0;
    /** Earliest cycle the instruction may issue: operand readiness,
     *  including the +1 writeback-to-issue delay, raised for an EU
     *  preemption's victim and a load waiting for an MSHR. */
    Tick readyAt = 0;
    Tick completeAt = kTickMax;
    /** Cold bank slot of this record (never null once banked). */
    DynInstCold *cold_ = nullptr;

    /** Hardware (SMT) thread this instruction belongs to. SeqNums are
     *  per-thread; cross-thread age comparisons must use @ref stamp. */
    ThreadId tid = 0;
    InstState state = InstState::Dispatched;
    LoadPhase loadPhase = LoadPhase::None;
    /** Instruction-kind bits cached from the StaticInst at dispatch so
     *  the hot scans never chase @ref cold_. */
    std::uint8_t kind_ = 0;
    /** Op class, cached likewise: the issue stage's port selection
     *  and per-op memo key. */
    Op op = Op::Nop;

    bool src1Ready = true;
    bool src2Ready = true;
    /** DoM: speculative L1 hit whose replacement update is deferred. */
    bool deferredTouchPending = false;
    /** InvisiSpec/SafeSpec/MuonTrap: visible exposure access pending. */
    bool exposurePending = false;
    /** Holds a reservation-station entry (ReservationStation). Hot:
     *  PipelineEngine::checkInvariants() counts the holders every
     *  literal cycle. */
    bool inRs = false;

    enum : std::uint8_t
    {
        kKindLoad = 1,
        kKindStore = 2,
        kKindBranch = 4,
        kKindFence = 8,
        kKindHalt = 16,
        kKindWritesReg = 32,
    };

    static constexpr unsigned kMaxInlineWaiters =
        DynInstCold::kMaxInlineWaiters;

    /** The cold bank slot. */
    DynInstCold &c() { return *cold_; }
    const DynInstCold &c() const { return *cold_; }

    const StaticInst &si() const { return *cold_->si; }

    /** Install the decoded instruction and cache its op and kind bits. */
    void
    setStaticInst(const StaticInst *s)
    {
        cold_->si = s;
        op = s->op;
        kind_ = (s->isLoad() ? kKindLoad : 0) |
                (s->isStore() ? kKindStore : 0) |
                (s->isBranch() ? kKindBranch : 0) |
                (s->op == Op::Fence ? kKindFence : 0) |
                (s->op == Op::Halt ? kKindHalt : 0) |
                (s->writesReg() ? kKindWritesReg : 0);
    }

    bool isLoad() const { return kind_ & kKindLoad; }
    bool isStore() const { return kind_ & kKindStore; }
    bool isBranch() const { return kind_ & kKindBranch; }
    bool isFence() const { return kind_ & kKindFence; }
    bool isHalt() const { return kind_ & kKindHalt; }
    bool isMem() const { return kind_ & (kKindLoad | kKindStore); }
    bool writesReg() const { return kind_ & kKindWritesReg; }

    /** @name Cold-field accessors (reference-returning, so call sites
     *  read and assign through one spelling). */
    /// @{
    std::uint32_t &pc() { return cold_->pc; }
    std::uint32_t pc() const { return cold_->pc; }
    std::uint64_t &src1Val() { return cold_->src1Val; }
    std::uint64_t src1Val() const { return cold_->src1Val; }
    std::uint64_t &src2Val() { return cold_->src2Val; }
    std::uint64_t src2Val() const { return cold_->src2Val; }
    SeqNum &src1Prod() { return cold_->src1Prod; }
    SeqNum src1Prod() const { return cold_->src1Prod; }
    SeqNum &src2Prod() { return cold_->src2Prod; }
    SeqNum src2Prod() const { return cold_->src2Prod; }
    std::uint64_t &result() { return cold_->result; }
    std::uint64_t result() const { return cold_->result; }
    Addr &effAddr() { return cold_->effAddr; }
    Addr effAddr() const { return cold_->effAddr; }
    bool &predictedTaken() { return cold_->predictedTaken; }
    bool predictedTaken() const { return cold_->predictedTaken; }
    bool &actualTaken() { return cold_->actualTaken; }
    bool actualTaken() const { return cold_->actualTaken; }
    bool &mispredicted() { return cold_->mispredicted; }
    bool mispredicted() const { return cold_->mispredicted; }
    Tick &dispatchedAt() { return cold_->dispatchedAt; }
    Tick dispatchedAt() const { return cold_->dispatchedAt; }
    Tick &issuedAt() { return cold_->issuedAt; }
    Tick issuedAt() const { return cold_->issuedAt; }
    Addr &ifetchExposureLine() { return cold_->ifetchExposureLine; }
    Addr ifetchExposureLine() const { return cold_->ifetchExposureLine; }
    /// @}

    void
    addWaiter(SeqNum consumer)
    {
        DynInstCold &cc = *cold_;
        if (cc.numWaiters < DynInstCold::kMaxInlineWaiters)
            cc.waiters[cc.numWaiters++] = consumer;
        else
            cc.waiterOverflow = true;
    }

    bool
    writtenBack() const
    {
        return state == InstState::WrittenBack ||
               state == InstState::Retired;
    }
};

static_assert(sizeof(DynInst) == 64,
              "hot DynInst record must stay one cache line");

/** Largest ROB a SlotSet can index; CoreConfig::validate() rejects a
 *  larger robSize. The sets store their words inline, so a thread's
 *  sets cost no allocation. */
constexpr std::size_t kMaxRobSize = 512;

/**
 * A set of ROB ring slots, one bit per slot. Because a ROB entry keeps
 * its slot for life and live slots run from the head slot with
 * wrap-around in age order, walking the members by age from the head
 * (nextByAge) visits them oldest first — no sort needed.
 */
class SlotSet
{
  public:
    /** nextByAge() result when no member remains. Compares above every
     *  age, so as a frontier it shadows no entry. */
    static constexpr std::size_t kNone = ~std::size_t{0};

    explicit SlotSet(std::size_t slots) : slots_(slots)
    {
        assert(slots <= kMaxRobSize);
    }

    void clear() { std::fill_n(words_.begin(), usedWords(), 0); }
    void insert(std::size_t slot) { words_[slot >> 6] |= bit(slot); }
    void erase(std::size_t slot) { words_[slot >> 6] &= ~bit(slot); }
    bool
    contains(std::size_t slot) const
    {
        return (words_[slot >> 6] & bit(slot)) != 0;
    }
    bool
    operator==(const SlotSet &o) const
    {
        return slots_ == o.slots_ &&
               std::equal(words_.begin(), words_.begin() + usedWords(),
                          o.words_.begin());
    }

    /**
     * The smallest age >= @p age whose slot, counted from @p head with
     * wrap-around, is a member and not a member of @p exclude (when
     * given, a set over the same slots); kNone if there is none.
     */
    std::size_t
    nextByAge(std::size_t head, std::size_t age,
              const SlotSet *exclude = nullptr) const
    {
        if (age >= slots_)
            return kNone;
        const std::size_t slot = head + age;
        if (slot < slots_) {
            // Still in the [head, end) segment: search it, then wrap.
            const std::size_t s = findIn(slot, slots_, exclude);
            if (s < slots_)
                return s - head;
            const std::size_t w = findIn(0, head, exclude);
            return w < head ? w + slots_ - head : kNone;
        }
        const std::size_t w = findIn(slot - slots_, head, exclude);
        return w < head ? w + slots_ - head : kNone;
    }

  private:
    /** Words that can hold a member; the rest stay zero. */
    std::size_t usedWords() const { return (slots_ + 63) / 64; }

    static std::uint64_t bit(std::size_t slot)
    {
        return std::uint64_t{1} << (slot & 63);
    }

    /** First member in [from, limit) outside @p exclude, or @p limit. */
    std::size_t
    findIn(std::size_t from, std::size_t limit, const SlotSet *exclude) const
    {
        if (from >= limit)
            return limit;
        const auto word = [this, exclude](std::size_t w) {
            return exclude ? words_[w] & ~exclude->words_[w] : words_[w];
        };
        std::size_t w = from >> 6;
        const std::size_t last = (limit - 1) >> 6;
        std::uint64_t bits = word(w) & (~std::uint64_t{0} << (from & 63));
        for (;;) {
            if (bits != 0) {
                const std::size_t s =
                    (w << 6) + static_cast<std::size_t>(__builtin_ctzll(bits));
                return s < limit ? s : limit;
            }
            if (w == last)
                return limit;
            bits = word(++w);
        }
    }

    std::size_t slots_;
    std::array<std::uint64_t, kMaxRobSize / 64> words_{};
};

/**
 * Reorder buffer: bounded, ordered by SeqNum, contiguous.
 *
 * Storage is two capacity-sized parallel arrays — hot records and
 * their cold bank — indexed by ring slot. Entries live at fixed slots
 * for their whole ROB lifetime (stable pointers); alloc/free is index
 * arithmetic plus an in-place slot reset, so a run performs zero
 * allocation after construction and the buffer is trivially reusable
 * across runs.
 */
class Rob
{
  public:
    explicit Rob(unsigned capacity = 224)
        : capacity_(capacity), hot_(capacity), cold_(capacity)
    {
        for (unsigned i = 0; i < capacity; ++i)
            hot_[i].cold_ = &cold_[i];
    }

    // Self-referential banks: slots point into cold_.
    Rob(const Rob &) = delete;
    Rob &operator=(const Rob &) = delete;

    unsigned capacity() const { return capacity_; }
    bool full() const { return count_ >= capacity_; }
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    /** Allocate the tail slot for @p seq, reset to a fresh record
     *  in place (hot and cold). @return reference to the record. */
    DynInst &allocTail(SeqNum seq);

    /** O(1) lookup; nullptr if the seq is not in the ROB. */
    DynInst *find(SeqNum seq);
    const DynInst *find(SeqNum seq) const;

    DynInst &head() { return *at(0); }
    const DynInst &head() const { return *at(0); }

    /** Pop the head (must be retired by the caller first). */
    void popHead();

    /**
     * Remove every instruction younger than @p bound (seq > bound).
     * @return number removed.
     */
    unsigned squashYoungerThan(SeqNum bound);

    /** Age-order index (0 = oldest). */
    DynInst *at(std::size_t i) { return &hot_[wrap(head_ + i)]; }
    const DynInst *at(std::size_t i) const
    {
        return &hot_[wrap(head_ + i)];
    }

    /** @name Ring slots
     *  An entry keeps its slot for its whole ROB lifetime, and walking
     *  the slots from headSlot() with wrap-around visits live entries
     *  in age order — so a per-slot bitmap is an age-ordered set. */
    /// @{
    /** Slot of the oldest entry (meaningful only when non-empty). */
    std::size_t headSlot() const { return head_; }
    /** Slot holding @p inst, which must be one of this ROB's records. */
    std::size_t
    slotOf(const DynInst &inst) const
    {
        return static_cast<std::size_t>(&inst - hot_.data());
    }
    /// @}

    /** Const forward iterator over entries in age order (oldest
     *  first), for range-for. */
    class const_iterator
    {
      public:
        const_iterator(const Rob *rob, std::size_t idx)
            : rob_(rob), idx_(idx)
        {}
        const DynInst &operator*() const { return *rob_->at(idx_); }
        const_iterator &operator++() { ++idx_; return *this; }
        bool operator!=(const const_iterator &o) const
        {
            return idx_ != o.idx_;
        }

      private:
        const Rob *rob_;
        std::size_t idx_;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, count_}; }

    void clear();

  private:
    std::size_t
    wrap(std::size_t i) const
    {
        return i >= hot_.size() ? i - hot_.size() : i;
    }

    /** Reset a slot to default-constructed hot/cold state. */
    DynInst &resetSlot(std::size_t pos);

    unsigned capacity_;
    std::vector<DynInst> hot_;
    std::vector<DynInstCold> cold_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace specint

#endif // SPECINT_CPU_ROB_HH
