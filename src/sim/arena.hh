/**
 * @file
 * Flat fixed-capacity slab for strictly nested (LIFO) short-lived
 * records.
 *
 * The memory hierarchy builds short-lived MemTransaction records on
 * every access; at tens of millions of simulated instructions heap
 * churn for them would dominate wall-clock time. A demand transaction
 * may spawn prefetch transactions, but every inner record is released
 * before the outer one, so TxnSlab needs no freelist or per-slot
 * bookkeeping: acquire() is a bump of one index into contiguous
 * pre-constructed storage, and the active transaction stack stays in
 * adjacent cache lines.
 *
 * acquire() value-resets the slot (no construct/destruct per use) and
 * release() asserts the LIFO discipline, which is what makes the
 * index-bump sound. Not thread-safe; each hierarchy owns its own.
 */

#ifndef SPECINT_SIM_ARENA_HH
#define SPECINT_SIM_ARENA_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace specint
{

template <typename T>
class TxnSlab
{
  public:
    explicit TxnSlab(std::size_t capacity)
        : slots_(capacity ? capacity : 1)
    {}

    TxnSlab(const TxnSlab &) = delete;
    TxnSlab &operator=(const TxnSlab &) = delete;

    /** Top-of-stack slot, value-reset; valid until release(). */
    T *
    acquire()
    {
        assert(depth_ < slots_.size() &&
               "TxnSlab overflow: nesting deeper than capacity");
        T *obj = &slots_[depth_];
        *obj = T{};
        ++depth_;
        ++acquires_;
        if (depth_ > highWater_)
            highWater_ = depth_;
        return obj;
    }

    /** Release the most recent acquire (strict LIFO). */
    void
    release(T *obj)
    {
        assert(depth_ > 0 && obj == &slots_[depth_ - 1] &&
               "TxnSlab release out of LIFO order");
        (void)obj;
        --depth_;
    }

    /** Drop all outstanding records and clear usage counters, so a
     *  reused hierarchy starts from slab state identical to a freshly
     *  constructed one. */
    void
    reset()
    {
        depth_ = 0;
        acquires_ = 0;
        highWater_ = 0;
    }

    std::size_t depth() const { return depth_; }
    std::size_t capacity() const { return slots_.size(); }
    /** Lifetime acquire() count (reuse-rate numerator). */
    std::uint64_t acquires() const { return acquires_; }
    /** Deepest simultaneous nesting observed. */
    std::size_t highWater() const { return highWater_; }

  private:
    std::vector<T> slots_;
    std::size_t depth_ = 0;
    std::uint64_t acquires_ = 0;
    std::size_t highWater_ = 0;
};

} // namespace specint

#endif // SPECINT_SIM_ARENA_HH
