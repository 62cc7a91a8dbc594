/**
 * @file
 * Core-level configuration and result types, shared by the unified
 * pipeline engine (cpu/pipeline/), the single-thread Core façade and
 * the SMT orchestration (smt/). Split out of core.hh so the engine
 * headers can use them without a circular include.
 */

#ifndef SPECINT_CPU_CORE_TYPES_HH
#define SPECINT_CPU_CORE_TYPES_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace specint
{

/** Core structural configuration (defaults are Kaby Lake-flavoured:
 *  97-entry unified RS, 8 issue ports — §4.1). */
struct CoreConfig
{
    unsigned fetchWidth = 4;
    unsigned decodeQueue = 24;
    unsigned dispatchWidth = 4;
    unsigned issueWidth = 8;
    unsigned retireWidth = 4;

    /** At most kMaxRobSize (cpu/rob.hh). */
    unsigned robSize = 224;
    unsigned rsSize = 97;
    unsigned lqSize = 72;
    unsigned sqSize = 56;
    unsigned mshrs = 10;

    /** Writeback (common data bus) slots per cycle. */
    unsigned cdbWidth = 4;

    /** Frontend redirect penalty after a squash. */
    Tick squashPenalty = 5;
    /** Store-to-load forwarding latency. */
    Tick storeForwardLatency = 5;

    /** Runaway guard for run(). */
    std::uint64_t maxCycles = 2'000'000;

    /**
     * Structural sanity check. @return "" if the configuration is
     * usable, otherwise a description of the first problem (zero-size
     * structure, issueWidth exceeding the port count, ...). The
     * pipeline engine and System call this from their constructors
     * and fatal() on a non-empty result instead of silently
     * misbehaving.
     */
    std::string validate() const;
};

/** Aggregate statistics of one single-thread run. */
struct CoreStats
{
    Tick cycles = 0;
    std::uint64_t retired = 0;
    std::uint64_t issued = 0;
    std::uint64_t squashes = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t loads = 0;
    std::uint64_t loadL1Hits = 0;
    /** Program ran to Halt (vs hitting maxCycles). */
    bool finished = false;
};

/** Retire-time timing record of a labeled instruction. */
struct InstTraceEntry
{
    std::string label;
    std::uint32_t pc = 0;
    SeqNum seq = 0;
    Tick dispatchedAt = 0;
    Tick issuedAt = 0;
    Tick completeAt = 0;
    Tick retiredAt = 0;
    Addr effAddr = kAddrInvalid;
};

} // namespace specint

#endif // SPECINT_CPU_CORE_TYPES_HH
