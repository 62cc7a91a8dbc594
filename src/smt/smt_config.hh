/**
 * @file
 * SMT core configuration: thread count, per-structure sharing
 * policies and the fetch-arbitration policy.
 *
 * The choices mirror the design space of real SMT implementations:
 * ROB/RS/LQ/SQ can be statically partitioned or competitively shared,
 * fetch is arbitrated round-robin or by ICOUNT, and execution ports
 * and MSHRs are always fully shared — which is exactly why a sibling
 * hardware thread can observe another thread's (speculative) resource
 * usage (§2.1's SameThread/SMT attacker placement).
 */

#ifndef SPECINT_SMT_SMT_CONFIG_HH
#define SPECINT_SMT_SMT_CONFIG_HH

#include <string>

#include "smt/policy.hh"

namespace specint
{

struct CoreConfig;

/** SMT-layer configuration of one physical core. */
struct SmtConfig
{
    /** Architectural threads on this physical core. */
    unsigned numThreads = 2;

    /** @name Capacity split of the finite window structures. */
    /// @{
    SharingPolicy robPolicy = SharingPolicy::Shared;
    SharingPolicy rsPolicy = SharingPolicy::Shared;
    SharingPolicy lqPolicy = SharingPolicy::Shared;
    SharingPolicy sqPolicy = SharingPolicy::Shared;
    /// @}

    /** Which thread fetches each cycle. */
    FetchPolicy fetchPolicy = FetchPolicy::ICount;

    /** A 1-thread configuration, cycle-identical to the plain Core. */
    static SmtConfig singleThread()
    {
        SmtConfig c;
        c.numThreads = 1;
        c.fetchPolicy = FetchPolicy::RoundRobin;
        return c;
    }
};

/**
 * Validate an SmtConfig against the core it will run on.
 * @return "" if usable, otherwise a description of the first problem
 * (zero threads, partitioned share rounding down to zero entries, ...).
 */
std::string validateSmtConfig(const SmtConfig &smt, const CoreConfig &core);

/** Short display name, e.g. "2T rob:shared rs:part fetch:icount". */
std::string smtConfigName(const SmtConfig &smt);

} // namespace specint

#endif // SPECINT_SMT_SMT_CONFIG_HH
