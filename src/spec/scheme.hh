/**
 * @file
 * Speculation-safety schemes as rows of declared policies.
 *
 * Every defense the paper discusses — the invisible speculation
 * schemes it attacks (§2.2) and the schemes it proposes (§5) — is a
 * Scheme: a fixed row of policies the core reads at these points:
 *
 *  1. When a speculative (unsafe) load is ready to issue: the
 *     SpecLoadPolicy decides whether it executes visibly, invisibly,
 *     only-on-L1-hit (Delay-on-Miss), or not at all.
 *  2. When any instruction is considered for issue: the IssueFence
 *     lets fence-style defenses serialise the pipeline.
 *  3. In the scheduler, via SchedFlags: the advanced defense's
 *     "never delay an older instruction" / "hold resources until
 *     non-speculative" rules (§5.4).
 *  4. At a speculative store's issue (SpecCoherencePolicy), at an
 *     instruction fetch under an unresolved branch (protectsIFetch())
 *     and when a speculative request may train the prefetcher
 *     (trainsPrefetcher()).
 *
 * The *safe point* tells the core when a load stops being speculative
 * under the scheme's threat model: when all older branches have
 * resolved (Spectre model), additionally when all older loads have
 * completed (TSO memory model, for DoM), or only at the ROB head
 * (Futuristic / wait-for-commit modes).
 *
 * scheme.cc holds one row per SchemeKind, each next to the invariant
 * its scheme promises. A Scheme is a value obtainable only from
 * makeScheme(), advancedDefense() (the §5.4 rule ablation) or its
 * default, the unsafe baseline; nothing else can build or edit one.
 * The one scheme with state, MuonTrap, keeps it in the FilterCache
 * each thread owns.
 */

#ifndef SPECINT_SPEC_SCHEME_HH
#define SPECINT_SPEC_SCHEME_HH

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace specint
{

/** When does a load become non-speculative (safe)? */
enum class SafePoint : std::uint8_t
{
    Always,           ///< never speculative (unsafe baseline)
    BranchesResolved, ///< no older unresolved branch (Spectre model)
    TSO,              ///< branches resolved + older loads completed
    RobHead,          ///< oldest non-retired instruction (Futuristic)
};

/** What does an *unsafe* load do when it is ready to issue? */
enum class SpecLoadPolicy : std::uint8_t
{
    Visible,         ///< execute normally (no protection)
    DelayOnMiss,     ///< L1 hit: serve w/ deferred repl. update;
                     ///< L1 miss: wait until safe, then re-execute
    InvisibleRequest,///< issue invisible request now (uses an MSHR on
                     ///< L1 miss); visible exposure access when safe
    InvisibleFilter, ///< invisible request + core-private filter cache
                     ///< (MuonTrap); exposure when safe
    DelayAlways,     ///< wait until safe (maximally conservative)
};

/**
 * How a scheme treats the coherence transition of a *speculative*
 * store (its read-for-ownership / upgrade request) at issue time.
 * Only consulted when the hierarchy's coherence model is enabled.
 *
 * The distinction is the paper's argument applied to coherence:
 * deferring the *upgrade* (the requester's own M state) does not
 * undo the *request* — the invalidations it sent to remote sharers
 * happened the moment it was issued, and a squash cannot recall them.
 */
enum class SpecCoherencePolicy : std::uint8_t
{
    /** Full RFO at issue: invalidate remote sharers and take Modified
     *  ownership immediately (conventional core). */
    EagerUpgrade,
    /** InvisiSpec-style: the requester's own upgrade waits for the
     *  safe point, but the invalidation request still goes out — the
     *  side effect attack/coherence_probe.hh times. */
    DeferUpgrade,
    /** No coherence request leaves the core until the store is safe
     *  (DoM philosophy: speculative side effects stay core-local). */
    DeferAll,
};

/** The fence defenses' issue gate (§5.2): which older unfinished
 *  instructions keep every younger instruction from issuing. */
enum class IssueFence : std::uint8_t
{
    None,             ///< no gate
    Branches,         ///< unresolved branches (Spectre model)
    BranchesAndLoads, ///< also incomplete loads (Futuristic model)
};

/** Scheduler-rule flags implementing the §5.4 advanced defense. */
struct SchedFlags
{
    /** Rule 2: an older ready instruction preempts a younger
     *  speculative instruction occupying a non-pipelined EU. */
    bool strictAgePriority = false;
    /** Rule 1: RS entries are released at retire, not at issue. */
    bool holdRsUntilRetire = false;
    /** Rule 2 applied to MSHRs: an older load may preempt the
     *  youngest speculative MSHR when the file is full. */
    bool preemptSpecMshr = false;
};

/** Identifiers for all schemes, used by experiment sweeps. */
enum class SchemeKind : std::uint8_t
{
    Unsafe,
    DomNonTso,          ///< Delay-on-Miss, branch shadows only
    DomTso,             ///< Delay-on-Miss, TSO shadows
    InvisiSpecSpectre,
    InvisiSpecFuturistic,
    SafeSpecWfb,        ///< wait-for-branch
    SafeSpecWfc,        ///< wait-for-commit
    MuonTrap,
    ConditionalSpec,
    FenceSpectre,       ///< basic defense, Spectre model (§5.2)
    FenceFuturistic,    ///< basic defense, Futuristic model (§5.2)
    AdvancedDefense,    ///< §5.4 rules layered on DoM
};

/** A speculation-safety scheme (defense): one row of declared
 *  policies (see file comment). */
class Scheme
{
  public:
    /** The unsafe baseline, every thread's scheme until one is set. */
    Scheme();

    /** Short display name ("InvisiSpec (Spectre)", ...). */
    std::string name() const { return name_; }

    /** Safe point for loads under this scheme's threat model. */
    SafePoint safePoint() const { return safePoint_; }

    /** Policy for unsafe loads. */
    SpecLoadPolicy specLoadPolicy() const { return specLoad_; }

    /** Speculative-store coherence policy (see SpecCoherencePolicy). */
    SpecCoherencePolicy specCoherencePolicy() const
    {
        return specCoherence_;
    }

    /** Issue gate of the fence defenses (None for every other row). */
    IssueFence issueFence() const { return fence_; }

    /** Does the scheme make speculative I-fetches invisible too?
     *  True for SafeSpec (shadow I-cache) and MuonTrap (instruction
     *  filter cache); false for InvisiSpec and DoM (§3.3.1). */
    bool protectsIFetch() const { return protectsIFetch_; }

    /** Do this scheme's *speculative* load requests train the
     *  hardware prefetcher? True for any scheme whose speculative
     *  requests leave the core (the prefetcher observes the miss
     *  stream below L1 regardless of how the fill is hidden); false
     *  for delay-based schemes whose speculative misses never issue. */
    bool trainsPrefetcher() const { return trainsPrefetcher_; }

    /** Scheduler rules (advanced defense). */
    SchedFlags schedFlags() const { return sched_; }

  private:
    friend Scheme makeScheme(SchemeKind kind);
    friend Scheme advancedDefense(SchedFlags rules, SpecLoadPolicy base);

    Scheme(const char *name, SafePoint safe_point, SpecLoadPolicy load,
           SpecCoherencePolicy coherence, IssueFence fence,
           bool protects_ifetch, bool trains_prefetcher,
           SchedFlags sched);

    const char *name_;
    SafePoint safePoint_;
    SpecLoadPolicy specLoad_;
    SpecCoherencePolicy specCoherence_;
    IssueFence fence_;
    bool protectsIFetch_;
    bool trainsPrefetcher_;
    SchedFlags sched_;
};

/** All invisible-speculation schemes the paper attacks (Table 1). */
std::vector<SchemeKind> attackedSchemes();

/** All schemes including the paper's proposed defenses. */
std::vector<SchemeKind> allSchemes();

/** The row of @p kind. */
Scheme makeScheme(SchemeKind kind);

/**
 * The §5.4 advanced defense with only the scheduler @p rules given
 * (the rule ablation), layered on cache-protection policy @p base:
 * DelayOnMiss gives makeScheme(SchemeKind::AdvancedDefense)'s row with
 * these rules; any other policy gives the "Advanced (IS+prio)" row,
 * which models the rules on an InvisiSpec-style substrate whose
 * speculative misses occupy MSHRs and so exercise rule 2b.
 */
Scheme advancedDefense(SchedFlags rules, SpecLoadPolicy base);

/** Short display name ("InvisiSpec (Spectre)", ...). */
std::string schemeName(SchemeKind kind);

/**
 * MuonTrap's core-private L0 filter cache (one per thread): the lines
 * speculative loads under SpecLoadPolicy::InvisibleFilter filled,
 * fully associative with FIFO replacement, each tagged with the
 * filling load's seq so a squash drops the wrong-path fills.
 */
class FilterCache
{
  public:
    /** Capacity in lines. */
    static constexpr std::size_t kLines = 32;

    bool probe(Addr line) const;
    /** Insert @p line, filled by load @p seq, unless it is present;
     *  a full cache first evicts its oldest line. */
    void fill(Addr line, SeqNum seq);
    /** Drop the lines filled by loads younger than @p bound. */
    void squashYoungerThan(SeqNum bound);
    void clear() { size_ = 0; }

  private:
    struct Line
    {
        Addr line;
        SeqNum seq;
    };
    /** The cached lines are lines_[0, size_), oldest fill first. */
    std::array<Line, kLines> lines_{};
    std::size_t size_ = 0;
};

} // namespace specint

#endif // SPECINT_SPEC_SCHEME_HH
