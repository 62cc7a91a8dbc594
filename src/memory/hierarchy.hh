/**
 * @file
 * Multi-core cache hierarchy: per-core private L1-I/L1-D/L2 and a
 * shared, sliced, inclusive LLC — the i7-7700 organisation the paper
 * evaluates on (§4.1).
 *
 * A request walks L1 -> L2 -> LLC -> memory; the entry point the
 * caller picks decides the walk (access(), accessInvisible(),
 * accessDirect()). Four properties matter for the attacks and are
 * modelled explicitly:
 *
 *  1. A *visible LLC access trace*: every request that reaches the
 *     LLC (private levels missed, or a direct attacker access) is
 *     recorded in order. This trace is the paper's C(E) — the
 *     observable the ideal invisible speculation definition (§5.1)
 *     quantifies over — and the physical substrate of the
 *     replacement-state receiver.
 *
 *  2. *Invisible* requests (InvisiSpec-style): return the data
 *     latency a request would experience but change no cache state at
 *     any level and do not appear in the trace. They still consume
 *     shared-level bandwidth and still train the prefetcher when the
 *     issuing scheme lets them — invisibility hides state, not the
 *     request.
 *
 *  3. A per-line MESI directory (memory/coherence.hh, off by
 *     default): write-intent requests acquire Modified ownership
 *     and invalidate remote Shared copies; reads demote remote owners.
 *     Invalidations happen when the *request* is made — a speculative
 *     store's RFO is not undone by a squash.
 *
 *  4. A per-core next-line prefetcher (memory/prefetcher.hh, off by
 *     default): trained by the demand stream, issuing real prefetch
 *     requests that fill L2/LLC and occupy slice ports and shared
 *     MSHRs.
 *
 * The attacker runs on another physical core. Real attackers bypass
 * their own private caches with clflush between rounds; we model that
 * directly with accessDirect(), an LLC-level client (substitution
 * documented in DESIGN.md).
 */

#ifndef SPECINT_MEMORY_HIERARCHY_HH
#define SPECINT_MEMORY_HIERARCHY_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "memory/cache.hh"
#include "memory/coherence.hh"
#include "memory/prefetcher.hh"
#include "memory/transaction.hh"
#include "sim/types.hh"

namespace specint
{

/** Full hierarchy configuration. */
struct HierarchyConfig
{
    unsigned cores = 2;

    CacheGeometry l1i{"l1i", 64, 8, ReplKind::Lru};
    CacheGeometry l1d{"l1d", 64, 8, ReplKind::Lru};
    CacheGeometry l2{"l2", 1024, 4, ReplKind::Lru};
    /** Geometry of one LLC slice. */
    CacheGeometry llcSlice{"llc", 2048, 16, ReplKind::Qlru};
    /** Number of LLC slices (power of two). */
    unsigned llcSlices = 4;

    Tick l1Latency = 4;
    Tick l2Latency = 12;
    Tick llcLatency = 40;
    Tick memLatency = 200;

    /**
     * @name Shared-level contention model (System layer; 0 = off)
     *
     * When enabled, every request that reaches the LLC — visible,
     * invisible, prefetch or direct — competes for finite shared-level
     * resources: each slice accepts one request per llcPortBusy
     * cycles, and LLC misses occupy one of llcMshrs shared
     * (LLC-to-memory) MSHRs for the memory latency, coalescing with an
     * in-flight fill of the same line. Queueing delay is added to the
     * returned latency. This is the substrate of the cross-core
     * occupancy channel: *invisible* speculation hides cache state,
     * not shared-level bandwidth, so a sibling core still feels a
     * mis-speculated gadget's LLC traffic (attack/cross_core_probe.hh).
     *
     * Both knobs default to 0 (unmodelled), which preserves the exact
     * single-core latencies every pre-System experiment was calibrated
     * against.
     */
    /// @{
    /** Cycles one LLC-slice port is occupied per request. */
    Tick llcPortBusy = 0;
    /** Shared LLC-to-memory MSHR entries (0 = unlimited). */
    unsigned llcMshrs = 0;
    /// @}

    /** MESI coherence model over the private levels (off by default;
     *  memory/coherence.hh). */
    CoherenceParams coherence;

    /** Per-core hardware prefetcher (off by default;
     *  memory/prefetcher.hh). */
    PrefetchParams prefetch;

    /**
     * Structural sanity check, mirroring CoreConfig::validate.
     * @return "" if the configuration is usable, otherwise a
     * description of the first problem (zero geometry, non-power-of-two
     * slice count, inverted latency ordering, ...). Hierarchy's
     * constructor fatal()s on a non-empty result; SystemConfig chains
     * it.
     */
    std::string validate() const;

    /** Small config for fast unit tests. */
    static HierarchyConfig small();
    /** i7-7700-like default. */
    static HierarchyConfig kabyLake();
};

/** Per-core shared-level (LLC) contention counters. */
struct LlcContentionStats
{
    /** Requests from this core that reached the LLC. */
    std::uint64_t requests = 0;
    /** Requests that waited for a slice port or a shared MSHR. */
    std::uint64_t queued = 0;
    /** Total cycles spent waiting. */
    Tick queueDelay = 0;
};

/** One entry in the visible LLC access trace (C(E)). */
struct VisibleAccess
{
    CoreId core = 0;
    Addr lineAddr = 0;
    Tick when = 0;
    AccessType type = AccessType::Data;
    /** What issued the request (demand, prefetch, direct client). */
    TxnSource source = TxnSource::Demand;

    bool operator==(const VisibleAccess &o) const
    {
        // Timing is deliberately excluded: the paper's attacker "sees
        // the sequence (without timing information) of visible L2
        // accesses" (§5.1).
        return core == o.core && lineAddr == o.lineAddr && type == o.type;
    }
};

/** Functional backing store: 64-bit words, default-zero. */
class MainMemory
{
  public:
    std::uint64_t read(Addr addr) const;
    void write(Addr addr, std::uint64_t value);
    void clear() { words_.clear(); }

  private:
    std::unordered_map<Addr, std::uint64_t> words_;
};

/**
 * The full multi-core hierarchy.
 */
class Hierarchy
{
  public:
    explicit Hierarchy(HierarchyConfig cfg = HierarchyConfig::small());

    const HierarchyConfig &config() const { return cfg_; }

    /**
     * Visible demand access from a core: fills and replacement updates
     * apply at every level; the LLC trace is appended to if the
     * request reaches the LLC. Write intent additionally acquires
     * Modified ownership under the coherence model (invalidating
     * remote sharers). @p train gates prefetcher training (the issuing
     * scheme's call for speculative requests).
     */
    MemAccessResult access(CoreId core, Addr addr, AccessType type,
                           Tick now,
                           MemIntent intent = MemIntent::Read,
                           bool train = true);

    /**
     * Invisible access (InvisiSpec/SafeSpec speculative request):
     * latency as if performed, but no *cache-state* change and no
     * trace entry. The request still consumes shared-level bandwidth
     * when the contention model is enabled, still pays a remote
     * Modified owner's writeback latency under the coherence model,
     * and still trains the prefetcher when @p train is set —
     * invisibility hides state, not the request.
     */
    MemAccessResult accessInvisible(CoreId core, Addr addr,
                                    AccessType type, Tick now,
                                    bool train = false);

    /**
     * Pure latency query: what an access would cost right now, with
     * no state change, no trace entry and no bandwidth consumed. Used
     * for MSHR ready-time estimation; never observable by a sibling.
     */
    MemAccessResult peekLatency(CoreId core, Addr addr,
                                AccessType type) const;

    /**
     * Direct LLC client access (attacker agent). Skips private caches:
     * models a receiver that flushes its own private copies between
     * rounds, as real cross-core attacks do.
     */
    MemAccessResult accessDirect(CoreId core, Addr addr, Tick now);

    /**
     * Speculative store upgrade request (RFO) at issue time, under
     * the coherence model: remote Shared copies are invalidated *now*
     * — the irreversible side effect of making the request — and, when
     * @p take_ownership is set (SpecCoherencePolicy::EagerUpgrade),
     * the requester also takes Modified ownership immediately.
     * InvisiSpec-style schemes pass take_ownership=false: the upgrade
     * is deferred to the retirement-time write, but the invalidations
     * have already happened (attack/coherence_probe.hh).
     * @return the invalidation round-trip latency (0 with the model
     * off or no remote sharers).
     */
    Tick specStoreUpgrade(CoreId core, Addr addr, Tick now,
                          bool take_ownership);

    /** L1-D probe with no state change (Delay-on-Miss hit check). */
    bool l1Probe(CoreId core, Addr addr) const;

    /** Apply a DoM deferred L1-D replacement update. */
    void l1DeferredTouch(CoreId core, Addr addr);

    /** clflush analogue: remove the line from every cache (and from
     *  the coherence directory). */
    void flushLine(Addr addr);

    /** Reset all arrays, traces, directory, prefetchers and the
     *  contention state. */
    void reset();

    /** @name Shared-level contention model */
    /// @{
    /** Drop all port/MSHR occupancy and zero the contention stats
     *  (harnesses call this between untimed setup and a timed run). */
    void resetContention();
    /** Per-core shared-level contention counters since the last
     *  reset. */
    const LlcContentionStats &llcContention(CoreId core) const
    {
        return llcStats_[core];
    }
    /// @}

    /** @name Coherence model (meaningful only when enabled) */
    /// @{
    bool coherenceEnabled() const { return cfg_.coherence.enabled; }
    CoherenceDirectory &coherenceDirectory() { return directory_; }
    const CoherenceDirectory &coherenceDirectory() const
    {
        return directory_;
    }
    /** Per-core coherence traffic counters. */
    const CoherenceStats &coherenceStats(CoreId core) const
    {
        return directory_.stats(core);
    }
    /// @}

    /** @name Prefetcher layer (meaningful only when enabled) */
    /// @{
    bool prefetchEnabled() const
    {
        return cfg_.prefetch.kind != PrefetchKind::None;
    }
    Prefetcher &prefetcher(CoreId core) { return prefetchers_[core]; }
    const PrefetchStats &prefetchStats(CoreId core) const
    {
        return prefetchers_[core].stats();
    }
    /// @}

    /** @name Visible LLC access trace (the paper's C(E)). */
    /// @{
    const std::vector<VisibleAccess> &llcTrace() const { return trace_; }
    /** Empty the trace; the publishMetrics() baseline restarts with
     *  it, so accesses appended afterwards are all published. */
    void clearLlcTrace()
    {
        trace_.clear();
        tracePublished_ = 0;
    }
    /// @}

    /** @name Introspection for receivers / tests. */
    /// @{
    bool llcContains(Addr addr) const;
    unsigned llcSliceIndex(Addr addr) const;
    unsigned llcSetIndex(Addr addr) const;
    CacheArray &llcSlice(unsigned idx) { return llc_[idx]; }
    const CacheArray &llcSlice(unsigned idx) const { return llc_[idx]; }
    CacheArray &l1d(CoreId core) { return l1d_[core]; }
    CacheArray &l1i(CoreId core) { return l1i_[core]; }
    CacheArray &l2(CoreId core) { return l2_[core]; }
    /// @}

    /** Classification threshold: latency below this is an "LLC hit"
     *  for a direct (attacker) access. */
    Tick llcHitThreshold() const
    {
        return cfg_.llcLatency + cfg_.memLatency / 2;
    }

    /**
     * Push the hierarchy-wide counters (LLC contention, coherence,
     * prefetch, slice occupancy) into the global MetricRegistry.
     * Unlike ThreadStats, these accumulate for the lifetime of the
     * Hierarchy object, so each call publishes the delta since the
     * previous one (engine core 0 calls this once per finished run).
     * No-op unless obs::metricsEnabled().
     */
    void publishMetrics();

  private:
    /** @name Request walks (the public entry points call these) */
    /// @{
    /** Visible walk: demand (L1 -> L2 -> LLC -> memory, @p source
     *  Demand) and prefetch (LLC -> memory, filling L2) requests. */
    MemAccessResult walkVisible(CoreId core, Addr addr, AccessType type,
                                MemIntent intent, TxnSource source,
                                Tick now);
    /** Invisible walk: latency + bandwidth, no state change. */
    MemAccessResult walkInvisible(CoreId core, Addr addr,
                                  AccessType type, Tick now);
    /** Direct-client walk: LLC only. */
    MemAccessResult walkDirect(CoreId core, Addr addr, Tick now);
    /**
     * Finish a request: when tracing, record it as a span named after
     * its serving level on @p core's memory track ("core<N>.mem";
     * "llc.direct" for a direct client), with category @p cat ("mem",
     * "invisible" or "prefetch") so traffic can be filtered by kind;
     * then, if @p train, train @p core's prefetcher off it.
     */
    void finishRequest(CoreId core, Addr addr, Tick now,
                       const MemAccessResult &res, TxnSource source,
                       const char *cat, bool train);
    /**
     * Write-intent directory consult (CoherenceDirectory::write):
     * remove the line from every invalidated remote core's private
     * arrays, record the invalidations on "llc.coherence" when
     * tracing, and add the round trip and the count to @p res.
     */
    void coherenceWrite(CoreId core, Addr addr, Tick now,
                        bool take_ownership, MemAccessResult &res);
    /** Train @p core's prefetcher off a demand request served by
     *  @p served and issue the resulting prefetches. */
    void trainPrefetcher(CoreId core, Addr addr, Tick now,
                         ServedBy served);
    /// @}

    /** Remove @p line_addr from @p core's private data-side arrays. */
    void invalidatePrivate(CoreId core, Addr line_addr);

    /** Fill @p addr into the LLC, back-invalidating on eviction. */
    void llcFill(Addr addr);
    /** Back-invalidate a line evicted from the inclusive LLC. */
    void backInvalidate(Addr line_addr);

    /**
     * Charge one LLC-reaching request from @p core against the
     * shared-level contention model. @return the queueing delay to add
     * to the request's latency (may be negative when an LLC miss
     * coalesces with an in-flight fill of the same line, which
     * completes sooner than a fresh memory fetch).
     */
    std::int64_t sharedLevelDelay(CoreId core, Addr addr, Tick now,
                                  bool llc_miss);
    /** Apply @p extra from sharedLevelDelay to @p res. */
    static void applyQueueDelay(MemAccessResult &res, std::int64_t extra);

    HierarchyConfig cfg_;
    std::vector<CacheArray> l1i_;
    std::vector<CacheArray> l1d_;
    std::vector<CacheArray> l2_;
    std::vector<CacheArray> llc_;
    std::vector<VisibleAccess> trace_;

    CoherenceDirectory directory_;
    std::vector<Prefetcher> prefetchers_;
    /** Reused candidate buffer (no per-access allocation). */
    std::vector<Addr> prefetchCands_;

    /** @name Shared-level contention state */
    /// @{
    /** Cycle each LLC slice's port is next free. */
    std::vector<Tick> slicePortFreeAt_;
    /** In-flight LLC-to-memory fills (line, completion time). */
    struct LlcMshrEntry
    {
        Addr line;
        Tick readyAt;
    };
    std::vector<LlcMshrEntry> llcMshrs_;
    std::vector<LlcContentionStats> llcStats_;
    /// @}

    /** @name Observability (opt-in; src/sim/obs) */
    /// @{
    /** Lazily interned trace tracks (ids are per-object caches of the
     *  global tracer's interning, valid for this object's lifetime). */
    std::vector<std::uint32_t> memTraceTracks_;
    std::uint32_t directTraceTrack_ = 0;
    std::uint32_t cohTraceTrack_ = 0;
    /** publishMetrics() baselines: the cumulative counter values
     *  already pushed into the registry (delta publication). */
    std::vector<LlcContentionStats> llcPublished_;
    std::vector<CoherenceStats> cohPublished_;
    std::vector<PrefetchStats> pfPublished_;
    std::uint64_t tracePublished_ = 0;
    /// @}
};

} // namespace specint

#endif // SPECINT_MEMORY_HIERARCHY_HH
