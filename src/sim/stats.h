// Machine-wide event counters.
//
// Two uses: (1) validation — the paper *derives* the locality fraction alpha from
// measured times (eq. 4); the simulator can also count references directly, and tests
// check that the derived and counted values agree; (2) the Table 4 / section 3.3
// overhead analysis (page moves, copies, faults).

#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <array>
#include <cstdint>
#include <span>

#include "src/common/types.h"

namespace ace {

// Every counter is declared once, in one X-macro list per counter group. Each entry is
// X(field, live_key): the struct field, and its key in the ace-live-v1 feed
// (src/obs/live_stream.h) — a format contract, never renamed. From these lists come
// the struct fields below, the member-pointer tables after MachineStats, and through
// them the field-wise diff (src/obs/snapshot.h), the live-feed vocabulary, the sweep's
// chaos/durability metrics (src/metrics/sweep/runner.cc) and ace_soak's zero-cost
// checks. Adding a counter is adding one line to its group.

// Data references per processor, by memory class and access kind (ProcRefCounts).
#define ACE_REF_COUNTERS(X)      \
  X(fetch_local, "fetch_local")   \
  X(fetch_global, "fetch_global") \
  X(fetch_remote, "fetch_remote") \
  X(store_local, "store_local")   \
  X(store_global, "store_global") \
  X(store_remote, "store_remote")

// VM / NUMA machinery events.
#define ACE_PROTOCOL_COUNTERS(X)                                                             \
  X(page_faults, "faults")                                                                   \
  X(zero_fills, "zero_fills")                                                                \
  X(page_copies, "copies")                /* any frame-to-frame page copy */                 \
  X(page_syncs, "syncs")                  /* local-writable copied back to global */         \
  X(page_flushes, "flushes")              /* cached copy dropped */                          \
  X(page_unmaps, "unmaps")                /* mapping dropped (global pages) */               \
  X(ownership_moves, "moves")             /* local-writable migrations between processors */ \
  X(pages_pinned, "pins")                 /* pages the policy permanently placed global */   \
  X(local_alloc_failures, "alloc_fails")  /* wanted a local frame, local memory full */

// Graceful-degradation accounting (DESIGN.md section 8). All four stay zero unless
// memory is lost *mid-operation* (after cleanup already began) or a fault plan
// (src/inject) is armed; the pre-cleanup exhaustion fallback is counted as
// local_alloc_failures.
#define ACE_DEGRADE_COUNTERS(X)                                                                  \
  X(degraded_global_fallbacks, "deg_fallbacks")  /* resolution re-routed to the GLOBAL path */   \
  X(degraded_copy_failures, "deg_copy_fails")    /* local copy failed after frame allocation */  \
  X(degraded_pool_retries, "deg_pool_retries")   /* extra evict+alloc rounds beyond the first */ \
  X(degraded_oom_faults, "deg_oom_faults")       /* fault gave up after the bounded retries */

// Chaos accounting (DESIGN.md section 13). Both exactly zero unless the fault plan
// carries chaos events, so every chaos-free baseline survives unchanged.
#define ACE_CHAOS_COUNTERS(X)                                                                     \
  X(chaos_events, "chaos_events")        /* chaos transitions applied (activation + recovery) */  \
  X(evacuated_pages, "evacuated_pages")  /* resident copies flushed/synced off a draining node */

// Durability accounting (DESIGN.md section 14). All five stay exactly zero unless
// the fault plan carries a permanent chaos event (kill-node / corrupt-page) — only
// then is the replica manager armed — so every pre-existing baseline, transient
// chaos plans included, survives byte-identical.
#define ACE_DURABILITY_COUNTERS(X)                                                                 \
  X(replicated_pages, "replicated_pages")    /* dirty-page journals opened (off-node mirrors) */   \
  X(journal_bytes, "journal_bytes")          /* bytes written through open journals */             \
  X(recovered_pages, "recovered_pages")      /* pages reconstructed from mirror/journal/replica */ \
  X(lost_pages, "lost_pages")                /* unreplicated owned pages lost with their node */   \
  X(checksum_failures, "checksum_failures")  /* corrupted frames detected by the checksum scrub */

// Serving counters, written by the running app through Machine::RecordApp*
// (DESIGN.md sections 12-13). Zero for apps that record no requests; the SLO
// outcomes (timeouts, retries, shed) are also zero on chaos-free runs. Latency is a
// running sum, not a percentile, so every counter stays monotone; a reader derives
// mean latency per interval as req_lat_ns / requests. Purely observational: the
// simulation never reads them back.
#define ACE_APP_COUNTERS(X)                                                               \
  X(app_requests, "requests")      /* completed requests */                               \
  X(app_req_lat_ns, "req_lat_ns")  /* sum of their virtual-time latencies */              \
  X(app_timeouts, "timeouts")      /* attempts that missed their virtual-time deadline */ \
  X(app_retries, "retries")        /* retry attempts issued */                            \
  X(app_shed, "shed")              /* requests shed by the per-tenant backlog guard */

// Every scalar MachineStats counter, group by group.
#define ACE_STATS_COUNTERS(X) \
  ACE_PROTOCOL_COUNTERS(X)    \
  ACE_DEGRADE_COUNTERS(X)     \
  ACE_CHAOS_COUNTERS(X)       \
  ACE_DURABILITY_COUNTERS(X)  \
  ACE_APP_COUNTERS(X)

#define ACE_DECLARE_COUNTER(field, key) std::uint64_t field = 0;

// One counter of a group, for code that iterates a group at run time.
template <typename Owner>
struct CounterField {
  std::uint64_t Owner::*field;
  const char* name;      // the field name, also its metric name in sweep cell JSON
  const char* live_key;  // its ace-live-v1 key
};

struct ProcRefCounts {
  ACE_REF_COUNTERS(ACE_DECLARE_COUNTER)

  bool operator==(const ProcRefCounts&) const = default;

  std::uint64_t Total() const {
    return fetch_local + fetch_global + fetch_remote + store_local + store_global + store_remote;
  }
  std::uint64_t LocalTotal() const { return fetch_local + store_local; }
  std::uint64_t GlobalTotal() const { return fetch_global + store_global; }
  std::uint64_t RemoteTotal() const { return fetch_remote + store_remote; }
};

#define ACE_REF_COUNTER_FIELD(field, key) \
  CounterField<ProcRefCounts>{&ProcRefCounts::field, #field, key},
inline constexpr CounterField<ProcRefCounts> kRefCounters[] = {
    ACE_REF_COUNTERS(ACE_REF_COUNTER_FIELD)};
#undef ACE_REF_COUNTER_FIELD

struct MachineStats {
  std::array<ProcRefCounts, kMaxProcessors> refs{};
  ACE_STATS_COUNTERS(ACE_DECLARE_COUNTER)

  bool operator==(const MachineStats&) const = default;

  void RecordRef(ProcId proc, MemoryClass cls, AccessKind kind) {
    RecordRefBlock(proc, cls, kind, 1);
  }

  // Record a run of `count` consecutive references of one (class, kind) by one
  // processor — the reference fast path's batched accounting. Reference counters are pure
  // sums, so one block record is exactly `count` RecordRef calls.
  void RecordRefBlock(ProcId proc, MemoryClass cls, AccessKind kind, std::uint64_t count) {
    ProcRefCounts& c = refs[static_cast<std::size_t>(proc)];
    switch (cls) {
      case MemoryClass::kLocal:
        (kind == AccessKind::kFetch ? c.fetch_local : c.store_local) += count;
        break;
      case MemoryClass::kGlobal:
        (kind == AccessKind::kFetch ? c.fetch_global : c.store_global) += count;
        break;
      case MemoryClass::kRemote:
        (kind == AccessKind::kFetch ? c.fetch_remote : c.store_remote) += count;
        break;
    }
  }

  ProcRefCounts TotalRefs() const {
    ProcRefCounts t;
    for (const ProcRefCounts& c : refs) {
      for (const auto& f : kRefCounters) {
        t.*f.field += c.*f.field;
      }
    }
    return t;
  }

  // Directly measured locality fraction over data references, the counting analogue of
  // the paper's alpha (eq. 4).
  double MeasuredAlpha() const {
    ProcRefCounts t = TotalRefs();
    std::uint64_t total = t.Total();
    if (total == 0) {
      return 1.0;
    }
    return static_cast<double>(t.LocalTotal()) / static_cast<double>(total);
  }

  void Reset() { *this = MachineStats{}; }
};

#undef ACE_DECLARE_COUNTER

using StatsCounter = CounterField<MachineStats>;

#define ACE_STATS_COUNTER_FIELD(field, key) StatsCounter{&MachineStats::field, #field, key},
inline constexpr StatsCounter kDegradeCounters[] = {
    ACE_DEGRADE_COUNTERS(ACE_STATS_COUNTER_FIELD)};
inline constexpr StatsCounter kChaosCounters[] = {ACE_CHAOS_COUNTERS(ACE_STATS_COUNTER_FIELD)};
inline constexpr StatsCounter kDurabilityCounters[] = {
    ACE_DURABILITY_COUNTERS(ACE_STATS_COUNTER_FIELD)};
inline constexpr StatsCounter kAppCounters[] = {ACE_APP_COUNTERS(ACE_STATS_COUNTER_FIELD)};
// All scalar counters, in ACE_STATS_COUNTERS order (the live-feed order too).
inline constexpr StatsCounter kStatsCounters[] = {ACE_STATS_COUNTERS(ACE_STATS_COUNTER_FIELD)};
#undef ACE_STATS_COUNTER_FIELD

// Sum of one counter group, e.g. CounterSum(s, kChaosCounters) for a zero-cost check.
inline std::uint64_t CounterSum(const MachineStats& s, std::span<const StatsCounter> group) {
  std::uint64_t sum = 0;
  for (const StatsCounter& c : group) {
    sum += s.*c.field;
  }
  return sum;
}

}  // namespace ace

#endif  // SRC_SIM_STATS_H_
