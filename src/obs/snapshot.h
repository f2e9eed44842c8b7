// Counter snapshot/diff: field-wise deltas of MachineStats between two points.
//
// Used by the golden-counter tests (tests/golden_counters_test.cc) to assert exactly
// which counters each NUMA-manager operation increments, by the overhead guardrail
// bench, and by ace_conform's per-policy activity summary. Header-only on purpose —
// usable from anything that already sees MachineStats.

#ifndef SRC_OBS_SNAPSHOT_H_
#define SRC_OBS_SNAPSHOT_H_

#include <cstdio>
#include <string>

#include "src/sim/stats.h"

namespace ace {

// Field-wise `after - before`. Counters are monotone, so the result is well defined
// whenever `before` was captured earlier on the same machine.
inline MachineStats DiffStats(const MachineStats& before, const MachineStats& after) {
  MachineStats d;
  for (std::size_t p = 0; p < d.refs.size(); ++p) {
    for (const auto& c : kRefCounters) {
      d.refs[p].*c.field = after.refs[p].*c.field - before.refs[p].*c.field;
    }
  }
  for (const StatsCounter& c : kStatsCounters) {
    d.*c.field = after.*c.field - before.*c.field;
  }
  return d;
}

// One-line summary of the protocol counters ("faults=3 copies=2 ..."), used in CI
// logs so a sweep's activity is visible at a glance.
inline std::string FormatProtocolCounters(const MachineStats& s) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "faults=%llu zero-fills=%llu copies=%llu syncs=%llu flushes=%llu "
                "unmaps=%llu moves=%llu pins=%llu alloc-fails=%llu",
                (unsigned long long)s.page_faults, (unsigned long long)s.zero_fills,
                (unsigned long long)s.page_copies, (unsigned long long)s.page_syncs,
                (unsigned long long)s.page_flushes, (unsigned long long)s.page_unmaps,
                (unsigned long long)s.ownership_moves, (unsigned long long)s.pages_pinned,
                (unsigned long long)s.local_alloc_failures);
  return buf;
}

// One-line summary of the MMU fast-path counters (machine/tlb.h), the "tlb" counter
// group. Takes plain integers so obs stays independent of the machine layer;
// ace_run and the fast-path tests feed it from Machine::tlb_stats().
inline std::string FormatTlbCounters(std::uint64_t hits, std::uint64_t misses,
                                     std::uint64_t shootdown_pages, std::uint64_t run_flushes,
                                     std::uint64_t batched_refs) {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "hits=%llu misses=%llu shootdown-pages=%llu run-flushes=%llu "
                "batched-refs=%llu",
                (unsigned long long)hits, (unsigned long long)misses,
                (unsigned long long)shootdown_pages, (unsigned long long)run_flushes,
                (unsigned long long)batched_refs);
  return buf;
}

// One-line summary of trace-ring pressure, the sampling-loss counters. A nonzero
// drop count means the per-processor rings wrapped and the oldest events were
// overwritten — any report or live feed built from the rings is missing that many
// events. Surfaced by ace_run (with --trace-out/--jsonl-out) and carried in every
// ace-live-v1 sample record so the loss is visible rather than silent.
inline std::string FormatTraceRingCounters(std::uint64_t emitted, std::uint64_t dropped) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "emitted=%llu dropped=%llu%s",
                (unsigned long long)emitted, (unsigned long long)dropped,
                dropped != 0 ? " (rings wrapped; oldest events lost)" : "");
  return buf;
}

}  // namespace ace

#endif  // SRC_OBS_SNAPSHOT_H_
