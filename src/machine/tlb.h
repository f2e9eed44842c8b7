// Bookkeeping for the reference fast path (Machine::FastAccess).
//
// The fast path probes the accessing processor's MMU table directly (src/mmu/mmu.h):
// a hit carries everything the accounting needs — frame, protection, logical page,
// memory class and per-kind cost — so it neither consults the pmap nor recomputes
// latencies, and a miss is a real fault. What is left here is the per-processor
// state that sits beside the MMU: the probe counters and the open run of batched
// references. The counters keep the historical `tlb` group name (Machine::tlb_stats,
// the live feed's tlb_hits/tlb_misses keys) and are deliberately *not* part of
// MachineStats, which batched and immediate accounting must leave byte-identical.

#ifndef SRC_MACHINE_TLB_H_
#define SRC_MACHINE_TLB_H_

#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"

namespace ace {

// Counters for the `tlb` observability group, deterministic for a given run
// configuration (the soak harness checks replay identity on them). `hits` and
// `misses` are aggregated from the per-processor counters below at read time; the
// probe path pays exactly one increment either way.
struct TlbStats {
  std::uint64_t hits = 0;             // fast-path probes that completed the access
  std::uint64_t misses = 0;           // probes that faulted: no mapping or too little prot
  std::uint64_t shootdown_pages = 0;  // per-page MMU invalidations (src/mmu/mmu.h)
  std::uint64_t run_flushes = 0;      // batched accounting runs committed
  std::uint64_t batched_refs = 0;     // references charged through batched runs
};

// Per-processor probe counters — the live feed's "per-processor TLB hit/miss rate"
// source (src/obs/sampler.h).
struct TlbProcCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

class Tlb {
 public:
  // An open run of consecutive same-page, same-kind references by one processor,
  // pending commit to MachineStats / IpcBus (batched run-length accounting).
  struct Run {
    std::uint64_t count = 0;
    VirtPage vpage = 0;
    AccessKind kind = AccessKind::kFetch;
    MemoryClass cls = MemoryClass::kLocal;
  };

  explicit Tlb(int num_processors)
      : runs_(static_cast<std::size_t>(num_processors)),
        proc_counters_(static_cast<std::size_t>(num_processors)) {
    ACE_CHECK(num_processors >= 1);
  }

  Tlb(const Tlb&) = delete;
  Tlb& operator=(const Tlb&) = delete;

  Run& run(ProcId proc) { return runs_[static_cast<std::size_t>(proc)]; }
  TlbProcCounters& counters(ProcId proc) {
    return proc_counters_[static_cast<std::size_t>(proc)];
  }
  const std::vector<TlbProcCounters>& proc_counters() const { return proc_counters_; }

  void NoteRunCommitted(std::uint64_t refs) {
    run_flushes_++;
    batched_refs_ += refs;
  }

  // The group without shootdown_pages, which the MMUs count (Machine::tlb_stats adds
  // them). By value — the hit/miss totals are materialized at read time.
  TlbStats stats() const {
    TlbStats s;
    for (const TlbProcCounters& c : proc_counters_) {
      s.hits += c.hits;
      s.misses += c.misses;
    }
    s.run_flushes = run_flushes_;
    s.batched_refs = batched_refs_;
    return s;
  }

 private:
  std::vector<Run> runs_;
  std::vector<TlbProcCounters> proc_counters_;
  std::uint64_t run_flushes_ = 0;
  std::uint64_t batched_refs_ = 0;
};

}  // namespace ace

#endif  // SRC_MACHINE_TLB_H_
