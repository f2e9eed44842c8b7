// Configuration of the simulated ACE machine.
//
// Defaults reproduce the hardware described in paper section 2.2: a "typical" ACE with
// local memory per processor and shared global memory, 32-bit references timed at
// 0.65/0.84 us (local fetch/store) and 1.5/1.4 us (global fetch/store), so global is
// 2.3x slower on fetches, 1.7x on stores, and about 2x for a 45%-store mix.

#ifndef SRC_SIM_MACHINE_CONFIG_H_
#define SRC_SIM_MACHINE_CONFIG_H_

#include <cstdint>

#include "src/common/check.h"
#include "src/common/types.h"

namespace ace {

// Per-reference latencies, in nanoseconds, for each memory class.
struct LatencyModel {
  TimeNs local_fetch_ns = 650;
  TimeNs local_store_ns = 840;
  TimeNs global_fetch_ns = 1500;
  TimeNs global_store_ns = 1400;
  // Remote references (another processor's local memory) exist on the ACE but the
  // paper's system does not use them (section 4.4); the paper expects remote memory to
  // be "significantly slower than global memory on most machines".
  TimeNs remote_fetch_ns = 2200;
  TimeNs remote_store_ns = 2100;

  TimeNs Cost(MemoryClass cls, AccessKind kind) const {
    switch (cls) {
      case MemoryClass::kLocal:
        return kind == AccessKind::kFetch ? local_fetch_ns : local_store_ns;
      case MemoryClass::kGlobal:
        return kind == AccessKind::kFetch ? global_fetch_ns : global_store_ns;
      case MemoryClass::kRemote:
        return kind == AccessKind::kFetch ? remote_fetch_ns : remote_store_ns;
    }
    ACE_CHECK_MSG(false, "bad MemoryClass");
  }

  // G/L ratio for a pure-fetch mix, used by the analytic model for fetch-only
  // applications (paper Table 3, footnote 3 uses 2.3 for Gfetch and IMatMult).
  double FetchRatio() const {
    return static_cast<double>(global_fetch_ns) / static_cast<double>(local_fetch_ns);
  }

  // G/L ratio for a mix with the given store fraction. The paper quotes "about 2 times
  // slower for reference mixes that are 45% stores" and uses G/L = 2 for most apps.
  double MixRatio(double store_fraction) const {
    double g = (1.0 - store_fraction) * static_cast<double>(global_fetch_ns) +
               store_fraction * static_cast<double>(global_store_ns);
    double l = (1.0 - store_fraction) * static_cast<double>(local_fetch_ns) +
               store_fraction * static_cast<double>(local_store_ns);
    return g / l;
  }
};

// Costs charged to system time by the VM / NUMA machinery. These model kernel-mode
// work: the paper's Table 4 reports the system-time cost of page movement and
// bookkeeping. Values are calibrated for a late-1980s ~6 MHz processor.
struct KernelCostModel {
  // Trap entry/exit plus machine-independent fault resolution per page fault.
  TimeNs fault_base_ns = 20'000;
  // pmap-level bookkeeping per consistency action (flush/unmap/sync directory work).
  TimeNs consistency_op_ns = 5'000;
  // Per-word costs of page copies and zero-fills are derived from the latency model
  // (a copy is a fetch from the source plus a store to the destination per word), then
  // scaled by this factor; values below 1.0 model block-transfer hardware ("fast
  // page-copying hardware" as the paper's section 3.3 suggests).
  double copy_efficiency = 1.0;
};

struct MachineConfig {
  // "Most of our experience was with ACE prototypes having 4-8 processors" (sec. 2.2).
  // Table 4 uses 7-processor runs, so the default machine has 8 (7 workers + master).
  int num_processors = 8;

  // Page size in bytes. Must be a power of two and a multiple of the word size.
  std::uint32_t page_size = 4096;

  // Global memory (= Mach logical page pool, section 2.3.1) in pages. 16 Mbyte typical
  // board; default is deliberately smaller to keep simulations light — experiments size
  // their own machines.
  std::uint32_t global_pages = 4096;  // 16 Mbyte at 4 KB pages

  // Local memory per processor, in pages: 8 Mbyte per ACE processor module.
  std::uint32_t local_pages_per_proc = 2048;

  LatencyModel latency;
  KernelCostModel kernel;

  // When true, the MMU models the Rosetta restriction of a single virtual address per
  // physical page per processor (paper section 2.1/2.3.1).
  bool rosetta_single_mapping = true;

  std::uint32_t PageShift() const {
    ACE_CHECK(page_size != 0 && (page_size & (page_size - 1)) == 0);
    std::uint32_t shift = 0;
    while ((std::uint32_t{1} << shift) != page_size) {
      ++shift;
    }
    return shift;
  }

  std::uint32_t WordsPerPage() const { return page_size / kWordBytes; }

  void Validate() const {
    ACE_CHECK(num_processors >= 1 && num_processors <= kMaxProcessors);
    ACE_CHECK(page_size >= 64 && (page_size & (page_size - 1)) == 0);
    ACE_CHECK(global_pages > 0);
    ACE_CHECK(local_pages_per_proc > 0);
  }
};

}  // namespace ace

#endif  // SRC_SIM_MACHINE_CONFIG_H_
