// The ACE pmap layer (paper Figure 2).
//
// Four modules make up the machine-dependent layer:
//   pmap manager   — this class: exports the pmap interface to the machine-independent
//                    VM, translates pmap operations into MMU operations, and
//                    coordinates the other modules;
//   MMU interface  — src/mmu (the Rosetta model), driven only from here;
//   NUMA manager   — src/numa/numa_manager, keeps local-memory caches consistent;
//   NUMA policy    — src/numa/policies, decides LOCAL vs GLOBAL per request.
//
// The pmap manager also owns the mapping directory. Its forward half is the MMUs
// themselves: each live MmuEntry carries the pmap and logical page that entered it.
// Its reverse half, page_mappings_, lists the (processor, virtual page) sites of each
// logical page, exactly one per live MMU entry. The NUMA manager asks the pmap to drop
// mappings through the MappingControl interface when flushing or unmapping.

#ifndef SRC_NUMA_PMAP_ACE_H_
#define SRC_NUMA_PMAP_ACE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/check.h"
#include "src/common/protection.h"
#include "src/common/types.h"
#include "src/mmu/mmu.h"
#include "src/numa/numa_manager.h"
#include "src/numa/policy.h"
#include "src/sim/bus.h"
#include "src/sim/clocks.h"
#include "src/sim/machine_config.h"
#include "src/sim/physical_memory.h"
#include "src/sim/stats.h"
#include "src/vm/pmap.h"

namespace ace {

// Per-operation call counters, used by the Figure 2 reproduction bench to show the
// layering at work.
struct PmapCallCounts {
  std::uint64_t enter = 0;
  std::uint64_t protect = 0;
  std::uint64_t remove = 0;
  std::uint64_t remove_all = 0;
  std::uint64_t free_page = 0;
  std::uint64_t free_page_sync = 0;
  std::uint64_t zero_page = 0;
  std::uint64_t copy_page = 0;
  std::uint64_t advise = 0;
  std::uint64_t policy_calls = 0;   // cache_policy invocations (via NUMA manager)
  std::uint64_t mmu_enters = 0;
  std::uint64_t mmu_removes = 0;
};

// One site that maps a logical page: `proc`'s MMU holds an entry for it at `vpage`.
struct PageMapping {
  VirtPage vpage = 0;
  ProcId proc = kNoProc;
};

class PmapAce : public PmapSystem, public MappingControl {
 public:
  PmapAce(const MachineConfig& config, PhysicalMemory* phys, ProcClocks* clocks,
          MachineStats* stats, IpcBus* bus, NumaPolicy* policy);

  PmapAce(const PmapAce&) = delete;
  PmapAce& operator=(const PmapAce&) = delete;

  // --- PmapSystem ------------------------------------------------------------------
  PmapHandle CreatePmap() override;
  void DestroyPmap(PmapHandle pmap) override;
  void Enter(PmapHandle pmap, VirtPage vpage, LogicalPage lp, Protection max_prot,
             Protection min_prot, ProcId proc) override;
  void Protect(PmapHandle pmap, VirtPage first, VirtPage last, Protection prot) override;
  void Remove(PmapHandle pmap, VirtPage first, VirtPage last) override;
  void RemoveAll(LogicalPage lp) override;
  FreeTag FreePage(LogicalPage lp) override;
  void FreePageSync(FreeTag tag) override;
  void ZeroPage(LogicalPage lp) override;
  void CopyPage(LogicalPage src, LogicalPage dst) override;
  void AdvisePlacement(LogicalPage lp, PlacementPragma pragma) override;

  // --- MappingControl (called by the NUMA manager) -----------------------------------
  void RemoveMappingsOn(LogicalPage lp, ProcId proc) override;
  void RemoveAllMappings(LogicalPage lp) override;

  // --- simulation access ---------------------------------------------------------------
  NumaManager& manager() { return manager_; }
  const NumaManager& manager() const { return manager_; }

  // `proc`'s MMU: the hardware translation a reference uses, and the forward half of
  // the mapping directory.
  Mmu& mmu(ProcId proc) {
    ACE_DCHECK(proc >= 0 && proc < num_processors_);
    return mmus_[static_cast<std::size_t>(proc)];
  }
  const Mmu& mmu(ProcId proc) const {
    ACE_DCHECK(proc >= 0 && proc < num_processors_);
    return mmus_[static_cast<std::size_t>(proc)];
  }

  // The reverse half of the mapping directory: every site whose MMU maps `lp`, one per
  // live entry (no MMU interaction, no clock charges). Empty for an `lp` out of range,
  // so a corrupt logical page never reads past the table.
  std::span<const PageMapping> MappingsOf(LogicalPage lp) const {
    if (lp >= page_mappings_.size()) {
      return {};
    }
    return page_mappings_[lp];
  }

  // Processor charged for VM-initiated work (free sync, page copies); set by the
  // machine before entering VM code on behalf of a processor.
  void SetCurrentProc(ProcId proc) { current_proc_ = proc; }

  const PmapCallCounts& call_counts() const { return calls_; }

  // Number of lazily-pending freed pages (visible for tests).
  std::size_t pending_free_count() const { return pending_free_.size(); }

  // Whether any processor currently maps `lp` — the pageout daemon's "reference bit"
  // proxy (mappings are dropped and a page that faults them back in is referenced).
  bool HasMappings(LogicalPage lp) const { return !MappingsOf(lp).empty(); }

  // Invoked when a logical page's lazy free begins (used by the pager to invalidate
  // residence records).
  using FreeListener = void (*)(void* ctx, LogicalPage lp);
  void SetFreeListener(FreeListener listener, void* ctx) {
    free_listener_ = listener;
    free_listener_ctx_ = ctx;
  }

 private:
  // Removes `pmap`'s mappings of [first, last] from every MMU and the reverse listing.
  void RemoveRange(PmapHandle pmap, VirtPage first, VirtPage last);
  // The entries `pmap` holds on `proc` within [first, last], copied out so the caller
  // can mutate the MMU afterwards.
  std::vector<MmuEntry> EntriesOf(ProcId proc, PmapHandle pmap, VirtPage first,
                                  VirtPage last) const;
  // Removes (proc, vpage) from `lp`'s reverse listing.
  void Unlist(LogicalPage lp, ProcId proc, VirtPage vpage);
  void DropEntry(ProcId proc, VirtPage vpage);

  std::vector<Mmu> mmus_;
  NumaManager manager_;
  MachineStats* stats_;
  int num_processors_;

  PmapHandle next_pmap_ = 1;
  FreeTag next_tag_ = 1;
  ProcId current_proc_ = 0;

  // Reverse directory: per logical page, the sites that map it.
  std::vector<std::vector<PageMapping>> page_mappings_;

  std::unordered_map<FreeTag, LogicalPage> pending_free_;

  FreeListener free_listener_ = nullptr;
  void* free_listener_ctx_ = nullptr;

  PmapCallCounts calls_;
};

}  // namespace ace

#endif  // SRC_NUMA_PMAP_ACE_H_
