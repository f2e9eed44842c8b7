#include "src/numa/pmap_ace.h"

#include <algorithm>

#include "src/common/check.h"

namespace ace {

PmapAce::PmapAce(const MachineConfig& config, PhysicalMemory* phys, ProcClocks* clocks,
                 MachineStats* stats, IpcBus* bus, NumaPolicy* policy)
    : manager_(config, phys, clocks, stats, bus, policy, this),
      stats_(stats),
      num_processors_(config.num_processors),
      page_mappings_(config.global_pages) {
  mmus_.reserve(static_cast<std::size_t>(config.num_processors));
  for (ProcId p = 0; p < config.num_processors; ++p) {
    mmus_.emplace_back(p, config.latency);
  }
}

PmapHandle PmapAce::CreatePmap() { return next_pmap_++; }

void PmapAce::DestroyPmap(PmapHandle pmap) {
  RemoveRange(pmap, 0, ~VirtPage{0});
}

void PmapAce::Enter(PmapHandle pmap, VirtPage vpage, LogicalPage lp, Protection max_prot,
                    Protection min_prot, ProcId proc) {
  ACE_CHECK(proc >= 0 && proc < num_processors_);
  ACE_CHECK(ProtLeq(min_prot, max_prot));
  calls_.enter++;
  calls_.policy_calls++;

  AccessKind kind = min_prot == Protection::kReadWrite ? AccessKind::kStore : AccessKind::kFetch;
  // The NUMA manager may flush/unmap existing mappings (including ours) while
  // resolving; the directory is updated through the MappingControl callbacks.
  Resolution res = manager_.HandleRequest(lp, kind, proc, max_prot);
  ACE_CHECK(res.frame.valid());
  ACE_CHECK(Allows(res.prot, kind));

  Mmu& target = mmu(proc);
  const MmuEntry* old = target.Find(vpage);
  const LogicalPage old_lp = old == nullptr ? kNoLogicalPage : old->lp;
  Mmu::EnterResult er = target.Enter(vpage, res.frame, res.prot, lp, pmap);
  calls_.mmu_enters++;
  if (er.displaced) {
    // Rosetta allowed only one virtual address per physical page per processor; the
    // displaced virtual page will simply fault again when next touched.
    Unlist(er.displaced_lp, proc, er.displaced_vpage);
  }
  if (old_lp != lp) {
    if (old_lp != kNoLogicalPage) {
      // vpage was remapped to a different logical page (region replaced); forget the
      // stale page-side entry.
      Unlist(old_lp, proc, vpage);
    }
    page_mappings_[lp].push_back(PageMapping{vpage, proc});
  }
}

void PmapAce::Protect(PmapHandle pmap, VirtPage first, VirtPage last, Protection prot) {
  calls_.protect++;
  if (prot == Protection::kNone) {
    Remove(pmap, first, last);
    return;
  }
  for (ProcId p = 0; p < num_processors_; ++p) {
    for (const MmuEntry& e : EntriesOf(p, pmap, first, last)) {
      mmu(p).Downgrade(e.vpage, prot);
    }
  }
}

void PmapAce::Remove(PmapHandle pmap, VirtPage first, VirtPage last) {
  calls_.remove++;
  RemoveRange(pmap, first, last);
}

void PmapAce::RemoveRange(PmapHandle pmap, VirtPage first, VirtPage last) {
  for (ProcId p = 0; p < num_processors_; ++p) {
    for (const MmuEntry& e : EntriesOf(p, pmap, first, last)) {
      Unlist(e.lp, p, e.vpage);
      DropEntry(p, e.vpage);
    }
  }
}

std::vector<MmuEntry> PmapAce::EntriesOf(ProcId proc, PmapHandle pmap, VirtPage first,
                                         VirtPage last) const {
  std::vector<MmuEntry> out;
  mmu(proc).ForEachMapping([&](const MmuEntry& e) {
    if (e.pmap == pmap && e.vpage >= first && e.vpage <= last) {
      out.push_back(e);
    }
  });
  return out;
}

void PmapAce::Unlist(LogicalPage lp, ProcId proc, VirtPage vpage) {
  std::erase_if(page_mappings_[lp], [&](const PageMapping& m) {
    return m.proc == proc && m.vpage == vpage;
  });
}

void PmapAce::RemoveAll(LogicalPage lp) {
  calls_.remove_all++;
  RemoveAllMappings(lp);
}

void PmapAce::DropEntry(ProcId proc, VirtPage vpage) {
  mmu(proc).Remove(vpage);
  calls_.mmu_removes++;
}

void PmapAce::RemoveMappingsOn(LogicalPage lp, ProcId proc) {
  auto& entries = page_mappings_[lp];
  std::erase_if(entries, [&](const PageMapping& m) {
    if (m.proc != proc) {
      return false;
    }
    DropEntry(m.proc, m.vpage);
    return true;
  });
}

void PmapAce::RemoveAllMappings(LogicalPage lp) {
  auto& entries = page_mappings_[lp];
  for (const PageMapping& m : entries) {
    DropEntry(m.proc, m.vpage);
  }
  entries.clear();
}

FreeTag PmapAce::FreePage(LogicalPage lp) {
  calls_.free_page++;
  if (free_listener_ != nullptr) {
    free_listener_(free_listener_ctx_, lp);
  }
  FreeTag tag = next_tag_++;
  pending_free_.emplace(tag, lp);
  return tag;
}

void PmapAce::FreePageSync(FreeTag tag) {
  calls_.free_page_sync++;
  auto it = pending_free_.find(tag);
  ACE_CHECK_MSG(it != pending_free_.end(), "FreePageSync: unknown or already-synced tag");
  LogicalPage lp = it->second;
  pending_free_.erase(it);
  RemoveAllMappings(lp);
  manager_.ResetPage(lp, current_proc_);
}

void PmapAce::ZeroPage(LogicalPage lp) {
  calls_.zero_page++;
  manager_.MarkZeroPending(lp);
}

void PmapAce::CopyPage(LogicalPage src, LogicalPage dst) {
  calls_.copy_page++;
  manager_.CopyLogicalPage(src, dst, current_proc_);
}

void PmapAce::AdvisePlacement(LogicalPage lp, PlacementPragma pragma) {
  calls_.advise++;
  manager_.SetPragma(lp, pragma);
}

}  // namespace ace
