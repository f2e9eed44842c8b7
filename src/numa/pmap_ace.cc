#include "src/numa/pmap_ace.h"

#include <algorithm>

#include "src/common/check.h"

namespace ace {

PmapAce::PmapAce(const MachineConfig& config, PhysicalMemory* phys, ProcClocks* clocks,
                 MachineStats* stats, IpcBus* bus, NumaPolicy* policy)
    : mmus_(config.num_processors, config.rosetta_single_mapping, config.latency),
      manager_(config, phys, clocks, stats, bus, policy, this),
      stats_(stats),
      num_processors_(config.num_processors),
      proc_vmap_(static_cast<std::size_t>(config.num_processors)),
      page_mappings_(config.global_pages) {}

PmapHandle PmapAce::CreatePmap() { return next_pmap_++; }

void PmapAce::DestroyPmap(PmapHandle pmap) {
  for (ProcId p = 0; p < num_processors_; ++p) {
    auto& vmap = proc_vmap_[static_cast<std::size_t>(p)];
    for (auto it = vmap.begin(); it != vmap.end();) {
      if (it->second.pmap == pmap) {
        mmus_.At(p).Remove(it->first);
        calls_.mmu_removes++;
        // Drop the page-side entry.
        auto& entries = page_mappings_[it->second.lp];
        std::erase_if(entries, [&](const PageEntry& e) {
          return e.proc == p && e.vpage == it->first;
        });
        it = vmap.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void PmapAce::ForgetDirectoryEntry(ProcId proc, VirtPage vpage) {
  auto& vmap = proc_vmap_[static_cast<std::size_t>(proc)];
  auto it = vmap.find(vpage);
  if (it == vmap.end()) {
    return;
  }
  auto& entries = page_mappings_[it->second.lp];
  std::erase_if(entries,
                [&](const PageEntry& e) { return e.proc == proc && e.vpage == vpage; });
  vmap.erase(it);
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

  Mmu::EnterResult er = mmus_.At(proc).Enter(vpage, res.frame, res.prot, lp);
  calls_.mmu_enters++;
  if (er.displaced) {
    // Rosetta allowed only one virtual address per physical page per processor; the
    // displaced virtual page will simply fault again when next touched.
    ForgetDirectoryEntry(proc, er.displaced_vpage);
  }

  auto& vmap = proc_vmap_[static_cast<std::size_t>(proc)];
  auto it = vmap.find(vpage);
  if (it != vmap.end()) {
    if (it->second.lp != lp) {
      // vpage was remapped to a different logical page (region replaced); forget the
      // stale page-side entry.
      auto& old_entries = page_mappings_[it->second.lp];
      std::erase_if(old_entries,
                    [&](const PageEntry& e) { return e.proc == proc && e.vpage == vpage; });
      it->second.lp = lp;
      page_mappings_[lp].push_back(PageEntry{vpage, proc, pmap});
    }
    it->second.pmap = pmap;
  } else {
    vmap.emplace(vpage, VEntry{pmap, lp});
    page_mappings_[lp].push_back(PageEntry{vpage, proc, pmap});
  }
}

void PmapAce::Protect(PmapHandle pmap, VirtPage first, VirtPage last, Protection prot) {
  calls_.protect++;
  if (prot == Protection::kNone) {
    Remove(pmap, first, last);
    return;
  }
  for (ProcId p = 0; p < num_processors_; ++p) {
    for (const auto& [vpage, entry] : proc_vmap_[static_cast<std::size_t>(p)]) {
      if (entry.pmap == pmap && vpage >= first && vpage <= last) {
        mmus_.At(p).Downgrade(vpage, prot);
      }
    }
  }
}

void PmapAce::Remove(PmapHandle pmap, VirtPage first, VirtPage last) {
  calls_.remove++;
  for (ProcId p = 0; p < num_processors_; ++p) {
    auto& vmap = proc_vmap_[static_cast<std::size_t>(p)];
    for (auto it = vmap.begin(); it != vmap.end();) {
      if (it->second.pmap == pmap && it->first >= first && it->first <= last) {
        mmus_.At(p).Remove(it->first);
        calls_.mmu_removes++;
        auto& entries = page_mappings_[it->second.lp];
        std::erase_if(entries,
                      [&](const PageEntry& e) { return e.proc == p && e.vpage == it->first; });
        it = vmap.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void PmapAce::RemoveAll(LogicalPage lp) {
  calls_.remove_all++;
  RemoveAllMappings(lp);
}

void PmapAce::DropEntry(LogicalPage lp, ProcId proc, VirtPage vpage) {
  mmus_.At(proc).Remove(vpage);
  calls_.mmu_removes++;
  proc_vmap_[static_cast<std::size_t>(proc)].erase(vpage);
  (void)lp;
}

void PmapAce::RemoveMappingsOn(LogicalPage lp, ProcId proc) {
  auto& entries = page_mappings_[lp];
  std::erase_if(entries, [&](const PageEntry& e) {
    if (e.proc != proc) {
      return false;
    }
    DropEntry(lp, e.proc, e.vpage);
    return true;
  });
}

void PmapAce::RemoveAllMappings(LogicalPage lp) {
  auto& entries = page_mappings_[lp];
  for (const PageEntry& e : entries) {
    DropEntry(lp, e.proc, e.vpage);
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
