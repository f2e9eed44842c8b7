// The Mach pmap interface — the machine-dependent/machine-independent VM boundary.
//
// This is the paper's central engineering claim (sections 2.1, 2.3.3): automatic NUMA
// page placement fits entirely behind Mach's pmap interface given three small
// extensions, all present here:
//
//   1. pmap_free_page / pmap_free_page_sync — notify the pmap layer when logical pages
//      are freed, split in two so cleanup can be evaluated lazily;
//   2. a min/max protection pair on pmap_enter — the machine-independent layer states
//      the loosest protection the user may have (max) and the strictest needed to
//      resolve this fault (min), letting the pmap layer provisionally map writable
//      pages read-only so they can be replicated;
//   3. an explicit target-processor argument to pmap_enter — NUMA management needs to
//      know which processor is accessing the page.
//
// Everything above this interface (src/vm) is machine-independent and never names a
// NUMA concept; everything below it (src/numa) is the ACE pmap layer of Figure 2.

#ifndef SRC_VM_PMAP_H_
#define SRC_VM_PMAP_H_

#include <cstdint>

#include "src/common/protection.h"
#include "src/common/types.h"

namespace ace {

// Tag returned by FreePage and consumed by FreePageSync (extension 1).
using FreeTag = std::uint64_t;

// Placement advice for a logical page. The paper proposes (section 4.3) per-region
// pragmas marking memory cacheable (place local) or noncacheable (place global); this
// enum carries that advice from the VM region to the NUMA policy.
enum class PlacementPragma : std::uint8_t {
  kDefault = 0,       // policy decides
  kCacheable = 1,     // application asserts the page should be cached locally
  kNoncacheable = 2,  // application asserts the page is writably shared; go global
};

class PmapSystem {
 public:
  virtual ~PmapSystem() = default;

  virtual PmapHandle CreatePmap() = 0;
  virtual void DestroyPmap(PmapHandle pmap) = 0;

  // Map `vpage` to logical page `lp` in `pmap`, for processor `proc`, with protection
  // at least `min_prot` and at most `max_prot`. May map tighter than max_prot (to
  // drive replication) but never looser, and never tighter than min_prot.
  virtual void Enter(PmapHandle pmap, VirtPage vpage, LogicalPage lp, Protection max_prot,
                     Protection min_prot, ProcId proc) = 0;

  // Clamp protection on all resident pages in [first, last] of `pmap`.
  virtual void Protect(PmapHandle pmap, VirtPage first, VirtPage last, Protection prot) = 0;

  // Drop all mappings in [first, last] of `pmap`.
  virtual void Remove(PmapHandle pmap, VirtPage first, VirtPage last) = 0;

  // Drop every mapping of logical page `lp` from all pmaps (pmap_remove_all).
  virtual void RemoveAll(LogicalPage lp) = 0;

  // Extension 1: start lazy cleanup of a freed logical page; the returned tag is later
  // passed to FreePageSync, which completes the cleanup before the frame is reused.
  virtual FreeTag FreePage(LogicalPage lp) = 0;
  virtual void FreePageSync(FreeTag tag) = 0;

  // Logical page content operations. ZeroPage is lazily evaluated: "since the
  // processor using the page is not known until pmap_enter time, we lazy evaluate the
  // zero-filling of the page to avoid writing zeros into global memory and immediately
  // copying them" (section 2.3.1).
  virtual void ZeroPage(LogicalPage lp) = 0;
  virtual void CopyPage(LogicalPage src, LogicalPage dst) = 0;

  // Placement advice (section 4.3 pragmas; our extension is per logical page, set by
  // the fault handler from the faulting region's pragma before Enter).
  virtual void AdvisePlacement(LogicalPage lp, PlacementPragma pragma) = 0;
};

}  // namespace ace

#endif  // SRC_VM_PMAP_H_
