// Software model of the per-processor Rosetta-C memory management unit.
//
// Each processor has its own translation state: virtual page -> (physical frame,
// protection). Two properties of the real hardware matter to the paper's design and
// are modeled here:
//
//  * Mappings may be dropped, or their permissions reduced, at almost any time; the
//    resulting faults are resolved by the machine-independent VM layer re-entering the
//    mapping (paper section 2.1). This is the engine behind the consistency protocol.
//
//  * Rosetta allows only a single virtual address per physical page per processor
//    (sections 2.1, 2.3.1). When enabled, entering a second virtual mapping for a
//    frame silently displaces the first, producing a later refault.
//
// The translation state is a flat open-addressed table per processor, indexed by
// `vpage & mask` with linear probing, so an uncollided lookup is one load and one tag
// compare. Each entry also carries what the reference path derives from the mapping
// — logical page, memory class and per-kind cost — filled once at Enter. The machine's
// fast path (Machine::FastAccess) probes this table directly: there is no second
// translation cache to keep coherent, and every protocol invalidation is simply the
// MMU mutation that drops or tightens the entry.

#ifndef SRC_MMU_MMU_H_
#define SRC_MMU_MMU_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/protection.h"
#include "src/common/types.h"
#include "src/sim/frame.h"
#include "src/sim/machine_config.h"

namespace ace {

enum class FaultKind : std::uint8_t {
  kNone = 0,
  kNoMapping = 1,   // no translation for the virtual page
  kProtection = 2,  // translation present but permission insufficient
};

struct TranslateResult {
  FaultKind fault = FaultKind::kNoMapping;
  FrameRef frame;
  Protection prot = Protection::kNone;

  bool ok() const { return fault == FaultKind::kNone; }
};

// One live translation. `cls` and the two costs are derived from `frame` and the
// latency model at Enter; `lp` is the logical page the pmap entered (kNoLogicalPage
// when the caller did not say). A frame change is always a new Enter, so the derived
// fields can never disagree with the frame while the entry is live.
struct MmuEntry {
  VirtPage vpage = 0;
  FrameRef frame;
  LogicalPage lp = kNoLogicalPage;
  Protection prot = Protection::kNone;
  MemoryClass cls = MemoryClass::kGlobal;
  TimeNs cost_fetch = 0;
  TimeNs cost_store = 0;

  TimeNs Cost(AccessKind kind) const {
    return kind == AccessKind::kFetch ? cost_fetch : cost_store;
  }
};

// One processor's MMU.
class Mmu {
 public:
  // Never a real virtual page (tasks place regions far below 2^64 - 1): marks a free
  // slot.
  static constexpr VirtPage kEmptySlot = ~VirtPage{0};
  static constexpr std::size_t kInitialSlots = 1024;

  explicit Mmu(ProcId proc, bool rosetta_single_mapping,
               const LatencyModel& latency = LatencyModel{})
      : proc_(proc),
        rosetta_single_mapping_(rosetta_single_mapping),
        latency_(latency),
        mask_(kInitialSlots - 1),
        slots_(kInitialSlots, EmptyEntry()) {}

  ProcId proc() const { return proc_; }

  // The live entry for `vpage`, or nullptr. No side effects; the pointer is valid until
  // the next mutation of this MMU.
  const MmuEntry* Find(VirtPage vpage) const {
    std::size_t i = static_cast<std::size_t>(vpage) & mask_;
    for (;;) {
      const MmuEntry& e = slots_[i];
      if (e.vpage == vpage) {
        return &e;
      }
      if (e.vpage == kEmptySlot) {
        return nullptr;
      }
      i = (i + 1) & mask_;
    }
  }

  // Translate an access; no side effects on success. On a fault the caller invokes the
  // VM fault handler and retries.
  TranslateResult Translate(VirtPage vpage, AccessKind kind) const {
    const MmuEntry* e = Find(vpage);
    if (e == nullptr) {
      return TranslateResult{FaultKind::kNoMapping, FrameRef::Invalid(), Protection::kNone};
    }
    if (!Allows(e->prot, kind)) {
      return TranslateResult{FaultKind::kProtection, e->frame, e->prot};
    }
    return TranslateResult{FaultKind::kNone, e->frame, e->prot};
  }

  // Install (or replace) a mapping. Returns the virtual page whose mapping was
  // displaced by the Rosetta single-mapping restriction, or no value.
  // The displaced page will fault again on next touch, exactly like the RT/PC
  // behaviour the paper leans on.
  struct EnterResult {
    bool displaced = false;
    VirtPage displaced_vpage = 0;
  };
  EnterResult Enter(VirtPage vpage, FrameRef frame, Protection prot,
                    LogicalPage lp = kNoLogicalPage) {
    ACE_CHECK(frame.valid());
    ACE_CHECK(prot != Protection::kNone);
    ACE_CHECK(vpage != kEmptySlot);
    EnterResult result;
    if (rosetta_single_mapping_) {
      auto rit = frame_to_vpage_.find(frame);
      if (rit != frame_to_vpage_.end() && rit->second != vpage) {
        result.displaced = true;
        result.displaced_vpage = rit->second;
        Erase(FindSlot(rit->second));
        frame_to_vpage_.erase(rit);
      }
    }
    MmuEntry* e = FindSlot(vpage);
    if (e->vpage == vpage) {
      // Replacing vpage's previous mapping (possibly to a different frame) is fine;
      // drop the stale reverse entry if any.
      invalidations_++;
      if (!(e->frame == frame)) {
        auto rit = frame_to_vpage_.find(e->frame);
        if (rit != frame_to_vpage_.end() && rit->second == vpage) {
          frame_to_vpage_.erase(rit);
        }
      }
    } else {
      if (2 * (count_ + 1) > slots_.size()) {
        Grow();
        e = FindSlot(vpage);
      }
      count_++;
    }
    e->vpage = vpage;
    e->frame = frame;
    e->lp = lp;
    e->prot = prot;
    e->cls = frame.ClassFor(proc_);
    e->cost_fetch = latency_.Cost(e->cls, AccessKind::kFetch);
    e->cost_store = latency_.Cost(e->cls, AccessKind::kStore);
    if (rosetta_single_mapping_) {
      frame_to_vpage_[frame] = vpage;
    }
    return result;
  }

  // Drop a mapping if present. Returns true if a mapping existed.
  bool Remove(VirtPage vpage) {
    MmuEntry* e = FindSlot(vpage);
    if (e->vpage != vpage) {
      return false;
    }
    if (rosetta_single_mapping_) {
      auto rit = frame_to_vpage_.find(e->frame);
      if (rit != frame_to_vpage_.end() && rit->second == vpage) {
        frame_to_vpage_.erase(rit);
      }
    }
    Erase(e);
    return true;
  }

  // Reduce the protection on an existing mapping (no-op if absent or already at most
  // `prot`). Tightening only: the MMU never silently grants more access.
  void Downgrade(VirtPage vpage, Protection prot) {
    MmuEntry* e = FindSlot(vpage);
    if (e->vpage != vpage) {
      return;
    }
    if (!ProtLeq(e->prot, prot)) {
      invalidations_++;
      e->prot = prot;
    }
  }

  bool HasMapping(VirtPage vpage) const { return Find(vpage) != nullptr; }

  std::size_t MappingCount() const { return count_; }

  // Visit every mapping as fn(vpage, frame, prot); used by invariant checkers.
  template <typename Fn>
  void ForEachMapping(Fn&& fn) const {
    for (const MmuEntry& e : slots_) {
      if (e.vpage != kEmptySlot) {
        fn(e.vpage, e.frame, e.prot);
      }
    }
  }

  void RemoveAll() {
    invalidations_ += count_;
    for (MmuEntry& e : slots_) {
      e.vpage = kEmptySlot;
    }
    count_ = 0;
    frame_to_vpage_.clear();
  }

  // Per-page invalidations so far: each Enter over a live mapping, displacement,
  // Remove of a live mapping, tightening Downgrade, and mapping dropped by RemoveAll.
  std::uint64_t invalidations() const { return invalidations_; }

 private:
  static MmuEntry EmptyEntry() {
    MmuEntry e;
    e.vpage = kEmptySlot;
    return e;
  }

  // The slot holding `vpage`, or the empty slot that ends its probe sequence.
  MmuEntry* FindSlot(VirtPage vpage) {
    std::size_t i = static_cast<std::size_t>(vpage) & mask_;
    while (slots_[i].vpage != vpage && slots_[i].vpage != kEmptySlot) {
      i = (i + 1) & mask_;
    }
    return &slots_[i];
  }

  // Remove the live entry `e` by backward-shift deletion, so probe sequences never
  // need tombstones.
  void Erase(MmuEntry* e) {
    ACE_DCHECK(e->vpage != kEmptySlot);
    std::size_t hole = static_cast<std::size_t>(e - slots_.data());
    for (std::size_t j = (hole + 1) & mask_; slots_[j].vpage != kEmptySlot;
         j = (j + 1) & mask_) {
      // An entry may fill the hole only if its home slot does not lie cyclically in
      // (hole, j] — otherwise moving it would break its own probe sequence.
      const std::size_t home = static_cast<std::size_t>(slots_[j].vpage) & mask_;
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].vpage = kEmptySlot;
    count_--;
    invalidations_++;
  }

  void Grow() {
    std::vector<MmuEntry> old =
        std::exchange(slots_, std::vector<MmuEntry>(slots_.size() * 2, EmptyEntry()));
    mask_ = slots_.size() - 1;
    for (const MmuEntry& e : old) {
      if (e.vpage != kEmptySlot) {
        *FindSlot(e.vpage) = e;
      }
    }
  }

  ProcId proc_;
  bool rosetta_single_mapping_;
  LatencyModel latency_;
  std::size_t mask_;
  std::size_t count_ = 0;
  std::uint64_t invalidations_ = 0;
  std::vector<MmuEntry> slots_;
  std::unordered_map<FrameRef, VirtPage, FrameRefHash> frame_to_vpage_;
};

// The set of MMUs in the machine, one per processor.
class MmuArray {
 public:
  MmuArray(int num_processors, bool rosetta_single_mapping,
           const LatencyModel& latency = LatencyModel{}) {
    mmus_.reserve(static_cast<std::size_t>(num_processors));
    for (int p = 0; p < num_processors; ++p) {
      mmus_.emplace_back(static_cast<ProcId>(p), rosetta_single_mapping, latency);
    }
  }

  Mmu& At(ProcId proc) {
    ACE_DCHECK(proc >= 0 && proc < static_cast<ProcId>(mmus_.size()));
    return mmus_[static_cast<std::size_t>(proc)];
  }
  const Mmu& At(ProcId proc) const {
    ACE_DCHECK(proc >= 0 && proc < static_cast<ProcId>(mmus_.size()));
    return mmus_[static_cast<std::size_t>(proc)];
  }

  int num_processors() const { return static_cast<int>(mmus_.size()); }

 private:
  std::vector<Mmu> mmus_;
};

}  // namespace ace

#endif  // SRC_MMU_MMU_H_
