// Simulated physical memory: global memory boards plus per-processor local memories.
//
// Frames hold real bytes. Page migration and replication move actual data between
// frames, so a consistency-protocol bug shows up as corrupted application output —
// the test suite relies on this end-to-end property.
//
// Global frames back the Mach logical page pool and are allocated/freed by the VM
// layer; local frames are the NUMA manager's cache resource, allocated per processor.
//
// All slabs live in one anonymous private mapping. The host kernel zero-fills each
// host page on its first touch, as Mach zero-fills a page on its first fault, so a
// machine pays only for the frames its run touches. The mapping is reserved
// inaccessible and each slab is opened read-write, ending flush against one guard
// page: an overrun past the last frame of any slab faults on the spot.

#ifndef SRC_SIM_PHYSICAL_MEMORY_H_
#define SRC_SIM_PHYSICAL_MEMORY_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"
#include "src/sim/frame.h"
#include "src/sim/machine_config.h"

namespace ace {

class FaultInjector;

// Owner of one anonymous private mapping (MAP_NORESERVE), reserved with no access and
// unmapped on destruction. Fails closed: a failed mmap or mprotect is an ACE_CHECK.
class MappedRegion {
 public:
  MappedRegion() = default;
  explicit MappedRegion(std::size_t bytes);
  ~MappedRegion();

  MappedRegion(MappedRegion&& other) noexcept;
  MappedRegion& operator=(MappedRegion&& other) noexcept;
  MappedRegion(const MappedRegion&) = delete;
  MappedRegion& operator=(const MappedRegion&) = delete;

  // Make [offset, offset + bytes) readable and writable; both must be host-page aligned.
  void OpenReadWrite(std::size_t offset, std::size_t bytes);

  std::uint8_t* data() const { return data_; }

 private:
  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

class PhysicalMemory {
 public:
  explicit PhysicalMemory(const MachineConfig& config);

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  // --- Frame allocation ------------------------------------------------------------

  // Global frames are identity-managed by the logical page pool (logical page i is
  // global frame i, paper section 2.3.1), so there is no global allocator here; the
  // pool lives in src/vm.

  // Allocate a frame from processor `proc`'s local memory. Returns an invalid FrameRef
  // if that local memory is exhausted (the caller falls back to global placement).
  // A scheduled kFrameAllocTransient fault (src/inject) fails the allocation the same
  // way, so every caller's exhaustion path is reachable on any machine size.
  FrameRef AllocLocal(ProcId proc);
  void FreeLocal(FrameRef frame);

  // Arm fault injection for AllocLocal. Null (the default) keeps the hot path at a
  // single never-taken branch.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  // Frames still allocatable on `proc` — free-list population capped by the chaos
  // capacity limit below. Zero both when the memory is exhausted and when a drain
  // event shrank the limit under the current allocation.
  std::uint32_t FreeLocalFrames(ProcId proc) const;
  // Frames currently handed out on `proc`, independent of any capacity limit.
  std::uint32_t AllocatedLocalFrames(ProcId proc) const;
  std::uint32_t local_pages_per_proc() const { return local_pages_per_proc_; }
  std::uint32_t global_pages() const { return global_pages_; }

  // Chaos capacity limit (drain-mem events, DESIGN.md section 13): cap `proc`'s
  // usable frame count at `limit` (clamped to the physical capacity). AllocLocal
  // fails while the allocation sits at or above the limit; frames already handed
  // out stay valid — the NumaManager evacuates them. Restoring the full limit ends
  // the drain.
  void SetLocalLimit(ProcId proc, std::uint32_t limit);
  std::uint32_t LocalLimit(ProcId proc) const;

  // --- Data access -----------------------------------------------------------------
  // Inline: ReadWord/WriteWord sit on the per-reference fast path (Machine::FastAccess).

  // Raw bytes of a frame; valid until the memory object is destroyed.
  std::uint8_t* FrameData(FrameRef frame) { return region_.data() + FrameOffset(frame); }
  const std::uint8_t* FrameData(FrameRef frame) const {
    return region_.data() + FrameOffset(frame);
  }

  std::uint32_t ReadWord(FrameRef frame, std::uint32_t offset) const {
    ACE_DCHECK(offset % kWordBytes == 0 && offset < page_size_);
    std::uint32_t value;
    std::memcpy(&value, FrameData(frame) + offset, kWordBytes);
    return value;
  }
  void WriteWord(FrameRef frame, std::uint32_t offset, std::uint32_t value) {
    ACE_DCHECK(offset % kWordBytes == 0 && offset < page_size_);
    std::memcpy(FrameData(frame) + offset, &value, kWordBytes);
  }

  // Copy a whole page between frames. Returns the kernel-time cost of the copy: one
  // fetch from the source plus one store to the destination per 32-bit word, scaled by
  // the configured copy efficiency. (The copying processor is charged by the caller.)
  TimeNs CopyPage(FrameRef src, FrameRef dst, ProcId copier);

  // Zero a frame. Returns the kernel-time cost (one store per word at the target).
  TimeNs ZeroPage(FrameRef frame, ProcId zeroer);

  // Overwrite every byte of `proc`'s local slab with `byte`. Used after a kill-node
  // chaos event: the dead node's frames must never again read as silently-correct
  // data, so a protocol bug that reaches one shows up as loud garbage. No cost — a
  // dead node's memory is not a device anyone pays to touch.
  void PoisonLocal(ProcId proc, std::uint8_t byte);

  std::uint32_t page_size() const { return page_size_; }

 private:
  // Byte offset of a frame in region_: its slab's offset plus index * page_size_.
  std::size_t FrameOffset(FrameRef frame) const {
    ACE_DCHECK(frame.valid());
    std::size_t slab;
    if (frame.is_global()) {
      ACE_DCHECK(frame.index < global_pages_);
      slab = global_offset_;
    } else {
      ACE_DCHECK(frame.node < num_processors_);
      ACE_DCHECK(frame.index < local_pages_per_proc_);
      slab = local_offset_ + static_cast<std::size_t>(frame.node) * local_stride_;
    }
    return slab + static_cast<std::size_t>(frame.index) * page_size_;
  }

  std::uint32_t page_size_;
  std::uint32_t words_per_page_;
  std::uint32_t global_pages_;
  std::uint32_t local_pages_per_proc_;
  int num_processors_;
  LatencyModel latency_;
  double copy_efficiency_;

  // Backing store: the global slab, then one local slab per processor, each followed
  // by a guard page. Local slab p starts at local_offset_ + p * local_stride_.
  MappedRegion region_;
  std::size_t global_offset_ = 0;
  std::size_t local_offset_ = 0;
  std::size_t local_stride_ = 0;

  // Per-processor free lists of local frame indices.
  std::vector<std::vector<std::uint32_t>> local_free_;

  // Per-processor usable-frame cap; local_pages_per_proc_ unless a drain-mem chaos
  // event is active (empty until the first SetLocalLimit keeps chaos-free runs on
  // the exact pre-chaos code path).
  std::vector<std::uint32_t> local_limit_;

  FaultInjector* injector_ = nullptr;
};

}  // namespace ace

#endif  // SRC_SIM_PHYSICAL_MEMORY_H_
