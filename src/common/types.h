// Core scalar types shared by every module of the ACE NUMA reproduction.
//
// The simulated machine follows the IBM ACE multiprocessor workstation described in
// Bolosky, Fitzgerald & Scott, "Simple But Effective Techniques for NUMA Memory
// Management" (SOSP '89), section 2.2: up to 16 ROMP-C processors, each with a private
// local memory, plus shared global memory reachable over the IPC bus.

#ifndef SRC_COMMON_TYPES_H_
#define SRC_COMMON_TYPES_H_

#include <cstdint>
#include <cstddef>

namespace ace {

// Simulated time, in nanoseconds. All clocks in the system (per-processor user and
// system time, bus busy time) are expressed in TimeNs. The paper measured times with a
// 50 Hz tick; our virtual clocks are exact.
using TimeNs = std::int64_t;

// A virtual address within a task's address space.
using VirtAddr = std::uint64_t;

// A virtual page number (VirtAddr >> page_shift).
using VirtPage = std::uint64_t;

// Index of a logical page. Mach's machine-independent physical page pool is called
// "logical memory" in the paper; each logical page corresponds to exactly one page of
// ACE global memory and may additionally be cached in at most one local page per
// processor (paper section 2.3.1).
using LogicalPage = std::uint32_t;

inline constexpr LogicalPage kNoLogicalPage = ~LogicalPage{0};

// Opaque identifier of one task's physical map (src/vm/pmap.h). The MMU tags each
// translation with the pmap that entered it.
using PmapHandle = std::uint32_t;
inline constexpr PmapHandle kNoPmap = ~PmapHandle{0};

// Processor identifier, 0-based. kNoProc marks "no processor" (e.g. a page with no
// local-writable owner).
using ProcId = std::int32_t;

inline constexpr ProcId kNoProc = -1;

// The IPC bus was designed for at most 16 processors (paper section 2.2).
inline constexpr int kMaxProcessors = 16;

// Memory access width used throughout: the ACE is a 32-bit machine and the paper's
// latency model is per 32-bit fetch/store.
inline constexpr std::size_t kWordBytes = 4;

// Whether a memory access reads or writes.
enum class AccessKind : std::uint8_t {
  kFetch = 0,
  kStore = 1,
};

// Where a page (or an individual reference) is served from.
enum class MemoryClass : std::uint8_t {
  kLocal = 0,   // the accessing processor's own local memory
  kGlobal = 1,  // shared global memory on the IPC bus
  kRemote = 2,  // another processor's local memory (supported by the ACE but unused by
                // the paper's system, see section 4.4; modeled for the extension bench)
};

}  // namespace ace

#endif  // SRC_COMMON_TYPES_H_
