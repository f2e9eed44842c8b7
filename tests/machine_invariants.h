// Whole-machine invariant checker used by unit, integration and property tests.
//
// These are the correctness conditions of the paper's protocol (section 2.3.1):
//   * a logical page is read-only (replicated, all mappings read-only), local-writable
//     (exactly one local copy, on the owner), or global-writable (no local copies);
//   * local memories are a cache over global: read-only replicas are byte-identical
//     to the global copy;
//   * cache resources balance: every allocated local frame is accounted to exactly one
//     logical page;
//   * translation state is consistent with cache state: writable mappings only exist
//     for the owner of a local-writable page or for global-writable pages;
//   * the pmap's mapping directory agrees with itself: every MMU entry (the forward
//     half) is listed exactly once under its logical page (the reverse half), and
//     every listing names a live entry for that page.

#ifndef TESTS_MACHINE_INVARIANTS_H_
#define TESTS_MACHINE_INVARIANTS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/machine/machine.h"

namespace ace {

inline void CheckMachineInvariants(Machine& m) {
  NumaManager& manager = m.numa_manager();
  PhysicalMemory& phys = m.physical_memory();
  const int procs = m.num_processors();
  const std::uint32_t page_size = m.page_size();

  std::vector<std::uint32_t> frames_held(static_cast<std::size_t>(procs), 0);

  for (LogicalPage lp = 0; lp < manager.num_pages(); ++lp) {
    const NumaPageInfo& info = manager.PageInfo(lp);

    // State/owner/copies consistency.
    switch (info.state) {
      case PageState::kReadOnly:
        EXPECT_EQ(info.owner, kNoProc) << "RO page " << lp << " has an owner";
        break;
      case PageState::kLocalWritable:
        ASSERT_NE(info.owner, kNoProc) << "LW page " << lp << " without owner";
        EXPECT_TRUE(info.copies.Contains(info.owner));
        EXPECT_EQ(info.copies.Count(), 1) << "LW page " << lp << " has extra copies";
        break;
      case PageState::kGlobalWritable:
        EXPECT_TRUE(info.copies.Empty()) << "GW page " << lp << " has local copies";
        EXPECT_EQ(info.owner, kNoProc);
        break;
      case PageState::kRemoteHomed:
        ASSERT_NE(info.owner, kNoProc) << "remote-homed page " << lp << " without home";
        EXPECT_TRUE(info.copies.Contains(info.owner));
        EXPECT_EQ(info.copies.Count(), 1) << "remote-homed page " << lp << " extra copies";
        break;
    }

    // copies set matches the local-frame table, and frames are counted.
    for (ProcId p = 0; p < procs; ++p) {
      bool has_copy = info.copies.Contains(p);
      bool has_frame = info.local_frame[static_cast<std::size_t>(p)] != NumaPageInfo::kNoFrame;
      EXPECT_EQ(has_copy, has_frame) << "page " << lp << " proc " << p;
      if (has_frame) {
        frames_held[static_cast<std::size_t>(p)]++;
      }
    }

    // Read-only replicas are identical to the global copy (or all-zero when the lazy
    // zero-fill is still pending).
    if (info.state == PageState::kReadOnly && !info.copies.Empty()) {
      const std::uint8_t* global = phys.FrameData(FrameRef::Global(lp));
      info.copies.ForEach([&](ProcId p) {
        const std::uint8_t* replica = phys.FrameData(
            FrameRef::Local(p, info.local_frame[static_cast<std::size_t>(p)]));
        if (info.zero_pending) {
          for (std::uint32_t i = 0; i < page_size; ++i) {
            ASSERT_EQ(replica[i], 0) << "pending-zero replica not zero, page " << lp;
          }
        } else {
          EXPECT_EQ(std::memcmp(replica, global, page_size), 0)
              << "replica of page " << lp << " on proc " << p << " diverges from global";
        }
      });
    }
  }

  // Frame accounting: allocated local frames == frames held by pages. Uses
  // AllocatedLocalFrames directly (a drain-mem chaos limit caps FreeLocalFrames
  // without changing the number of frames actually held).
  for (ProcId p = 0; p < procs; ++p) {
    std::uint32_t allocated = phys.AllocatedLocalFrames(p);
    EXPECT_EQ(allocated, frames_held[static_cast<std::size_t>(p)])
        << "local frame leak on proc " << p;
  }

  // Mapping directory: forward (MMU entries) and reverse (per-page listings) agree.
  const PmapAce& pmap = m.pmap();
  for (ProcId p = 0; p < procs; ++p) {
    pmap.mmu(p).ForEachMapping([&](const MmuEntry& e) {
      const auto sites = pmap.MappingsOf(e.lp);
      EXPECT_EQ(std::count_if(sites.begin(), sites.end(),
                              [&](const PageMapping& s) {
                                return s.proc == p && s.vpage == e.vpage;
                              }),
                1)
          << "MMU entry proc " << p << " vpage " << e.vpage << " lp " << e.lp
          << " is not listed exactly once under its logical page";
    });
  }
  for (LogicalPage lp = 0; lp < manager.num_pages(); ++lp) {
    for (const PageMapping& s : pmap.MappingsOf(lp)) {
      const MmuEntry* e = pmap.mmu(s.proc).Find(s.vpage);
      ASSERT_NE(e, nullptr) << "page " << lp << " lists a dead site: proc " << s.proc
                            << " vpage " << s.vpage;
      EXPECT_EQ(e->lp, lp) << "page " << lp << " lists proc " << s.proc << " vpage "
                           << s.vpage << ", which maps page " << e->lp;
    }
  }

  // Translation state vs cache state.
  for (ProcId p = 0; p < procs; ++p) {
    pmap.mmu(p).ForEachMapping([&](const MmuEntry& e) {
      const VirtPage vpage = e.vpage;
      const FrameRef frame = e.frame;
      const Protection prot = e.prot;
      EXPECT_NE(prot, Protection::kNone);
      if (frame.is_global()) {
        LogicalPage lp = frame.index;
        EXPECT_EQ(manager.PageInfo(lp).state, PageState::kGlobalWritable)
            << "global mapping of non-GW page " << lp << " at vpage " << vpage;
      } else {
        // Find the page owning this local frame (on the frame's own node: remote
        // mappings point into another processor's local memory).
        LogicalPage owner_page = kNoLogicalPage;
        for (LogicalPage lp = 0; lp < manager.num_pages(); ++lp) {
          if (manager.PageInfo(lp).local_frame[static_cast<std::size_t>(frame.node)] ==
              frame.index) {
            owner_page = lp;
            break;
          }
        }
        ASSERT_NE(owner_page, kNoLogicalPage)
            << "mapping to an unaccounted local frame on node " << frame.node;
        const NumaPageInfo& info = manager.PageInfo(owner_page);
        if (info.state == PageState::kRemoteHomed) {
          // Remote-homed pages may be mapped (read or write) from any processor, but
          // only to the home's frame.
          EXPECT_EQ(frame.node, info.owner)
              << "remote mapping to a non-home frame of page " << owner_page;
        } else {
          EXPECT_EQ(frame.node, p) << "mapping to another processor's local memory";
          if (prot == Protection::kReadWrite) {
            EXPECT_EQ(info.state, PageState::kLocalWritable)
                << "writable mapping of non-LW page " << owner_page;
            EXPECT_EQ(info.owner, p)
                << "writable mapping by non-owner of page " << owner_page;
          }
        }
      }
    });
  }
}

}  // namespace ace

#endif  // TESTS_MACHINE_INVARIANTS_H_
