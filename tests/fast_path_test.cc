// Reference fast-path tests: Machine::FastAccess probing the per-processor MMU table
// (src/mmu/mmu.h) and the `tlb` counter group it keeps (src/machine/tlb.h).
//
// Three layers of guarantee are frozen here:
//   1. Probe mechanics — every reference is one probe that hits or misses, a miss
//      is a real fault, and each processor's translations are its own.
//   2. Invalidation completeness — every PageState transition the NUMA protocol can
//      perform (ownership move, replication invalidate, CoW shadow break, pageout
//      round-trip, task teardown, region unmap) leaves no usable stale entry: each
//      scenario drives the transition through the real machine, inspects the MMU
//      entry directly, and checks that the next access faults.
//   3. Poison mode — an entry whose derived fields disagree with the pmap directory
//      must die on ACE_CHECK at its next hit, proving the verify cross-check would
//      catch any future path that mutates the MMU behind the pmap's back.

#include <gtest/gtest.h>

#include <memory>

#include "src/machine/machine.h"
#include "src/obs/snapshot.h"
#include "tests/machine_invariants.h"

namespace ace {
namespace {

Machine::Options SmallMachine(int procs = 3) {
  Machine::Options mo;
  mo.config.num_processors = procs;
  mo.config.global_pages = 32;
  mo.config.local_pages_per_proc = 16;
  return mo;
}

VirtPage PageOf(const Machine& m, VirtAddr va) { return va / m.page_size(); }

const MmuEntry* EntryOf(Machine& m, ProcId proc, VirtAddr va) {
  return m.pmap().mmu(proc).Find(PageOf(m, va));
}

// --- probe mechanics ----------------------------------------------------------------

TEST(TlbCache, MissFillThenHit) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("page", m.page_size());

  (void)m.LoadWord(*t, 0, va);  // cold: miss, fault, Enter
  const TlbStats s = m.tlb_stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_GE(m.stats().page_faults, 1u);
  std::uint64_t hits_before = s.hits;
  (void)m.LoadWord(*t, 0, va + 4);  // same page: pure hit
  (void)m.LoadWord(*t, 0, va + 8);
  EXPECT_EQ(m.tlb_stats().hits, hits_before + 2);
  EXPECT_EQ(m.tlb_stats().misses, 1u);
}

TEST(TlbCache, ReadOnlyEntryMissesOnStoreThenUpgrades) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("page", m.page_size());
  (void)m.LoadWord(*t, 1, va);  // read-only replica on proc 1
  ASSERT_NE(EntryOf(m, 1, va), nullptr);
  EXPECT_EQ(EntryOf(m, 1, va)->prot, Protection::kRead);

  std::uint64_t misses_before = m.tlb_stats().misses;
  std::uint64_t faults_before = m.stats().page_faults;
  m.StoreWord(*t, 1, va, 42);  // write needs an upgrade: protection miss, then fault
  EXPECT_EQ(m.tlb_stats().misses, misses_before + 1);
  EXPECT_GT(m.stats().page_faults, faults_before);
  EXPECT_EQ(EntryOf(m, 1, va)->prot, Protection::kReadWrite);
  EXPECT_EQ(m.LoadWord(*t, 1, va), 42u);
}

TEST(TlbCache, PerProcessorEntriesAreIndependent) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("page", m.page_size());
  (void)m.LoadWord(*t, 0, va);
  (void)m.LoadWord(*t, 1, va);
  EXPECT_NE(EntryOf(m, 0, va), nullptr);
  EXPECT_NE(EntryOf(m, 1, va), nullptr);
  EXPECT_EQ(EntryOf(m, 2, va), nullptr);
}

// Every reference is exactly one probe, every miss faults, and each hit's entry
// carries the pmap's logical page and the class its frame implies.
TEST(TlbCache, EveryMissIsAFault) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr region = t->MapAnonymous("pages", 4 * m.page_size());
  for (int i = 0; i < 200; ++i) {
    ProcId p = static_cast<ProcId>(i % 3);
    VirtAddr va = region + static_cast<VirtAddr>((i * 7) % 4) * m.page_size();
    if (i % 5 == 0) {
      m.StoreWord(*t, p, va, static_cast<std::uint32_t>(i));
    } else {
      (void)m.LoadWord(*t, p, va);
    }
  }
  const TlbStats s = m.tlb_stats();
  EXPECT_EQ(s.hits + s.misses, m.stats().TotalRefs().Total());
  EXPECT_LE(s.misses, m.stats().page_faults);
  EXPECT_GT(s.hits, 0u);
  for (ProcId p = 0; p < 3; ++p) {
    for (int page = 0; page < 4; ++page) {
      VirtAddr va = region + static_cast<VirtAddr>(page) * m.page_size();
      if (const MmuEntry* e = EntryOf(m, p, va)) {
        EXPECT_EQ(e->lp, m.DebugLogicalPage(*t, va));
        EXPECT_EQ(e->cls, e->frame.ClassFor(p));
      }
    }
  }
}

// --- batched run-length accounting --------------------------------------------------

TEST(TlbBatching, RunsCommitExactPerReferenceTotals) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("page", m.page_size());

  for (int i = 0; i < 64; ++i) {
    (void)m.LoadWord(*t, 0, va + static_cast<VirtAddr>(4 * (i % 16)));
  }
  // stats() flushes any open run before returning.
  const MachineStats& s = m.stats();
  EXPECT_EQ(s.refs[0].fetch_local + s.refs[0].fetch_global + s.refs[0].fetch_remote, 64u);
  EXPECT_GT(m.tlb_stats().batched_refs, 0u);
  EXPECT_GT(m.tlb_stats().run_flushes, 0u);
  CheckMachineInvariants(m);
}

TEST(TlbBatching, ComputeFlushesTheOpenRun) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("page", m.page_size());
  (void)m.LoadWord(*t, 0, va);
  std::uint64_t batched_before = m.tlb_stats().batched_refs;
  (void)m.LoadWord(*t, 0, va + 4);  // opens a run (the first ref took the slow path)
  m.Compute(0, 1000);               // must commit it before charging compute time
  EXPECT_GE(m.tlb_stats().batched_refs, batched_before + 1);
}

// --- invalidation on every protocol transition --------------------------------------

TEST(TlbShootdown, OwnershipMoveInvalidatesOldOwner) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("page", m.page_size());
  m.StoreWord(*t, 0, va, 7);  // proc 0 owns local-writable
  ASSERT_NE(EntryOf(m, 0, va), nullptr);
  ASSERT_EQ(EntryOf(m, 0, va)->cls, MemoryClass::kLocal);

  m.StoreWord(*t, 1, va, 8);  // sync + flush + move to proc 1
  EXPECT_EQ(EntryOf(m, 0, va), nullptr);
  std::uint64_t faults_before = m.stats().page_faults;
  EXPECT_EQ(m.LoadWord(*t, 0, va), 8u);  // refault resolves the new location
  EXPECT_GT(m.stats().page_faults, faults_before);
  CheckMachineInvariants(m);
}

TEST(TlbShootdown, WriteInvalidatesEveryReadReplica) {
  Machine m(SmallMachine(/*procs=*/4));
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("page", m.page_size());
  m.StoreWord(*t, 0, va, 7);
  for (ProcId p = 1; p < 4; ++p) {
    (void)m.LoadWord(*t, p, va);  // replicate everywhere
  }
  m.StoreWord(*t, 2, va, 9);  // invalidates all other copies
  for (ProcId p = 0; p < 4; ++p) {
    if (p != 2) {
      EXPECT_EQ(EntryOf(m, p, va), nullptr) << "proc " << p;
    }
  }
  for (ProcId p = 0; p < 4; ++p) {
    std::uint64_t faults_before = m.stats().page_faults;
    EXPECT_EQ(m.LoadWord(*t, p, va), 9u);
    if (p != 2) {
      EXPECT_GT(m.stats().page_faults, faults_before) << "proc " << p;
    }
  }
  CheckMachineInvariants(m);
}

TEST(TlbShootdown, CowShadowBreakInvalidatesReaders) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr original = t->MapAnonymous("orig", m.page_size());
  m.StoreWord(*t, 0, original, 100);
  const Region* r = t->FindRegion(original);
  VirtAddr copy = t->MapCopy("copy", r->object, 0, m.page_size());

  (void)m.LoadWord(*t, 1, copy);  // reads share the backing page
  const LogicalPage shared = EntryOf(m, 1, copy)->lp;
  m.StoreWord(*t, 1, copy, 999);  // CoW break: private shadow page
  // Proc 1's translation of the copy now names the shadow page, not the shared one.
  ASSERT_NE(EntryOf(m, 1, copy), nullptr);
  EXPECT_NE(EntryOf(m, 1, copy)->lp, shared);
  EXPECT_EQ(EntryOf(m, 1, copy)->lp, m.DebugLogicalPage(*t, copy));
  // Every subsequent access sees the new world: the copy reads 999 everywhere, the
  // original still reads 100.
  for (ProcId p = 0; p < 3; ++p) {
    EXPECT_EQ(m.LoadWord(*t, p, copy), 999u);
    EXPECT_EQ(m.LoadWord(*t, p, original), 100u);
  }
  CheckMachineInvariants(m);
}

TEST(TlbShootdown, PageoutRoundTripInvalidatesAndRefills) {
  Machine::Options mo;
  mo.config.num_processors = 2;
  mo.config.global_pages = 4;
  mo.config.local_pages_per_proc = 4;
  mo.enable_pager = true;
  Machine m(mo);
  Task* t = m.CreateTask("t");
  VirtAddr region = t->MapAnonymous("big", 8 * m.page_size());
  auto page = [&](int p) { return region + static_cast<VirtAddr>(p) * m.page_size(); };
  for (int p = 0; p < 8; ++p) {
    m.StoreWord(*t, 0, page(p), static_cast<std::uint32_t>(p + 100));
  }
  ASSERT_GT(m.pager()->stats().pageouts, 0u);
  // The pool holds 4 pages, so evicted pages' translations must be gone.
  int unmapped = 0;
  for (int p = 0; p < 8; ++p) {
    unmapped += EntryOf(m, 0, page(p)) == nullptr ? 1 : 0;
  }
  EXPECT_GE(unmapped, 4);
  // The round trip pages content back in, faulting on every unmapped page.
  std::uint64_t faults_before = m.stats().page_faults;
  for (int p = 0; p < 8; ++p) {
    EXPECT_EQ(m.LoadWord(*t, 0, page(p)), static_cast<std::uint32_t>(p + 100));
  }
  EXPECT_GE(m.stats().page_faults, faults_before + static_cast<std::uint64_t>(unmapped));
  EXPECT_GT(m.tlb_stats().shootdown_pages, 0u);
  CheckMachineInvariants(m);
}

// --- frame-free paths (audit: teardown, unmap) ---------------------------------------

TEST(TlbShootdown, TaskTeardownLeavesNoStaleEntries) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("page", 2 * m.page_size());
  m.StoreWord(*t, 0, va, 7);
  (void)m.LoadWord(*t, 1, va + m.page_size());
  VirtPage p0 = PageOf(m, va);
  VirtPage p1 = PageOf(m, va + m.page_size());
  ASSERT_NE(m.pmap().mmu(0).Find(p0), nullptr);

  m.DestroyTask(t);  // VmObject teardown frees every frame
  EXPECT_EQ(m.pmap().mmu(0).Find(p0), nullptr);
  EXPECT_EQ(m.pmap().mmu(1).Find(p1), nullptr);
  EXPECT_EQ(m.pmap().mmu(0).MappingCount(), 0u);
  EXPECT_EQ(m.pmap().mmu(1).MappingCount(), 0u);
}

TEST(TlbShootdown, UnmapRegionLeavesNoStaleEntries) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr keep = t->MapAnonymous("keep", m.page_size());
  VirtAddr gone = t->MapAnonymous("gone", m.page_size());
  m.StoreWord(*t, 0, keep, 1);
  m.StoreWord(*t, 0, gone, 2);
  ASSERT_NE(EntryOf(m, 0, gone), nullptr);

  t->UnmapRegion(gone, m.page_pool());
  EXPECT_EQ(EntryOf(m, 0, gone), nullptr);
  ASSERT_NE(EntryOf(m, 0, keep), nullptr);  // unrelated entry survives
  std::uint64_t faults_before = m.stats().page_faults;
  EXPECT_EQ(m.LoadWord(*t, 0, keep), 1u);
  EXPECT_EQ(m.stats().page_faults, faults_before);  // ...and still hits
  CheckMachineInvariants(m);
}

TEST(TlbShootdown, CountersSurfaceInTheTlbGroup) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("page", m.page_size());
  m.StoreWord(*t, 0, va, 7);
  m.StoreWord(*t, 1, va, 8);
  const TlbStats s = m.tlb_stats();
  EXPECT_GT(s.shootdown_pages, 0u);
  // The obs formatting helper renders the group without touching machine state.
  std::string line =
      FormatTlbCounters(s.hits, s.misses, s.shootdown_pages, s.run_flushes, s.batched_refs);
  EXPECT_NE(line.find("shootdown-pages="), std::string::npos);
}

// --- poison mode: derived fields must agree with the pmap ---------------------------

TEST(TlbDeath, DerivedFieldMismatchTripsVerify) {
  Machine::Options mo = SmallMachine();
  mo.tlb_verify = 1;  // force the poison cross-check on regardless of build flags
  Machine m(mo);
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("page", m.page_size());
  m.StoreWord(*t, 0, va, 7);  // proc 0 holds its local-writable translation
  ASSERT_TRUE(m.tlb_verify_enabled());
  const MmuEntry* e = EntryOf(m, 0, va);
  ASSERT_NE(e, nullptr);

  // Simulate a path that mutates the MMU behind the pmap's back: re-enter the same
  // frame under a logical page the mapping directory does not know. The next hit
  // must die on the verify ACE_CHECK instead of attributing the reference wrongly.
  m.pmap().mmu(0).Enter(e->vpage, e->frame, e->prot, e->lp + 1);
  EXPECT_DEATH((void)m.LoadWord(*t, 0, va), "poisoned MMU entry");
}

}  // namespace
}  // namespace ace
