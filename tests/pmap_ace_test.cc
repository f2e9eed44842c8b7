// Unit tests for the ACE pmap layer: the pmap interface semantics including the three
// NUMA extensions (lazy free, min/max protection, target processor) and the mapping
// directory.

#include <gtest/gtest.h>

#include "src/machine/machine.h"
#include "tests/machine_invariants.h"

namespace ace {
namespace {

struct Harness {
  ScriptedPolicy policy;
  std::unique_ptr<Machine> machine;
  Task* task = nullptr;

  Harness() {
    Machine::Options mo;
    mo.config.num_processors = 3;
    mo.config.global_pages = 32;
    mo.config.local_pages_per_proc = 16;
    mo.custom_policy = &policy;
    machine = std::make_unique<Machine>(mo);
    task = machine->CreateTask("t");
  }
};

TEST(PmapAce, MinMaxProtectionDrivesReplication) {
  // Extension 2: a read fault on a writable region is mapped read-only (min prot),
  // so the page can replicate; the later write fault upgrades it.
  Harness h;
  VirtAddr a = h.task->MapAnonymous("page", 4096);
  (void)h.machine->LoadWord(*h.task, 0, a);  // read fault on a writable region
  VirtPage vpage = a / h.machine->page_size();
  TranslateResult tr = h.machine->pmap().mmu(0).Translate(vpage, AccessKind::kFetch);
  ASSERT_TRUE(tr.ok());
  EXPECT_EQ(tr.prot, Protection::kRead);  // provisionally read-only
  // The write faults again and upgrades.
  h.machine->StoreWord(*h.task, 0, a, 1);
  tr = h.machine->pmap().mmu(0).Translate(vpage, AccessKind::kStore);
  ASSERT_TRUE(tr.ok());
  EXPECT_EQ(tr.prot, Protection::kReadWrite);
}

TEST(PmapAce, TargetProcessorArgumentScopesMappings) {
  // Extension 3: entering a mapping for processor 0 must not create one on others.
  Harness h;
  VirtAddr a = h.task->MapAnonymous("page", 4096);
  (void)h.machine->LoadWord(*h.task, 0, a);
  VirtPage vpage = a / h.machine->page_size();
  EXPECT_TRUE(h.machine->pmap().mmu(0).HasMapping(vpage));
  EXPECT_FALSE(h.machine->pmap().mmu(1).HasMapping(vpage));
  EXPECT_FALSE(h.machine->pmap().mmu(2).HasMapping(vpage));
}

TEST(PmapAce, LazyFreeDefersCleanupUntilSync) {
  // Extension 1: pmap_free_page starts lazy cleanup; pmap_free_page_sync completes it.
  Harness h;
  VirtAddr a = h.task->MapAnonymous("page", 4096);
  h.machine->StoreWord(*h.task, 0, a, 7);
  std::uint32_t free_frames = h.machine->physical_memory().FreeLocalFrames(0);
  h.task->UnmapRegion(a, h.machine->page_pool());
  // Cleanup is pending: the local frame is still held.
  EXPECT_EQ(h.machine->pmap().pending_free_count(), 1u);
  EXPECT_EQ(h.machine->physical_memory().FreeLocalFrames(0), free_frames);
  // Reallocation (or drain) completes it.
  h.machine->page_pool().Drain();
  EXPECT_EQ(h.machine->pmap().pending_free_count(), 0u);
  EXPECT_EQ(h.machine->physical_memory().FreeLocalFrames(0), free_frames + 1);
  CheckMachineInvariants(*h.machine);
}

TEST(PmapAce, ProtectDowngradesMappings) {
  Harness h;
  VirtAddr a = h.task->MapAnonymous("page", 4096);
  h.machine->StoreWord(*h.task, 0, a, 7);
  VirtPage vpage = a / h.machine->page_size();
  h.machine->pmap().Protect(h.task->pmap(), vpage, vpage, Protection::kRead);
  EXPECT_FALSE(h.machine->pmap().mmu(0).Translate(vpage, AccessKind::kStore).ok());
  EXPECT_TRUE(h.machine->pmap().mmu(0).Translate(vpage, AccessKind::kFetch).ok());
  // A fresh write fault re-establishes write access through the fault path.
  h.machine->StoreWord(*h.task, 0, a, 8);
  EXPECT_EQ(h.machine->LoadWord(*h.task, 0, a), 8u);
}

TEST(PmapAce, ProtectWithNoneRemoves) {
  Harness h;
  VirtAddr a = h.task->MapAnonymous("page", 4096);
  h.machine->StoreWord(*h.task, 0, a, 7);
  VirtPage vpage = a / h.machine->page_size();
  h.machine->pmap().Protect(h.task->pmap(), vpage, vpage, Protection::kNone);
  EXPECT_FALSE(h.machine->pmap().mmu(0).HasMapping(vpage));
  // Content survives; the next access refaults.
  EXPECT_EQ(h.machine->LoadWord(*h.task, 0, a), 7u);
  CheckMachineInvariants(*h.machine);
}

TEST(PmapAce, RemoveAllDropsEveryProcessorsMapping) {
  Harness h;
  VirtAddr a = h.task->MapAnonymous("page", 4096);
  h.policy.next = Placement::kGlobal;
  h.machine->StoreWord(*h.task, 0, a, 7);
  (void)h.machine->LoadWord(*h.task, 1, a);
  (void)h.machine->LoadWord(*h.task, 2, a);
  VirtPage vpage = a / h.machine->page_size();
  LogicalPage lp = h.machine->DebugLogicalPage(*h.task, a);
  h.machine->pmap().RemoveAll(lp);
  for (ProcId p = 0; p < 3; ++p) {
    EXPECT_FALSE(h.machine->pmap().mmu(p).HasMapping(vpage));
  }
  EXPECT_EQ(h.machine->LoadWord(*h.task, 2, a), 7u);  // refault works
}

TEST(PmapAce, DestroyPmapRemovesOnlyThatTasksMappings) {
  Harness h;
  Task* other = h.machine->CreateTask("other");
  VirtAddr a = h.task->MapAnonymous("page", 4096);
  VirtAddr b = other->MapAnonymous("page", 4096);
  h.machine->StoreWord(*h.task, 0, a, 1);
  h.machine->StoreWord(*other, 0, b, 2);
  h.machine->pmap().DestroyPmap(other->pmap());
  EXPECT_FALSE(h.machine->pmap().mmu(0).HasMapping(b / h.machine->page_size()));
  EXPECT_TRUE(h.machine->pmap().mmu(0).HasMapping(a / h.machine->page_size()));
  CheckMachineInvariants(*h.machine);
}

TEST(PmapAce, CallCountsAccumulate) {
  Harness h;
  VirtAddr a = h.task->MapAnonymous("page", 4096);
  h.machine->StoreWord(*h.task, 0, a, 1);
  (void)h.machine->LoadWord(*h.task, 1, a);
  const PmapCallCounts& c = h.machine->pmap().call_counts();
  EXPECT_GE(c.enter, 2u);
  EXPECT_EQ(c.enter, c.policy_calls);
  EXPECT_GE(c.mmu_enters, c.enter);
  EXPECT_EQ(c.zero_page, 1u);
}

TEST(PmapAce, RosettaDisplacementRefaultsTransparently) {
  // Map the same logical page at two virtual addresses on one processor: with the
  // Rosetta quirk, the second mapping displaces the first, and the displaced address
  // simply faults and remaps on next use.
  Harness h;
  h.policy.next = Placement::kGlobal;  // keep a single frame so displacement triggers
  VirtAddr a = h.task->MapAnonymous("window-a", 4096);
  h.machine->StoreWord(*h.task, 0, a, 41);
  // Map a second region over the same object by mapping the object again.
  const Region* ra = h.task->FindRegion(a);
  VirtAddr b = h.task->MapObject("window-b", ra->object, 0, 4096, Protection::kReadWrite);
  EXPECT_EQ(h.machine->LoadWord(*h.task, 0, b), 41u);  // same logical page, new vaddr
  // The first vaddr was displaced (single virtual address per frame per processor)
  // but refaults transparently.
  EXPECT_EQ(h.machine->LoadWord(*h.task, 0, a), 41u);
  EXPECT_GE(h.machine->stats().page_faults, 3u);
  h.machine->StoreWord(*h.task, 0, b, 42);
  EXPECT_EQ(h.machine->LoadWord(*h.task, 0, a), 42u);
  CheckMachineInvariants(*h.machine);
}

}  // namespace
}  // namespace ace
