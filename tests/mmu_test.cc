// Unit tests for src/mmu: translation, faults, the Rosetta single-mapping quirk.

#include <gtest/gtest.h>

#include <map>

#include "src/mmu/mmu.h"

namespace ace {
namespace {

TEST(Mmu, TranslateMissesOnEmpty) {
  Mmu mmu(0);
  TranslateResult r = mmu.Translate(5, AccessKind::kFetch);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.fault, FaultKind::kNoMapping);
}

TEST(Mmu, EnterThenTranslate) {
  Mmu mmu(0);
  mmu.Enter(5, FrameRef::Global(2), Protection::kReadWrite);
  TranslateResult r = mmu.Translate(5, AccessKind::kStore);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.frame, FrameRef::Global(2));
  EXPECT_EQ(r.prot, Protection::kReadWrite);
}

TEST(Mmu, ProtectionFaultOnReadOnlyStore) {
  Mmu mmu(0);
  mmu.Enter(5, FrameRef::Local(0, 1), Protection::kRead);
  EXPECT_TRUE(mmu.Translate(5, AccessKind::kFetch).ok());
  TranslateResult r = mmu.Translate(5, AccessKind::kStore);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.fault, FaultKind::kProtection);
}

TEST(Mmu, ReplaceMappingSameVpage) {
  Mmu mmu(0);
  mmu.Enter(5, FrameRef::Global(2), Protection::kRead);
  mmu.Enter(5, FrameRef::Local(0, 3), Protection::kReadWrite);
  TranslateResult r = mmu.Translate(5, AccessKind::kStore);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.frame, FrameRef::Local(0, 3));
  EXPECT_EQ(mmu.MappingCount(), 1u);
}

TEST(Mmu, RosettaDisplacesSecondVirtualAddressForSameFrame) {
  Mmu mmu(0);
  mmu.Enter(5, FrameRef::Global(2), Protection::kRead, /*lp=*/11);
  Mmu::EnterResult er = mmu.Enter(9, FrameRef::Global(2), Protection::kRead, /*lp=*/11);
  EXPECT_TRUE(er.displaced);
  EXPECT_EQ(er.displaced_vpage, 5u);
  EXPECT_EQ(er.displaced_lp, 11u);  // the pmap drops the displaced site's listing
  EXPECT_FALSE(mmu.Translate(5, AccessKind::kFetch).ok());  // displaced -> refault
  EXPECT_TRUE(mmu.Translate(9, AccessKind::kFetch).ok());
  EXPECT_EQ(mmu.MappingCount(), 1u);
}

TEST(Mmu, ReenteringSameVpageSameFrameDoesNotDisplaceItself) {
  Mmu mmu(0);
  mmu.Enter(5, FrameRef::Global(2), Protection::kRead);
  Mmu::EnterResult er = mmu.Enter(5, FrameRef::Global(2), Protection::kReadWrite);
  EXPECT_FALSE(er.displaced);
  EXPECT_EQ(mmu.Translate(5, AccessKind::kStore).prot, Protection::kReadWrite);
}

TEST(Mmu, RemoveDropsMappingAndReverseEntry) {
  Mmu mmu(0);
  mmu.Enter(5, FrameRef::Global(2), Protection::kRead);
  EXPECT_TRUE(mmu.Remove(5));
  EXPECT_FALSE(mmu.Remove(5));  // already gone
  // Frame 2 is free again: a new vpage can map it without displacement.
  Mmu::EnterResult er = mmu.Enter(9, FrameRef::Global(2), Protection::kRead);
  EXPECT_FALSE(er.displaced);
}

TEST(Mmu, DowngradeTightensButNeverLoosens) {
  Mmu mmu(0);
  mmu.Enter(5, FrameRef::Global(2), Protection::kReadWrite);
  mmu.Downgrade(5, Protection::kRead);
  EXPECT_EQ(mmu.Translate(5, AccessKind::kFetch).prot, Protection::kRead);
  EXPECT_FALSE(mmu.Translate(5, AccessKind::kStore).ok());
  // Downgrade with a looser protection is a no-op.
  mmu.Downgrade(5, Protection::kReadWrite);
  EXPECT_EQ(mmu.Translate(5, AccessKind::kFetch).prot, Protection::kRead);
  // Downgrade of an absent vpage is a no-op.
  mmu.Downgrade(77, Protection::kRead);
}

TEST(Mmu, RemapVpageToNewFrameCleansReverseIndex) {
  Mmu mmu(0);
  mmu.Enter(5, FrameRef::Global(2), Protection::kRead);
  mmu.Enter(5, FrameRef::Global(3), Protection::kRead);  // vpage 5 now -> frame 3
  // Frame 2's reverse entry must be gone: mapping it from vpage 9 displaces nothing.
  Mmu::EnterResult er = mmu.Enter(9, FrameRef::Global(2), Protection::kRead);
  EXPECT_FALSE(er.displaced);
  EXPECT_TRUE(mmu.Translate(5, AccessKind::kFetch).ok());
  EXPECT_TRUE(mmu.Translate(9, AccessKind::kFetch).ok());
}

TEST(Mmu, ForEachMappingVisitsAll) {
  Mmu mmu(1);
  mmu.Enter(5, FrameRef::Global(2), Protection::kRead);
  mmu.Enter(6, FrameRef::Local(1, 0), Protection::kReadWrite);
  int count = 0;
  mmu.ForEachMapping([&](const MmuEntry& e) {
    ++count;
    if (e.vpage == 5) {
      EXPECT_EQ(e.frame, FrameRef::Global(2));
      EXPECT_EQ(e.prot, Protection::kRead);
    } else {
      EXPECT_EQ(e.vpage, 6u);
      EXPECT_EQ(e.frame, FrameRef::Local(1, 0));
    }
  });
  EXPECT_EQ(count, 2);
}

// Pages a table size apart share a home slot; linear probing keeps both mapped, and
// removing one must not hide the other (backward-shift deletion).
TEST(Mmu, CollidingPagesStayMapped) {
  Mmu mmu(0);
  const VirtPage a = 7;
  const VirtPage b = a + Mmu::kInitialSlots;
  const VirtPage c = a + 2 * Mmu::kInitialSlots;
  mmu.Enter(a, FrameRef::Global(1), Protection::kRead);
  mmu.Enter(b, FrameRef::Global(2), Protection::kRead);
  mmu.Enter(c, FrameRef::Global(3), Protection::kRead);
  mmu.Enter(a + 1, FrameRef::Global(4), Protection::kRead);
  EXPECT_EQ(mmu.Translate(b, AccessKind::kFetch).frame, FrameRef::Global(2));
  EXPECT_TRUE(mmu.Remove(a));
  EXPECT_FALSE(mmu.HasMapping(a));
  EXPECT_EQ(mmu.Translate(b, AccessKind::kFetch).frame, FrameRef::Global(2));
  EXPECT_EQ(mmu.Translate(c, AccessKind::kFetch).frame, FrameRef::Global(3));
  EXPECT_EQ(mmu.Translate(a + 1, AccessKind::kFetch).frame, FrameRef::Global(4));
  EXPECT_TRUE(mmu.Remove(b));
  EXPECT_EQ(mmu.Translate(c, AccessKind::kFetch).frame, FrameRef::Global(3));
  EXPECT_EQ(mmu.MappingCount(), 2u);
}

// Random enters, removes and downgrades over pages that pile into shared home slots
// (and force the table to grow) agree with a plain map at every step.
TEST(Mmu, ProbingAgreesWithAReferenceMap) {
  Mmu mmu(0);
  std::map<VirtPage, Protection> want;
  std::uint64_t state = 12345;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int step = 0; step < 20000; ++step) {
    const VirtPage base = (next() % 8) * Mmu::kInitialSlots;
    const VirtPage vpage = base + next() % 300;
    switch (next() % 3) {
      case 0:
        mmu.Enter(vpage, FrameRef::Global(static_cast<std::uint32_t>(vpage)),
                  Protection::kReadWrite);
        want[vpage] = Protection::kReadWrite;
        break;
      case 1:
        EXPECT_EQ(mmu.Remove(vpage), want.erase(vpage) == 1);
        break;
      default:
        mmu.Downgrade(vpage, Protection::kRead);
        if (want.contains(vpage)) {
          want[vpage] = Protection::kRead;
        }
        break;
    }
    ASSERT_EQ(mmu.MappingCount(), want.size()) << "step " << step;
  }
  for (VirtPage k = 0; k < 8; ++k) {
    for (VirtPage v = k * Mmu::kInitialSlots; v < k * Mmu::kInitialSlots + 300; ++v) {
      const MmuEntry* e = mmu.Find(v);
      auto it = want.find(v);
      ASSERT_EQ(e != nullptr, it != want.end()) << v;
      if (e != nullptr) {
        EXPECT_EQ(e->prot, it->second) << v;
        EXPECT_EQ(e->frame, FrameRef::Global(static_cast<std::uint32_t>(v))) << v;
      }
    }
  }
}

// The table grows past its initial size without losing a translation, and each
// entry carries the class and costs derived from its frame at Enter, and the logical
// page and pmap the caller named.
TEST(Mmu, GrowsAndKeepsDerivedFields) {
  LatencyModel latency;
  Mmu mmu(1, latency);
  const std::uint32_t n = 3 * Mmu::kInitialSlots;
  for (std::uint32_t v = 0; v < n; ++v) {
    FrameRef frame = v % 2 == 0 ? FrameRef::Local(1, v) : FrameRef::Global(v);
    mmu.Enter(v, frame, Protection::kRead, /*lp=*/v + 100, /*pmap=*/v % 3);
  }
  EXPECT_EQ(mmu.MappingCount(), n);
  for (std::uint32_t v = 0; v < n; ++v) {
    const MmuEntry* e = mmu.Find(v);
    ASSERT_NE(e, nullptr) << v;
    EXPECT_EQ(e->lp, v + 100);
    EXPECT_EQ(e->pmap, v % 3);
    EXPECT_EQ(e->cls, e->frame.ClassFor(1));
    EXPECT_EQ(e->cost_fetch, latency.Cost(e->cls, AccessKind::kFetch));
    EXPECT_EQ(e->cost_store, latency.Cost(e->cls, AccessKind::kStore));
  }
}

// Every change to a live translation counts as one invalidation.
TEST(Mmu, InvalidationsCountEveryChangeToALiveMapping) {
  Mmu mmu(0);
  mmu.Enter(5, FrameRef::Global(2), Protection::kReadWrite);  // fresh: not counted
  EXPECT_EQ(mmu.invalidations(), 0u);
  mmu.Downgrade(5, Protection::kRead);
  mmu.Downgrade(5, Protection::kRead);  // no-op: already at most kRead
  EXPECT_EQ(mmu.invalidations(), 1u);
  mmu.Enter(5, FrameRef::Global(2), Protection::kReadWrite);  // replace
  EXPECT_EQ(mmu.invalidations(), 2u);
  mmu.Enter(9, FrameRef::Global(2), Protection::kRead);  // displaces 5
  EXPECT_EQ(mmu.invalidations(), 3u);
  EXPECT_FALSE(mmu.Remove(5));
  EXPECT_TRUE(mmu.Remove(9));
  EXPECT_EQ(mmu.invalidations(), 4u);
}

}  // namespace
}  // namespace ace
