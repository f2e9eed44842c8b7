// Tests for the protocol conformance subsystem (src/conformance): the executable
// reference model, the differential checker, its shrinker, and the debug-mode
// invariant sweep. Also the regression test for the remote-homed/full-local-memory
// fallback bug the checker found.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/conformance/differ.h"
#include "src/conformance/ref_model.h"

namespace ace {
namespace {

ConformOp Store(LogicalPage lp, ProcId proc, std::uint32_t offset, std::uint32_t value) {
  ConformOp op;
  op.kind = ConformOp::Kind::kAccess;
  op.lp = lp;
  op.proc = proc;
  op.access = AccessKind::kStore;
  op.offset = offset;
  op.value = value;
  return op;
}

ConformOp Fetch(LogicalPage lp, ProcId proc, std::uint32_t offset = 0) {
  ConformOp op;
  op.kind = ConformOp::Kind::kAccess;
  op.lp = lp;
  op.proc = proc;
  op.access = AccessKind::kFetch;
  op.offset = offset;
  return op;
}

ConformOp Pragma(LogicalPage lp, PlacementPragma pragma) {
  ConformOp op;
  op.kind = ConformOp::Kind::kPragma;
  op.lp = lp;
  op.pragma = pragma;
  return op;
}

// --- the reference model on its own ---------------------------------------------------

TEST(RefModel, FirstWriteTakesLocalOwnershipWithoutCountingAMove) {
  RefModel model(RefModel::Config{});
  RefModel::Outcome out = model.Access(0, AccessKind::kStore, 2, Protection::kReadWrite);
  EXPECT_FALSE(out.is_global);
  EXPECT_EQ(out.node, 2);
  EXPECT_EQ(out.prot, Protection::kReadWrite);
  RefModel::PageView view = model.View(0);
  EXPECT_EQ(view.state, PageState::kLocalWritable);
  EXPECT_EQ(view.owner, 2);
  EXPECT_EQ(model.counters().ownership_moves, 0u);
}

TEST(RefModel, OwnershipTransferCountsAndThresholdPins) {
  RefModel::Config config;
  config.move_threshold = 1;
  RefModel model(config);
  (void)model.Access(0, AccessKind::kStore, 0, Protection::kReadWrite);
  (void)model.Access(0, AccessKind::kStore, 1, Protection::kReadWrite);  // move 0 -> 1
  EXPECT_EQ(model.counters().ownership_moves, 1u);
  // The next decision sees the exhausted move budget and pins the page globally.
  RefModel::Outcome out = model.Access(0, AccessKind::kStore, 0, Protection::kReadWrite);
  EXPECT_TRUE(out.is_global);
  EXPECT_EQ(model.View(0).state, PageState::kGlobalWritable);
  EXPECT_EQ(model.counters().pages_pinned, 1u);
}

TEST(RefModel, FreeResetsPlacementStateAndMoveBudget) {
  RefModel::Config config;
  config.move_threshold = 1;
  RefModel model(config);
  (void)model.Access(0, AccessKind::kStore, 0, Protection::kReadWrite);
  (void)model.Access(0, AccessKind::kStore, 1, Protection::kReadWrite);
  (void)model.Access(0, AccessKind::kStore, 0, Protection::kReadWrite);  // pinned
  model.FreePage(0);
  RefModel::PageView view = model.View(0);
  EXPECT_EQ(view.state, PageState::kReadOnly);
  EXPECT_TRUE(view.zero_pending);
  EXPECT_EQ(view.copies_bits, 0u);
  // Pin forgotten: the page may be cached locally again.
  RefModel::Outcome out = model.Access(0, AccessKind::kStore, 2, Protection::kReadWrite);
  EXPECT_FALSE(out.is_global);
  EXPECT_EQ(model.ReadWord(0, 5), 0u);  // freed pages read as zero
}

// --- differential agreement -----------------------------------------------------------

TEST(Conformance, ManagerMatchesModelAcrossPoliciesAndSeeds) {
  const RefModel::PolicyKind kinds[] = {
      RefModel::PolicyKind::kMoveLimit, RefModel::PolicyKind::kRemoteHome,
      RefModel::PolicyKind::kAllGlobal, RefModel::PolicyKind::kAllLocal};
  for (RefModel::PolicyKind kind : kinds) {
    for (std::uint64_t seed = 10; seed < 13; ++seed) {
      ConformConfig config;
      config.policy = kind;
      std::vector<ConformOp> ops = GenerateOps(config, seed, 2500);
      std::optional<Divergence> d = RunOps(config, ops);
      ASSERT_FALSE(d.has_value()) << PolicyKindName(kind) << " seed " << seed << " op "
                                  << d->op_index << ": " << d->what;
    }
  }
}

// The Differ's real side always runs a mapping mirror as its MappingControl: every
// resolution is recorded per (proc, page), only the unmap callbacks may drop it, and
// after each op every surviving translation is checked against the protocol state.
// A transition that forgets to drop a mapping — the bug class Machine's fast path
// cannot tolerate, since it uses an MMU entry until the protocol drops it — diverges.
TEST(Conformance, MappingMirrorSeesEveryUnmapAcrossPoliciesAndSeeds) {
  const RefModel::PolicyKind kinds[] = {
      RefModel::PolicyKind::kMoveLimit, RefModel::PolicyKind::kRemoteHome,
      RefModel::PolicyKind::kAllGlobal, RefModel::PolicyKind::kAllLocal};
  for (RefModel::PolicyKind kind : kinds) {
    for (std::uint64_t seed = 10; seed < 13; ++seed) {
      ConformConfig config;
      config.policy = kind;
      std::vector<ConformOp> ops = GenerateOps(config, seed, 2500);
      std::optional<Divergence> d = RunOps(config, ops);
      ASSERT_FALSE(d.has_value()) << PolicyKindName(kind) << " seed " << seed << " op "
                                  << d->op_index << ": " << d->what;
    }
  }
}

TEST(Conformance, AggressiveThresholdsStayConformant) {
  for (int threshold : {0, 1, 2}) {
    ConformConfig config;
    config.move_threshold = threshold;
    std::optional<Divergence> d = RunOps(config, GenerateOps(config, 21, 2500));
    ASSERT_FALSE(d.has_value()) << "threshold " << threshold << ": " << d->what;
  }
}

TEST(Conformance, InvariantSweepPassesAfterRandomStream) {
  ConformConfig config;
  Differ differ(config);
  for (const ConformOp& op : GenerateOps(config, 33, 1500)) {
    ASSERT_FALSE(differ.Step(op).has_value());
  }
  // A full sweep (per-page invariants plus frame accounting) must hold at rest.
  differ.manager().VerifyAllInvariants();
}

// --- durability: kill-node / corrupt-page conformance ----------------------------------

ConformOp Kill(ProcId node, ProcId actor) {
  ConformOp op;
  op.kind = ConformOp::Kind::kKillNode;
  op.proc = node;
  op.proc2 = actor;
  return op;
}

ConformOp Corrupt(ProcId node, ProcId actor, std::uint32_t permille, std::uint64_t seed) {
  ConformOp op;
  op.kind = ConformOp::Kind::kCorruptNode;
  op.proc = node;
  op.proc2 = actor;
  op.value = permille;
  op.seed = seed;
  return op;
}

// With config.durability the stream mixes in kill-node and corrupt-page operations,
// the real side carries the ReplicaManager (unbounded journal), and the counter
// comparison extends to the durability set — including lost_pages against the
// model's constant zero, so every kill and corruption must be fully recoverable.
TEST(Conformance, DurabilityKillAndCorruptStayConformantAcrossPoliciesAndSeeds) {
  const RefModel::PolicyKind kinds[] = {
      RefModel::PolicyKind::kMoveLimit, RefModel::PolicyKind::kRemoteHome,
      RefModel::PolicyKind::kAllGlobal, RefModel::PolicyKind::kAllLocal};
  for (RefModel::PolicyKind kind : kinds) {
    for (std::uint64_t seed = 10; seed < 13; ++seed) {
      ConformConfig config;
      config.policy = kind;
      config.durability = true;
      std::vector<ConformOp> ops = GenerateOps(config, seed, 2500);
      std::optional<Divergence> d = RunOps(config, ops);
      ASSERT_FALSE(d.has_value()) << PolicyKindName(kind) << " seed " << seed << " op "
                                  << d->op_index << ": " << d->what;
    }
  }
}

TEST(Conformance, KilledOwnerRecoversDirtyContentFromJournal) {
  ConformConfig config;
  config.durability = true;
  Differ differ(config);
  // Page 0 is owned and dirty at processor 1: its only current content lives in the
  // frame the kill destroys, so recovery must come from the dirty-page journal.
  ASSERT_FALSE(differ.Step(Store(0, 1, 0, 0xfeed)).has_value());
  ASSERT_FALSE(differ.Step(Kill(1, 0)).has_value());
  EXPECT_EQ(differ.manager().DebugReadWord(0, 0), 0xfeedu);
  EXPECT_EQ(differ.manager().PageInfo(0).state, PageState::kReadOnly);
  EXPECT_EQ(differ.stats().recovered_pages, 1u);
  EXPECT_EQ(differ.stats().lost_pages, 0u);
  // The survivor can keep using the page (and the differ keeps agreeing).
  ASSERT_FALSE(differ.Step(Store(0, 0, 0, 0xbeef)).has_value());
  EXPECT_EQ(differ.manager().DebugReadWord(0, 0), 0xbeefu);
}

TEST(Conformance, CorruptionIsDetectedAndRepairedExactly) {
  ConformConfig config;
  config.durability = true;
  Differ differ(config);
  ASSERT_FALSE(differ.Step(Store(0, 1, 0, 0xabc)).has_value());
  // permille 1000: every frame resident at processor 1 (exactly one) corrupts; the
  // scrub must detect and repair it in place without touching protocol state.
  ASSERT_FALSE(differ.Step(Corrupt(1, 0, 1000, 0x5eedu)).has_value());
  EXPECT_EQ(differ.stats().checksum_failures, 1u);
  EXPECT_EQ(differ.stats().recovered_pages, 1u);
  EXPECT_EQ(differ.stats().lost_pages, 0u);
  EXPECT_EQ(differ.manager().DebugReadWord(0, 0), 0xabcu);
  EXPECT_EQ(differ.manager().PageInfo(0).state, PageState::kLocalWritable);
}

TEST(Conformance, DisarmedDurabilityCountersStayExactlyZero) {
  ConformConfig config;  // durability off: the pre-durability machine, bit for bit
  std::vector<ConformOp> ops = GenerateOps(config, 77, 2500);
  Differ differ(config);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ASSERT_FALSE(differ.Step(ops[i]).has_value());
  }
  EXPECT_EQ(differ.stats().replicated_pages, 0u);
  EXPECT_EQ(differ.stats().journal_bytes, 0u);
  EXPECT_EQ(differ.stats().recovered_pages, 0u);
  EXPECT_EQ(differ.stats().lost_pages, 0u);
  EXPECT_EQ(differ.stats().checksum_failures, 0u);
}

// --- bug detection and shrinking ------------------------------------------------------

TEST(Conformance, SkippedSyncIsCaughtAndShrunkToAShortRepro) {
  ConformConfig config;
  ASSERT_TRUE(FaultPlan::Parse("skip-sync@always", &config.plan));
  std::vector<ConformOp> ops = GenerateOps(config, 5, 4000);
  std::optional<Divergence> d = RunOps(config, ops);
  ASSERT_TRUE(d.has_value()) << "skipped sync was not detected";
  std::vector<ConformOp> repro = ShrinkOps(config, ops);
  EXPECT_LE(repro.size(), 4u);  // a store then a migrating read suffice
  EXPECT_TRUE(RunOps(config, repro).has_value());  // the repro still reproduces
}

TEST(Conformance, SkippedMoveCountIsCaught) {
  ConformConfig config;
  config.move_threshold = 2;
  ASSERT_TRUE(FaultPlan::Parse("skip-move-count@always", &config.plan));
  std::vector<ConformOp> ops = GenerateOps(config, 6, 4000);
  std::optional<Divergence> d = RunOps(config, ops);
  ASSERT_TRUE(d.has_value()) << "skipped move count was not detected";
  std::vector<ConformOp> repro = ShrinkOps(config, ops);
  EXPECT_LE(repro.size(), 4u);
  EXPECT_TRUE(RunOps(config, repro).has_value());
}

// --- regression: remote-homed page vs. exhausted local memory -------------------------
//
// Found by this checker: HandleRequest's local-memory-full fallback used to skip
// remote-homed pages, so a LOCAL decision on a page homed elsewhere, made by a
// processor whose local memory was full, reached an unchecked local allocation and
// aborted. The fixed fallback demotes the request to GLOBAL like any other.

TEST(Conformance, RemoteHomedPageFallsBackToGlobalWhenLocalMemoryFull) {
  ConformConfig config;
  config.policy = RefModel::PolicyKind::kRemoteHome;
  config.move_threshold = 0;  // every unadvised page homes at its first toucher
  Differ differ(config);

  std::vector<ConformOp> ops;
  ops.push_back(Store(0, 1, 0, 0xabcd));  // page 0 homes at processor 1
  // kCacheable forces LOCAL decisions from here on (overriding the homed state).
  ops.push_back(Pragma(0, PlacementPragma::kCacheable));
  // Fill processor 0's local memory completely with owned pages.
  for (std::uint32_t i = 0; i < config.local_frames_per_proc; ++i) {
    ops.push_back(Pragma(1 + i, PlacementPragma::kCacheable));
    ops.push_back(Store(1 + i, 0, 0, i));
  }
  // LOCAL decision on the remote-homed page from the full processor: must demote to
  // GLOBAL (and agree with the model), not abort.
  ops.push_back(Fetch(0, 0));

  for (std::size_t i = 0; i < ops.size(); ++i) {
    std::optional<std::string> what = differ.Step(ops[i]);
    ASSERT_FALSE(what.has_value()) << "op " << i << ": " << *what;
  }
  EXPECT_EQ(differ.manager().PageInfo(0).state, PageState::kGlobalWritable);
  EXPECT_EQ(differ.manager().DebugReadWord(0, 0), 0xabcdu);  // home copy was synced back
  EXPECT_GE(differ.model().counters().local_alloc_failures, 1u);
}

}  // namespace
}  // namespace ace
