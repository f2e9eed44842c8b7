// Randomized differential checker for the NUMA cache protocol.
//
// Drives a real NumaManager (with physical frames, clocks, stats and a shipped
// policy) and the pure RefModel with the same operation stream, comparing the full
// observable state after every operation: per-page protocol state, owner, last
// owner, replica set, pending zero-fill, pragma; per-page logical content word by
// word (DebugReadWord); per-processor free local frame counts; and the
// protocol-determined counters. On divergence the failing stream is shrunk (ddmin
// over operations, re-validated against a fresh model each attempt) to a minimal
// repro that can be printed and replayed.

#ifndef SRC_CONFORMANCE_DIFFER_H_
#define SRC_CONFORMANCE_DIFFER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/conformance/ref_model.h"
#include "src/inject/fault_plan.h"
#include "src/numa/numa_manager.h"
#include "src/vm/pmap.h"

namespace ace {

// One machine + policy configuration under test. The machine is deliberately small:
// few pages and fewer local frames per processor than pages, so replica pressure,
// allocation failure and the GLOBAL fallback are all exercised constantly.
struct ConformConfig {
  int num_processors = 4;
  std::uint32_t pages = 24;
  std::uint32_t local_frames_per_proc = 6;
  std::uint32_t page_size = 256;
  RefModel::PolicyKind policy = RefModel::PolicyKind::kMoveLimit;
  int move_threshold = 4;
  // Fault plan armed on the real side only (the RefModel is never told): any schedule
  // that actually fires must surface as a divergence. Empty = no injection.
  FaultPlan plan;
  std::uint64_t fault_seed = 0;
  // Arm the durability substrate on the real side (a ReplicaManager with an
  // effectively unbounded journal — the RefModel's mirror assumes every owned page
  // is recoverable) and let GenerateOps emit kill-node / corrupt-page operations.
  // With it, the comparison extends to the durability counters, and lost_pages is
  // checked against the model's constant zero: full recoverability, per operation.
  bool durability = false;

  std::uint32_t WordsPerPage() const { return page_size / kWordBytes; }
};

// One operation of the differential stream. Operations carry raw parameters; whether
// an operation is *applicable* is decided against the reference model's state at
// apply time (see Differ::Step), so a shrunk subsequence stays meaningful.
struct ConformOp {
  enum class Kind : std::uint8_t {
    kAccess = 0,     // HandleRequest + one user fetch/store through the mapping
    kFree = 1,       // ResetPage + MarkZeroPending (free and fresh reallocation)
    kCopy = 2,       // CopyLogicalPage lp -> lp2 (skipped unless lp2 is fresh)
    kPageRound = 3,  // PrepareForPageout -> ResetPage -> LoadPageContent
    kMigrate = 4,    // MigrateResidentPages proc -> proc2
    kPragma = 5,     // SetPragma
    kKillNode = 6,   // SetLocalLimit(0) -> KillNode -> PoisonLocal (durability only)
    kCorruptNode = 7,  // CorruptAndScrubNode (durability only)
  };

  Kind kind = Kind::kAccess;
  LogicalPage lp = 0;
  LogicalPage lp2 = 0;  // kCopy destination
  ProcId proc = 0;      // acting processor; kMigrate source; kKillNode/kCorruptNode target
  ProcId proc2 = 0;     // kMigrate destination; kKillNode/kCorruptNode acting processor
  AccessKind access = AccessKind::kFetch;
  bool writable_region = true;  // max_prot: kReadWrite if set, else kRead (fetch only)
  std::uint32_t offset = 0;     // word-aligned byte offset touched by kAccess
  std::uint32_t value = 0;      // value stored by kAccess stores; kCorruptNode permille
  PlacementPragma pragma = PlacementPragma::kDefault;
  std::uint64_t seed = 0;  // kCorruptNode frame-selection seed
};

struct Divergence {
  std::size_t op_index = 0;
  std::string what;
};

// The two systems under lockstep execution.
class Differ {
 public:
  explicit Differ(const ConformConfig& config);
  ~Differ();

  Differ(const Differ&) = delete;
  Differ& operator=(const Differ&) = delete;

  // Apply one operation to both sides (skipping it if inapplicable) and compare the
  // full observable state. Returns a description of the first mismatch, if any.
  std::optional<std::string> Step(const ConformOp& op);

  NumaManager& manager();
  const RefModel& model() const;
  // The real side's machine-wide counters (for the ace_conform success summary).
  const MachineStats& stats() const;

 private:
  struct Impl;
  Impl* impl_;
};

// Deterministic generator for `count` operations (op mix documented in differ.cc).
std::vector<ConformOp> GenerateOps(const ConformConfig& config, std::uint64_t seed,
                                   std::size_t count);

// Run `ops` from a fresh pair of systems; first divergence, if any. When the stream
// completes without divergence and `final_stats` is non-null, the real side's
// counters are copied there (for the per-policy summary ace_conform prints).
std::optional<Divergence> RunOps(const ConformConfig& config, const std::vector<ConformOp>& ops,
                                 MachineStats* final_stats = nullptr);

// Shrink a diverging stream to a (locally) minimal one that still diverges.
// `ops` must diverge; the result does too.
std::vector<ConformOp> ShrinkOps(const ConformConfig& config, std::vector<ConformOp> ops);

std::string FormatOp(const ConformOp& op);
std::string PolicyKindName(RefModel::PolicyKind kind);

}  // namespace ace

#endif  // SRC_CONFORMANCE_DIFFER_H_
