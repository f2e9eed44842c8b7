// The assembled simulated ACE: the public entry point of the library.
//
// A Machine wires together the physical memory, per-processor MMUs, the Mach-like VM
// (tasks, logical page pool, fault handler) and the ACE pmap layer (NUMA manager +
// policy), and exposes the reference path that simulated programs use:
//
//     ace::Machine m(ace::Machine::Options{});
//     ace::Task* task = m.CreateTask("app");
//     ace::VirtAddr va = task->MapAnonymous("data", 64 * 1024);
//     m.StoreWord(*task, /*proc=*/0, va, 42);
//     std::uint32_t v = m.LoadWord(*task, /*proc=*/1, va);
//
// Every load/store is translated by the accessing processor's MMU; misses fault into
// the VM layer, which calls pmap_enter; the NUMA policy and manager decide placement
// and maintain consistency. User time is charged per reference at the latency of the
// memory class that actually served it; kernel work charges system time.

#ifndef SRC_MACHINE_MACHINE_H_
#define SRC_MACHINE_MACHINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/protection.h"
#include "src/common/types.h"
#include "src/inject/fault_plan.h"
#include "src/numa/numa_manager.h"
#include "src/numa/pmap_ace.h"
#include "src/numa/policies.h"
#include "src/numa/policy.h"
#include "src/obs/observability.h"
#include "src/sim/bus.h"
#include "src/sim/clocks.h"
#include "src/sim/machine_config.h"
#include "src/sim/physical_memory.h"
#include "src/sim/stats.h"
#include "src/machine/pageout.h"
#include "src/machine/tlb.h"
#include "src/vm/fault.h"
#include "src/vm/page_pool.h"
#include "src/vm/task.h"

namespace ace {

class ChaosController;
class RecoveryManager;
struct LiveSample;

// Which NUMA policy the machine boots with.
struct PolicySpec {
  enum class Kind {
    kMoveLimit,   // the paper's policy (default)
    kAllGlobal,   // Tglobal baseline
    kAllLocal,    // Tlocal measurement / thrashing demonstration
    kReconsider,  // future-work extension: pins expire
    kRemoteHome,  // section 4.4 extension: home pages remotely instead of pinning
  };

  Kind kind = Kind::kMoveLimit;
  int move_threshold = 4;
  TimeNs reconsider_after_ns = 50'000'000;

  static PolicySpec MoveLimit(int threshold = 4) {
    return PolicySpec{Kind::kMoveLimit, threshold, 0};
  }
  static PolicySpec AllGlobal() { return PolicySpec{Kind::kAllGlobal, 0, 0}; }
  static PolicySpec AllLocal() { return PolicySpec{Kind::kAllLocal, 0, 0}; }
  static PolicySpec Reconsider(int threshold, TimeNs after_ns) {
    return PolicySpec{Kind::kReconsider, threshold, after_ns};
  }
  static PolicySpec RemoteHome(int threshold = 4) {
    return PolicySpec{Kind::kRemoteHome, threshold, 0};
  }

  const char* Name() const {
    switch (kind) {
      case Kind::kMoveLimit:
        return "move-limit";
      case Kind::kAllGlobal:
        return "all-global";
      case Kind::kAllLocal:
        return "all-local";
      case Kind::kReconsider:
        return "reconsider";
      case Kind::kRemoteHome:
        return "remote-home";
    }
    return "?";
  }
};

enum class AccessStatus {
  kOk = 0,
  kBadAddress = 1,
  kProtectionViolation = 2,
  kOutOfMemory = 3,
};

class Machine {
 public:
  struct Options {
    MachineConfig config;
    PolicySpec policy;
    IpcBus::Options bus;
    // When set, use this policy instead of constructing one from `policy`. Not owned;
    // must outlive the machine. Intended for tests and custom-policy experiments.
    NumaPolicy* custom_policy = nullptr;
    // When true, exhaustion of the logical page pool pages a victim out to simulated
    // backing store instead of failing the fault (and pages it back in on next touch,
    // resetting its placement decisions — the paper's section 4.3 footnote).
    bool enable_pager = false;
    PagerOptions pager;
    // Deterministic fault injection (src/inject). An empty plan (the default) leaves
    // every fault site disarmed at a single never-taken branch; a non-empty plan arms
    // one FaultInjector shared by all subsystems. `fault_seed` seeds the probability
    // schedules' random streams.
    FaultPlan fault_plan;
    std::uint64_t fault_seed = 0;
    // Open dirty-page journals allowed at once when the plan carries a permanent
    // chaos event (kill-node / corrupt-page) and the durability subsystem is armed.
    // Owned pages beyond the cap run unreplicated and are lost if their node dies.
    // Ignored on plans without durable chaos — the ReplicaManager is never built.
    std::uint32_t journal_page_cap = 4096;
    // Cross-check every fast-path hit's derived fields — memory class, per-kind costs
    // and logical page — against frame.ClassFor(proc), the latency model and the pmap
    // directory, and ACE_CHECK-abort on a mismatch (the debug poison mode). -1 =
    // default: on when the library was built with ACE_CHECK_INVARIANTS, off otherwise;
    // 0/1 force. The ACE_TLB_VERIFY environment variable overrides.
    int tlb_verify = -1;
  };

  explicit Machine(Options options);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // --- tasks -------------------------------------------------------------------------
  Task* CreateTask(const std::string& name);
  void DestroyTask(Task* task);

  // --- the reference path --------------------------------------------------------------
  // 32-bit load/store as issued by processor `proc`. Aborts (ACE_CHECK) on bad
  // addresses — simulated programs are expected to be correct; use TryAccess for
  // fault-status tests. Inline: an MMU hit completes here without entering the
  // pmap/NUMA resolve at all.
  std::uint32_t LoadWord(Task& task, ProcId proc, VirtAddr va) {
    std::uint32_t value = 0;
    if (FastAccess(proc, va, AccessKind::kFetch, &value)) {
      return value;
    }
    return LoadWordSlow(task, proc, va);
  }
  void StoreWord(Task& task, ProcId proc, VirtAddr va, std::uint32_t value) {
    if (FastAccess(proc, va, AccessKind::kStore, &value)) {
      return;
    }
    StoreWordSlow(task, proc, va, value);
  }

  // Atomic read-modify-write (the ACE's test-and-set style primitive): writes
  // `new_value` and returns the previous value, charging one fetch + one store.
  std::uint32_t TestAndSet(Task& task, ProcId proc, VirtAddr va, std::uint32_t new_value);
  // Atomic fetch-and-add; returns the previous value.
  std::uint32_t FetchAdd(Task& task, ProcId proc, VirtAddr va, std::uint32_t delta);
  // Atomic fetch-and-or (bit masking without lost updates); returns the previous value.
  std::uint32_t FetchOr(Task& task, ProcId proc, VirtAddr va, std::uint32_t bits);

  // Non-aborting access (for tests of fault semantics).
  AccessStatus TryAccess(Task& task, ProcId proc, VirtAddr va, AccessKind kind,
                         std::uint32_t* value) {
    if (FastAccess(proc, va, kind, value)) {
      return AccessStatus::kOk;
    }
    return Access(task, proc, va, kind, value);
  }

  // Pure computation: charge `ns` of user time to `proc` without touching memory.
  // Commits `proc`'s open reference run first so the bus horizon of the run's block
  // record stays exactly what per-reference recording would have produced.
  void Compute(ProcId proc, TimeNs ns) {
    FlushRefRun(proc);
    clocks_.ChargeUser(proc, ns);
  }

  // Drop all mappings of global-writable pages, forcing the next reference to each to
  // fault and re-consult the NUMA policy. Pinned pages are otherwise mapped with
  // maximum permissions and never fault again, so a reconsidering policy would never
  // get asked — the paper notes a pin is only revisited if "the pinned page is paged
  // out and back in"; this is the hook a reconsideration daemon uses. Charges system
  // time to `proc`. Returns the number of pages re-examined.
  std::uint32_t ReexamineGlobalPages(ProcId proc);

  // --- debug access (no clock/stat side effects) ----------------------------------------
  std::uint32_t DebugRead(Task& task, VirtAddr va);
  void DebugWrite(Task& task, VirtAddr va, std::uint32_t value);

  // --- introspection --------------------------------------------------------------------
  // The clocks are exact at every instant (an open reference run's time is already in
  // now()/user_ns()); stats() and bus() commit any open runs first, so readers always
  // see totals identical to per-reference accounting. Callers must re-fetch through
  // the accessor rather than caching the reference across further simulated work.
  const MachineConfig& config() const { return options_.config; }
  ProcClocks& clocks() { return clocks_; }
  const ProcClocks& clocks() const { return clocks_; }
  MachineStats& stats() {
    FlushPendingRefs();
    return stats_;
  }
  const MachineStats& stats() const {
    // Committing open runs mutates only accounting state; logically const.
    const_cast<Machine*>(this)->FlushPendingRefs();
    return stats_;
  }
  IpcBus& bus() {
    FlushPendingRefs();
    return bus_;
  }
  // Commit every processor's open reference run into stats_/bus_. Idempotent; called
  // automatically by the stats()/bus() accessors and at every point where batched and
  // per-reference accounting could otherwise diverge observably.
  void FlushPendingRefs();
  PhysicalMemory& physical_memory() { return phys_; }
  PagePool& page_pool() { return *pool_; }
  PmapAce& pmap() { return *pmap_; }
  NumaManager& numa_manager() { return pmap_->manager(); }
  NumaPolicy& policy() { return *active_policy_; }
  // The pageout daemon, or nullptr when the machine runs without backing store.
  AcePager* pager() { return pager_.get(); }
  // The armed fault injector, or nullptr when Options::fault_plan carried no site
  // schedules (a chaos-only plan arms the controller below but not the injector).
  FaultInjector* fault_injector() { return injector_.get(); }
  // The chaos controller (src/machine/chaos.h), or nullptr when the plan carried no
  // chaos events. The runtime's dispatch loop advances it; the serving app consults
  // it to arm its SLO machinery (deadlines/retry/shed stay off on chaos-free runs).
  ChaosController* chaos() { return chaos_.get(); }
  // The durability pair (DESIGN.md section 14), or nullptr unless the plan carries a
  // permanent chaos event (kill-node / corrupt-page). The replica manager keeps
  // off-node mirrors, journals and checksums; the recovery manager applies permanent
  // events and tracks dead nodes (the dispatch loop re-homes orphaned fibers off its
  // bitmask).
  ReplicaManager* replica_manager() { return replica_.get(); }
  RecoveryManager* recovery() { return recovery_.get(); }
  std::uint64_t fault_seed() const { return options_.fault_seed; }
  const PolicySpec& policy_spec() const { return options_.policy; }

  // Typed policy accessors (nullptr if the machine runs a different policy).
  MoveLimitPolicy* move_limit_policy();
  ReconsiderPolicy* reconsider_policy();

  // NUMA state of the page backing `va` in `task` (page must be materialized).
  const NumaPageInfo& PageInfoFor(Task& task, VirtAddr va);
  // The logical page backing `va` (materializing it if needed).
  LogicalPage DebugLogicalPage(Task& task, VirtAddr va) {
    return ResolveDebugPage(task, va, /*materialize=*/true);
  }

  std::uint32_t page_size() const { return options_.config.page_size; }
  int num_processors() const { return options_.config.num_processors; }

  // Optional observer of every data reference (used by the trace module). The hook
  // sees (proc, va, kind, memory class served from). At most one observer.
  using RefObserver = void (*)(void* ctx, ProcId proc, VirtAddr va, AccessKind kind,
                               MemoryClass cls);
  void SetRefObserver(RefObserver observer, void* ctx) {
    // Observers see each reference individually, so open runs must drain first and
    // batching stays off while an observer is attached (the fast path then records
    // per reference, keeping the observed stream identical to the slow path's).
    FlushPendingRefs();
    ref_observer_ = observer;
    ref_observer_ctx_ = ctx;
    RecomputeFastPathMode();
  }

  // The serving counters (the `app` group in src/sim/stats.h): the running app
  // records each completed request with its virtual-time latency, and under chaos
  // each deadline miss, retry and shed request (DESIGN.md sections 12-13). Kept in
  // MachineStats so the end-of-run summary capture still sees them after the app has
  // returned.
  void RecordAppRequest(TimeNs latency_ns) {
    stats_.app_requests += 1;
    stats_.app_req_lat_ns += static_cast<std::uint64_t>(latency_ns);
  }
  void RecordAppTimeout() { stats_.app_timeouts += 1; }
  void RecordAppRetry() { stats_.app_retries += 1; }
  void RecordAppShed() { stats_.app_shed += 1; }

  // The fast path's bookkeeping and its counter group (the `tlb` observability
  // group, src/machine/tlb.h). The counters are kept out of MachineStats: they
  // describe how references were served, not what the simulated machine did. By
  // value — hit/miss totals are summed from the per-processor counters and
  // shootdown_pages from the MMUs at read time.
  Tlb& tlb() { return tlb_; }
  TlbStats tlb_stats() const;
  bool tlb_verify_enabled() const { return tlb_verify_on_; }

  // Fill a live-telemetry capture (src/obs/sampler.h) with the machine's current
  // cumulative state: counters, clocks, per-processor TLB hit/miss, trace-ring
  // pressure, and (when heat profiling is on) per-page reference totals and policy
  // decisions. Pure observer — commits open reference runs first (idempotent), reads
  // everything else through const accessors. The static thunk matches
  // LiveSampler::CaptureFn so the sampler can stay machine-independent.
  void CaptureLiveSample(LiveSample* out);
  static void LiveCaptureThunk(void* ctx, LiveSample* out) {
    static_cast<Machine*>(ctx)->CaptureLiveSample(out);
  }

  // The observability layer (src/obs). Created and wired into the NUMA manager and
  // fault path on first call; machines that never ask for it keep every hook at its
  // null-pointer fast path. Call EnableTracing()/EnableHeat() on the result.
  Observability& observability();
  bool has_observability() const { return obs_ != nullptr; }
  // Read-only view that never creates the layer (nullptr when not attached); the
  // watchdog's kill report uses it to scan the trace rings without arming anything.
  const Observability* observability_if_attached() const { return obs_.get(); }

 private:
  AccessStatus Access(Task& task, ProcId proc, VirtAddr va, AccessKind kind,
                      std::uint32_t* value);
  LogicalPage ResolveDebugPage(Task& task, VirtAddr va, bool materialize);

  // Out-of-line halves of the reference path: the full fault-and-resolve slow path
  // behind the inline MMU probe in LoadWord/StoreWord.
  std::uint32_t LoadWordSlow(Task& task, ProcId proc, VirtAddr va);
  void StoreWordSlow(Task& task, ProcId proc, VirtAddr va, std::uint32_t value);

  // Complete a reference through `entry` with immediate accounting: charges and
  // records it at once. Used by the slow path after a fault and by fast-path hits
  // when batching is off (contention model, ref observer, heat profiling, chaos
  // slow-link or durability active).
  void CompleteImmediate(ProcId proc, const MmuEntry& entry, VirtAddr va, AccessKind kind,
                         std::uint32_t* value);
  // Poison mode: cross-check a hitting entry's derived fields; ACE_CHECK-aborts on a
  // mismatch.
  void VerifyEntry(ProcId proc, const MmuEntry& entry);
  // Refresh batchable_/fast_immediate_ from the contention model, ref observer and
  // heat-profiling state (also runs when the observability layer toggles heat).
  void RecomputeFastPathMode();
  // Commit `proc`'s open reference run (no-op when none).
  void FlushRefRun(ProcId proc);

  // The reference fast path: probe `proc`'s MMU and, on a hit, complete the access
  // without entering the pmap/NUMA machinery. Returns false on no mapping or
  // insufficient protection — the caller then takes the slow path, which faults.
  bool FastAccess(ProcId proc, VirtAddr va, AccessKind kind, std::uint32_t* value) {
    const MmuEntry* e = mmus_[proc].Find(va >> page_shift_);
    TlbProcCounters& counters = tlb_.counters(proc);
    if (e == nullptr || !Allows(e->prot, kind)) {
      counters.misses++;
      return false;
    }
    counters.hits++;
    if (tlb_verify_on_) {
      VerifyEntry(proc, *e);
    }
    if (fast_immediate_) {
      CompleteImmediate(proc, *e, va, kind, value);
      return true;
    }
    // Batched run-length accounting: extend (or open) this processor's run. The run
    // key is (vpage, kind); the class cannot change while the entry is live, so the
    // eventual block commit records exactly what per-reference recording would.
    Tlb::Run& run = tlb_.run(proc);
    if (run.count != 0 && (run.vpage != e->vpage || run.kind != kind)) {
      FlushRefRun(proc);
    }
    if (run.count == 0) {
      run.vpage = e->vpage;
      run.kind = kind;
      run.cls = e->cls;
    }
    run.count++;
    clocks_.AccumulateUser(proc, e->Cost(kind));
    const std::uint32_t offset = static_cast<std::uint32_t>(va & page_mask_);
    if (kind == AccessKind::kFetch) {
      *value = phys_.ReadWord(e->frame, offset);
    } else {
      phys_.WriteWord(e->frame, offset, *value);
    }
    return true;
  }

  Options options_;
  std::uint32_t page_shift_;
  std::uint32_t page_mask_;

  // Resolved at construction (Options::tlb_verify + ACE_TLB_VERIFY environment).
  bool tlb_verify_on_ = false;
  // Whether fast-path hits may batch into runs: requires no contention model and no
  // ref observer. fast_immediate_ is the per-access test (= !batchable_ or heat
  // profiling on) folded into one machine-local flag so a hit never chases the obs_
  // pointer.
  bool batchable_ = true;
  bool fast_immediate_ = false;

  MachineStats stats_;
  ProcClocks clocks_;
  IpcBus bus_;
  Tlb tlb_;
  // Declared before every consumer that holds a pointer into it (phys_, pool_, pager_,
  // the NUMA manager) so the injector outlives them all.
  std::unique_ptr<FaultInjector> injector_;
  PhysicalMemory phys_;
  std::unique_ptr<NumaPolicy> policy_;       // owned policy (when not custom)
  NumaPolicy* active_policy_ = nullptr;      // the policy actually in use
  // Declared before pmap_ so the hooks stay valid while the pmap layer tears down.
  std::unique_ptr<Observability> obs_;
  // Declared before pmap_ (like obs_) so the NUMA manager's store/sync hooks stay
  // valid while the pmap layer tears down (~Machine drains the pool -> ResetPage).
  std::unique_ptr<ReplicaManager> replica_;
  std::unique_ptr<PmapAce> pmap_;
  // pmap_'s per-processor MMUs, indexed by processor: the fast path's probe target.
  Mmu* mmus_ = nullptr;
  std::unique_ptr<PagePool> pool_;
  std::unique_ptr<AcePager> pager_;
  std::unique_ptr<FaultHandler> fault_handler_;
  // Holds only non-owning pointers back into this machine; constructed last when the
  // plan carries chaos events, null otherwise (the dispatch hook and the per-access
  // cost hook then cost one never-taken branch each).
  std::unique_ptr<ChaosController> chaos_;
  // Applies permanent chaos (kill-node / corrupt-page); non-null exactly when
  // replica_ is. Holds only a back-pointer into this machine.
  std::unique_ptr<RecoveryManager> recovery_;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::uint64_t task_counter_ = 0;

  RefObserver ref_observer_ = nullptr;
  void* ref_observer_ctx_ = nullptr;
};

}  // namespace ace

#endif  // SRC_MACHINE_MACHINE_H_
