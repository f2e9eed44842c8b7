// A deterministic C-Threads-like runtime over the simulated machine.
//
// The paper's applications are Mach C-Threads (or EPEX FORTRAN) programs; here they
// are C++ functions executed on fibers, one fiber per simulated thread. A single host
// thread runs everything: the scheduler always resumes the fiber whose processor has
// the smallest virtual clock (ties go to the fiber dispatched longest ago: round
// robin), so every run is bit-reproducible. A fiber keeps running without a context
// switch while its processor clock remains the minimum — the common case for
// page-local streaks.
//
// Scheduling policy mirrors paper section 4.7: the default binds each thread to a
// processor for its lifetime ("we modified the Mach scheduler to bind each newly
// created process to a processor"); the kMigrating mode models the original Mach
// scheduler where "processes mov[ed] between processors far too often", for the
// affinity ablation bench.

#ifndef SRC_THREADS_RUNTIME_H_
#define SRC_THREADS_RUNTIME_H_

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"
#include "src/machine/machine.h"
#include "src/threads/fiber_context.h"
#include "src/threads/watchdog.h"

namespace ace {

class LiveSampler;
class Runtime;

// Per-thread handle through which application code touches simulated memory. All
// loads/stores/atomics charge the thread's current processor and may context-switch.
// Load, Store and Compute are inline (defined after Runtime below), so the common
// no-switch case costs the machine access plus one clock compare.
class Env {
 public:
  std::uint32_t Load(VirtAddr va);
  void Store(VirtAddr va, std::uint32_t value);
  std::uint32_t TestAndSet(VirtAddr va, std::uint32_t new_value);
  std::uint32_t FetchAdd(VirtAddr va, std::uint32_t delta);
  std::uint32_t FetchOr(VirtAddr va, std::uint32_t bits);

  // Charge `ns` of pure computation (no memory reference).
  void Compute(TimeNs ns);

  // Voluntarily let other threads run if they are behind (no time charge).
  void Yield();

  // Move this thread to another processor (paper section 4.7's load-balancing future
  // work). With `move_pages`, the thread's local-writable pages are bulk-migrated to
  // the new home ("move their local pages with them"); without it they stay behind
  // and trickle over through faults — the comparison bench_load_balance measures.
  void MigrateTo(ProcId new_proc, bool move_pages);

  int tid() const { return tid_; }
  ProcId proc() const { return proc_; }
  Runtime& runtime() { return *runtime_; }
  Machine& machine();
  Task& task();

 private:
  friend class Runtime;
  Runtime* runtime_ = nullptr;
  int tid_ = -1;
  ProcId proc_ = kNoProc;
};

enum class SchedulerKind {
  kAffinity = 0,   // bind thread i to processor (i % P) for its lifetime
  kMigrating = 1,  // move each thread to the next processor every quantum
};

// One unfinished fiber as the dispatcher sees it. The runtime keeps these in a
// compact, unordered array so a dispatch scans plain records, not fibers.
struct LiveFiber {
  std::uint64_t seq;  // dispatch sequence number: the round-robin tie-break
  ProcId proc;        // the fiber's processor (always equal to its Env::proc())
  int tid;
};

// A dispatch decision: the live fiber to run next and the clock its processor may
// reach before another fiber must be considered.
struct DispatchPick {
  int slot;         // index into the live array
  TimeNs deadline;  // -1 when no other fiber is live
};

// The dispatcher's pick, in one scan over `live` (non-empty). The chosen fiber has the
// smallest (now[proc], seq); seqs are unique, so the array's order does not matter.
// Its deadline is the smallest clock of any live fiber on another processor, capped
// at its own clock + `timeslice_ns` when `live_on_proc[proc] > 1` (a peer shares its
// processor and must not be starved); -1 when neither exists. A pure function of its
// arguments, inline so the scan inlines into the dispatcher.
inline DispatchPick PickNext(std::span<const LiveFiber> live, const TimeNs* now,
                             const int* live_on_proc, TimeNs timeslice_ns) {
  constexpr TimeNs kNever = std::numeric_limits<TimeNs>::max();
  // The best fiber so far, and `other`: the smallest clock seen on any processor
  // other than the best fiber's.
  int best = 0;
  std::uint64_t best_seq = 0;
  TimeNs best_clock = kNever;
  ProcId best_proc = kNoProc;
  TimeNs other = kNever;
  for (std::size_t i = 0; i < live.size(); ++i) {
    const LiveFiber& f = live[i];
    const TimeNs clock = now[f.proc];
    if (clock < best_clock || (clock == best_clock && f.seq < best_seq)) {
      if (f.proc != best_proc) {
        other = best_clock;  // the displaced best: no clock seen so far is smaller
      }
      best = static_cast<int>(i);
      best_seq = f.seq;
      best_clock = clock;
      best_proc = f.proc;
    } else if (clock < other && f.proc != best_proc) {
      other = clock;
    }
  }
  TimeNs deadline = other;
  if (live_on_proc[best_proc] > 1) {
    deadline = std::min(deadline, best_clock + timeslice_ns);
  }
  return {best, deadline == kNever ? -1 : deadline};
}

class Runtime {
 public:
  struct Options {
    std::size_t stack_bytes = 256 * 1024;
    SchedulerKind scheduler = SchedulerKind::kAffinity;
    // Virtual-time quantum between forced migrations (kMigrating only).
    TimeNs migrate_quantum_ns = 2'000'000;
    // Timeslice used only when several threads share one processor.
    TimeNs timeslice_ns = 1'000'000;
    // Hung-run limits, checked once per context switch. Disabled by default: the
    // checks are two integer compares and change no scheduling decision, so the
    // happy path stays bit-identical. When a limit trips, Run() unwinds every fiber
    // and throws RunKilledError (see watchdog.h).
    WatchdogLimits watchdog;
    // Optional live-telemetry sampler (src/obs/sampler.h). Ticked once per dispatch
    // with the chosen fiber's virtual clock — the minimum runnable clock, which is
    // monotone nondecreasing — before the watchdog check, so a budget trip is
    // evaluated against the sample that crossed it. Not owned; one compare per
    // dispatch when attached, untouched code path when null.
    LiveSampler* sampler = nullptr;
  };

  Runtime(Machine* machine, Task* task, Options options);
  Runtime(Machine* machine, Task* task) : Runtime(machine, task, Options()) {}
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  using Body = std::function<void(int tid, Env& env)>;

  // Spawn `num_threads` fibers running `body` and run them to completion. Thread i
  // starts on processor (i % num_processors). Deterministic; returns when all threads
  // have finished.
  void Run(int num_threads, const Body& body);

  Machine& machine() { return *machine_; }
  Task& task() { return *task_; }

  // Total dispatches performed (scheduling fidelity metric). A yielding fiber that
  // wins the dispatch again counts too, although no stack switch happens.
  std::uint64_t context_switches() const { return context_switches_; }
  std::uint64_t migrations() const { return migrations_; }

 private:
  friend class Env;

  struct Fiber {
    FiberContext ctx;
    std::unique_ptr<char[]> stack;
    Env env;
    int slot = -1;                 // index of its LiveFiber in live_; -1 once finished
    TimeNs migrate_epoch_ns = 0;   // proc clock when the thread landed on this proc
  };

  static void FiberTrampoline();

  // Check watchdog limits before dispatching `next`; on a trip, record the kill
  // reason/diagnostics and flip killing_ so every fiber unwinds at its next Env op.
  // Only called while the watchdog is armed.
  void CheckWatchdog(int next);

  // The dispatcher: pick the earliest runnable fiber, stamp the dispatch bookkeeping
  // (watchdog check, deadline, sequence counters) and switch to it directly from
  // `from` — fiber to fiber, with no intermediate hop through a scheduler context.
  // When the chosen fiber is `self` (the caller re-earning the CPU after a voluntary
  // yield) the dispatch is recorded but no stack switch happens. Exactly one dispatch
  // is performed per call, preserving the dispatch sequence — and context_switches_ —
  // of a central scheduler loop.
  void DispatchNextFrom(FiberContext* from, int self);

  // Called by Env after every time-advancing operation. The inline no-switch check:
  // under the affinity scheduler, a fiber whose processor clock has not passed its
  // deadline keeps running. Everything else goes through MaybeYield.
  void AfterOp(Env& env);

  // Switch to the scheduler if this thread's processor clock is past its deadline (or
  // `voluntary`), after the migrating scheduler's quantum check; unwinds on a kill.
  void MaybeYield(Env& env, bool voluntary);

  // One dispatch pick over the current live fibers and clocks.
  DispatchPick Pick() const {
    return PickNext(live_, now_, live_on_proc_.data(), options_.timeslice_ns);
  }
  // The first processor at or after `proc` (cyclically) not lost to kill-node chaos.
  ProcId FirstLiveProc(ProcId proc) const;
  // Move `fiber` to `new_proc`: pad the destination's clock with idle time when it is
  // behind (causality), optionally bulk-migrate its local pages, rebind the fiber and
  // its live record, and count the migration.
  void MoveFiber(Fiber& fiber, ProcId new_proc, bool move_pages);
  // Move every unfinished fiber whose processor died (kill-node chaos) to the
  // surviving processor with the smallest clock, idle-padding causality exactly like
  // MigrateTo. Returns true when any fiber moved (the caller re-picks). Only ever
  // called when the machine's recovery manager reports dead nodes.
  bool RehomeDeadNodeFibers();

  TimeNs ProcNow(ProcId proc) const { return now_[proc]; }

  Machine* machine_;
  Task* task_;
  Options options_;
  const TimeNs* now_ = nullptr;  // the machine's clocks (ProcClocks::now_data)

  std::vector<std::unique_ptr<Fiber>> fibers_;  // indexed by tid
  std::vector<LiveFiber> live_;                 // unfinished fibers, unordered
  std::vector<int> live_on_proc_;               // live fibers bound to each processor
  FiberContext main_ctx_;  // Run()'s own context; resumed when the last fiber exits
  int current_ = -1;
  TimeNs current_deadline_ = 0;
  std::uint64_t next_seq_ = 0;
  const Body* body_ = nullptr;

  std::uint64_t context_switches_ = 0;
  std::uint64_t migrations_ = 0;

  // Kill state: set once (by the watchdog or by a fiber's escaped exception), then
  // every fiber throws an internal unwind exception at its next Env operation. Run()
  // rethrows once all fibers have finished.
  bool killing_ = false;
  std::string kill_reason_;
  std::string kill_detail_;
  std::exception_ptr fiber_exception_;

  // Thread-local so independent simulations may run concurrently on host threads
  // (the sweep engine, src/metrics/sweep); a runtime never spans host threads.
  static thread_local Runtime* active_;
};

inline void Runtime::AfterOp(Env& env) {
  if (!killing_ && options_.scheduler == SchedulerKind::kAffinity &&
      now_[env.proc_] <= current_deadline_) {
    return;  // still the earliest runnable thread: keep running without a switch
  }
  MaybeYield(env, /*voluntary=*/false);
}

inline std::uint32_t Env::Load(VirtAddr va) {
  std::uint32_t v = runtime_->machine_->LoadWord(*runtime_->task_, proc_, va);
  runtime_->AfterOp(*this);
  return v;
}

inline void Env::Store(VirtAddr va, std::uint32_t value) {
  runtime_->machine_->StoreWord(*runtime_->task_, proc_, va, value);
  runtime_->AfterOp(*this);
}

inline void Env::Compute(TimeNs ns) {
  runtime_->machine_->Compute(proc_, ns);
  runtime_->AfterOp(*this);
}

}  // namespace ace

#endif  // SRC_THREADS_RUNTIME_H_
