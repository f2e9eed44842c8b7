// Per-processor virtual clocks with a user/system split.
//
// The paper's evaluation (section 3.1) is expressed entirely in *total user time across
// all processors* plus a separate system-time measurement (Table 4); elapsed time is
// deliberately not used. We therefore keep, per processor, an accumulated user-time and
// system-time component; their sum is the processor's virtual "now" used by the
// deterministic thread scheduler.
//
// Batched charging (the reference fast path, Machine::FastAccess): a run of
// consecutive same-page references accumulates its user time here reference by
// reference and commits it to the user component as one block when the run breaks.
// `now()` and `user_ns()` always include the open run, so every clock read — in
// particular the scheduler's per-reference deadline check — sees exactly the value a
// per-reference ChargeUser would have produced. The batch defers only the *labeling*
// of the time, never the time itself.

#ifndef SRC_SIM_CLOCKS_H_
#define SRC_SIM_CLOCKS_H_

#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"

namespace ace {

class ProcClocks {
 public:
  explicit ProcClocks(int num_processors)
      : now_ns_(static_cast<std::size_t>(num_processors), 0),
        user_ns_(static_cast<std::size_t>(num_processors), 0),
        system_ns_(static_cast<std::size_t>(num_processors), 0),
        idle_ns_(static_cast<std::size_t>(num_processors), 0),
        pending_user_ns_(static_cast<std::size_t>(num_processors), 0) {}

  void ChargeUser(ProcId proc, TimeNs ns) {
    ACE_DCHECK(ns >= 0);
    user_ns_[Idx(proc)] += ns;
    now_ns_[Idx(proc)] += ns;
  }

  void ChargeSystem(ProcId proc, TimeNs ns) {
    ACE_DCHECK(ns >= 0);
    system_ns_[Idx(proc)] += ns;
    now_ns_[Idx(proc)] += ns;
  }

  // Idle time keeps a processor's "now" aligned with wall-clock causality (e.g. when a
  // thread migrates onto a processor that has been idle) without being billed as user
  // or system time — the paper's metrics are busy-time only.
  void ChargeIdle(ProcId proc, TimeNs ns) {
    ACE_DCHECK(ns >= 0);
    idle_ns_[Idx(proc)] += ns;
    now_ns_[Idx(proc)] += ns;
  }

  // --- batched user time (reference fast path) ---------------------------------------
  // Advance the clock for one reference of an open run. The time is visible to every
  // reader immediately; only its attribution to the user component is deferred.
  void AccumulateUser(ProcId proc, TimeNs ns) {
    ACE_DCHECK(ns >= 0);
    now_ns_[Idx(proc)] += ns;
    pending_user_ns_[Idx(proc)] += ns;
  }

  // Commit the open run's accumulated time to the user component as one block.
  void CommitUser(ProcId proc) {
    user_ns_[Idx(proc)] += pending_user_ns_[Idx(proc)];
    pending_user_ns_[Idx(proc)] = 0;
  }

  TimeNs user_ns(ProcId proc) const {
    return user_ns_[Idx(proc)] + pending_user_ns_[Idx(proc)];
  }
  TimeNs system_ns(ProcId proc) const { return system_ns_[Idx(proc)]; }
  TimeNs now(ProcId proc) const { return now_ns_[Idx(proc)]; }

  // Raw pointer to the per-processor "now" array, valid for the clocks' lifetime. The
  // deterministic scheduler reads a clock after every memory operation; this keeps
  // that read to a single indexed load.
  const TimeNs* now_data() const { return now_ns_.data(); }

  // The time(1)-style totals the paper reports: summed across processors.
  TimeNs TotalUser() const { return Sum(user_ns_) + Sum(pending_user_ns_); }
  TimeNs TotalSystem() const { return Sum(system_ns_); }

  int num_processors() const { return static_cast<int>(user_ns_.size()); }

  void Reset() {
    for (auto& t : now_ns_) {
      t = 0;
    }
    for (auto& t : user_ns_) {
      t = 0;
    }
    for (auto& t : system_ns_) {
      t = 0;
    }
    for (auto& t : idle_ns_) {
      t = 0;
    }
    for (auto& t : pending_user_ns_) {
      t = 0;
    }
  }

 private:
  std::size_t Idx(ProcId proc) const {
    ACE_DCHECK(proc >= 0 && proc < num_processors());
    return static_cast<std::size_t>(proc);
  }

  static TimeNs Sum(const std::vector<TimeNs>& v) {
    TimeNs total = 0;
    for (TimeNs t : v) {
      total += t;
    }
    return total;
  }

  // Invariant: now_ns_[p] == user_ns_[p] + pending_user_ns_[p] + system_ns_[p] +
  // idle_ns_[p]. The redundant sum exists so the scheduler's hot read is one load.
  std::vector<TimeNs> now_ns_;
  std::vector<TimeNs> user_ns_;
  std::vector<TimeNs> system_ns_;
  std::vector<TimeNs> idle_ns_;
  std::vector<TimeNs> pending_user_ns_;
};

}  // namespace ace

#endif  // SRC_SIM_CLOCKS_H_
