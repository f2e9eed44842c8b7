// The chaos controller: node-level machine degradation in virtual time.
//
// The fault sites of src/inject fire at named code locations; chaos events change
// the simulated machine itself. A ChaosController owns the plan's ChaosEvent list
// and applies each event's transitions when the simulation's virtual time crosses
// the event window:
//
//   drain-mem@N:T0:T1:P   at T0, node N's usable local-frame count drops to
//                         P/1000 of capacity (0 = hot-remove) and resident pages
//                         are evacuated back to global memory; at T1 the full
//                         capacity returns.
//   stall-proc@N:T0:T1    at T0, processor N's clock jumps (as idle time) to T1:
//                         the processor simply does not dispatch inside the window.
//   slow-link@N:T0:T1:M   inside the window, every global/remote reference issued
//                         by processor N costs M/1000 times the modeled latency.
//
// Transitions are driven from the runtime's dispatch loop with the minimum runnable
// virtual clock — a monotone quantity — so a (plan, seed) pair replays
// byte-identically regardless of host scheduling. A machine whose plan has no chaos
// events never constructs a controller: the dispatch loop pays one null-pointer
// compare and all chaos counters stay exactly zero (the committed-baseline
// invariant). See DESIGN.md section 13.

#ifndef SRC_MACHINE_CHAOS_H_
#define SRC_MACHINE_CHAOS_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/inject/fault_plan.h"

namespace ace {

class Machine;

class ChaosController {
 public:
  // Events naming a node outside the machine's processor range are dropped (a plan
  // written for a larger machine replays harmlessly on a smaller one).
  ChaosController(std::vector<ChaosEvent> events, Machine* machine);

  ChaosController(const ChaosController&) = delete;
  ChaosController& operator=(const ChaosController&) = delete;

  // Apply every transition whose boundary lies at or before `now` (the minimum
  // runnable clock); `proc` is the processor the dispatch loop is acting on behalf
  // of (evacuation work charges its system clock). Returns true when any transition
  // was applied — the caller must then re-pick its dispatch candidate, since a
  // stall may have advanced a clock. Each event applies at most two transitions
  // (activate, recover), so the re-pick loop is bounded.
  bool Advance(TimeNs now, ProcId proc);

  // Slow-link cost dilation for a non-local reference by `proc`; identity unless a
  // slow-link window is active on that processor.
  TimeNs AdjustCost(ProcId proc, TimeNs cost) const {
    std::uint32_t mult = slow_mult_[static_cast<std::size_t>(proc)];
    if (mult == 1000) {
      return cost;
    }
    return cost * static_cast<TimeNs>(mult) / 1000;
  }

  // Whether the plan carries any slow-link event. The machine then disables batched
  // fast-path accounting: costs cached in MMU entries would bypass the window
  // multiplier.
  bool has_slow_link() const { return has_slow_link_; }

  // Window hull over all events, for SLO reporting (the serving app splits its
  // latency tail into in-window and post-recovery populations).
  TimeNs first_begin_ns() const { return first_begin_ns_; }
  TimeNs last_end_ns() const { return last_end_ns_; }

  std::size_t num_events() const { return events_.size(); }

 private:
  enum class Phase : std::uint8_t { kPending, kActive, kDone };

  struct EventState {
    ChaosEvent event;
    Phase phase = Phase::kPending;
  };

  void Activate(const ChaosEvent& event, ProcId proc);
  void Recover(const ChaosEvent& event);

  Machine* machine_;
  std::vector<EventState> events_;
  std::size_t done_ = 0;
  bool has_slow_link_ = false;
  TimeNs first_begin_ns_ = 0;
  TimeNs last_end_ns_ = 0;
  // Per-processor slow-link multiplier in permille; 1000 = no dilation.
  std::vector<std::uint32_t> slow_mult_;
};

}  // namespace ace

#endif  // SRC_MACHINE_CHAOS_H_
