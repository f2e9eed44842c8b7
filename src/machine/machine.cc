#include "src/machine/machine.h"

#include <cstdlib>
#include <cstring>

#include "src/machine/chaos.h"
#include "src/machine/recovery.h"
#include "src/numa/replica_manager.h"
#include "src/obs/sampler.h"

namespace ace {

namespace {
// An access can fault at most twice before succeeding (no-mapping then protection, or
// a Rosetta displacement refault); more retries indicate a protocol livelock.
constexpr int kMaxFaultRetries = 4;

// ACE_TLB_VERIFY: unset or empty keeps `fallback`; "0", "off" or "false" disables;
// anything else enables.
bool EnvToggle(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  return std::strcmp(v, "0") != 0 && std::strcmp(v, "off") != 0 &&
         std::strcmp(v, "false") != 0;
}
}  // namespace

Machine::Machine(Options options)
    : options_(std::move(options)),
      page_shift_(options_.config.PageShift()),
      page_mask_(options_.config.page_size - 1),
      clocks_(options_.config.num_processors),
      bus_(options_.bus),
      tlb_(options_.config.num_processors),
      phys_(options_.config) {
  options_.config.Validate();
#ifdef ACE_TLB_VERIFY_DEFAULT
  const bool verify_default = true;
#else
  const bool verify_default = false;
#endif
  tlb_verify_on_ = EnvToggle(
      "ACE_TLB_VERIFY",
      options_.tlb_verify < 0 ? verify_default : options_.tlb_verify != 0);
  RecomputeFastPathMode();
  if (options_.custom_policy != nullptr) {
    active_policy_ = options_.custom_policy;
  } else {
    switch (options_.policy.kind) {
    case PolicySpec::Kind::kMoveLimit:
      policy_ = std::make_unique<MoveLimitPolicy>(
          options_.config.global_pages,
          MoveLimitPolicy::Options{options_.policy.move_threshold}, &stats_);
      break;
    case PolicySpec::Kind::kAllGlobal:
      policy_ = std::make_unique<AllGlobalPolicy>();
      break;
    case PolicySpec::Kind::kAllLocal:
      policy_ = std::make_unique<AllLocalPolicy>();
      break;
    case PolicySpec::Kind::kReconsider:
      policy_ = std::make_unique<ReconsiderPolicy>(
          options_.config.global_pages,
          ReconsiderPolicy::Options{options_.policy.move_threshold,
                                    options_.policy.reconsider_after_ns},
          &stats_, &clocks_);
      break;
    case PolicySpec::Kind::kRemoteHome:
      policy_ = std::make_unique<RemoteHomePolicy>(
          options_.config.global_pages,
          RemoteHomePolicy::Options{options_.policy.move_threshold}, &stats_);
      break;
    }
    active_policy_ = policy_.get();
  }
  pmap_ = std::make_unique<PmapAce>(options_.config, &phys_, &clocks_, &stats_, &bus_,
                                    active_policy_);
  mmus_ = &pmap_->mmu(0);
  pool_ = std::make_unique<PagePool>(options_.config.global_pages, pmap_.get());
  if (options_.enable_pager) {
    pager_ = std::make_unique<AcePager>(options_.pager, pmap_.get(), pool_.get(), &clocks_,
                                        options_.config.page_size);
    pmap_->SetFreeListener(
        [](void* ctx, LogicalPage lp) { static_cast<AcePager*>(ctx)->NoteFreed(lp); },
        pager_.get());
  }
  fault_handler_ =
      std::make_unique<FaultHandler>(pmap_.get(), pool_.get(), pager_.get(), &stats_);
  // Site schedules arm the injector; chaos events arm the controller. Each half is
  // independent so a chaos-only plan leaves fault_injector() null (ace_soak's
  // clean-run checks rely on that) and a sites-only plan leaves chaos() null.
  if (!options_.fault_plan.schedules.empty()) {
    injector_ = std::make_unique<FaultInjector>(options_.fault_plan, options_.fault_seed);
    injector_->set_clocks(&clocks_);
    phys_.set_fault_injector(injector_.get());
    pool_->set_fault_injector(injector_.get());
    pmap_->manager().set_fault_injector(injector_.get());
    if (pager_ != nullptr) {
      pager_->set_fault_injector(injector_.get());
    }
  }
  // Permanent chaos (kill-node / corrupt-page) arms the durability pair: mirrors,
  // journals and checksums in the ReplicaManager, event application in the
  // RecoveryManager. Plans without a durable event never build either, so every
  // pre-existing run keeps its exact code paths, costs and counters.
  if (options_.fault_plan.has_durable_chaos()) {
    ReplicaManager::Options ropt;
    ropt.journal_page_cap = options_.journal_page_cap;
    replica_ = std::make_unique<ReplicaManager>(options_.config, &phys_, &clocks_,
                                                &stats_, &bus_, ropt);
    pmap_->manager().set_replica_manager(replica_.get());
    recovery_ = std::make_unique<RecoveryManager>(this);
    // Batched accounting would complete owned stores without the journal
    // write-through hook; every armed store must take the immediate path.
    RecomputeFastPathMode();
  }
  if (!options_.fault_plan.chaos.empty()) {
    chaos_ = std::make_unique<ChaosController>(options_.fault_plan.chaos, this);
    // A slow-link window changes reference costs mid-run; the MMU entries' cached
    // costs must not batch past the window boundary.
    RecomputeFastPathMode();
  }
}

Machine::~Machine() {
  FlushPendingRefs();
  for (auto& task : tasks_) {
    if (task != nullptr) {
      task->ReleaseAll(*pool_);
    }
  }
  tasks_.clear();
  pool_->Drain();
}

Task* Machine::CreateTask(const std::string& name) {
  ++task_counter_;
  VirtAddr va_base = (task_counter_ << 32) | 0x10000;
  tasks_.push_back(std::make_unique<Task>(name, pmap_.get(), options_.config.page_size, va_base));
  return tasks_.back().get();
}

void Machine::DestroyTask(Task* task) {
  // Teardown charges system time outside any reference run; commit open runs so their
  // eventual bus-horizon stamps can't absorb those charges.
  FlushPendingRefs();
  for (auto& slot : tasks_) {
    if (slot.get() == task) {
      slot->ReleaseAll(*pool_);
      slot.reset();
      return;
    }
  }
  ACE_CHECK_MSG(false, "DestroyTask: unknown task");
}

AccessStatus Machine::Access(Task& task, ProcId proc, VirtAddr va, AccessKind kind,
                             std::uint32_t* value) {
  ACE_DCHECK(proc >= 0 && proc < options_.config.num_processors);
  ACE_DCHECK(va % kWordBytes == 0);
  // A slow-path reference (and any fault-time system charge it triggers) interrupts
  // the processor's run of fast-path hits; commit the run first so every record keeps
  // the order per-reference accounting would have produced.
  FlushRefRun(proc);
  VirtPage vpage = va >> page_shift_;
  for (int attempt = 0; attempt < kMaxFaultRetries; ++attempt) {
    const MmuEntry* e = mmus_[proc].Find(vpage);
    if (e != nullptr && Allows(e->prot, kind)) {
      CompleteImmediate(proc, *e, va, kind, value);
      return AccessStatus::kOk;
    }
    // Page fault: trap into the kernel and resolve through the machine-independent VM.
    stats_.page_faults++;
    clocks_.ChargeSystem(proc, options_.config.kernel.fault_base_ns);
    pmap_->SetCurrentProc(proc);
    FaultStatus fs = fault_handler_->Handle(task, va, kind, proc);
    switch (fs) {
      case FaultStatus::kResolved:
        continue;
      case FaultStatus::kBadAddress:
        return AccessStatus::kBadAddress;
      case FaultStatus::kProtectionViolation:
        return AccessStatus::kProtectionViolation;
      case FaultStatus::kOutOfMemory:
        return AccessStatus::kOutOfMemory;
    }
  }
  ACE_CHECK_MSG(false, "access livelock: fault did not establish a usable mapping");
}

std::uint32_t Machine::LoadWordSlow(Task& task, ProcId proc, VirtAddr va) {
  std::uint32_t value = 0;
  AccessStatus s = Access(task, proc, va, AccessKind::kFetch, &value);
  ACE_CHECK_MSG(s == AccessStatus::kOk, "LoadWord failed");
  return value;
}

void Machine::StoreWordSlow(Task& task, ProcId proc, VirtAddr va, std::uint32_t value) {
  AccessStatus s = Access(task, proc, va, AccessKind::kStore, &value);
  ACE_CHECK_MSG(s == AccessStatus::kOk, "StoreWord failed");
}

void Machine::CompleteImmediate(ProcId proc, const MmuEntry& entry, VirtAddr va,
                                AccessKind kind, std::uint32_t* value) {
  TimeNs cost = entry.Cost(kind);
  if (entry.cls != MemoryClass::kLocal && bus_.options().model_contention) {
    // Bus contention dilates every transaction that crosses the IPC bus.
    cost = static_cast<TimeNs>(static_cast<double>(cost) * bus_.DilationFactor());
  }
  if (chaos_ != nullptr && entry.cls != MemoryClass::kLocal) {
    // Slow-link chaos dilates this processor's off-node references in-window.
    cost = chaos_->AdjustCost(proc, cost);
  }
  clocks_.ChargeUser(proc, cost);
  stats_.RecordRef(proc, entry.cls, kind);
  if (obs_ != nullptr && obs_->heat_on() && entry.lp != kNoLogicalPage) {
    // Recorded at the same point as RecordRef, so the heat profile's aggregate
    // locality fraction agrees with MeasuredAlpha() exactly.
    obs_->OnRef(entry.lp, proc, entry.cls, kind);
  }
  if (entry.cls != MemoryClass::kLocal) {
    bus_.RecordTransfer(kWordBytes, clocks_.now(proc));
  }
  std::uint32_t offset = static_cast<std::uint32_t>(va & page_mask_);
  if (kind == AccessKind::kFetch) {
    *value = phys_.ReadWord(entry.frame, offset);
  } else {
    phys_.WriteWord(entry.frame, offset, *value);
    if (replica_ != nullptr && entry.lp != kNoLogicalPage) {
      // Journal write-through for owned pages (no-op for global-writable ones;
      // their checksum was invalidated when they entered that state).
      pmap_->manager().NoteStore(entry.lp, offset, *value, proc, /*charge=*/true);
    }
  }
  if (ref_observer_ != nullptr) {
    ref_observer_(ref_observer_ctx_, proc, va, kind, entry.cls);
  }
}

void Machine::VerifyEntry(ProcId proc, const MmuEntry& entry) {
  // The entry is the MMU's own translation, so frame and prot are right by
  // construction; what can go stale is what Enter derived from them.
  const MemoryClass cls = entry.frame.ClassFor(proc);
  const LatencyModel& latency = options_.config.latency;
  ACE_CHECK_MSG(entry.cls == cls, "poisoned MMU entry: memory class disagrees with frame");
  ACE_CHECK_MSG(entry.cost_fetch == latency.Cost(cls, AccessKind::kFetch) &&
                    entry.cost_store == latency.Cost(cls, AccessKind::kStore),
                "poisoned MMU entry: cost disagrees with the latency model");
  ACE_CHECK_MSG(entry.lp == pmap_->LookupLogicalPage(proc, entry.vpage),
                "poisoned MMU entry: logical page disagrees with the pmap directory");
}

void Machine::FlushRefRun(ProcId proc) {
  Tlb::Run& run = tlb_.run(proc);
  if (run.count == 0) {
    return;
  }
  // The block's time is already in now()/user_ns() (accumulated eagerly per hit);
  // commit attributes it to user time and records the stats/bus block. The bus stamp
  // now(proc) equals the clock right after the run's last reference — exactly the
  // stamp per-reference recording would have left as its horizon contribution.
  clocks_.CommitUser(proc);
  stats_.RecordRefBlock(proc, run.cls, run.kind, run.count);
  if (run.cls != MemoryClass::kLocal) {
    bus_.RecordTransferBlock(kWordBytes, run.count, clocks_.now(proc));
  }
  tlb_.NoteRunCommitted(run.count);
  run.count = 0;
}

void Machine::FlushPendingRefs() {
  for (int p = 0; p < options_.config.num_processors; ++p) {
    FlushRefRun(static_cast<ProcId>(p));
  }
}

void Machine::RecomputeFastPathMode() {
  // A slow-link chaos plan also rules out batching: batched hits charge costs cached
  // in the MMU entry at Enter time, which would carry a pre-window cost across the
  // window boundary (or vice versa). Immediate mode recomputes per reference.
  // An armed durability subsystem rules it out too: batched hits complete stores
  // without the journal write-through hook, so every store must go immediate.
  batchable_ = !bus_.options().model_contention && ref_observer_ == nullptr &&
               (chaos_ == nullptr || !chaos_->has_slow_link()) && replica_ == nullptr;
  fast_immediate_ = !batchable_ || (obs_ != nullptr && obs_->heat_on());
}

std::uint32_t Machine::TestAndSet(Task& task, ProcId proc, VirtAddr va,
                                  std::uint32_t new_value) {
  // One fiber runs at a time, so read-then-write is atomic at simulation level; both
  // halves are charged (the hardware primitive performs a bus read-modify-write).
  std::uint32_t old_value = LoadWord(task, proc, va);
  StoreWord(task, proc, va, new_value);
  return old_value;
}

std::uint32_t Machine::FetchAdd(Task& task, ProcId proc, VirtAddr va, std::uint32_t delta) {
  std::uint32_t old_value = LoadWord(task, proc, va);
  StoreWord(task, proc, va, old_value + delta);
  return old_value;
}

std::uint32_t Machine::FetchOr(Task& task, ProcId proc, VirtAddr va, std::uint32_t bits) {
  std::uint32_t old_value = LoadWord(task, proc, va);
  StoreWord(task, proc, va, old_value | bits);
  return old_value;
}

LogicalPage Machine::ResolveDebugPage(Task& task, VirtAddr va, bool materialize) {
  const Region* region = task.FindRegion(va);
  ACE_CHECK_MSG(region != nullptr, "debug access outside any region");
  // Copy-on-write regions: a private shadow copy, when present, is the current page.
  // An *evicted* shadow copy still exists (in backing store) and must be paged back
  // in — falling through to the backing object would read/write the wrong data.
  if (region->shadow != nullptr) {
    std::uint64_t shadow_page = (va - region->start) / options_.config.page_size;
    LogicalPage lp = region->shadow->PageAt(shadow_page);
    if (lp == kNoLogicalPage && pager_ != nullptr &&
        pager_->IsPagedOut(*region->shadow, shadow_page)) {
      lp = fault_handler_->MaterializeForDebug(*region->shadow, shadow_page);
    }
    if (lp != kNoLogicalPage) {
      return lp;
    }
  }
  std::uint64_t object_page =
      (region->object_offset + (va - region->start)) / options_.config.page_size;
  if (materialize) {
    // Through the fault handler, not VmObject::GetOrCreatePage: on a pager machine an
    // evicted page must be paged back in here — a fresh zero page would silently
    // clobber its content on the next DebugWrite.
    return fault_handler_->MaterializeForDebug(*region->object, object_page);
  }
  LogicalPage lp = region->object->PageAt(object_page);
  if (lp == kNoLogicalPage && pager_ != nullptr &&
      pager_->IsPagedOut(*region->object, object_page)) {
    // Non-materializing reads still restore evicted content (untouched pages keep
    // reading as zero without allocating anything).
    lp = fault_handler_->MaterializeForDebug(*region->object, object_page);
  }
  return lp;
}

std::uint32_t Machine::DebugRead(Task& task, VirtAddr va) {
  LogicalPage lp = ResolveDebugPage(task, va, /*materialize=*/false);
  if (lp == kNoLogicalPage) {
    return 0;  // untouched anonymous memory reads as zero
  }
  std::uint32_t offset = static_cast<std::uint32_t>(va & (options_.config.page_size - 1));
  return pmap_->manager().DebugReadWord(lp, offset);
}

void Machine::DebugWrite(Task& task, VirtAddr va, std::uint32_t value) {
  LogicalPage lp = ResolveDebugPage(task, va, /*materialize=*/true);
  ACE_CHECK_MSG(lp != kNoLogicalPage, "DebugWrite: out of logical pages");
  std::uint32_t offset = static_cast<std::uint32_t>(va & (options_.config.page_size - 1));
  pmap_->manager().DebugWriteWord(lp, offset, value);
}

std::uint32_t Machine::ReexamineGlobalPages(ProcId proc) {
  // System-time charges below land outside any reference run; commit open runs first
  // so their bus-horizon stamps stay per-reference-exact.
  FlushPendingRefs();
  NumaManager& manager = pmap_->manager();
  std::uint32_t count = 0;
  for (LogicalPage lp = 0; lp < manager.num_pages(); ++lp) {
    if (manager.PageInfo(lp).state == PageState::kGlobalWritable) {
      pmap_->RemoveAll(lp);
      clocks_.ChargeSystem(proc, options_.config.kernel.consistency_op_ns);
      ++count;
    }
  }
  return count;
}

TlbStats Machine::tlb_stats() const {
  TlbStats s = tlb_.stats();
  for (int p = 0; p < options_.config.num_processors; ++p) {
    s.shootdown_pages += mmus_[p].invalidations();
  }
  return s;
}

Observability& Machine::observability() {
  if (obs_ == nullptr) {
    obs_ = std::make_unique<Observability>(options_.config.num_processors,
                                           options_.config.global_pages, &clocks_);
    obs_->SetStateListener(
        [](void* ctx) { static_cast<Machine*>(ctx)->RecomputeFastPathMode(); }, this);
    RecomputeFastPathMode();
    pmap_->manager().set_observability(obs_.get());
    fault_handler_->SetObserver(
        [](void* ctx, ProcId proc, LogicalPage lp, std::uint8_t status) {
          static_cast<Observability*>(ctx)->OnEvent(TraceEventType::kPageFault, lp, proc,
                                                    status);
        },
        obs_.get());
  }
  return *obs_;
}

MoveLimitPolicy* Machine::move_limit_policy() {
  if (options_.custom_policy != nullptr ||
      options_.policy.kind != PolicySpec::Kind::kMoveLimit) {
    return nullptr;
  }
  return static_cast<MoveLimitPolicy*>(policy_.get());
}

ReconsiderPolicy* Machine::reconsider_policy() {
  if (options_.custom_policy != nullptr ||
      options_.policy.kind != PolicySpec::Kind::kReconsider) {
    return nullptr;
  }
  return static_cast<ReconsiderPolicy*>(policy_.get());
}

const NumaPageInfo& Machine::PageInfoFor(Task& task, VirtAddr va) {
  LogicalPage lp = ResolveDebugPage(task, va, /*materialize=*/true);
  ACE_CHECK(lp != kNoLogicalPage);
  return pmap_->manager().PageInfo(lp);
}

void Machine::CaptureLiveSample(LiveSample* out) {
  // Commit open reference runs so the counters below include every reference issued
  // so far. Idempotent and invisible to MachineStats totals (only the tlb group's
  // run_flushes/batched_refs bookkeeping differs from a lazier flush schedule), so
  // sampling cannot perturb a run's results.
  FlushPendingRefs();

  out->stats = stats_;
  out->user_ns = clocks_.TotalUser();
  out->system_ns = clocks_.TotalSystem();
  out->max_clock_ns = 0;
  for (int p = 0; p < options_.config.num_processors; ++p) {
    const TimeNs t = clocks_.now(static_cast<ProcId>(p));
    if (t > out->max_clock_ns) {
      out->max_clock_ns = t;
    }
  }

  out->tlb_hits_by_proc.clear();
  out->tlb_misses_by_proc.clear();
  for (const TlbProcCounters& c : tlb_.proc_counters()) {
    out->tlb_hits_by_proc.push_back(c.hits);
    out->tlb_misses_by_proc.push_back(c.misses);
  }

  out->trace_emitted = 0;
  out->trace_dropped = 0;
  if (obs_ != nullptr && obs_->tracer().configured()) {
    out->trace_emitted = obs_->tracer().total_emitted();
    out->trace_dropped = obs_->tracer().dropped();
  }

  out->decisions = {};
  out->have_heat = false;
  out->page_refs.clear();
  if (obs_ != nullptr && obs_->heat_on()) {
    const HeatProfile& heat = obs_->heat();
    out->have_heat = true;
    out->decisions[0] = heat.decisions(Placement::kLocal);
    out->decisions[1] = heat.decisions(Placement::kGlobal);
    out->decisions[2] = heat.decisions(Placement::kRemoteHome);
    out->page_refs.resize(heat.num_pages());
    for (std::uint32_t lp = 0; lp < heat.num_pages(); ++lp) {
      const PageHeat& h = heat.page(lp);
      out->page_refs[lp] = {h.LocalTotal(), h.GlobalTotal(), h.RemoteTotal(),
                            static_cast<std::uint64_t>(h.state)};
    }
  }

  out->dead_nodes = recovery_ != nullptr ? recovery_->dead_nodes() : 0;
}

}  // namespace ace
