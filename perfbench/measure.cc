// perfbench_measure: the measurement half of the repository benchmark.
//
// Runs one named workload for a host-time budget and prints one JSON object (the
// raw samples) on stdout; run.py turns it into the benchmark's metrics and applies
// the correctness gate. Every workload starts from this single process and uses at
// most min(nproc, 4) host threads. It calls only public entry points of the
// simulator: Machine, App::Run, RunSweep/RunCell, BuildServingWorkload and
// PhysicalMemory::CopyPage, plus the public observation hooks used by the traced
// pass (Machine::SetRefObserver, Machine::Options::custom_policy, LiveSampler).
//
//   perfbench_measure --workload NAME --seed N --seconds S --trace 0|1
//   perfbench_measure --workload paper-sweep --count-refs
//
// Measurement mode: the TLB poison cross-check is forced off (Machine::Options::
// tlb_verify = 0, and ACE_TLB_VERIFY=0 for the machines RunSweep builds), and the
// program refuses to run when ACE_TLB or ACE_TLB_VERIFY is set by the caller.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/app.h"
#include "src/machine/machine.h"
#include "src/metrics/experiment.h"
#include "src/metrics/sweep/matrix.h"
#include "src/metrics/sweep/runner.h"
#include "src/numa/policies.h"
#include "src/obs/sampler.h"
#include "src/serving/workload.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------------
// A minimal JSON writer: objects are built as ordered name/value text.

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) { return Raw(key, JsonNumber(v)); }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonString(v));
  }
  JsonObject& Bool(const std::string& key, bool v) { return Raw(key, v ? "true" : "false"); }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "" : ",";
    body_ += JsonString(key) + ":" + json;
    return *this;
  }
  std::string Text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ",") + items[i];
  }
  return out + "]";
}

std::string JsonNumbers(const std::vector<double>& values) {
  std::vector<std::string> items;
  for (double v : values) {
    items.push_back(JsonNumber(v));
  }
  return JsonArray(items);
}

// ---------------------------------------------------------------------------------
// Workload definitions. Each is a configuration the repository already ships.

// One app configuration, run on a fresh machine with one processor per thread.
struct BatchSpec {
  const char* app;
  double scale;
  int variant;
  int threads;
  int move_threshold;
};

// IMatMult at scale 4 (n=288): the dispatch and TLB-hit fast path do the work.
constexpr BatchSpec kIMatMult{"IMatMult", 4.0, 0, 7, 4};
// PlyTrace at scale 32 with packed (falsely shared) tiles and an infinite move
// threshold: the never-pin point of the paper's threshold sweep, fault-path heavy.
constexpr BatchSpec kPlyTrace{"PlyTrace", 32.0, 0, 7, ace::kInfMoveThreshold};

// The Serving KV store: 7 shards, 4 tenants, Zipf 0.9, 3 churn phases, 20,000
// open-loop requests per client seed, move-limit threshold 4.
constexpr BatchSpec kServing{"Serving", 1.0, 0, 7, 4};
constexpr std::uint64_t kServingRequests = 20'000;
// Client seeds per measured unit: base seed .. base seed + kServingSeeds - 1.
constexpr int kServingSeeds = 64;
// The base client seed whose results expected.json records.
constexpr std::uint64_t kDefaultServingSeed = 1;

// Set-up samples per run, taken before the measured loop: each constructs and
// destroys one machine (setup_s is their median).
constexpr int kSetupSamples = 7;

std::vector<std::uint64_t> ServingSeeds(std::uint64_t base) {
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < kServingSeeds; ++i) {
    seeds.push_back(base + static_cast<std::uint64_t>(i));
  }
  return seeds;
}

ace::Machine::Options MachineOptionsFor(const BatchSpec& spec) {
  ace::Machine::Options mo;
  mo.config.num_processors = spec.threads;
  mo.policy = ace::PolicySpec::MoveLimit(spec.move_threshold);
  mo.tlb_verify = 0;
  return mo;
}

ace::AppConfig AppConfigFor(const BatchSpec& spec, std::uint64_t client_seed) {
  ace::AppConfig cfg;
  cfg.num_threads = spec.threads;
  cfg.scale = spec.scale;
  cfg.variant = spec.variant;
  cfg.serving.tenants = 4;
  cfg.serving.zipf_skew = 0.9;
  cfg.serving.churn_phases = 3;
  cfg.serving.requests = kServingRequests;
  cfg.serving.seed = client_seed;
  return cfg;
}

// ---------------------------------------------------------------------------------
// The simulated result of one app run: every exact counter, virtual time and app
// metric, compared by the correctness gate against other runs and expected.json.

struct SimRun {
  bool ok = false;
  double refs = 0;
  double user_s = 0;
  double system_s = 0;
  double alpha = 0;
  double makespan_ms = 0;
  double requests = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double page_faults = 0;
  double page_copies = 0;
  double page_syncs = 0;
  double ownership_moves = 0;
  double pages_pinned = 0;
  double remote_gets = 0;
  double gets = 0;
  double bus_util = 0;
  std::string sim;  // JSON object of every exact value
};

double AppMetric(const ace::AppResult& r, const std::string& name) {
  for (const auto& [key, value] : r.metrics) {
    if (key == name) {
      return value;
    }
  }
  return 0.0;
}

SimRun Summarize(ace::Machine& m, const ace::AppResult& r) {
  const ace::MachineStats& s = m.stats();
  const ace::ProcRefCounts t = s.TotalRefs();
  SimRun run;
  run.ok = r.ok;
  run.refs = static_cast<double>(t.Total());
  run.user_s = static_cast<double>(m.clocks().TotalUser()) * 1e-9;
  run.system_s = static_cast<double>(m.clocks().TotalSystem()) * 1e-9;
  run.alpha = s.MeasuredAlpha();
  ace::TimeNs makespan = 0;
  for (int p = 0; p < m.num_processors(); ++p) {
    makespan = std::max(makespan, m.clocks().now(static_cast<ace::ProcId>(p)));
  }
  run.makespan_ms = static_cast<double>(makespan) * 1e-6;
  run.page_faults = static_cast<double>(s.page_faults);
  run.page_copies = static_cast<double>(s.page_copies);
  run.page_syncs = static_cast<double>(s.page_syncs);
  run.ownership_moves = static_cast<double>(s.ownership_moves);
  run.pages_pinned = static_cast<double>(s.pages_pinned);
  run.requests = AppMetric(r, "requests");
  run.p50_ms = AppMetric(r, "lat_p50_ms");
  run.p99_ms = AppMetric(r, "lat_p99_ms");
  if (run.requests == 0) {
    // A batch app is one request, the whole job: its virtual latency is the
    // run's makespan.
    run.requests = 1;
    run.p50_ms = run.makespan_ms;
    run.p99_ms = run.makespan_ms;
  }
  run.remote_gets = AppMetric(r, "remote_gets");
  run.gets = AppMetric(r, "gets");
  run.bus_util = m.bus().Utilization();

  JsonObject o;
  o.Bool("ok", r.ok)
      .Num("work_units", static_cast<double>(r.work_units))
      .Num("user_ns", static_cast<double>(m.clocks().TotalUser()))
      .Num("system_ns", static_cast<double>(m.clocks().TotalSystem()))
      .Num("makespan_ns", static_cast<double>(makespan))
      .Num("fetch_local", static_cast<double>(t.fetch_local))
      .Num("fetch_global", static_cast<double>(t.fetch_global))
      .Num("fetch_remote", static_cast<double>(t.fetch_remote))
      .Num("store_local", static_cast<double>(t.store_local))
      .Num("store_global", static_cast<double>(t.store_global))
      .Num("store_remote", static_cast<double>(t.store_remote))
      .Num("page_faults", run.page_faults)
      .Num("zero_fills", static_cast<double>(s.zero_fills))
      .Num("page_copies", run.page_copies)
      .Num("page_syncs", run.page_syncs)
      .Num("page_flushes", static_cast<double>(s.page_flushes))
      .Num("page_unmaps", static_cast<double>(s.page_unmaps))
      .Num("ownership_moves", run.ownership_moves)
      .Num("pages_pinned", run.pages_pinned)
      .Num("local_alloc_failures", static_cast<double>(s.local_alloc_failures))
      .Num("bus_bytes", static_cast<double>(m.bus().total_bytes()));
  for (const auto& [key, value] : r.metrics) {
    o.Num("app." + key, value);
  }
  run.sim = o.Text();
  return run;
}

// ---------------------------------------------------------------------------------
// Traced-pass hooks.

// Host-time gap histogram: 1 ns buckets below 65.5 us, power-of-two buckets above.
class GapHistogram {
 public:
  void Add(std::uint64_t ns) {
    count_ += 1;
    sum_ns_ += ns;
    if (ns < kLinear) {
      linear_[ns] += 1;
    } else {
      int b = 0;
      while ((ns >> (b + 1)) >= kLinear && b < 62) {
        ++b;
      }
      log_[static_cast<std::size_t>(b)] += 1;
    }
  }
  std::uint64_t count() const { return count_; }
  std::uint64_t sum_ns() const { return sum_ns_; }
  // The lower edge of the bucket holding the `q` quantile (0 when empty).
  double Quantile(double q) const {
    if (count_ == 0) {
      return 0.0;
    }
    const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < linear_.size(); ++i) {
      seen += linear_[i];
      if (seen > target) {
        return static_cast<double>(i);
      }
    }
    for (std::size_t b = 0; b < log_.size(); ++b) {
      seen += log_[b];
      if (seen > target) {
        return static_cast<double>(kLinear << b);
      }
    }
    return static_cast<double>(kLinear << 62);
  }

 private:
  static constexpr std::uint64_t kLinear = 1u << 16;
  std::vector<std::uint64_t> linear_ = std::vector<std::uint64_t>(kLinear, 0);
  std::vector<std::uint64_t> log_ = std::vector<std::uint64_t>(64, 0);
  std::uint64_t count_ = 0;
  std::uint64_t sum_ns_ = 0;
};

// Timestamps every reference through Machine::SetRefObserver. The gap to the next
// reference is a fault gap when that reference's processor saw its TLB miss count
// rise, a switch gap when the processor changed, and a hit gap otherwise. One
// tracer accumulates over every machine of a traced pass.
struct RefGapTracer {
  void Attach(ace::Machine* m) {
    machine = m;
    last_misses.assign(static_cast<std::size_t>(m->num_processors()), 0);
    have_last = false;
    m->SetRefObserver(&Observe, this);
  }
  void Detach() {
    machine->SetRefObserver(nullptr, nullptr);
    machine = nullptr;
  }

  static void Observe(void* ctx, ace::ProcId proc, ace::VirtAddr, ace::AccessKind,
                      ace::MemoryClass) {
    auto* self = static_cast<RefGapTracer*>(ctx);
    const Clock::time_point now = Clock::now();
    const std::uint64_t misses =
        self->machine->tlb().proc_counters()[static_cast<std::size_t>(proc)].misses;
    const bool missed = misses != self->last_misses[static_cast<std::size_t>(proc)];
    self->last_misses[static_cast<std::size_t>(proc)] = misses;
    if (self->have_last) {
      const std::uint64_t gap = NsBetween(self->last, now);
      if (missed) {
        self->fault.Add(gap);
      } else if (proc != self->last_proc) {
        self->switched.Add(gap);
      } else {
        self->hit.Add(gap);
      }
    }
    self->refs += 1;
    self->have_last = true;
    self->last = now;
    self->last_proc = proc;
  }

  ace::Machine* machine = nullptr;
  std::vector<std::uint64_t> last_misses;
  bool have_last = false;
  Clock::time_point last;
  ace::ProcId last_proc = 0;
  std::uint64_t refs = 0;
  GapHistogram hit;
  GapHistogram switched;
  GapHistogram fault;
};

// Forwards to the machine's real policy and times each CachePolicy call. Bound
// after the machine exists, because the move-limit policy counts pins into the
// machine's own stats.
class TimedPolicy final : public ace::NumaPolicy {
 public:
  void Bind(ace::NumaPolicy* inner) { inner_ = inner; }

  ace::Placement CachePolicy(ace::LogicalPage lp, ace::AccessKind kind,
                             ace::ProcId proc) override {
    const Clock::time_point t0 = Clock::now();
    const ace::Placement p = inner_->CachePolicy(lp, kind, proc);
    ns_ += NsBetween(t0, Clock::now());
    calls_ += 1;
    return p;
  }
  void NoteOwnershipMove(ace::LogicalPage lp) override { inner_->NoteOwnershipMove(lp); }
  void NotePageFreed(ace::LogicalPage lp) override { inner_->NotePageFreed(lp); }
  void NoteAdvice(ace::LogicalPage lp, ace::PlacementPragma pragma) override {
    inner_->NoteAdvice(lp, pragma);
  }
  const char* name() const override { return inner_ != nullptr ? inner_->name() : "timed"; }

  std::uint64_t calls() const { return calls_; }
  std::uint64_t ns() const { return ns_; }

 private:
  ace::NumaPolicy* inner_ = nullptr;
  std::uint64_t calls_ = 0;
  std::uint64_t ns_ = 0;
};

// Times each live-telemetry capture of a null-sink LiveSampler.
struct TimedCapture {
  static void Capture(void* ctx, ace::LiveSample* out) {
    auto* self = static_cast<TimedCapture*>(ctx);
    const Clock::time_point t0 = Clock::now();
    ace::Machine::LiveCaptureThunk(self->machine, out);
    self->ns += NsBetween(t0, Clock::now());
    self->captures += 1;
  }
  ace::Machine* machine = nullptr;
  std::uint64_t ns = 0;
  std::uint64_t captures = 0;
};

// ---------------------------------------------------------------------------------
// One app run on a fresh machine, in one of the observation modes.

enum class RunMode { kPlain, kTraced, kHeat, kSampled };

struct AppRun {
  double wall_s = 0;  // App::Run only, machine construction excluded
  SimRun sim;
  double tlb_hits = 0;
  double tlb_misses = 0;
  double tlb_batched = 0;
  double tlb_shootdown_pages = 0;
  // Traced-pass observations.
  double policy_calls = 0;
  double policy_ns = 0;
  double captures = 0;
  double capture_ns = 0;
};

// `gaps` is required in kTraced mode and ignored otherwise.
AppRun RunApp(const BatchSpec& spec, std::uint64_t client_seed, RunMode mode,
              RefGapTracer* gaps = nullptr) {
  AppRun out;
  ace::Machine::Options mo = MachineOptionsFor(spec);
  // Both outlive the machine: its destructor frees pages through the policy.
  TimedPolicy timed;
  std::unique_ptr<ace::MoveLimitPolicy> inner;
  if (mode == RunMode::kTraced) {
    mo.custom_policy = &timed;
  }
  ace::Machine machine(mo);
  ACE_CHECK_MSG(!machine.tlb_verify_enabled(), "TLB poison cross-check must be off");

  if (mode == RunMode::kTraced) {
    inner = std::make_unique<ace::MoveLimitPolicy>(
        mo.config.global_pages, ace::MoveLimitPolicy::Options{spec.move_threshold},
        &machine.stats());
    timed.Bind(inner.get());
    gaps->Attach(&machine);
  } else if (mode == RunMode::kHeat) {
    machine.observability().EnableHeat();
  }

  ace::AppConfig cfg = AppConfigFor(spec, client_seed);
  TimedCapture capture;
  std::unique_ptr<ace::LiveSampler> sampler;
  if (mode == RunMode::kSampled) {
    ace::LiveSampler::Options so;
    so.interval_ns = 1'000'000;
    so.tool = "perfbench";
    sampler = std::make_unique<ace::LiveSampler>(so, nullptr);
    capture.machine = &machine;
    sampler->SetSource(&TimedCapture::Capture, &capture);
    ace::LiveRunMeta meta;
    meta.app = spec.app;
    meta.policy = "move-limit";
    meta.procs = spec.threads;
    meta.threads = spec.threads;
    sampler->BeginRun(std::move(meta));
    cfg.runtime.sampler = sampler.get();
  }

  std::unique_ptr<ace::App> app = ace::CreateAppByName(spec.app);
  ACE_CHECK_MSG(app != nullptr, "unknown application");
  const Clock::time_point r0 = Clock::now();
  const ace::AppResult result = app->Run(machine, cfg);
  out.wall_s = SecondsSince(r0);
  if (sampler != nullptr) {
    sampler->EndRun(result.ok ? "ok" : "failed");
  }
  if (mode == RunMode::kTraced) {
    gaps->Detach();
  }

  out.sim = Summarize(machine, result);
  const ace::TlbStats tlb = machine.tlb_stats();
  out.tlb_hits = static_cast<double>(tlb.hits);
  out.tlb_misses = static_cast<double>(tlb.misses);
  out.tlb_batched = static_cast<double>(tlb.batched_refs);
  out.tlb_shootdown_pages = static_cast<double>(tlb.shootdown_pages);
  out.policy_calls = static_cast<double>(timed.calls());
  out.policy_ns = static_cast<double>(timed.ns());
  out.captures = static_cast<double>(capture.captures);
  out.capture_ns = static_cast<double>(capture.ns);
  return out;
}

// Median host ns of one PhysicalMemory::CopyPage between two local frames.
double PageCopyNs(const BatchSpec& spec) {
  ace::Machine machine(MachineOptionsFor(spec));
  ace::PhysicalMemory& phys = machine.physical_memory();
  const ace::FrameRef a = phys.AllocLocal(0);
  const ace::FrameRef b = phys.AllocLocal(1);
  ACE_CHECK_MSG(a.valid() && b.valid(), "cannot allocate copy frames");
  std::vector<double> samples;
  constexpr int kBatch = 256;
  for (int round = 0; round < 15; ++round) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) {
      phys.CopyPage((i & 1) ? b : a, (i & 1) ? a : b, 0);
    }
    samples.push_back(static_cast<double>(NsBetween(t0, Clock::now())) / kBatch);
  }
  return Median(samples);
}

// ---------------------------------------------------------------------------------
// Output assembly.

struct Unit {
  std::vector<double> run_wall_s;  // host s per app run, or of the whole sweep
  double refs = 0;
  double requests = 0;
  double sim_user_s = 0;
  double sim_system_s = 0;
  double local_fraction = 0;
  double sim_p50_ms = 0;
  double sim_p99_ms = 0;
  bool ok = true;
  std::vector<std::string> sims;  // per app run or per sweep cell

  std::string Json() const {
    JsonObject o;
    o.Raw("run_wall_s", JsonNumbers(run_wall_s))
        .Num("refs", refs)
        .Num("requests", requests)
        .Num("sim_user_s", sim_user_s)
        .Num("sim_system_s", sim_system_s)
        .Num("local_fraction", local_fraction)
        .Num("sim_p50_ms", sim_p50_ms)
        .Num("sim_p99_ms", sim_p99_ms)
        .Bool("ok", ok)
        .Raw("sims", JsonArray(sims));
    return o.Text();
  }
};

struct Output {
  std::vector<double> setup_s;
  std::vector<Unit> units;
  std::vector<Unit> canary;
  std::vector<Unit> traced;
  JsonObject layers;
};

// A unit is one app run per client seed of the workload, each on a fresh machine:
// counts are summed, simulated values are medians over the runs.
Unit MachineUnit(const std::vector<AppRun>& runs) {
  Unit u;
  std::vector<double> user, system, alpha, p50, p99;
  for (const AppRun& r : runs) {
    u.run_wall_s.push_back(r.wall_s);
    u.refs += r.sim.refs;
    u.requests += r.sim.requests;
    user.push_back(r.sim.user_s);
    system.push_back(r.sim.system_s);
    alpha.push_back(r.sim.alpha);
    p50.push_back(r.sim.p50_ms);
    p99.push_back(r.sim.p99_ms);
    u.ok = u.ok && r.sim.ok;
    u.sims.push_back(r.sim.sim);
  }
  u.sim_user_s = Median(user);
  u.sim_system_s = Median(system);
  u.local_fraction = Median(alpha);
  u.sim_p50_ms = Median(p50);
  u.sim_p99_ms = Median(p99);
  return u;
}

// Runs `unit()` until `budget_s` has passed (at least once).
template <typename Fn>
void RunFor(double budget_s, Fn unit) {
  const Clock::time_point start = Clock::now();
  do {
    unit();
  } while (SecondsSince(start) < budget_s);
}

// Host seconds of kSetupSamples constructions (and destructions) of `spec`'s machine.
std::vector<double> ConstructionSeconds(const BatchSpec& spec) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupSamples; ++i) {
    const Clock::time_point c0 = Clock::now();
    ace::Machine machine(MachineOptionsFor(spec));
    samples.push_back(SecondsSince(c0));
  }
  return samples;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<AppRun> RunSet(const BatchSpec& spec, const std::vector<std::uint64_t>& seeds,
                           RunMode mode, RefGapTracer* gaps = nullptr) {
  std::vector<AppRun> runs;
  for (std::uint64_t seed : seeds) {
    runs.push_back(RunApp(spec, seed, mode, gaps));
  }
  return runs;
}

// Traced pass runs at most this many units (the untraced pass may have run more).
constexpr std::size_t kTracedUnits = 2;

// A workload of app runs on machines built here: imatmult-local and
// plytrace-thrash (one run per unit) and serving-zipf (one run per client seed).
void RunMachineWorkload(const BatchSpec& spec, const std::vector<std::uint64_t>& seeds,
                        const std::vector<std::uint64_t>& recorded_seeds, double seconds,
                        bool trace, Output* out) {
  out->setup_s = ConstructionSeconds(spec);
  std::vector<AppRun> plain;
  RunFor(trace ? seconds / 2 : seconds, [&] {
    std::vector<AppRun> set = RunSet(spec, seeds, RunMode::kPlain);
    out->units.push_back(MachineUnit(set));
    for (AppRun& r : set) {
      plain.push_back(std::move(r));
    }
  });
  if (seeds != recorded_seeds) {
    // The recorded inputs run once, untimed, so every run is checked against
    // expected.json whatever its own seed.
    out->canary.push_back(MachineUnit(RunSet(spec, recorded_seeds, RunMode::kPlain)));
  }
  if (!trace) {
    return;
  }

  const std::size_t traced_units = std::min(out->units.size(), kTracedUnits);
  RefGapTracer gaps;
  std::vector<AppRun> traced;
  for (std::size_t i = 0; i < traced_units; ++i) {
    std::vector<AppRun> set = RunSet(spec, seeds, RunMode::kTraced, &gaps);
    out->traced.push_back(MachineUnit(set));
    for (AppRun& r : set) {
      traced.push_back(std::move(r));
    }
  }
  // The heat tap's cost: each heat-profiled run directly follows an untraced run
  // of the same seed, so host drift cancels in the difference.
  double heat_extra_s = 0, heat_refs = 0;
  for (std::size_t i = 0; i < traced_units; ++i) {
    std::vector<AppRun> set;
    for (std::uint64_t seed : seeds) {
      const AppRun base = RunApp(spec, seed, RunMode::kPlain);
      set.push_back(RunApp(spec, seed, RunMode::kHeat));
      heat_extra_s += set.back().wall_s - base.wall_s;
      heat_refs += set.back().sim.refs;
    }
    out->traced.push_back(MachineUnit(set));
  }
  const std::vector<AppRun> sampled = RunSet(spec, seeds, RunMode::kSampled);
  out->traced.push_back(MachineUnit(sampled));

  double refs = 0, wall = 0, hits = 0, misses = 0, batched = 0, shootdowns = 0;
  double faults = 0, copies = 0, syncs = 0, moves = 0, pinned = 0, bus = 0;
  double requests = 0, gets = 0, remote_gets = 0;
  for (const AppRun& r : plain) {
    refs += r.sim.refs;
    wall += r.wall_s;
    hits += r.tlb_hits;
    misses += r.tlb_misses;
    batched += r.tlb_batched;
    shootdowns += r.tlb_shootdown_pages;
    faults += r.sim.page_faults;
    copies += r.sim.page_copies;
    syncs += r.sim.page_syncs;
    moves += r.sim.ownership_moves;
    pinned += r.sim.pages_pinned;
    bus += r.sim.bus_util;
    requests += r.sim.requests;
    gets += r.sim.gets;
    remote_gets += r.sim.remote_gets;
  }
  const double n = static_cast<double>(plain.size());

  double traced_wall = 0, policy_calls = 0, policy_ns = 0;
  for (const AppRun& r : traced) {
    traced_wall += r.wall_s;
    policy_calls += r.policy_calls;
    policy_ns += r.policy_ns;
  }
  const double gap_ns = static_cast<double>(gaps.fault.sum_ns() + gaps.hit.sum_ns() +
                                            gaps.switched.sum_ns());
  double captures = 0, capture_ns = 0;
  for (const AppRun& r : sampled) {
    captures += r.captures;
    capture_ns += r.capture_ns;
  }

  // BuildServingWorkload is timed on its own; it also runs inside each serving
  // App::Run. The batch apps build no client workload.
  std::vector<double> build_ms;
  if (std::strcmp(spec.app, kServing.app) == 0) {
    for (std::uint64_t seed : seeds) {
      const ace::ServingParams params = ace::ResolveServingParams(AppConfigFor(spec, seed));
      const Clock::time_point t0 = Clock::now();
      const ace::ServingWorkload wl = ace::BuildServingWorkload(params, spec.threads);
      build_ms.push_back(SecondsSince(t0) * 1e3);
      ACE_CHECK_MSG(wl.total_requests == kServingRequests, "unexpected serving request count");
    }
  }
  std::vector<double> ctor_ms;
  for (double s : out->setup_s) {
    ctor_ms.push_back(s * 1e3);
  }
  const double page_copy_ns = PageCopyNs(spec);

  out->layers
      .Num("threads.switches_per_ref",
           Ratio(static_cast<double>(gaps.switched.count()), static_cast<double>(gaps.refs)))
      .Num("threads.switch_gap_ns", gaps.switched.Quantile(0.5))
      .Num("machine.hit_gap_ns", gaps.hit.Quantile(0.5))
      .Num("machine.tlb_hit_frac", Ratio(hits, hits + misses))
      .Num("machine.batched_frac", Ratio(batched, refs))
      .Num("machine.shootdown_pages_per_fault", Ratio(shootdowns, faults))
      .Num("numa.faults_per_kref", Ratio(faults * 1e3, refs))
      .Num("numa.fault_gap_ns", gaps.fault.Quantile(0.5))
      .Num("numa.fault_gap_p99_ns", gaps.fault.Quantile(0.99))
      .Num("numa.fault_share", Ratio(static_cast<double>(gaps.fault.sum_ns()), gap_ns))
      .Num("numa.policy_ns", Ratio(policy_ns, policy_calls))
      .Num("numa.copies", Ratio(copies, n))
      .Num("numa.syncs", Ratio(syncs, n))
      .Num("numa.moves", Ratio(moves, n))
      .Num("numa.pinned", Ratio(pinned, n))
      .Num("sim.machine_ctor_ms", Median(ctor_ms))
      .Num("sim.page_copy_ns", page_copy_ns)
      .Num("sim.copy_share", Ratio(copies * page_copy_ns * 1e-9, wall))
      .Num("sim.bus_util", Ratio(bus, n))
      .Num("serving.build_ms", Median(build_ms))
      .Num("serving.host_us_per_req", Ratio(wall * 1e6, requests))
      .Num("serving.remote_get_frac", Ratio(remote_gets, gets))
      .Num("obs.heat_ns_per_ref", Ratio(heat_extra_s * 1e9, heat_refs))
      .Num("obs.sample_us", Ratio(capture_ns * 1e-3, captures))
      .Num("sweep.busy_frac", 0)
      .Num("sweep.longest_cell_s", 0)
      .Num("sweep.machines", static_cast<double>(seeds.size()))
      .Num("trace.overhead", Ratio(traced_wall / static_cast<double>(traced.size()), wall / n));
}

// ---------------------------------------------------------------------------------
// paper-sweep: the `full` suite through RunSweep.

int SweepWorkers() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(std::clamp<long>(n, 1, 4));
}

// Machines one cell constructs: the full experiment runs numa, global and the
// single-thread local placement; a numa-only cell runs one.
int MachinesPerCell(const ace::SweepCell& cell) {
  return cell.mode == ace::CellMode::kFullExperiment ? 3 : 1;
}

Unit SweepUnit(const std::vector<ace::CellResult>& cells, double wall_s) {
  Unit u;
  u.run_wall_s.push_back(wall_s);
  u.requests = static_cast<double>(cells.size());
  std::vector<double> cost_ms, alpha;
  for (const ace::CellResult& c : cells) {
    const double t = c.MetricOr("t_numa", 0.0);
    const double s = c.MetricOr("s_numa", 0.0);
    u.sim_user_s += t;
    u.sim_system_s += s;
    cost_ms.push_back((t + s) * 1e3);
    alpha.push_back(c.MetricOr("measured_alpha", 0.0));
    u.ok = u.ok && c.ok && !c.died();
    JsonObject o;
    o.Str("key", c.cell.Key()).Bool("ok", c.ok);
    for (const auto& [name, value] : c.metrics) {
      o.Num(name, value);
    }
    u.sims.push_back(o.Text());
  }
  double alpha_sum = 0;
  for (double a : alpha) {
    alpha_sum += a;
  }
  u.local_fraction = Ratio(alpha_sum, static_cast<double>(alpha.size()));
  u.sim_p50_ms = Median(cost_ms);
  std::sort(cost_ms.begin(), cost_ms.end());
  // The cell at the 99th percentile (nearest rank).
  if (!cost_ms.empty()) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(cost_ms.size())));
    u.sim_p99_ms = cost_ms[std::max<std::size_t>(rank, 1) - 1];
  }
  return u;
}

void RunPaperSweep(double seconds, bool trace, Output* out) {
  // Set-up here is suite enumeration: RunSweep builds every machine inside wall_s.
  // One enumeration takes tens of microseconds, so each sample times a batch.
  constexpr int kEnumerationsPerSample = 1000;
  ace::Suite suite;
  for (int i = 0; i < kSetupSamples; ++i) {
    const Clock::time_point t0 = Clock::now();
    for (int j = 0; j < kEnumerationsPerSample; ++j) {
      suite = ace::MakeSuite("full");
    }
    out->setup_s.push_back(SecondsSince(t0) / kEnumerationsPerSample);
  }
  ace::SweepOptions options;
  options.workers = SweepWorkers();
  std::vector<double> walls;
  RunFor(trace ? seconds / 2 : seconds, [&] {
    const Clock::time_point t0 = Clock::now();
    const ace::SweepResult r = ace::RunSweep(suite.name, suite.cells, options);
    const double wall = SecondsSince(t0);
    walls.push_back(wall);
    out->units.push_back(SweepUnit(r.cells, wall));
  });
  if (!trace) {
    return;
  }
  // Serial RunCell calls give per-cell host times.
  std::vector<ace::CellResult> cells;
  std::vector<double> cell_s;
  const Clock::time_point t0 = Clock::now();
  for (const ace::SweepCell& cell : suite.cells) {
    const Clock::time_point c0 = Clock::now();
    cells.push_back(ace::RunCell(cell, options.base_config));
    cell_s.push_back(SecondsSince(c0));
  }
  const double serial_wall = SecondsSince(t0);
  out->traced.push_back(SweepUnit(cells, serial_wall));

  double busy = 0, faults = 0, copies = 0, syncs = 0, moves = 0, pinned = 0, machines = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    busy += cell_s[i];
    faults += cells[i].MetricOr("page_faults", 0.0);
    copies += cells[i].MetricOr("page_copies", 0.0);
    syncs += cells[i].MetricOr("page_syncs", 0.0);
    moves += cells[i].MetricOr("ownership_moves", 0.0);
    pinned += cells[i].MetricOr("pages_pinned", 0.0);
    machines += MachinesPerCell(cells[i].cell);
  }
  // The machine shape RunCell builds for the suite's 7-thread cells.
  const BatchSpec base{"", 1.0, 0, 7, 4};
  const double wall = Median(walls);
  // Host-time gaps, policy timing, heat and sampler costs are taken on machines the
  // benchmark owns; RunCell builds its own, so on this workload they read 0.
  out->layers.Num("threads.switches_per_ref", 0)
      .Num("threads.switch_gap_ns", 0)
      .Num("machine.hit_gap_ns", 0)
      .Num("machine.tlb_hit_frac", 0)
      .Num("machine.batched_frac", 0)
      .Num("machine.shootdown_pages_per_fault", 0)
      .Num("numa.faults", faults)
      .Num("numa.fault_gap_ns", 0)
      .Num("numa.fault_gap_p99_ns", 0)
      .Num("numa.fault_share", 0)
      .Num("numa.policy_ns", 0)
      .Num("numa.copies", copies)
      .Num("numa.syncs", syncs)
      .Num("numa.moves", moves)
      .Num("numa.pinned", pinned)
      .Num("sim.machine_ctor_ms", Median(ConstructionSeconds(base)) * 1e3)
      .Num("sim.page_copy_ns", PageCopyNs(base))
      .Num("sim.copy_share", 0)
      .Num("sim.bus_util", 0)
      .Num("serving.build_ms", 0)
      .Num("serving.host_us_per_req", 0)
      .Num("serving.remote_get_frac", 0)
      .Num("obs.heat_ns_per_ref", 0)
      .Num("obs.sample_us", 0)
      .Num("sweep.busy_frac", Ratio(busy, options.workers * wall))
      .Num("sweep.longest_cell_s", *std::max_element(cell_s.begin(), cell_s.end()))
      .Num("sweep.machines", machines)
      .Num("trace.overhead", Ratio(serial_wall, busy));
}

// Simulated references of every placement run of the `full` suite, counted by
// re-running each cell through the same public experiment entry points RunCell
// uses and checking that the reproduced times equal RunCell's. Run once when
// expected.json is recorded; refs are exact for the verified simulated results.
int CountSweepRefs() {
  const ace::Suite suite = ace::MakeSuite("full");
  const ace::MachineConfig base;
  double refs_all = 0, refs_numa = 0;
  for (const ace::SweepCell& cell : suite.cells) {
    ace::ExperimentOptions options;
    options.config = base;
    options.config.num_processors = cell.threads;
    options.num_threads = cell.threads;
    options.scale = cell.scale;
    options.move_threshold = cell.move_threshold;
    options.gl_ratio = cell.gl_ratio;
    options.scheduler = cell.scheduler;
    options.tlb_verify = 0;
    const ace::CellResult reference = ace::RunCell(cell, base);
    double t_numa = 0;
    if (cell.mode == ace::CellMode::kFullExperiment) {
      const ace::ExperimentResult r = ace::RunExperiment(cell.app, options);
      t_numa = r.numa.user_sec;
      refs_numa += static_cast<double>(r.numa.stats.TotalRefs().Total());
      refs_all += static_cast<double>(r.numa.stats.TotalRefs().Total() +
                                      r.global.stats.TotalRefs().Total() +
                                      r.local.stats.TotalRefs().Total());
    } else if (cell.mode == ace::CellMode::kNumaOnly) {
      std::unique_ptr<ace::App> app = ace::CreateAppByName(cell.app);
      const ace::PlacementRun r =
          ace::RunPlacement(*app, options, ace::PolicySpec::MoveLimit(cell.move_threshold),
                            cell.threads, cell.threads);
      t_numa = r.user_sec;
      refs_numa += static_cast<double>(r.stats.TotalRefs().Total());
      refs_all += static_cast<double>(r.stats.TotalRefs().Total());
    } else {
      std::fprintf(stderr, "unexpected cell mode in %s\n", cell.Key().c_str());
      return 1;
    }
    if (t_numa != reference.MetricOr("t_numa", -1.0)) {
      std::fprintf(stderr, "cell %s: reproduced t_numa differs from RunCell\n",
                   cell.Key().c_str());
      return 1;
    }
  }
  std::printf("%s\n", JsonObject()
                          .Num("refs_all", refs_all)
                          .Num("refs_numa", refs_numa)
                          .Num("cells", static_cast<double>(suite.cells.size()))
                          .Text()
                          .c_str());
  return 0;
}

// ---------------------------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_measure --workload "
               "imatmult-local|plytrace-thrash|serving-zipf|paper-sweep\n"
               "                         --seed N --seconds S --trace 0|1\n"
               "       perfbench_measure --workload paper-sweep --count-refs\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = kDefaultServingSeed;
  double seconds = 10;
  bool trace = false;
  bool count_refs = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--count-refs") {
      count_refs = true;
      continue;
    }
    if ((v = next()) == nullptr) {
      return Usage();
    }
    char* end = nullptr;
    if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      seed = std::strtoull(v, &end, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(v, &end);
    } else if (arg == "--trace") {
      trace = std::strcmp(v, "1") == 0;
      if (!trace && std::strcmp(v, "0") != 0) {
        return Usage();
      }
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') {
      return Usage();
    }
  }
  if (std::getenv("ACE_TLB") != nullptr || std::getenv("ACE_TLB_VERIFY") != nullptr) {
    std::fprintf(stderr,
                 "perfbench: refusing to run with ACE_TLB or ACE_TLB_VERIFY set; the "
                 "benchmark pins the TLB on and its poison cross-check off\n");
    return 2;
  }
  // The sweep's machines are built by RunCell, whose only verify knob is this one.
  setenv("ACE_TLB_VERIFY", "0", 1);

  if (count_refs) {
    return workload == "paper-sweep" ? CountSweepRefs() : Usage();
  }

  Output out;
  if (workload == "imatmult-local") {
    RunMachineWorkload(kIMatMult, {0}, {0}, seconds, trace, &out);
  } else if (workload == "plytrace-thrash") {
    RunMachineWorkload(kPlyTrace, {0}, {0}, seconds, trace, &out);
  } else if (workload == "serving-zipf") {
    RunMachineWorkload(kServing, ServingSeeds(seed), ServingSeeds(kDefaultServingSeed),
                       seconds, trace, &out);
  } else if (workload == "paper-sweep") {
    RunPaperSweep(seconds, trace, &out);
  } else {
    return Usage();
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) {
    load[0] = load[1] = load[2] = -1;
  }
  std::vector<std::string> units, canary, traced;
  for (const Unit& u : out.units) {
    units.push_back(u.Json());
  }
  for (const Unit& u : out.canary) {
    canary.push_back(u.Json());
  }
  for (const Unit& u : out.traced) {
    traced.push_back(u.Json());
  }
  JsonObject mode;
  mode.Str("build_type", PERFBENCH_BUILD_TYPE)
      .Num("ace_check_invariants", PERFBENCH_CHECK_INVARIANTS)
      .Num("ace_trace", PERFBENCH_ACE_TRACE)
      .Num("tlb_verify", 0)
      .Num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Raw("loadavg", JsonNumbers({load[0], load[1], load[2]}))
      .Num("sweep_workers", workload == "paper-sweep" ? SweepWorkers() : 0)
      .Num("serving_seeds", workload == "serving-zipf" ? kServingSeeds : 0);
  JsonObject doc;
  doc.Str("workload", workload)
      .Raw("seed", std::to_string(seed))
      .Num("seconds", seconds)
      .Num("trace", trace ? 1 : 0)
      .Raw("mode", mode.Text())
      .Raw("setup_s", JsonNumbers(out.setup_s))
      .Num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0)
      .Raw("units", JsonArray(units))
      .Raw("canary", JsonArray(canary))
      .Raw("traced", JsonArray(traced))
      .Raw("layers", trace ? out.layers.Text() : "{}");
  std::printf("%s\n", doc.Text().c_str());
  return 0;
}
