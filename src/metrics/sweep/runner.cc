#include "src/metrics/sweep/runner.h"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <thread>

#include "src/apps/app.h"
#include "src/common/check.h"
#include "src/metrics/experiment.h"
#include "src/metrics/sweep/pool.h"
#include "src/metrics/sweep/report.h"
#include "src/obs/json_lite.h"

namespace ace {

namespace {

double NanIfUndefined(bool defined, double value) {
  return defined ? value : std::nan("");
}

void AppendRunCounters(const char* prefix, const PlacementRun& run,
                       std::vector<std::pair<std::string, double>>& metrics) {
  const MachineStats& s = run.stats;
  std::string p = prefix;
  metrics.emplace_back(p + "pages_pinned", static_cast<double>(s.pages_pinned));
  metrics.emplace_back(p + "page_faults", static_cast<double>(s.page_faults));
  metrics.emplace_back(p + "page_copies", static_cast<double>(s.page_copies));
  metrics.emplace_back(p + "page_syncs", static_cast<double>(s.page_syncs));
  metrics.emplace_back(p + "page_flushes", static_cast<double>(s.page_flushes));
  metrics.emplace_back(p + "ownership_moves", static_cast<double>(s.ownership_moves));
  metrics.emplace_back(p + "local_alloc_failures",
                       static_cast<double>(s.local_alloc_failures));
}

// One counter group as cell metrics, named by field and prefixed per placement run.
void AppendCounterGroup(const char* prefix, std::span<const StatsCounter> group,
                        const MachineStats& s,
                        std::vector<std::pair<std::string, double>>& metrics) {
  for (const StatsCounter& c : group) {
    metrics.emplace_back(std::string(prefix) + c.name, static_cast<double>(s.*c.field));
  }
}

ExperimentOptions OptionsForCell(const SweepCell& cell, const MachineConfig& base_config,
                                 const WatchdogLimits& watchdog, LiveSampler* sampler) {
  ExperimentOptions options;
  options.config = base_config;
  options.config.num_processors = cell.threads;
  options.num_threads = cell.threads;
  options.scale = cell.scale;
  options.move_threshold = cell.move_threshold;
  options.gl_ratio = cell.gl_ratio;
  options.scheduler = cell.scheduler;
  options.watchdog = watchdog;
  options.sampler = sampler;
  if (sampler != nullptr) {
    // Every placement run of this cell becomes one feed segment; the tag lets a
    // reader map segments back to matrix coordinates.
    options.live_tag = cell.Key();
  }
  if (!cell.fault_plan.empty()) {
    std::string error;
    ACE_CHECK_MSG(FaultPlan::Parse(cell.fault_plan, &options.fault_plan, &error),
                  "invalid fault plan in sweep cell");
    options.fault_seed = cell.fault_seed;
  }
  if (cell.mode == CellMode::kServing) {
    options.serving.tenants = cell.tenants;
    options.serving.zipf_skew = cell.zipf_skew;
    options.serving.churn_phases = cell.churn;
  }
  return options;
}

// The body of RunCell, free to throw (RunKilledError from the watchdog, anything
// from application code); RunCell converts escapes into a died result.
CellResult RunCellUnguarded(const SweepCell& cell, const MachineConfig& base_config,
                            const WatchdogLimits& watchdog, LiveSampler* sampler) {
  ExperimentOptions options = OptionsForCell(cell, base_config, watchdog, sampler);

  CellResult result;
  result.cell = cell;

  if (cell.mode == CellMode::kNumaOnly) {
    std::unique_ptr<App> app = CreateAppByName(cell.app);
    ACE_CHECK_MSG(app != nullptr, "unknown application in sweep cell");
    PlacementRun run = RunPlacement(*app, options, PolicySpec::MoveLimit(cell.move_threshold),
                                    cell.threads, cell.threads);
    result.ok = run.app.ok;
    result.detail = run.app.detail;
    result.metrics.emplace_back("t_numa", run.user_sec);
    result.metrics.emplace_back("s_numa", run.system_sec);
    result.metrics.emplace_back("measured_alpha", run.measured_alpha);
    AppendRunCounters("", run, result.metrics);
    return result;
  }

  if (cell.mode == CellMode::kRefsPerSec) {
    std::unique_ptr<App> app = CreateAppByName(cell.app);
    ACE_CHECK_MSG(app != nullptr, "unknown application in sweep cell");
    PolicySpec policy = PolicySpec::MoveLimit(cell.move_threshold);
    // Measure the production fast path, not the debug poison cross-check
    // (experiment.h). ACE_TLB_VERIFY=1 in the environment still wins.
    options.tlb_verify = 0;

    // Host wall time around the placement run. The interval includes machine
    // construction (milliseconds) — negligible at these scales.
    auto t0 = std::chrono::steady_clock::now();
    PlacementRun run = RunPlacement(*app, options, policy, cell.threads, cell.threads);
    auto t1 = std::chrono::steady_clock::now();

    double wall = std::chrono::duration<double>(t1 - t0).count();
    auto refs = static_cast<double>(run.stats.TotalRefs().Total());

    result.ok = run.app.ok;
    result.detail = run.app.detail;
    // Exact-gated (deterministic, virtual-time / counter) metrics first.
    result.metrics.emplace_back("refs", refs);
    result.metrics.emplace_back("t_numa", run.user_sec);
    result.metrics.emplace_back("s_numa", run.system_sec);
    result.metrics.emplace_back("measured_alpha", run.measured_alpha);
    AppendRunCounters("", run, result.metrics);
    // Floor-gated host throughput (baseline.h "floors").
    result.metrics.emplace_back("refs_per_sec", wall > 0.0 ? refs / wall : 0.0);
    return result;
  }

  if (cell.mode == CellMode::kServing) {
    std::unique_ptr<App> app = CreateAppByName(cell.app);
    ACE_CHECK_MSG(app != nullptr, "unknown application in sweep cell");
    // The serving comparison: the cell's move-limit configuration against the
    // all-global baseline, scored per policy on the app's latency metrics. (No
    // single-threaded Tlocal leg: an open-loop latency distribution on one shard is
    // not comparable to the sharded runs, unlike batch total user time.)
    PlacementRun numa = RunPlacement(*app, options,
                                     PolicySpec::MoveLimit(cell.move_threshold),
                                     cell.threads, cell.threads);
    PlacementRun global = RunPlacement(*app, options, PolicySpec::AllGlobal(),
                                       cell.threads, cell.threads);
    result.ok = numa.app.ok && global.app.ok;
    result.detail = numa.app.detail;
    result.metrics.emplace_back("t_numa", numa.user_sec);
    result.metrics.emplace_back("s_numa", numa.system_sec);
    result.metrics.emplace_back("t_global", global.user_sec);
    result.metrics.emplace_back("s_global", global.system_sec);
    result.metrics.emplace_back("measured_alpha", numa.measured_alpha);
    // Per-policy latency metrics: the move-limit run unprefixed, all-global "g_".
    for (const auto& [name, value] : numa.app.metrics) {
      result.metrics.emplace_back(name, value);
    }
    for (const auto& [name, value] : global.app.metrics) {
      result.metrics.emplace_back("g_" + name, value);
    }
    AppendRunCounters("", numa, result.metrics);
    AppendRunCounters("g_", global, result.metrics);
    // Chaos accounting, emitted only for cells whose plan carries chaos events so
    // chaos-free cell JSON (and its committed baselines) is byte-identical to
    // before chaos existed.
    if (!options.fault_plan.chaos.empty()) {
      AppendCounterGroup("", kChaosCounters, numa.stats, result.metrics);
      AppendCounterGroup("g_", kChaosCounters, global.stats, result.metrics);
    }
    // Recovery accounting, emitted only when the plan carries a *permanent* failure
    // (kill-node / corrupt-page) — only then is the replica manager armed — so
    // transient-chaos baselines (serving-chaos) stay byte-identical too. lost_pages
    // in a committed baseline is the no-undetected-loss contract: a nonzero drift
    // means an owned page died without a mirror or journal to restore it from.
    if (options.fault_plan.has_durable_chaos()) {
      AppendCounterGroup("", kDurabilityCounters, numa.stats, result.metrics);
      AppendCounterGroup("g_", kDurabilityCounters, global.stats, result.metrics);
    }
    return result;
  }

  ExperimentResult r = RunExperiment(cell.app, options);
  result.ok = r.AllOk();
  result.detail = r.numa.app.detail;
  result.metrics.emplace_back("t_numa", r.numa.user_sec);
  result.metrics.emplace_back("t_global", r.global.user_sec);
  result.metrics.emplace_back("t_local", r.local.user_sec);
  result.metrics.emplace_back("s_numa", r.numa.system_sec);
  result.metrics.emplace_back("s_global", r.global.system_sec);
  result.metrics.emplace_back("alpha", NanIfUndefined(r.model.alpha_defined, r.model.alpha));
  result.metrics.emplace_back("beta", r.model.beta);
  result.metrics.emplace_back("gamma", r.model.gamma);
  result.metrics.emplace_back("measured_alpha", r.numa.measured_alpha);
  result.metrics.emplace_back("model_gl", r.gl_ratio);
  AppendRunCounters("", r.numa, result.metrics);
  return result;
}

// SplitMix64 (same generator the fault injector uses): deterministic backoff jitter.
std::uint64_t SplitMix64Next(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Fnv1a64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

CellResult DiedResult(const SweepCell& cell, std::string kind, std::string detail) {
  CellResult result;
  result.cell = cell;
  result.ok = false;
  result.failure_kind = std::move(kind);
  result.failure_detail = std::move(detail);
  result.detail = result.failure_kind;
  return result;
}

}  // namespace

WatchdogLimits ScaledWatchdog(const WatchdogLimits& base, const SweepCell& cell) {
  WatchdogLimits scaled = base;
  if (base.deadline_ns > 0) {
    double factor = cell.scale > 0.05 ? cell.scale : 0.05;
    scaled.deadline_ns = static_cast<TimeNs>(static_cast<double>(base.deadline_ns) * factor);
  }
  return scaled;
}

CellResult RunCell(const SweepCell& cell, const MachineConfig& base_config,
                   const WatchdogLimits& watchdog, LiveSampler* sampler) {
  try {
    return RunCellUnguarded(cell, base_config, watchdog, sampler);
  } catch (const RunKilledError& killed) {
    return DiedResult(cell, killed.reason(), killed.diagnostics());
  } catch (const std::exception& e) {
    return DiedResult(cell, "exception", e.what());
  }
}

CellResult RunCellForked(const SweepCell& cell, const MachineConfig& base_config,
                         const WatchdogLimits& watchdog) {
  int pipefd[2];
  if (pipe(pipefd) != 0) {
    return DiedResult(cell, "fork-failed", "pipe() failed");
  }
  pid_t pid = fork();
  if (pid < 0) {
    close(pipefd[0]);
    close(pipefd[1]);
    return DiedResult(cell, "fork-failed", "fork() failed");
  }
  if (pid == 0) {
    // Child: run the cell and ship { "cell": <cell object>, "detail": "..." } up the
    // pipe. An abort anywhere below never reaches the parent's state.
    close(pipefd[0]);
    CellResult result = RunCell(cell, base_config, watchdog);
    std::string payload = "{\"cell\":";
    payload += SerializeCellObject(result);
    payload += ",\"detail\":";
    payload += '"';
    for (char c : result.detail) {
      switch (c) {
        case '"': payload += "\\\""; break;
        case '\\': payload += "\\\\"; break;
        case '\n': payload += "\\n"; break;
        case '\t': payload += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            payload += buf;
          } else {
            payload += c;
          }
      }
    }
    payload += "\"}";
    std::size_t off = 0;
    while (off < payload.size()) {
      ssize_t n = write(pipefd[1], payload.data() + off, payload.size() - off);
      if (n <= 0) {
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    close(pipefd[1]);
    _exit(0);
  }
  // Parent: drain the pipe, then reap.
  close(pipefd[1]);
  std::string payload;
  char buf[4096];
  ssize_t n;
  while ((n = read(pipefd[0], buf, sizeof buf)) > 0) {
    payload.append(buf, static_cast<std::size_t>(n));
  }
  close(pipefd[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFSIGNALED(status)) {
    int sig = WTERMSIG(status);
    return DiedResult(cell, "signal:" + std::to_string(sig),
                      std::string("forked cell child killed by signal ") +
                          std::to_string(sig) + " (" + strsignal(sig) + ")");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return DiedResult(cell, "child-exit:" + std::to_string(WEXITSTATUS(status)),
                      "forked cell child exited abnormally");
  }
  JsonValue doc;
  std::string error;
  CellResult result;
  const JsonValue* cell_obj = nullptr;
  if (!ParseJson(payload, &doc, &error) || !doc.is_object() ||
      (cell_obj = doc.Find("cell")) == nullptr) {
    return DiedResult(cell, "bad-child-payload",
                      "forked cell child returned an unparseable payload: " + error);
  }
  if (!ParseCellObject(*cell_obj, &result, &error)) {
    return DiedResult(cell, "bad-child-payload",
                      "forked cell child payload rejected: " + error);
  }
  result.detail = doc.StringOr("detail", "");
  return result;
}

SweepResult RunSweep(const std::string& suite_name, const std::vector<SweepCell>& cells,
                     const SweepOptions& options) {
  SweepResult result;
  result.suite = suite_name;
  result.base_config = options.base_config;
  result.cells.resize(cells.size());

  // A live sampler writes one sequential stream, so sampled sweeps serialize onto a
  // single worker regardless of the requested width (the tool warns about this).
  WorkStealingPool pool(options.sampler != nullptr ? 1 : options.workers);
  std::atomic<std::size_t> done{0};
  std::atomic<bool> quarantined_any{false};
  const ResilienceOptions& res = options.resilience;
  int max_attempts = res.max_attempts > 0 ? res.max_attempts : 1;

  auto start = std::chrono::steady_clock::now();
  WorkStealingPool::RunStats pool_stats = pool.Run(cells.size(), [&](std::size_t i) {
    const SweepCell& cell = cells[i];
    CellResult& slot = result.cells[i];
    std::string key = cell.Key();

    const CellResult* resumed = nullptr;
    if (options.resumed != nullptr) {
      auto it = options.resumed->find(key);
      if (it != options.resumed->end()) {
        resumed = &it->second;
      }
    }
    if (resumed != nullptr) {
      slot = *resumed;
      slot.from_checkpoint = true;
    } else if (res.fail_fast && quarantined_any.load(std::memory_order_relaxed)) {
      slot = CellResult{};
      slot.cell = cell;
      slot.failure_kind = "skipped-fail-fast";
      slot.failure_detail = "not started: an earlier cell was quarantined under --fail-fast";
      slot.detail = slot.failure_kind;
    } else {
      WatchdogLimits limits = ScaledWatchdog(res.watchdog, cell);
      std::uint64_t jitter_state = Fnv1a64(key);
      int attempt = 1;
      for (;; ++attempt) {
        slot = res.isolate ? RunCellForked(cell, options.base_config, limits)
                           : RunCell(cell, options.base_config, limits, options.sampler);
        if (!slot.died() || attempt >= max_attempts) {
          break;
        }
        if (res.backoff_ms > 0) {
          // Linear backoff with deterministic +-50% jitter per (cell, attempt).
          double base = static_cast<double>(res.backoff_ms) * attempt;
          double frac = static_cast<double>(SplitMix64Next(jitter_state) >> 11) *
                        (1.0 / 9007199254740992.0);  // [0,1)
          auto sleep_ms = static_cast<std::int64_t>(base * (0.5 + frac));
          std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
        }
      }
      slot.attempts = attempt;
      if (slot.died()) {
        quarantined_any.store(true, std::memory_order_relaxed);
      }
    }

    std::size_t completed = done.fetch_add(1, std::memory_order_relaxed) + 1;
    if (options.progress != nullptr) {
      options.progress(options.progress_ctx, slot, completed, cells.size());
    }
  });
  auto end = std::chrono::steady_clock::now();

  // Quarantine list, in cell order (assembled after the barrier: no locking).
  for (const CellResult& cell : result.cells) {
    if (cell.died()) {
      CellFailure failure;
      failure.key = cell.cell.Key();
      failure.kind = cell.failure_kind;
      failure.detail = cell.failure_detail;
      failure.attempts = cell.attempts;
      result.failures.push_back(std::move(failure));
    }
  }

  result.host.workers = pool.num_workers();
  result.host.wall_seconds = std::chrono::duration<double>(end - start).count();
  result.host.runs_per_second = result.host.wall_seconds > 0.0
                                    ? static_cast<double>(cells.size()) / result.host.wall_seconds
                                    : 0.0;
  result.host.steals = pool_stats.steals;
  for (const CellResult& cell : result.cells) {
    // Every placement's user+system time contributes to the serial simulated cost.
    result.host.simulated_seconds += cell.MetricOr("t_numa", 0.0) +
                                     cell.MetricOr("s_numa", 0.0) +
                                     cell.MetricOr("t_global", 0.0) +
                                     cell.MetricOr("s_global", 0.0) +
                                     cell.MetricOr("t_local", 0.0);
  }
  return result;
}

}  // namespace ace
