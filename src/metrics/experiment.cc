#include "src/metrics/experiment.h"

#include "src/common/check.h"
#include "src/obs/sampler.h"
#include "src/threads/watchdog.h"

namespace ace {

MachineConfig EffectiveConfig(const ExperimentOptions& options) {
  MachineConfig config = options.config;
  if (options.gl_ratio > 0.0) {
    config.latency.global_fetch_ns =
        static_cast<TimeNs>(config.latency.local_fetch_ns * options.gl_ratio);
    config.latency.global_store_ns =
        static_cast<TimeNs>(config.latency.local_store_ns * options.gl_ratio);
  }
  return config;
}

PlacementRun RunPlacement(App& app, const ExperimentOptions& options, PolicySpec policy,
                          int num_processors, int num_threads) {
  Machine::Options mo;
  mo.config = EffectiveConfig(options);
  mo.config.num_processors = num_processors;
  mo.policy = policy;
  mo.bus.model_contention = options.bus_contention;
  mo.fault_plan = options.fault_plan;
  mo.fault_seed = options.fault_seed;
  mo.tlb_verify = options.tlb_verify;
  Machine machine(mo);
  if (options.watchdog.enabled()) {
    machine.observability().EnableTracing();
  }

  AppConfig cfg;
  cfg.num_threads = num_threads;
  cfg.scale = options.scale;
  cfg.variant = options.variant;
  cfg.runtime.scheduler = options.scheduler;
  cfg.runtime.watchdog = options.watchdog;
  cfg.serving = options.serving;

  if (options.sampler != nullptr) {
    // One feed segment per placement run. Heat profiling feeds the sampler's
    // hot-page and policy-decision columns; it forces per-reference recording but
    // changes no counter, clock, or app result (the obs equivalence tests prove it).
    machine.observability().EnableHeat();
    options.sampler->SetSource(&Machine::LiveCaptureThunk, &machine);
    LiveRunMeta meta;
    meta.app = app.name();
    meta.policy = policy.Name();
    meta.procs = num_processors;
    meta.threads = num_threads;
    meta.pages = mo.config.global_pages;
    meta.page_size = mo.config.page_size;
    meta.seed = options.fault_seed;
    meta.fault_plan = options.fault_plan.Format();
    meta.tag = options.live_tag;
    options.sampler->BeginRun(std::move(meta));
    cfg.runtime.sampler = options.sampler;
  }

  PlacementRun run;
  try {
    run.app = app.Run(machine, cfg);
  } catch (const RunKilledError& e) {
    if (options.sampler != nullptr) {
      options.sampler->EndRun(e.reason());  // "watchdog-deadline" | "watchdog-livelock"
    }
    throw;
  } catch (...) {
    if (options.sampler != nullptr) {
      options.sampler->EndRun("exception");
    }
    throw;
  }
  if (options.sampler != nullptr) {
    options.sampler->EndRun(run.app.ok ? "ok" : "failed");
  }
  run.user_sec = static_cast<double>(machine.clocks().TotalUser()) * 1e-9;
  run.system_sec = static_cast<double>(machine.clocks().TotalSystem()) * 1e-9;
  run.stats = machine.stats();
  run.measured_alpha = machine.stats().MeasuredAlpha();
  run.pages_pinned = machine.stats().pages_pinned;
  return run;
}

ExperimentResult RunExperiment(const std::string& app_name, const ExperimentOptions& options) {
  std::unique_ptr<App> app = CreateAppByName(app_name);
  ACE_CHECK_MSG(app != nullptr, "unknown application");

  ExperimentResult result;
  result.app_name = app_name;
  result.gl_ratio = app->ModelGL(EffectiveConfig(options).latency);

  // Tnuma: the automatic policy with the configured move threshold.
  result.numa = RunPlacement(*app, options, PolicySpec::MoveLimit(options.move_threshold),
                             options.config.num_processors, options.num_threads);
  // Tglobal: all data pages in global memory.
  result.global = RunPlacement(*app, options, PolicySpec::AllGlobal(),
                               options.config.num_processors, options.num_threads);
  // Tlocal: one thread on a one-processor machine; with a single processor the
  // automatic policy never moves a page, so all data stays local.
  result.local = RunPlacement(*app, options, PolicySpec::MoveLimit(options.move_threshold),
                              /*num_processors=*/1, /*num_threads=*/1);

  result.model = SolveModel(result.numa.user_sec, result.global.user_sec,
                            result.local.user_sec, result.gl_ratio);
  return result;
}

}  // namespace ace
