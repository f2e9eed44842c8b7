// Differential equivalence suite: batched fast-path accounting changes NOTHING
// observable.
//
// A fast-path hit normally extends a per-processor run of same-page, same-kind
// references that is committed to the clocks, MachineStats and the bus as one block
// (Machine::FlushRefRun). Attaching a reference observer — even a no-op one, through
// the public Machine::SetRefObserver — forces every hit to be charged and recorded
// immediately instead. Every application in the paper's Table 3 suite runs under
// every placement policy both ways, and the results must be byte-identical: virtual
// user and system times, the complete MachineStats, measured alpha, the derived model
// parameters α/β/γ, and the probe counters. Any divergence — one reference
// misclassified, one cost charged differently, one counter recorded in a different
// order — fails here with the field named.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/machine/machine.h"
#include "src/metrics/experiment.h"
#include "src/metrics/model.h"

namespace ace {
namespace {

// The three placements the paper's measurement procedure uses (section 3.1).
struct NamedPolicy {
  const char* name;
  PolicySpec spec;
};

std::vector<NamedPolicy> Policies() {
  return {
      {"move-limit", PolicySpec::MoveLimit(4)},
      {"all-global", PolicySpec::AllGlobal()},
      {"all-local", PolicySpec::AllLocal()},
  };
}

constexpr int kProcs = 4;
constexpr double kScale = 0.25;

void NoopObserver(void*, ProcId, VirtAddr, AccessKind, MemoryClass) {}

struct Outcome {
  AppResult app;
  TimeNs user_ns = 0;
  TimeNs system_ns = 0;
  MachineStats stats;
  TlbStats tlb;
};

// One application run on a fresh machine, configured as RunPlacement does.
Outcome RunOnce(const std::string& app_name, PolicySpec policy, int procs, bool immediate) {
  Machine::Options mo;
  mo.config.num_processors = procs;
  mo.policy = policy;
  Machine machine(mo);
  if (immediate) {
    machine.SetRefObserver(&NoopObserver, nullptr);
  }
  AppConfig cfg;
  cfg.num_threads = procs;
  cfg.scale = kScale;
  std::unique_ptr<App> app = CreateAppByName(app_name);
  Outcome run;
  run.app = app->Run(machine, cfg);
  run.user_ns = machine.clocks().TotalUser();
  run.system_ns = machine.clocks().TotalSystem();
  run.stats = machine.stats();
  run.tlb = machine.tlb_stats();
  return run;
}

// Field-by-field comparison with the divergent field named in the failure message.
void ExpectRunsIdentical(const Outcome& batched, const Outcome& immediate,
                         const std::string& label) {
  EXPECT_EQ(batched.app.ok, immediate.app.ok) << label;
  EXPECT_EQ(batched.app.detail, immediate.app.detail) << label;
  EXPECT_EQ(batched.app.metrics, immediate.app.metrics) << label << " app metrics";
  EXPECT_EQ(batched.user_ns, immediate.user_ns) << label << " user_ns";
  EXPECT_EQ(batched.system_ns, immediate.system_ns) << label << " system_ns";
  EXPECT_EQ(batched.stats.MeasuredAlpha(), immediate.stats.MeasuredAlpha())
      << label << " measured_alpha";
  for (const StatsCounter& c : kStatsCounters) {
    EXPECT_EQ(batched.stats.*c.field, immediate.stats.*c.field) << label << " " << c.name;
  }
  ASSERT_EQ(batched.stats.refs.size(), immediate.stats.refs.size()) << label;
  for (std::size_t p = 0; p < batched.stats.refs.size(); ++p) {
    EXPECT_EQ(batched.stats.refs[p], immediate.stats.refs[p]) << label << " proc " << p;
  }
  EXPECT_TRUE(batched.stats == immediate.stats) << label << " MachineStats";
  // How references were served is independent of how they were accounted.
  EXPECT_EQ(batched.tlb.hits, immediate.tlb.hits) << label << " hits";
  EXPECT_EQ(batched.tlb.misses, immediate.tlb.misses) << label << " misses";
  EXPECT_EQ(batched.tlb.shootdown_pages, immediate.tlb.shootdown_pages)
      << label << " shootdown_pages";
}

// One app under one policy, both ways. The batched run must actually have batched,
// and the observed run must not have, for the comparison to mean anything.
void RunDifferential(const std::string& app_name, const NamedPolicy& policy) {
  Outcome batched = RunOnce(app_name, policy.spec, kProcs, /*immediate=*/false);
  Outcome immediate = RunOnce(app_name, policy.spec, kProcs, /*immediate=*/true);

  std::string label = app_name + "/" + policy.name;
  EXPECT_TRUE(batched.app.ok) << label;
  // ParMult under all-local makes a handful of scattered references — zero batched
  // references is legitimate there, and the comparison below still bites.
  if (batched.stats.TotalRefs().Total() >= 100) {
    EXPECT_GT(batched.tlb.batched_refs, 0u) << label << ": batching never engaged";
    EXPECT_GT(immediate.tlb.hits, 0u) << label << ": fast path never engaged";
  }
  EXPECT_EQ(immediate.tlb.batched_refs, 0u) << label << ": observed run batched";
  ExpectRunsIdentical(batched, immediate, label);
}

// --- every app x every policy -------------------------------------------------------

class TlbEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(TlbEquivalence, CountersAndTimesIdenticalUnderAllPolicies) {
  for (const NamedPolicy& policy : Policies()) {
    RunDifferential(GetParam(), policy);
  }
}

std::vector<std::string> AllAppNames() {
  std::vector<std::string> names;
  for (const AppFactory& f : AllAppFactories()) {
    names.push_back(f()->name());
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllApps, TlbEquivalence, ::testing::ValuesIn(AllAppNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// --- model parameters (alpha / beta / gamma) ----------------------------------------

// The paper's three placements, solved into α/β/γ both ways. The batched leg is also
// tied to the production entry point: it must reproduce RunExperiment exactly.
TEST(TlbEquivalenceModel, DerivedModelParametersIdentical) {
  for (const char* app : {"IMatMult", "Primes3"}) {
    const double gl = CreateAppByName(app)->ModelGL(MachineConfig{}.latency);
    ModelParams model[2];
    for (bool immediate : {false, true}) {
      Outcome numa = RunOnce(app, PolicySpec::MoveLimit(4), kProcs, immediate);
      Outcome global = RunOnce(app, PolicySpec::AllGlobal(), kProcs, immediate);
      Outcome local = RunOnce(app, PolicySpec::MoveLimit(4), 1, immediate);
      model[immediate ? 1 : 0] =
          SolveModel(static_cast<double>(numa.user_ns) * 1e-9,
                     static_cast<double>(global.user_ns) * 1e-9,
                     static_cast<double>(local.user_ns) * 1e-9, gl);
    }
    EXPECT_EQ(model[0].alpha_defined, model[1].alpha_defined) << app;
    if (model[0].alpha_defined) {
      EXPECT_EQ(model[0].alpha, model[1].alpha) << app;
    }
    EXPECT_EQ(model[0].beta, model[1].beta) << app;
    EXPECT_EQ(model[0].gamma, model[1].gamma) << app;

    ExperimentOptions options;
    options.num_threads = kProcs;
    options.config.num_processors = kProcs;
    options.scale = kScale;
    ExperimentResult reference = RunExperiment(app, options);
    EXPECT_EQ(reference.model.beta, model[0].beta) << app;
    EXPECT_EQ(reference.model.gamma, model[0].gamma) << app;
  }
}

}  // namespace
}  // namespace ace
