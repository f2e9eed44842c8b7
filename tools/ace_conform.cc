// Differential conformance checker for the NUMA cache protocol.
//
// Drives NumaManager and the executable reference model (src/conformance) with the
// same seeded random operation stream and compares the full observable state after
// every operation. On divergence the stream is shrunk to a minimal repro and printed.
//
// Typical runs:
//   ace_conform --seed 7 --ops 12000                  # all shipped policies
//   ace_conform --policy move-limit --threshold 1     # pin-happy variant
//   ace_conform --policy move-limit --plan skip-sync@always --expect-divergence
//
// --plan takes a fault-plan string (src/inject/fault_plan.h grammar) armed on the
// real side only; any schedule that fires must surface as a divergence. --seed also
// seeds the plan's probability schedules.
//
// To reproduce a reported divergence, re-run with the printed seed and policy; the
// shrink is deterministic and prints the same minimal operation sequence.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/conformance/differ.h"
#include "src/obs/snapshot.h"

namespace {

struct Options {
  std::uint64_t seed = 1;
  std::size_t ops = 12000;
  std::string policy = "all";
  int threshold = 4;
  std::string plan;
  int durability = -1;  // -1 = derived from the seed, 0/1 forced
  bool expect_divergence = false;
  bool quiet = false;
};

// The per-seed durability flip (ConformConfig::durability): half of all seeds arm the
// ReplicaManager and mix kill-node / corrupt-page operations into the stream, so
// sweeps continuously exercise the recovery transitions too. SplitMix64-style mix so
// neighboring seeds don't all land on the same side.
bool DeriveDurability(std::uint64_t seed) {
  std::uint64_t z = (seed + 0xbf58476d1ce4e5b9ULL) * 0x94d049bb133111ebULL;
  return ((z ^ (z >> 31)) & 1) != 0;
}

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--ops N] [--policy move-limit|remote-home|"
               "all-global|all-local|all]\n"
               "          [--threshold N] [--plan FAULT-PLAN]\n"
               "          [--durability|--no-durability] [--expect-divergence] [--quiet]\n"
               "  --durability / --no-durability\n"
               "                    force the durability substrate (kill-node and\n"
               "                    corrupt-page operations) on or off (default: flipped\n"
               "                    pseudo-randomly per seed)\n",
               argv0);
  std::exit(2);
}

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      opt->seed = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--ops") {
      opt->ops = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--policy") {
      opt->policy = next();
    } else if (arg == "--threshold") {
      opt->threshold = std::atoi(next());
    } else if (arg == "--plan") {
      opt->plan = next();
    } else if (arg == "--durability") {
      opt->durability = 1;
    } else if (arg == "--no-durability") {
      opt->durability = 0;
    } else if (arg == "--expect-divergence") {
      opt->expect_divergence = true;
    } else if (arg == "--quiet") {
      opt->quiet = true;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    Usage(argv[0]);
  }

  ace::FaultPlan plan;
  if (!opt.plan.empty()) {
    std::string error;
    if (!ace::FaultPlan::Parse(opt.plan, &plan, &error)) {
      std::fprintf(stderr, "bad --plan: %s\n", error.c_str());
      return 2;
    }
  }

  std::vector<ace::RefModel::PolicyKind> kinds;
  if (opt.policy == "all") {
    kinds = {ace::RefModel::PolicyKind::kMoveLimit, ace::RefModel::PolicyKind::kRemoteHome,
             ace::RefModel::PolicyKind::kAllGlobal, ace::RefModel::PolicyKind::kAllLocal};
  } else if (opt.policy == "move-limit") {
    kinds = {ace::RefModel::PolicyKind::kMoveLimit};
  } else if (opt.policy == "remote-home") {
    kinds = {ace::RefModel::PolicyKind::kRemoteHome};
  } else if (opt.policy == "all-global") {
    kinds = {ace::RefModel::PolicyKind::kAllGlobal};
  } else if (opt.policy == "all-local") {
    kinds = {ace::RefModel::PolicyKind::kAllLocal};
  } else {
    Usage(argv[0]);
  }

  bool failed = false;
  for (ace::RefModel::PolicyKind kind : kinds) {
    ace::ConformConfig config;
    config.policy = kind;
    config.move_threshold = opt.threshold;
    config.plan = plan;
    config.fault_seed = opt.seed;
    config.durability = opt.durability < 0 ? DeriveDurability(opt.seed) : opt.durability != 0;

    std::vector<ace::ConformOp> ops = ace::GenerateOps(config, opt.seed, opt.ops);
    ace::MachineStats stats;
    std::optional<ace::Divergence> d = ace::RunOps(config, ops, &stats);
    std::string name = ace::PolicyKindName(kind);

    if (!d.has_value()) {
      if (opt.expect_divergence) {
        std::printf("policy %s: %zu ops, NO divergence but one was expected\n", name.c_str(),
                    ops.size());
        failed = true;
      } else if (!opt.quiet) {
        std::printf("policy %s: %zu ops, no divergence (seed %llu, durability %s)\n",
                    name.c_str(), ops.size(), static_cast<unsigned long long>(opt.seed),
                    config.durability ? "on" : "off");
        std::printf("  %s\n", ace::FormatProtocolCounters(stats).c_str());
      }
      continue;
    }

    std::printf(
        "policy %s: DIVERGENCE at op %zu (seed %llu, threshold %d, plan %s, durability %s)\n",
        name.c_str(), d->op_index, static_cast<unsigned long long>(opt.seed), opt.threshold,
        opt.plan.empty() ? "-" : opt.plan.c_str(), config.durability ? "on" : "off");
    std::printf("  %s\n", d->what.c_str());
    std::vector<ace::ConformOp> repro = ace::ShrinkOps(config, std::move(ops));
    std::printf("shrunk repro (%zu ops):\n", repro.size());
    for (std::size_t i = 0; i < repro.size(); ++i) {
      std::printf("  [%zu] %s\n", i, ace::FormatOp(repro[i]).c_str());
    }
    std::printf(
        "rerun: ace_conform --seed %llu --ops %zu --policy %s --threshold %d %s%s%s\n",
        static_cast<unsigned long long>(opt.seed), opt.ops, name.c_str(), opt.threshold,
        config.durability ? "--durability" : "--no-durability",
        opt.plan.empty() ? "" : " --plan ", opt.plan.empty() ? "" : opt.plan.c_str());
    if (!opt.expect_divergence) {
      failed = true;
    }
  }

  return failed ? 1 : 0;
}
