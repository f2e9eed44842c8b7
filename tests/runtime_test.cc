// Unit tests for the fiber runtime: deterministic scheduling, affinity, migration,
// timeslicing, the dispatcher's pick and its pinned dispatch order, and the SimSpan
// accessors.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/machine/machine.h"
#include "src/threads/runtime.h"
#include "src/threads/sim_span.h"

namespace ace {
namespace {

Machine::Options SmallMachine(int procs) {
  Machine::Options mo;
  mo.config.num_processors = procs;
  mo.config.global_pages = 64;
  mo.config.local_pages_per_proc = 32;
  return mo;
}

TEST(Runtime, ThreadsStartOnAffinityProcessors) {
  Machine m(SmallMachine(4));
  Task* t = m.CreateTask("t");
  std::vector<ProcId> procs(6, kNoProc);
  Runtime rt(&m, t);
  rt.Run(6, [&](int tid, Env& env) {
    procs[static_cast<std::size_t>(tid)] = env.proc();
    env.Compute(100);
  });
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(procs[static_cast<std::size_t>(i)], i % 4);
  }
}

TEST(Runtime, MinTimeSchedulingInterleavesFairly) {
  // Two threads on different processors doing equal work must end with equal clocks.
  Machine m(SmallMachine(2));
  Task* t = m.CreateTask("t");
  Runtime rt(&m, t);
  rt.Run(2, [&](int, Env& env) {
    for (int i = 0; i < 100; ++i) {
      env.Compute(1000);
    }
  });
  EXPECT_EQ(m.clocks().user_ns(0), m.clocks().user_ns(1));
}

TEST(Runtime, CausalityAcrossThreads) {
  // A value stored by thread 0 "before" (in virtual time) thread 1 reads it must be
  // visible: min-time dispatch guarantees reads happen at clocks >= the writer's.
  Machine m(SmallMachine(2));
  Task* t = m.CreateTask("t");
  VirtAddr flag = t->MapAnonymous("flag", 4096);
  VirtAddr data = t->MapAnonymous("data", 4096);
  std::uint32_t observed = 0;
  Runtime rt(&m, t);
  rt.Run(2, [&](int tid, Env& env) {
    if (tid == 0) {
      env.Store(data, 99);
      env.Store(flag, 1);
    } else {
      while (env.Load(flag) == 0) {
        env.Compute(500);
      }
      observed = env.Load(data);
    }
  });
  EXPECT_EQ(observed, 99u);
}

TEST(Runtime, VoluntaryYieldDoesNotAdvanceTime) {
  Machine m(SmallMachine(2));
  Task* t = m.CreateTask("t");
  Runtime rt(&m, t);
  rt.Run(1, [&](int, Env& env) {
    env.Yield();
    env.Yield();
  });
  EXPECT_EQ(m.clocks().TotalUser(), 0);
}

TEST(Runtime, MultipleThreadsPerProcessorTimeslice) {
  // 3 threads on 1 processor: all must finish, sharing the single clock.
  Machine m(SmallMachine(1));
  Task* t = m.CreateTask("t");
  std::vector<int> done(3, 0);
  Runtime rt(&m, t);
  rt.Run(3, [&](int tid, Env& env) {
    for (int i = 0; i < 50; ++i) {
      env.Compute(10'000);
    }
    done[static_cast<std::size_t>(tid)] = 1;
  });
  EXPECT_EQ(done, (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(m.clocks().user_ns(0), 3 * 50 * 10'000);
}

TEST(Runtime, MigratingSchedulerMoves) {
  Machine m(SmallMachine(4));
  Task* t = m.CreateTask("t");
  Runtime::Options options;
  options.scheduler = SchedulerKind::kMigrating;
  options.migrate_quantum_ns = 100'000;
  Runtime rt(&m, t, options);
  std::vector<ProcId> seen;
  rt.Run(1, [&](int, Env& env) {
    for (int i = 0; i < 100; ++i) {
      env.Compute(10'000);
      if (seen.empty() || seen.back() != env.proc()) {
        seen.push_back(env.proc());
      }
    }
  });
  EXPECT_GT(rt.migrations(), 0u);
  EXPECT_GT(seen.size(), 1u);  // actually ran on several processors
}

TEST(Runtime, AffinitySchedulerNeverMigrates) {
  Machine m(SmallMachine(4));
  Task* t = m.CreateTask("t");
  Runtime rt(&m, t);
  rt.Run(4, [&](int tid, Env& env) {
    for (int i = 0; i < 20; ++i) {
      env.Compute(50'000);
      EXPECT_EQ(env.proc(), tid % 4);
    }
  });
  EXPECT_EQ(rt.migrations(), 0u);
}

TEST(Runtime, SequentialRunsOnSameRuntime) {
  Machine m(SmallMachine(2));
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("p", 4096);
  Runtime rt(&m, t);
  rt.Run(2, [&](int tid, Env& env) { env.Store(va + static_cast<VirtAddr>(tid) * 4, 1); });
  rt.Run(2, [&](int tid, Env& env) {
    env.Store(va + static_cast<VirtAddr>(tid) * 4, env.Load(va + static_cast<VirtAddr>(tid) * 4) + 1);
  });
  EXPECT_EQ(m.DebugRead(*t, va), 2u);
  EXPECT_EQ(m.DebugRead(*t, va + 4), 2u);
}

TEST(SimSpan, ProxyReadsAndWrites) {
  Machine m(SmallMachine(1));
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("p", 4096);
  Runtime rt(&m, t);
  rt.Run(1, [&](int, Env& env) {
    SimSpan<std::int32_t> ints(env, va, 8);
    ints[0] = -5;
    ints[1] = ints.Get(0);          // proxy-to-proxy copy through simulated memory
    ints[2] = ints.Get(0) + 7;
    ints[3] = 100;
    ints[3] += 1;
    ints[3] -= 3;
    EXPECT_EQ(ints.Get(1), -5);
    EXPECT_EQ(ints.Get(2), 2);
    EXPECT_EQ(ints.Get(3), 98);

    SimSpan<float> floats(env, va + 64, 4);
    floats[0] = 1.5f;
    floats[1] = floats.Get(0) * 2.0f;
    EXPECT_FLOAT_EQ(floats.Get(1), 3.0f);

    SimSpan<std::int32_t> sub = ints.Sub(2, 2);
    EXPECT_EQ(sub.Get(0), 2);
    EXPECT_EQ(sub.size(), 2u);
  });
}

TEST(Runtime, ContextSwitchesAreCounted) {
  Machine m(SmallMachine(2));
  Task* t = m.CreateTask("t");
  Runtime rt(&m, t);
  rt.Run(2, [&](int, Env& env) {
    for (int i = 0; i < 10; ++i) {
      env.Compute(1000);
    }
  });
  EXPECT_GE(rt.context_switches(), 2u);  // at least each thread dispatched once
}

// FNV-1a over the (tid, processor clock) pair observed after every Env op.
struct DispatchTrace {
  std::uint64_t ops = 0;
  std::uint64_t hash = 14695981039346656037ull;

  void Mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 1099511628211ull;
    }
  }
  void Note(Env& env) {
    Mix(static_cast<std::uint64_t>(env.tid()));
    Mix(static_cast<std::uint64_t>(env.machine().clocks().now(env.proc())));
    ops++;
  }
};

TEST(Runtime, DispatchOrderIsPinned) {
  // The exact interleaving the min-clock dispatcher produces, pinned per scheduling
  // shape. Any change to the pick, its tie-break or its deadline moves these.
  using Body = std::function<void(int, Env&, VirtAddr, DispatchTrace&)>;
  struct Config {
    const char* name;
    int procs;
    int threads;
    Runtime::Options options;
    Body body;
    // Recorded on the two-scan dispatcher (a pick scan, then a separate deadline
    // scan) that the one-pass PickNext replaced.
    std::uint64_t ops;
    std::uint64_t hash;  // FNV-1a of the (tid, clock) sequence
    std::uint64_t dispatches;
  };
  Runtime::Options affinity;
  Runtime::Options migrating;
  migrating.scheduler = SchedulerKind::kMigrating;
  migrating.migrate_quantum_ns = 30'000;
  // Loads, stores and computes over a shared page: `ops(tid)` rounds, `cost(tid, i)`
  // picks each round's compute charge.
  auto mixed = [](auto ops, auto cost) -> Body {
    return [ops, cost](int tid, Env& env, VirtAddr va, DispatchTrace& trace) {
      for (int i = 0; i < ops(tid); ++i) {
        VirtAddr word = va + static_cast<VirtAddr>(((tid * 7 + i) % 64) * 4);
        env.Store(word, env.Load(word) + 1);
        trace.Note(env);
        env.Compute(cost(tid, i));
        trace.Note(env);
      }
    };
  };
  auto rounds = [](int n) { return [n](int) { return n; }; };
  const Body migrate_to_occupied = [](int tid, Env& env, VirtAddr va, DispatchTrace& trace) {
    for (int i = 0; i < 40; ++i) {
      if (tid == 0 && i == 10) {
        env.MigrateTo(1, /*move_pages=*/true);  // onto thread 1's processor
        trace.Note(env);
      }
      env.Store(va + static_cast<VirtAddr>(tid) * 4, static_cast<std::uint32_t>(i));
      trace.Note(env);
      env.Compute(1500 * (tid + 1));
      trace.Note(env);
    }
  };
  const std::vector<Config> configs = {
      {"one-thread", 2, 1, affinity,
       mixed(rounds(40), [](int, int i) { return 1000 * (i % 3); }),
       80, 0x38a151cc998580f3ull, 121},
      {"three-on-one-proc", 1, 3, affinity,
       mixed(rounds(60), [](int tid, int) { return 100'000 * (tid + 1); }),
       360, 0xdf00e3c778e4b2b5ull, 69},
      // Zero and unequal compute costs: clocks on the two processors tie often.
      {"five-on-two-procs-ties", 2, 5, affinity,
       mixed(rounds(50),
             [](int tid, int i) { return (tid + i) % 2 == 0 ? 0 : 1000 * (tid % 2 + 1); }),
       500, 0x29a913c816c93db1ull, 159},
      {"migrating", 4, 3, migrating,
       mixed(rounds(80), [](int tid, int) { return 2000 + 500 * tid; }),
       480, 0x05a6d80ea41a4810ull, 592},
      {"migrate-to-occupied", 3, 3, affinity, migrate_to_occupied,
       241, 0x3c0e05afa763c23eull, 72},
      {"early-finisher", 2, 4, affinity,
       mixed([](int tid) { return tid == 1 ? 3 : 30; },
             [](int tid, int) { return 1000 * (tid + 1); }),
       186, 0xf62aacd2455d9e40ull, 97},
  };
  for (const Config& config : configs) {
    SCOPED_TRACE(config.name);
    Machine m(SmallMachine(config.procs));
    Task* t = m.CreateTask("t");
    VirtAddr va = t->MapAnonymous("p", 4096);
    DispatchTrace trace;
    Runtime rt(&m, t, config.options);
    rt.Run(config.threads, [&](int tid, Env& env) { config.body(tid, env, va, trace); });
    EXPECT_EQ(trace.ops, config.ops);
    EXPECT_EQ(trace.hash, config.hash);
    EXPECT_EQ(rt.context_switches(), config.dispatches);
  }
}

// The two-scan dispatcher the one-pass PickNext replaced, kept verbatim as the oracle:
// pick the earliest (clock, seq) unfinished fiber, then scan again for its deadline.
class TwoScanOracle {
 public:
  struct Fiber {
    struct {
      ProcId proc_;
    } env;
    bool finished = false;
    std::uint64_t seq = 0;
  };
  struct {
    TimeNs timeslice_ns;
  } options_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<TimeNs> clocks_;

  TimeNs ProcNow(ProcId proc) const { return clocks_[static_cast<std::size_t>(proc)]; }

  int PickNext() const {
    int best = -1;
    TimeNs best_clock = 0;
    std::uint64_t best_seq = 0;
    for (std::size_t i = 0; i < fibers_.size(); ++i) {
      const Fiber& f = *fibers_[i];
      if (f.finished) {
        continue;
      }
      TimeNs clock = ProcNow(f.env.proc_);
      if (best < 0 || clock < best_clock || (clock == best_clock && f.seq < best_seq)) {
        best = static_cast<int>(i);
        best_clock = clock;
        best_seq = f.seq;
      }
    }
    return best;
  }

  TimeNs DeadlineFor(int chosen) const {
    const Fiber& me = *fibers_[static_cast<std::size_t>(chosen)];
    TimeNs deadline = -1;
    for (std::size_t i = 0; i < fibers_.size(); ++i) {
      if (static_cast<int>(i) == chosen) {
        continue;
      }
      const Fiber& f = *fibers_[i];
      if (f.finished) {
        continue;
      }
      TimeNs t;
      if (f.env.proc_ == me.env.proc_) {
        // Sharing our processor: the peer's notional time advances with ours; bound our
        // run by a timeslice so it is not starved.
        t = ProcNow(me.env.proc_) + options_.timeslice_ns;
      } else {
        t = ProcNow(f.env.proc_);
      }
      if (deadline < 0 || t < deadline) {
        deadline = t;
      }
    }
    return deadline;
  }
};

TEST(PickNext, MatchesTwoScanOracleExhaustively) {
  // Every case with 1-4 live fibers on 1-3 processors: every fiber-to-processor
  // binding, clocks in {0, 1, 2} per processor, every seq order, three timeslices.
  // Covers the lone fiber (deadline -1), shared processors (the timeslice cap) and
  // equal clocks on different processors (the seq tie-break). The live array is fed
  // both in tid order and reversed: the pick must not depend on its order.
  std::uint64_t cases = 0;
  for (int procs = 1; procs <= 3; ++procs) {
    for (int n = 1; n <= 4; ++n) {
      int bindings = 1;
      for (int i = 0; i < n; ++i) {
        bindings *= procs;
      }
      int clock_sets = 1;
      for (int p = 0; p < procs; ++p) {
        clock_sets *= 3;
      }
      for (int b = 0; b < bindings; ++b) {
        std::vector<ProcId> proc_of(static_cast<std::size_t>(n));
        std::vector<int> live_on_proc(static_cast<std::size_t>(procs), 0);
        for (int i = 0, code = b; i < n; ++i, code /= procs) {
          proc_of[static_cast<std::size_t>(i)] = static_cast<ProcId>(code % procs);
          live_on_proc[static_cast<std::size_t>(code % procs)]++;
        }
        for (int c = 0; c < clock_sets; ++c) {
          std::vector<TimeNs> clocks(static_cast<std::size_t>(procs));
          for (int p = 0, code = c; p < procs; ++p, code /= 3) {
            clocks[static_cast<std::size_t>(p)] = code % 3;
          }
          std::vector<std::uint64_t> seqs(static_cast<std::size_t>(n));
          for (int i = 0; i < n; ++i) {
            seqs[static_cast<std::size_t>(i)] = static_cast<std::uint64_t>(100 + i);
          }
          do {
            for (TimeNs timeslice : {TimeNs{0}, TimeNs{1}, TimeNs{3}}) {
              TwoScanOracle oracle;
              oracle.options_.timeslice_ns = timeslice;
              oracle.clocks_ = clocks;
              std::vector<LiveFiber> live;
              for (int i = 0; i < n; ++i) {
                auto f = std::make_unique<TwoScanOracle::Fiber>();
                f->env.proc_ = proc_of[static_cast<std::size_t>(i)];
                f->seq = seqs[static_cast<std::size_t>(i)];
                oracle.fibers_.push_back(std::move(f));
                live.push_back({seqs[static_cast<std::size_t>(i)],
                                proc_of[static_cast<std::size_t>(i)], i});
              }
              const int want = oracle.PickNext();
              const TimeNs want_deadline = oracle.DeadlineFor(want);
              for (int reversed = 0; reversed < 2; ++reversed) {
                if (reversed == 1) {
                  std::reverse(live.begin(), live.end());
                }
                DispatchPick got =
                    PickNext(live, clocks.data(), live_on_proc.data(), timeslice);
                ASSERT_EQ(live[static_cast<std::size_t>(got.slot)].tid, want)
                    << "procs=" << procs << " n=" << n << " binding=" << b
                    << " clocks=" << c << " timeslice=" << timeslice;
                ASSERT_EQ(got.deadline, want_deadline)
                    << "procs=" << procs << " n=" << n << " binding=" << b
                    << " clocks=" << c << " timeslice=" << timeslice;
                cases++;
              }
            }
          } while (std::next_permutation(seqs.begin(), seqs.end()));
        }
      }
    }
  }
  // sum over procs P and fibers n of P^n bindings * 3^P clock sets * n! seq orders,
  // times 3 timeslices and 2 array orders.
  EXPECT_EQ(cases, 369036u);
}

}  // namespace
}  // namespace ace
