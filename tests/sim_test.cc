// Unit tests for src/sim: latency model, machine config, physical memory, clocks, bus.

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/bus.h"
#include "src/sim/clocks.h"
#include "src/sim/machine_config.h"
#include "src/sim/physical_memory.h"
#include "src/sim/stats.h"

namespace ace {
namespace {

TEST(LatencyModel, PaperDefaults) {
  LatencyModel lat;
  EXPECT_EQ(lat.Cost(MemoryClass::kLocal, AccessKind::kFetch), 650);
  EXPECT_EQ(lat.Cost(MemoryClass::kLocal, AccessKind::kStore), 840);
  EXPECT_EQ(lat.Cost(MemoryClass::kGlobal, AccessKind::kFetch), 1500);
  EXPECT_EQ(lat.Cost(MemoryClass::kGlobal, AccessKind::kStore), 1400);
}

TEST(LatencyModel, PaperRatios) {
  LatencyModel lat;
  EXPECT_NEAR(lat.FetchRatio(), 2.31, 0.01);
  // "about 2 times slower for reference mixes that are 45% stores"
  EXPECT_NEAR(lat.MixRatio(0.45), 2.0, 0.05);
  // store-only ratio ~1.67 ("1.7 times slower on stores")
  EXPECT_NEAR(lat.MixRatio(1.0), 1.67, 0.01);
}

TEST(LatencyModel, RemoteSlowerThanGlobal) {
  LatencyModel lat;
  EXPECT_GT(lat.Cost(MemoryClass::kRemote, AccessKind::kFetch),
            lat.Cost(MemoryClass::kGlobal, AccessKind::kFetch));
}

TEST(MachineConfig, PageShift) {
  MachineConfig config;
  config.page_size = 4096;
  EXPECT_EQ(config.PageShift(), 12u);
  config.page_size = 2048;
  EXPECT_EQ(config.PageShift(), 11u);
  EXPECT_EQ(config.WordsPerPage(), 512u);
}

TEST(MachineConfig, ValidateAcceptsDefaults) {
  MachineConfig config;
  config.Validate();  // must not abort
}

TEST(MachineConfigDeath, RejectsBadProcessorCount) {
  MachineConfig config;
  config.num_processors = 0;
  EXPECT_DEATH(config.Validate(), "ACE_CHECK");
  config.num_processors = kMaxProcessors + 1;
  EXPECT_DEATH(config.Validate(), "ACE_CHECK");
}

TEST(MachineConfigDeath, RejectsNonPowerOfTwoPage) {
  MachineConfig config;
  config.page_size = 3000;
  EXPECT_DEATH(config.Validate(), "ACE_CHECK");
}

MachineConfig SmallConfig() {
  MachineConfig config;
  config.num_processors = 2;
  config.global_pages = 8;
  config.local_pages_per_proc = 4;
  return config;
}

TEST(PhysicalMemory, LocalAllocExhaustsAndRecycles) {
  PhysicalMemory phys(SmallConfig());
  EXPECT_EQ(phys.FreeLocalFrames(0), 4u);
  std::vector<FrameRef> frames;
  for (int i = 0; i < 4; ++i) {
    FrameRef f = phys.AllocLocal(0);
    ASSERT_TRUE(f.valid());
    EXPECT_EQ(f.node, 0);
    frames.push_back(f);
  }
  EXPECT_FALSE(phys.AllocLocal(0).valid());  // exhausted
  EXPECT_EQ(phys.FreeLocalFrames(0), 0u);
  // The other processor's local memory is unaffected.
  EXPECT_EQ(phys.FreeLocalFrames(1), 4u);
  phys.FreeLocal(frames[2]);
  FrameRef again = phys.AllocLocal(0);
  EXPECT_TRUE(again.valid());
  EXPECT_EQ(again.index, frames[2].index);
}

TEST(PhysicalMemory, WordReadWriteRoundTrip) {
  PhysicalMemory phys(SmallConfig());
  FrameRef g = FrameRef::Global(3);
  phys.WriteWord(g, 128, 0xabcd1234);
  EXPECT_EQ(phys.ReadWord(g, 128), 0xabcd1234u);
  EXPECT_EQ(phys.ReadWord(g, 132), 0u);  // fresh memory is zeroed
}

TEST(PhysicalMemory, CopyPageMovesBytesAndCharges) {
  MachineConfig config = SmallConfig();
  PhysicalMemory phys(config);
  FrameRef g = FrameRef::Global(0);
  FrameRef l = phys.AllocLocal(1);
  for (std::uint32_t w = 0; w < config.WordsPerPage(); ++w) {
    phys.WriteWord(g, w * 4, w * 7);
  }
  // Copier is processor 1: fetch global + store local per word.
  TimeNs cost = phys.CopyPage(g, l, 1);
  TimeNs expected = static_cast<TimeNs>(config.WordsPerPage()) *
                    (config.latency.global_fetch_ns + config.latency.local_store_ns);
  EXPECT_EQ(cost, expected);
  for (std::uint32_t w = 0; w < config.WordsPerPage(); ++w) {
    EXPECT_EQ(phys.ReadWord(l, w * 4), w * 7);
  }
}

TEST(PhysicalMemory, CopyLocalToGlobalCost) {
  MachineConfig config = SmallConfig();
  PhysicalMemory phys(config);
  FrameRef l = phys.AllocLocal(0);
  TimeNs cost = phys.CopyPage(l, FrameRef::Global(1), 0);
  TimeNs expected = static_cast<TimeNs>(config.WordsPerPage()) *
                    (config.latency.local_fetch_ns + config.latency.global_store_ns);
  EXPECT_EQ(cost, expected);
}

TEST(PhysicalMemory, CopyEfficiencyScalesCost) {
  MachineConfig config = SmallConfig();
  config.kernel.copy_efficiency = 0.25;
  PhysicalMemory phys(config);
  FrameRef l = phys.AllocLocal(0);
  TimeNs cost = phys.CopyPage(FrameRef::Global(0), l, 0);
  TimeNs full = static_cast<TimeNs>(config.WordsPerPage()) *
                (config.latency.global_fetch_ns + config.latency.local_store_ns);
  EXPECT_EQ(cost, full / 4);
}

TEST(PhysicalMemory, ZeroPage) {
  MachineConfig config = SmallConfig();
  PhysicalMemory phys(config);
  FrameRef l = phys.AllocLocal(0);
  phys.WriteWord(l, 0, 42);
  TimeNs cost = phys.ZeroPage(l, 0);
  EXPECT_EQ(cost, static_cast<TimeNs>(config.WordsPerPage()) * config.latency.local_store_ns);
  EXPECT_EQ(phys.ReadWord(l, 0), 0u);
}

// --- lazily zeroed frame region --------------------------------------------------

// Every slab of `phys` as (first frame, last frame).
std::vector<std::pair<FrameRef, FrameRef>> Slabs(const PhysicalMemory& phys, int procs) {
  std::vector<std::pair<FrameRef, FrameRef>> slabs = {
      {FrameRef::Global(0), FrameRef::Global(phys.global_pages() - 1)}};
  for (int p = 0; p < procs; ++p) {
    slabs.push_back({FrameRef::Local(p, 0), FrameRef::Local(p, phys.local_pages_per_proc() - 1)});
  }
  return slabs;
}

bool FrameIsAll(const PhysicalMemory& phys, FrameRef frame, std::uint8_t byte) {
  const std::uint8_t* data = phys.FrameData(frame);
  for (std::uint32_t i = 0; i < phys.page_size(); ++i) {
    if (data[i] != byte) {
      return false;
    }
  }
  return true;
}

// This process's memory from /proc/self/statm, in bytes.
struct ProcessMemory {
  std::size_t virtual_bytes = 0;   // VmSize
  std::size_t resident_bytes = 0;  // VmRSS
};

ProcessMemory ReadProcessMemory() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size = 0;
  std::size_t resident = 0;
  statm >> size >> resident;
  EXPECT_TRUE(statm) << "unreadable /proc/self/statm";
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return {size * page, resident * page};
}

TEST(PhysicalMemory, HugeSlabsCostOnlyWhatIsTouched) {
  MachineConfig config;
  config.num_processors = 8;
  config.global_pages = 65536;          // 256 MiB
  config.local_pages_per_proc = 32768;  // 8 x 128 MiB
  const std::size_t before = ReadProcessMemory().resident_bytes;
  const auto t0 = std::chrono::steady_clock::now();
  auto phys = std::make_unique<PhysicalMemory>(config);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::milliseconds(200));
  for (const auto& [first, last] : Slabs(*phys, config.num_processors)) {
    EXPECT_TRUE(FrameIsAll(*phys, first, 0));
    EXPECT_TRUE(FrameIsAll(*phys, last, 0));
  }
  const std::size_t after = ReadProcessMemory().resident_bytes;
  EXPECT_LT(after, before + (std::size_t{64} << 20))
      << "1.25 GiB of slabs made " << (after - before) / 1024 << " KiB resident";
}

TEST(PhysicalMemory, FirstAndLastFrameOfEverySlabReadZero) {
  for (std::uint32_t page_size : {64u, 4096u, 8192u}) {
    MachineConfig config;
    config.page_size = page_size;
    config.global_pages = 5;
    config.local_pages_per_proc = 3;
    PhysicalMemory phys(config);
    for (const auto& [first, last] : Slabs(phys, config.num_processors)) {
      EXPECT_TRUE(FrameIsAll(phys, first, 0)) << page_size;
      EXPECT_TRUE(FrameIsAll(phys, last, 0)) << page_size;
    }
  }
}

TEST(PhysicalMemory, UntouchedFramesRoundTrip) {
  MachineConfig config;
  PhysicalMemory phys(config);
  const FrameRef g = FrameRef::Global(config.global_pages - 1);
  phys.WriteWord(g, config.page_size - kWordBytes, 0x5eed);
  EXPECT_EQ(phys.ReadWord(g, config.page_size - kWordBytes), 0x5eedu);
  EXPECT_EQ(phys.ReadWord(g, 0), 0u);

  // Copy into an untouched frame, and copy an untouched frame over a written one.
  const FrameRef l0 = FrameRef::Local(0, config.local_pages_per_proc - 1);
  phys.CopyPage(g, l0, 0);
  EXPECT_EQ(phys.ReadWord(l0, config.page_size - kWordBytes), 0x5eedu);
  phys.CopyPage(FrameRef::Global(7), l0, 0);
  EXPECT_TRUE(FrameIsAll(phys, l0, 0));

  const FrameRef l1 = FrameRef::Local(1, 5);
  phys.ZeroPage(l1, 1);
  EXPECT_TRUE(FrameIsAll(phys, l1, 0));
  phys.WriteWord(l1, 64, 9);
  phys.ZeroPage(l1, 1);
  EXPECT_TRUE(FrameIsAll(phys, l1, 0));

  // Poison reaches both ends of the dead slab and nothing beyond it.
  const int last = config.num_processors - 1;
  phys.PoisonLocal(last, 0xDE);
  EXPECT_TRUE(FrameIsAll(phys, FrameRef::Local(last, 0), 0xDE));
  EXPECT_TRUE(FrameIsAll(phys, FrameRef::Local(last, config.local_pages_per_proc - 1), 0xDE));
  EXPECT_TRUE(FrameIsAll(phys, FrameRef::Local(last - 1, config.local_pages_per_proc - 1), 0));
  EXPECT_EQ(phys.ReadWord(g, config.page_size - kWordBytes), 0x5eedu);
}

// The region is unmapped on destruction. (Leak checkers do not track mmap regions, so
// this is the check that a machine gives its frames back.)
TEST(PhysicalMemory, ConstructDestroyCyclesReturnTheRegion) {
  const MachineConfig config;  // ~80 MB of slabs: one leaked region breaks the bound
  const std::size_t before = ReadProcessMemory().virtual_bytes;
  for (int i = 0; i < 64; ++i) {
    PhysicalMemory phys(config);
    phys.WriteWord(FrameRef::Local(i % config.num_processors, 0), 0, 1);
  }
  const std::size_t after = ReadProcessMemory().virtual_bytes;
  EXPECT_LT(after, before + (std::size_t{64} << 20))
      << "VmSize grew by " << (after - before) / 1024 << " KiB";
}

// Each slab ends flush against a guard page, so a write one word past its last frame
// faults even in builds where FrameOffset's DCHECKs are compiled out.
TEST(PhysicalMemoryDeath, WritePastTheLastFrameOfASlabDies) {
  for (std::uint32_t page_size : {64u, 4096u}) {
    MachineConfig config = SmallConfig();
    config.page_size = page_size;
    PhysicalMemory phys(config);
    for (const auto& slab : Slabs(phys, config.num_processors)) {
      const FrameRef last = slab.second;
      auto* past = reinterpret_cast<volatile std::uint32_t*>(phys.FrameData(last) + page_size);
      EXPECT_DEATH(*past = 1, "") << "node " << last.node << ", page size " << page_size;
    }
  }
}

TEST(FrameRef, ClassFor) {
  EXPECT_EQ(FrameRef::Global(0).ClassFor(2), MemoryClass::kGlobal);
  EXPECT_EQ(FrameRef::Local(2, 0).ClassFor(2), MemoryClass::kLocal);
  EXPECT_EQ(FrameRef::Local(1, 0).ClassFor(2), MemoryClass::kRemote);
}

TEST(ProcClocks, UserSystemIdleSplit) {
  ProcClocks clocks(3);
  clocks.ChargeUser(0, 100);
  clocks.ChargeSystem(0, 40);
  clocks.ChargeIdle(0, 7);
  EXPECT_EQ(clocks.user_ns(0), 100);
  EXPECT_EQ(clocks.system_ns(0), 40);
  EXPECT_EQ(clocks.now(0), 147);  // now includes idle...
  EXPECT_EQ(clocks.TotalUser(), 100);  // ...but the paper's totals do not
  EXPECT_EQ(clocks.TotalSystem(), 40);
  clocks.ChargeUser(2, 5);
  EXPECT_EQ(clocks.TotalUser(), 105);
  clocks.Reset();
  EXPECT_EQ(clocks.now(0), 0);
}

TEST(IpcBus, TracksTrafficAndUtilization) {
  IpcBus bus;
  EXPECT_EQ(bus.Utilization(), 0.0);
  // 80 MB over 1 second on an 80 MB/s bus = 100% utilization.
  bus.RecordTransfer(80'000'000, 1'000'000'000);
  EXPECT_NEAR(bus.Utilization(), 1.0, 1e-9);
  EXPECT_EQ(bus.transactions(), 1u);
  EXPECT_EQ(bus.DilationFactor(), 1.0);  // contention modeling off by default
  bus.Reset();
  EXPECT_EQ(bus.total_bytes(), 0u);
}

TEST(IpcBus, ContentionDilatesPastSaturation) {
  IpcBus::Options options;
  options.model_contention = true;
  options.saturation_point = 0.5;
  IpcBus bus(options);
  bus.RecordTransfer(20'000'000, 1'000'000'000);  // 25% utilization
  EXPECT_EQ(bus.DilationFactor(), 1.0);
  bus.RecordTransfer(40'000'000, 1'000'000'000);  // 75% utilization
  EXPECT_GT(bus.DilationFactor(), 1.0);
}

TEST(MachineStats, MeasuredAlpha) {
  MachineStats stats;
  EXPECT_EQ(stats.MeasuredAlpha(), 1.0);  // vacuously local
  stats.RecordRef(0, MemoryClass::kLocal, AccessKind::kFetch);
  stats.RecordRef(0, MemoryClass::kLocal, AccessKind::kStore);
  stats.RecordRef(1, MemoryClass::kGlobal, AccessKind::kFetch);
  stats.RecordRef(1, MemoryClass::kGlobal, AccessKind::kStore);
  EXPECT_NEAR(stats.MeasuredAlpha(), 0.5, 1e-9);
  ProcRefCounts total = stats.TotalRefs();
  EXPECT_EQ(total.Total(), 4u);
  EXPECT_EQ(total.fetch_local, 1u);
  EXPECT_EQ(total.store_global, 1u);
}

TEST(MachineStats, PerProcessorCounts) {
  MachineStats stats;
  stats.RecordRef(3, MemoryClass::kRemote, AccessKind::kFetch);
  EXPECT_EQ(stats.refs[3].fetch_remote, 1u);
  EXPECT_EQ(stats.refs[0].Total(), 0u);
}

}  // namespace
}  // namespace ace
