// IPC bus accounting.
//
// The ACE's Inter-Processor Communication bus is 32 bits wide at 80 Mbyte/s (paper
// section 2.2). The paper's applications "had to be relatively free of lock, bus or
// memory contention" (section 3.1), so the default model only *accounts* for traffic
// (utilization statistics) without perturbing reference timing. A simple contention
// model can be enabled for sensitivity studies: when the offered load over the
// observation window exceeds the configured capacity, global references are dilated
// proportionally.

#ifndef SRC_SIM_BUS_H_
#define SRC_SIM_BUS_H_

#include <cstdint>

#include "src/common/check.h"
#include "src/common/types.h"

namespace ace {

class IpcBus {
 public:
  struct Options {
    // Bytes/second the bus can sustain. 80 MB/s per the ACE spec.
    double capacity_bytes_per_sec = 80.0e6;
    // When true, DilationFactor() grows once utilization exceeds `saturation_point`.
    bool model_contention = false;
    double saturation_point = 0.75;
  };

  IpcBus() = default;
  explicit IpcBus(Options options) : options_(options) {}

  // Record a bus transaction of `bytes` occurring at processor-virtual time `now`.
  void RecordTransfer(std::uint64_t bytes, TimeNs now) {
    total_bytes_ += bytes;
    transactions_ += 1;
    if (now > horizon_ns_) {
      horizon_ns_ = now;
    }
  }

  // Record a run of `count` transactions of `bytes_each`, the last of which completed
  // at `now` (the reference fast path's batched accounting). Totals are integer sums and the
  // horizon is a running max over per-processor-monotone clocks, so one block record
  // leaves every counter exactly as `count` individual RecordTransfer calls would
  // have. Only valid when contention modeling is off: a dilating bus must see each
  // transaction as it happens.
  void RecordTransferBlock(std::uint64_t bytes_each, std::uint64_t count, TimeNs now) {
    ACE_DCHECK(!options_.model_contention);
    total_bytes_ += bytes_each * count;
    transactions_ += count;
    if (now > horizon_ns_) {
      horizon_ns_ = now;
    }
  }

  std::uint64_t total_bytes() const { return total_bytes_; }
  std::uint64_t transactions() const { return transactions_; }

  // Mean utilization over the run so far: offered bytes / (capacity * elapsed).
  double Utilization() const {
    if (horizon_ns_ <= 0) {
      return 0.0;
    }
    double elapsed_sec = static_cast<double>(horizon_ns_) * 1e-9;
    return static_cast<double>(total_bytes_) / (options_.capacity_bytes_per_sec * elapsed_sec);
  }

  // Multiplier applied to global-reference latency when contention modeling is on.
  double DilationFactor() const {
    if (!options_.model_contention) {
      return 1.0;
    }
    double u = Utilization();
    if (u <= options_.saturation_point) {
      return 1.0;
    }
    // Linear dilation past the saturation point; crude but monotone and bounded-input.
    return 1.0 + (u - options_.saturation_point) / (1.0 - options_.saturation_point);
  }

  const Options& options() const { return options_; }

  void Reset() {
    total_bytes_ = 0;
    transactions_ = 0;
    horizon_ns_ = 0;
  }

 private:
  Options options_{};
  std::uint64_t total_bytes_ = 0;
  std::uint64_t transactions_ = 0;
  TimeNs horizon_ns_ = 0;
};

}  // namespace ace

#endif  // SRC_SIM_BUS_H_
