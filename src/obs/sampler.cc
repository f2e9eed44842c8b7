#include "src/obs/sampler.h"

#include <algorithm>
#include <cstdio>

#include "src/common/check.h"

namespace ace {

namespace {

void AppendU64(std::string* out, const char* key, std::uint64_t v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, ",\"%s\":%llu", key, (unsigned long long)v);
  *out += buf;
}

void AppendI64(std::string* out, const char* key, std::int64_t v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, ",\"%s\":%lld", key, (long long)v);
  *out += buf;
}

void AppendStr(std::string* out, const char* key, const std::string& v) {
  *out += ",\"";
  *out += key;
  *out += "\":\"";
  *out += JsonEscape(v);
  *out += "\"";
}

}  // namespace

std::uint64_t LiveSample::TlbHits() const {
  std::uint64_t t = 0;
  for (std::uint64_t h : tlb_hits_by_proc) {
    t += h;
  }
  return t;
}

std::uint64_t LiveSample::TlbMisses() const {
  std::uint64_t t = 0;
  for (std::uint64_t m : tlb_misses_by_proc) {
    t += m;
  }
  return t;
}

void FlattenLiveCounters(const LiveSample& s, std::uint64_t out[kNumLiveCounters]) {
  // The enum lists the reference totals, then kStatsCounters, in this order.
  static_assert(static_cast<std::size_t>(kLcTlbHits) ==
                std::size(kRefCounters) + std::size(kStatsCounters));
  int i = 0;
  const ProcRefCounts t = s.stats.TotalRefs();
  for (const auto& c : kRefCounters) {
    out[i++] = t.*c.field;
  }
  for (const StatsCounter& c : kStatsCounters) {
    out[i++] = s.stats.*c.field;
  }
  out[kLcTlbHits] = s.TlbHits();
  out[kLcTlbMisses] = s.TlbMisses();
  out[kLcDecLocal] = s.decisions[0];
  out[kLcDecGlobal] = s.decisions[1];
  out[kLcDecRemote] = s.decisions[2];
  out[kLcTraceEmitted] = s.trace_emitted;
  out[kLcTraceDropped] = s.trace_dropped;
  out[kLcUserNs] = static_cast<std::uint64_t>(s.user_ns);
  out[kLcSystemNs] = static_cast<std::uint64_t>(s.system_ns);
  out[kLcDeadNodes] = s.dead_nodes;
}

void LiveSampler::BeginRun(LiveRunMeta meta) {
  ACE_CHECK_MSG(capture_ != nullptr, "live sampler: no capture source bound");
  ACE_CHECK(options_.interval_ns > 0);
  meta_ = std::move(meta);
  meta_.tool = options_.tool;
  meta_.sample_interval_ns = options_.interval_ns;

  sample_idx_ = 0;
  segments_++;
  prev_ = LiveSample{};
  capture_(capture_ctx_, &prev_);  // baseline the first sample diffs against
  FlattenLiveCounters(prev_, base_);
  last_ts_ = prev_.max_clock_ns;
  next_due_ = (last_ts_ / options_.interval_ns + 1) * options_.interval_ns;
  last_traffic_ = prev_.stats.ownership_moves + prev_.stats.page_syncs;
  running_ = true;

  if (sink_ != nullptr) {
    std::string line = "{\"type\":\"meta\",\"format\":\"";
    line += kLiveFeedFormat;
    line += "\"";
    AppendU64(&line, "version", kLiveFeedVersion);
    AppendStr(&line, "tool", meta_.tool);
    AppendStr(&line, "app", meta_.app);
    AppendStr(&line, "policy", meta_.policy);
    AppendU64(&line, "procs", static_cast<std::uint64_t>(meta_.procs));
    AppendU64(&line, "threads", static_cast<std::uint64_t>(meta_.threads));
    AppendU64(&line, "pages", meta_.pages);
    AppendU64(&line, "page_size", meta_.page_size);
    AppendU64(&line, "seed", meta_.seed);
    AppendStr(&line, "fault_plan", meta_.fault_plan);
    AppendI64(&line, "sample_interval_ns", meta_.sample_interval_ns);
    AppendStr(&line, "tag", meta_.tag);
    line += "}";
    sink_->WriteLine(line);
  }
}

void LiveSampler::Sample(TimeNs now) {
  EmitSample(now, /*force=*/false);
  next_due_ = (now / options_.interval_ns + 1) * options_.interval_ns;
}

void LiveSampler::EmitSample(TimeNs ts, bool force) {
  LiveSample cur;
  capture_(capture_ctx_, &cur);
  if (ts < 0) {
    ts = cur.max_clock_ns;  // end-of-run flush: stamp with the run's final clock
  }
  if (ts < last_ts_) {
    ts = last_ts_;  // never regress (captures between boundaries share a stamp)
  }
  last_traffic_ = cur.stats.ownership_moves + cur.stats.page_syncs;

  std::uint64_t pc[kNumLiveCounters];
  std::uint64_t cc[kNumLiveCounters];
  FlattenLiveCounters(prev_, pc);
  FlattenLiveCounters(cur, cc);
  bool changed = false;
  for (int i = 0; i < kNumLiveCounters; ++i) {
    changed = changed || cc[i] != pc[i];
  }
  if (!changed && !force) {
    // Quiet interval: no record (sum-of-deltas is unaffected), but the baseline
    // still advances so a later sample's duration stays honest.
    prev_ = std::move(cur);
    last_ts_ = ts;
    return;
  }

  if (sink_ != nullptr) {
    std::string line = "{\"type\":\"sample\"";
    AppendU64(&line, "idx", sample_idx_);
    AppendI64(&line, "ts_ns", ts);
    AppendI64(&line, "dur_ns", ts - last_ts_);
    for (int i = 0; i < kNumLiveCounters; ++i) {
      AppendU64(&line, LiveCounterKey(i), cc[i] - pc[i]);
    }
    // Cumulative drop count rides along so a reader can spot ring wrap without
    // re-summing the whole segment.
    AppendU64(&line, "trace_dropped_total", cur.trace_dropped);

    // Per-processor reference + TLB deltas: [fl, fg, fr, sl, sg, sr, hits, misses].
    line += ",\"procs\":[";
    for (int p = 0; p < meta_.procs; ++p) {
      const std::size_t i = static_cast<std::size_t>(p);
      const ProcRefCounts& a = prev_.stats.refs[i];
      const ProcRefCounts& b = cur.stats.refs[i];
      std::uint64_t ph = i < prev_.tlb_hits_by_proc.size() ? prev_.tlb_hits_by_proc[i] : 0;
      std::uint64_t pm =
          i < prev_.tlb_misses_by_proc.size() ? prev_.tlb_misses_by_proc[i] : 0;
      std::uint64_t ch = i < cur.tlb_hits_by_proc.size() ? cur.tlb_hits_by_proc[i] : 0;
      std::uint64_t cm = i < cur.tlb_misses_by_proc.size() ? cur.tlb_misses_by_proc[i] : 0;
      char buf[192];
      std::snprintf(buf, sizeof buf, "%s[%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu]",
                    p == 0 ? "" : ",",
                    (unsigned long long)(b.fetch_local - a.fetch_local),
                    (unsigned long long)(b.fetch_global - a.fetch_global),
                    (unsigned long long)(b.fetch_remote - a.fetch_remote),
                    (unsigned long long)(b.store_local - a.store_local),
                    (unsigned long long)(b.store_global - a.store_global),
                    (unsigned long long)(b.store_remote - a.store_remote),
                    (unsigned long long)(ch - ph), (unsigned long long)(cm - pm));
      line += buf;
    }
    line += "]";

    // Hot pages of the interval: [lp, local, global, remote, state], ranked by
    // off-node delta (the numatop ranking applied to the interval, not the run).
    if (cur.have_heat && options_.hot_pages > 0) {
      struct HotRow {
        std::uint32_t lp;
        std::uint64_t l, g, r, state;
      };
      std::vector<HotRow> rows;
      for (std::size_t lp = 0; lp < cur.page_refs.size(); ++lp) {
        const auto& c = cur.page_refs[lp];
        const std::uint64_t pl = lp < prev_.page_refs.size() ? prev_.page_refs[lp][0] : 0;
        const std::uint64_t pg = lp < prev_.page_refs.size() ? prev_.page_refs[lp][1] : 0;
        const std::uint64_t pr = lp < prev_.page_refs.size() ? prev_.page_refs[lp][2] : 0;
        if (c[0] == pl && c[1] == pg && c[2] == pr) {
          continue;
        }
        rows.push_back(HotRow{static_cast<std::uint32_t>(lp), c[0] - pl, c[1] - pg,
                              c[2] - pr, c[3]});
      }
      std::stable_sort(rows.begin(), rows.end(), [](const HotRow& a, const HotRow& b) {
        const std::uint64_t oa = a.g + a.r;
        const std::uint64_t ob = b.g + b.r;
        if (oa != ob) {
          return oa > ob;
        }
        const std::uint64_t ta = oa + a.l;
        const std::uint64_t tb = ob + b.l;
        if (ta != tb) {
          return ta > tb;
        }
        return a.lp < b.lp;
      });
      if (rows.size() > options_.hot_pages) {
        rows.resize(options_.hot_pages);
      }
      line += ",\"hot\":[";
      for (std::size_t i = 0; i < rows.size(); ++i) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "%s[%u,%llu,%llu,%llu,%llu]", i == 0 ? "" : ",",
                      rows[i].lp, (unsigned long long)rows[i].l,
                      (unsigned long long)rows[i].g, (unsigned long long)rows[i].r,
                      (unsigned long long)rows[i].state);
        line += buf;
      }
      line += "]";
    }
    line += "}";
    sink_->WriteLine(line);
  }

  sample_idx_++;
  total_samples_++;
  prev_ = std::move(cur);
  last_ts_ = ts;
}

void LiveSampler::EndRun(const std::string& outcome) {
  if (!running_) {
    return;
  }
  // Flush whatever accumulated since the last boundary so the segment's deltas sum
  // exactly to the end-of-run counters.
  EmitSample(/*ts=*/-1, /*force=*/false);

  if (sink_ != nullptr) {
    std::uint64_t cc[kNumLiveCounters];
    FlattenLiveCounters(prev_, cc);
    std::string line = "{\"type\":\"summary\"";
    AppendU64(&line, "samples", sample_idx_);
    AppendI64(&line, "ts_ns", last_ts_);
    AppendStr(&line, "outcome", outcome);
    for (int i = 0; i < kNumLiveCounters; ++i) {
      // Relative to the BeginRun baseline: exactly the sum of the segment's sample
      // deltas, which is what the validator checks.
      AppendU64(&line, LiveCounterKey(i), cc[i] - base_[i]);
    }
    AppendU64(&line, "trace_dropped_total", prev_.trace_dropped);
    char buf[64];
    std::snprintf(buf, sizeof buf, ",\"alpha\":%.9f", prev_.stats.MeasuredAlpha());
    line += buf;
    line += "}";
    sink_->WriteLine(line);
    sink_->SyncToDisk();  // a completed segment survives a crash of the harness
  }
  running_ = false;
}

}  // namespace ace
