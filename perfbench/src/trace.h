// Trace arithmetic for the per-layer run: pairs span events into
// intervals, computes self time (a span's duration minus the part of it
// its same-thread child spans cover), maps spans onto the repository's
// layers, and takes counter deltas between obs snapshots.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"

namespace perfbench {

// One closed span.  Times are microseconds on the CLOCK_MONOTONIC axis.
struct SpanRecord {
  std::string name;
  std::uint64_t tid = 0;
  int depth = 0;
  double start_us = 0.0;
  double end_us = 0.0;
  double self_us = 0.0;  // duration minus same-thread child coverage
  double duration_us() const { return end_us - start_us; }
};

// Pairs kSpanBegin/kSpanEnd per thread (events of one thread arrive in
// emission order).  Durations come from the end event's measured seconds;
// spans still open when the events were drained are dropped.
std::vector<SpanRecord> pair_spans(const std::vector<oasys::obs::TraceEvent>& events);

// Layer a span belongs to, by module: "synth", "testbench", "spice.dc",
// "spice.ac", "spice.tran", "yield", "service", "serve", or "other".
// Benchmark spans are named "bench/<public call>".
std::string layer_of(std::string_view span_name);

// Accumulated time split of one traced run.
struct LayerAccount {
  std::map<std::string, double> self_us;  // by layer
  struct Calls {
    std::uint64_t count = 0;
    double total_us = 0.0;
  };
  std::map<std::string, Calls> calls;  // by span name
  // Busy time of lanes other than the calling thread: for each helper
  // thread, the extent of its root spans inside one calling-thread span.
  // The gaps inside that extent are the fan-out's own work and count as
  // self time of the enclosing span's layer.
  double helper_lane_us = 0.0;
};

// Adds one drained batch of events.  `caller_tid` is the thread whose
// spans frame the batch (the benchmark's own thread); every other
// thread's root spans are helper-lane work.
void account_spans(const std::vector<SpanRecord>& spans,
                   std::uint64_t caller_tid, LayerAccount* acc);

// Sum of self time over every layer.
double total_self_us(const LayerAccount& acc);

// after - before for every counter and histogram (bucket-wise; the delta
// keeps `after`'s min/max, so its quantiles are clamped to that range).
// Gauges keep their `after` value.
oasys::obs::MetricsSnapshot snapshot_delta(const oasys::obs::MetricsSnapshot& after,
                                           const oasys::obs::MetricsSnapshot& before);

// Counter value (0 when absent).
double counter(const oasys::obs::MetricsSnapshot& s, const std::string& name);
// Gauge value (0 when absent).
double gauge(const oasys::obs::MetricsSnapshot& s, const std::string& name);
// Histogram quantile (0 when absent or empty).
double histogram_quantile(const oasys::obs::MetricsSnapshot& s,
                          const std::string& name, double q);

// num / den, 0 when den is 0: every per-unit and per-sample figure.
double ratio(double num, double den);

}  // namespace perfbench
