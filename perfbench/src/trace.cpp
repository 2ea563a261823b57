#include "trace.h"

#include <algorithm>
#include <limits>

namespace perfbench {

namespace obs = oasys::obs;

std::vector<SpanRecord> pair_spans(const std::vector<obs::TraceEvent>& events) {
  struct Open {
    SpanRecord rec;
    double child_us = 0.0;
  };
  std::map<std::uint64_t, std::vector<Open>> stacks;
  std::vector<SpanRecord> out;
  for (const obs::TraceEvent& e : events) {
    if (e.kind == obs::TraceEvent::Kind::kSpanBegin) {
      Open o;
      o.rec.name = e.name;
      o.rec.tid = e.tid;
      o.rec.depth = e.depth;
      o.rec.start_us = static_cast<double>(e.ts_us);
      stacks[e.tid].push_back(std::move(o));
    } else if (e.kind == obs::TraceEvent::Kind::kSpanEnd) {
      std::vector<Open>& st = stacks[e.tid];
      if (st.empty() || st.back().rec.name != e.name) continue;
      Open o = std::move(st.back());
      st.pop_back();
      const double dur = e.seconds * 1e6;
      o.rec.end_us = o.rec.start_us + dur;
      o.rec.self_us = std::max(0.0, dur - o.child_us);
      if (!st.empty()) st.back().child_us += dur;
      out.push_back(std::move(o.rec));
    }
  }
  return out;
}

std::string layer_of(std::string_view n) {
  const auto starts = [&n](std::string_view p) {
    return n.substr(0, p.size()) == p;
  };
  if (n == "bench/synthesize_opamp") return "synth";
  if (n == "bench/measure_opamp") return "testbench";
  if (n == "bench/run_yield") return "yield";
  if (n == "bench/run_connected_mixed" || n == "bench/fetch_status") {
    return "serve";
  }
  if (n == "synth/measure_opamp") return "testbench";
  if (starts("synth/") || starts("style/") || starts("plan/") ||
      starts("step/")) {
    return "synth";
  }
  if (n == "sim/dc_operating_point") return "spice.dc";
  if (n == "sim/ac_analysis") return "spice.ac";
  if (starts("sim/transient") || starts("tran/")) return "spice.tran";
  if (starts("yield/")) return "yield";
  if (starts("yield_service/") || starts("service/")) return "service";
  if (starts("shard/")) return "serve";
  return "other";
}

void account_spans(const std::vector<SpanRecord>& spans,
                   std::uint64_t caller_tid, LayerAccount* acc) {
  std::vector<const SpanRecord*> framing;  // calling-thread spans
  for (const SpanRecord& s : spans) {
    acc->self_us[layer_of(s.name)] += s.self_us;
    LayerAccount::Calls& c = acc->calls[s.name];
    ++c.count;
    c.total_us += s.duration_us();
    if (s.tid == caller_tid) framing.push_back(&s);
  }

  // Helper lanes: a helper thread's root spans inside one calling-thread
  // root span form one fan-out; it kept the lane busy from the first to the
  // last of them.  The gaps are the fan-out's own work, owned by the
  // innermost calling-thread span that contains the whole extent (the
  // caller's lane-0 spans only overlap part of it).
  struct Extent {
    double first = std::numeric_limits<double>::infinity();
    double last = -std::numeric_limits<double>::infinity();
    double covered = 0.0;
  };
  std::map<std::pair<std::uint64_t, const SpanRecord*>, Extent> extents;
  for (const SpanRecord& s : spans) {
    if (s.tid == caller_tid || s.depth != 0) continue;
    const SpanRecord* root = nullptr;
    for (const SpanRecord* f : framing) {
      if (f->depth == 0 && f->start_us <= s.start_us &&
          s.start_us <= f->end_us) {
        root = f;
      }
    }
    Extent& x = extents[{s.tid, root}];
    x.first = std::min(x.first, s.start_us);
    x.last = std::max(x.last, s.end_us);
    x.covered += s.duration_us();
  }
  for (const auto& [key, x] : extents) {
    const double busy = x.last - x.first;
    acc->helper_lane_us += busy;
    const SpanRecord* owner = nullptr;
    for (const SpanRecord* f : framing) {
      if (f->start_us <= x.first && x.last <= f->end_us &&
          (owner == nullptr || f->depth > owner->depth)) {
        owner = f;
      }
    }
    const std::string layer = owner != nullptr ? layer_of(owner->name) : "other";
    acc->self_us[layer] += std::max(0.0, busy - x.covered);
  }
}

double total_self_us(const LayerAccount& acc) {
  double sum = 0.0;
  for (const auto& [layer, us] : acc.self_us) sum += us;
  return sum;
}

obs::MetricsSnapshot snapshot_delta(const obs::MetricsSnapshot& after,
                                    const obs::MetricsSnapshot& before) {
  obs::MetricsSnapshot out = after;
  for (obs::MetricEntry& e : out.entries) {
    const obs::MetricEntry* b = before.find(e.name);
    if (b == nullptr || b->kind != e.kind) continue;
    if (e.kind == obs::MetricKind::kCounter) {
      e.counter -= std::min(e.counter, b->counter);
    } else if (e.kind == obs::MetricKind::kHistogram &&
               b->histogram.counts.size() == e.histogram.counts.size()) {
      obs::HistogramSnapshot& h = e.histogram;
      for (std::size_t i = 0; i < h.counts.size(); ++i) {
        h.counts[i] -= std::min(h.counts[i], b->histogram.counts[i]);
      }
      h.count -= std::min(h.count, b->histogram.count);
      h.sum -= b->histogram.sum;
    }
  }
  return out;
}

double counter(const obs::MetricsSnapshot& s, const std::string& name) {
  const obs::MetricEntry* e = s.find(name);
  return e != nullptr && e->kind == obs::MetricKind::kCounter
             ? static_cast<double>(e->counter)
             : 0.0;
}

double gauge(const obs::MetricsSnapshot& s, const std::string& name) {
  const obs::MetricEntry* e = s.find(name);
  return e != nullptr && e->kind == obs::MetricKind::kGauge ? e->gauge : 0.0;
}

double histogram_quantile(const obs::MetricsSnapshot& s,
                          const std::string& name, double q) {
  const obs::MetricEntry* e = s.find(name);
  return e != nullptr && e->kind == obs::MetricKind::kHistogram
             ? e->histogram.quantile(q)
             : 0.0;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace perfbench
