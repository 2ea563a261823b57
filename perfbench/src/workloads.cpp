#include "workloads.h"

#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "daemon.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "probe.h"
#include "serve/client.h"
#include "specgen.h"
#include "spice/sim_options.h"
#include "stats.h"
#include "synth/oasys.h"
#include "synth/result_json.h"
#include "synth/test_cases.h"
#include "synth/testbench.h"
#include "tech/builtin.h"
#include "trace.h"
#include "util/text.h"
#include "yield/service.h"
#include "yield/yield.h"

namespace perfbench {

namespace {

namespace obs = oasys::obs;
namespace synth = oasys::synth;
namespace yield = oasys::yield;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Set-up runs this many times per run; setup_s is their median.
constexpr int kSetupRepeats = 9;
// Leading units the output check re-runs; output_digest covers them.
constexpr std::size_t kCheckUnits = 4;

// yield_mc shape: samples per request and sample lanes.
constexpr int kYieldSamples = 16;
constexpr std::size_t kYieldLanes = 2;
// serve_mixed shape: resident workers and requests per client batch.
constexpr int kServeWorkers = 2;
constexpr std::size_t kBatch = MixedTraffic{}.batch;

// Input pools, generated during set-up.  A run that exhausts one wraps
// around; no in-process cache sits on these paths, so a wrapped unit costs
// what a fresh one does (serve_mixed repeats are part of its traffic).
constexpr std::size_t kSpecPool = 4096;
constexpr std::size_t kYieldPool = 2048;
constexpr std::size_t kBatchPool = 4096;

synth::SynthOptions serial_synth() {
  synth::SynthOptions o;
  o.jobs = 1;
  return o;
}

// Exact bytes of a measured performance record.
std::string render_measured(const synth::MeasuredOpAmp& m) {
  const oasys::core::OpAmpPerformance& p = m.perf;
  std::string s = oasys::util::format("ok=%d error=%s\n", m.ok ? 1 : 0,
                                      m.error.c_str());
  for (const double v :
       {p.gain_db, p.gbw, p.pm_deg, p.slew, p.swing_pos, p.swing_neg,
        p.offset, p.icmr_lo, p.icmr_hi, p.power, p.area, p.cmrr_db,
        p.psrr_db, p.noise_in, m.offset_applied}) {
    s += oasys::util::format("%a\n", v);
  }
  for (const std::string& d : m.non_saturated) s += d + "\n";
  return s;
}

// What one timed unit did.
struct UnitResult {
  double work = 0.0;  // throughput numerator
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// Per-unit data the traced pass needs beyond spans and local counters.
struct UnitTrace {
  std::vector<synth::OpAmpDesign> designs;  // for the sim_probe pass
  obs::MetricsSnapshot remote;              // worker counter deltas
  std::vector<oasys::shard::SpanSet> remote_spans;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string unit_name() const = 0;
  virtual std::string work_name() const = 0;
  // Concurrent closed-loop callers in the timed run (the traced run uses
  // one).  run_unit must be safe to call from that many threads.
  virtual std::size_t callers() const { return 1; }
  // Everything before the first timed unit; each call replaces the state
  // of the previous one.
  virtual void setup() = 0;
  // Releases what setup() started, outside the timed set-up.
  virtual void teardown() {}
  // Re-arms before a second pass over the same units.
  virtual void restart() {}
  virtual UnitResult run_unit(std::size_t i, UnitTrace* trace) = 0;
  // Output checks, outside the timed window, over the units of the last
  // pass.  *digest covers the fixed leading check units.
  virtual bool check(std::uint64_t* digest, std::string* why) = 0;
  virtual double peak_rss_mb() = 0;
  // Per-layer metrics of the service and serve layers; zero where the
  // workload does not use them.
  virtual void layer_metrics(std::vector<Metric>* out) {
    for (const Metric& m : {Metric{"service.hit_ratio", 0.0, "ratio"},
                            Metric{"service.dedup_joins", 0.0, "count"},
                            Metric{"service.evictions", 0.0, "count"},
                            Metric{"serve.shared_cache_hit_ratio", 0.0, "ratio"},
                            Metric{"serve.respawns", 0.0, "count"},
                            Metric{"serve.timeouts", 0.0, "count"}}) {
      out->push_back(m);
    }
  }
};

// ---- verify_sweep -----------------------------------------------------------

class VerifySweep : public Workload {
 public:
  explicit VerifySweep(std::uint64_t seed) : seed_(seed) {}
  std::string unit_name() const override {
    return "one spec synthesized and measured";
  }
  std::string work_name() const override { return "verified designs/s"; }
  // Two callers, each still at jobs=1: on a shared box the speed of one
  // core drifts by tens of percent from minute to minute, and two cores
  // average that drift out better than one.
  std::size_t callers() const override { return 2; }

  void setup() override {
    tech_ = oasys::tech::five_micron();
    specs_ = generate_specs(seed_, kSpecPool);
    // Each caller warms up on the three paper cases.
    const auto warm_up = [this] {
      for (const oasys::core::OpAmpSpec& s : synth::paper_test_cases()) {
        verify(s, 1);
      }
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 1; c < callers(); ++c) threads.emplace_back(warm_up);
    warm_up();
    for (std::thread& t : threads) t.join();
    loop_outputs_ = {};
  }

  UnitResult run_unit(std::size_t i, UnitTrace* trace) override {
    UnitResult u;
    u.attempted = 1;
    u.work = 1.0;
    std::string out;
    try {
      const Verified v = verify(specs_[i % specs_.size()], 1);
      u.failed = v.measured && !v.measured->ok ? 1 : 0;
      if (i < kCheckUnits) out = v.bytes();
      if (trace != nullptr && v.result.best() != nullptr) {
        trace->designs.push_back(*v.result.best());
      }
    } catch (const std::exception& e) {
      out = e.what();
      u.failed = 1;
    }
    if (i < kCheckUnits) loop_outputs_[i] = std::move(out);
    return u;
  }

  bool check(std::uint64_t* digest, std::string* why) override {
    for (std::size_t i = 0; i < kCheckUnits; ++i) {
      const std::string a = verify(specs_[i], 1).bytes();
      const std::string b = verify(specs_[i], 2).bytes();
      *digest = digest_update(*digest, a);
      if (a != b) {
        *why = "measured values differ between jobs=1 and jobs=2 for " +
               specs_[i].name;
        return false;
      }
      if (!loop_outputs_[i].empty() && loop_outputs_[i] != a) {
        *why = "timed-loop output differs from its re-run for " +
               specs_[i].name;
        return false;
      }
    }
    return true;
  }

  double peak_rss_mb() override { return perfbench::peak_rss_mb(); }

 private:
  struct Verified {
    synth::SynthesisResult result;
    // Absent when the spec is infeasible: a completed answer with nothing
    // to measure.
    std::optional<synth::MeasuredOpAmp> measured;
    std::string bytes() const {
      return synth::result_json(result) +
             (measured ? render_measured(*measured) : std::string());
    }
  };

  Verified verify(const oasys::core::OpAmpSpec& spec, std::size_t jobs) {
    synth::SynthOptions so = serial_synth();
    so.jobs = jobs;
    synth::MeasureOptions mo;
    mo.jobs = jobs;
    Verified v;
    {
      obs::Span span("bench", "synthesize_opamp");
      v.result = synth::synthesize_opamp(tech_, spec, so);
    }
    if (const synth::OpAmpDesign* best = v.result.best()) {
      obs::Span span("bench", "measure_opamp");
      v.measured = synth::measure_opamp(*best, tech_, mo);
    }
    return v;
  }

  std::uint64_t seed_;
  oasys::tech::Technology tech_;
  std::vector<oasys::core::OpAmpSpec> specs_;
  // Output of each leading unit the timed loop ran (empty if it did not).
  std::array<std::string, kCheckUnits> loop_outputs_;
};

// ---- yield_mc ---------------------------------------------------------------

class YieldMc : public Workload {
 public:
  explicit YieldMc(std::uint64_t seed) : seed_(seed) {}
  std::string unit_name() const override { return "one yield request"; }
  std::string work_name() const override { return "MC samples/s"; }

  void setup() override {
    tech_ = oasys::tech::five_micron();
    requests_ =
        generate_yield_requests(seed_, kYieldPool, kYieldSamples, kYieldLanes);
    yield::YieldParams warm;
    warm.samples = kYieldSamples;
    warm.jobs = kYieldLanes;
    for (const oasys::core::OpAmpSpec& s : synth::paper_test_cases()) {
      yield::run_yield(tech_, s, warm, serial_synth());
    }
    loop_outputs_ = {};
  }

  UnitResult run_unit(std::size_t i, UnitTrace* trace) override {
    const yield::Request& req = requests_[i % requests_.size()];
    UnitResult u;
    u.attempted = static_cast<std::uint64_t>(req.params.samples);
    u.work = req.params.samples;
    std::string out;
    try {
      yield::YieldResult y;
      {
        obs::Span span("bench", "run_yield");
        y = yield::run_yield(tech_, req.spec, req.params, serial_synth());
      }
      if (i < kCheckUnits) out = yield::yield_result_json(y);
      if (y.ok) {
        u.failed = static_cast<std::uint64_t>(y.samples_requested -
                                              y.samples_converged);
      } else if (y.synthesis.success()) {
        u.failed = u.attempted;
      }
      if (trace != nullptr && y.synthesis.best() != nullptr) {
        trace->designs.push_back(*y.synthesis.best());
      }
    } catch (const std::exception& e) {
      out = e.what();
      u.failed = u.attempted;
    }
    if (i < kCheckUnits) loop_outputs_[i] = std::move(out);
    return u;
  }

  bool check(std::uint64_t* digest, std::string* why) override {
    for (std::size_t i = 0; i < kCheckUnits; ++i) {
      yield::YieldParams p = requests_[i].params;
      p.jobs = 1;
      const std::string one = yield::yield_result_json(
          yield::run_yield(tech_, requests_[i].spec, p, serial_synth()));
      p.jobs = kYieldLanes;
      const std::string two = yield::yield_result_json(
          yield::run_yield(tech_, requests_[i].spec, p, serial_synth()));
      *digest = digest_update(*digest, one);
      if (one != two) {
        *why = "yield_result_json differs between 1 and 2 lanes for " +
               requests_[i].spec.name;
        return false;
      }
      if (!loop_outputs_[i].empty() && loop_outputs_[i] != one) {
        *why = "timed-loop yield result differs from its re-run for " +
               requests_[i].spec.name;
        return false;
      }
    }
    return true;
  }

  double peak_rss_mb() override { return perfbench::peak_rss_mb(); }

 private:
  std::uint64_t seed_;
  oasys::tech::Technology tech_;
  std::vector<yield::Request> requests_;
  // Output of each leading unit the timed loop ran (empty if it did not).
  std::array<std::string, kCheckUnits> loop_outputs_;
};

// ---- serve_mixed ------------------------------------------------------------

class ServeMixed : public Workload {
 public:
  ServeMixed(std::uint64_t seed, std::string oasys, std::string run_dir)
      : seed_(seed), oasys_(std::move(oasys)), run_dir_(std::move(run_dir)) {}
  std::string unit_name() const override {
    return "one client batch round trip (8 requests)";
  }
  std::string work_name() const override { return "requests/s"; }

  void setup() override {
    tech_ = oasys::tech::five_micron();
    // The daemon stamps the resolved transient settings into its options;
    // the client must present the same fingerprint.
    opts_ = synth::SynthOptions{};
    opts_.tran_mode = oasys::sim::resolve_tran_mode(oasys::sim::TranMode::kDefault);
    const oasys::sim::TranTolerance tol = oasys::sim::tran_tolerance_default();
    opts_.tran_rtol = tol.rtol;
    opts_.tran_atol = tol.atol;
    requests_ = generate_mixed_requests(seed_, kBatchPool, MixedTraffic{});
    restart();
  }

  void teardown() override { daemon_.reset(); }

  void restart() override {
    daemon_.reset();
    daemon_ = std::make_unique<Daemon>(oasys_, run_dir_, kServeWorkers);
    outcomes_.clear();
    stats_max_ = {};
    {
      obs::Span span("bench", "fetch_status");
      status_start_ = oasys::serve::fetch_status(daemon_->socket_path());
    }
  }

  UnitResult run_unit(std::size_t i, UnitTrace* trace) override {
    std::vector<yield::Request> batch = batch_at(i);
    if (trace != nullptr) {
      const std::uint64_t id = obs::mint_trace_id();
      for (std::size_t k = 0; k < batch.size(); ++k) {
        batch[k].trace_id = id;
        batch[k].span_id = obs::span_id_for(id, k);
      }
    }
    UnitResult u;
    u.attempted = batch.size();
    u.work = static_cast<double>(batch.size());
    try {
      oasys::serve::MixedConnectReport report;
      {
        obs::Span span("bench", "run_connected_mixed");
        report = oasys::serve::run_connected_mixed(daemon_->socket_path(),
                                                   tech_, opts_, batch);
      }
      for (const yield::Outcome& o : report.outcomes) {
        if (!o.ok() || (o.is_yield && !o.yield.ok &&
                        o.yield.synthesis.success())) {
          ++u.failed;
        }
      }
      if (trace != nullptr) {
        for (const yield::Outcome& o : report.outcomes) {
          const synth::OpAmpDesign* d =
              o.is_yield ? o.yield.synthesis.best() : o.result.best();
          if (o.ok() && d != nullptr) trace->designs.push_back(*d);
        }
        trace->remote = std::move(report.metrics);
        trace->remote_spans = std::move(report.worker_spans);
      }
      const oasys::service::ServiceStats& st = report.stats;
      stats_max_.hits = std::max(stats_max_.hits, st.hits);
      stats_max_.misses = std::max(stats_max_.misses, st.misses);
      stats_max_.dedup_joins = std::max(stats_max_.dedup_joins, st.dedup_joins);
      stats_max_.evictions = std::max(stats_max_.evictions, st.evictions);
      outcomes_.push_back(std::move(report.outcomes));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve_mixed: batch %zu: %s\n", i, e.what());
      u.failed = u.attempted;
      outcomes_.emplace_back();
    }
    return u;
  }

  bool check(std::uint64_t* digest, std::string* why) override {
    yield::YieldService local(tech_, opts_);
    for (std::size_t i = 0; i < outcomes_.size(); ++i) {
      const std::vector<yield::Outcome> ref = local.run_mixed(batch_at(i));
      const std::vector<yield::Outcome>& got = outcomes_[i];
      if (got.size() != ref.size()) {
        *why = oasys::util::format("batch %zu: %zu answers for %zu requests", i,
                           got.size(), ref.size());
        return false;
      }
      for (std::size_t k = 0; k < ref.size(); ++k) {
        const std::string a = render(got[k]);
        const std::string b = render(ref[k]);
        if (i < kCheckUnits) *digest = digest_update(*digest, b);
        if (a != b) {
          *why = oasys::util::format(
              "batch %zu request %zu (%s): daemon answer differs from "
              "in-process YieldService::run_mixed",
              i, k, ref[k].is_yield ? "yield" : "synth");
          return false;
        }
      }
    }
    return true;
  }

  double peak_rss_mb() override {
    const oasys::serve::StatusReport st = status();
    double mb = perfbench::peak_rss_mb(daemon_->pid());
    for (const oasys::serve::WorkerStatus& w : st.workers) {
      if (w.alive && w.pid > 0) mb += perfbench::peak_rss_mb(w.pid);
    }
    return mb;
  }

  void layer_metrics(std::vector<Metric>* out) override {
    const oasys::serve::StatusReport st = status();
    const double hits = static_cast<double>(stats_max_.hits);
    const double misses = static_cast<double>(stats_max_.misses);
    const double sh = static_cast<double>(st.shared_cache_hits -
                                          status_start_.shared_cache_hits);
    const double sm = static_cast<double>(st.shared_cache_misses -
                                          status_start_.shared_cache_misses);
    out->push_back({"service.hit_ratio", ratio(hits, hits + misses), "ratio"});
    out->push_back({"service.dedup_joins",
                    static_cast<double>(stats_max_.dedup_joins), "count"});
    out->push_back({"service.evictions",
                    static_cast<double>(stats_max_.evictions), "count"});
    out->push_back({"serve.shared_cache_hit_ratio", ratio(sh, sh + sm), "ratio"});
    out->push_back({"serve.respawns",
                    static_cast<double>(st.respawns - status_start_.respawns),
                    "count"});
    out->push_back({"serve.timeouts",
                    static_cast<double>(st.worker_timeouts -
                                        status_start_.worker_timeouts),
                    "count"});
  }

 private:
  static std::string render(const yield::Outcome& o) {
    return o.ok() ? yield::outcome_json(o) : "error: " + o.error;
  }

  std::vector<yield::Request> batch_at(std::size_t i) const {
    const std::size_t start = (i % kBatchPool) * kBatch;
    return {requests_.begin() + static_cast<std::ptrdiff_t>(start),
            requests_.begin() + static_cast<std::ptrdiff_t>(start + kBatch)};
  }

  oasys::serve::StatusReport status() const {
    obs::Span span("bench", "fetch_status");
    return oasys::serve::fetch_status(daemon_->socket_path());
  }

  std::uint64_t seed_;
  std::string oasys_;
  std::string run_dir_;
  oasys::tech::Technology tech_;
  synth::SynthOptions opts_;
  std::vector<yield::Request> requests_;
  std::unique_ptr<Daemon> daemon_;
  std::vector<std::vector<yield::Outcome>> outcomes_;
  oasys::service::ServiceStats stats_max_;
  oasys::serve::StatusReport status_start_;
};

std::unique_ptr<Workload> make_workload(const RunConfig& cfg) {
  if (cfg.workload == "verify_sweep") {
    return std::make_unique<VerifySweep>(cfg.seed);
  }
  if (cfg.workload == "yield_mc") return std::make_unique<YieldMc>(cfg.seed);
  if (cfg.workload == "serve_mixed") {
    return std::make_unique<ServeMixed>(cfg.seed, cfg.oasys, cfg.run_dir);
  }
  throw std::invalid_argument("unknown workload " + cfg.workload);
}

// ---- run loop ---------------------------------------------------------------

struct Pass {
  std::size_t units = 0;
  double wall_s = 0.0;
  double work = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_ms;
};

void add_unit(const UnitResult& r, double ms, Pass* p) {
  ++p->units;
  p->work += r.work;
  p->attempted += r.attempted;
  p->failed += r.failed;
  p->latency_ms.push_back(ms);
}

// Closed loop: `callers` threads (caller c runs units c, c + callers, ...)
// each send their next unit as soon as the previous one completes, until
// `seconds` have passed.
Pass run_pass(Workload& w, double seconds, std::size_t callers) {
  std::vector<Pass> passes(callers);
  const auto t0 = Clock::now();
  const auto loop = [&](std::size_t c) {
    for (std::size_t i = c; seconds_since(t0) < seconds; i += callers) {
      const auto u0 = Clock::now();
      const UnitResult r = w.run_unit(i, nullptr);
      add_unit(r, seconds_since(u0) * 1e3, &passes[c]);
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < callers; ++c) threads.emplace_back(loop, c);
  loop(0);
  for (std::thread& t : threads) t.join();
  Pass p;
  p.wall_s = seconds_since(t0);
  for (const Pass& q : passes) {
    p.units += q.units;
    p.work += q.work;
    p.attempted += q.attempted;
    p.failed += q.failed;
    p.latency_ms.insert(p.latency_ms.end(), q.latency_ms.begin(),
                        q.latency_ms.end());
  }
  return p;
}

std::string hex64(std::uint64_t v) {
  return oasys::util::format("%016llx", static_cast<unsigned long long>(v));
}

void run_checks(Workload& w, RunReport* rep) {
  std::uint64_t digest = kDigestSeed;
  std::string why;
  rep->correct = w.check(&digest, &why);
  rep->lines.push_back("output_digest " + hex64(digest));
  rep->lines.push_back(rep->correct ? "output check: ok"
                                    : "output check: FAILED: " + why);
}

void end_to_end(Workload& w, const RunConfig& cfg, double setup_s,
                RunReport* rep) {
  const Pass p = run_pass(w, cfg.seconds, w.callers());
  const LatencySummary lat = summarize_latency(p.latency_ms);
  const double rss = w.peak_rss_mb();
  run_checks(w, rep);

  rep->attempted = p.attempted;
  rep->failed = p.failed;
  rep->metrics = {
      {"throughput", p.work / p.wall_s, "1/s"},
      {"latency_p50_ms", lat.p50_ms, "ms"},
      {"latency_p95_ms", lat.p95_ms, "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", rss, "MB"},
  };
  rep->lines.push_back(oasys::util::format(
      "unit: %s; throughput in %s; %zu units in %.3f s, %zu caller(s)",
      w.unit_name().c_str(), w.work_name().c_str(), p.units, p.wall_s,
      w.callers()));
  rep->lines.push_back(oasys::util::format(
      "latency samples %zu, %zu beyond p95%s", lat.samples, lat.beyond_p95,
      lat.p95_resolved ? "" : " (p95 UNRESOLVED: fewer than 10 beyond it)"));
  rep->lines.push_back(oasys::util::format(
      "fail_ratio %.6g ratio (%llu failed of %llu attempted)",
      ratio(static_cast<double>(p.failed), static_cast<double>(p.attempted)),
      static_cast<unsigned long long>(p.failed),
      static_cast<unsigned long long>(p.attempted)));
}

// The traced pass: spans split by layer, counter totals, and what each
// unit cost in solver work and which designs it touched.
struct TracedPass {
  Pass pass;
  double wall_us = 0.0;
  LayerAccount local;   // this process
  LayerAccount remote;  // daemon workers (serve_mixed)
  double worker_busy_us = 0.0;
  double worker_critical_us = 0.0;  // per batch, the busiest worker
  obs::MetricsSnapshot totals;
  struct UnitCost {
    double newton_iters = 0.0;
    double ac_points = 0.0;
    std::vector<std::string> designs;  // keys into `designs`
  };
  std::vector<UnitCost> costs;
  std::map<std::string, synth::OpAmpDesign> designs;  // by spec
};

void account_workers(std::vector<oasys::shard::SpanSet>& sets, TracedPass* t) {
  // One account per worker per batch; a worker's request loop runs on its
  // first thread, its yield sample lanes on the others.
  std::map<std::uint64_t, std::vector<obs::TraceEvent>> by_shard;
  for (oasys::shard::SpanSet& set : sets) {
    std::vector<obs::TraceEvent>& ev = by_shard[set.shard];
    ev.insert(ev.end(), std::make_move_iterator(set.events.begin()),
              std::make_move_iterator(set.events.end()));
  }
  double critical = 0.0;
  for (const auto& [shard, events] : by_shard) {
    const std::vector<SpanRecord> spans = pair_spans(events);
    if (spans.empty()) continue;
    std::uint64_t first_tid = spans.front().tid;
    double lo = spans.front().start_us;
    double hi = spans.front().end_us;
    for (const SpanRecord& s : spans) {
      first_tid = std::min(first_tid, s.tid);
      lo = std::min(lo, s.start_us);
      hi = std::max(hi, s.end_us);
    }
    account_spans(spans, first_tid, &t->remote);
    t->worker_busy_us += hi - lo;
    critical = std::max(critical, hi - lo);
  }
  t->worker_critical_us += critical;
}

TracedPass run_traced(Workload& w, std::size_t units) {
  TracedPass t;
  obs::Registry& reg = obs::Registry::global();
  obs::set_tracing_enabled(true);
  obs::drain_global_trace();
  for (std::size_t i = 0; i < units; ++i) {
    UnitTrace ut;
    const obs::MetricsSnapshot before = reg.snapshot();
    const auto u0 = Clock::now();
    const UnitResult r = w.run_unit(i, &ut);
    const double ms = seconds_since(u0) * 1e3;
    obs::MetricsSnapshot counters = snapshot_delta(reg.snapshot(), before);
    add_unit(r, ms, &t.pass);
    t.wall_us += ms * 1e3;

    const std::vector<SpanRecord> spans = pair_spans(obs::drain_global_trace());
    std::uint64_t caller = 0;
    for (const SpanRecord& s : spans) {
      if (s.name.rfind("bench/", 0) == 0) caller = s.tid;
    }
    account_spans(spans, caller, &t.local);
    account_workers(ut.remote_spans, &t);

    if (!ut.remote.entries.empty()) {
      counters = obs::merge_snapshots({counters, ut.remote});
    }
    TracedPass::UnitCost c;
    c.newton_iters = counter(counters, "sim.newton.iterations") +
                     counter(counters, "sim.tran.newton_iterations");
    c.ac_points = counter(counters, "sim.ac.points");
    for (synth::OpAmpDesign& d : ut.designs) {
      std::string key = d.spec.canonical_string();
      t.designs.try_emplace(key, std::move(d));
      c.designs.push_back(std::move(key));
    }
    t.costs.push_back(std::move(c));
    t.totals = t.totals.entries.empty()
                   ? std::move(counters)
                   : obs::merge_snapshots({t.totals, counters});
  }
  obs::set_tracing_enabled(false);
  return t;
}

// sim_probe over every distinct design of the traced pass, folded into
// per-unit means and into the kernel time the pass's Newton iterations
// and AC points would take at the probed speeds.
struct ProbeTotals {
  std::size_t designs = 0;
  double units = 0.0;  // units with at least one probed design
  double mna_size = 0.0, devices = 0.0, eval_us = 0.0, factor_us = 0.0,
         solve_us = 0.0, factor_complex_us = 0.0;  // sums of unit means
  double lu_time_us = 0.0;
  double eval_time_us = 0.0;
};

ProbeTotals probe_pass(const TracedPass& t) {
  const oasys::tech::Technology tech = oasys::tech::five_micron();
  std::map<std::string, ProbeResult> probes;
  for (const auto& [key, design] : t.designs) {
    probes[key] = probe_design(design, tech);
  }
  ProbeTotals p;
  p.designs = probes.size();
  for (const TracedPass::UnitCost& c : t.costs) {
    ProbeResult sum;
    double n = 0.0;
    for (const std::string& key : c.designs) {
      const ProbeResult& r = probes[key];
      if (!r.ok) continue;
      n += 1.0;
      sum.mna_size += r.mna_size;
      sum.devices += r.devices;
      sum.eval_us += r.eval_us;
      sum.lu_factor_real_us += r.lu_factor_real_us;
      sum.lu_solve_real_us += r.lu_solve_real_us;
      sum.lu_factor_complex_us += r.lu_factor_complex_us;
      sum.lu_solve_complex_us += r.lu_solve_complex_us;
    }
    if (n == 0.0) continue;
    p.units += 1.0;
    p.mna_size += static_cast<double>(sum.mna_size) / n;
    p.devices += static_cast<double>(sum.devices);
    p.eval_us += sum.eval_us / n;
    p.factor_us += sum.lu_factor_real_us / n;
    p.solve_us += sum.lu_solve_real_us / n;
    p.factor_complex_us += sum.lu_factor_complex_us / n;
    p.lu_time_us +=
        (c.newton_iters * (sum.lu_factor_real_us + sum.lu_solve_real_us) +
         c.ac_points * (sum.lu_factor_complex_us + sum.lu_solve_complex_us)) /
        n;
    p.eval_time_us += c.newton_iters * sum.eval_us / n;
  }
  return p;
}

// Per-layer metrics.  Which end-to-end metric each should move:
//  synth      plan.* and synth.call_ms -> latency_p50_ms on serve_mixed
//             (misses); a few percent of verify_sweep; nothing on yield_mc.
//  testbench  measure.* -> latency_p50_ms / throughput on verify_sweep.
//  spice      DC -> throughput on yield_mc; AC/tran -> latency_p50_ms on
//             verify_sweep.
//  numeric, mos, yield, exec -> throughput on yield_mc (exec: nothing on
//             verify_sweep).
//  service, serve -> latency_p50_ms / latency_p95_ms / throughput on
//             serve_mixed; respawns and timeouts -> fail_ratio.
//  obs        nothing; records what the traced run costs.
void per_layer(Workload& w, const RunConfig& cfg, RunReport* rep) {
  // Untraced pass over the first half of the budget, then the same units
  // again with tracing on, from a fresh start.
  const Pass plain = run_pass(w, cfg.seconds / 2.0, 1);
  w.restart();
  const TracedPass t = run_traced(w, plain.units);
  run_checks(w, rep);
  rep->attempted = t.pass.attempted;
  rep->failed = t.pass.failed;
  const ProbeTotals probe = probe_pass(t);

  LayerAccount all = t.local;
  for (const auto& [layer, us] : t.remote.self_us) all.self_us[layer] += us;
  for (const auto& [name, c] : t.remote.calls) {
    all.calls[name].count += c.count;
    all.calls[name].total_us += c.total_us;
  }
  const auto calls = [&all](const char* span) {
    const auto it = all.calls.find(span);
    return it == all.calls.end() ? LayerAccount::Calls{} : it->second;
  };
  const auto call_ms = [&calls](const char* span) {
    const LayerAccount::Calls c = calls(span);
    return ratio(c.total_us, static_cast<double>(c.count)) / 1e3;
  };
  const auto self_ms = [&all](const char* layer) {
    const auto it = all.self_us.find(layer);
    return it == all.self_us.end() ? 0.0 : it->second / 1e3;
  };
  const double units = static_cast<double>(t.pass.units);
  const auto per_unit = [&](const char* name) {
    return ratio(counter(t.totals, name), units);
  };
  const double samples = counter(t.totals, "yield.samples");
  const auto per_sample = [&](const char* name) {
    return ratio(counter(t.totals, name), samples);
  };

  // Lane time of the processes that did the solver work — the benchmark's
  // thread plus its helper lanes, or the daemon's workers and theirs — is
  // the denominator of every share.
  const bool served = !t.remote.self_us.empty();
  const double lane_us = served ? t.worker_busy_us + t.remote.helper_lane_us
                                : t.wall_us + t.local.helper_lane_us;
  const double lanes = gauge(t.totals, "exec.lanes_max");
  const double lane_capacity_us =
      t.wall_us * std::max(lanes, 1.0) * (served ? kServeWorkers : 1);
  const double requests = static_cast<double>(t.pass.attempted);

  std::vector<Metric>& m = rep->metrics;
  m = {
      {"synth.call_ms", call_ms("synth/synthesize_opamp"), "ms"},
      {"plan.steps_per_unit", per_unit("plan.steps_executed"), "count"},
      {"plan.restarts_per_unit", per_unit("plan.restarts"), "count"},
      {"plan.rules_fired_per_unit", per_unit("plan.rules_fired"), "count"},
      {"measure.call_ms", call_ms("synth/measure_opamp"), "ms"},
      {"measure.other_ms",
       ratio(self_ms("testbench"),
             static_cast<double>(calls("synth/measure_opamp").count)),
       "ms"},
      {"sim.dc.self_ms_per_unit", self_ms("spice.dc") / units, "ms"},
      {"sim.ac.self_ms_per_unit", self_ms("spice.ac") / units, "ms"},
      {"sim.tran.self_ms_per_unit", self_ms("spice.tran") / units, "ms"},
      {"sim.dc.self_share", ratio(self_ms("spice.dc") * 1e3, lane_us), "ratio"},
      {"sim.dc.solves_per_unit", per_unit("sim.op.calls"), "count"},
      {"sim.newton.iters_per_solve_p50",
       histogram_quantile(t.totals, "sim.op.iterations_per_solve", 0.50),
       "count"},
      {"sim.newton.iters_per_solve_p95",
       histogram_quantile(t.totals, "sim.op.iterations_per_solve", 0.95),
       "count"},
      {"sim.newton.nonconverged_per_unit", per_unit("sim.newton.nonconverged"),
       "count"},
      {"sim.op.gmin_escalations_per_unit", per_unit("sim.op.gmin_escalations"),
       "count"},
      {"sim.ac.points_per_unit", per_unit("sim.ac.points"), "count"},
      {"sim.tran.steps_per_unit", per_unit("sim.tran.steps_accepted"), "count"},
      {"sim.tran.rejections_per_unit",
       per_unit("sim.tran.step_rejections") + per_unit("tran.adaptive.rejects"),
       "count"},
      {"num.mna_size", ratio(probe.mna_size, probe.units), "count"},
      {"num.lu_factor_real_us", ratio(probe.factor_us, probe.units), "us"},
      {"num.lu_solve_real_us", ratio(probe.solve_us, probe.units), "us"},
      {"num.lu_factor_complex_us", ratio(probe.factor_complex_us, probe.units),
       "us"},
      {"num.lu_share_computed", ratio(probe.lu_time_us, lane_us), "ratio"},
      {"mos.eval_us", ratio(probe.eval_us, probe.units), "us"},
      {"mos.devices_per_unit", ratio(probe.devices, probe.units), "count"},
      {"mos.eval_share_computed", ratio(probe.eval_time_us, lane_us), "ratio"},
      {"yield.call_ms", call_ms("yield/analyze"), "ms"},
      {"yield.dc_solves_per_sample", per_sample("sim.op.calls"), "count"},
      {"yield.newton_iters_per_sample", per_sample("sim.newton.iterations"),
       "count"},
      {"yield.ac_points_per_sample", per_sample("sim.ac.points"), "count"},
      {"yield.converged_ratio", per_sample("yield.samples_converged"), "ratio"},
      {"exec.tasks_per_unit", per_unit("exec.tasks"), "count"},
      {"exec.lanes_max", lanes, "count"},
      {"exec.parallel_efficiency", ratio(lane_us, lane_capacity_us), "ratio"},
  };
  w.layer_metrics(&m);
  m.push_back({"serve.client_ms_per_request",
               served ? ratio(t.wall_us / 1e3, requests) : 0.0, "ms"});
  m.push_back({"serve.worker_ms_per_request",
               served ? ratio(t.worker_busy_us / 1e3, requests) : 0.0, "ms"});
  m.push_back({"serve.overhead_ms_per_request",
               served ? ratio((t.wall_us - t.worker_critical_us) / 1e3, requests)
                      : 0.0,
               "ms"});
  m.push_back({"obs.trace_overhead_ratio",
               ratio(t.wall_us / 1e6, plain.wall_s), "ratio"});
  m.push_back({"obs.self_time_coverage",
               ratio(total_self_us(t.local), t.wall_us + t.local.helper_lane_us),
               "ratio"});

  rep->lines.push_back(oasys::util::format(
      "unit: %s; %zu units untraced in %.3f s, traced in %.3f s",
      w.unit_name().c_str(), plain.units, plain.wall_s, t.wall_us / 1e6));
  rep->lines.push_back(oasys::util::format(
      "lane time %.3f s; %zu designs probed", lane_us / 1e6, probe.designs));
  for (const LayerAccount* acc : {&t.local, &t.remote}) {
    if (acc->self_us.empty()) continue;
    std::string line = acc == &t.local ? "self ms by layer (this process):"
                                       : "self ms by layer (daemon workers):";
    for (const auto& [layer, us] : acc->self_us) {
      line += oasys::util::format(" %s=%.3f", layer.c_str(), us / 1e3);
    }
    rep->lines.push_back(line);
  }
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "verify_sweep" || name == "yield_mc" || name == "serve_mixed";
}

RunReport run_workload(const RunConfig& cfg) {
  RunReport rep;
  std::unique_ptr<Workload> w = make_workload(cfg);
  std::vector<double> setups;
  for (int k = 0; k < (cfg.trace ? 1 : kSetupRepeats); ++k) {
    if (k > 0) w->teardown();
    const auto t0 = Clock::now();
    w->setup();
    setups.push_back(seconds_since(t0));
  }
  if (cfg.trace) {
    per_layer(*w, cfg, &rep);
  } else {
    end_to_end(*w, cfg, median(setups), &rep);
  }
  return rep;
}

}  // namespace perfbench
