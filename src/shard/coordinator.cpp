#include "shard/coordinator.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/span.h"
#include "serve/client.h"
#include "serve/server.h"
#include "synth/opamp_design.h"
#include "util/fingerprint.h"
#include "util/text.h"

namespace oasys::shard {

bool ShardReport::infra_ok() const {
  for (const WorkerSummary& w : workers) {
    if (!w.ok()) return false;
  }
  return true;
}

std::size_t route(const std::string& request_key, std::size_t workers) {
  return util::shard_index(util::fnv1a64(request_key), workers);
}

ShardReport run_sharded_requests(const tech::Technology& tech,
                                 const synth::SynthOptions& synth_opts,
                                 const std::vector<yield::Request>& requests,
                                 const ShardOptions& options) {
  if (options.workers == 0) {
    throw std::invalid_argument("shard: workers must be >= 1");
  }
  if (options.worker_command.empty()) {
    throw std::invalid_argument("shard: worker_command must be set");
  }
  OBS_SPAN("shard/run_sharded_batch");

  serve::ServeOptions fleet;
  fleet.workers = options.workers;
  fleet.worker_command = options.worker_command;
  fleet.service = options.service;
  fleet.worker_timeout_s = options.worker_timeout_s;
  // One session asks nothing twice across cycles; each worker's private
  // cache and single-flight dedup still see every repeat.
  fleet.shared_cache_capacity = 0;

  // The batch's trace context replaces whatever the requests carry, so an
  // untraced run sends payload bytes identical to a pre-tracing one.
  std::vector<yield::Request> sent = requests;
  for (std::size_t s = 0; s < sent.size(); ++s) {
    sent[s].trace_id = options.trace_id;
    sent[s].span_id =
        options.trace_id == 0 ? 0 : obs::span_id_for(options.trace_id, s);
  }

  serve::MixedConnectReport answers;
  const std::vector<serve::WorkerRecord> records =
      serve::Server::run_one_session(
          tech, synth_opts, std::move(fleet), [&](int fd) {
            answers = serve::run_session_mixed(fd, tech, synth_opts, sent);
          });

  ShardReport report;
  // Must build the same bytes as SynthesisService::request_key: this is
  // the key the loop routed by.
  const std::string key_prefix = tech.canonical_string() + "|" +
                                 synth::canonical_string(synth_opts) + "|";
  report.outcomes.resize(requests.size());
  for (std::size_t s = 0; s < requests.size(); ++s) {
    ShardOutcome& o = report.outcomes[s];
    yield::Outcome& a = answers.outcomes[s];
    o.is_yield = requests[s].is_yield;
    o.shard = route(key_prefix + requests[s].spec.canonical_string(),
                    options.workers);
    o.result = std::move(a.result);
    o.yield = std::move(a.yield);
    o.error = std::move(a.error);
  }
  report.worker_spans = std::move(answers.worker_spans);

  // The session's merged snapshot already reflags exec.regions (one drain
  // per worker cycle, so the one deterministic counter whose total varies
  // with the worker count); the daemon's serve.* counters describe the
  // loop, not this batch, and are dropped.
  obs::MetricsSnapshot merged;
  for (obs::MetricEntry& e : answers.metrics.entries) {
    if (!util::starts_with(e.name, "serve.")) {
      merged.entries.push_back(std::move(e));
    }
  }
  // Per-shard telemetry lives in the timing section by construction: the
  // split of one workload across k caches depends on k.
  for (std::size_t i = 0; i < records.size(); ++i) {
    const WorkerSummary& ws = records[i].summary;
    report.workers.push_back(ws);
    const std::string prefix = util::format("shard.%zu.", i);
    const auto counter = [&](const char* name, std::uint64_t v) {
      obs::MetricEntry e;
      e.name = prefix + name;
      e.kind = obs::MetricKind::kCounter;
      e.deterministic = false;
      e.counter = v;
      merged.entries.push_back(std::move(e));
    };
    counter("requests", ws.stats.requests);
    counter("hits", ws.stats.hits);
    counter("misses", ws.stats.misses);
    counter("dedup_joins", ws.stats.dedup_joins);
    counter("evictions", ws.stats.evictions);
    if (!records[i].latency.name.empty()) {
      obs::MetricEntry e = records[i].latency;
      e.name = prefix + "latency_seconds";
      e.deterministic = false;
      merged.entries.push_back(std::move(e));
    }
  }
  std::sort(merged.entries.begin(), merged.entries.end(),
            [](const obs::MetricEntry& a, const obs::MetricEntry& b) {
              return a.name < b.name;
            });
  report.merged_metrics = std::move(merged);
  return report;
}

ShardReport run_sharded_batch(const tech::Technology& tech,
                              const synth::SynthOptions& synth_opts,
                              const std::vector<core::OpAmpSpec>& specs,
                              const ShardOptions& options) {
  std::vector<yield::Request> requests;
  requests.reserve(specs.size());
  for (const core::OpAmpSpec& s : specs) {
    yield::Request r;
    r.spec = s;
    requests.push_back(std::move(r));
  }
  return run_sharded_requests(tech, synth_opts, requests, options);
}

}  // namespace oasys::shard
