// Coordinator half of cross-process sharded serving.
//
// run_sharded_batch partitions a batch of specs across N worker processes
// by canonical request key: the same (technology, options, spec)
// fingerprint the service layer caches under, finalized through
// util::mix64 and reduced modulo the worker count.  Identical requests
// therefore always co-locate — each worker's private LRU cache sees
// exactly the hits, misses, and dedup joins the key stream implies, with
// no cross-process locks and no shared state beyond the pipes.
//
// The fleet is the daemon's (serve::Server::run_one_session): one
// short-lived run of the same event loop, serving exactly one session
// over a socketpair and draining once that session has its answers.
// This file only builds that run and maps its answers into a ShardReport.
//
// Determinism contract: outcomes are merged in global submission order,
// and each ok() outcome is bit-for-bit what a single SynthesisService
// (and therefore a direct synthesize_opamp call) returns for that spec —
// at every worker count.  The conformance suite pins `oasys shard
// --workers k` stdout byte-identical to `oasys batch` for k in {1,2,4}.
//
// Fault model (the loop's; see serve/server.h): a worker that dies
// mid-batch (crash, kill, malformed frame, missed deadline) never hangs
// the coordinator and never masquerades as success — its unreturned specs
// get deterministic per-spec errors, its summary records the decoded exit
// status of its first failure, and ShardReport::infra_ok() goes false.
// Workers are spawned fork+exec (`<worker_command> shard-worker`) rather
// than bare fork so sanitizer runtimes (TSan) see a clean process.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/spec.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "shard/wire.h"
#include "synth/oasys.h"
#include "tech/technology.h"
#include "yield/service.h"

namespace oasys::shard {

struct ShardOptions {
  // Worker process count, 1..serve::kMaxWorkers.  Results are identical
  // at every value; only wall time and per-shard load change.
  std::size_t workers = 2;
  // Executable spawned per worker, invoked as `<worker_command>
  // shard-worker` with the wire conversation on its stdin/stdout.  The
  // CLI passes its own binary path.
  std::string worker_command;
  // Per-worker service configuration (each worker owns a private cache).
  service::ServiceOptions service;
  // Per-worker progress deadline [s]; 0 disables it.  When set, a worker
  // with work in flight that produces no frame for this long is presumed
  // wedged (alive but never writing): it is killed, its unreturned specs
  // become deterministic per-spec errors, and the batch completes instead
  // of hanging.  The deadline re-arms on every frame received, so a slow
  // but progressing worker is never killed.
  double worker_timeout_s = 0.0;
  // Distributed-tracing id for this batch (obs::mint_trace_id); 0 keeps
  // tracing off and every request payload byte-identical to an untraced
  // run.  When set, each request carries a trace context (span id =
  // obs::span_id_for(trace_id, submission index)) and workers stream
  // their span sets back.  Never affects results, routing, or the
  // deterministic metrics section.
  std::uint64_t trace_id = 0;
};

// Per-request outcome, in global submission order.  Mirrors
// yield::Outcome plus the shard that served (or lost) the request:
// `result` answers a synthesis request, `yield` answers a yield request.
struct ShardOutcome {
  bool is_yield = false;
  synth::SynthesisResult result;
  yield::YieldResult yield;
  std::string error;       // empty <=> the answer field is valid
  std::size_t shard = 0;   // worker index the request was routed to
  bool ok() const { return error.empty(); }
};

// What happened to one worker process, end to end.
struct WorkerSummary {
  std::size_t shard = 0;
  long pid = -1;                  // the slot's first worker process
  std::size_t requests = 0;       // specs routed to this worker
  bool protocol_ok = false;       // every dispatched cycle through kDone
  bool timed_out = false;         // killed by the worker_timeout_s deadline
  int exit_status = -1;           // raw waitpid() status; first failure wins
  std::string error;              // empty when clean; first failure wins
  service::ServiceStats stats;    // worker-reported service counters
  bool ok() const { return error.empty(); }
};

struct ShardReport {
  std::vector<ShardOutcome> outcomes;  // one per spec, submission order
  std::vector<WorkerSummary> workers;
  // merge_snapshots over the worker registries, with `exec.regions`
  // reflagged non-deterministic (it counts one drain per worker, so it is
  // the one deterministic counter that varies with the worker count) and
  // per-shard `shard.<i>.*` counters plus a shard-tagged copy of each
  // worker's service.latency_seconds appended in the timing section.
  // The deterministic section is worker-count-invariant and matches a
  // single-process `oasys batch` run of the same specs.
  obs::MetricsSnapshot merged_metrics;
  // Worker span sets, in arrival order, when ShardOptions::trace_id was
  // set.  Partial by design under faults: a worker flushes its receive
  // markers before computing, so a crashed or wedge-killed worker's sets
  // still frame the failure window.  Coordinator-side events stay in the
  // process-global obs collector (the caller owns draining it).
  std::vector<SpanSet> worker_spans;

  // Every worker completed the protocol and exited 0.  Per-spec synthesis
  // failures (an outcome with ok() false under a healthy worker) are
  // ordinary results at this level; callers combine both for exit codes.
  bool infra_ok() const;
};

// The canonical routing rule, exposed for tests: which worker serves a
// request key, for a given worker count.  Must stay in lockstep with
// SynthesisService::request_key so co-location (and thus cache behavior)
// is exact.
std::size_t route(const std::string& request_key, std::size_t workers);

// Spawns options.workers processes, routes and runs a mixed batch of
// synthesis and yield requests, merges results and metrics, reaps every
// child (a slot whose worker dies may be respawned with backoff before
// the run drains; a cycle already lost with the dead process is never
// retried).  Yield requests are routed by their spec's plain request key —
// the same key a synthesis of that spec routes by — so the two kinds of
// traffic for one spec always co-locate on one worker and share its
// caches (which is also what keeps the merged deterministic counters
// worker-count-invariant).  Throws std::invalid_argument on a worker
// count outside 1..serve::kMaxWorkers or an empty worker_command; worker failures are reported in the
// ShardReport, never thrown.
ShardReport run_sharded_requests(const tech::Technology& tech,
                                 const synth::SynthOptions& synth_opts,
                                 const std::vector<yield::Request>& requests,
                                 const ShardOptions& options);

// Synthesis-only convenience wrapper over run_sharded_requests.
ShardReport run_sharded_batch(const tech::Technology& tech,
                              const synth::SynthOptions& synth_opts,
                              const std::vector<core::OpAmpSpec>& specs,
                              const ShardOptions& options);

}  // namespace oasys::shard
