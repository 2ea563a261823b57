// The worker fleet: one coordinator loop over a pool of `oasys
// shard-worker` processes, run either as a resident daemon or as the
// short-lived fleet behind one `oasys shard` batch.
//
// Daemon.  `oasys serve` keeps the workers resident across requests:
// clients connect to a unix-domain socket, speak the shard wire frames as
// a session protocol (kConfig once, then repeated kRequest*..kRun ->
// kResult*..kMetrics..kDone cycles), and their specs route to the worker
// picked by the canonical-fingerprint rule (shard::route), so per-worker
// caches stay exact and results stay byte-identical to `oasys batch` at
// every worker count.  The serve_mixed workload of `python3
// perfbench/run.py` measures the daemon end to end (see BENCHMARK.json).
//
// One session.  Server::run_one_session is the same loop with no
// listener: it spawns the pool, serves exactly one session over a
// socketpair, and drains through request_stop() once the client has seen
// kDone.  `oasys shard` (shard::run_sharded_requests) is that call, so
// the daemon and the batch fleet share one fault model and one reap site.
//
// Cache tiers.  Each worker keeps its private LRU warm across requests
// (that is the point of residence); above it the coordinator owns a
// shared result-cache tier keyed by the full request fingerprint and
// consulted before routing, so a key that repeats across requests stops
// costing one miss per worker.  Only ok() results are cached; the cached
// value is the result's exact wire bytes (plus which result frame type
// to replay — yield analyses cache under the spec key extended with
// their parameters), so a shared-tier hit replays the identical payload
// a worker would have produced.
//
// Fault model.  The event loop is poll(2)-based and single-threaded;
// every fd is non-blocking and every write is buffered, so no peer can
// wedge the coordinator.  A worker that dies mid-cycle has its in-flight
// specs answered with deterministic per-spec errors ("shard worker <i>
// died|timed out before returning a result for this spec") and is
// respawned with exponential backoff; a worker that is alive but silent
// past the per-worker read deadline (worker_timeout_s) is killed and
// handled the same way — a request can fail, but it can never hang.
// Respawns, timeouts, shared-cache traffic, and drain time are exported
// as `serve.*` metrics in every client's merged kMetrics frame; each
// worker slot's first failure is kept in its WorkerRecord.
//
// Drain.  request_stop() (async-signal-safe; the CLI points SIGTERM at
// it) closes the listener, lets in-flight cycles finish and answer,
// closes idle sessions, sends every worker EOF at a cycle boundary (a
// worker exits 0 there), reaps the pool, and returns 0 from run().
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "service/service.h"
#include "shard/coordinator.h"
#include "synth/oasys.h"
#include "tech/technology.h"

namespace oasys::serve {

struct ServeOptions {
  // Unix-domain socket path the daemon listens on.  Must fit sockaddr_un
  // (about 100 bytes); a stale file at the path is unlinked before bind.
  std::string socket_path;
  // Resident worker process count (>= 1).  Results are identical at
  // every value; only wall time and per-shard load change.
  std::size_t workers = 2;
  // Executable spawned per worker, invoked as `<worker_command>
  // shard-worker`.  The CLI passes its own binary path.
  std::string worker_command;
  // Per-worker service configuration (each worker owns a private cache
  // that stays warm across requests).
  service::ServiceOptions service;
  // Per-worker read deadline [s] while the worker has in-flight cycles;
  // 0 disables it.  Re-arms on every frame received, so a slow but
  // progressing worker is never killed.
  double worker_timeout_s = 30.0;
  // Coordinator-owned shared result-cache capacity in entries; 0
  // disables the shared tier (workers' private caches still apply).
  std::size_t shared_cache_capacity = 256;
  // Respawn backoff: first respawn after backoff_initial_s, doubling to
  // backoff_max_s; reset to the initial value when a worker completes a
  // cycle cleanly.
  double backoff_initial_s = 0.05;
  double backoff_max_s = 2.0;
  // Slow-query threshold [ms]; 0 disables it.  A dispatched request whose
  // worker answer arrives this long after its cycle was dispatched gets a
  // structured one-line JSON record on the daemon's stderr (timing-class
  // logging only — results and counters are untouched).
  double slow_ms = 0.0;
};

// Daemon counters, exported as `serve.*` in every merged kMetrics frame
// and readable in-process via Server::stats().
struct ServeStats {
  std::uint64_t sessions = 0;            // connections accepted
  std::uint64_t requests = 0;            // specs received across sessions
  std::uint64_t batches = 0;             // request cycles completed
  std::uint64_t shared_cache_hits = 0;   // answered before routing
  std::uint64_t shared_cache_misses = 0;
  std::uint64_t respawns = 0;            // replacement workers spawned
  std::uint64_t worker_timeouts = 0;     // deadline kills
  std::uint64_t worker_errors = 0;       // per-spec errors from dead workers
  double drain_seconds = 0.0;            // stop request -> loop exit
};

// What one worker slot went through during a run, kept by the loop when
// it reaps the slot's processes.  `summary` follows the shard contract:
// the first incarnation's pid, the requests routed to the slot, its
// *first* unclean exit (raw wait status plus decoded text in `error`;
// later incarnations never overwrite it), and the service counters of
// its last kMetrics frame.
struct WorkerRecord {
  shard::WorkerSummary summary;
  // That kMetrics frame's service.latency_seconds entry; empty name when
  // the slot never reported one.
  obs::MetricEntry latency;
};

class Server {
 public:
  // Validates options (workers >= 1, non-empty socket path and worker
  // command, path short enough for sockaddr_un) and creates the
  // self-pipe request_stop() writes to.  Throws std::invalid_argument
  // on bad options, std::runtime_error on pipe failure.  The socket is
  // not bound until run().
  Server(tech::Technology tech, synth::SynthOptions synth_opts,
         ServeOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds the socket, spawns the pool, and serves until request_stop().
  // Returns 0 after a clean drain; throws std::runtime_error when the
  // socket cannot be bound.  Call at most once.
  int run();

  // A short-lived fleet for exactly one session and no listener (`oasys
  // shard`): spawns the pool, adopts one end of a socketpair as the only
  // session, and runs `client` on its own thread with the other end (a
  // blocking stream fd the client must not close).  When `client`
  // returns or throws, the loop is stopped through request_stop() and
  // drains exactly as a daemon does.  options.socket_path is not used.
  // SIGPIPE is ignored for the whole call, with the caller's disposition
  // restored on return.  Returns each slot's record; rethrows what the
  // loop or `client` threw.
  static std::vector<WorkerRecord> run_one_session(
      tech::Technology tech, synth::SynthOptions synth_opts,
      ServeOptions options, const std::function<void(int fd)>& client);

  // Requests a graceful drain.  Async-signal-safe (one write(2) to the
  // self-pipe) and callable from any thread or signal handler; idempotent.
  void request_stop();

  // Counter snapshot; any thread, any time.
  ServeStats stats() const;

  const ServeOptions& options() const { return options_; }

 private:
  friend class ServerLoop;  // the run() implementation, in server.cpp

  // Validates everything but the socket path (run_one_session binds
  // nothing) and creates the self-pipe.
  struct NoListener {};
  Server(tech::Technology tech, synth::SynthOptions synth_opts,
         ServeOptions options, NoListener);

  const tech::Technology tech_;
  const synth::SynthOptions synth_opts_;
  const ServeOptions options_;

  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;

  mutable std::mutex stats_mu_;
  ServeStats stats_;
};

}  // namespace oasys::serve
