// Worker half of cross-process sharded serving.
//
// One worker process serves one shard of the request key space for as
// long as its coordinator keeps the pipe open — one `oasys shard` batch
// or a resident daemon's lifetime; the conversation is the same.  It
// speaks the wire protocol (shard/wire.h) on a pair of file descriptors:
// reads kConfig once, then serves repeated [kRequest* kRun -> kResult*
// kMetrics kDone] cycles through one resident YieldService (private LRU
// caches, no cross-process locks), replying kResult per request in
// arrival order, then kMetrics (this cycle's obs registry deltas plus the
// cumulative service counters), then kDone.  EOF at a cycle boundary is a
// clean drain (exit 0); EOF mid-cycle is an error.
//
// The kConfig fingerprint hashes are re-derived from the decoded structs
// and verified before any work runs, so serializer/struct schema drift
// fails loudly instead of silently diverging from `oasys batch`.
//
// Test hook: OASYS_SHARD_TEST_CRASH="<spec-name>" makes the worker
// _exit(57) immediately before writing that spec's kResult;
// "<spec-name>:recv" exits on receipt of the request instead, and
// "<spec-name>:wedge" hangs forever (alive but never writing) at the
// pre-result site.  The first two give the fault-path tests a
// deterministic mid-batch worker death; the last one exercises the
// worker-timeout deadline, which must kill the wedged process rather
// than let the coordinator hang.
#pragma once

namespace oasys::shard {

// Exit code of the crash-injection test hook.
inline constexpr int kCrashHookExitCode = 57;

// Runs one worker conversation over the given descriptors (the CLI's
// `shard-worker` mode passes stdin/stdout).  Returns the process exit
// code: 0 after EOF at a cycle boundary, nonzero after a protocol or
// fatal error (diagnostics go to stderr, which the coordinator leaves
// inherited).
int worker_main(int in_fd, int out_fd);

}  // namespace oasys::shard
