// A private `oasys serve` daemon for the serve_mixed workload.
//
// Hygiene rules: the socket lives in a fresh mkdtemp directory under the
// run directory, addressed by a relative path (the daemon inherits our
// working directory) so it always fits sockaddr_un; the constructor
// refuses to start while a stale daemon answers on a socket left there by
// an earlier run; the daemon runs in its own process group and gets
// SIGTERM if this process dies; the destructor sends SIGTERM, waits for
// the drain, then kills whatever is left of the group, so every exit path
// — including a failed output check — leaves no process behind.
#pragma once

#include <string>
#include <sys/types.h>

#include "serve/status.h"

namespace perfbench {

class Daemon {
 public:
  // Spawns `<oasys> serve --socket <path> --workers <workers>` and waits
  // until fetch_status answers with every worker alive.  Throws
  // std::runtime_error on any failure (after cleaning up).
  Daemon(const std::string& oasys, const std::string& run_dir, int workers);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket_path() const { return socket_; }
  pid_t pid() const { return pid_; }

 private:
  // Graceful SIGTERM drain plus waitpid, then SIGKILL to the process
  // group; idempotent.
  void stop();

  std::string dir_;
  std::string socket_;
  pid_t pid_ = -1;
};

// Installs SIGTERM/SIGINT/SIGHUP handlers that kill any live daemon's
// process group before exiting, so an interrupted run leaves no strays.
void install_daemon_reaper();

}  // namespace perfbench
