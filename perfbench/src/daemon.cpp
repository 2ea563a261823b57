#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "serve/client.h"

namespace perfbench {

namespace {

constexpr const char* kSocketName = "oasys.sock";

// Process group of the live daemon (0 = none), for the signal handler.
std::atomic<pid_t> g_daemon_group{0};

void reap_and_exit(int sig) {
  const pid_t g = g_daemon_group.load();
  if (g > 0) ::kill(-g, SIGKILL);
  ::_exit(128 + sig);
}

bool answers(const std::string& socket) {
  try {
    oasys::serve::fetch_status(socket);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

// waitpid with a deadline; true once the child has been reaped.
bool wait_exit(pid_t pid, double seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

void install_daemon_reaper() {
  struct sigaction sa {};
  sa.sa_handler = reap_and_exit;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGHUP, &sa, nullptr);
}

Daemon::Daemon(const std::string& oasys, const std::string& run_dir,
               int workers) {
  // Socket directories left by an earlier run that was killed outright:
  // refuse to run beside a daemon that still answers on one (it would
  // skew every figure), and clear the rest.
  std::filesystem::create_directories(run_dir);
  for (const auto& entry : std::filesystem::directory_iterator(run_dir)) {
    if (entry.path().filename().string().rfind("serve-", 0) != 0) continue;
    const std::string stale = (entry.path() / kSocketName).string();
    if (answers(stale)) {
      throw std::runtime_error("a stale daemon answers on " + stale);
    }
    std::filesystem::remove_all(entry.path());
  }
  std::string templ = run_dir + "/serve-XXXXXX";
  if (::mkdtemp(templ.data()) == nullptr) {
    throw std::runtime_error("cannot create socket directory under " + run_dir);
  }
  dir_ = templ;
  socket_ = dir_ + "/" + kSocketName;

  const std::string workers_arg = std::to_string(workers);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    ::setpgid(0, 0);
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(127);
    const int devnull = ::open("/dev/null", O_RDWR);
    if (devnull >= 0) {
      ::dup2(devnull, STDIN_FILENO);
      ::dup2(devnull, STDOUT_FILENO);
      ::dup2(devnull, STDERR_FILENO);
    }
    ::execl(oasys.c_str(), oasys.c_str(), "serve", "--socket",
            socket_.c_str(), "--workers", workers_arg.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::setpgid(pid_, pid_);
  g_daemon_group.store(pid_);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      ::kill(-pid_, SIGKILL);
      g_daemon_group.store(0);
      pid_ = -1;
      stop();
      throw std::runtime_error("oasys serve exited during start-up");
    }
    try {
      const oasys::serve::StatusReport st = oasys::serve::fetch_status(socket_);
      bool all_alive = st.workers.size() == static_cast<std::size_t>(workers);
      for (const auto& w : st.workers) all_alive = all_alive && w.alive;
      if (all_alive) return;
    } catch (const std::exception&) {
      // not listening yet
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      stop();
      throw std::runtime_error("oasys serve did not come up within 30 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

Daemon::~Daemon() { stop(); }

void Daemon::stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    if (!wait_exit(pid_, 10.0)) {
      ::kill(-pid_, SIGKILL);
      wait_exit(pid_, 10.0);
    }
    // Workers are reaped by the daemon's drain; anything still in the
    // group (a daemon killed mid-drain) goes now.
    ::kill(-pid_, SIGKILL);
    g_daemon_group.store(0);
    pid_ = -1;
  }
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    dir_.clear();
  }
}

}  // namespace perfbench
