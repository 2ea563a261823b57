// perfbench — the repository benchmark (see BENCHMARK.json).
//
//   perfbench --workload verify_sweep|yield_mc|serve_mixed --seed N
//             --seconds S --trace 0|1 --oasys PATH
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics; human-readable lines first, then, as the last line of
// standard output, one JSON object {correct, attempted, failed, metrics}.
// Exits 1 when an output check fails, 2 on a usage error.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "daemon.h"
#include "exec/executor.h"
#include "workloads.h"

namespace {

int usage() {
  std::fputs(
      "usage: perfbench --workload verify_sweep|yield_mc|serve_mixed "
      "--seed N --seconds S --trace 0|1 --oasys PATH\n",
      stderr);
  return 2;
}

bool parse_u64(const char* v, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (errno == ERANGE || end == v || *end != '\0' || v[0] == '-') return false;
  *out = n;
  return true;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  cfg.run_dir = ".bench_build/run";
  std::uint64_t seconds = 0;
  std::uint64_t trace = 2;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (v == nullptr) return usage();
    ++i;
    if (arg == "--workload") {
      cfg.workload = v;
    } else if (arg == "--seed") {
      if (!parse_u64(v, &cfg.seed)) return usage();
    } else if (arg == "--seconds") {
      if (!parse_u64(v, &seconds) || seconds == 0) return usage();
    } else if (arg == "--trace") {
      if (!parse_u64(v, &trace) || trace > 1) return usage();
    } else if (arg == "--oasys") {
      cfg.oasys = v;
    } else {
      return usage();
    }
  }
  if (!perfbench::known_workload(cfg.workload) || seconds == 0 ||
      trace > 1 || cfg.oasys.empty()) {
    return usage();
  }
  cfg.seconds = static_cast<double>(seconds);
  cfg.trace = trace == 1;
  perfbench::install_daemon_reaper();

  std::printf(
      "perfbench workload=%s seed=%llu seconds=%llu trace=%d build_type=%s "
      "hardware_jobs=%zu compiler=\"%s\"\n",
      cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
      static_cast<unsigned long long>(seconds), cfg.trace ? 1 : 0,
      PERFBENCH_BUILD_TYPE, oasys::exec::hardware_jobs(), PERFBENCH_COMPILER);

  perfbench::RunReport rep;
  try {
    rep = perfbench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const std::string& line : rep.lines) std::printf("%s\n", line.c_str());
  for (const perfbench::Metric& m : rep.metrics) {
    std::printf("  %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += rep.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const perfbench::Metric& m = rep.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return rep.correct ? 0 : 1;
}
