// The three benchmark workloads and the run loop shared by them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;  // verify_sweep | yield_mc | serve_mixed
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string oasys;    // the `oasys` CLI, spawned as the serve daemon
  std::string run_dir;  // daemon socket directories live under it
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  // the JSON metrics, in print order
  std::vector<std::string> lines;  // human-readable report lines
};

bool known_workload(const std::string& name);

// Sets up, measures for cfg.seconds, checks the outputs, and reports:
// with cfg.trace false the end-to-end metrics, with it true the per-layer
// metrics of an untraced and a traced pass over the same units.
RunReport run_workload(const RunConfig& cfg);

}  // namespace perfbench
