// Latency statistics and output digests for the benchmark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

// Linear-interpolation quantile (q in [0, 1]) of `v`; 0 for an empty
// vector.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

// The p95 rule: a tail percentile is only reported as resolved when at
// least kMinBeyondTail samples lie strictly above it.
inline constexpr std::size_t kMinBeyondTail = 10;

struct LatencySummary {
  std::size_t samples = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  std::size_t beyond_p95 = 0;  // samples strictly above p95_ms
  bool p95_resolved = false;   // beyond_p95 >= kMinBeyondTail
};

LatencySummary summarize_latency(const std::vector<double>& ms);

// FNV-1a 64 chained over byte strings: the output digest a byte-neutral
// change must leave unchanged.
inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ull;
std::uint64_t digest_update(std::uint64_t h, std::string_view bytes);

// Peak resident set [MB] of process `pid` (0 = this process), from
// VmHWM in /proc/<pid>/status; 0 when unreadable.
double peak_rss_mb(long pid = 0);

}  // namespace perfbench
