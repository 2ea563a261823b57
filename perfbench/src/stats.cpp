#include "stats.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

LatencySummary summarize_latency(const std::vector<double>& ms) {
  LatencySummary s;
  s.samples = ms.size();
  s.p50_ms = quantile(ms, 0.50);
  s.p95_ms = quantile(ms, 0.95);
  s.beyond_p95 = static_cast<std::size_t>(
      std::count_if(ms.begin(), ms.end(),
                    [&](double x) { return x > s.p95_ms; }));
  s.p95_resolved = s.beyond_p95 >= kMinBeyondTail;
  return s;
}

std::uint64_t digest_update(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

double peak_rss_mb(long pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

}  // namespace perfbench
