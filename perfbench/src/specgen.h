// Seeded input generator.  Every input is a pure function of (seed, index)
// through util::RngStream, so the same seed gives byte-identical inputs on
// any machine, and the program under test sees only the generated specs.
#pragma once

#include <cstdint>
#include <vector>

#include "core/spec.h"
#include "yield/service.h"

namespace perfbench {

// Paper case A, B or C (in turn, so every run mixes them in equal shares)
// with the bounded jitter of
// tools/gen_workload.cpp: gain +-2 dB, GBW and slew x[0.85, 1.1], load
// x[0.9, 1.1].  The index is folded into the name, so every spec is a
// distinct cache key.  Specs are never filtered: an infeasible draw is an
// ordinary input.
oasys::core::OpAmpSpec jittered_spec(std::uint64_t seed, std::uint64_t index);

std::vector<oasys::core::OpAmpSpec> generate_specs(std::uint64_t seed,
                                                   std::size_t count);

// yield_mc: request i is a yield run of jittered_spec(seed, i) with
// `samples` mismatch samples, its own Monte-Carlo seed, and `lanes`
// sample lanes.
std::vector<oasys::yield::Request> generate_yield_requests(
    std::uint64_t seed, std::size_t count, int samples, std::size_t lanes);

// serve_mixed: client batches of `batch` requests.  Each holds `fresh` new
// jittered specs — one yield request of `yield_samples` samples, the rest
// syntheses — and repeats of requests chosen uniformly among the last
// `repeat_window`, in a seeded order.  Every batch has the same make-up
// and the repeated working set has a fixed size, so the costly yield
// misses, their case mix and the cache hit share do not depend on how
// many batches a run gets through.
struct MixedTraffic {
  std::size_t batch = 8;
  std::size_t fresh = 4;
  int yield_samples = 8;
  std::size_t repeat_window = 128;
};
std::vector<oasys::yield::Request> generate_mixed_requests(
    std::uint64_t seed, std::size_t batches, const MixedTraffic& mix);

}  // namespace perfbench
