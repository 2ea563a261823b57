#include "specgen.h"

#include <algorithm>

#include "synth/test_cases.h"
#include "util/rng.h"
#include "util/text.h"

namespace perfbench {

namespace {

// Distinct stream families per use, so the spec draws, the yield seeds and
// the traffic-shape draws of one seed never share a stream.
constexpr std::uint64_t kYieldSeedSalt = 0x59454c44ull;   // "YELD"
constexpr std::uint64_t kTrafficSalt = 0x4d495845ull;     // "MIXE"

}  // namespace

oasys::core::OpAmpSpec jittered_spec(std::uint64_t seed, std::uint64_t index) {
  static const std::vector<oasys::core::OpAmpSpec> bases =
      oasys::synth::paper_test_cases();
  oasys::util::RngStream rng(seed, index);
  oasys::core::OpAmpSpec spec = bases[index % bases.size()];
  const auto jitter = [&rng](double lo, double hi) {
    return lo + (hi - lo) * rng.next_double();
  };
  spec.name = oasys::util::format("%s_w%06llu", spec.name.c_str(),
                                  static_cast<unsigned long long>(index));
  if (spec.gain_min_db > 0.0) spec.gain_min_db += jitter(-2.0, 2.0);
  if (spec.gbw_min > 0.0) spec.gbw_min *= jitter(0.85, 1.1);
  if (spec.slew_min > 0.0) spec.slew_min *= jitter(0.85, 1.1);
  if (spec.cload > 0.0) spec.cload *= jitter(0.9, 1.1);
  return spec;
}

std::vector<oasys::core::OpAmpSpec> generate_specs(std::uint64_t seed,
                                                   std::size_t count) {
  std::vector<oasys::core::OpAmpSpec> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(jittered_spec(seed, i));
  return out;
}

std::vector<oasys::yield::Request> generate_yield_requests(
    std::uint64_t seed, std::size_t count, int samples, std::size_t lanes) {
  std::vector<oasys::yield::Request> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    oasys::yield::Request& r = out[i];
    r.spec = jittered_spec(seed, i);
    r.is_yield = true;
    r.params.samples = samples;
    r.params.seed = oasys::util::RngStream(seed ^ kYieldSeedSalt, i).next_u64();
    r.params.jobs = lanes;
  }
  return out;
}

std::vector<oasys::yield::Request> generate_mixed_requests(
    std::uint64_t seed, std::size_t batches, const MixedTraffic& mix) {
  std::vector<oasys::yield::Request> out;
  out.reserve(batches * mix.batch);
  for (std::size_t b = 0; b < batches; ++b) {
    oasys::util::RngStream rng(seed ^ kTrafficSalt, b);
    // Slot k < fresh is new spec k of this batch (slot 0 the yield
    // request); the rest repeat earlier requests.  Shuffled so the kinds
    // land in every position.
    std::vector<std::size_t> slots(mix.batch);
    for (std::size_t k = 0; k < slots.size(); ++k) slots[k] = k;
    // The first batch keeps its new specs first: a repeat needs an
    // earlier request.
    for (std::size_t k = slots.size(); k > 1 && b > 0; --k) {
      std::swap(slots[k - 1], slots[rng.next_u64() % k]);
    }
    for (const std::size_t k : slots) {
      if (k >= mix.fresh) {
        const std::size_t window = std::min(out.size(), mix.repeat_window);
        out.push_back(out[out.size() - 1 - rng.next_u64() % window]);
        continue;
      }
      oasys::yield::Request r;
      // Fresh index b * fresh + k: the yield slot walks the cases A, B, C
      // batch by batch, and the syntheses cover them within a batch.
      r.spec = jittered_spec(seed, b * mix.fresh + k);
      r.is_yield = k == 0;
      if (r.is_yield) {
        r.params.samples = mix.yield_samples;
        r.params.seed = rng.next_u64();
      }
      out.push_back(std::move(r));
    }
  }
  return out;
}

}  // namespace perfbench
