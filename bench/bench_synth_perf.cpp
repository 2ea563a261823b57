// Synthesis-speed microbenchmarks (google-benchmark).
//
// The paper reports "usually under 2 minutes of CPU time per op amp" on a
// VAX 11/785 (Franz LISP); these benchmarks time the same task here.
#include <benchmark/benchmark.h>

#include "baseline/random_sizer.h"
#include "synth/oasys.h"
#include "synth/test_cases.h"
#include "tech/builtin.h"

#include "jobs_flag.h"

namespace {

using namespace oasys;

const tech::Technology& tech5() {
  static const tech::Technology t = tech::five_micron();
  return t;
}

void BM_SynthesizeCaseA(benchmark::State& state) {
  const core::OpAmpSpec spec = synth::spec_case_a();
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::synthesize_opamp(tech5(), spec));
  }
}
BENCHMARK(BM_SynthesizeCaseA);

void BM_SynthesizeCaseB(benchmark::State& state) {
  const core::OpAmpSpec spec = synth::spec_case_b();
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::synthesize_opamp(tech5(), spec));
  }
}
BENCHMARK(BM_SynthesizeCaseB);

void BM_SynthesizeCaseC(benchmark::State& state) {
  const core::OpAmpSpec spec = synth::spec_case_c();
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::synthesize_opamp(tech5(), spec));
  }
}
BENCHMARK(BM_SynthesizeCaseC);

void BM_OneStagePlanOnly(benchmark::State& state) {
  const core::OpAmpSpec spec = synth::spec_case_a();
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::design_one_stage_ota(tech5(), spec));
  }
}
BENCHMARK(BM_OneStagePlanOnly);

void BM_TwoStagePlanOnly(benchmark::State& state) {
  const core::OpAmpSpec spec = synth::spec_case_c();
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::design_two_stage(tech5(), spec));
  }
}
BENCHMARK(BM_TwoStagePlanOnly);

void BM_BaselineRandomSearch1k(benchmark::State& state) {
  const core::OpAmpSpec spec = synth::spec_case_b();
  for (auto _ : state) {
    baseline::BaselineOptions bo;
    bo.seed = 1;
    bo.max_evaluations = 1000;
    benchmark::DoNotOptimize(
        baseline::random_search_two_stage(tech5(), spec, bo));
  }
}
BENCHMARK(BM_BaselineRandomSearch1k);

}  // namespace

int main(int argc, char** argv) {
  if (!oasys::bench::apply_jobs_flag(argc, argv)) return 2;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
