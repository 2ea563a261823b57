// Work-executor tests: deterministic result placement (jobs 1 vs jobs N),
// exception propagation out of pool tasks, nested-region safety, and
// end-to-end parallel-vs-serial equivalence of the synthesis and
// simulation paths wired through it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "exec/bounded_fifo.h"
#include "exec/executor.h"
#include "synth/oasys.h"
#include "synth/test_cases.h"
#include "synth/testbench.h"
#include "tech/builtin.h"
#include "util/units.h"

namespace oasys {
namespace {

// ---- primitives -----------------------------------------------------------

TEST(ThreadPool, ExecutesSubmittedTasks) {
  exec::ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    pool.submit([&] {
      std::lock_guard<std::mutex> lock(mu);
      ++done;
      cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done == 8; });
  EXPECT_EQ(done, 8);
}

TEST(ThreadPool, WorkersReportPoolContext) {
  std::atomic<bool> inside{false};
  std::atomic<bool> done{false};
  exec::ThreadPool pool(1);
  pool.submit([&] {
    inside = exec::in_pool_worker();
    done = true;
  });
  while (!done) std::this_thread::yield();
  EXPECT_TRUE(inside);
  EXPECT_FALSE(exec::in_pool_worker());
}

TEST(BoundedFifo, FifoOrderAndCapacityRefusal) {
  exec::BoundedFifo<int> q(3);
  EXPECT_EQ(q.capacity(), 3u);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.try_push(3));
  EXPECT_FALSE(q.try_push(4));  // full: refused, caller owns backpressure
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.try_pop().value(), 1);
  EXPECT_TRUE(q.try_push(4));  // space again
  EXPECT_EQ(q.try_pop().value(), 2);
  EXPECT_EQ(q.try_pop().value(), 3);
  EXPECT_EQ(q.try_pop().value(), 4);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BoundedFifo, PopAllDrainsInOrderAndHighWaterSticks) {
  exec::BoundedFifo<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_EQ(q.high_water(), 5u);
  const std::vector<int> all = q.pop_all();
  EXPECT_EQ(all, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.high_water(), 5u);  // high water survives the drain
  EXPECT_TRUE(q.try_push(9));
  EXPECT_EQ(q.pop_all(), std::vector<int>{9});
}

TEST(BoundedFifo, ZeroCapacityClampsToOne) {
  exec::BoundedFifo<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_FALSE(q.try_push(2));
}

TEST(BoundedFifo, ConcurrentProducersLoseNothing) {
  exec::BoundedFifo<int> q(256);
  std::thread a([&] {
    for (int i = 0; i < 100; ++i) {
      while (!q.try_push(i)) std::this_thread::yield();
    }
  });
  std::thread b([&] {
    for (int i = 100; i < 200; ++i) {
      while (!q.try_push(i)) std::this_thread::yield();
    }
  });
  a.join();
  b.join();
  std::vector<int> all = q.pop_all();
  ASSERT_EQ(all.size(), 200u);
  std::sort(all.begin(), all.end());
  for (int i = 0; i < 200; ++i) EXPECT_EQ(all[i], i);
}

TEST(Jobs, DefaultAndOverride) {
  EXPECT_GE(exec::hardware_jobs(), 1u);
  EXPECT_EQ(exec::default_jobs(), exec::hardware_jobs());
  exec::set_default_jobs(3);
  EXPECT_EQ(exec::default_jobs(), 3u);
  EXPECT_EQ(exec::resolve_jobs(0), 3u);
  EXPECT_EQ(exec::resolve_jobs(7), 7u);
  exec::set_default_jobs(0);
  EXPECT_EQ(exec::default_jobs(), exec::hardware_jobs());
}

TEST(ParallelFor, ResultsLandByIndex) {
  const std::size_t n = 1000;
  std::vector<double> serial(n), threaded(n);
  auto body_into = [](std::vector<double>& out) {
    return [&out](std::size_t i) {
      out[i] = std::sin(static_cast<double>(i)) * 3.25 + 1.0 / (i + 1.0);
    };
  };
  exec::parallel_for(n, body_into(serial), 1);
  exec::parallel_for(n, body_into(threaded), 8);
  EXPECT_EQ(serial, threaded);  // bit-for-bit, not approximately
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  const std::size_t n = 513;
  std::vector<std::atomic<int>> hits(n);
  exec::parallel_for(
      n, [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, EmptyAndSingle) {
  int calls = 0;
  exec::parallel_for(0, [&](std::size_t) { ++calls; }, 8);
  EXPECT_EQ(calls, 0);
  exec::parallel_for(1, [&](std::size_t) { ++calls; }, 8);
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, PropagatesLowestIndexException) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    try {
      exec::parallel_for(
          100,
          [](std::size_t i) {
            if (i == 23 || i == 77) {
              throw std::runtime_error("boom " + std::to_string(i));
            }
          },
          jobs);
      FAIL() << "expected an exception at jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 23") << "jobs=" << jobs;
    }
  }
}

TEST(ParallelFor, RemainingIndicesStillRunAfterThrow) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::atomic<int>> hits(50);
    EXPECT_THROW(exec::parallel_for(
                     50,
                     [&](std::size_t i) {
                       hits[i].fetch_add(1);
                       if (i == 0) throw std::runtime_error("first");
                     },
                     jobs),
                 std::runtime_error);
    int total = 0;
    for (auto& h : hits) total += h.load();
    EXPECT_EQ(total, 50) << "jobs=" << jobs;
  }
}

TEST(ParallelFor, NestedRegionsDoNotDeadlock) {
  std::vector<std::vector<int>> grid(16, std::vector<int>(16, 0));
  exec::parallel_for(
      16,
      [&](std::size_t i) {
        exec::parallel_for(
            16, [&](std::size_t j) { grid[i][j] = static_cast<int>(i * j); },
            4);
      },
      4);
  EXPECT_EQ(grid[3][5], 15);
  EXPECT_EQ(grid[15][15], 225);
}

TEST(ParallelInvoke, HeterogeneousTasksFillSlots) {
  int a = 0;
  double b = 0.0;
  std::string c;
  exec::invoke_all(
      4, [&] { a = 42; }, [&] { b = 2.5; }, [&] { c = "done"; });
  EXPECT_EQ(a, 42);
  EXPECT_DOUBLE_EQ(b, 2.5);
  EXPECT_EQ(c, "done");
}

// ---- end-to-end equivalence ------------------------------------------------

TEST(ParallelSynthesis, IdenticalToSerial) {
  const tech::Technology t = tech::five_micron();
  for (const auto& spec :
       {synth::spec_case_a(), synth::spec_case_b(), synth::spec_case_c()}) {
    synth::SynthOptions serial_opts;
    serial_opts.jobs = 1;
    synth::SynthOptions par_opts;
    par_opts.jobs = 8;
    const synth::SynthesisResult serial =
        synth::synthesize_opamp(t, spec, serial_opts);
    const synth::SynthesisResult par =
        synth::synthesize_opamp(t, spec, par_opts);

    ASSERT_EQ(serial.candidates.size(), par.candidates.size());
    EXPECT_EQ(serial.selection.best, par.selection.best);
    EXPECT_EQ(serial.selection.ranking, par.selection.ranking);
    for (std::size_t i = 0; i < serial.candidates.size(); ++i) {
      const auto& cs = serial.candidates[i];
      const auto& cp = par.candidates[i];
      EXPECT_EQ(cs.feasible, cp.feasible);
      EXPECT_EQ(cs.predicted.area, cp.predicted.area);
      EXPECT_EQ(cs.predicted.gbw, cp.predicted.gbw);
      ASSERT_EQ(cs.devices.size(), cp.devices.size());
      for (std::size_t k = 0; k < cs.devices.size(); ++k) {
        EXPECT_EQ(cs.devices[k].w, cp.devices[k].w);
        EXPECT_EQ(cs.devices[k].l, cp.devices[k].l);
      }
    }
  }
}

TEST(ParallelSynthesis, BatchMatchesPerSpecCalls) {
  const tech::Technology t = tech::five_micron();
  const std::vector<core::OpAmpSpec> specs = {
      synth::spec_case_a(), synth::spec_case_b(), synth::spec_case_c()};
  synth::SynthOptions opts;
  opts.jobs = 8;
  const auto batch = synth::synthesize_opamp_batch(t, specs, opts);
  ASSERT_EQ(batch.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    synth::SynthOptions serial;
    serial.jobs = 1;
    const auto one = synth::synthesize_opamp(t, specs[i], serial);
    EXPECT_EQ(batch[i].selection.best, one.selection.best);
    ASSERT_TRUE(batch[i].success());
    EXPECT_EQ(batch[i].best()->predicted.area, one.best()->predicted.area);
  }
}

TEST(ParallelAc, PointPathIdenticalToSerial) {
  const tech::Technology t = tech::five_micron();
  const synth::SynthesisResult r =
      synth::synthesize_opamp(t, synth::spec_case_b());
  ASSERT_TRUE(r.success());

  synth::MeasureOptions serial;
  serial.jobs = 1;
  serial.measure_slew = false;
  serial.measure_icmr = false;
  synth::MeasureOptions par = serial;
  par.jobs = 8;
  const synth::MeasuredOpAmp ms = synth::measure_opamp(*r.best(), t, serial);
  const synth::MeasuredOpAmp mp = synth::measure_opamp(*r.best(), t, par);
  ASSERT_TRUE(ms.ok) << ms.error;
  ASSERT_TRUE(mp.ok) << mp.error;
  EXPECT_EQ(ms.perf.gain_db, mp.perf.gain_db);
  EXPECT_EQ(ms.perf.gbw, mp.perf.gbw);
  EXPECT_EQ(ms.perf.pm_deg, mp.perf.pm_deg);
  EXPECT_EQ(ms.bode.gain_db, mp.bode.gain_db);
  EXPECT_EQ(ms.bode.phase_deg, mp.bode.phase_deg);
}

}  // namespace
}  // namespace oasys
