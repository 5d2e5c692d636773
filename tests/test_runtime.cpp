#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench_suite/benchmarks.h"
#include "core/optimizer.h"
#include "runtime/eval_cache.h"
#include "runtime/scheduler.h"
#include "runtime/thread_pool.h"

namespace cmmfo {
namespace {

using runtime::EvalCache;
using runtime::EvalJob;
using runtime::EvalResult;
using runtime::ThreadPool;
using runtime::ToolScheduler;
using sim::Fidelity;

// ------------------------------------------------------------ ThreadPool ----

TEST(ThreadPool, RunsSubmittedTasksAndReturnsValues) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i)
    futures.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 64; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, ExceptionPropagatesThroughFutureAndPoolSurvives) {
  ThreadPool pool(2);
  auto bad = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The worker that ran the throwing task must still be alive.
  auto good = pool.submit([] { return 7; });
  EXPECT_EQ(good.get(), 7);
}

TEST(ThreadPool, DestructorDrainsEveryQueuedTask) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i)
      pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        done.fetch_add(1);
      });
    // Destructor runs here with most tasks still queued.
  }
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPool, SingleWorkerExecutesFifo) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i)
    futures.push_back(pool.submit([&order, i] { order.push_back(i); }));
  for (auto& f : futures) f.get();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, SubmitOnStoppedPoolReturnsFailedFuture) {
  ThreadPool pool(2);
  pool.shutdown();
  auto f = pool.submit([] { return 1; });
  EXPECT_THROW(f.get(), std::runtime_error);
  // numWorkers() stays meaningful after shutdown, and shutdown is idempotent.
  EXPECT_EQ(pool.numWorkers(), 2);
  pool.shutdown();
}

TEST(ThreadPool, SubmitRacingShutdownNeverLosesAFuture) {
  // Satellite regression: submit used to push into the queue of a pool
  // whose workers had already been told to stop, silently stranding the
  // task (a broken_promise on get). Now every submit either runs or fails
  // fast. Run under TSan via run_benches.sh --tsan-smoke.
  for (int iter = 0; iter < 20; ++iter) {
    auto pool = std::make_unique<ThreadPool>(2);
    std::atomic<bool> go{false};
    std::vector<std::future<int>> futures;
    std::thread submitter([&] {
      while (!go.load()) {}
      for (int i = 0; i < 64; ++i)
        futures.push_back(pool->submit([i] { return i; }));
    });
    go.store(true);
    std::this_thread::sleep_for(std::chrono::microseconds(iter * 10));
    pool->shutdown();
    submitter.join();
    // Every future we did get must settle: either a value or the
    // stopped-pool exception — never a hang or a broken promise.
    for (auto& f : futures) {
      try {
        (void)f.get();
      } catch (const std::runtime_error&) {
      }
    }
  }
}

// ------------------------------------------------------------- Fixtures ----

struct Fixture {
  Fixture()
      : bm(bench_suite::makeSpmvCrs()),
        space(hls::DesignSpace::buildPruned(bm.kernel, bm.spec)),
        sim(bm.kernel, sim::DeviceModel::virtex7Vc707(), bm.sim_params, 42) {}
  bench_suite::Benchmark bm;
  hls::DesignSpace space;
  sim::FpgaToolSim sim;
};

core::OptimizerOptions fastOpts() {
  core::OptimizerOptions o;
  o.n_iter = 10;
  o.mc_samples = 16;
  o.max_candidates = 60;
  o.refit_every = 5;
  o.surrogate.mtgp.mle_restarts = 0;
  o.surrogate.mtgp.max_mle_iters = 25;
  o.surrogate.gp.mle_restarts = 0;
  o.surrogate.gp.max_mle_iters = 25;
  return o;
}

std::array<sim::Report, sim::kNumFidelities> flowOf(const Fixture& f,
                                                    std::size_t config,
                                                    Fidelity upto) {
  std::array<sim::Report, sim::kNumFidelities> stages{};
  for (int s = 0; s <= static_cast<int>(upto); ++s)
    stages[s] = f.sim.run(f.space.config(config), static_cast<Fidelity>(s));
  return stages;
}

// ------------------------------------------------------------- EvalCache ----

TEST(EvalCache, StoreFlowPopulatesEveryStageUpToCharged) {
  Fixture f;
  EvalCache cache;
  EXPECT_FALSE(cache.find(0, Fidelity::kHls).has_value());

  cache.storeFlow(0, Fidelity::kImpl, flowOf(f, 0, Fidelity::kImpl));
  // The impl flow left every intermediate artifact behind.
  for (int s = 0; s < sim::kNumFidelities; ++s)
    EXPECT_TRUE(cache.find(0, static_cast<Fidelity>(s)).has_value());
  EXPECT_EQ(cache.size(), 3u);

  const auto hls = cache.find(0, Fidelity::kHls);
  EXPECT_DOUBLE_EQ(hls->delay_us,
                   f.sim.run(f.space.config(0), Fidelity::kHls).delay_us);
}

TEST(EvalCache, PartialFlowDoesNotFakeHigherStages) {
  Fixture f;
  EvalCache cache;
  cache.storeFlow(1, Fidelity::kSyn, flowOf(f, 1, Fidelity::kSyn));
  EXPECT_TRUE(cache.find(1, Fidelity::kHls).has_value());
  EXPECT_TRUE(cache.find(1, Fidelity::kSyn).has_value());
  EXPECT_FALSE(cache.find(1, Fidelity::kImpl).has_value());
  EXPECT_FALSE(cache.findFlow(1, Fidelity::kImpl).has_value());
  EXPECT_TRUE(cache.findFlow(1, Fidelity::kSyn).has_value());
}

TEST(EvalCache, CountsHitsAndMisses) {
  Fixture f;
  EvalCache cache;
  cache.find(5, Fidelity::kHls);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  cache.storeFlow(5, Fidelity::kHls, flowOf(f, 5, Fidelity::kHls));
  cache.find(5, Fidelity::kHls);
  EXPECT_EQ(cache.hits(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(EvalCache, ConcurrentSameKeyInsertStaysConsistent) {
  // Satellite: many workers finishing the same flow concurrently must be
  // safe (the tool is deterministic, so last-writer-wins is correct). Run
  // under TSan via run_benches.sh --tsan-smoke.
  Fixture f;
  EvalCache cache;
  const auto flow = flowOf(f, 4, Fidelity::kImpl);
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i)
    threads.emplace_back([&cache, &flow] {
      for (int k = 0; k < 50; ++k)
        cache.storeFlow(4, Fidelity::kImpl, flow);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(cache.size(), 3u);  // one entry per stage, no duplicates
  const auto got = cache.find(4, Fidelity::kImpl);
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->delay_us, flow[2].delay_us);
}

TEST(EvalCache, StatsSnapshotMatchesCountersAndContentsSorted) {
  Fixture f;
  EvalCache cache;
  cache.storeFlow(9, Fidelity::kSyn, flowOf(f, 9, Fidelity::kSyn));
  cache.storeFlow(2, Fidelity::kImpl, flowOf(f, 2, Fidelity::kImpl));
  cache.find(9, Fidelity::kSyn);   // hit
  cache.find(50, Fidelity::kHls);  // miss
  const EvalCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, cache.size());
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  // contents() collapses the stage ladder to (config, highest fidelity),
  // sorted by config — the journal's canonical form.
  const auto contents = cache.contents();
  ASSERT_EQ(contents.size(), 2u);
  EXPECT_EQ(contents[0], (std::pair<std::size_t, Fidelity>{2, Fidelity::kImpl}));
  EXPECT_EQ(contents[1], (std::pair<std::size_t, Fidelity>{9, Fidelity::kSyn}));
  cache.restoreCounters(10, 20);
  EXPECT_EQ(cache.hits(), 10u);
  EXPECT_EQ(cache.misses(), 20u);
}

// ----------------------------------------------------------- ToolScheduler ----

std::vector<EvalJob> someJobs(const Fixture& f, std::size_t n) {
  std::vector<EvalJob> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    const Fidelity fid = static_cast<Fidelity>(i % sim::kNumFidelities);
    jobs.push_back({(i * 17) % f.space.size(), fid});
  }
  return jobs;
}

TEST(Scheduler, ResultsComeBackInJobOrder) {
  Fixture f;
  EvalCache cache;
  ToolScheduler sched(f.space, f.sim, cache, 4);
  const auto jobs = someJobs(f, 12);
  const auto results = sched.runBatch(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(results[i].job.config, jobs[i].config);
    EXPECT_EQ(results[i].job.fidelity, jobs[i].fidelity);
  }
}

TEST(Scheduler, CacheHitChargesNothingAndSkipsTheTool) {
  Fixture f;
  EvalCache cache;
  ToolScheduler sched(f.space, f.sim, cache, 2);
  const std::vector<EvalJob> jobs = {{3, Fidelity::kSyn}};
  const auto first = sched.runBatch(jobs);
  EXPECT_FALSE(first[0].cache_hit);
  EXPECT_GT(first[0].charged_seconds, 0.0);
  const double charged_after_first = f.sim.totalToolSeconds();

  const auto second = sched.runBatch(jobs);
  EXPECT_TRUE(second[0].cache_hit);
  EXPECT_DOUBLE_EQ(second[0].charged_seconds, 0.0);
  EXPECT_DOUBLE_EQ(f.sim.totalToolSeconds(), charged_after_first);
  EXPECT_EQ(sched.totals().tool_runs, 1);
  EXPECT_EQ(sched.totals().cache_hits, 1);
  // The hit returned the identical report.
  EXPECT_DOUBLE_EQ(second[0].report().delay_us, first[0].report().delay_us);
}

TEST(Scheduler, ImplRunSeedsLowerFidelityHits) {
  Fixture f;
  EvalCache cache;
  ToolScheduler sched(f.space, f.sim, cache, 2);
  sched.runBatch({{9, Fidelity::kImpl}});
  // Flow nesting: hls and syn proposals of the same config are now free.
  const auto res = sched.runBatch({{9, Fidelity::kHls}, {9, Fidelity::kSyn}});
  EXPECT_TRUE(res[0].cache_hit);
  EXPECT_TRUE(res[1].cache_hit);
  EXPECT_EQ(sched.totals().tool_runs, 1);
  EXPECT_EQ(sched.totals().cache_hits, 2);
  EXPECT_DOUBLE_EQ(sched.lastBatch().charged_seconds, 0.0);
}

// The satellite regression: accounting through the scheduler must agree
// between a sequential farm and a parallel one.
TEST(Scheduler, ParallelAccountingEqualsSequentialAccounting) {
  Fixture seq_f, par_f;
  EvalCache seq_cache, par_cache;
  ToolScheduler seq(seq_f.space, seq_f.sim, seq_cache, 1);
  ToolScheduler par(par_f.space, par_f.sim, par_cache, 4);
  const auto jobs = someJobs(seq_f, 24);
  const auto rs = seq.runBatch(jobs);
  const auto rp = par.runBatch(jobs);

  // Scheduler-side charges are summed in job order on the main thread:
  // bitwise identical.
  EXPECT_DOUBLE_EQ(par.totals().charged_seconds, seq.totals().charged_seconds);
  EXPECT_EQ(par.totals().tool_runs, seq.totals().tool_runs);
  // Simulator-side accumulation order depends on thread interleaving, so
  // allow rounding-reorder slack only.
  EXPECT_NEAR(par_f.sim.totalToolSeconds(), seq_f.sim.totalToolSeconds(),
              1e-9 * seq_f.sim.totalToolSeconds());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(rp[i].charged_seconds, rs[i].charged_seconds);
    EXPECT_DOUBLE_EQ(rp[i].report().power_w, rs[i].report().power_w);
  }
}

TEST(Scheduler, SequentialWallClockEqualsChargedTime) {
  Fixture f;
  EvalCache cache;
  ToolScheduler sched(f.space, f.sim, cache, 1);
  sched.runBatch(someJobs(f, 10));
  EXPECT_DOUBLE_EQ(sched.totals().wall_seconds,
                   sched.totals().charged_seconds);
}

// Satellite: the two accounting ledgers — the scheduler's charged_seconds
// and the simulator's own accumulator — must tie out in every regime:
// cache hits (charge nothing on both sides), multi-round batches, and
// fault-injected retries (failed attempts charge both sides).
TEST(Scheduler, AccountingTiesOutAcrossAllRegimes) {
  Fixture f;
  sim::FaultParams faults;
  faults.transient_crash_prob = 0.2;
  f.sim.setFaultParams(faults);
  EvalCache cache;
  runtime::RetryPolicy policy;
  policy.max_attempts = 3;
  ToolScheduler sched(f.space, f.sim, cache, 1, policy);

  sched.runBatch(someJobs(f, 12));      // fresh runs, some retried
  sched.runBatch(someJobs(f, 12));      // pure cache-hit round
  sched.runBatch(someJobs(f, 20));      // mixed hits and fresh runs
  EXPECT_GT(sched.totals().cache_hits, 0);
  // Sequential farm: both ledgers sum the same charges in the same order.
  EXPECT_DOUBLE_EQ(sched.totals().charged_seconds, f.sim.totalToolSeconds());

  // resetAccounting clears BOTH sides together, so they stay tied.
  sched.resetAccounting();
  EXPECT_DOUBLE_EQ(sched.totals().charged_seconds, 0.0);
  EXPECT_DOUBLE_EQ(f.sim.totalToolSeconds(), 0.0);
  sched.runBatch(someJobs(f, 6));
  EXPECT_DOUBLE_EQ(sched.totals().charged_seconds, f.sim.totalToolSeconds());
}

TEST(Scheduler, ParallelWallClockIsMakespanBounded) {
  Fixture f;
  EvalCache cache;
  ToolScheduler sched(f.space, f.sim, cache, 4);
  const auto jobs = someJobs(f, 16);
  const auto results = sched.runBatch(jobs);
  double max_job = 0.0;
  for (const auto& r : results) max_job = std::max(max_job, r.charged_seconds);
  const auto& s = sched.totals();
  EXPECT_LT(s.wall_seconds, s.charged_seconds);       // it actually overlaps
  EXPECT_GE(s.wall_seconds, s.charged_seconds / 4.0 - 1e-9);  // <= farm width
  EXPECT_GE(s.wall_seconds, max_job - 1e-9);          // critical path
}

// Direct hammer on the atomic accumulator (the concurrent-use fix).
TEST(ToolSim, ConcurrentRunCountedMatchesSequentialTotal) {
  Fixture seq_f, par_f;
  const int kThreads = 8, kPerThread = 25;

  double sequential = 0.0;
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kPerThread; ++i) {
      const std::size_t c = (t * kPerThread + i) % seq_f.space.size();
      sequential +=
          seq_f.sim.runCounted(seq_f.space.config(c), Fidelity::kSyn)
              .tool_seconds;
    }
  EXPECT_NEAR(seq_f.sim.totalToolSeconds(), sequential, 1e-9 * sequential);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&par_f, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::size_t c = (t * kPerThread + i) % par_f.space.size();
        par_f.sim.runCounted(par_f.space.config(c), Fidelity::kSyn);
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_NEAR(par_f.sim.totalToolSeconds(), sequential, 1e-9 * sequential);
}

// ------------------------------------------- Batched optimizer semantics ----

TEST(BatchedOptimizer, KrigingBelieverBatchesNeverRepeatConfigs) {
  Fixture f;
  core::OptimizerOptions o = fastOpts();
  o.n_iter = 12;
  o.batch_size = 4;
  o.n_workers = 4;
  core::CorrelatedMfMoboOptimizer opt(f.space, f.sim, o);
  const auto res = opt.run();
  std::set<std::size_t> seen;
  for (const auto& rec : res.cs) EXPECT_TRUE(seen.insert(rec.config).second);
}

TEST(BatchedOptimizer, SpendsTheFullProposalBudget) {
  Fixture f;
  core::OptimizerOptions o = fastOpts();
  o.n_iter = 10;
  o.batch_size = 3;  // 10 = 3 + 3 + 3 + 1: last round is a partial batch
  o.n_workers = 3;
  core::CorrelatedMfMoboOptimizer opt(f.space, f.sim, o);
  const auto res = opt.run();
  EXPECT_EQ(res.cs.size(), static_cast<std::size_t>(o.n_init_hls + o.n_iter));
  int picks = 0;
  for (int c : res.picks_per_fidelity) picks += c;
  EXPECT_EQ(picks, o.n_iter);
  ASSERT_EQ(res.iterations.size(), static_cast<std::size_t>(o.n_iter));
  for (int i = 0; i < o.n_iter; ++i) {
    EXPECT_EQ(res.iterations[i].iteration, i);
    EXPECT_EQ(res.iterations[i].round, i / 3);
  }
}

TEST(BatchedOptimizer, TrajectoryIndependentOfWorkerCount) {
  core::OptimizerOptions o = fastOpts();
  o.n_iter = 8;
  o.batch_size = 4;
  o.seed = 5;

  std::vector<core::OptimizeResult> runs;
  for (const int workers : {1, 4, 8}) {
    Fixture f;
    o.n_workers = workers;
    core::CorrelatedMfMoboOptimizer opt(f.space, f.sim, o);
    runs.push_back(opt.run());
  }
  for (std::size_t w = 1; w < runs.size(); ++w) {
    ASSERT_EQ(runs[w].cs.size(), runs[0].cs.size());
    for (std::size_t i = 0; i < runs[0].cs.size(); ++i) {
      EXPECT_EQ(runs[w].cs[i].config, runs[0].cs[i].config);
      EXPECT_EQ(runs[w].cs[i].fidelity, runs[0].cs[i].fidelity);
    }
    EXPECT_EQ(runs[w].tool_runs, runs[0].tool_runs);
    EXPECT_NEAR(runs[w].tool_seconds, runs[0].tool_seconds,
                1e-9 * runs[0].tool_seconds);
  }
  // More workers can only shrink the simulated wall-clock.
  EXPECT_GE(runs[0].wall_seconds, runs[1].wall_seconds);
  EXPECT_GE(runs[1].wall_seconds, runs[2].wall_seconds);

  // Pinned multi-pick trajectory: the batch-4 Kriging-believer rounds are
  // checked against fixed values, not only against themselves, so a change
  // to the step loop that moves them cannot pass unnoticed.
  const std::vector<std::pair<std::size_t, Fidelity>> golden = {
      {233, Fidelity::kImpl}, {141, Fidelity::kImpl}, {262, Fidelity::kImpl},
      {1, Fidelity::kSyn},    {25, Fidelity::kSyn},   {26, Fidelity::kHls},
      {281, Fidelity::kHls},  {259, Fidelity::kHls},  {89, Fidelity::kHls},
      {13, Fidelity::kHls},   {49, Fidelity::kHls},   {84, Fidelity::kHls},
      {61, Fidelity::kHls},   {4, Fidelity::kHls},    {62, Fidelity::kHls},
      {43, Fidelity::kHls},
  };
  ASSERT_EQ(runs[0].cs.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(runs[0].cs[i].config, golden[i].first) << "at index " << i;
    EXPECT_EQ(runs[0].cs[i].fidelity, golden[i].second) << "at index " << i;
  }
  const double golden_wall[] = {2931.9510319863139, 901.93462184532086,
                                901.93462184532086};
  for (std::size_t w = 0; w < runs.size(); ++w) {
    EXPECT_DOUBLE_EQ(runs[w].tool_seconds, 2931.9510319863148);
    EXPECT_DOUBLE_EQ(runs[w].wall_seconds, golden_wall[w]);
    EXPECT_EQ(runs[w].attempts, 16);
  }
}

TEST(BatchedOptimizer, BatchingShrinksWallClockAtEqualChargedTime) {
  Fixture f1, f8;
  core::OptimizerOptions o = fastOpts();
  o.n_iter = 8;
  core::CorrelatedMfMoboOptimizer seq(f1.space, f1.sim, o);
  const auto rs = seq.run();
  EXPECT_DOUBLE_EQ(rs.wall_seconds, rs.tool_seconds);  // sequential regime

  o.batch_size = 8;
  o.n_workers = 8;
  core::CorrelatedMfMoboOptimizer par(f8.space, f8.sim, o);
  const auto rp = par.run();
  EXPECT_EQ(rp.tool_runs, rs.tool_runs);
  EXPECT_LT(rp.wall_seconds, 0.9 * rp.tool_seconds);
}

// Pins the exact sequential trajectory of the pre-runtime implementation
// (captured from the seed build): batch_size = n_workers = 1 must stay
// bit-for-bit equal to the paper-faithful sequential Algorithm 2.
TEST(BatchedOptimizer, SequentialGoldenTrajectoryPreserved) {
  Fixture f;
  core::OptimizerOptions o = fastOpts();
  o.seed = 77;
  core::CorrelatedMfMoboOptimizer opt(f.space, f.sim, o);
  const auto res = opt.run();

  const std::vector<std::pair<std::size_t, Fidelity>> golden = {
      {275, Fidelity::kImpl}, {184, Fidelity::kImpl}, {132, Fidelity::kImpl},
      {228, Fidelity::kSyn},  {20, Fidelity::kSyn},   {89, Fidelity::kHls},
      {194, Fidelity::kHls},  {57, Fidelity::kHls},   {75, Fidelity::kHls},
      {35, Fidelity::kHls},   {3, Fidelity::kHls},    {0, Fidelity::kHls},
      {7, Fidelity::kHls},    {5, Fidelity::kHls},    {17, Fidelity::kHls},
      {52, Fidelity::kHls},   {1, Fidelity::kHls},    {15, Fidelity::kHls},
  };
  ASSERT_EQ(res.cs.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(res.cs[i].config, golden[i].first) << "at index " << i;
    EXPECT_EQ(res.cs[i].fidelity, golden[i].second) << "at index " << i;
  }
  EXPECT_DOUBLE_EQ(res.tool_seconds, 3062.9170931904364);
  EXPECT_EQ(res.tool_runs, 18);
  EXPECT_DOUBLE_EQ(res.wall_seconds, res.tool_seconds);
  EXPECT_EQ(res.cache_hits, 0);
}

}  // namespace
}  // namespace cmmfo
