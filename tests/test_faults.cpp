// Fault-injection, retry/backoff, graceful degradation and checkpoint/resume
// tests for the fault-tolerant evaluation layer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_suite/benchmarks.h"
#include "core/checkpoint.h"
#include "core/optimizer.h"
#include "runtime/eval_cache.h"
#include "runtime/scheduler.h"

namespace cmmfo {
namespace {

using runtime::EvalCache;
using runtime::EvalJob;
using runtime::EvalResult;
using runtime::RetryPolicy;
using runtime::ToolScheduler;
using sim::AttemptStatus;
using sim::Fidelity;
using sim::FlowAttempt;

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

// --------------------------------------------------- fault determinism ----

TEST(FaultInjection, DisabledFaultsAreABitExactNoOp) {
  Fixture f;
  for (std::size_t c : {0u, 17u, 99u}) {
    const auto cfg = f.space.config(c);
    const FlowAttempt fa = f.sim.runFlowAttempt(cfg, Fidelity::kImpl, 1);
    EXPECT_TRUE(fa.ok());
    EXPECT_EQ(fa.completed_upto, 2);
    // The attempt charges EXACTLY the legacy cumulative flow cost — not an
    // additive per-stage re-summation, which would differ in the last bits.
    const sim::Report clean = f.sim.run(cfg, Fidelity::kImpl);
    EXPECT_DOUBLE_EQ(fa.attempt_seconds, clean.tool_seconds);
    EXPECT_DOUBLE_EQ(fa.stages[2].delay_us, clean.delay_us);
  }
}

TEST(FaultInjection, TimeoutOnlyPolicyKeepsLegacyNumbersWhenNothingFires) {
  // A timeout forces the fault-aware path; with no fault events the charge
  // must still be bit-for-bit the legacy cumulative value.
  Fixture f;
  const auto cfg = f.space.config(5);
  const FlowAttempt fa = f.sim.runFlowAttempt(cfg, Fidelity::kImpl, 1, 1e12);
  EXPECT_TRUE(fa.ok());
  EXPECT_DOUBLE_EQ(fa.attempt_seconds,
                   f.sim.run(cfg, Fidelity::kImpl).tool_seconds);
}

TEST(FaultInjection, SameSeedSameAttemptGivesIdenticalFaultPattern) {
  Fixture f1, f2;
  sim::FaultParams faults;
  faults.transient_crash_prob = 0.3;
  faults.hang_prob = 0.1;
  faults.license_stall_prob = 0.1;
  f1.sim.setFaultParams(faults);
  f2.sim.setFaultParams(faults);
  for (std::size_t c = 0; c < 40; ++c) {
    for (int attempt = 1; attempt <= 3; ++attempt) {
      const FlowAttempt a =
          f1.sim.runFlowAttempt(f1.space.config(c), Fidelity::kImpl, attempt);
      const FlowAttempt b =
          f2.sim.runFlowAttempt(f2.space.config(c), Fidelity::kImpl, attempt);
      EXPECT_EQ(a.status, b.status);
      EXPECT_EQ(a.completed_upto, b.completed_upto);
      EXPECT_EQ(a.failed_stage, b.failed_stage);
      EXPECT_DOUBLE_EQ(a.attempt_seconds, b.attempt_seconds);
    }
  }
}

TEST(FaultInjection, RetriedAttemptsRollFreshDice) {
  // With a 50% transient rate, some config must fail on attempt 1 and
  // succeed on attempt 2 — crashes key on (config, stage, attempt).
  Fixture f;
  sim::FaultParams faults;
  faults.transient_crash_prob = 0.5;
  f.sim.setFaultParams(faults);
  bool saw_retry_rescue = false;
  for (std::size_t c = 0; c < 60 && !saw_retry_rescue; ++c) {
    const FlowAttempt a1 =
        f.sim.runFlowAttempt(f.space.config(c), Fidelity::kImpl, 1);
    const FlowAttempt a2 =
        f.sim.runFlowAttempt(f.space.config(c), Fidelity::kImpl, 2);
    if (!a1.ok() && a2.ok()) saw_retry_rescue = true;
  }
  EXPECT_TRUE(saw_retry_rescue);
}

TEST(FaultInjection, TransientCrashChargesPartOfTheCleanFlow) {
  Fixture f;
  sim::FaultParams faults;
  faults.transient_crash_prob = 0.5;
  f.sim.setFaultParams(faults);
  int seen = 0;
  for (std::size_t c = 0; c < 60; ++c) {
    const auto cfg = f.space.config(c);
    const FlowAttempt fa = f.sim.runFlowAttempt(cfg, Fidelity::kImpl, 1);
    if (fa.status != AttemptStatus::kTransientCrash) continue;
    ++seen;
    EXPECT_GE(fa.failed_stage, 0);
    EXPECT_LT(fa.completed_upto, 2);
    EXPECT_GT(fa.attempt_seconds, 0.0);
    EXPECT_LT(fa.attempt_seconds, f.sim.run(cfg, Fidelity::kImpl).tool_seconds);
  }
  EXPECT_GT(seen, 0);
}

TEST(FaultInjection, HungAttemptIsKilledChargingExactlyTheTimeout) {
  Fixture f;
  sim::FaultParams faults;
  faults.hang_prob = 1.0;  // every stage wedges at 20x nominal
  f.sim.setFaultParams(faults);
  const auto cfg = f.space.config(3);
  const double clean = f.sim.run(cfg, Fidelity::kImpl).tool_seconds;
  const FlowAttempt fa = f.sim.runFlowAttempt(cfg, Fidelity::kImpl, 1, clean);
  EXPECT_EQ(fa.status, AttemptStatus::kTimeout);
  EXPECT_DOUBLE_EQ(fa.attempt_seconds, clean);
  // Without a timeout the hung run completes and charges the full 20x.
  const FlowAttempt slow = f.sim.runFlowAttempt(cfg, Fidelity::kImpl, 1);
  EXPECT_TRUE(slow.ok());
  EXPECT_NEAR(slow.attempt_seconds, 20.0 * clean, 1e-6 * clean);
}

TEST(FaultInjection, PersistentFailureHitsEveryAttemptAtTheSameStage) {
  Fixture f;
  sim::FaultParams faults;
  faults.persistent_failure_prob = 1.0;
  f.sim.setFaultParams(faults);
  const auto cfg = f.space.config(11);
  const FlowAttempt a1 = f.sim.runFlowAttempt(cfg, Fidelity::kImpl, 1);
  const FlowAttempt a9 = f.sim.runFlowAttempt(cfg, Fidelity::kImpl, 9);
  EXPECT_EQ(a1.status, AttemptStatus::kPersistentFailure);
  EXPECT_EQ(a9.status, AttemptStatus::kPersistentFailure);
  EXPECT_EQ(a1.failed_stage, a9.failed_stage);
}

// ------------------------------------------------------ backoff schedule ----

TEST(Backoff, DeterministicBoundedExponentialSchedule) {
  RetryPolicy policy;  // base 30, factor 2, jitter 0.25
  for (int attempt = 1; attempt <= 4; ++attempt) {
    const double nominal =
        policy.backoff_base_seconds * std::pow(policy.backoff_factor,
                                               attempt - 1);
    const double d = policy.backoffSeconds(7, Fidelity::kSyn, attempt);
    EXPECT_GE(d, nominal * (1.0 - policy.backoff_jitter_frac));
    EXPECT_LE(d, nominal * (1.0 + policy.backoff_jitter_frac));
    // Deterministic: same key, same wait.
    EXPECT_DOUBLE_EQ(d, policy.backoffSeconds(7, Fidelity::kSyn, attempt));
  }
  // With 25% jitter and factor 2 the bands never overlap: the schedule is
  // strictly increasing in the attempt number.
  for (int attempt = 1; attempt < 4; ++attempt)
    EXPECT_LT(policy.backoffSeconds(7, Fidelity::kSyn, attempt),
              policy.backoffSeconds(7, Fidelity::kSyn, attempt + 1));
  // Jitter decorrelates jobs: not every config waits the same.
  bool differs = false;
  for (std::size_t c = 1; c < 20 && !differs; ++c)
    differs = policy.backoffSeconds(c, Fidelity::kSyn, 1) !=
              policy.backoffSeconds(0, Fidelity::kSyn, 1);
  EXPECT_TRUE(differs);
}

// ------------------------------------------- scheduler retry accounting ----

TEST(SchedulerFaults, RetriesChargeHonestlyAndTieOutWithTheSimulator) {
  Fixture f;
  sim::FaultParams faults;
  faults.transient_crash_prob = 0.25;
  f.sim.setFaultParams(faults);
  EvalCache cache;
  RetryPolicy policy;
  policy.max_attempts = 4;
  ToolScheduler sched(f.space, f.sim, cache, 1, policy);

  std::vector<EvalJob> jobs;
  for (std::size_t c = 0; c < 24; ++c) jobs.push_back({c, Fidelity::kImpl});
  const auto results = sched.runBatch(jobs);

  const runtime::SchedulerStats& t = sched.totals();
  EXPECT_GT(t.attempts, t.tool_runs);  // at ~25%/stage some retries happened
  EXPECT_GT(t.transient_failures, 0);
  EXPECT_GT(t.retry_seconds_wasted, 0.0);
  EXPECT_LT(t.retry_seconds_wasted, t.charged_seconds);
  EXPECT_GT(t.backoff_seconds, 0.0);
  // Sequential regime: the scheduler ledger and the simulator accumulator
  // are the same sum in the same order — exactly equal.
  EXPECT_DOUBLE_EQ(t.charged_seconds, f.sim.totalToolSeconds());
  // Wall-clock includes backoff; charged does not.
  EXPECT_GE(t.wall_seconds, t.charged_seconds + t.backoff_seconds - 1e-9);
  for (const EvalResult& r : results)
    if (r.attempts > 1) EXPECT_GT(r.wasted_seconds, 0.0);
}

TEST(SchedulerFaults, PersistentFailureAbortsWithoutBurningRetries) {
  Fixture f;
  sim::FaultParams faults;
  faults.persistent_failure_prob = 1.0;
  f.sim.setFaultParams(faults);
  EvalCache cache;
  RetryPolicy policy;
  policy.max_attempts = 5;
  ToolScheduler sched(f.space, f.sim, cache, 1, policy);

  const auto results = sched.runBatch({{0, Fidelity::kImpl}});
  ASSERT_EQ(results.size(), 1u);
  const EvalResult& r = results[0];
  EXPECT_TRUE(r.persistent_failure);
  EXPECT_EQ(r.attempts, 1);  // retrying a persistent fault only burns hours
  EXPECT_EQ(r.completed_fidelity, -1);  // stage 0 fails: nothing completed
  EXPECT_EQ(sched.totals().persistent_failures, 1);
}

TEST(SchedulerFaults, ExhaustedRetriesDegradeToTheDeepestCompletedPrefix) {
  // Find a job whose impl stage keeps crashing but whose hls/syn complete:
  // the scheduler must settle on the syn prefix and flag degradation.
  Fixture f;
  sim::FaultParams faults;
  faults.transient_crash_prob = 0.45;
  f.sim.setFaultParams(faults);
  EvalCache cache;
  RetryPolicy policy;
  policy.max_attempts = 2;
  ToolScheduler sched(f.space, f.sim, cache, 1, policy);

  std::vector<EvalJob> jobs;
  for (std::size_t c = 0; c < 48; ++c) jobs.push_back({c, Fidelity::kImpl});
  const auto results = sched.runBatch(jobs);

  int degraded = 0;
  for (const EvalResult& r : results) {
    if (r.cache_hit || r.persistent_failure) continue;
    if (r.degraded() && r.completed_fidelity >= 0) {
      ++degraded;
      // The surviving prefix is real data at its stage.
      EXPECT_TRUE(r.completedReport().tool_seconds > 0.0);
    }
  }
  EXPECT_GT(degraded, 0);
  EXPECT_EQ(sched.totals().degraded_jobs, degraded);
}

TEST(SchedulerFaults, RetryPolicyAloneIsANoOpWithoutFaults) {
  // Belt-and-braces for the acceptance criterion: turning the retry
  // machinery ON while the fault layer is OFF must not move a single bit.
  Fixture f1, f2;
  EvalCache c1, c2;
  RetryPolicy aggressive;
  aggressive.max_attempts = 7;
  aggressive.attempt_timeout_seconds = 1e12;
  ToolScheduler plain(f1.space, f1.sim, c1, 1);
  ToolScheduler armed(f2.space, f2.sim, c2, 1, aggressive);

  std::vector<EvalJob> jobs;
  for (std::size_t c = 0; c < 12; ++c) jobs.push_back({c, Fidelity::kImpl});
  const auto r1 = plain.runBatch(jobs);
  const auto r2 = armed.runBatch(jobs);
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1[i].charged_seconds, r2[i].charged_seconds);
    EXPECT_EQ(r2[i].attempts, 1);
    EXPECT_EQ(r2[i].backoff_seconds, 0.0);
  }
  EXPECT_DOUBLE_EQ(plain.totals().charged_seconds,
                   armed.totals().charged_seconds);
  EXPECT_DOUBLE_EQ(plain.totals().wall_seconds, armed.totals().wall_seconds);
}

// ------------------------------------------------- optimizer degradation ----

TEST(OptimizerFaults, RunsToCompletionUnderInjectedFaults) {
  Fixture f;
  sim::FaultParams faults;
  faults.transient_crash_prob = 0.10;
  f.sim.setFaultParams(faults);
  core::OptimizerOptions o = fastOpts();
  o.seed = 7;
  o.retry.max_attempts = 2;  // low, so some jobs degrade
  core::CorrelatedMfMoboOptimizer opt(f.space, f.sim, o);
  const auto res = opt.run();

  EXPECT_EQ(static_cast<int>(res.iterations.size()), o.n_iter);
  EXPECT_GT(res.attempts, 0);
  EXPECT_GE(res.attempts, res.tool_runs);
  EXPECT_GE(res.wasted_seconds, 0.0);
  EXPECT_DOUBLE_EQ(res.tool_seconds, f.sim.totalToolSeconds());
  // Every proposal is represented in CS, completed or not.
  EXPECT_GE(res.cs.size(), res.iterations.size());
  if (res.transient_failures > 0) EXPECT_GT(res.wasted_seconds, 0.0);
}

TEST(OptimizerFaults, PersistentFailuresFeedThePenaltyPath) {
  Fixture f;
  sim::FaultParams faults;
  faults.persistent_failure_prob = 0.08;
  f.sim.setFaultParams(faults);
  core::OptimizerOptions o = fastOpts();
  o.seed = 3;
  core::CorrelatedMfMoboOptimizer opt(f.space, f.sim, o);
  const auto res = opt.run();
  EXPECT_EQ(static_cast<int>(res.iterations.size()), o.n_iter);
  // Any abandoned design must appear in CS as an invalid record so the
  // Sec. IV-C penalty entered the datasets.
  int invalid = 0;
  for (const auto& rec : res.cs)
    if (!rec.report.valid) ++invalid;
  EXPECT_GE(invalid, res.persistent_failures);
}

// ------------------------------------------------------ checkpoint state ----

TEST(Checkpoint, SerializeParseRoundTripsEveryField) {
  core::CheckpointState st;
  st.fingerprint = 0xDEADBEEFCAFEF00DULL;
  st.next_round = 4;
  st.t = 9;
  st.rng = {{0x123456789abcdef0ULL, 2, 3, 0xffffffffffffffffULL},
            true,
            -0.12345678901234567};
  st.data[0].configs = {1, 2, 3};
  st.data[0].y = {{0.1, 0.2, 0.3}, {1.0 / 3.0, 2.0 / 3.0, 4.0 / 3.0},
                  {1e-300, 1e300, -0.0}};
  st.data[2].configs = {7};
  st.data[2].y = {{-1.5, 2.5, 3.5}};
  sim::Report rep;
  rep.valid = true;
  rep.power_w = 1.2345678901234567;
  rep.delay_us = 987.65432109876543;
  rep.lut_util = 0.4444444444444444;
  rep.latency_cycles = 123456;
  rep.clock_ns = 3.21;
  rep.tool_seconds = 1234.5678901234567;
  st.cs.push_back({42, 2, rep});
  st.iterations.push_back({0, 1, 17, 0.0012345, 0});
  st.picks_per_fidelity = {3, 2, 1};
  st.totals.charged_seconds = 5555.5555;
  st.totals.attempts = 12;
  st.totals.retry_seconds_wasted = 77.7;
  st.sim_tool_seconds = 5555.5556;
  st.cache = {{3, 2}, {9, 0}};
  st.cache_hits = 5;
  st.cache_misses = 11;
  st.surrogate_hypers = {{0.5, -0.25, 1.75}, {2.5}};
  st.surrogate_base = {16, 8, 0};

  const std::string text = core::serializeCheckpoint(st);
  core::CheckpointState back;
  std::string err;
  ASSERT_TRUE(core::parseCheckpoint(text, &back, &err)) << err;

  EXPECT_EQ(back.version, core::CheckpointState::kVersion);
  EXPECT_EQ(back.fingerprint, st.fingerprint);
  EXPECT_EQ(back.next_round, st.next_round);
  EXPECT_EQ(back.t, st.t);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(back.rng.s[i], st.rng.s[i]);
  EXPECT_EQ(back.rng.has_cached_normal, st.rng.has_cached_normal);
  EXPECT_DOUBLE_EQ(back.rng.cached_normal, st.rng.cached_normal);
  for (int fidx = 0; fidx < sim::kNumFidelities; ++fidx) {
    ASSERT_EQ(back.data[fidx].configs, st.data[fidx].configs);
    ASSERT_EQ(back.data[fidx].y.size(), st.data[fidx].y.size());
    for (std::size_t i = 0; i < st.data[fidx].y.size(); ++i)
      for (std::size_t m = 0; m < st.data[fidx].y[i].size(); ++m)
        EXPECT_DOUBLE_EQ(back.data[fidx].y[i][m], st.data[fidx].y[i][m]);
  }
  ASSERT_EQ(back.cs.size(), 1u);
  EXPECT_EQ(back.cs[0].config, 42u);
  EXPECT_EQ(back.cs[0].fidelity, 2);
  EXPECT_DOUBLE_EQ(back.cs[0].report.power_w, rep.power_w);
  EXPECT_DOUBLE_EQ(back.cs[0].report.tool_seconds, rep.tool_seconds);
  EXPECT_EQ(back.cs[0].report.latency_cycles, rep.latency_cycles);
  ASSERT_EQ(back.iterations.size(), 1u);
  EXPECT_DOUBLE_EQ(back.iterations[0].peipv, 0.0012345);
  EXPECT_EQ(back.picks_per_fidelity, st.picks_per_fidelity);
  EXPECT_DOUBLE_EQ(back.totals.charged_seconds, st.totals.charged_seconds);
  EXPECT_EQ(back.totals.attempts, st.totals.attempts);
  EXPECT_DOUBLE_EQ(back.totals.retry_seconds_wasted,
                   st.totals.retry_seconds_wasted);
  EXPECT_DOUBLE_EQ(back.sim_tool_seconds, st.sim_tool_seconds);
  EXPECT_EQ(back.cache, st.cache);
  EXPECT_EQ(back.cache_hits, 5u);
  EXPECT_EQ(back.cache_misses, 11u);
  ASSERT_EQ(back.surrogate_hypers.size(), 2u);
  EXPECT_DOUBLE_EQ(back.surrogate_hypers[0][1], -0.25);
  EXPECT_DOUBLE_EQ(back.surrogate_hypers[1][0], 2.5);
  EXPECT_EQ(back.surrogate_base, st.surrogate_base);
}

TEST(Checkpoint, ParserRejectsGarbage) {
  core::CheckpointState st;
  std::string err;
  EXPECT_FALSE(core::parseCheckpoint("", &st, &err));
  EXPECT_FALSE(core::parseCheckpoint("{\"version\": }", &st, &err));
  EXPECT_FALSE(core::parseCheckpoint("not json at all", &st, &err));
}

std::string tempCheckpointPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

TEST(Checkpoint, SaveLoadIsAtomicAndRoundTrips) {
  const std::string path = tempCheckpointPath("cmmfo_ckpt_io.json");
  std::remove(path.c_str());
  core::CheckpointState st;
  st.fingerprint = 99;
  st.t = 5;
  // A plain single-JSON journal, as written before every writer was framed.
  {
    std::ofstream f(path, std::ios::binary);
    f << core::serializeCheckpoint(st);
  }
  core::CheckpointState back;
  std::string err;
  core::JournalLoadInfo info;
  ASSERT_TRUE(core::loadCheckpointAny(path, &back, &err, &info)) << err;
  EXPECT_FALSE(info.framed);
  EXPECT_EQ(back.fingerprint, 99u);
  EXPECT_EQ(back.t, 5);
  std::remove(path.c_str());
}

// ---------------------------------------------------- kill-and-resume ----

void expectSameTrajectory(const core::OptimizeResult& a,
                          const core::OptimizeResult& b) {
  ASSERT_EQ(a.cs.size(), b.cs.size());
  for (std::size_t i = 0; i < a.cs.size(); ++i) {
    EXPECT_EQ(a.cs[i].config, b.cs[i].config) << "cs entry " << i;
    EXPECT_EQ(a.cs[i].fidelity, b.cs[i].fidelity) << "cs entry " << i;
    EXPECT_DOUBLE_EQ(a.cs[i].report.tool_seconds, b.cs[i].report.tool_seconds);
  }
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_EQ(a.iterations[i].config, b.iterations[i].config) << "iter " << i;
    EXPECT_EQ(a.iterations[i].fidelity, b.iterations[i].fidelity);
    EXPECT_DOUBLE_EQ(a.iterations[i].peipv, b.iterations[i].peipv);
  }
  EXPECT_EQ(a.picks_per_fidelity, b.picks_per_fidelity);
  EXPECT_DOUBLE_EQ(a.tool_seconds, b.tool_seconds);
  EXPECT_EQ(a.tool_runs, b.tool_runs);
}

TEST(Checkpoint, KillAndResumeIsTrajectoryIdentical) {
  const std::string path = tempCheckpointPath("cmmfo_ckpt_resume.json");
  std::remove(path.c_str());

  core::OptimizerOptions o = fastOpts();
  o.seed = 77;

  // Golden: one uninterrupted process.
  Fixture f1;
  core::CorrelatedMfMoboOptimizer full(f1.space, f1.sim, o);
  const auto golden = full.run();

  // "Crashed" process: journals every round, killed after round 3.
  Fixture f2;
  core::OptimizerOptions o_kill = o;
  o_kill.checkpoint_path = path;
  o_kill.max_rounds = 3;
  core::CorrelatedMfMoboOptimizer killed(f2.space, f2.sim, o_kill);
  const auto partial = killed.run();
  ASSERT_LT(partial.iterations.size(), golden.iterations.size());
  ASSERT_EQ(partial.rounds_run, 3);

  // Fresh process resumes from the journal and finishes the run.
  Fixture f3;
  core::OptimizerOptions o_resume = o;
  o_resume.checkpoint_path = path;
  o_resume.resume = true;
  core::CorrelatedMfMoboOptimizer resumed(f3.space, f3.sim, o_resume);
  const auto finished = resumed.run();
  EXPECT_TRUE(finished.resumed);

  expectSameTrajectory(golden, finished);
  std::remove(path.c_str());
}

TEST(Checkpoint, KillAndResumeUnderFaultsMatchesUninterrupted) {
  const std::string path = tempCheckpointPath("cmmfo_ckpt_faulty.json");
  std::remove(path.c_str());

  sim::FaultParams faults;
  faults.transient_crash_prob = 0.10;
  core::OptimizerOptions o = fastOpts();
  o.seed = 5;
  o.retry.max_attempts = 2;

  Fixture f1;
  f1.sim.setFaultParams(faults);
  core::CorrelatedMfMoboOptimizer full(f1.space, f1.sim, o);
  const auto golden = full.run();

  Fixture f2;
  f2.sim.setFaultParams(faults);
  core::OptimizerOptions o_kill = o;
  o_kill.checkpoint_path = path;
  o_kill.max_rounds = 4;
  core::CorrelatedMfMoboOptimizer killed(f2.space, f2.sim, o_kill);
  (void)killed.run();

  Fixture f3;
  f3.sim.setFaultParams(faults);
  core::OptimizerOptions o_resume = o;
  o_resume.checkpoint_path = path;
  o_resume.resume = true;
  core::CorrelatedMfMoboOptimizer resumed(f3.space, f3.sim, o_resume);
  const auto finished = resumed.run();
  EXPECT_TRUE(finished.resumed);

  expectSameTrajectory(golden, finished);
  // The charged + wasted ledgers also survive the crash.
  EXPECT_EQ(golden.attempts, finished.attempts);
  EXPECT_EQ(golden.transient_failures, finished.transient_failures);
  EXPECT_DOUBLE_EQ(golden.wasted_seconds, finished.wasted_seconds);
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumeWithDifferentOptionsThrowsOnFingerprint) {
  const std::string path = tempCheckpointPath("cmmfo_ckpt_mismatch.json");
  std::remove(path.c_str());

  core::OptimizerOptions o = fastOpts();
  o.seed = 77;
  o.checkpoint_path = path;
  o.max_rounds = 1;
  Fixture f1;
  core::CorrelatedMfMoboOptimizer writer(f1.space, f1.sim, o);
  (void)writer.run();

  Fixture f2;
  core::OptimizerOptions o_bad = o;
  o_bad.seed = 78;  // different stream: the journal must be rejected
  o_bad.resume = true;
  o_bad.max_rounds = 0;
  core::CorrelatedMfMoboOptimizer reader(f2.space, f2.sim, o_bad);
  EXPECT_THROW((void)reader.run(), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingJournalMeansColdStartNotError) {
  const std::string path = tempCheckpointPath("cmmfo_ckpt_nonexistent.json");
  std::remove(path.c_str());
  core::OptimizerOptions o = fastOpts();
  o.seed = 77;
  o.checkpoint_path = path;
  o.resume = true;
  Fixture f1;
  core::CorrelatedMfMoboOptimizer opt(f1.space, f1.sim, o);
  const auto res = opt.run();
  EXPECT_FALSE(res.resumed);
  EXPECT_EQ(static_cast<int>(res.iterations.size()), o.n_iter);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cmmfo
