#include "core/optimizer.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/acquisition.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "opt/sampling.h"
#include "pareto/dominance.h"
#include "pareto/hypervolume.h"

namespace cmmfo::core {

using sim::Fidelity;
using sim::kNumFidelities;
using sim::kNumObjectives;

CorrelatedMfMoboOptimizer::CorrelatedMfMoboOptimizer(
    const hls::DesignSpace& space, sim::FpgaToolSim& sim,
    OptimizerOptions opts, SharedRuntime shared)
    : space_(&space),
      sim_(&sim),
      opts_(opts),
      shared_(shared),
      surrogate_(space.featureDim(), kNumObjectives, kNumFidelities,
                 opts.surrogate),
      rng_(opts.seed),
      sampled_(space.size(), false) {
  surrogate_.setRecovery(opts_.recovery);
}

gp::Vec CorrelatedMfMoboOptimizer::penalizedObjectives(
    const FidelityData& data) const {
  // Sec. IV-C: illegal designs are fed back 10x worse than the current
  // worst case, teaching the models to avoid the region.
  gp::Vec worst(kNumObjectives, 1.0);
  for (const auto& y : data.y)
    for (int m = 0; m < kNumObjectives; ++m)
      worst[m] = std::max(worst[m], y[m]);
  for (auto& w : worst) w *= opts_.invalid_penalty;
  return worst;
}

void CorrelatedMfMoboOptimizer::record(const runtime::EvalResult& res) {
  // Degradation (Algorithm 2 line 13 under faults): the flow is nested, so
  // whatever prefix of stages completed is real data — a crashed impl run
  // still contributes its hls/syn reports to those fidelities' datasets.
  const int upto = res.completed_fidelity;
  for (int f = 0; f <= upto; ++f) {
    const sim::Report& r = res.stages[f];
    FidelityData& d = data_[f];
    d.configs.push_back(res.job.config);
    d.y.push_back(r.valid ? r.objectives() : penalizedObjectives(d));
    // Flight recorder: join the observation with the posterior captured at
    // pick time (predict-before-observe). Invalid reports are skipped — a
    // Sec. IV-C penalty row says nothing about surrogate calibration.
    if (r.valid && diag::recorder().enabled()) {
      if (const auto it = pending_pred_.find({res.job.config, f});
          it != pending_pred_.end()) {
        diag::CalibrationSample s;
        s.round = diag_round_;
        s.config = res.job.config;
        s.fidelity = f;
        s.believer = it->second.believer;
        s.y = r.objectives();
        s.mu = it->second.mu;
        s.var = it->second.var;
        diag::recorder().addCalibrationSample(std::move(s));
      }
    }
  }
  sampled_[res.job.config] = true;

  if (res.persistent_failure) {
    // The design reliably kills the tool at failed_stage: treat it like a
    // Sec. IV-C invalid design AT THAT STAGE so the models steer away.
    // Transient exhaustion deliberately takes the branch below instead —
    // the design may be fine, the tool was merely flaky, and poisoning the
    // datasets with a penalty would punish re-explorable regions.
    const int fs = std::clamp(res.failed_stage, 0, kNumFidelities - 1);
    FidelityData& d = data_[fs];
    d.configs.push_back(res.job.config);
    d.y.push_back(penalizedObjectives(d));
    sim::Report failed;
    failed.valid = false;
    cs_.push_back({res.job.config, static_cast<Fidelity>(fs), failed});
  } else if (upto >= 0) {
    cs_.push_back(
        {res.job.config, static_cast<Fidelity>(upto), res.stages[upto]});
  } else {
    // Nothing completed and retries exhausted: the proposal is spent (it
    // must not be re-picked) but contributes no observations.
    sim::Report failed;
    failed.valid = false;
    cs_.push_back({res.job.config, res.job.fidelity, failed});
  }
}

std::vector<FidelityObs> CorrelatedMfMoboOptimizer::buildObsFrom(
    const std::array<FidelityData, kNumFidelities>& data) const {
  std::vector<FidelityObs> obs(kNumFidelities);
  for (int f = 0; f < kNumFidelities; ++f) {
    const FidelityData& d = data[f];
    obs[f].x.reserve(d.configs.size());
    obs[f].y = linalg::Matrix(d.configs.size(), kNumObjectives);
    for (std::size_t i = 0; i < d.configs.size(); ++i) {
      obs[f].x.push_back(space_->features(d.configs[i]));
      for (int m = 0; m < kNumObjectives; ++m) obs[f].y(i, m) = d.y[i][m];
    }
  }
  return obs;
}

CorrelatedMfMoboOptimizer::Pick CorrelatedMfMoboOptimizer::scanBest(
    const std::array<FidelityData, kNumFidelities>& data,
    const std::vector<std::size_t>& cand, const std::vector<char>& taken,
    const std::array<double, kNumFidelities>& stage_seconds,
    const std::vector<std::vector<double>>& z, int only_fidelity,
    std::vector<diag::FidelityAudit>* audit) const {
  Pick best;
  bool any = false;
  for (int f = 0; f < kNumFidelities; ++f) {
    if (only_fidelity >= 0 && f != only_fidelity) continue;
    const FidelityData& d = data[f];
    // Phase breakdown of the acquisition scan (scan_pareto / scan_predict /
    // scan_eipv): the flame data for the million-candidate acquisition work
    // — pure timing, gated inside ScopedPhase, never fed back.
    // Normalize this fidelity's objective space so EIPV is scale-free.
    gp::Vec lo(kNumObjectives, 1e300), hi(kNumObjectives, -1e300);
    gp::Vec range(kNumObjectives);
    std::vector<pareto::Point> front;
    {
      obs::ScopedPhase pareto_phase("scan_pareto");
      for (const auto& y : d.y)
        for (int m = 0; m < kNumObjectives; ++m) {
          lo[m] = std::min(lo[m], y[m]);
          hi[m] = std::max(hi[m], y[m]);
        }
      for (int m = 0; m < kNumObjectives; ++m)
        range[m] = std::max(hi[m] - lo[m], 1e-12);

      std::vector<pareto::Point> observed;
      observed.reserve(d.y.size());
      for (const auto& y : d.y) {
        pareto::Point p(kNumObjectives);
        for (int m = 0; m < kNumObjectives; ++m)
          p[m] = (y[m] - lo[m]) / range[m];
        observed.push_back(std::move(p));
      }
      front = pareto::paretoFilter(observed);
    }
    const pareto::Point ref(kNumObjectives, 1.1);  // v_ref beyond the worst

    const double penalty =
        opts_.cost_penalty
            ? costPenalty(stage_seconds[f], stage_seconds[kNumFidelities - 1])
            : 1.0;

    // One batched posterior sweep over the untaken candidates (single
    // cross-Gram + multi-RHS solve per GP in the chain), then the same
    // strict-argmax scan in candidate order as the scalar loop.
    std::vector<std::size_t> open;
    open.reserve(cand.size());
    gp::Dataset feats;
    feats.reserve(cand.size());
    std::vector<gp::MultiPosterior> posts;
    {
      obs::ScopedPhase predict_phase("scan_predict");
      for (std::size_t ci : cand) {
        if (taken[ci]) continue;
        open.push_back(ci);
        feats.push_back(space_->features(ci));
      }
      posts = surrogate_.predictBatch(f, feats);
    }
    diag::FidelityAudit* fa = nullptr;
    if (audit != nullptr) {
      audit->push_back({});
      fa = &audit->back();
      fa->fidelity = f;
      fa->cost_penalty = penalty;
      fa->top.reserve(open.size());
    }
    {
      obs::ScopedPhase eipv_phase("scan_eipv");
      for (std::size_t k = 0; k < open.size(); ++k) {
        const gp::MultiPosterior& post = posts[k];
        gp::Vec mu(kNumObjectives);
        linalg::Matrix cov(kNumObjectives, kNumObjectives);
        for (int m = 0; m < kNumObjectives; ++m) {
          mu[m] = (post.mean[m] - lo[m]) / range[m];
          for (int m2 = 0; m2 < kNumObjectives; ++m2)
            cov(m, m2) = post.cov(m, m2) / (range[m] * range[m2]);
        }
        const double eipv = mcEipv(mu, cov, front, ref, z);
        const double peipv = penalty * eipv;
        if (fa != nullptr) fa->top.push_back({open[k], eipv, peipv});
        if (!any || peipv > best.peipv) {
          any = true;
          best.config = open[k];
          best.fidelity = static_cast<Fidelity>(f);
          best.peipv = peipv;
        }
      }
    }
    if (fa != nullptr) {
      // Rank by the quantity the argmax uses; stable so candidate-order ties
      // resolve deterministically. Truncated to the recorder's top-k.
      std::stable_sort(fa->top.begin(), fa->top.end(),
                       [](const diag::CandidateScore& a,
                          const diag::CandidateScore& b) {
                         return a.peipv > b.peipv;
                       });
      const std::size_t k = static_cast<std::size_t>(diag::recorder().topK());
      if (fa->top.size() > k) fa->top.resize(k);
    }
  }
  return best;
}

void CorrelatedMfMoboOptimizer::reseedThinFidelities(
    runtime::ToolScheduler& scheduler) {
  const std::size_t n = space_->size();
  for (int f = kNumFidelities - 1; f >= 0; --f) {
    int guard = 0;
    while (data_[f].configs.size() < 2 && guard++ < 16) {
      std::size_t pick = n;  // first unsampled config after a random probe
      const std::size_t probe = rng_.index(n);
      for (std::size_t off = 0; off < n; ++off) {
        const std::size_t i = (probe + off) % n;
        if (!sampled_[i]) { pick = i; break; }
      }
      if (pick == n) return;  // space exhausted; nothing more to try
      for (const runtime::EvalResult& res :
           scheduler.runBatch({{pick, static_cast<Fidelity>(f)}}))
        record(res);
    }
  }
}

std::uint64_t CorrelatedMfMoboOptimizer::checkpointFingerprint() const {
  std::uint64_t h = 0xC11EC4B01D5EEDULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  const auto mixd = [&](double v) { mix(std::bit_cast<std::uint64_t>(v)); };
  mix(opts_.seed);
  mix(space_->size());
  mix(space_->featureDim());
  mix(static_cast<std::uint64_t>(opts_.n_iter));
  mix(static_cast<std::uint64_t>(std::max(opts_.batch_size, 1)));
  mix(static_cast<std::uint64_t>(opts_.n_init_hls));
  mix(static_cast<std::uint64_t>(opts_.n_init_syn));
  mix(static_cast<std::uint64_t>(opts_.n_init_impl));
  mix(static_cast<std::uint64_t>(opts_.mc_samples));
  mix(static_cast<std::uint64_t>(opts_.max_candidates));
  mix(static_cast<std::uint64_t>(opts_.refit_every));
  mix(static_cast<std::uint64_t>(opts_.init_design));
  mix(static_cast<std::uint64_t>(opts_.surrogate.mf));
  mix(static_cast<std::uint64_t>(opts_.surrogate.obj));
  mix(static_cast<std::uint64_t>(opts_.cost_penalty));
  mixd(opts_.invalid_penalty);
  // Trajectory-relevant fault/retry knobs (n_workers deliberately excluded:
  // a journal may be resumed on a different farm width).
  mix(static_cast<std::uint64_t>(std::max(opts_.retry.max_attempts, 1)));
  mixd(opts_.retry.attempt_timeout_seconds);
  // Mixed only when set, so journals written before the budget knob existed
  // (and every unbudgeted run) keep their fingerprint.
  if (opts_.max_charged_seconds > 0.0) mixd(opts_.max_charged_seconds);
  // Async journals carry in-flight believers and deterministic-accumulator
  // semantics a synchronous resume cannot honor (and vice versa); mixing
  // only when enabled keeps every pre-async journal's fingerprint intact.
  if (opts_.async) {
    mix(0xA54C11D0ULL);
    // The farm width is trajectory-relevant in async mode (it caps the
    // believer depth), unlike the synchronous regime.
    mix(static_cast<std::uint64_t>(std::max(opts_.n_workers, 1)));
  }
  const sim::FaultParams& fp = sim_->faultParams();
  mixd(fp.transient_crash_prob);
  mixd(fp.hang_prob);
  mixd(fp.hang_multiplier);
  mixd(fp.license_stall_prob);
  mixd(fp.license_stall_seconds);
  mixd(fp.persistent_failure_prob);
  mix(fp.fault_seed);
  return h;
}

CheckpointState CorrelatedMfMoboOptimizer::captureCheckpoint(
    int next_round) const {
  CheckpointState st;
  st.fingerprint = checkpointFingerprint();
  st.next_round = next_round;
  st.t = t_;
  st.rng = rng_.state();
  for (int f = 0; f < kNumFidelities; ++f) {
    st.data[f].configs = data_[f].configs;
    st.data[f].y = data_[f].y;
  }
  st.cs.reserve(cs_.size());
  for (const SampleRecord& rec : cs_)
    st.cs.push_back({rec.config, static_cast<int>(rec.fidelity), rec.report});
  st.iterations.reserve(result_.iterations.size());
  for (const IterationLog& it : result_.iterations)
    st.iterations.push_back({it.iteration, static_cast<int>(it.fidelity),
                             it.config, it.peipv, it.round});
  st.picks_per_fidelity = result_.picks_per_fidelity;
  st.totals = scheduler_->totals();
  // Journaling the simulator's accumulator in async mode would double-charge
  // the in-flight jobs a resume re-runs; see toolSeconds().
  st.sim_tool_seconds = toolSeconds();
  for (const AsyncInflight& j : inflight_meta_)
    st.async_inflight.push_back(
        {j.config, static_cast<int>(j.fidelity), j.sim_start});
  // Only this campaign's cache slice and counters enter the journal; under
  // a shared server cache other tenants' artifacts are not ours to persist.
  // In-flight configs must NOT journal their current cache state: their
  // flows may already sit in the cache (the real run finished; only the
  // simulated event is pending), and the resume re-dispatch must pay for
  // them again or the accounting — and with it the trajectory — diverges
  // from the uninterrupted run. But an in-flight job can be a REFINEMENT
  // of a config committed earlier at a lower fidelity; that committed
  // prefix was in the cache before the dispatch (the original run's job
  // only paid for the stages above it), so journal the config at its
  // committed CS fidelity instead of dropping it outright.
  const std::uint64_t ns = scheduler_->cacheNamespace();
  for (const auto& [config, fid] : cache_->contents(ns)) {
    bool in_flight = false;
    for (const AsyncInflight& j : inflight_meta_)
      if (j.config == config) {
        in_flight = true;
        break;
      }
    if (!in_flight) {
      st.cache.emplace_back(config, static_cast<int>(fid));
      continue;
    }
    for (const SampleRecord& rec : cs_)
      if (rec.config == config) {
        st.cache.emplace_back(config, static_cast<int>(rec.fidelity));
        break;
      }
  }
  const runtime::EvalCache::Stats cstats =
      cache_->stats(ns, scheduler_->cacheLedger());
  st.cache_hits = cstats.hits;
  st.cache_misses = cstats.misses;
  st.surrogate_hypers = surrogate_.hyperState();
  {
    const MultiFidelitySurrogate::RecoveryState rs = surrogate_.recoveryState();
    st.surrogate_mle_streak = rs.mle_fail_streak;
    st.surrogate_fallback_n.assign(rs.fallback_trained_n.begin(),
                                   rs.fallback_trained_n.end());
  }
  // Committed dense-base counts (empty before the first fit): resume
  // replays dense(base) + rank-appends, bit-identical to this run's factors.
  for (const std::size_t b : surrogate_.committedBaseCounts())
    st.surrogate_base.push_back(static_cast<std::uint64_t>(b));
  // Journal the metrics ledger so a resumed run's dump continues where the
  // crashed run left off instead of restarting the counters from zero.
  if (obs::metrics().enabled()) st.metrics = obs::metrics().snapshot();
  // Same for the flight recorder's calibration aggregates and warnings.
  if (diag::recorder().enabled()) {
    st.diag = diag::recorder().state();
    st.has_diag = true;
  }
  return st;
}

void CorrelatedMfMoboOptimizer::restoreCheckpoint(const CheckpointState& st) {
  if (st.fingerprint != checkpointFingerprint())
    throw std::runtime_error(
        "checkpoint: fingerprint mismatch — journal was written by a run "
        "with different options, seed, fault model, or design space");
  for (int f = 0; f < kNumFidelities; ++f) {
    data_[f].configs = st.data[f].configs;
    data_[f].y = st.data[f].y;
  }
  cs_.clear();
  std::fill(sampled_.begin(), sampled_.end(), false);
  for (const CheckpointState::CsEntry& e : st.cs) {
    cs_.push_back(
        {e.config, static_cast<Fidelity>(e.fidelity), e.report});
    sampled_[e.config] = true;
  }
  rng_.setState(st.rng);
  if (!st.surrogate_hypers.empty())
    surrogate_.setHyperState(st.surrogate_hypers);
  if (!st.surrogate_base.empty()) {
    // Rebuild the committed posterior exactly as the journaling run held
    // it (dense base factorization + sequential rank-appends), so rounds
    // between MLE refits continue bit-identically after resume.
    std::vector<std::size_t> base;
    base.reserve(st.surrogate_base.size());
    for (const std::uint64_t b : st.surrogate_base)
      base.push_back(static_cast<std::size_t>(b));
    surrogate_.restorePosterior(buildObsFrom(data_), base);
  }
  if (!st.surrogate_mle_streak.empty() || !st.surrogate_fallback_n.empty()) {
    MultiFidelitySurrogate::RecoveryState rs;
    rs.mle_fail_streak = st.surrogate_mle_streak;
    rs.fallback_trained_n.assign(st.surrogate_fallback_n.begin(),
                                 st.surrogate_fallback_n.end());
    surrogate_.restoreRecoveryState(rs, buildObsFrom(data_));
  }

  result_.iterations.clear();
  for (const CheckpointState::IterEntry& it : st.iterations)
    result_.iterations.push_back({it.iteration,
                                  static_cast<Fidelity>(it.fidelity),
                                  it.config, it.peipv, it.round});
  result_.picks_per_fidelity = st.picks_per_fidelity;

  scheduler_->restoreTotals(st.totals);
  sim_->setAccounting(st.sim_tool_seconds);
  scheduler_->restoreDeterministicToolSeconds(st.sim_tool_seconds);
  // Re-materialize the evaluation cache: reports are pure functions of
  // (config, stage), so the journal only stores the keys. Under a shared
  // cache the flows land in this campaign's namespace (a no-op for slots
  // another tenant already warmed — the tool is deterministic).
  const std::uint64_t ns = scheduler_->cacheNamespace();
  for (const auto& [config, fid] : st.cache) {
    std::array<sim::Report, kNumFidelities> stages{};
    const hls::DirectiveConfig cfg = space_->config(config);
    for (int f = 0; f <= fid; ++f)
      stages[f] = sim_->run(cfg, static_cast<Fidelity>(f));
    cache_->storeFlow(config, static_cast<Fidelity>(fid), stages, ns);
  }
  // Counters land on this campaign's ledger only — a co-tenant sharing the
  // artifact namespace keeps its own hit/miss accounting untouched.
  cache_->restoreCounters(st.cache_hits, st.cache_misses,
                          scheduler_->cacheLedger());
  if (obs::metrics().enabled() && !st.metrics.empty())
    obs::metrics().restore(st.metrics);
  if (st.has_diag && diag::recorder().enabled())
    diag::recorder().restore(st.diag);

  // Last (the cache is fully re-materialized, so resumed workers race
  // nothing above): re-dispatch the journaled in-flight believers at their
  // ORIGINAL simulated start times — possibly before the restored clock —
  // so the simulated completion order, and the whole trajectory, replays
  // exactly. Their charges re-accrue as the re-runs complete. Synchronous
  // journals carry none.
  inflight_meta_.clear();
  for (const CheckpointState::InflightEntry& e : st.async_inflight) {
    const runtime::EvalJob job{e.config, static_cast<Fidelity>(e.fidelity)};
    const std::uint64_t seq = scheduler_->submitAsyncAt(job, e.sim_start);
    inflight_meta_.push_back(
        {e.config, static_cast<Fidelity>(e.fidelity), e.sim_start, seq});
  }
}

void CorrelatedMfMoboOptimizer::writeCheckpoint(int next_round) {
  if (opts_.checkpoint_path.empty()) return;
  saveCheckpointFramed(opts_.checkpoint_path, captureCheckpoint(next_round));
}

double CorrelatedMfMoboOptimizer::toolSeconds() const {
  // The scheduler's per-job accumulator, summed in job order on the driving
  // thread. The simulator's own accumulator is summed in whatever order
  // worker threads finish, so it differs in the last bits between runs of
  // a batch; in the pipeline it also already holds the charges of jobs that
  // REALLY finished but are still in flight in simulated time
  // (nextCompletion harvests everything before event-ordering).
  return scheduler_->deterministicToolSeconds();
}

double CorrelatedMfMoboOptimizer::topHypervolume(int round) const {
  const FidelityData& top = data_[kNumFidelities - 1];
  if (top.y.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::vector<pareto::Point> pts(top.y.begin(), top.y.end());
  obs::ScopedPhase hv_phase("hypervolume", round);
  return pareto::hypervolume(pareto::paretoFilter(pts),
                             pareto::referencePoint(pts));
}

RoundOutcome CorrelatedMfMoboOptimizer::makeOutcome(
    int round, const std::vector<runtime::EvalResult>& results,
    std::optional<double> hv) {
  RoundOutcome o;
  o.round = round;
  o.proposals = t_;
  o.done = done();
  o.resumed = result_.resumed;
  const runtime::SchedulerStats totals = scheduler_->totals();
  o.charged_seconds = totals.charged_seconds;
  o.wall_seconds = totals.wall_seconds;
  for (const runtime::EvalResult& r : results)
    o.round_charged_seconds += r.charged_seconds;
  const runtime::EvalCache::Stats cstats =
      cache_->stats(scheduler_->cacheNamespace(), scheduler_->cacheLedger());
  o.cache_hits = cstats.hits;
  o.cache_misses = cstats.misses;
  if (shared_.collect_outcomes) {
    o.hypervolume = hv ? *hv : topHypervolume(round);
    // Worker occupancy of this round's tool runs (cache hits occupy no
    // worker), in job order — the server's shared-farm placement input.
    o.job_seconds.reserve(results.size());
    for (const runtime::EvalResult& r : results)
      if (!r.cache_hit)
        o.job_seconds.push_back(r.charged_seconds + r.backoff_seconds);
  }
  o.resume_note = resume_note_;
  // Drain the surrogate's self-healing ledger into this outcome and (when
  // diagnosed) the flight recorder.
  for (const RecoveryEvent& ev : surrogate_.drainRecoveryEvents()) {
    std::string note = ev.action + " (level " + std::to_string(ev.level) +
                       "): " + ev.reason;
    if (diag::recorder().enabled())
      diag::recorder().addRecovery(
          {round, ev.level, ev.action, ev.reason, ev.value});
    o.recovery_notes.push_back(std::move(note));
  }
  return o;
}

bool CorrelatedMfMoboOptimizer::done() const {
  if (finished_) return true;
  if (!started_) return false;
  const bool budget_done = stopped_ || t_ >= opts_.n_iter;
  // Spending the proposal budget stops NEW proposals; picks still in flight
  // drain first (each is a step of its own) — except on a max_rounds
  // preemption, which mimics a kill and leaves them journaled. Nothing is
  // ever in flight between synchronous rounds.
  return budget_done && (preempted_ || inflight_meta_.empty());
}

RoundOutcome CorrelatedMfMoboOptimizer::start() {
  assert(!started_);
  assert(opts_.n_init_hls >= opts_.n_init_syn &&
         opts_.n_init_syn >= opts_.n_init_impl && opts_.n_init_impl >= 2);
  const std::size_t n = space_->size();

  // Bind the runtime: private cache/pool in the single-campaign regime,
  // the server's shared ones otherwise (traffic keyed under the campaign's
  // cache namespace).
  if (shared_.cache != nullptr) {
    cache_ = shared_.cache;
  } else {
    owned_cache_ = std::make_unique<runtime::EvalCache>();
    cache_ = owned_cache_.get();
  }
  if (shared_.pool != nullptr)
    scheduler_ = std::make_unique<runtime::ToolScheduler>(
        *space_, *sim_, *cache_, *shared_.pool, opts_.retry,
        shared_.cache_namespace, shared_.cache_ledger);
  else
    scheduler_ = std::make_unique<runtime::ToolScheduler>(
        *space_, *sim_, *cache_, std::max(opts_.n_workers, 1), opts_.retry);

  // ---- Resume path: restore the journal if one exists and matches. ----
  if (opts_.resume && !opts_.checkpoint_path.empty()) {
    CheckpointState st;
    std::string err;
    JournalLoadInfo jinfo;
    const bool file_exists = [&] {
      std::ifstream probe(opts_.checkpoint_path, std::ios::binary);
      return static_cast<bool>(probe);
    }();
    bool loaded = loadCheckpointAny(opts_.checkpoint_path, &st, &err, &jinfo);
    if (loaded && jinfo.rolled_back) resume_note_ = "journal: " + jinfo.note;
    if (loaded && opts_.resume_lenient &&
        st.fingerprint != checkpointFingerprint()) {
      // Lenient regime (the daemon): a foreign journal must not abort the
      // process. Quarantine it and start this campaign cold.
      const std::string q = opts_.checkpoint_path + ".quarantine";
      std::rename(opts_.checkpoint_path.c_str(), q.c_str());
      resume_note_ =
          "journal: fingerprint mismatch — quarantined to " + q +
          "; campaign restarted cold from its spec";
      loaded = false;
    }
    if (loaded) {
      restoreCheckpoint(st);
      t_ = st.t;
      round_ = st.next_round;
      result_.resumed = true;
    } else if (file_exists && resume_note_.empty()) {
      // The journal exists but cannot be loaded (empty file, corrupt
      // beyond every frame, unparseable JSON). Strict mode throws — a
      // human pointing --resume at a bad file wants the error. The
      // daemon's lenient mode quarantines the evidence and cold-starts so
      // one bad file never takes down startup.
      if (!opts_.resume_lenient)
        throw std::runtime_error(err.empty()
                                     ? "checkpoint: unreadable journal " +
                                           opts_.checkpoint_path
                                     : err);
      const std::string q = opts_.checkpoint_path + ".quarantine";
      std::rename(opts_.checkpoint_path.c_str(), q.c_str());
      resume_note_ = "journal: unreadable (" +
                     (err.empty() ? std::string("no intact frame") : err) +
                     ") — quarantined to " + q +
                     "; campaign restarted cold from its spec";
    }
    // A missing journal is a cold start, not an error (first run of a
    // --resume'd job); a present-but-mismatched one throws in restore
    // (strict mode only — lenient mode quarantines above).
  }

  std::vector<runtime::EvalResult> init_results;
  if (!result_.resumed) {
    obs::ScopedPhase init_phase("init");
    // ---- Initialization (Algorithm 2, lines 4-5): nested seed subsets. ----
    // The seed designs are mutually independent, so the whole set goes to
    // the scheduler as one round; results are recorded in job order, keeping
    // the datasets identical to the sequential build-up.
    const std::size_t n_init =
        std::min<std::size_t>(opts_.n_init_hls, n > 1 ? n - 1 : n);
    std::vector<std::size_t> init;
    switch (opts_.init_design) {
      case InitDesign::kRandom:
        init = opt::randomSubset(n, n_init, rng_);
        break;
      case InitDesign::kMaximin:
        init = opt::maximinSubset(space_->allFeatures(), n_init, rng_);
        break;
      case InitDesign::kStratified:
        init = opt::stratifiedSubset(space_->allFeatures(), n_init, rng_);
        break;
    }
    std::vector<runtime::EvalJob> init_jobs;
    init_jobs.reserve(init.size());
    for (std::size_t i = 0; i < init.size(); ++i) {
      Fidelity f = Fidelity::kHls;
      if (i < static_cast<std::size_t>(opts_.n_init_impl))
        f = Fidelity::kImpl;
      else if (i < static_cast<std::size_t>(opts_.n_init_syn))
        f = Fidelity::kSyn;
      init_jobs.push_back({init[i], f});
    }
    init_results = scheduler_->runBatch(init_jobs);
    for (const runtime::EvalResult& res : init_results) record(res);
    // Injected failures can leave a fidelity with fewer than the 2 samples
    // the surrogate needs; top it up (RNG-neutral no-op when healthy).
    reseedThinFidelities(*scheduler_);
    writeCheckpoint(0);
  }

  stage_seconds_ = sim_->nominalStageSeconds();
  started_ = true;
  // A resumed process reports the last round the journal completed
  // (round_ - 1) instead of the init sentinel, so a status snapshot taken
  // before the next round doesn't understate prior progress.
  return makeOutcome(result_.resumed ? round_ - 1 : -1, init_results);
}

void CorrelatedMfMoboOptimizer::refit(int round) {
  // Commit the posterior on the REAL datasets. This also rolls back every
  // stacked Kriging-believer fantasy (exact factor truncation).
  const bool hypers = round % std::max(opts_.refit_every, 1) == 0;
  const bool did_mle = hypers || !surrogate_.fitted();
  {
    obs::ScopedPhase fit_phase("gp_fit", round);
    if (did_mle)
      surrogate_.fit(buildObsFrom(data_), rng_, true);
    else
      // Between MLE refits the new observations enter via O(n^2)
      // rank-append posterior updates.
      surrogate_.appendObservations(buildObsFrom(data_), /*commit=*/true);
  }
  if (!diag::recorder().enabled()) return;
  // Per-level surrogate state for the journal: learned K_task (Eq. 9), MLE
  // convergence, Gram conditioning, lower-fidelity relevance. All read-only
  // accessors — nothing feeds back into the run.
  for (int l = 0; l < kNumFidelities; ++l) {
    diag::ModelRecord mr;
    mr.round = round;
    mr.level = l;
    mr.correlated = surrogate_.correlated();
    if (mr.correlated) {
      const linalg::Matrix c = surrogate_.taskCorrelation(l);
      mr.task_corr.assign(c.rows(), std::vector<double>(c.cols(), 0.0));
      for (std::size_t i = 0; i < c.rows(); ++i)
        for (std::size_t j = 0; j < c.cols(); ++j)
          mr.task_corr[i][j] = c(i, j);
    }
    mr.lml = surrogate_.logMarginalLikelihood(l);
    mr.fit_iters = surrogate_.lastFitIterations(l);
    // Budget is only meaningful on rounds that actually ran the MLE; 0
    // disables the non-convergence check on rank-append rounds.
    mr.max_iters = did_mle ? surrogate_.mleIterBudget(l) : 0;
    mr.cond_log10 = surrogate_.gramConditionLog10(l);
    mr.lowfid_relevance = surrogate_.lowerFidelityRelevance(l);
    diag::recorder().addModelRecord(std::move(mr));
  }
}

RoundOutcome CorrelatedMfMoboOptimizer::stepRound() {
  assert(started_ && !finished_);
  if (done()) return makeOutcome(round_ - 1, {});
  const std::size_t n = space_->size();
  const int round = round_;
  obs::ScopedPhase round_phase("round", round);
  const bool diag_on = diag::recorder().enabled();
  diag_round_ = round;
  const int inflight0 = static_cast<int>(inflight_meta_.size());
  // Open pool: unsampled and not currently in flight.
  const auto openPool = [&] {
    std::vector<std::size_t> open;
    open.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      if (!sampled_[i] &&
          std::none_of(inflight_meta_.begin(), inflight_meta_.end(),
                       [i](const AsyncInflight& j) { return j.config == i; }))
        open.push_back(i);
    return open;
  };

  // ---- Width: how many proposals this step may dispatch. The round
  // barrier fills one batch of batch_size picks from a single candidate
  // draw (so at most max_candidates); the pipeline tops the farm back up to
  // n_workers jobs in flight. ----
  const int width =
      opts_.async ? std::max(opts_.n_workers, 1)
                  : std::min(std::max(opts_.batch_size, 1),
                             opts_.max_candidates);
  int q = stopped_ ? 0 : std::min(width, opts_.n_iter - t_) - inflight0;
  std::vector<std::size_t> cand;
  if (q > 0) {
    // Space exhaustion check BEFORE any RNG is consumed.
    cand = openPool();
    if (cand.empty() && inflight0 == 0) {
      stopped_ = true;  // space exhausted before the proposal budget
      return makeOutcome(round - 1, {});
    }
    // Each pick takes one open config; with none left open the step only
    // drains what is in flight.
    q = std::min(q, static_cast<int>(cand.size()));
  }

  // ---- Propose (Algorithm 2 line 11, q times): greedy Kriging believer.
  // Argmax, condition the posterior on the predicted mean of every pick not
  // yet observed, re-argmax. With q = 1 and nothing in flight no fantasy is
  // stacked and this is exactly the paper's sequential loop. ----
  std::vector<runtime::EvalJob> jobs;
  if (q > 0) {
    refit(round);
    believer_invalidations_ += inflight0;

    std::array<FidelityData, kNumFidelities> fantasy;
    bool have_fantasy = false;
    const auto believe = [&](std::size_t config, Fidelity fid) {
      if (!have_fantasy) fantasy = data_;
      have_fantasy = true;
      for (int f = 0; f <= static_cast<int>(fid); ++f) {
        fantasy[f].configs.push_back(config);
        fantasy[f].y.push_back(
            surrogate_.predict(f, space_->features(config)).mean);
      }
      // Speculative (uncommitted) rank-appends: the next commit or full
      // fit rolls the fantasy back by exact factor truncation.
      surrogate_.appendObservations(buildObsFrom(fantasy), /*commit=*/false);
    };
    // Re-derive believer fantasies for everything still in flight, in
    // dispatch order, each predicted on the posterior INCLUDING the
    // previously stacked ones, so a landed result immediately re-informs
    // the in-flight believers. Always empty under the round barrier.
    if (inflight0 > 0) {
      obs::ScopedPhase believe_phase("believers", round);
      for (const AsyncInflight& j : inflight_meta_)
        believe(j.config, j.fidelity);
    }

    obs::ScopedPhase acq_phase("acquisition", round);
    std::vector<char> taken(n, 0);
    std::vector<std::vector<double>> z;
    for (int b = 0; b < q; ++b) {
      // Candidate subset and MC normals: drawn once per round under the
      // barrier; once per pick in the pipeline, where each dispatch shrinks
      // the open pool.
      if (b == 0 || opts_.async) {
        if (b > 0) cand = openPool();
        if (cand.size() > static_cast<std::size_t>(opts_.max_candidates)) {
          rng_.shuffle(cand);
          cand.resize(opts_.max_candidates);
        }
        z = drawStdNormals(opts_.mc_samples, kNumObjectives, rng_);
      }
      obs::Span pick_span(obs::tracer().enabled() ? &obs::tracer() : nullptr,
                          "acq_pick", "optimizer");
      const bool prop_timed = obs::metrics().enabled();
      const auto prop_start = prop_timed
                                  ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};
      if (b > 0) believe(jobs.back().config, jobs.back().fidelity);
      const int depth = inflight0 + b;  // picks not yet observed
      // The first pick of a round decides its fidelity (the Eq. 10
      // cost/value trade-off); believer picks fill the batch at that stage,
      // so a round's jobs have comparable cost. The pipeline re-decides the
      // fidelity on every pick — heterogeneous fidelities in flight is the
      // point of dropping the barrier.
      const int lock = opts_.async || b == 0
                           ? -1
                           : static_cast<int>(jobs.front().fidelity);
      std::vector<diag::FidelityAudit> audit;
      const Pick pick = scanBest(have_fantasy ? fantasy : data_, cand, taken,
                                 stage_seconds_, z, lock,
                                 diag_on ? &audit : nullptr);
      taken[pick.config] = 1;
      jobs.push_back({pick.config, pick.fidelity});
      ++result_.picks_per_fidelity[static_cast<int>(pick.fidelity)];
      result_.iterations.push_back(
          {t_ + depth, pick.fidelity, pick.config, pick.peipv, round});
      pick_span.round(round)
          .fidelity(static_cast<int>(pick.fidelity))
          .id(static_cast<std::int64_t>(pick.config))
          .value(pick.peipv);
      if (obs::metrics().enabled())
        obs::metrics().observe(std::string("acq.peipv.") +
                                   sim::fidelityName(pick.fidelity),
                               pick.peipv);
      if (diag_on) {
        diag::DecisionRecord dr;
        dr.round = round;
        dr.winner_config = pick.config;
        dr.winner_fidelity = static_cast<int>(pick.fidelity);
        dr.winner_peipv = pick.peipv;
        dr.believer_depth = depth;
        dr.believer_invalidations = believer_invalidations_;
        dr.rationale =
            lock >= 0 ? "Kriging-believer batch fill at the round fidelity"
            : depth > 0
                ? "async argmax cost-penalized EIPV conditioned on " +
                      std::to_string(depth) + " in-flight believer(s)"
                : "argmax cost-penalized EIPV across fidelities (Eq. 10)";
        dr.fidelities = std::move(audit);
        diag::recorder().addDecision(std::move(dr));
        // Predict-before-observe: snapshot the posterior at every stage the
        // job will run, before its observation can enter the model. Extra
        // predict() calls only — no RNG, no state change, so the trajectory
        // is bit-identical with diagnostics off.
        for (int f = 0; f <= static_cast<int>(pick.fidelity); ++f) {
          const gp::MultiPosterior post =
              surrogate_.predict(f, space_->features(pick.config));
          PendingPrediction pp;
          pp.mu = post.mean;
          pp.var.resize(kNumObjectives);
          for (int m = 0; m < kNumObjectives; ++m) pp.var[m] = post.cov(m, m);
          pp.believer = depth > 0;
          pending_pred_[{pick.config, f}] = std::move(pp);
        }
      }
      // Dispatch: the pipeline starts each pick the moment it is chosen.
      if (opts_.async) {
        const double sim_start = scheduler_->simNow();
        const std::uint64_t seq = scheduler_->submitAsync(jobs.back());
        inflight_meta_.push_back({pick.config, pick.fidelity, sim_start, seq});
      }
      if (prop_timed)
        obs::metrics().observe(
            "slo.proposal_seconds",
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          prop_start)
                .count());
    }
  }

  // ---- Harvest (line 13): the whole batch at the barrier, or the earliest
  // in-flight completion in simulated time. ----
  std::vector<runtime::EvalResult> results;
  {
    obs::ScopedPhase eval_phase("evaluate", round);
    if (opts_.async) {
      assert(!inflight_meta_.empty());
      const runtime::ToolScheduler::AsyncCompletion ev =
          scheduler_->nextCompletion();
      std::erase_if(inflight_meta_, [&ev](const AsyncInflight& j) {
        return j.seq == ev.seq;
      });
      results.push_back(ev.result);
    } else {
      results = scheduler_->runBatch(jobs);
    }
    for (const runtime::EvalResult& res : results) record(res);
  }
  t_ += static_cast<int>(results.size());
  // Predictions for still-in-flight jobs survive this boundary; drop only
  // the consumed configs' entries.
  for (const runtime::EvalResult& res : results)
    for (int f = 0; f < kNumFidelities; ++f)
      pending_pred_.erase({res.job.config, f});
  ++result_.rounds_run;

  // ---- Close the step: diagnostics, checkpoint, stop conditions. ----
  std::optional<double> hv;
  if (diag_on || obs::metrics().enabled() || shared_.collect_outcomes)
    hv = topHypervolume(round);
  if (diag_on) {
    // Convergence record: hypervolume of the current top-fidelity set,
    // cumulative charged tool-seconds, cache counters; ADRS comes from the
    // recorder's oracle (set by the harness) when available.
    std::vector<std::size_t> selected;
    selected.reserve(cs_.size());
    for (const SampleRecord& rec : cs_) selected.push_back(rec.config);
    const runtime::EvalCache::Stats cstats =
        cache_->stats(scheduler_->cacheNamespace(), scheduler_->cacheLedger());
    diag::recorder().endRound(round, *hv, selected, toolSeconds(),
                              cstats.hits, cstats.misses);
  }
  // Diagnostics-only progression metrics: computed from already-recorded
  // data when enabled, never read back by the algorithm.
  if (obs::metrics().enabled()) {
    obs::metrics().set("opt.round", static_cast<double>(round));
    obs::metrics().set("opt.proposals", static_cast<double>(t_));
    obs::metrics().set("opt.believer_depth",
                       static_cast<double>(inflight_meta_.size()));
    obs::metrics().set("opt.believer_invalidations",
                       static_cast<double>(believer_invalidations_));
    if (!data_[kNumFidelities - 1].y.empty())
      obs::metrics().set("opt.hypervolume.impl", *hv);
  }

  {
    obs::ScopedPhase ckpt_phase("checkpoint", round);
    writeCheckpoint(round + 1);
  }
  if (opts_.max_rounds > 0 && result_.rounds_run >= opts_.max_rounds) {
    // Preemption point; the journal resumes from here. Like a kill, it
    // stops WITHOUT draining: in-flight believers stay journaled for the
    // resume to re-dispatch.
    stopped_ = true;
    preempted_ = true;
  }
  if (opts_.max_charged_seconds > 0.0 &&
      scheduler_->totals().charged_seconds >= opts_.max_charged_seconds)
    stopped_ = true;  // tool-time budget exhausted; in-flight jobs drain
  ++round_;
  return makeOutcome(round, results, hv);
}

OptimizeResult CorrelatedMfMoboOptimizer::finish() {
  assert(started_ && !finished_);
  finished_ = true;
  result_.cs = cs_;
  result_.tool_seconds = toolSeconds();
  const runtime::SchedulerStats totals = scheduler_->totals();
  result_.wall_seconds = totals.wall_seconds;
  result_.tool_runs = totals.tool_runs;
  result_.cache_hits = totals.cache_hits;
  result_.attempts = totals.attempts;
  result_.transient_failures = totals.transient_failures;
  result_.timeouts = totals.timeouts;
  result_.persistent_failures = totals.persistent_failures;
  result_.degraded_jobs = totals.degraded_jobs;
  result_.wasted_seconds = totals.retry_seconds_wasted;
  result_.backoff_seconds = totals.backoff_seconds;
  return result_;
}

OptimizeResult CorrelatedMfMoboOptimizer::run() {
  start();
  while (!done()) stepRound();
  return finish();
}

}  // namespace cmmfo::core
