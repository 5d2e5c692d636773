// Crash-only supervision and robustness tests: CRC-framed journal
// integrity, corrupt-tail quarantine + rollback, supervised restart to
// bit-identical trajectories, watchdog stall/heartbeat reporting, admission
// control, protocol fuzzing, lenient daemon resume, numerical self-healing
// (jitter escalation, GBRT fallback, forced dense refit), and bounded-LRU
// eval-cache eviction under concurrent multi-namespace access.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign_stepper.h"
#include "core/checkpoint.h"
#include "core/optimizer.h"
#include "core/surrogate.h"
#include "gp/posterior_state.h"
#include "linalg/matrix.h"
#include "rng/rng.h"
#include "runtime/eval_cache.h"
#include "server/campaign.h"
#include "server/protocol.h"
#include "server/server.h"
#include "util/crc32c.h"
#include "util/framed_log.h"
#include "util/json.h"

namespace cmmfo {
namespace {

namespace fs = std::filesystem;
using server::CampaignSpec;
using server::CampaignState;
using server::OptimizationServer;
using server::ServerOptions;

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

CampaignSpec fastSpec(const std::string& id, std::uint64_t seed,
                      std::uint64_t sim_seed, int n_iter = 6) {
  CampaignSpec spec;
  spec.id = id;
  spec.benchmark = "spmv_crs";
  spec.sim_seed = sim_seed;
  spec.opts = fastOpts();
  spec.opts.seed = seed;
  spec.opts.n_iter = n_iter;
  spec.opts.batch_size = 2;
  return spec;
}

/// Fault-free isolated run of a spec — the golden every supervised /
/// chaos-injected / resumed execution must reproduce bit-for-bit.
core::OptimizeResult runIsolated(const CampaignSpec& spec) {
  const auto space = server::makeSpaceFor(spec.benchmark);
  const auto bm = server::makeBenchmarkFor(spec.benchmark);
  const auto sim = server::makeSimFor(spec, *bm);
  core::CampaignStepper stepper(*space, *sim, spec.opts);
  while (!stepper.done()) stepper.step();
  return stepper.finish();
}

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

std::string readAll(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

fs::path freshDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ----------------------------------------------------------------- CRC ----

TEST(ChaosCrc32c, KnownAnswerAndChaining) {
  // The canonical CRC-32C check value (iSCSI test vector).
  const char msg[] = "123456789";
  EXPECT_EQ(util::crc32c(msg, 9), 0xE3069283u);
  EXPECT_EQ(util::crc32c(msg, 0), 0u);
  // Seed chaining: crc(b | crc(a)) == crc(a+b).
  EXPECT_EQ(util::crc32c(msg + 4, 5, util::crc32c(msg, 4)),
            util::crc32c(msg, 9));
  // Single-bit sensitivity.
  const char flipped[] = "123456788";
  EXPECT_NE(util::crc32c(flipped, 9), util::crc32c(msg, 9));
}

// ---------------------------------------------------------- framed log ----

TEST(ChaosFramedLog, RoundTripTornTailAndQuarantine) {
  const fs::path dir = freshDir("cmmfo_chaos_framed");
  const std::string path = (dir / "log.cmj").string();

  const std::vector<std::string> payloads = {"first", "second record",
                                             std::string(1000, 'x')};
  for (const auto& p : payloads) ASSERT_TRUE(util::appendFrame(path, p));

  util::FramedReadResult r = util::readFrames(path);
  ASSERT_EQ(r.frames.size(), 3u);
  EXPECT_EQ(r.frames[1], "second record");
  EXPECT_FALSE(r.corrupt_tail);
  EXPECT_EQ(r.intact_bytes, fs::file_size(path));

  // A torn append (half a frame) is detected, and everything before it
  // still reads intact.
  const std::string torn = util::encodeFrame("never finished");
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(torn.data(), static_cast<std::streamsize>(torn.size() / 2));
  }
  r = util::readFrames(path);
  EXPECT_EQ(r.frames.size(), 3u);
  EXPECT_TRUE(r.corrupt_tail);
  EXPECT_FALSE(r.tail_reason.empty());

  // Quarantine preserves the corrupt bytes before the log is truncated.
  const std::string qpath = path + ".quarantine";
  ASSERT_TRUE(util::quarantineTail(path, r.intact_bytes, r.frames, qpath));
  EXPECT_EQ(fs::file_size(qpath), torn.size() / 2);
  r = util::readFrames(path);
  EXPECT_EQ(r.frames.size(), 3u);
  EXPECT_FALSE(r.corrupt_tail);

  // A flipped payload byte invalidates exactly the frames from it onward.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(12 + 2);  // inside the first frame's payload
    f.put('X');
  }
  r = util::readFrames(path);
  EXPECT_EQ(r.frames.size(), 0u);
  EXPECT_TRUE(r.corrupt_tail);

  fs::remove_all(dir);
}

// ---------------------------------------------- framed checkpoint load ----

TEST(ChaosCheckpoint, CorruptTailRollsBackToPreviousGeneration) {
  const fs::path dir = freshDir("cmmfo_chaos_ckpt");
  const std::string path = (dir / "c.ckpt.json").string();

  core::CheckpointState st;
  st.fingerprint = 0xfeedULL;
  for (int round = 1; round <= 3; ++round) {
    st.next_round = round;
    st.t = round * 2;
    ASSERT_TRUE(core::saveCheckpointFramed(path, st));
  }

  // Clean load returns the newest generation.
  core::CheckpointState got;
  core::JournalLoadInfo info;
  ASSERT_TRUE(core::loadCheckpointAny(path, &got, nullptr, &info));
  EXPECT_TRUE(info.framed);
  EXPECT_FALSE(info.rolled_back);
  EXPECT_EQ(got.next_round, 3);

  // Corrupt the newest frame's payload (last byte of the file) — the load
  // must quarantine the tail and roll back to generation 2.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    f.put('#');
  }
  std::string err;
  ASSERT_TRUE(core::loadCheckpointAny(path, &got, &err, &info)) << err;
  EXPECT_TRUE(info.rolled_back);
  EXPECT_EQ(got.next_round, 2);
  EXPECT_EQ(got.t, 4);
  EXPECT_FALSE(info.note.empty());
  ASSERT_FALSE(info.quarantine_path.empty());
  EXPECT_TRUE(fs::exists(info.quarantine_path));

  // The repair is durable: the next load is clean at generation 2.
  ASSERT_TRUE(core::loadCheckpointAny(path, &got, nullptr, &info));
  EXPECT_FALSE(info.rolled_back);
  EXPECT_EQ(got.next_round, 2);

  // Plain single-JSON journals (written before every writer was framed)
  // still load.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << core::serializeCheckpoint(st);
  }
  ASSERT_TRUE(core::loadCheckpointAny(path, &got, nullptr, &info));
  EXPECT_FALSE(info.framed);
  EXPECT_EQ(got.next_round, 3);

  fs::remove_all(dir);
}

// ---------------------------------------------------------- supervision ----

TEST(ChaosSupervision, RestartedCampaignMatchesFaultFreeGolden) {
  const fs::path dir = freshDir("cmmfo_chaos_restart");
  const CampaignSpec spec = fastSpec("rc", 7, 42, 6);
  const auto golden = runIsolated(spec);

  ServerOptions opts;
  opts.workers = 2;
  opts.slots = 1;
  opts.journal_dir = dir.string();
  opts.max_restarts = 64;
  opts.restart_backoff_ms = 1;
  opts.chaos.seed = 1234;
  opts.chaos.step_fault_prob = 0.5;
  opts.chaos.only_id = "rc";
  OptimizationServer srv(opts);
  srv.start();
  std::string err;
  ASSERT_TRUE(srv.submit(spec, &err)) << err;
  srv.drain();

  const auto c = srv.campaign("rc");
  ASSERT_NE(c, nullptr);
  const auto snap = c->snapshot();
  EXPECT_EQ(snap.state, CampaignState::kDone);
  // The seeded coin at p=0.5 must have hit at least once across the run's
  // step attempts, so this really exercised restart-from-checkpoint.
  EXPECT_GE(snap.restarts, 1);
  EXPECT_EQ(srv.stats().supervision.restarts,
            static_cast<std::size_t>(snap.restarts));

  const auto result = c->result();
  ASSERT_TRUE(result.has_value());
  expectSameTrajectory(golden, *result);

  // Every restart left a diagnostic record in the campaign's journal.
  const std::string diag = readAll(dir / "rc.diag.jsonl");
  EXPECT_NE(diag.find("\"type\":\"failure\""), std::string::npos);
  EXPECT_NE(diag.find("\"action\":\"restart\""), std::string::npos);
  srv.stop();
  fs::remove_all(dir);
}

TEST(ChaosSupervision, MaxRestartsParksVictimFailedBystanderUntouched) {
  const fs::path dir = freshDir("cmmfo_chaos_victim");
  const CampaignSpec victim = fastSpec("victim", 7, 42, 6);
  const CampaignSpec bystander = fastSpec("bystander", 9, 43, 6);
  const auto golden = runIsolated(bystander);

  ServerOptions opts;
  opts.workers = 2;
  opts.slots = 2;
  opts.journal_dir = dir.string();
  opts.max_restarts = 2;
  opts.restart_backoff_ms = 1;
  opts.chaos.seed = 99;
  opts.chaos.step_fault_prob = 1.0;  // the victim can never take a step
  opts.chaos.only_id = "victim";
  OptimizationServer srv(opts);
  srv.start();
  std::string err;
  ASSERT_TRUE(srv.submit(victim, &err)) << err;
  ASSERT_TRUE(srv.submit(bystander, &err)) << err;
  srv.drain();

  // Victim: initial attempt + max_restarts supervised retries, then parked
  // failed with the diagnostic error surfaced in its status.
  const auto v = srv.campaign("victim")->snapshot();
  EXPECT_EQ(v.state, CampaignState::kFailed);
  EXPECT_EQ(v.restarts, 2);
  EXPECT_NE(v.error.find("chaos"), std::string::npos);
  const std::string diag = readAll(dir / "victim.diag.jsonl");
  EXPECT_NE(diag.find("\"action\":\"restart\""), std::string::npos);
  EXPECT_NE(diag.find("\"action\":\"failed\""), std::string::npos);
  // Failure is terminal in the journal too: a final marker exists, so a
  // --resume daemon will not resurrect a permanently failed campaign.
  EXPECT_TRUE(fs::exists(dir / "victim.final.json"));

  // Bystander: completely unaffected, bit-identical to its golden.
  const auto b = srv.campaign("bystander");
  EXPECT_EQ(b->snapshot().state, CampaignState::kDone);
  EXPECT_EQ(b->snapshot().restarts, 0);
  const auto result = b->result();
  ASSERT_TRUE(result.has_value());
  expectSameTrajectory(golden, *result);

  srv.stop();
  fs::remove_all(dir);
}

// ------------------------------------------------------------- watchdog ----

TEST(ChaosWatchdog, StallAndHeartbeatEventsStream) {
  const CampaignSpec spec = fastSpec("wd", 7, 42, 4);
  const auto golden = runIsolated(spec);

  ServerOptions opts;
  opts.workers = 2;
  opts.slots = 1;
  opts.step_deadline_seconds = 0.004;
  opts.heartbeat_seconds = 0.02;
  opts.chaos.seed = 5;
  opts.chaos.step_hang_prob = 1.0;  // every step sleeps 25ms: a "hung eval"
  opts.chaos.hang_ms = 25;
  OptimizationServer srv(opts);

  std::mutex mu;
  std::vector<std::string> events;
  const int token = srv.subscribe([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    events.push_back(line);
  });
  srv.start();
  std::string err;
  ASSERT_TRUE(srv.submit(spec, &err)) << err;
  srv.drain();
  srv.stop();
  srv.unsubscribe(token);

  int stalls = 0, heartbeats = 0;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (const std::string& line : events) {
      util::Json j;
      std::string jerr;
      ASSERT_TRUE(util::parseJson(line, &j, &jerr)) << line;
      const std::string ev = j.strOr("event", "");
      if (ev == "stall") {
        ++stalls;
        EXPECT_EQ(j.strOr("id", ""), "wd");
      }
      if (ev == "heartbeat") ++heartbeats;
    }
  }
  // Every step overran the 4ms deadline by construction; the watchdog must
  // have reported stalls and kept its heartbeat going.
  EXPECT_GE(stalls, 1);
  EXPECT_GE(heartbeats, 1);
  EXPECT_GE(srv.stats().supervision.stalled_steps, 1u);

  // Hang injection (unlike fault injection) perturbs only wall time: the
  // campaign still completes bit-identically to its golden.
  const auto c = srv.campaign("wd");
  EXPECT_EQ(c->snapshot().state, CampaignState::kDone);
  const auto result = c->result();
  ASSERT_TRUE(result.has_value());
  expectSameTrajectory(golden, *result);
}

// ------------------------------------------------------------ admission ----

TEST(ChaosAdmission, SubmitsBeyondCapacityAreShedAndRetryable) {
  ServerOptions opts;
  opts.workers = 2;
  opts.slots = 1;
  opts.max_campaigns = 2;
  OptimizationServer srv(opts);
  srv.start();
  std::string err;
  ASSERT_TRUE(srv.submit(fastSpec("a", 5, 21, 6), &err)) << err;
  ASSERT_TRUE(srv.submit(fastSpec("b", 9, 22, 6), &err)) << err;

  // Third submit while both are live: refused with the load-shed marker
  // (a "retry later", distinct from a bad-spec rejection).
  bool shed = false;
  EXPECT_FALSE(srv.submit(fastSpec("c", 3, 23, 4), &err, &shed));
  EXPECT_TRUE(shed);
  EXPECT_NE(err.find("capacity"), std::string::npos);

  // Same refusal at the protocol layer: an explicit {"shed":true} frame.
  bool quit = false;
  int sub_token = -1;
  const std::string reply = srv.handleLine(
      "{\"op\":\"submit\",\"id\":\"c\",\"benchmark\":\"spmv_crs\","
      "\"seed\":3,\"sim_seed\":23,\"n_iter\":4,\"batch_size\":2,"
      "\"mc_samples\":16,\"max_candidates\":60,\"refit_every\":5,"
      "\"mle_restarts\":0,\"max_mle_iters\":25}",
      nullptr, &quit, &sub_token);
  util::Json j;
  std::string jerr;
  ASSERT_TRUE(util::parseJson(reply, &j, &jerr)) << reply;
  const util::Json* sj = j.find("shed");
  ASSERT_NE(sj, nullptr);
  EXPECT_TRUE(sj->kind == util::Json::kBool && sj->b);
  EXPECT_EQ(srv.stats().supervision.load_shed, 2u);

  // Once capacity frees up the same spec is admitted.
  srv.drain();
  shed = false;
  ASSERT_TRUE(srv.submit(fastSpec("c", 3, 23, 4), &err, &shed)) << err;
  EXPECT_FALSE(shed);
  srv.drain();
  EXPECT_EQ(srv.campaign("c")->snapshot().state, CampaignState::kDone);
  srv.stop();
}

// ------------------------------------------------------------- protocol ----

TEST(ChaosProtocol, OversizedLinesGetErrorRepliesNotDisconnects) {
  ServerOptions opts;
  opts.workers = 1;
  opts.slots = 1;
  opts.max_line_bytes = 200;
  OptimizationServer srv(opts);
  srv.start();

  std::stringstream in;
  in << "{\"op\":\"list\",\"pad\":\"" << std::string(400, 'x') << "\"}\n"
     << "{\"op\":\"list\"}\n"
     << "{\"op\":\"shutdown\"}\n";
  std::stringstream out;
  srv.serveStdio(in, out);
  srv.stop();

  std::vector<std::string> lines;
  for (std::string l; std::getline(out, l);) lines.push_back(l);
  ASSERT_GE(lines.size(), 3u);
  // Oversized request: an error frame naming the limit, connection kept.
  EXPECT_NE(lines[0].find("max_line_bytes"), std::string::npos);
  EXPECT_NE(lines[0].find("\"ok\":false"), std::string::npos);
  // The next, well-sized request on the same stream still succeeds.
  EXPECT_NE(lines[1].find("\"ok\":true"), std::string::npos);
}

TEST(ChaosProtocol, FuzzCorpusNeverKillsTheDaemonAndRepliesStayWellFormed) {
  // Seeded malformed-frame corpus: random binary (invalid UTF-8 included),
  // truncated JSON prefixes of a real submit, structurally wrong payloads.
  std::mt19937_64 rng(0xC0FFEEULL);
  const std::string valid_submit =
      "{\"op\":\"submit\",\"id\":\"p1\",\"benchmark\":\"spmv_crs\","
      "\"seed\":7,\"sim_seed\":11,\"n_iter\":4,\"batch_size\":2}";
  std::vector<std::string> corpus = {
      "{",
      "}",
      "[1,2,3]",
      "42",
      "\"just a string\"",
      "null",
      "{\"op\":7}",
      "{\"op\":null}",
      "{\"op\":\"\"}",
      "{\"op\":\"submit\"}",
      "{\"op\":\"status\"}",
      "{\"op\":\"no_such_op\",\"id\":\"x\"}",
      "{\"op\":\"submit\",\"id\":\"../escape\",\"benchmark\":\"spmv_crs\"}",
      std::string("\xff\xfe\xc3\x28\xa0\xa1", 6),  // invalid UTF-8 bytes
  };
  // Truncated prefixes of a valid request (every proper prefix leaves the
  // object unterminated).
  for (std::size_t n = 1; n < valid_submit.size(); n += 13)
    corpus.push_back(valid_submit.substr(0, n));
  // Random garbage lines, newline-free.
  for (int i = 0; i < 120; ++i) {
    std::string line;
    const std::size_t len = 1 + rng() % 90;
    for (std::size_t k = 0; k < len; ++k) {
      char c = static_cast<char>(1 + rng() % 255);
      if (c == '\n' || c == '\r') c = '?';
      line.push_back(c);
    }
    corpus.push_back(line);
  }

  ServerOptions opts;
  opts.workers = 1;
  opts.slots = 1;
  OptimizationServer srv(opts);
  srv.start();
  std::stringstream in;
  for (const std::string& line : corpus) in << line << "\n";
  in << "{\"op\":\"stats\"}\n"
     << "{\"op\":\"shutdown\"}\n";
  std::stringstream out;
  srv.serveStdio(in, out);
  srv.stop();

  std::size_t replies = 0, well_formed = 0, ok_true = 0;
  for (std::string line; std::getline(out, line);) {
    ++replies;
    util::Json j;
    std::string jerr;
    if (!util::parseJson(line, &j, &jerr)) continue;
    ++well_formed;
    if (const util::Json* ok = j.find("ok");
        ok != nullptr && ok->kind == util::Json::kBool && ok->b)
      ++ok_true;
  }
  // One reply per corpus line plus stats plus shutdown, every single one
  // valid JSON; the daemon survived to answer the trailing stats request.
  EXPECT_EQ(replies, corpus.size() + 2);
  EXPECT_EQ(well_formed, replies);
  EXPECT_EQ(ok_true, 2u);  // stats + shutdown succeed; every fuzz line fails
}

// ----------------------------------------------------------- resume -------

TEST(ChaosResume, MissingOrEmptyJournalFilesRequeueFromSpec) {
  const fs::path dir = freshDir("cmmfo_chaos_requeue");
  const CampaignSpec ra = fastSpec("ra", 7, 42, 6);
  const CampaignSpec rb = fastSpec("rb", 9, 43, 6);
  const auto golden_a = runIsolated(ra);
  const auto golden_b = runIsolated(rb);

  ServerOptions opts;
  opts.workers = 2;
  opts.slots = 2;
  opts.journal_dir = dir.string();
  {
    OptimizationServer first(opts);
    first.start();
    std::string err;
    ASSERT_TRUE(first.submit(ra, &err)) << err;
    ASSERT_TRUE(first.submit(rb, &err)) << err;
    first.drain();
    first.stop();
  }

  // ra: final marker and checkpoint both gone (e.g. a partial disk wipe).
  fs::remove(dir / "ra.final.json");
  fs::remove(dir / "ra.ckpt.json");
  // rb: final marker and checkpoint both truncated to empty (torn writes).
  std::ofstream(dir / "rb.final.json", std::ios::trunc).close();
  std::ofstream(dir / "rb.ckpt.json", std::ios::trunc).close();

  // A resuming daemon must re-queue both from their specs — with warnings,
  // not a daemon abort — and reproduce the goldens from cold starts.
  ServerOptions ropts = opts;
  ropts.resume = true;
  OptimizationServer second(ropts);
  second.start();
  second.drain();

  for (const auto* pair :
       {&ra, &rb}) {
    const auto c = second.campaign(pair->id);
    ASSERT_NE(c, nullptr) << pair->id;
    EXPECT_EQ(c->snapshot().state, CampaignState::kDone) << pair->id;
  }
  expectSameTrajectory(golden_a, *second.campaign("ra")->result());
  expectSameTrajectory(golden_b, *second.campaign("rb")->result());
  // The unreadable final marker left a logged warning.
  EXPECT_NE(readAll(dir / "rb.diag.jsonl").find("resume_warning"),
            std::string::npos);
  second.stop();
  fs::remove_all(dir);
}

TEST(ChaosResume, CorruptSpecIsSkippedWithWarningNotDaemonAbort) {
  const fs::path dir = freshDir("cmmfo_chaos_badspec");
  const CampaignSpec good = fastSpec("good", 9, 43, 6);
  const auto golden = runIsolated(good);

  ServerOptions opts;
  opts.workers = 2;
  opts.slots = 2;
  opts.journal_dir = dir.string();
  {
    OptimizationServer first(opts);
    first.start();
    std::string err;
    ASSERT_TRUE(first.submit(fastSpec("bad", 7, 42, 6), &err)) << err;
    ASSERT_TRUE(first.submit(good, &err)) << err;
    first.drain();
    first.stop();
  }
  fs::remove(dir / "bad.final.json");
  fs::remove(dir / "good.final.json");
  {
    std::ofstream out(dir / "bad.spec.json", std::ios::trunc);
    out << "{{{ this is not a campaign spec\n";
  }

  ServerOptions ropts = opts;
  ropts.resume = true;
  OptimizationServer second(ropts);
  second.start();  // must not throw
  second.drain();

  EXPECT_EQ(second.campaign("bad"), nullptr);
  EXPECT_NE(readAll(dir / "bad.diag.jsonl").find("resume_warning"),
            std::string::npos);
  const auto c = second.campaign("good");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->snapshot().state, CampaignState::kDone);
  expectSameTrajectory(golden, *c->result());
  second.stop();
  fs::remove_all(dir);
}

TEST(ChaosResume, CorruptCheckpointTailRollsBackAndMatchesGolden) {
  const fs::path dir = freshDir("cmmfo_chaos_torn");
  const CampaignSpec spec = fastSpec("ct", 7, 42, 8);
  const auto golden = runIsolated(spec);

  ServerOptions opts;
  opts.workers = 2;
  opts.slots = 1;
  opts.journal_dir = dir.string();
  {
    OptimizationServer first(opts);
    first.start();
    std::string err;
    ASSERT_TRUE(first.submit(spec, &err)) << err;
    // Kill the daemon mid-flight with at least one round checkpointed.
    while (first.campaign("ct")->snapshot().rounds < 2)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    first.stop();
  }
  fs::remove(dir / "ct.final.json");  // in case the campaign raced to done
  // Torn write: garbage appended after the last intact frame.
  {
    const std::string garbage("CMJ1\x20\x00\x00\x00 torn garbage frame", 28);
    std::ofstream out(dir / "ct.ckpt.json", std::ios::binary | std::ios::app);
    out.write(garbage.data(), static_cast<std::streamsize>(garbage.size()));
  }

  ServerOptions ropts = opts;
  ropts.resume = true;
  OptimizationServer second(ropts);
  second.start();
  second.drain();

  const auto c = second.campaign("ct");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->snapshot().state, CampaignState::kDone);
  const auto result = c->result();
  ASSERT_TRUE(result.has_value());
  // Rolled back to the last intact checkpoint, then replayed forward —
  // bit-identical to the never-crashed run.
  expectSameTrajectory(golden, *result);
  // The corrupt tail was preserved as evidence, and the rollback logged.
  EXPECT_TRUE(fs::exists(dir / "ct.ckpt.json.quarantine"));
  EXPECT_NE(readAll(dir / "ct.diag.jsonl").find("\"type\":\"journal\""),
            std::string::npos);
  second.stop();
  fs::remove_all(dir);
}

// ---------------------------------------------- numerical self-healing ----

TEST(ChaosRecovery, JitterEscalationRescuesIndefiniteGram) {
  gp::PosteriorState st;
  // Indefinite "Gram" (eigenvalues 3 and -1): the standard jitter ladder
  // tops out near 1e-1 and cannot rescue it; the escalated ladder can.
  linalg::Matrix bad(2, 2);
  bad(0, 0) = 1.0;
  bad(0, 1) = 2.0;
  bad(1, 0) = 2.0;
  bad(1, 1) = 1.0;
  ASSERT_TRUE(st.refitDense(bad));
  EXPECT_EQ(st.jitter_escalations, 1u);
  // Above anything the standard ladder (tops out near 1e-1) could reach.
  EXPECT_GE(st.last_escalation_jitter, 1.0);

  // A healthy Gram goes through the standard ladder without counting.
  linalg::Matrix good(2, 2);
  good(0, 0) = 2.0;
  good(0, 1) = 0.5;
  good(1, 0) = 0.5;
  good(1, 1) = 2.0;
  ASSERT_TRUE(st.refitDense(good));
  EXPECT_EQ(st.jitter_escalations, 1u);

  // Non-finite entries are beyond any jitter: the escalated ladder reports
  // failure instead of faking a factorization.
  bad(0, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(st.refitDense(bad));
}

/// Synthetic 3-fidelity 2-objective observations (same construction as the
/// surrogate unit tests).
std::vector<core::FidelityObs> syntheticObs(int n0, int n1, int n2,
                                            rng::Rng& rng) {
  std::vector<core::FidelityObs> obs(3);
  const auto fill = [&](core::FidelityObs& o, int n, int level) {
    o.y = linalg::Matrix(n, 2);
    for (int i = 0; i < n; ++i) {
      const std::vector<double> x = {rng.uniform(), rng.uniform()};
      o.x.push_back(x);
      double y0 = std::sin(3.0 * x[0]) + 0.5 * x[1];
      double y1 = -2.0 * y0 + 0.1 * x[1];
      if (level >= 1) {
        y0 = y0 * y0 + 0.2 * x[0];
        y1 = y1 * 0.8 - 0.1;
      }
      if (level >= 2) {
        y0 += 0.05 * x[1];
        y1 += 0.05;
      }
      o.y(i, 0) = y0;
      o.y(i, 1) = y1;
    }
  };
  fill(obs[0], n0, 0);
  fill(obs[1], n1, 1);
  fill(obs[2], n2, 2);
  return obs;
}

TEST(ChaosRecovery, SurrogateFallsBackToGbrtOnMleExhaustion) {
  rng::Rng rng(3);
  const auto obs = syntheticObs(16, 10, 6, rng);
  core::SurrogateOptions so;
  so.mtgp.mle_restarts = 0;
  so.mtgp.max_mle_iters = 1;  // every fit exhausts its whole budget
  so.gp.mle_restarts = 0;
  so.gp.max_mle_iters = 1;
  core::MultiFidelitySurrogate s(2, 2, 3, so);
  core::RecoveryOptions r;
  r.mle_fail_streak = 1;
  s.setRecovery(r);
  s.fit(obs, rng);

  int fallbacks = 0;
  for (std::size_t level = 0; level < 3; ++level)
    if (s.fallbackActive(level)) ++fallbacks;
  EXPECT_GE(fallbacks, 1);
  const auto events = s.drainRecoveryEvents();
  bool saw_fallback = false;
  for (const auto& e : events) saw_fallback |= e.action == "surrogate_fallback";
  EXPECT_TRUE(saw_fallback);

  // Fallback predictions must be finite and carry nonzero uncertainty —
  // the acquisition keeps working while the GP recovers.
  for (std::size_t level = 0; level < 3; ++level) {
    const gp::MultiPosterior p = s.predict(level, {0.4, 0.6});
    ASSERT_EQ(p.mean.size(), 2u);
    for (double m : p.mean) EXPECT_TRUE(std::isfinite(m));
    for (std::size_t mm = 0; mm < 2; ++mm) {
      EXPECT_TRUE(std::isfinite(p.cov(mm, mm)));
      EXPECT_GT(p.cov(mm, mm), 0.0);
    }
  }
}

TEST(ChaosRecovery, CondBlowupForcesDenseRefitOnCommit) {
  rng::Rng rng(11);
  const auto obs = syntheticObs(16, 10, 6, rng);
  core::SurrogateOptions so;
  so.mtgp.mle_restarts = 0;
  so.mtgp.max_mle_iters = 30;
  so.gp.mle_restarts = 0;
  so.gp.max_mle_iters = 30;
  core::MultiFidelitySurrogate s(2, 2, 3, so);
  s.fit(obs, rng);
  (void)s.drainRecoveryEvents();  // discard anything the fit itself noted

  // Force the condition trigger (any finite estimate exceeds -1) and
  // commit: the self-healing layer must refit densely and say so.
  core::RecoveryOptions r;
  r.dense_refit_cond_log10 = -1.0;
  s.setRecovery(r);
  s.appendObservations(obs, /*commit=*/true);
  const auto events = s.drainRecoveryEvents();
  bool saw_refit = false;
  for (const auto& e : events) saw_refit |= e.action == "dense_refit";
  EXPECT_TRUE(saw_refit);

  // At loose default thresholds the same commit takes no recovery action.
  core::MultiFidelitySurrogate healthy(2, 2, 3, so);
  rng::Rng rng2(11);
  healthy.fit(obs, rng2);
  (void)healthy.drainRecoveryEvents();
  healthy.appendObservations(obs, /*commit=*/true);
  EXPECT_TRUE(healthy.drainRecoveryEvents().empty());
}

// --------------------------------------------------- eval-cache LRU -------

TEST(EvalCacheLru, EvictionCounterTieOutIsExact) {
  runtime::EvalCache cache;
  cache.setCapacity(4);
  const std::array<sim::Report, sim::kNumFidelities> stages{};
  for (std::size_t i = 0; i < 10; ++i)
    cache.storeFlow(i, sim::Fidelity::kHls, stages, /*ns=*/1);

  auto st = cache.stats();
  EXPECT_EQ(st.flows, 4u);
  EXPECT_EQ(st.evictions, 6u);  // creations (10) - survivors (4)
  // The survivors are exactly the most recently stored flows.
  const auto kept = cache.contents(1);
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_EQ(kept.front().first, 6u);
  EXPECT_EQ(kept.back().first, 9u);

  // A hit refreshes LRU position: after touching 6, storing a new flow
  // evicts 7 (now the oldest), not 6.
  EXPECT_TRUE(cache.find(6, sim::Fidelity::kHls, 1).has_value());
  cache.storeFlow(10, sim::Fidelity::kHls, stages, 1);
  bool has6 = false, has7 = false;
  for (const auto& [config, fid] : cache.contents(1)) {
    has6 |= config == 6;
    has7 |= config == 7;
  }
  EXPECT_TRUE(has6);
  EXPECT_FALSE(has7);
  EXPECT_EQ(cache.stats().evictions, 7u);
}

TEST(EvalCacheLru, ConcurrentMultiNamespaceLedgersStayIsolated) {
  runtime::EvalCache cache;
  cache.setCapacity(8);
  constexpr int kThreads = 4;
  constexpr std::size_t kConfigs = 64;
  constexpr int kPasses = 2;
  const std::array<sim::Report, sim::kNumFidelities> stages{};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::uint64_t ns = 1000 + t, ledger = 2000 + t;
      for (int pass = 0; pass < kPasses; ++pass)
        for (std::size_t i = 0; i < kConfigs; ++i) {
          (void)cache.find(i, sim::Fidelity::kHls, ns, ledger);
          cache.storeFlow(i, sim::Fidelity::kHls, stages, ns);
        }
    });
  }
  for (auto& th : threads) th.join();

  // Capacity bound held under concurrent cross-namespace pressure.
  const auto total = cache.stats();
  EXPECT_LE(total.flows, 8u);

  // Per-ledger counters: every thread's finds landed on its own ledger and
  // nowhere else — hits + misses tie out exactly per tenant, so there is no
  // cross-namespace (or cross-ledger) bleed under contention.
  std::uint64_t hits_sum = 0, misses_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    const auto st = cache.stats(1000 + t, 2000 + t);
    EXPECT_EQ(st.hits + st.misses, kPasses * kConfigs) << "ledger " << t;
    // With 64 configs cycling through an 8-flow cache, the first pass is
    // all misses and later passes keep missing on evicted flows.
    EXPECT_GE(st.misses, kConfigs) << "ledger " << t;
    hits_sum += st.hits;
    misses_sum += st.misses;
  }
  EXPECT_EQ(hits_sum + misses_sum,
            static_cast<std::uint64_t>(kThreads) * kPasses * kConfigs);
  EXPECT_EQ(total.hits, hits_sum);
  EXPECT_EQ(total.misses, misses_sum);

  // Eviction tie-out under concurrency: every flow creation beyond the
  // survivors was an eviction. Creations are bounded below by the distinct
  // configs stored (each miss preceded a creating store — namespaces are
  // disjoint, so no other thread could create it first) and above by the
  // total number of store calls.
  const std::uint64_t stores =
      static_cast<std::uint64_t>(kThreads) * kPasses * kConfigs;
  EXPECT_GE(total.evictions, misses_sum - total.flows);
  EXPECT_LE(total.evictions, stores - total.flows);
}

}  // namespace
}  // namespace cmmfo
