// Workload runner of the repository benchmark (see perfbench/README.md).
//
//   perfbench_workloads --workload paper_seq|async_stragglers|daemon_tenants
//                       --seed N --seconds S --trace 0|1 --out FILE
//                       --scratch DIR
//
// Generates the workload's campaign specs from --seed, times set-up, runs
// the workload in a closed loop for --seconds, and writes every raw sample
// (campaign and round times, poll latencies, simulated-time ledgers, the
// ordered CS as an ADRS-vs-charge curve, a CS digest) as one JSON document
// to --out. run.py turns the samples into metrics and checks them.
//
// With --trace 1 the window is split: the first half runs untraced, the
// second half replays the same specs with spans recorded around the
// runner's own calls into the library and the program's phase profile on.
// Layer probes then replay public calls (fit, append, predictBatch, mcEipv,
// hypervolume, sim runs, checkpoint save/load, the daemon protocol) at the
// sizes the traced campaigns reached, on datasets rebuilt from their CS
// through the pure FpgaToolSim::run.
//
// On the CLI workloads the first campaign's opening steps are replayed,
// untimed, after the window; run.py checks that the replay's proposals
// digest equals the one the window recorded at the same step.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/acquisition.h"
#include "core/campaign_stepper.h"
#include "core/checkpoint.h"
#include "bench_suite/extended_benchmarks.h"
#include "exp/harness.h"
#include "obs/obs.h"
#include "pareto/dominance.h"
#include "pareto/hypervolume.h"
#include "scenario/generator.h"
#include "server/server.h"
#include "util/json.h"

using namespace cmmfo;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

double medianOf(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median wall time of `reps` calls of `fn`, in seconds.
double timeMedian(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now();
    fn();
    t.push_back(now() - t0);
  }
  return medianOf(t);
}

/// Peak resident memory of this process so far, in MB (VmHWM; getrusage
/// where /proc is absent).
double peakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kb = -1.0;
    while (std::fgets(line, sizeof line, f) != nullptr)
      if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
    std::fclose(f);
    if (kb >= 0.0) return kb / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Campaigns the daemon completes before its peak memory is read: the
/// registry keeps every finished campaign, so memory read at a fixed count
/// does not rise with throughput.
constexpr int kRssCampaigns = 200;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string scratch;
};

// ---------------------------------------------------------------- Spans ----

/// In-memory span log: name, start, end, parent span and a per-campaign
/// trace id. Written out with the result when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::uint64_t trace = 0;
  };

  void setOn(bool on) { on_ = on; }

  int open(const std::string& name, int parent, std::uint64_t trace) {
    if (!on_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, now(), 0.0, parent, trace});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id < 0) return;
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }
  /// A completed interval measured elsewhere (client-side gaps).
  void add(const std::string& name, double start, double end, int parent,
           std::uint64_t trace) {
    if (!on_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start, end, parent, trace});
  }
  std::string json() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string s = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      if (i > 0) s += ",";
      s += "{\"id\":";
      util::putInt(s, static_cast<long long>(i));
      s += ",\"name\":";
      util::putString(s, sp.name);
      s += ",\"start\":";
      util::putDouble(s, sp.start);
      s += ",\"end\":";
      util::putDouble(s, sp.end);
      s += ",\"parent\":";
      util::putInt(s, sp.parent);
      s += ",\"trace\":";
      util::putU64Bare(s, sp.trace & 0xffffffffULL);
      s += "}";
    }
    return s + "]";
  }

 private:
  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

SpanLog g_spans;

class ScopedSpan {
 public:
  ScopedSpan(const std::string& name, int parent, std::uint64_t trace)
      : id_(g_spans.open(name, parent, trace)) {}
  ~ScopedSpan() { g_spans.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  int id_;
};

// -------------------------------------------------------------- Oracles ----

bench_suite::Benchmark resolveBenchmark(const std::string& name) {
  if (scenario::isScenarioName(name))
    return *scenario::generateFromName(name).benchmark;
  return bench_suite::makeAnyBenchmark(name);
}

/// Exhaustive ground truth per (benchmark, sim seed), built outside every
/// timed interval.
class Oracles {
 public:
  exp::BenchmarkContext& get(const std::string& bench, std::uint64_t sim_seed) {
    auto& slot = ctx_[{bench, sim_seed}];
    if (slot == nullptr)
      slot = std::make_unique<exp::BenchmarkContext>(resolveBenchmark(bench),
                                                     sim_seed);
    return *slot;
  }

 private:
  std::map<std::pair<std::string, std::uint64_t>,
           std::unique_ptr<exp::BenchmarkContext>>
      ctx_;
};

// ------------------------------------------------------------ Campaigns ----

struct CampaignSpecGen {
  int index = 0;  ///< position in the seeded spec sequence
  server::CampaignSpec spec;
  bool repeat = false;  ///< reuses an earlier (benchmark, sim_seed) pair
};

struct CampaignRecord {
  CampaignSpecGen gen;
  int tenant = 0;
  bool traced = false;
  std::string state = "unknown";
  double submit_ms = 0.0;
  double t_start = 0.0;  ///< CLI: before the first step; daemon: submit sent
  double t_end = 0.0;    ///< after finish() / the terminal state event
  double campaign_s = 0.0;
  std::vector<double> round_s;       ///< caller-side per-step/round gap
  std::vector<double> step_s;        ///< program-side step time
  std::vector<double> queue_wait_s;  ///< daemon: gap minus step_seconds
  bool has_result = false;
  core::OptimizeResult result;
  /// Simulated farm width the campaign's wall clock is modeled on: the
  /// in-flight cap when async, else the scheduler pool's worker count.
  int farm_width = 1;
  int fallback_levels = -1;  ///< -1 = not observed
  std::uint64_t coalesced = 0;
  /// CLI: digest of the proposals after the first kReplaySteps steps (0 =
  /// the campaign took fewer steps).
  std::uint64_t prefix_digest = 0;
  std::string journal;  ///< daemon checkpoint journal path
};

/// FNV-1a over raw bytes.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void eat(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  }
};

std::uint64_t csDigest(const core::OptimizeResult& r) {
  Fnv d;
  for (const core::SampleRecord& s : r.cs) {
    const std::uint64_t c = s.config;
    const int f = static_cast<int>(s.fidelity);
    const double v[4] = {s.report.power_w, s.report.delay_us,
                         s.report.lut_util, s.report.tool_seconds};
    d.eat(&c, sizeof c);
    d.eat(&f, sizeof f);
    d.eat(v, sizeof v);
    d.eat(&s.report.valid, sizeof s.report.valid);
  }
  return d.h;
}

/// Digest of the proposals made so far (the CS itself is filled in only by
/// finish()): configuration, fidelity, acquisition value and round.
std::uint64_t picksDigest(const core::OptimizeResult& r) {
  Fnv d;
  for (const core::IterationLog& it : r.iterations) {
    const std::uint64_t c = it.config;
    const int f[3] = {static_cast<int>(it.fidelity), it.iteration, it.round};
    d.eat(&c, sizeof c);
    d.eat(f, sizeof f);
    d.eat(&it.peipv, sizeof it.peipv);
  }
  return d.h;
}

std::string hexDigest(std::uint64_t d) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(d));
  return hex;
}

/// Steps after which a CLI campaign's proposals are digested, and which the
/// determinism replay re-runs.
constexpr std::size_t kReplaySteps = 10;

/// Rounds a CLI window holds at least: a p90 with 10 rounds beyond it.
constexpr std::size_t kMinRounds = 100;

// --------------------------------------------------------------- Workloads ----

const char* const kPaperKernels[] = {"gemm", "sort_radix"};
const char* const kAsyncKernels[] = {"spmv_crs", "gemm"};

/// Straggler mix of bench/async_scaling: license stalls dominate, a few
/// hangs, rare transient crashes.
sim::FaultParams stragglerFaults(std::uint64_t fault_seed) {
  sim::FaultParams f;
  f.license_stall_prob = 0.30;
  f.license_stall_seconds = 900.0;
  f.transient_crash_prob = 0.03;
  f.hang_prob = 0.02;
  f.hang_multiplier = 8.0;
  f.fault_seed = fault_seed;
  return f;
}

/// Spec k of a CLI workload as `cmmfo run --seed S` builds it: CLI defaults
/// and the CLI's simulator seed (42), the campaign seed drawn from --seed,
/// kernels in a fixed rotation so every run sees the same mix.
CampaignSpecGen cliSpec(const std::string& workload, std::uint64_t seed,
                        int k) {
  CampaignSpecGen g;
  g.index = k;
  server::CampaignSpec& s = g.spec;
  const std::uint64_t h = mix(seed, static_cast<std::uint64_t>(k));
  s.id = workload + "_" + std::to_string(k);
  s.opts.seed = 1 + h % 100000;
  s.sim_seed = 42;
  if (workload == "paper_seq") {
    s.benchmark = kPaperKernels[k % 2];
  } else {
    s.benchmark = kAsyncKernels[k % 2];
    s.opts.async = true;
    s.opts.n_workers = 4;
  }
  return g;
}

/// The kernels a workload runs (set-up builds each of them).
std::vector<std::string> workloadKernels(const std::string& workload,
                                         std::uint64_t seed) {
  if (workload == "paper_seq") return {kPaperKernels[0], kPaperKernels[1]};
  if (workload == "async_stragglers")
    return {kAsyncKernels[0], kAsyncKernels[1]};
  return {"spmv_crs", "stencil3d", "gemm",
          "scenario:" + std::to_string(1 + seed % 997)};
}

/// Spec k of daemon_tenants: a seeded mix of sync batch-2 and async W=2
/// campaigns over four kernels; about half repeat an earlier (benchmark,
/// sim_seed) pair of the same sequence so the shared eval cache is read.
std::vector<CampaignSpecGen> daemonSpecs(std::uint64_t seed, int n) {
  const std::vector<std::string> kernels =
      workloadKernels("daemon_tenants", seed);
  std::vector<CampaignSpecGen> out;
  for (int k = 0; k < n; ++k) {
    CampaignSpecGen g;
    g.index = k;
    server::CampaignSpec& s = g.spec;
    const std::uint64_t h = mix(seed ^ 0xDAE0, static_cast<std::uint64_t>(k));
    s.id = "t" + std::to_string(k % 3) + "_c" + std::to_string(k);
    if (k > 0 && (h & 1) != 0) {
      const CampaignSpecGen& prev = out[(h >> 8) % static_cast<std::uint64_t>(k)];
      s.benchmark = prev.spec.benchmark;
      s.sim_seed = prev.spec.sim_seed;
      g.repeat = true;
    } else {
      s.benchmark = kernels[(h >> 4) % 4];
      s.sim_seed = 1 + (h >> 24) % 100000;
    }
    s.opts.seed = 1 + (h >> 40) % 100000;
    s.opts.n_iter = 12;
    s.opts.mc_samples = 16;
    s.opts.max_candidates = 100;
    s.opts.refit_every = 5;
    s.opts.surrogate.mtgp.mle_restarts = 0;
    s.opts.surrogate.gp.mle_restarts = 0;
    s.opts.surrogate.mtgp.max_mle_iters = 25;
    s.opts.surrogate.gp.max_mle_iters = 25;
    if ((h >> 2) & 1) {
      s.opts.async = true;
      s.opts.n_workers = 2;
    } else {
      s.opts.batch_size = 2;
    }
    out.push_back(g);
  }
  return out;
}

/// One CLI campaign: the stepper driven in the caller's thread, exactly as
/// `cmmfo run` drives it (sim accounting reset, step() until done).
CampaignRecord runCliCampaign(const CampaignSpecGen& g,
                              const hls::DesignSpace& space,
                              sim::FpgaToolSim& sim, bool traced) {
  CampaignRecord rec;
  rec.gen = g;
  rec.traced = traced;
  rec.farm_width = std::max(g.spec.opts.n_workers, 1);
  const std::uint64_t trace_id = static_cast<std::uint64_t>(g.index) + 1;
  sim.resetAccounting();
  const double t0 = now();
  {
    ScopedSpan campaign_span("campaign", -1, trace_id);
    core::CampaignStepper stepper(space, sim, g.spec.opts);
    while (!stepper.done()) {
      ScopedSpan step_span("core.step", campaign_span.id(), trace_id);
      const double s0 = now();
      stepper.step();
      rec.round_s.push_back(now() - s0);
      if (rec.round_s.size() == kReplaySteps)
        rec.prefix_digest = picksDigest(stepper.partialResult());
    }
    rec.result = stepper.finish();
    rec.has_result = true;
    int fb = 0;
    for (const std::size_t n : stepper.surrogate().recoveryState().fallback_trained_n)
      fb += n != 0;
    rec.fallback_levels = fb;
  }
  rec.t_start = t0;
  rec.t_end = now();
  rec.campaign_s = rec.t_end - t0;
  rec.step_s = rec.round_s;
  rec.state = "done";
  return rec;
}

/// The spaces and simulators of one CLI window, built on first use. Async
/// simulators carry the straggler fault mix.
struct CliWorld {
  std::map<std::string, std::shared_ptr<const hls::DesignSpace>> spaces;
  std::map<std::string, std::shared_ptr<const bench_suite::Benchmark>> bms;
  std::map<std::pair<std::string, std::uint64_t>,
           std::unique_ptr<sim::FpgaToolSim>>
      sims;

  const hls::DesignSpace& space(const server::CampaignSpec& s) {
    auto& slot = spaces[s.benchmark];
    if (slot == nullptr) slot = server::makeSpaceFor(s.benchmark);
    return *slot;
  }
  sim::FpgaToolSim& sim(const server::CampaignSpec& s, std::uint64_t seed) {
    auto& bm = bms[s.benchmark];
    if (bm == nullptr) bm = server::makeBenchmarkFor(s.benchmark);
    auto& slot = sims[{s.benchmark, s.sim_seed}];
    if (slot == nullptr) {
      slot = server::makeSimFor(s, *bm);
      if (s.opts.async) slot->setFaultParams(stragglerFaults(mix(seed, 77)));
    }
    return *slot;
  }
};

/// Determinism replay, untimed: the first kReplaySteps steps of spec `g` in
/// a fresh world, as the window's first campaign ran them. Returns the
/// campaign's in-progress result after them.
core::OptimizeResult replayPrefix(const Args& a, const CampaignSpecGen& g) {
  CliWorld w;
  sim::FpgaToolSim& sim = w.sim(g.spec, a.seed);
  sim.resetAccounting();
  core::CampaignStepper stepper(w.space(g.spec), sim, g.spec.opts);
  for (std::size_t k = 0; k < kReplaySteps && !stepper.done(); ++k)
    stepper.step();
  return stepper.partialResult();
}

/// Closed loop, one caller: campaigns back to back, in whole passes over
/// the kernel rotation so every run weighs the kernels equally. A pass
/// starts while at least half a median pass fits in the window, which keeps
/// the run's length centred on the window, or while the window holds fewer
/// than kMinRounds rounds, so that a slow host still yields a p90.
std::vector<CampaignRecord> runCliWorkload(const Args& a, double seconds,
                                           bool traced) {
  std::vector<CampaignRecord> out;
  CliWorld w;
  const int rotation = 2;
  const double deadline = now() + seconds;
  std::vector<double> pass_s;
  std::size_t rounds = 0;
  for (int k = 0; k == 0 || rounds < kMinRounds ||
                  deadline - now() >= 0.5 * medianOf(pass_s);
       k += rotation) {
    const double p0 = now();
    for (int j = k; j < k + rotation; ++j) {
      const CampaignSpecGen g = cliSpec(a.workload, a.seed, j);
      out.push_back(runCliCampaign(g, w.space(g.spec),
                                   w.sim(g.spec, a.seed), traced));
      rounds += out.back().round_s.size();
    }
    pass_s.push_back(now() - p0);
  }
  return out;
}

// ----------------------------------------------------------- TCP client ----

class LineConn {
 public:
  explicit LineConn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
            0)
      throw std::runtime_error("cannot connect to the daemon");
  }
  ~LineConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  void send(const std::string& line) {
    const std::string buf = line + "\n";
    std::size_t off = 0;
    while (off < buf.size()) {
      const ssize_t n = ::send(fd_, buf.data() + off, buf.size() - off, 0);
      if (n <= 0) throw std::runtime_error("daemon connection lost (send)");
      off += static_cast<std::size_t>(n);
    }
  }
  std::string readLine() {
    while (true) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char tmp[8192];
      const ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
      if (n <= 0) throw std::runtime_error("daemon connection lost (recv)");
      buf_.append(tmp, static_cast<std::size_t>(n));
      ++reads_;
    }
  }
  /// Number of the read that delivered the last line returned: lines with
  /// equal numbers reached the client together.
  std::uint64_t delivery() const { return reads_; }

 private:
  int fd_ = -1;
  std::string buf_;
  std::uint64_t reads_ = 0;
};

struct PollSample {
  std::string op;
  double due = 0.0;   ///< scheduled send instant
  double sent = 0.0;  ///< actual send instant
  double done = 0.0;  ///< reply instant
  bool ok = false;
};

struct DaemonRun {
  std::vector<CampaignRecord> campaigns;
  std::vector<PollSample> polls;
  double rss_mb = 0.0;  ///< peak RSS when the kRssCampaigns-th campaign ended
};

/// The daemon every workload that uses one runs: 4 tool workers, 2 step
/// slots, CRC-framed journals in a fresh directory.
server::ServerOptions daemonOptions(const std::string& journal_dir) {
  fs::remove_all(journal_dir);
  server::ServerOptions so;
  so.workers = 4;
  so.slots = 2;
  so.journal_dir = journal_dir;
  return so;
}

std::string submitLine(const server::CampaignSpec& s) {
  std::string j = server::specToJson(s);
  // specToJson emits an object; splice the op in front.
  return "{\"op\":\"submit\"," + j.substr(1);
}

/// Three closed-loop tenants (submit, wait for done, submit the next) and
/// one open-loop poller, each on its own TCP connection to an in-process
/// daemon (workers 4, slots 2, framed journals).
DaemonRun runDaemonWorkload(const Args& a, double seconds, bool traced,
                            const std::string& journal_dir) {
  DaemonRun run;
  server::OptimizationServer srv(daemonOptions(journal_dir));
  srv.start();
  const int port = srv.listenTcp(0);
  if (port < 0) throw std::runtime_error("daemon cannot listen");

  const std::vector<CampaignSpecGen> specs = daemonSpecs(a.seed, 6000);
  std::mutex mu;  // guards run, latest_id
  std::string latest_id;
  const double deadline = now() + seconds;
  std::atomic<bool> tenants_done{false};
  std::atomic<int> ended{0};

  const auto tenant = [&](int t) {
    LineConn conn(port);
    conn.send("{\"op\":\"subscribe\"}");
    conn.readLine();
    std::vector<CampaignRecord> mine;
    for (std::size_t k = static_cast<std::size_t>(t);
         k < specs.size() && (now() < deadline || ended < kRssCampaigns);
         k += 3) {
      CampaignRecord rec;
      rec.gen = specs[k];
      rec.tenant = t;
      rec.traced = traced;
      rec.farm_width = rec.gen.spec.opts.async ? rec.gen.spec.opts.n_workers
                                               : srv.options().workers;
      const std::string& id = rec.gen.spec.id;
      const std::uint64_t trace_id = k + 1;
      const int span = g_spans.open("server.campaign", -1, trace_id);
      const double t_send = now();
      conn.send(submitLine(rec.gen.spec));
      // Events of the new campaign may race its own submit reply.
      struct Event {
        double t;
        std::uint64_t delivery;
        util::Json json;
      };
      std::vector<Event> early;
      util::Json reply;
      while (true) {
        const std::string line = conn.readLine();
        util::Json j;
        if (!util::parseJson(line, &j)) continue;
        if (j.find("ok") != nullptr) {
          reply = j;
          break;
        }
        early.push_back({now(), conn.delivery(), j});
      }
      const double t_reply = now();
      rec.submit_ms = (t_reply - t_send) * 1e3;
      g_spans.add("server.submit", t_send, t_reply, span, trace_id);
      const util::Json* ok = reply.find("ok");
      if (ok == nullptr || !ok->b) {
        rec.state = "rejected";
        g_spans.close(span);
        mine.push_back(std::move(rec));
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        latest_id = id;
      }
      double last_round = -1.0;
      std::uint64_t last_delivery = 0;
      std::size_t next_early = 0;
      while (true) {
        double t_ev = 0.0;
        std::uint64_t delivery = 0;
        util::Json ev;
        if (next_early < early.size()) {
          t_ev = early[next_early].t;
          delivery = early[next_early].delivery;
          ev = std::move(early[next_early].json);
          ++next_early;
        } else {
          const std::string line = conn.readLine();
          t_ev = now();
          delivery = conn.delivery();
          if (!util::parseJson(line, &ev)) continue;
        }
        if (ev.strOr("id", "") != id) continue;
        const std::string kind = ev.strOr("event", "");
        if (kind == "round") {
          const double step = ev.numOr("step_seconds", 0.0);
          rec.step_s.push_back(step);
          // Round events that arrive in one read (the daemon's stream
          // batches them) are one delivery: their microsecond gaps would
          // split the gap distribution in two modes, with the median
          // between them.
          if (last_round >= 0.0 && delivery != last_delivery) {
            rec.round_s.push_back(t_ev - last_round);
            rec.queue_wait_s.push_back(t_ev - last_round - step);
            g_spans.add("server.round", last_round, t_ev, span, trace_id);
          }
          last_round = t_ev;
          last_delivery = delivery;
        } else if (kind == "state") {
          const std::string st = ev.strOr("state", "");
          if (st == "done" || st == "failed" || st == "cancelled") {
            rec.state = st;
            rec.t_start = t_send;
            rec.t_end = t_ev;
            rec.campaign_s = t_ev - t_reply;
            if (++ended == kRssCampaigns) run.rss_mb = peakRssMb();
            break;
          }
        }
      }
      g_spans.close(span);
      mine.push_back(std::move(rec));
    }
    std::lock_guard<std::mutex> lock(mu);
    for (CampaignRecord& r : mine) run.campaigns.push_back(std::move(r));
  };

  // Open loop: one request every kPeriod seconds on the schedule, each
  // timed from its scheduled send instant.
  const auto poller = [&] {
    constexpr double kPeriod = 0.02;
    LineConn conn(port);
    std::vector<PollSample> polls;
    const double t0 = now();
    for (long long i = 0; !tenants_done.load(); ++i) {
      const double due = t0 + static_cast<double>(i) * kPeriod;
      const double wait = due - now();
      if (wait > 0)
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      std::string id;
      {
        std::lock_guard<std::mutex> lock(mu);
        id = latest_id;
      }
      PollSample p;
      p.op = (i % 2 == 0 && !id.empty()) ? "status" : "metrics";
      std::string req = "{\"op\":";
      util::putString(req, p.op);
      if (p.op == "status") {
        req += ",\"id\":";
        util::putString(req, id);
      }
      req += "}";
      const int span = g_spans.open("server." + p.op, -1, 0);
      const double sent = now();
      conn.send(req);
      const std::string line = conn.readLine();
      const double got = now();
      g_spans.close(span);
      util::Json j;
      p.ok = util::parseJson(line, &j) && j.find("ok") != nullptr &&
             j.find("ok")->b;
      p.due = due;
      p.sent = sent;
      p.done = got;
      polls.push_back(p);
    }
    std::lock_guard<std::mutex> lock(mu);
    run.polls = std::move(polls);
  };

  // A client thread that fails records why; the run then fails after
  // every thread has been joined.
  std::string client_error;
  const auto guarded = [&](const std::function<void()>& body) {
    try {
      body();
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu);
      client_error = e.what();
    }
  };
  std::vector<std::thread> threads;
  std::thread poll_thread(guarded, poller);
  for (int t = 0; t < 3; ++t)
    threads.emplace_back(guarded, [&tenant, t] { tenant(t); });
  for (std::thread& th : threads) th.join();
  tenants_done = true;
  poll_thread.join();
  srv.stop();
  if (!client_error.empty())
    throw std::runtime_error("daemon client: " + client_error);
  if (ended < kRssCampaigns)
    throw std::runtime_error("the daemon ended fewer campaigns than the " +
                             std::to_string(kRssCampaigns) +
                             " its memory reading needs");

  for (CampaignRecord& rec : run.campaigns) {
    if (rec.state != "done") continue;
    if (const std::shared_ptr<server::Campaign> c =
            srv.campaign(rec.gen.spec.id)) {
      if (auto res = c->result()) {
        rec.result = *res;
        rec.has_result = true;
      }
    }
    rec.journal = (fs::path(journal_dir) / (rec.gen.spec.id + ".ckpt.json")).string();
    core::CheckpointState st;
    if (core::loadCheckpointAny(rec.journal, &st, nullptr)) {
      int fb = 0;
      for (const std::uint64_t n : st.surrogate_fallback_n) fb += n != 0;
      rec.fallback_levels = fb;
    }
    rec.coalesced = srv.cache()
                        .stats(server::cacheNamespaceOf(rec.gen.spec),
                               server::cacheLedgerOf(rec.gen.spec))
                        .coalesced;
  }
  std::sort(run.campaigns.begin(), run.campaigns.end(),
            [](const CampaignRecord& x, const CampaignRecord& y) {
              return x.gen.index < y.gen.index;
            });
  return run;
}

// ------------------------------------------------------------- Set-up ----

/// Set-up as a user pays it before the first step: Algorithm 1 pruning of
/// every kernel the workload uses, simulator construction, and (daemon)
/// server start plus TCP listen. The exhaustive oracle is excluded.
double setupOnce(const Args& a, std::vector<double>* space_build_s) {
  const double t0 = now();
  double space_s = 0.0;
  std::vector<std::unique_ptr<sim::FpgaToolSim>> sims;
  for (const std::string& k : workloadKernels(a.workload, a.seed)) {
    const auto bm = server::makeBenchmarkFor(k);
    const double s0 = now();
    const auto space = server::makeSpaceFor(k);
    space_s += now() - s0;
    server::CampaignSpec spec;
    spec.benchmark = k;
    sims.push_back(server::makeSimFor(spec, *bm));
  }
  if (a.workload == "daemon_tenants") {
    server::OptimizationServer srv(
        daemonOptions((fs::path(a.scratch) / "setup_journal").string()));
    srv.start();
    srv.listenTcp(0);
    const double t = now() - t0;
    srv.stop();
    space_build_s->push_back(space_s);
    return t;
  }
  space_build_s->push_back(space_s);
  return now() - t0;
}

// -------------------------------------------------------------- Probes ----

/// Datasets rebuilt from a campaign's CS through the pure tool simulator:
/// every CS entry contributes its report at each fidelity up to the one it
/// reached (the nested flow), invalid reports take the Sec. IV-C penalty.
std::vector<core::FidelityObs> rebuildObs(const CampaignRecord& rec,
                                          const hls::DesignSpace& space,
                                          const sim::FpgaToolSim& sim,
                                          std::vector<double>* run_us) {
  std::array<std::vector<std::size_t>, sim::kNumFidelities> cfgs;
  std::array<std::vector<std::vector<double>>, sim::kNumFidelities> ys;
  // The CS prefix at the campaign's middle round: the initial design plus
  // half the proposals, so one probed call stands for the average round.
  const std::size_t n_init = rec.result.cs.size() - rec.result.iterations.size();
  const std::size_t upto = n_init + rec.result.iterations.size() / 2;
  for (std::size_t k = 0; k < upto && k < rec.result.cs.size(); ++k) {
    const core::SampleRecord& s = rec.result.cs[k];
    for (int f = 0; f <= static_cast<int>(s.fidelity); ++f) {
      const double t0 = now();
      const sim::Report r =
          sim.run(space.config(s.config), static_cast<sim::Fidelity>(f));
      run_us->push_back((now() - t0) * 1e6);
      std::vector<double> y = r.objectives();
      if (!r.valid) {
        std::vector<double> worst(sim::kNumObjectives, 1.0);
        for (const auto& prev : ys[f])
          for (int m = 0; m < sim::kNumObjectives; ++m)
            worst[m] = std::max(worst[m], prev[m]);
        for (double& w : worst) w *= rec.gen.spec.opts.invalid_penalty;
        y = worst;
      }
      cfgs[f].push_back(s.config);
      ys[f].push_back(y);
    }
  }
  std::vector<core::FidelityObs> obs(sim::kNumFidelities);
  for (int f = 0; f < sim::kNumFidelities; ++f) {
    obs[f].y = linalg::Matrix(cfgs[f].size(), sim::kNumObjectives);
    for (std::size_t i = 0; i < cfgs[f].size(); ++i) {
      obs[f].x.push_back(space.features(cfgs[f][i]));
      for (int m = 0; m < sim::kNumObjectives; ++m) obs[f].y(i, m) = ys[f][i][m];
    }
  }
  return obs;
}

void putProbe(std::string& s, const std::map<std::string, double>& v) {
  s += "{";
  bool first = true;
  for (const auto& [k, x] : v) {
    if (!first) s += ",";
    first = false;
    util::putString(s, k);
    s += ":";
    util::putDoubleOrNull(s, x);
  }
  s += "}";
}

/// Replay the layer calls of one campaign at the sizes it reached.
std::map<std::string, double> probeCampaign(const CampaignRecord& rec,
                                            const std::string& scratch) {
  std::map<std::string, double> v;
  const server::CampaignSpec& spec = rec.gen.spec;
  const auto bm = server::makeBenchmarkFor(spec.benchmark);
  const auto space = server::makeSpaceFor(spec.benchmark);
  const auto sim = server::makeSimFor(spec, *bm);
  const std::uint64_t trace_id = 1000000 + static_cast<std::uint64_t>(rec.gen.index);
  ScopedSpan root("probe", -1, trace_id);

  std::vector<double> run_us;
  std::vector<core::FidelityObs> obs;
  {
    ScopedSpan sp("sim.run", root.id(), trace_id);
    obs = rebuildObs(rec, *space, *sim, &run_us);
  }
  v["sim.run_us"] = medianOf(run_us);
  for (const auto& o : obs)
    if (o.x.size() < 3) return v;  // too thin to fit every level

  const std::size_t dim = space->featureDim();
  const core::SurrogateOptions& so = spec.opts.surrogate;
  rng::Rng rng(spec.opts.seed);
  core::MultiFidelitySurrogate sur(dim, sim::kNumObjectives,
                                   sim::kNumFidelities, so);
  {
    ScopedSpan sp("gp.fit", root.id(), trace_id);
    const double t0 = now();
    sur.fit(obs, rng, true);
    v["gp.fit_s"] = now() - t0;
  }
  long long iters = 0;
  for (std::size_t l = 0; l < sim::kNumFidelities; ++l)
    iters += sur.lastFitIterations(l);
  v["gp.fit_iters"] = static_cast<double>(iters);
  {
    ScopedSpan sp("gp.rebuild", root.id(), trace_id);
    v["gp.rebuild_s"] =
        timeMedian(3, [&] { sur.fit(obs, rng, false); });
  }

  // Believer append + commit of one more level-0 row on top of a committed
  // posterior over all rows but the last.
  {
    std::vector<core::FidelityObs> head = obs;
    core::FidelityObs& o0 = head[0];
    o0.x.pop_back();
    linalg::Matrix y0(o0.x.size(), sim::kNumObjectives);
    for (std::size_t i = 0; i < o0.x.size(); ++i)
      for (int m = 0; m < sim::kNumObjectives; ++m) y0(i, m) = obs[0].y(i, m);
    o0.y = y0;
    ScopedSpan sp("gp.append", root.id(), trace_id);
    std::vector<double> t;
    for (int r = 0; r < 5; ++r) {
      sur.fit(head, rng, false);
      const double t0 = now();
      sur.appendObservations(obs, false);
      sur.appendObservations(obs, true);
      t.push_back((now() - t0) * 1e6);
    }
    v["gp.append_us"] = medianOf(t);
  }
  sur.fit(obs, rng, false);

  // The scan's candidate block at the top fidelity.
  rng::Rng crng(mix(spec.opts.seed, 5));
  gp::Dataset cand;
  const std::size_t ncand = std::min<std::size_t>(
      static_cast<std::size_t>(spec.opts.max_candidates), space->size());
  for (std::size_t i = 0; i < ncand; ++i)
    cand.push_back(space->features(crng.index(space->size())));
  const std::size_t top = sim::kNumFidelities - 1;
  std::vector<gp::MultiPosterior> posts;
  {
    ScopedSpan sp("gp.predict_batch", root.id(), trace_id);
    std::vector<double> t;
    for (int r = 0; r < 3; ++r) {
      const double t0 = now();
      posts = sur.predictBatch(top, cand);
      t.push_back((now() - t0) * 1e3);
    }
    v["gp.predict_batch_ms"] = medianOf(t);
  }

  // Normalized front of the top-fidelity observations (as the scan builds).
  const core::FidelityObs& ot = obs[top];
  std::vector<double> lo(sim::kNumObjectives, 1e300),
      hi(sim::kNumObjectives, -1e300);
  for (std::size_t i = 0; i < ot.x.size(); ++i)
    for (int m = 0; m < sim::kNumObjectives; ++m) {
      lo[m] = std::min(lo[m], ot.y(i, m));
      hi[m] = std::max(hi[m], ot.y(i, m));
    }
  std::vector<pareto::Point> pts;
  for (std::size_t i = 0; i < ot.x.size(); ++i) {
    pareto::Point p(sim::kNumObjectives);
    for (int m = 0; m < sim::kNumObjectives; ++m)
      p[m] = (ot.y(i, m) - lo[m]) / std::max(hi[m] - lo[m], 1e-12);
    pts.push_back(p);
  }
  const std::vector<pareto::Point> front = pareto::paretoFilter(pts);
  const pareto::Point ref(sim::kNumObjectives, 1.1);
  v["pareto.front_size"] = static_cast<double>(front.size());
  {
    ScopedSpan sp("core.mc_eipv", root.id(), trace_id);
    const auto z = core::drawStdNormals(
        static_cast<std::size_t>(spec.opts.mc_samples), sim::kNumObjectives,
        crng);
    double sink = 0.0;
    const double t0 = now();
    for (const gp::MultiPosterior& p : posts) {
      gp::Vec mu(sim::kNumObjectives);
      linalg::Matrix cov(sim::kNumObjectives, sim::kNumObjectives);
      for (int m = 0; m < sim::kNumObjectives; ++m) {
        const double rm = std::max(hi[m] - lo[m], 1e-12);
        mu[m] = (p.mean[m] - lo[m]) / rm;
        for (int m2 = 0; m2 < sim::kNumObjectives; ++m2)
          cov(m, m2) = p.cov(m, m2) / (rm * std::max(hi[m2] - lo[m2], 1e-12));
      }
      sink += core::mcEipv(mu, cov, front, ref, z);
    }
    v["core.mc_eipv_us"] =
        (now() - t0) * 1e6 / static_cast<double>(std::max<std::size_t>(posts.size(), 1));
    v["probe.eipv_sum"] = sink;
  }
  {
    ScopedSpan sp("pareto.hypervolume", root.id(), trace_id);
    double sink = 0.0;
    const int reps = 200;
    const double t0 = now();
    for (int r = 0; r < reps; ++r) sink += pareto::hypervolume(front, ref);
    v["pareto.hypervolume_us"] = (now() - t0) * 1e6 / reps;
    v["probe.hv"] = sink / reps;
  }

  // Checkpoint save/load: the daemon's own journal when there is one, else
  // a journal assembled from this campaign's state at its final size.
  {
    ScopedSpan sp("core.checkpoint", root.id(), trace_id);
    core::CheckpointState st;
    bool have = !rec.journal.empty() &&
                core::loadCheckpointAny(rec.journal, &st, nullptr);
    if (!have) {
      st.t = static_cast<int>(rec.result.iterations.size());
      st.next_round = rec.result.rounds_run;
      for (const core::SampleRecord& s : rec.result.cs)
        st.cs.push_back({s.config, static_cast<int>(s.fidelity), s.report});
      for (const core::IterationLog& it : rec.result.iterations)
        st.iterations.push_back({it.iteration, static_cast<int>(it.fidelity),
                                 it.config, it.peipv, it.round});
      for (int f = 0; f < sim::kNumFidelities; ++f) {
        // Data rows straight from the rebuilt observations.
        for (std::size_t i = 0; i < obs[f].x.size(); ++i) {
          st.data[f].configs.push_back(i);
          std::vector<double> y(sim::kNumObjectives);
          for (int m = 0; m < sim::kNumObjectives; ++m) y[m] = obs[f].y(i, m);
          st.data[f].y.push_back(y);
        }
      }
      st.surrogate_hypers = sur.hyperState();
      for (const std::size_t b : sur.committedBaseCounts())
        st.surrogate_base.push_back(b);
      have = true;
    }
    const std::string path = (fs::path(scratch) / "probe.ckpt").string();
    std::vector<double> save_ms, load_ms;
    for (int r = 0; r < 5; ++r) {
      fs::remove(path);
      double t0 = now();
      core::saveCheckpointFramed(path, st);
      save_ms.push_back((now() - t0) * 1e3);
      core::CheckpointState back;
      t0 = now();
      core::loadCheckpointAny(path, &back, nullptr);
      load_ms.push_back((now() - t0) * 1e3);
    }
    v["core.checkpoint_save_ms"] = medianOf(save_ms);
    v["core.checkpoint_load_ms"] = medianOf(load_ms);
    v["core.checkpoint_kb"] = static_cast<double>(fs::file_size(path)) / 1024.0;
  }
  return v;
}

/// Server layer on workloads that bypass it: a one-campaign daemon on the
/// workload's first kernel, driven over the same TCP protocol (one
/// subscribed tenant connection, one polling connection).
std::map<std::string, double> probeServer(const Args& a,
                                          std::vector<PollSample>* polls) {
  std::map<std::string, double> v;
  server::OptimizationServer srv(
      daemonOptions((fs::path(a.scratch) / "probe_journal").string()));
  srv.start();
  const int port = srv.listenTcp(0);
  ScopedSpan root("probe.server", -1, 0);
  server::CampaignSpec s = daemonSpecs(a.seed, 1)[0].spec;
  s.benchmark = workloadKernels(a.workload, a.seed)[0];
  LineConn tenant(port), poller(port);
  tenant.send("{\"op\":\"subscribe\"}");
  tenant.readLine();
  double t0 = now();
  tenant.send(submitLine(s));
  bool replied = false;
  std::vector<double> waits;
  double last = -1.0;
  while (true) {
    const std::string line = tenant.readLine();
    const double t = now();
    util::Json ev;
    if (!util::parseJson(line, &ev)) continue;
    if (!replied && ev.find("ok") != nullptr) {
      replied = true;
      v["server.submit_ms"] = (t - t0) * 1e3;
      continue;
    }
    if (ev.strOr("id", "") != s.id) continue;
    if (ev.strOr("event", "") == "round") {
      if (last >= 0.0) waits.push_back(t - last - ev.numOr("step_seconds", 0.0));
      last = t;
    } else if (ev.strOr("event", "") == "state" && replied) {
      break;
    }
  }
  // The same open-loop read schedule as daemon_tenants' poller (one
  // request every 20 ms, alternating status and metrics), 220 requests:
  // enough for a p95 with 10 samples beyond it.
  const double p0 = now();
  for (int i = 0; i < 220; ++i) {
    PollSample p;
    p.op = i % 2 == 0 ? "status" : "metrics";
    p.due = p0 + 0.02 * i;
    const double wait = p.due - now();
    if (wait > 0)
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    p.sent = now();
    poller.send(p.op == "status"
                    ? "{\"op\":\"status\",\"id\":\"" + s.id + "\"}"
                    : std::string("{\"op\":\"metrics\"}"));
    util::Json j;
    p.ok = util::parseJson(poller.readLine(), &j) && j.find("ok") != nullptr &&
           j.find("ok")->b;
    p.done = now();
    polls->push_back(p);
  }
  srv.stop();
  // One campaign's rounds are too few for a p95 with 10 samples beyond it:
  // their largest wait, an upper bound on the p95, stands in for it.
  v["server.queue_wait_s_p95"] =
      waits.empty() ? 0.0 : *std::max_element(waits.begin(), waits.end());
  return v;
}

// -------------------------------------------------------------- Output ----

void putCampaign(std::string& s, const CampaignRecord& r, Oracles& oracles) {
  const server::CampaignSpec& sp = r.gen.spec;
  s += "{\"index\":";
  util::putInt(s, r.gen.index);
  s += ",\"id\":";
  util::putString(s, sp.id);
  s += ",\"benchmark\":";
  util::putString(s, sp.benchmark);
  s += ",\"seed\":";
  util::putInt(s, static_cast<long long>(sp.opts.seed));
  s += ",\"sim_seed\":";
  util::putInt(s, static_cast<long long>(sp.sim_seed));
  s += ",\"async\":";
  s += sp.opts.async ? "true" : "false";
  s += ",\"batch\":";
  util::putInt(s, sp.opts.batch_size);
  s += ",\"workers\":";
  util::putInt(s, r.farm_width);
  s += ",\"refit_every\":";
  util::putInt(s, sp.opts.refit_every);
  s += ",\"n_iter\":";
  util::putInt(s, sp.opts.n_iter);
  s += ",\"max_candidates\":";
  util::putInt(s, sp.opts.max_candidates);
  s += ",\"repeat\":";
  s += r.gen.repeat ? "true" : "false";
  s += ",\"tenant\":";
  util::putInt(s, r.tenant);
  s += ",\"traced\":";
  s += r.traced ? "true" : "false";
  s += ",\"state\":";
  util::putString(s, r.state);
  s += ",\"submit_ms\":";
  util::putDouble(s, r.submit_ms);
  s += ",\"campaign_s\":";
  util::putDouble(s, r.campaign_s);
  s += ",\"t_start\":";
  util::putDouble(s, r.t_start);
  s += ",\"t_end\":";
  util::putDouble(s, r.t_end);
  s += ",\"round_s\":";
  util::putVec(s, r.round_s);
  s += ",\"step_s\":";
  util::putVec(s, r.step_s);
  s += ",\"queue_wait_s\":";
  util::putVec(s, r.queue_wait_s);
  s += ",\"fallback_levels\":";
  util::putInt(s, r.fallback_levels);
  s += ",\"coalesced\":";
  util::putInt(s, static_cast<long long>(r.coalesced));
  if (r.has_result) {
    const core::OptimizeResult& res = r.result;
    s += ",\"result\":{\"tool_s\":";
    util::putDouble(s, res.tool_seconds);
    s += ",\"wall_s\":";
    util::putDouble(s, res.wall_seconds);
    s += ",\"tool_runs\":";
    util::putInt(s, res.tool_runs);
    s += ",\"cache_hits\":";
    util::putInt(s, res.cache_hits);
    s += ",\"attempts\":";
    util::putInt(s, res.attempts);
    s += ",\"backoff_s\":";
    util::putDouble(s, res.backoff_seconds);
    s += ",\"proposals\":";
    util::putInt(s, static_cast<long long>(res.iterations.size()));
    s += ",\"cs_size\":";
    util::putInt(s, static_cast<long long>(res.cs.size()));
    s += ",\"rounds\":";
    util::putInt(s, res.rounds_run);
    s += ",\"digest\":";
    util::putString(s, hexDigest(csDigest(res)));
    if (r.prefix_digest != 0) {
      s += ",\"prefix_digest\":";
      util::putString(s, hexDigest(r.prefix_digest));
    }
    // ADRS and from-scratch flow charge along the ordered CS (computed
    // here, after the timed window).
    exp::BenchmarkContext& ctx = oracles.get(sp.benchmark, sp.sim_seed);
    std::vector<std::size_t> prefix;
    std::vector<double> adrs_curve, charge_curve;
    double charge = 0.0;
    for (const core::SampleRecord& rec : res.cs) {
      prefix.push_back(rec.config);
      charge += ctx.sim()
                    .run(ctx.space().config(rec.config), rec.fidelity)
                    .tool_seconds;
      charge_curve.push_back(charge);
      adrs_curve.push_back(ctx.adrsOf(prefix));
    }
    s += ",\"adrs\":";
    util::putDoubleOrNull(s, adrs_curve.empty() ? NAN : adrs_curve.back());
    s += ",\"adrs_curve\":";
    util::putVecOrNull(s, adrs_curve);
    s += ",\"charge_curve_s\":";
    util::putVec(s, charge_curve);
    s += "}";
  }
  s += "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_workloads --workload W --seed N --seconds S "
               "--trace 0|1 --out FILE --scratch DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string val = argv[i + 1];
    if (k == "--workload") a.workload = val;
    else if (k == "--seed") a.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(val.c_str());
    else if (k == "--trace") a.trace = val == "1";
    else if (k == "--out") a.out = val;
    else if (k == "--scratch") a.scratch = val;
    else return usage();
  }
  if ((a.workload != "paper_seq" && a.workload != "async_stragglers" &&
       a.workload != "daemon_tenants") ||
      a.out.empty() || a.scratch.empty() || a.seconds <= 0.0)
    return usage();
  fs::create_directories(a.scratch);
  const bool daemon = a.workload == "daemon_tenants";

  try {
    // Set-up is timed five times before the run and five times after it:
    // one burst samples a single moment of the host, whose speed drifts.
    std::vector<double> setup_s, space_build_s;
    const auto timeSetup = [&] {
      for (int r = 0; r < 5; ++r) setup_s.push_back(setupOnce(a, &space_build_s));
    };
    timeSetup();

    // The daemon's live telemetry plane is part of that workload (the
    // poller reads it); CLI campaigns run with it off unless traced.
    obs::metrics().setEnabled(daemon);
    const double window = a.trace ? a.seconds / 2.0 : a.seconds;
    const double run_t0 = now();
    std::vector<CampaignRecord> campaigns;
    DaemonRun drun;
    if (daemon) {
      drun = runDaemonWorkload(
          a, window, false, (fs::path(a.scratch) / "journal").string());
      campaigns = std::move(drun.campaigns);
    } else {
      campaigns = runCliWorkload(a, window, false);
    }
    const double run_s = now() - run_t0;
    // CLI memory does not grow across campaigns: read it after the window.
    const double peak_rss_mb = daemon ? drun.rss_mb : peakRssMb();
    timeSetup();

    std::vector<CampaignRecord> traced;
    DaemonRun tdrun;
    obs::MetricsSnapshot phases;
    std::vector<std::map<std::string, double>> probes;
    if (a.trace) {
      obs::metrics().clear();
      obs::metrics().setEnabled(true);
      g_spans.setOn(true);
      if (daemon) {
        tdrun = runDaemonWorkload(
            a, window, true, (fs::path(a.scratch) / "journal_traced").string());
        traced = std::move(tdrun.campaigns);
      } else {
        traced = runCliWorkload(a, window, true);
      }
      phases = obs::metrics().snapshot();
      obs::metrics().setEnabled(false);
      // Probe the last traced campaign of each kernel.
      std::map<std::string, std::vector<const CampaignRecord*>> by_kernel;
      for (const CampaignRecord& r : traced)
        if (r.has_result) by_kernel[r.gen.spec.benchmark].push_back(&r);
      for (const auto& [k, recs] : by_kernel) {
        probes.push_back(probeCampaign(*recs.back(), a.scratch));
        probes.back()["probe.index"] = recs.back()->gen.index;
      }
      if (!daemon) probes.push_back(probeServer(a, &tdrun.polls));
      g_spans.setOn(false);
    }

    std::optional<core::OptimizeResult> replay;
    // CLI workloads are deterministic per spec: replay the first campaign's
    // opening steps and let run.py compare the digests.
    if (!daemon && !campaigns.empty())
      replay = replayPrefix(a, campaigns.front().gen);

    Oracles oracles;
    std::string s = "{\"workload\":";
    util::putString(s, a.workload);
    s += ",\"seed\":";
    util::putInt(s, static_cast<long long>(a.seed));
    s += ",\"seconds\":";
    util::putDouble(s, a.seconds);
    s += ",\"window_s\":";
    util::putDouble(s, window);
    s += ",\"run_s\":";
    util::putDouble(s, run_s);
    s += ",\"trace\":";
    s += a.trace ? "true" : "false";
    s += ",\"build_type\":";
    util::putString(s, PERFBENCH_BUILD_TYPE);
    s += ",\"compiler\":";
    util::putString(s, PERFBENCH_COMPILER);
    s += ",\"nproc\":";
    util::putInt(s, static_cast<long long>(std::thread::hardware_concurrency()));
    s += ",\"setup_s\":";
    util::putVec(s, setup_s);
    s += ",\"space_build_s\":";
    util::putVec(s, space_build_s);
    if (replay) {
      s += ",\"replay\":{\"index\":";
      util::putInt(s, campaigns.front().gen.index);
      s += ",\"steps\":";
      util::putInt(s, static_cast<long long>(kReplaySteps));
      s += ",\"picks\":";
      util::putInt(s, static_cast<long long>(replay->iterations.size()));
      s += ",\"digest\":";
      util::putString(s, hexDigest(picksDigest(*replay)));
      s += "}";
    }
    s += ",\"peak_rss_mb\":";
    util::putDouble(s, peak_rss_mb);
    const auto putRun = [&](const char* key,
                            const std::vector<CampaignRecord>& cs,
                            const DaemonRun& dr) {
      s += ",\"";
      s += key;
      s += "\":{\"campaigns\":[";
      for (std::size_t i = 0; i < cs.size(); ++i) {
        if (i > 0) s += ",";
        putCampaign(s, cs[i], oracles);
      }
      s += "],\"polls\":[";
      for (std::size_t i = 0; i < dr.polls.size(); ++i) {
        const PollSample& p = dr.polls[i];
        if (i > 0) s += ",";
        s += "{\"op\":";
        util::putString(s, p.op);
        s += ",\"due\":";
        util::putDouble(s, p.due);
        s += ",\"sent\":";
        util::putDouble(s, p.sent);
        s += ",\"done\":";
        util::putDouble(s, p.done);
        s += ",\"ok\":";
        s += p.ok ? "true" : "false";
        s += "}";
      }
      s += "]}";
    };
    putRun("run", campaigns, drun);
    if (a.trace) {
      putRun("traced", traced, tdrun);
      s += ",\"probes\":[";
      for (std::size_t i = 0; i < probes.size(); ++i) {
        if (i > 0) s += ",";
        putProbe(s, probes[i]);
      }
      s += "],\"phases\":{";
      bool first = true;
      for (const obs::MetricPoint& p : phases) {
        if (p.name.rfind("phase.", 0) != 0) continue;
        if (!first) s += ",";
        first = false;
        util::putString(s, p.name);
        s += ":{\"count\":";
        util::putInt(s, static_cast<long long>(p.count));
        s += ",\"sum\":";
        util::putDouble(s, p.sum);
        s += "}";
      }
      s += "},\"spans\":";
      s += g_spans.json();
    }
    s += "}\n";
    if (!util::writeTextTo(a.out, s)) {
      std::fprintf(stderr, "perfbench_workloads: cannot write %s\n",
                   a.out.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workloads: %s\n", e.what());
    return 1;
  }
  return 0;
}
