#!/usr/bin/env python3
"""Repository benchmark: host time and the paper's tool-time axis.

    python3 perfbench/run.py --workload paper_seq|async_stragglers|daemon_tenants
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/ (which compiles
the library under src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs the workload runner, checks its outputs, and
prints a table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run. A full report with provenance, per-metric median, quartiles
and sample counts, span self times and tracing overhead is written under
the build directory's results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave the checkout as found
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_seq", "async_stragglers", "daemon_tenants")
# ADRS a campaign must reach for tool_h_to_adrs, per workload.
ADRS_TARGET = {"paper_seq": 0.10, "async_stragglers": 0.10,
               "daemon_tenants": 0.15}
RUNNER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then an incremental build; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to "
                           "perfbench/; run from a source checkout")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bdir, "perfbench_workloads")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_workload(exe, args, bdir):
    tag = "%s-%d-%d" % (args.workload, args.seed, args.trace)
    results = os.path.join(bdir, "results")
    scratch = os.path.join(bdir, "scratch", "%s-%d" % (tag, os.getpid()))
    os.makedirs(results, exist_ok=True)
    raw_path = os.path.join(results, "raw-%s.json" % tag)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", raw_path, "--scratch", scratch]
    try:
        subprocess.run(cmd, check=True, timeout=RUNNER_TIMEOUT_S,
                       stdout=sys.stderr, stderr=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(raw_path) as f:
        return json.load(f), results, tag


# ------------------------------------------------------------- metrics ----

def done_campaigns(run):
    return [c for c in run["campaigns"]
            if c["state"] == "done" and "result" in c]


def pooled(campaigns, key):
    return [x for c in campaigns for x in c[key]]


def tail(values, p, what):
    """The p-th percentile of `values`; raises when the samples are too few
    for it."""
    v = stats.tail_percentile(values, p)
    if v is None:
        raise RuntimeError("%d %s are too few for a p%d with %d beyond it"
                           % (len(values), what, p, stats.MIN_BEYOND))
    return v


def charge_to_target(c, target):
    r = c["result"]
    return stats.charge_to_target(r["charge_curve_s"], r["adrs_curve"], target)


# The end-to-end metrics a caller sees, measured untraced: (name, unit).
END_TO_END = (
    ("campaign_s_p50", "s"), ("campaigns_per_min", "1/min"),
    ("round_s_p50", "s"), ("round_s_p90", "s"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)


def end_to_end(raw, run):
    """Host-time metrics of one untraced window: name -> (value, unit,
    samples or a note)."""
    done = done_campaigns(run)
    if not done:
        raise RuntimeError("no campaign completed inside the window")
    m = {}
    cs = [c["campaign_s"] for c in done]
    m["campaign_s_p50"] = (stats.median(cs), "s", cs)
    span = max(c["t_end"] for c in done) - min(c["t_start"] for c in done)
    m["campaigns_per_min"] = (60.0 * len(done) / span, "1/min",
                              "%d campaigns in %.2f s" % (len(done), span))
    rounds = pooled(done, "round_s")
    m["round_s_p50"] = (stats.median(rounds), "s", rounds)
    m["round_s_p90"] = (tail(rounds, 90, "rounds"), "s",
                        "p90 of %d rounds" % len(rounds))
    m["setup_s"] = (stats.median(raw["setup_s"]), "s", raw["setup_s"])
    m["peak_rss_mb"] = (raw["peak_rss_mb"], "MB",
                        "200th daemon campaign" if raw["workload"] ==
                        "daemon_tenants" else "end of the window")
    return m


def paper_axis(raw, campaigns):
    """The paper's Table I axis over distinct campaigns: name -> (value,
    unit, samples or a note). Deterministic per seed on paper_seq and
    async_stragglers, so a change is compared seed by seed."""
    target = ADRS_TARGET[raw["workload"]]
    m = {}
    tool_h = [c["result"]["tool_s"] / 3600.0 for c in campaigns]
    m["tool_h_per_campaign"] = (stats.median(tool_h), "h", tool_h)
    to_target = [charge_to_target(c, target) for c in campaigns]
    censored = sum(1 for _, cen in to_target if cen)
    m["tool_h_to_adrs"] = (stats.median([x / 3600.0 for x, _ in to_target]),
                           "h", "target ADRS %.2f, %d of %d censored"
                           % (target, censored, len(campaigns)))
    m["tool_h_to_adrs_censored"] = (float(censored), "count",
                                    "of %d campaigns" % len(campaigns))
    wall_h = [c["result"]["wall_s"] / 3600.0 for c in campaigns]
    m["farm_wall_h"] = (stats.median(wall_h), "h", wall_h)
    adrs = [c["result"]["adrs"] for c in campaigns]
    m["adrs"] = (sum(adrs) / len(adrs), "ratio", adrs)
    return m


def distinct_done(raw):
    """Done campaigns of every window, one per spec index."""
    seen = {}
    for key in ("run", "traced"):
        if key in raw:
            for c in done_campaigns(raw[key]):
                seen.setdefault(c["index"], c)
    return [seen[k] for k in sorted(seen)]


def failures(run):
    """(attempted, failed): campaigns submitted plus poll requests, and
    those not ending done plus requests answered ok:false or shed."""
    attempted = len(run["campaigns"]) + len(run["polls"])
    failed = sum(1 for c in run["campaigns"] if c["state"] != "done")
    failed += sum(1 for p in run["polls"] if not p["ok"])
    return attempted, failed


def poll_metrics(polls):
    """Open-loop daemon reads: latency from the due instant, generator
    lateness, and per-op service time."""
    if not polls:
        return {}
    lat, late = stats.open_loop_latencies([p["due"] for p in polls],
                                          [p["sent"] for p in polls],
                                          [p["done"] for p in polls])
    lat = [x * 1e3 for x in lat]
    late = [x * 1e3 for x in late]
    out = {"poll_ms_p50": stats.median(lat),
           "poll_ms_p95": tail(lat, 95, "polls"),
           "poll_lateness_ms_p95": tail(late, 95, "polls")}
    for op in ("status", "metrics"):
        svc = [(p["done"] - p["sent"]) * 1e3 for p in polls if p["op"] == op]
        if svc:
            out["server.%s_ms" % op] = stats.median(svc)
    return out


def span_self_times(spans):
    """Per span name: total duration and self time (duration minus the part
    covered by child spans), in seconds."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        dur = max(0.0, s["end"] - s["start"])
        covered, last = 0.0, s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda x: x["start"]):
            lo, hi = max(c["start"], last), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                last = hi
        e = out.setdefault(s["name"], {"count": 0, "total_s": 0.0,
                                       "self_s": 0.0})
        e["count"] += 1
        e["total_s"] += dur
        e["self_s"] += dur - covered
    return out


def call_counts(c):
    """Calls per campaign derived from its options: one MLE fit every
    refit_every rounds, three scans (one per fidelity) per round, one
    mcEipv per scanned candidate, one hypervolume per round."""
    rounds = max(len(c["step_s"]) - 1, 0)
    fits = rounds / max(c["refit_every"], 1)
    return {"gp_fit": fits, "scan_predict": 3 * rounds,
            "scan_eipv": 3 * rounds * c["max_candidates"],
            "hypervolume": rounds}


def per_layer(raw):
    traced = raw["traced"]
    done = done_campaigns(traced)
    if not done:
        raise RuntimeError("no traced campaign completed")
    probes = raw["probes"]
    by_index = {c["index"]: c for c in done}

    def probe_median(key):
        vals = [p[key] for p in probes if p.get(key) is not None]
        return stats.median(vals) if vals else 0.0

    m = {}
    m["hls.space_build_s"] = stats.median(raw["space_build_s"])
    m["sim.run_us"] = probe_median("sim.run_us")
    m["sim.tool_runs"] = sum(c["result"]["tool_runs"] for c in done) / len(done)
    for key in ("gp.fit_s", "gp.fit_iters", "gp.rebuild_s", "gp.append_us",
                "gp.predict_batch_ms", "core.mc_eipv_us",
                "core.checkpoint_save_ms", "core.checkpoint_load_ms",
                "core.checkpoint_kb", "pareto.hypervolume_us"):
        m[key] = probe_median(key)
    m["gp.fallback_levels"] = (
        sum(max(c["fallback_levels"], 0) for c in done) / len(done))
    steps = pooled(done, "step_s")
    m["core.step_s_p50"] = stats.median(steps)
    m["core.step_s_p90"] = tail(steps, 90, "steps")

    runs = sum(c["result"]["tool_runs"] for c in done)
    hits = sum(c["result"]["cache_hits"] for c in done)
    m["runtime.cache_lookups"] = float(runs + hits)
    m["runtime.cache_hit_rate"] = hits / (runs + hits) if runs + hits else 0.0
    m["runtime.coalesced"] = float(sum(c["coalesced"] for c in done))
    m["runtime.attempts_per_run"] = (
        sum(c["result"]["attempts"] for c in done) / runs if runs else 0.0)
    busy = sum(c["result"]["tool_s"] + c["result"]["backoff_s"] for c in done)
    cap = sum(c["workers"] * c["result"]["wall_s"] for c in done)
    m["runtime.farm_idle_frac"] = 1.0 - busy / cap if cap > 0 else 0.0

    # Server layer: the workload's own daemon, or the probe daemon (whose
    # polls the runner files under the traced window).
    if raw["workload"] == "daemon_tenants":
        m["server.submit_ms"] = stats.median([c["submit_ms"] for c in done])
        m["server.queue_wait_s_p95"] = tail(pooled(done, "queue_wait_s"), 95,
                                            "round gaps")
    else:
        m["server.submit_ms"] = probe_median("server.submit_ms")
        m["server.queue_wait_s_p95"] = probe_median("server.queue_wait_s_p95")
    m.update(poll_metrics(traced["polls"]))
    attempted, failed = failures(traced)
    m["failed_frac"] = failed / attempted
    for k, (v, _, _) in paper_axis(raw, distinct_done(raw)).items():
        m[k] = v

    # Layer shares: probe time x derived call count over step time, per
    # probed campaign; cross-checked against the program's phase profile.
    step_total = sum(sum(c["step_s"]) for c in done)
    shares = {"gp_fit": [], "scan_predict": [], "scan_eipv": [],
              "hypervolume": []}
    modeled, modeled_total = 0.0, 0.0
    for p in probes:
        c = by_index.get(int(p.get("probe.index", -1)))
        if c is None or p.get("gp.fit_s") is None:
            continue
        n = call_counts(c)
        secs = {"gp_fit": p["gp.fit_s"] * n["gp_fit"],
                "scan_predict": p["gp.predict_batch_ms"] / 1e3 * n["scan_predict"],
                "scan_eipv": p["core.mc_eipv_us"] / 1e6 * n["scan_eipv"],
                "hypervolume": p["pareto.hypervolume_us"] / 1e6 * n["hypervolume"]}
        total = sum(c["step_s"])
        for k, v in secs.items():
            shares[k].append(v / total if total > 0 else 0.0)
        modeled += sum(secs.values())
        modeled_total += total
    for k, v in shares.items():
        m["share.%s" % k] = stats.median(v) if v else 0.0
    phases = raw.get("phases", {})
    phase_sum = {k: phases.get("phase.%s.seconds" % k, {}).get("sum", 0.0)
                 for k in shares}
    for k, v in phase_sum.items():
        m["phase.share_%s" % k] = v / step_total if step_total > 0 else 0.0
    # Coverage: probe-modeled layer time against the same layers' measured
    # phase time (1.0 = the probes and derived counts explain it all).
    measured = sum(phase_sum.values()) * (
        modeled_total / step_total if step_total > 0 else 0.0)
    m["probe.coverage"] = modeled / measured if measured > 0 else 0.0

    # Tracing overhead: traced against untraced window, same specs.
    base = done_campaigns(raw["run"])
    if raw["workload"] == "daemon_tenants":
        b = stats.median(pooled(base, "round_s")) if base else 0.0
        t = stats.median(pooled(done, "round_s"))
        m["trace.overhead_frac"] = t / b - 1.0 if b > 0 else 0.0
    else:
        base_by = {c["index"]: c for c in base}
        ratios = [c["campaign_s"] / base_by[c["index"]]["campaign_s"] - 1.0
                  for c in done if c["index"] in base_by]
        m["trace.overhead_frac"] = stats.median(ratios) if ratios else 0.0
    m["trace.spans"] = float(len(raw.get("spans", [])))
    return m


# Per-layer metrics of the traced run: (name, unit). Layer = src/ module.
PER_LAYER = (
    ("hls.space_build_s", "s"),
    ("sim.run_us", "us"), ("sim.tool_runs", "count"),
    ("gp.fit_s", "s"), ("gp.fit_iters", "count"), ("gp.rebuild_s", "s"),
    ("gp.append_us", "us"), ("gp.predict_batch_ms", "ms"),
    ("gp.fallback_levels", "count"),
    ("core.mc_eipv_us", "us"), ("core.step_s_p50", "s"),
    ("core.step_s_p90", "s"), ("core.checkpoint_save_ms", "ms"),
    ("core.checkpoint_load_ms", "ms"), ("core.checkpoint_kb", "KB"),
    ("pareto.hypervolume_us", "us"),
    ("runtime.cache_hit_rate", "ratio"), ("runtime.cache_lookups", "count"),
    ("runtime.coalesced", "count"), ("runtime.attempts_per_run", "ratio"),
    ("runtime.farm_idle_frac", "ratio"),
    ("server.submit_ms", "ms"), ("server.queue_wait_s_p95", "s"),
    ("server.status_ms", "ms"), ("server.metrics_ms", "ms"),
    ("poll_ms_p50", "ms"), ("poll_ms_p95", "ms"),
    ("poll_lateness_ms_p95", "ms"), ("failed_frac", "ratio"),
    ("adrs", "ratio"), ("tool_h_per_campaign", "h"),
    ("tool_h_to_adrs", "h"), ("tool_h_to_adrs_censored", "count"),
    ("farm_wall_h", "h"),
    ("share.gp_fit", "ratio"), ("share.scan_predict", "ratio"),
    ("share.scan_eipv", "ratio"), ("share.hypervolume", "ratio"),
    ("phase.share_gp_fit", "ratio"), ("phase.share_scan_predict", "ratio"),
    ("phase.share_scan_eipv", "ratio"), ("phase.share_hypervolume", "ratio"),
    ("probe.coverage", "ratio"), ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
)


# -------------------------------------------------------------- checks ----

def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_outputs(raw, bdir, exe):
    """Every campaign done with a finite ADRS, every proposal accounted for
    by a tool run, a cache hit or a coalesced join, and, on the
    deterministic workloads, digests that repeat for the same spec: the
    proposals of the first campaign's opening steps, replayed in the same
    run, and every campaign's CS against earlier runs of the same binary."""
    problems = []
    windows = [("run", raw["run"])]
    if raw["trace"]:
        windows.append(("traced", raw["traced"]))
    for label, run in windows:
        for c in run["campaigns"]:
            if c["state"] != "done" or "result" not in c:
                problems.append("%s %s ended %s" % (label, c["id"], c["state"]))
                continue
            r = c["result"]
            if r["adrs"] is None or not math.isfinite(r["adrs"]):
                problems.append("%s %s has no finite ADRS" % (label, c["id"]))
            if r["tool_runs"] + r["cache_hits"] + c["coalesced"] != r["cs_size"]:
                problems.append(
                    "%s %s: %d evaluations but %d tool runs + %d cache hits"
                    " + %d coalesced" % (label, c["id"], r["cs_size"],
                                         r["tool_runs"], r["cache_hits"],
                                         c["coalesced"]))
    if raw["workload"] == "daemon_tenants":
        return problems
    replay = raw.get("replay")
    if replay is None or replay["picks"] == 0:
        problems.append("no determinism replay (or one without proposals)")
    else:
        for label, run in windows:
            for c in done_campaigns(run):
                if c["index"] != replay["index"]:
                    continue
                got = c["result"].get("prefix_digest")
                if got != replay["digest"]:
                    problems.append(
                        "%s %s: proposals digest after %d steps %s, replay %s"
                        % (label, c["id"], replay["steps"], got,
                           replay["digest"]))
    # Across runs: a ledger of the binary under test (a rebuilt binary
    # starts a new one, so a change that alters trajectories is not held
    # to its parent's digests).
    ledger_path = os.path.join(bdir, "digests.json")
    binary = file_sha256(exe)
    try:
        with open(ledger_path) as f:
            ledger = json.load(f)
    except (OSError, ValueError):
        ledger = {}
    if ledger.get("binary") != binary:
        ledger = {"binary": binary, "digests": {}}
    digests = ledger["digests"]
    for label, run in windows:
        for c in done_campaigns(run):
            key = "%s/%d/%d" % (raw["workload"], raw["seed"], c["index"])
            d = c["result"]["digest"]
            if digests.setdefault(key, d) != d:
                problems.append("%s %s: CS digest %s differs from %s recorded "
                                "for the same seed" % (label, key, d,
                                                       digests[key]))
    with open(ledger_path + ".tmp", "w") as f:
        json.dump(ledger, f, sort_keys=True)
    os.replace(ledger_path + ".tmp", ledger_path)
    return problems


# ---------------------------------------------------------------- main ----

def sample_summary(samples):
    if isinstance(samples, list) and samples:
        return stats.summary(samples)
    return {"note": samples}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    bdir = build_dir()
    try:
        exe = build(bdir)
        raw, results, tag = run_workload(exe, args, bdir)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1

    try:
        e2e = end_to_end(raw, raw["run"])
        layers = per_layer(raw) if raw["trace"] else None
    except RuntimeError as e:
        log("perfbench: %s" % e)
        return 1
    problems = check_outputs(raw, bdir, exe)
    attempted, failed = failures(raw["run"])
    if raw["trace"]:
        t_att, t_fail = failures(raw["traced"])
        attempted += t_att
        failed += t_fail
    report = {
        "provenance": {
            "git_sha": git_sha(), "build_type": raw["build_type"],
            "compiler": raw["compiler"], "nproc": raw["nproc"],
            "workload": raw["workload"], "seed": raw["seed"],
            "seconds": raw["seconds"], "runs": 1, "traced": raw["trace"]},
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "end_to_end": {k: {"value": v, "unit": u, "samples": sample_summary(s)}
                       for k, (v, u, s) in e2e.items()},
    }
    report["paper_axis"] = {
        k: {"value": v, "unit": u, "samples": sample_summary(smp)}
        for k, (v, u, smp) in paper_axis(raw, distinct_done(raw)).items()}
    if raw["trace"]:
        report["per_layer"] = {k: {"value": layers[k], "unit": u}
                               for k, u in PER_LAYER}
        report["span_self_times"] = span_self_times(raw.get("spans", []))
        metrics = report["per_layer"]
        with open(os.path.join(results, "spans-%s.json" % tag), "w") as f:
            json.dump(raw.get("spans", []), f)
    else:
        metrics = {k: {"value": report["end_to_end"][k]["value"], "unit": u}
                   for k, u in END_TO_END}
    with open(os.path.join(results, "report-%s.json" % tag), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    for section in ("end_to_end", "paper_axis"):
        print("# %s (%s, seed %d)" % (section, raw["workload"], raw["seed"]))
        for k, v in sorted(report[section].items()):
            s = v["samples"]
            detail = ("median %.6g  q1 %.6g  q3 %.6g  n %d"
                      % (s["median"], s["q1"], s["q3"], s["n"])
                      if "median" in s else s["note"])
            print("%-24s %14.6g %-6s %s" % (k, v["value"], v["unit"], detail))
    if raw["trace"]:
        print("# per_layer (traced)")
        for k, v in report["per_layer"].items():
            print("%-24s %14.6g %s" % (k, v["value"], v["unit"]))
    for p in problems:
        print("CHECK FAILED: %s" % p)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
