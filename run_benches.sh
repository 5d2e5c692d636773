#!/bin/sh
# Runs every bench binary (the repo's reproduction sweep).
#
#   ./run_benches.sh               run all benches from build/bench; micro
#                                  benches (5 repetitions each, median and
#                                  spread kept) and the JSON-emitting benches
#                                  are merged into the next free
#                                  BENCH_<n>.json (the perf trajectory
#                                  archive; an existing archive is never
#                                  overwritten) with a provenance block: git
#                                  sha, build type, CMMFO_FAST /
#                                  CMMFO_REPEATS, nproc and date
#   ./run_benches.sh --tsan-smoke  build the test binary under ThreadSanitizer
#                                  (CMMFO_SANITIZE=thread) and run the
#                                  parallel-runtime tests under it

if [ "$1" = "--tsan-smoke" ]; then
  set -e
  cmake -B build-tsan -S . -DCMMFO_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j --target cmmfo_tests
  exec ./build-tsan/tests/cmmfo_tests \
    --gtest_filter='ThreadPool*:EvalCache*:Scheduler*:ToolSim*:BatchedOptimizer*:FaultInjection*:SchedulerFaults*:OptimizerFaults*:Backoff*:Checkpoint*:Obs*:Diag*:Server*:Chaos*:Scenario*:Async*'
fi

OUTDIR=bench-out
mkdir -p "$OUTDIR"

for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "====================================================================="
  echo "===== $b"
  echo "====================================================================="
  case "$(basename "$b")" in
    micro_*)
      # Google-benchmark binaries archive their results as JSON so the perf
      # trajectory accumulates across revisions.
      "$b" --benchmark_out="$OUTDIR/$(basename "$b").json" \
           --benchmark_out_format=json \
           --benchmark_repetitions=5 --benchmark_report_aggregates_only=true
      ;;
    server_throughput)
      # The multi-campaign server harness archives its own JSON summary.
      "$b" --out "$OUTDIR/server_throughput.json"
      ;;
    chaos_sweep)
      # Crash-only supervision gate: exits non-zero on any trajectory
      # deviation; counters are archived alongside the perf numbers.
      "$b" --out "$OUTDIR/chaos_sweep.json"
      ;;
    scenario_matrix)
      # Procedural-scenario acceptance gates: pruning-audit soundness,
      # budgeted oracle-ADRS, multi-die fidelity gap, diag capture.
      "$b" --out "$OUTDIR/scenario_matrix.json"
      ;;
    async_scaling)
      # Event-driven pipeline vs the round barrier; archives the
      # speedup/ADRS numbers behind the CMMFO_PERF_GATE CI gate.
      "$b" --out "$OUTDIR/async_scaling.json"
      ;;
    *)
      "$b"
      ;;
  esac
done

# Merge the per-binary JSON files into one archive keyed by binary name,
# written to the next free BENCH_<n>.json with the run's provenance.
if command -v python3 > /dev/null 2>&1 && [ -n "$(ls "$OUTDIR" 2>/dev/null)" ]; then
  python3 - "$OUTDIR" <<'EOF'
import datetime, json, os, re, subprocess, sys
outdir = sys.argv[1]
merged = {}
for f in sorted(os.listdir(outdir)):
    if not f.endswith(".json"):
        continue
    try:
        with open(os.path.join(outdir, f)) as fh:
            merged[f[:-5]] = json.load(fh)
    except (OSError, ValueError):
        pass

def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"

def build_type():
    try:
        with open("build/CMakeCache.txt") as fh:
            for line in fh:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"

merged["provenance"] = {
    "git_sha": git_sha(),
    "build_type": build_type(),
    "CMMFO_FAST": os.environ.get("CMMFO_FAST", ""),
    "CMMFO_REPEATS": os.environ.get("CMMFO_REPEATS", ""),
    "nproc": len(os.sched_getaffinity(0)),
    "micro_repetitions": 5,
    "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"),
}
taken = [int(m.group(1)) for f in os.listdir(".")
         if (m := re.fullmatch(r"BENCH_(\d+)\.json", f))]
dest = "BENCH_%d.json" % (max(taken, default=0) + 1)
with open(dest, "x") as fh:  # "x": never overwrite an archive
    json.dump(merged, fh, indent=1)
print("archived %d bench result set(s) -> %s" % (len(merged) - 1, dest))
EOF
fi
