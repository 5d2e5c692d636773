#!/usr/bin/env python3
"""Aggregate benchmark reports and compare two sets of runs.

    python3 perfbench/compare.py aggregate REPORT.json... > SET.json
    python3 perfbench/compare.py compare BASE.json CHANGE.json

`aggregate` folds the per-run reports run.py writes (results/report-*.json
under the build directory) into one summary per workload: provenance, the
seeds and run count, and for every metric the median, quartiles and sample
count across runs. `compare` puts two summaries side by side with the
bounds from BENCHMARK.json and, for runs that share a seed, how many pairs
the change won.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import stats  # noqa: E402


def aggregate(paths):
    """One summary per workload; `claim` stays null until a change states
    one against a baseline."""
    sets = {}
    for path in paths:
        with open(path) as f:
            rep = json.load(f)
        prov = rep["provenance"]
        w = sets.setdefault(prov["workload"], {
            "provenance": {k: prov[k] for k in
                           ("git_sha", "build_type", "compiler", "nproc",
                            "seconds")},
            "runs": 0, "traced_runs": 0, "seeds": [], "correct": True,
            "values": {}})
        w["runs"] += 1
        w["traced_runs"] += 1 if prov["traced"] else 0
        w["seeds"].append(prov["seed"])
        w["correct"] = w["correct"] and rep["correct"]
        # A traced run's end-to-end numbers cover half a window: only its
        # per-layer numbers enter the set.
        sections = ("per_layer",) if prov["traced"] else ("end_to_end",
                                                          "paper_axis")
        for section in sections:
            for name, m in rep.get(section, {}).items():
                if m["value"] is None:
                    continue
                v = w["values"].setdefault(section, {}).setdefault(
                    name, {"unit": m["unit"], "by_seed": {}})
                v["by_seed"][str(prov["seed"])] = m["value"]
    for w in sets.values():
        for section in w["values"].values():
            for m in section.values():
                vals = list(m["by_seed"].values())
                m.update(stats.summary(vals))
                m["iqr_share"] = stats.iqr_share(vals)
    return {"claim": None, "workloads": sets}


def compare(base, change, bench):
    base, change = base["workloads"], change["workloads"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    lines = []
    for workload in sorted(base):
        if workload not in change:
            continue
        windows = (base[workload]["provenance"]["seconds"],
                   change[workload]["provenance"]["seconds"])
        if windows[0] != windows[1]:
            raise ValueError("%s: runs of %g s and %g s measure different "
                             "things" % ((workload,) + windows))
        lines.append("== %s (base %d runs, change %d runs)" % (
            workload, base[workload]["runs"], change[workload]["runs"]))
        for section in ("end_to_end", "paper_axis", "per_layer"):
            b_sec = base[workload]["values"].get(section, {})
            c_sec = change[workload]["values"].get(section, {})
            for name in sorted(b_sec):
                if name not in c_sec:
                    continue
                b, c = b_sec[name], c_sec[name]
                shift = (c["median"] - b["median"]) / abs(b["median"]) \
                    if b["median"] else 0.0
                verdict = ""
                if name in bounds:
                    worse = shift if bounds[name]["better"] == "lower" \
                        else -shift
                    if b["iqr_share"] > bounds[name]["bound"]:
                        verdict = "unresolved (spread %.3f > bound)" % \
                            b["iqr_share"]
                    else:
                        verdict = "REGRESSION" if worse > \
                            bounds[name]["bound"] else "within bound"
                seeds = set(b["by_seed"]) & set(c["by_seed"])
                wins = ""
                if seeds and name in bounds:
                    lower = bounds[name]["better"] == "lower"
                    won = sum(1 for s in seeds
                              if (c["by_seed"][s] < b["by_seed"][s]) == lower
                              and c["by_seed"][s] != b["by_seed"][s])
                    wins = "change won %d/%d paired seeds" % (won, len(seeds))
                lines.append("  %-26s %12.5g -> %12.5g %-6s %+7.1f%%  %s %s"
                             % (name, b["median"], c["median"], b["unit"],
                                100.0 * shift, verdict, wins))
    return "\n".join(lines)


def main(argv):
    if len(argv) >= 2 and argv[0] == "aggregate":
        json.dump(aggregate(argv[1:]), sys.stdout, indent=1, sort_keys=True)
        print()
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        with open(argv[1]) as f:
            base = json.load(f)
        with open(argv[2]) as f:
            change = json.load(f)
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            bench = json.load(f)
        print(compare(base, change, bench))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
