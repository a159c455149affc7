#!/usr/bin/env python3
"""Runs the benchmark in alternating pairs: a parent revision vs this checkout.

Usage (from the root of a checkout):

    python3 scripts/bench_pairs.py --parent <rev> --workload readers \
        --pairs 10 --seconds 25 [--seed-base 31] [--trace 0|1] \
        [--out BENCH.json]

The parent revision is exported with `git archive` into
.bench_build/pairs/<sha>/ (a plain snapshot: no worktree is registered in
.git); this checkout is the working tree as it stands, uncommitted edits
included. Both sides run `perfbench/run.py` from their own root, so each
builds its own engine into its own `.bench_build/perfbench`.

Pair i uses seed `seed-base + i` on both sides, and the side that runs
first alternates from pair to pair, so drift of the host (thermal, other
tenants) falls on both sides alike. Every result line is kept. For every
metric the output records each side's median and quartiles, and the
number of pairs the change won, lost and tied (by the metric's direction
in BENCHMARK.json).

Every end-to-end metric with a `bound` in BENCHMARK.json also gets a
no-regression verdict:

    ok          the change median is worse than the parent median by no
                more than the bound (a fraction of the parent median)
    worse       it is worse by more than the bound
    unresolved  the parent's own spread, (q3 - q1) / median, exceeds the
                bound, so the runs cannot tell

A metric on which every change run beats every parent run is `ok` even
when the spread is wide. The output also sums each side's failed and
attempted operations, gives each side's failed-op share (failed /
attempted; compare shares, not counts, since the sides attempt different
numbers of operations), and records whether every run reported itself
correct.
BENCHMARK.json is only read.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export_parent(rev):
    """Exports `rev` into the build tree once; returns its root."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest = ROOT / ".bench_build" / "pairs" / sha
    if not (dest / "perfbench" / "run.py").is_file():
        shutil.rmtree(dest, ignore_errors=True)
        dest.mkdir(parents=True)
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT,
                                 check=True, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive,
                       check=True)
    return sha, dest


def run_side(root, workload, seed, seconds, trace):
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each side builds under its own root
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    last = proc.stdout.rstrip("\n").rsplit("\n", 1)[-1]
    if proc.returncode != 0 or not last.startswith("{"):
        sys.exit(f"bench_pairs: run failed in {root} (seed {seed})")
    return json.loads(last)


def benchmark_spec():
    """Returns ({metric: "higher"|"lower"}, {end-to-end metric: bound})."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    bounds = {m["name"]: m["bound"]
              for m in spec.get("end_to_end", []) if "bound" in m}
    return better, bounds


def spread(values):
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent, change, higher, bound):
    """The no-regression verdict for one end-to-end metric (see above)."""
    if (min(change) > max(parent)) if higher else (max(change) < min(parent)):
        return "ok"
    p = spread(parent)
    median = p["median"]

    def relative(x):
        if median != 0:
            return x / abs(median)
        return 0.0 if x == 0 else math.copysign(math.inf, x)

    if relative(p["q3"] - p["q1"]) > bound:
        return "unresolved"
    c = spread(change)["median"]
    worse_by = relative(median - c if higher else c - median)
    return "worse" if worse_by > bound else "ok"


def summarize(runs, pairs):
    better, bounds = benchmark_spec()
    by_side = {"parent": {}, "change": {}}
    for run in runs:
        for name, m in run["result"]["metrics"].items():
            by_side[run["side"]].setdefault(name, {})[run["pair"]] = m["value"]
    summary = {}
    for name, parent in sorted(by_side["parent"].items()):
        change = by_side["change"].get(name, {})
        both = [i for i in range(pairs) if i in parent and i in change]
        if not both:
            continue
        entry = {"parent": spread([parent[i] for i in both]),
                 "change": spread([change[i] for i in both])}
        if name in better:
            higher = better[name] == "higher"

            def beats(a, b):
                return a > b if higher else a < b

            entry["better"] = better[name]
            entry["wins"] = sum(beats(change[i], parent[i]) for i in both)
            entry["losses"] = sum(beats(parent[i], change[i]) for i in both)
            entry["ties"] = len(both) - entry["wins"] - entry["losses"]
        if name in bounds and name in better:
            entry["bound"] = bounds[name]
            entry["verdict"] = verdict([parent[i] for i in both],
                                       [change[i] for i in both],
                                       better[name] == "higher", bounds[name])
        summary[name] = entry
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="BENCH.json")
    args = parser.parse_args()
    if args.pairs < 1:
        sys.exit("bench_pairs: --pairs must be at least 1")

    parent_sha, parent_root = export_parent(args.parent)
    sides = {"parent": parent_root, "change": ROOT}
    runs = []
    for pair in range(args.pairs):
        seed = args.seed_base + pair
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for position, side in enumerate(order):
            result = run_side(sides[side], args.workload, seed, args.seconds,
                              args.trace)
            runs.append({"pair": pair, "seed": seed, "side": side,
                         "position": position, "result": result})
            ops = result["metrics"].get("ops_per_s", {}).get("value")
            print(f"pair {pair} seed {seed} {side}: ops_per_s={ops}",
                  file=sys.stderr)

    out = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "pairs": args.pairs,
        "parent": parent_sha,
        "change": git("rev-parse", "HEAD") + (
            "+dirty" if git("status", "--porcelain", "--untracked-files=no")
            else ""),
        "runs": runs,
        "failed": {side: sum(r["result"].get("failed", 0)
                             for r in runs if r["side"] == side)
                   for side in ("parent", "change")},
        "attempted": {side: sum(r["result"].get("attempted", 0)
                                for r in runs if r["side"] == side)
                      for side in ("parent", "change")},
        "all_correct": all(r["result"].get("correct", False) for r in runs),
        "summary": summarize(runs, args.pairs),
    }
    out["failed_share"] = {
        side: out["failed"][side] / out["attempted"][side]
        if out["attempted"][side] else 0.0
        for side in ("parent", "change")}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    for name, s in out["summary"].items():
        if "verdict" not in s:
            continue
        print(f"{name}: parent {s['parent']['median']:.4g} "
              f"[{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}]  "
              f"change {s['change']['median']:.4g} "
              f"[{s['change']['q1']:.4g}, {s['change']['q3']:.4g}]  "
              f"wins/losses/ties {s['wins']}/{s['losses']}/{s['ties']}  "
              f"bound {s['bound']:g}  {s['verdict']}")
    print(f"failed: parent {out['failed']['parent']} "
          f"(share {out['failed_share']['parent']:.3g}) "
          f"change {out['failed']['change']} "
          f"(share {out['failed_share']['change']:.3g})  "
          f"all runs correct: {out['all_correct']}")


if __name__ == "__main__":
    main()
