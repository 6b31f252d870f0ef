#!/usr/bin/env python3
"""Judges a change with alternating benchmark pairs.

    python3 tools/bench_pairs.py --base REV --change REV \\
        --workloads congest-tz,catalog --seeds 27201-27210 [--seconds 20] \\
        [--trace 0|1] [--workdir DIR] [--json OUT]

Run it from a checkout (any directory inside it). Both revisions are
exported with `git archive` into WORKDIR/base and WORKDIR/change (an
export of the same commit is reused with its build), and each export
builds its own benchmark the first time `optrt_bench/run.py` runs in it.
For every workload, pair i runs both sides on seed i, the base first on
even pairs and the change first on odd ones, so the host's drift over the
pairs falls on both sides alike. Each run is one `run.py` call.

Per workload and metric it prints both medians with their quartiles, the
change's median shift, the pairs the change won (its value better than the
base's on the same seed), and both quartile spreads (Q3 - Q1 as a share of
the median). For the end-to-end metrics of BENCHMARK.json it also prints
the metric's bound and whether the base's spread resolves it (spread below
the bound), and whether a gain resolves: won on at least nine pairs in ten
and a median gap wider than the base's Q3 - Q1. `failed` sums the runs'
failed operations per side. --json writes every run's result line.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


def git_root():
    out = subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True,
                         stdout=subprocess.PIPE, text=True)
    return out.stdout.strip()


def export(root, rev, dest):
    """Makes dest an export of rev. An export of the same commit is kept
    with its build; any other is replaced, build included (an archive's
    files carry the commit's time, so an old build could look newer)."""
    commit = subprocess.run(["git", "-C", root, "rev-parse", "--verify",
                             rev + "^{commit}"], check=True,
                            stdout=subprocess.PIPE, text=True).stdout.strip()
    stamp = os.path.join(dest, ".bench_pairs_commit")
    if os.path.isfile(stamp) and open(stamp).read() == commit:
        return
    subprocess.run(["rm", "-rf", dest], check=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", root, "archive", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"bench_pairs: git archive {rev} failed")
    with open(stamp, "w") as f:
        f.write(commit)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = (int(x) for x in part.split("-"))
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, "optrt_bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    run = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {tree} exited "
                 f"{run.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def fmt(x):
    return f"{x:.4g}"


def report(workload, runs, spec):
    """Prints one workload's table; returns its rows for --json."""
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec.get("per_layer", [])}
    names = [n for n in runs["base"][0]["metrics"]]
    pairs = len(runs["base"])
    failed = {side: sum(r.get("failed", 0) for r in runs[side])
              for side in ("base", "change")}
    print(f"\n{workload}: {pairs} pairs, failed ops base {failed['base']}, "
          f"change {failed['change']}")
    print(f"  {'metric':<34} {'base median [Q1, Q3]':<32} "
          f"{'change median [Q1, Q3]':<32} {'shift':>8} {'won':>6} "
          f"{'spread b/c':>13}  bound")
    rows = []
    for name in names:
        meta = end_to_end.get(name) or per_layer.get(name) or {}
        lower = meta.get("better", "lower") == "lower"
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        if all(v == 0 for v in base + change):
            continue
        bq = quartiles(base)
        cq = quartiles(change)
        won = sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))
        shift = (cq[1] - bq[1]) / bq[1] if bq[1] else float("nan")
        spread_b = (bq[2] - bq[0]) / bq[1] if bq[1] else float("nan")
        spread_c = (cq[2] - cq[0]) / cq[1] if cq[1] else float("nan")
        gap = cq[1] - bq[1]
        better = gap < 0 if lower else gap > 0
        gain_resolves = (better and won * 10 >= 9 * pairs and
                         abs(gap) > bq[2] - bq[0])
        bound_text = ""
        if name in end_to_end:
            bound = end_to_end[name]["bound"]
            bound_text = (f"{bound:.0%}, base spread "
                          f"{'resolves' if spread_b < bound else 'does not resolve'}"
                          f" it; gain {'resolves' if gain_resolves else 'unresolved'}")
        print(f"  {name:<34} {fmt(bq[1]) + ' [' + fmt(bq[0]) + ', ' + fmt(bq[2]) + ']':<32} "
              f"{fmt(cq[1]) + ' [' + fmt(cq[0]) + ', ' + fmt(cq[2]) + ']':<32} "
              f"{shift:>+8.1%} {won:>2}/{pairs:<3} "
              f"{spread_b:>6.1%}/{spread_c:<6.1%}  {bound_text}")
        rows.append({"metric": name, "base": base, "change": change,
                     "base_quartiles": bq, "change_quartiles": cq,
                     "shift": shift, "won": won, "pairs": pairs,
                     "gain_resolves": gain_resolves})
    return {"failed": failed, "metrics": rows}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument("--change", required=True, help="changed revision")
    parser.add_argument("--workloads", required=True,
                        help="comma-separated workload names")
    parser.add_argument("--seeds", required=True,
                        help="one seed per pair: 27201-27210 or 1,5,9")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir",
                        default=os.path.join(tempfile.gettempdir(),
                                             "optrt_bench_pairs"))
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args()

    root = git_root()
    trees = {side: os.path.join(args.workdir, side)
             for side in ("base", "change")}
    for side, rev in (("base", args.base), ("change", args.change)):
        export(root, rev, trees[side])
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")

    # One short untimed run per side and workload builds the benchmark and
    # warms the host before the pairs.
    for workload in workloads:
        for side in ("base", "change"):
            run_once(trees[side], workload, seeds[0], 1, args.trace)

    results = {}
    for workload in workloads:
        runs = {"base": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_once(trees[side], workload, seed,
                                           args.seconds, args.trace))
            print(f"{workload} pair {i + 1}/{len(seeds)} (seed {seed}) done",
                  file=sys.stderr)
        results[workload] = {"seeds": seeds, "runs": runs,
                             "summary": report(workload, runs, spec)}
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"base": args.base, "change": args.change,
                       "seconds": args.seconds, "trace": args.trace,
                       "workloads": results}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
