#!/usr/bin/env python3
"""Compare run sets of the end-to-end benchmark, and self-test the gate.

A run set is a runs.jsonl file as e2ebench/run.py appends them
(.bench_build/e2ebench/runs.jsonl); only --trace 0 records count.

    python3 e2ebench/compare.py spread RUNS.jsonl
        Per workload and end-to-end metric: the median over the set's
        runs and the spread, (Q3 - Q1) / median, next to the bound.

    python3 e2ebench/compare.py compare BASE.jsonl NEW.jsonl
        Flags every (workload, metric) whose NEW median is worse than
        the BASE median by more than the metric's bound in
        BENCHMARK.json. Exits 1 when anything is flagged.

    python3 e2ebench/compare.py selftest [--seconds S] [--seeds K]
        The gate's regression self-test. Synthetic cases check the
        rule itself; then two run sets of this build are measured,
        alternating, on every workload. They must not flag each other,
        and a copy of the first with wall_s inflated by 20% must be
        flagged against it on every workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def values(rec):
    return {k: v["value"] for k, v in rec["result"]["metrics"].items()}


def load(path):
    """{workload: [metrics dict of each --trace 0 run]}"""
    sets = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if rec["trace"] == 0:
            sets.setdefault(rec["workload"], []).append(values(rec))
    return sets


def regressions(base, new, metrics):
    """(workload, metric, base median, new median, change) for each
    metric whose new median is worse than base by more than its bound."""
    flagged = []
    for workload in sorted(set(base) & set(new)):
        for m in metrics:
            name = m["name"]
            b = statistics.median(r[name] for r in base[workload])
            n = statistics.median(r[name] for r in new[workload])
            change = (n - b) / b
            worse = change if m["better"] == "lower" else -change
            if worse > m["bound"]:
                flagged.append((workload, name, b, n, change))
    return flagged


def inflate(sets, metric, factor):
    return {w: [dict(r, **{metric: r[metric] * factor}) for r in runs]
            for w, runs in sets.items()}


def cmd_spread(args):
    for workload, runs in sorted(load(args.runs).items()):
        print("%s (%d runs)" % (workload, len(runs)))
        for m in spec()["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q = statistics.quantiles(values, n=4)
                spread = "%.4f" % ((q[2] - q[0]) / med)
            else:
                spread = "n/a"
            print("  %-14s median %-12.6g spread %s (bound %.2f)"
                  % (m["name"], med, spread, m["bound"]))
    return 0


def cmd_compare(args):
    flagged = regressions(load(args.base), load(args.new),
                          spec()["end_to_end"])
    for w, name, b, n, change in flagged:
        print("REGRESSION %s %s: %.6g -> %.6g (%+.1f%%)"
              % (w, name, b, n, 100 * change))
    print("%d regression(s)" % len(flagged))
    return 1 if flagged else 0


def synthetic_cases(metrics):
    """The rule on hand-made sets: identical, inflated, improved.
    Returns the names of the cases that went wrong."""
    base = {"w": [{m["name"]: 1.0 + 0.01 * i for m in metrics}
                  for i in range(5)]}
    slow = inflate(base, "wall_s", 1.2)
    fewer = inflate(base, "events_per_s", 0.8)

    def flagged(a, b):
        return [f[1] for f in regressions(a, b, metrics)]

    cases = {
        "identical sets pass": flagged(base, base) == [],
        "20% slower wall_s flags": flagged(base, slow) == ["wall_s"],
        "20% faster wall_s passes": flagged(slow, base) == [],
        "20% fewer events/s flags": flagged(base, fewer) == [
            "events_per_s"],
    }
    return [name for name, ok in cases.items() if not ok]


def run_once(workload, seed, seconds):
    """One --trace 0 run through run.py; returns the record it logged."""
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    log = ROOT / ".bench_build" / "e2ebench" / "runs.jsonl"
    return json.loads(log.read_text().splitlines()[-1])


def cmd_selftest(args):
    bench = spec()
    metrics = bench["end_to_end"]
    wrong = synthetic_cases(metrics)
    for name in wrong:
        print("FAIL: synthetic case: %s" % name)
    if wrong:
        return 1
    print("synthetic cases: ok")

    workloads = [w["name"] for w in bench["workloads"]]
    sets = ({}, {})
    for seed in range(1, args.seeds + 1):
        for w in workloads:
            # Same seeds on both sides, alternating which runs first.
            for side in ((0, 1) if seed % 2 else (1, 0)):
                rec = run_once(w, seed, args.seconds)
                sets[side].setdefault(w, []).append(values(rec))
    a, b = sets
    ok = True
    same = regressions(a, b, metrics) + regressions(b, a, metrics)
    for w, name, x, y, change in same:
        print("FAIL: same build flagged: %s %s %+.1f%%"
              % (w, name, 100 * change))
        ok = False
    slow = inflate(a, "wall_s", 1.2)
    caught = {f[0] for f in regressions(a, slow, metrics)
              if f[1] == "wall_s"}
    for w in workloads:
        if w not in caught:
            print("FAIL: 20%% wall_s slowdown not flagged on %s" % w)
            ok = False
    print("selftest: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("spread")
    p.add_argument("runs")
    p.set_defaults(fn=cmd_spread)
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(fn=cmd_compare)
    p = sub.add_parser("selftest")
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--seeds", type=int, default=3)
    p.set_defaults(fn=cmd_selftest)
    args = ap.parse_args()
    sys.exit(args.fn(args))


if __name__ == "__main__":
    main()
