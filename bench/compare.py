"""Collect sets of benchmark runs and compare two of them.

    python3 bench/compare.py collect --out runs.jsonl [--checkout DIR ...] [--workload NAME ...] [--seeds 1-10]
    python3 bench/compare.py spread runs.jsonl
    python3 bench/compare.py compare runs.jsonl

``collect`` runs ``bench/run.py`` of each checkout (default: this one) once
per workload and seed, untraced, with the run length of ``BENCHMARK.json``,
and appends one JSON line per run to --out.  Given two checkouts, the first
is the base and the second the new side; their runs alternate, and the side
that goes first switches from seed to seed, so that both sides see the same
stretches of a shared CPU.  ``spread`` prints, per side, workload and
end-to-end metric, the median, the quartiles and the spread (interquartile
distance over the median) against the metric's bound.  ``compare`` prints
each side's median and quartiles and the median over seeds of the paired
change, new against base run of the same seed; it says whether that change
is worse than the bound.  A metric whose spread on either side exceeds its
bound is unresolved, unless every new run is better than every base run.
Both commands exit with 1 when a run was incorrect, the failed shares
differ, a spread is too wide (``spread``) or a metric regressed
(``compare``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def collect(args):
    spec = load_spec()
    checkouts = [Path(c).resolve() for c in args.checkout or [ROOT]]
    if len(checkouts) > 2:
        sys.exit("error: at most two checkouts, base and new")
    names = args.workload or [w["name"] for w in spec["workloads"]]
    lo, _, hi = args.seeds.partition("-")
    with open(args.out, "a") as out:
        for name in names:
            for seed in range(int(lo), int(hi or lo) + 1):
                sides = list(enumerate(checkouts))
                for side, checkout in sides[::-1] if seed % 2 else sides:
                    proc = subprocess.run(
                        [sys.executable, "bench/run.py", "--workload", name,
                         "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                         "--trace", "0"],
                        capture_output=True, text=True, cwd=checkout)
                    if proc.returncode != 0:
                        print(f"{name} seed {seed} side {side}: exit {proc.returncode}\n"
                              f"{proc.stderr}")
                        continue
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    out.write(json.dumps({"side": side, "checkout": str(checkout),
                                          "workload": name, "seed": seed,
                                          "result": result}) + "\n")
                    out.flush()
                    values = " ".join(f"{k}={v['value']:.4g}"
                                      for k, v in result["metrics"].items())
                    print(f"{name} seed {seed} side {side}: {values}", flush=True)


def load_runs(path):
    """{side: {workload: {seed: result}}}"""
    runs = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            runs.setdefault(rec["side"], {}).setdefault(
                rec["workload"], {})[rec["seed"]] = rec["result"]
    return runs


def summary(values):
    """(median, first quartile, third quartile, spread)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def values(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs]


def spread(args):
    spec = load_spec()
    bad = False
    for side, workloads in sorted(load_runs(args.runs).items()):
        for name, by_seed in workloads.items():
            runs = list(by_seed.values())
            shares = {r["failed"] / r["attempted"] for r in runs}
            correct = all(r["correct"] for r in runs)
            print(f"side {side} {name}: {len(runs)} runs, correct={correct}, "
                  f"failed shares={sorted(shares)}")
            bad |= not correct or len(shares) > 1
            for m in spec["end_to_end"]:
                med, q1, q3, sp = summary(values(runs, m["name"]))
                ok = sp <= m["bound"]
                bad |= not ok
                print(f"  {m['name']:<12} median {med:.5g} [{q1:.5g}, {q3:.5g}] {m['unit']}  "
                      f"spread {sp:.3f} (bound {m['bound']}, a third {m['bound'] / 3:.3f})"
                      f"{'' if ok else '  TOO WIDE'}")
    return 1 if bad else 0


def compare(args):
    spec = load_spec()
    runs = load_runs(args.runs)
    if set(runs) != {0, 1}:
        sys.exit("error: compare needs the runs of two checkouts (collect --checkout BASE "
                 "--checkout NEW)")
    bad = False
    for name in [w["name"] for w in spec["workloads"]]:
        base, new = runs[0].get(name, {}), runs[1].get(name, {})
        seeds = sorted(set(base) & set(new))
        if not seeds:
            print(f"{name}: no seed with runs on both sides")
            continue
        b_runs, n_runs = [base[s] for s in seeds], [new[s] for s in seeds]
        b_share = {r["failed"] / r["attempted"] for r in b_runs}
        n_share = {r["failed"] / r["attempted"] for r in n_runs}
        correct = all(r["correct"] for r in b_runs + n_runs)
        print(f"{name}: {len(seeds)} paired runs, correct={correct}, "
              f"failed share base={sorted(b_share)} new={sorted(n_share)}")
        bad |= not correct or b_share != n_share
        for m in spec["end_to_end"]:
            bv, nv = values(b_runs, m["name"]), values(n_runs, m["name"])
            (bm, bq1, bq3, bsp), (nm, nq1, nq3, nsp) = summary(bv), summary(nv)
            sign = 1 if m["better"] == "lower" else -1
            worse = statistics.median(sign * (n - b) / b for b, n in zip(bv, nv))
            every_better = all(sign * (n - b) < 0 for n in nv for b in bv)
            if max(bsp, nsp) > m["bound"] and not every_better:
                verdict = "unresolved (spread above bound)"
            elif worse > m["bound"]:
                verdict, bad = "REGRESSED", True
            elif -worse > m["bound"]:
                verdict = "better by more than the bound"
            else:
                verdict = "within bound"
            print(f"  {m['name']:<12} base {bm:.5g} [{bq1:.5g}, {bq3:.5g}] spread {bsp:.3f}  "
                  f"new {nm:.5g} [{nq1:.5g}, {nq3:.5g}] spread {nsp:.3f} {m['unit']}  "
                  f"paired: worse by {worse:+.1%} (bound {m['bound']:.0%}): {verdict}")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--checkout", action="append",
                   help="a plantopo checkout; give two, base first, to compare them")
    c.add_argument("--workload", action="append")
    c.add_argument("--seeds", default="1-10")
    s = sub.add_parser("spread")
    s.add_argument("runs")
    p = sub.add_parser("compare")
    p.add_argument("runs")
    args = ap.parse_args()
    if args.cmd == "collect":
        collect(args)
        return 0
    return spread(args) if args.cmd == "spread" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
