"""Repeat the benchmark over seeds and summarise the spread.

    python3 perfbench/repeat.py --seeds 1-10 [--tag A] [--trace]

Runs run.py once per (workload, seed), one process at a time, from the
repository root, for every workload of BENCHMARK.json and with its
run_seconds.  For every end-to-end metric it prints the median, the
first and third quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median, and the failed share of the operations.  With
--trace it makes one traced run per workload instead (seed = first
seed) and prints its per-layer metrics.  Results go to
perfbench/out/repeat-<tag>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = SPEC["run_seconds"]


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, trace):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS),
         "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["details"] = [ln for ln in proc.stderr.splitlines()
                         if ln.startswith(("detail", "failed", "check failed"))]
    return result


def summary(results):
    out = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else float("nan"),
                     "unit": results[0]["metrics"][name]["unit"]}
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--tag", default="A")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    seeds = seeds_of(args.seeds)
    report = {}
    for wl in [w["name"] for w in SPEC["workloads"]]:
        if args.trace:
            res = run_once(wl, seeds[0], True)
            report[wl] = res
            print(f"{wl} traced seed {seeds[0]} wall {res['wall_s']:.1f} s, "
                  f"correct {res['correct']}, failed "
                  f"{res['failed']}/{res['attempted']}")
            for name, m in res["metrics"].items():
                print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
            continue
        results = [run_once(wl, s, False) for s in seeds]
        shares = {(r["failed"], r["attempted"]) for r in results}
        report[wl] = {"runs": results, "summary": summary(results),
                      "failed_attempted": sorted(shares)}
        print(f"{wl}: {len(seeds)} seeds, all correct "
              f"{all(r['correct'] for r in results)}, failed/attempted "
              f"{sorted(shares)}, wall {sum(r['wall_s'] for r in results):.0f} s")
        for name, s in report[wl]["summary"].items():
            print(f"  {name:14s} median {s['median']:.6g} {s['unit']}  "
                  f"Q1 {s['q1']:.6g}  Q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f}")
    (HERE / "out").mkdir(exist_ok=True)
    with open(HERE / "out" / f"repeat-{args.tag}.json", "w") as fh:
        json.dump(report, fh, indent=1)


if __name__ == "__main__":
    main()
