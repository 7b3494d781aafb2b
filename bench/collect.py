#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 1-10 --out .bench_out/collect.json
    python3 bench/collect.py --workloads ref-noisy --seeds 1-5 --trace-runs 0

Runs bench/run.py once per (seed, workload), one at a time, cycling through
the workloads for each seed so that drift on the machine spreads evenly.
For every end-to-end metric it reports the median, the quartiles and their
distance as a share of the median (the spread), next to the bound from
BENCHMARK.json; a spread at or above a third of the bound is flagged.
With --trace-runs N it adds N traced runs per workload and reports the
per-layer medians.  With --against FILE (an earlier output of this script)
it also reports, per metric, how much worse this set's median is than that
one's, and flags any change beyond the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, run.__file__, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {res.returncode}:\n"
                           f"{res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace-runs", type=int, default=1)
    ap.add_argument("--out", default=str(ROOT / ".bench_out" / "collect.json"))
    ap.add_argument("--against", help="earlier output to compare medians with")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    before = (json.loads(Path(args.against).read_text())["workloads"]
              if args.against else {})

    runs = {w: [] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            runs[w].append(run_once(w, seed, args.seconds, 0))
            print(f"{w} seed {seed}: " + "  ".join(
                f"{k} {v['value']:.6g}"
                for k, v in runs[w][-1]["metrics"].items()), flush=True)
    traced = {w: [run_once(w, args.seeds[i % len(args.seeds)], args.seconds, 1)
                  for i in range(args.trace_runs)] for w in workloads}

    summary = {}
    ok = True
    for w in workloads:
        rows = runs[w]
        e2e = {}
        for name, bound in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r in rows])
            s.update(unit=rows[0]["metrics"][name]["unit"], bound=bound,
                     steady=s["spread"] is not None
                     and s["spread"] < bound / 3)
            if w in before:
                old = before[w]["end_to_end"][name]["median"]
                worse = (s["median"] - old) / old
                s["worse_than_against"] = worse if lower[name] else -worse
                ok &= s["worse_than_against"] <= bound
            e2e[name] = s
            if name != "setup_s":
                ok &= s["steady"]
        layers = {}
        if traced[w]:
            for name, m in traced[w][0]["metrics"].items():
                layers[name] = {
                    "median": statistics.median(
                        t["metrics"][name]["value"] for t in traced[w]),
                    "unit": m["unit"]}
        summary[w] = {
            "seeds": args.seeds,
            "attempted": sum(r["attempted"] for r in rows + traced[w]),
            "failed": sum(r["failed"] for r in rows + traced[w]),
            "correct": all(r["correct"] for r in rows + traced[w]),
            "end_to_end": e2e, "per_layer": layers}

    print(f"\n{'workload':<11} {'metric':<12} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6} {'worse':>7}")
    for w, s in summary.items():
        for name, m in s["end_to_end"].items():
            flag = "" if m["steady"] else "  <- spread >= bound/3"
            worse = m.get("worse_than_against")
            if worse is not None and worse > m["bound"]:
                flag += "  <- worse than --against beyond the bound"
            print(f"{w:<11} {name:<12} {m['median']:>10.5g} {m['q1']:>10.5g} "
                  f"{m['q3']:>10.5g} {m['spread']:>7.3f} {m['bound']:>6} "
                  f"{'' if worse is None else f'{worse:.3f}':>7}{flag}")
        print(f"{w:<11} attempted {s['attempted']}, failed {s['failed']}, "
              f"correct {s['correct']}")
    out = {"environment": run.host_environment(), "seconds": args.seconds,
           "workloads": summary}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
