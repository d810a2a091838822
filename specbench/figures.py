#!/usr/bin/env python3
"""Run the benchmark over sets of seeds and print its reference figures.

    python3 specbench/figures.py --sets 0-9 10-19 [--workloads a,b] [--seconds 50] [--trace 0]

Runs specbench/run.py once per (set, workload, seed), one run at a time,
interleaved: the i-th seed of every set runs, for every workload, before
any (i+1)-th seed, so drift of the host over the minutes the sets take
reaches every set and workload alike. For each workload and set it prints
every metric's median, quartiles (statistics.quantiles, n=4) and spread
(Q3 - Q1) / median, the operation counts and the failed share; with two
sets, also the change of each median from the first set to the second.
From the records the runs leave in specbench/out/ it prints each
optimizer's ms/step and held-out losses, and for traced runs the tracing
overhead: traced end-to-end figures against the medians of the untraced
records already in specbench/out/.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def record(workload: str, seed: int, trace: int) -> dict:
    return json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def stats(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def summarize(workload: str, sets: list[tuple[str, list[dict]]]) -> None:
    print(f"\n### {workload}\n")
    for label, results in sets:
        attempted = [r["attempted"] for r in results]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"Seeds {label}: correct {all(r['correct'] for r in results)}, attempted "
              f"{min(attempted)}-{max(attempted)}, failed share "
              f"{', '.join(f'{x:.6f}' for x in shares)}.  ")
    head = "| metric | bound |" + "".join(f" {label}: median [Q1, Q3] | spread |"
                                          for label, _ in sets)
    if len(sets) == 2:
        head += " median change |"
    print("\n" + head)
    print("|" + "---|" * (head.count("|") - 1))
    for name in sets[0][1][0]["metrics"]:
        row = f"| `{name}` | {BOUNDS.get(name, '')} |"
        meds = []
        for _, results in sets:
            med, q1, q3, spread = stats([r["metrics"][name]["value"] for r in results])
            meds.append(med)
            row += f" {med:.4g} [{q1:.4g}, {q3:.4g}] | {spread:.3f} |"
        if len(sets) == 2:
            row += f" {(meds[1] - meds[0]) / meds[0]:+.1%} |"
        print(row)


def optimizer_table(workload: str, seeds: list[int], trace: int) -> None:
    records = [record(workload, seed, trace) for seed in seeds]
    print(f"\n| optimizer | step_ms (160 steps, fastest parts) | ms/step of the 40-step "
          f"runs as they ran (median) | held-out loss, seed {seeds[0]} |")
    print("|---|---|---|---|")
    for token, losses in records[0]["charlm_heldout"].items():
        fast = statistics.median(r["step_ms_fast"][token] for r in records)
        whole = statistics.median(r["whole_call_medians"][f"step_ms.{token}"] for r in records)
        print(f"| {token} | {fast:.3f} | {whole:.3f} | "
              f"{' -> '.join(f'{x:.4f}' for x in losses)} |")


def overhead_table(workload: str, seeds: list[int]) -> None:
    untraced = sorted((HERE / "out").glob(f"{workload}-seed*-trace0.json"))
    if not untraced:
        return
    base = [json.loads(path.read_text())["end_to_end"] for path in untraced]
    traced = [record(workload, seed, 1)["end_to_end"] for seed in seeds]
    print(f"\n| metric | untraced median ({len(base)} runs) | traced median | overhead |")
    print("|---|---|---|---|")
    for name in base[0]:
        b = statistics.median(r[name] for r in base)
        t = statistics.median(r[name] for r in traced)
        print(f"| {name} | {b:.6g} | {t:.6g} | {(t - b) / b:+.1%} |")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", nargs="+", default=["0-9"],
                    help="one seed list per set, as 0-9 or 0,5,1000")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    seed_sets = [seed_list(text) for text in args.sets]
    results = {(w, s): [] for w in workloads for s in range(len(seed_sets))}
    for i in range(max(map(len, seed_sets))):
        for w in workloads:
            for s, seeds in enumerate(seed_sets):
                if i < len(seeds):
                    results[(w, s)].append(run_once(w, seeds[i], args.seconds, args.trace))
    for w in workloads:
        summarize(w, [(text, results[(w, s)]) for s, text in enumerate(args.sets)])
        optimizer_table(w, seed_sets[0], args.trace)
        if args.trace:
            overhead_table(w, seed_sets[0])
    return 0


if __name__ == "__main__":
    sys.exit(main())
