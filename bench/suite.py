"""Run every workload over several seeds and report each metric's spread.

    python3 bench/suite.py                       # all workloads, seeds 0-9
    python3 bench/suite.py --workloads ppo-train --seeds 0-4 --trace 1

Each run is a fresh `bench/run.py` process, one at a time. For every metric
the table shows the median over seeds, the quartiles, and the spread
(Q3 - Q1) / median, which for an end-to-end metric should stay below a third
of its bound in BENCHMARK.json. The summary is also written to bench/out/.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 180


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["environment"] = json.loads(lines[-2])["environment"]
    result["wall_s"] = wall
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in parse_seeds(args.seeds)]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
              f"attempted={attempted}, failed={failed}, "
              f"wall max {max(r['wall_s'] for r in runs):.1f} s, "
              f"host speed {[round(r['environment']['host_speed_before']) for r in runs]}")
        print(f"  {'metric':44s} {'unit':>10s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        rows = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, 0, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name) if not args.trace else None
            flag = "" if bound is None or spread < bound / 3 else "  WIDE"
            print(f"  {name:44s} {first['unit']:>10s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6}{flag}")
            rows[name] = {"unit": first["unit"], "values": values, "median": med,
                          "q1": q1, "q3": q3, "spread": spread}
        summary[workload] = {"attempted": attempted, "failed": failed,
                             "correct": all(r["correct"] for r in runs),
                             "environments": [r["environment"] for r in runs],
                             "metrics": rows}
    out = BENCH / "out" / f"suite-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"\nsummary written to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
