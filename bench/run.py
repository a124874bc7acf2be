"""Run one manibench benchmark workload and print its result.

    python3 bench/run.py --workload ppo-train --seed 0 --seconds 20 --trace 0

Run from any directory; the package is imported from `src/` of the checkout
that holds this file. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
The line before it records the environment the run saw. Both are also
written to `bench/out/`, with the traced run's spans.
"""
import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("datagen-scripted", "ppo-train", "eval-mlp")
SETUP_REPEATS = 3
# what a run imports before its first build, timed in a fresh interpreter
IMPORTS = "import sys; sys.path[:0] = sys.argv[1:]; import spans, workloads"
UNTRACED_SHARE = 1 / 3   # of a traced run, measured untraced for the overhead


def _git_sha(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads():
    """Threads of the OpenBLAS numpy loaded, asked of the library itself."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_speed() -> float:
    """Passes per second of a fixed pure-Python loop over 0.2 s: the core speed
    the run saw, which the program does not affect. On a shared host it
    drifts by tens of percent over minutes; compare runs with this in view."""
    passes, start = 0, time.perf_counter()
    while time.perf_counter() - start < 0.2:
        total = 0.0
        for i in range(10000):
            total += i * 0.5
        passes += 1
    return passes / (time.perf_counter() - start)


def environment(np, load_before, speed_before, seed, workload) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": _git_sha(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
        "workers": 1,
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
        "host_speed_before": speed_before,
        "host_speed_after": host_speed(),
    }


def import_seconds(src: Path) -> float:
    """Median wall time of a fresh interpreter importing what a run imports."""
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORTS, str(src), str(BENCH)], check=True)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def run_rounds(workload, seconds: float, k: int, rounds: list, problems: list) -> int:
    """Whole rounds until `seconds` have passed (at least one); returns next k."""
    from workloads import CheckFailed
    start = time.perf_counter()
    first = len(rounds)
    while len(rounds) == first or time.perf_counter() - start < seconds:
        try:
            rounds.append(workload.run_round(k))
        except CheckFailed as exc:
            problems.append(f"round {k}: {exc}")
            break
        for error in rounds[-1].errors:
            print(f"bench: round {k}: {error}", file=sys.stderr)
        k += 1
    return k


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    src = ROOT / "src"
    if not (src / "manibench" / "__init__.py").is_file():
        print(f"bench: no manibench package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    load_before = list(os.getloadavg())
    speed_before = host_speed()
    import numpy as np

    import manibench
    if Path(manibench.__file__).resolve().parent != (src / "manibench").resolve():
        print(f"bench: imported manibench from {manibench.__file__}, not {src}", file=sys.stderr)
        return 2
    import spans
    import workloads

    work_dir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    try:
        if tracer is not None:
            spans.install(tracer)
        workload = None
        build_s = []
        for _ in range(SETUP_REPEATS):
            workload = None   # let the previous build go before the next one
            t = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
            workload.setup()
            build_s.append(time.perf_counter() - t)
        rounds, problems = [], []
        if tracer is None:
            run_rounds(workload, args.seconds, 0, rounds, problems)
        else:
            tracer.uninstall()
            k = run_rounds(workload, args.seconds * UNTRACED_SHARE, 0, rounds, problems)
            untraced = list(rounds)
            if not problems:
                spans.install(tracer)
                run_rounds(workload, args.seconds * (1 - UNTRACED_SHARE), k, rounds, problems)
                tracer.uninstall()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in problems:
        print(f"bench: incorrect output in {problem}", file=sys.stderr)
    if not rounds:
        return 1

    def rate(rs):
        return sum(r.steps for r in rs) / sum(r.step_s for r in rs)

    if tracer is None:
        listed = spec["end_to_end"]
        values = {
            "setup_s": import_seconds(src) + statistics.median(build_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "steps_per_s": rate(rounds),
            "op_s": statistics.mean(r.op_s for r in rounds),
        }
    else:
        listed = spec["per_layer"]
        traced = rounds[len(untraced):]
        overhead = rate(untraced) / rate(traced) - 1.0 if traced and untraced else 0.0
        values = spans.per_layer_metrics(tracer, overhead)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    result = {"correct": not problems,
              "attempted": sum(r.attempted for r in rounds),
              "failed": sum(r.failed for r in rounds),
              "metrics": metrics}
    env = environment(np, load_before, speed_before, args.seed, args.workload)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    per_round = [{"steps": r.steps, "step_s": r.step_s, "op_s": r.op_s} for r in rounds]
    stem.with_suffix(".json").write_text(json.dumps(
        {"environment": env, "result": result, "rounds": per_round}, indent=1) + "\n")
    if tracer is not None:
        tracer.write(stem.with_suffix(".npz"))
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
