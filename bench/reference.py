"""Reference figures for choosing BLAS-thread and rollout-worker defaults.

    python3 bench/reference.py

Times the policy MLP (gripper-bot, 146 -> 1024-1024-512-512 -> 7) forward,
and forward plus backward, at batch 1, 64 and 512 with OPENBLAS_NUM_THREADS
set to 1 and to 2, each setting in its own child process because OpenBLAS
reads it once at load. Then times one 64-env x 32-step `collect_rollouts`
at workers 1 and 2. Prints one JSON object; figures are medians.
"""
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BATCHES = (1, 64, 512)
THREADS = (1, 2)
WORKERS = (1, 2)


def _median_s(fn, reps: int) -> float:
    fn()   # warm-up
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def net_figures() -> dict:
    import numpy as np
    from manibench import rl
    from manibench.robot import gripper_bot

    policy, _ = rl.build_nets(gripper_bot(), rl.PPOConfig(seed=0))
    net = policy.net
    rng = np.random.default_rng(0)
    out = {}
    for b in BATCHES:
        x = rng.standard_normal((b, net.widths[0]))
        dy = rng.standard_normal((b, net.widths[-1]))
        reps = 200 if b == 1 else 20

        def fwd_bwd():
            _, cache = net.forward_cached(x)
            net.backward(cache, dy)
        out[f"forward.b{b}.ms"] = 1e3 * _median_s(lambda: net.forward(x), reps)
        out[f"forward_backward.b{b}.ms"] = 1e3 * _median_s(fwd_bwd, reps)
    return out


def rollout_figures() -> dict:
    from manibench import rl
    from manibench.env import EpisodeConfig
    from manibench.reward import RewardWeights
    from manibench.robot import gripper_bot
    from manibench.world import make_task

    spec = gripper_bot()
    policy, value_net = rl.build_nets(spec, rl.PPOConfig(seed=0))
    slots = rl.make_slots(make_task("laptop", "open"), spec, EpisodeConfig(seed=0), 64)
    return {f"collect_rollouts.64x32.workers{w}.s": _median_s(
        lambda: rl.collect_rollouts(slots, policy, value_net, 32, RewardWeights(), workers=w), 3)
        for w in WORKERS}


def _child(part: str, threads=None) -> dict:
    env = dict(os.environ)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    proc = subprocess.run([sys.executable, __file__, part], env=env, capture_output=True,
                          text=True, check=True, timeout=900)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    if len(sys.argv) == 2:
        sys.path.insert(0, str(ROOT / "src"))
        print(json.dumps({"net": net_figures, "rollout": rollout_figures}[sys.argv[1]]()))
        return 0
    figures = {f"OPENBLAS_NUM_THREADS={t}": _child("net", t) for t in THREADS}
    figures["rollout"] = _child("rollout")
    figures["nproc"] = len(os.sched_getaffinity(0))
    figures["loadavg_after"] = list(os.getloadavg())
    print(json.dumps(figures, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
