"""One-off size ladder: E-step time and peak RSS against the joint size n.

Usage (from the root of the repository):

    python3 bench/ladder.py [--trajectories 2] [--seed 0]

For k = 3, 6, 7 and 8 binary variables in a ring (joint n = 8, 64, 128 and
256), each in a fresh process with one BLAS thread, it samples the
ring256_em workload's kind of occluded trajectories (horizon 5, 25% hidden
in windows of 0.25), times one ``e_step`` and reads the process's peak
RSS. It prints a markdown table.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SIZES = (3, 6, 7, 8)


def one(k: int, count: int, seed: int) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from ctbnlearn import e_step

    import workloads

    w = workloads.Ring256Em(smoke=False)
    w.k = k
    rng = np.random.default_rng(seed)
    model = w.model(rng)
    records = workloads._occluded(model, count, workloads.HORIZON, rng)
    evidence = workloads._lower(records, model.space())
    t0 = time.perf_counter()
    e_step(model, evidence)
    seconds = time.perf_counter() - t0
    return {
        "n": 2**k,
        "trajectories": count,
        "segments": sum(ev.n_segments for ev in evidence),
        "e_step_s": seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trajectories", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one is not None:
        print(json.dumps(one(args.one, args.trajectories, args.seed)))
        return 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    print("| joint n | trajectories | segments | E-step (s) | peak RSS (MB) |")
    print("|--------:|-------------:|---------:|-----------:|--------------:|")
    for k in SIZES:
        out = subprocess.run(
            [sys.executable, __file__, "--one", str(k), "--trajectories", str(args.trajectories),
             "--seed", str(args.seed)],
            capture_output=True, text=True, env=env, check=True,
        )
        r = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"| {r['n']} | {r['trajectories']} | {r['segments']} | {r['e_step_s']:.2f} | {r['peak_rss_mb']:.0f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
