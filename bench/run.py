"""Benchmark of ctbnlearn: fit, held-out score and memory on three workloads.

Usage (from the root of the repository):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs whole rounds of the workload, each in a fresh worker process, until
``--seconds`` have passed (at least one round). Every round makes its
inputs from the seed and the round index, so one seed always gives the
same inputs. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics (medians over the rounds); with
``--trace 1`` it holds the per-layer metrics of traced rounds instead, and
the spans go to ``.bench_out/trace-*.json``. ``--smoke`` shrinks every
workload so it runs end to end, checks included, in seconds.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
END_TO_END = (("setup_s", "s"), ("fit_s", "s"), ("score_s", "s"), ("peak_rss_mb", "MB"))
# One BLAS thread: steadier timings on a shared machine, and the setting
# the reference figures were taken with. It never exceeds nproc.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# A run must end within 180 s; no round starts a worker with less than this left.
RUN_LIMIT_S = 170.0


def machine_facts() -> dict:
    import numpy as np

    facts = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "worker_threads": {k: BLAS_THREADS for k in THREAD_VARS},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        facts["blas"] = "unknown"
    return facts


def run_worker(workload, seed, index, trace, smoke, deadline) -> dict:
    env = dict(os.environ, **{k: BLAS_THREADS for k in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), workload, str(seed), str(index),
           str(int(trace)), str(int(smoke)), str(OUT)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": "round timed out"}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exit {proc.returncode}: {err.strip()[-500:]}"}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ctbnlearn" / "__init__.py").is_file():
        print(f"error: no ctbnlearn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    start = time.monotonic()
    rounds = []
    while True:
        res = run_worker(args.workload, args.seed, len(rounds), args.trace, args.smoke, start + RUN_LIMIT_S)
        if "attempted" not in res:
            n = WORKLOADS[args.workload](args.smoke).planned_ops(args.trace)
            res.update(attempted=n, failed=n)
        rounds.append(res)
        if time.monotonic() - start >= args.seconds or "error" in res:
            break

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    done = [r for r in rounds if r.get("peak_rss_mb") is not None and (not args.trace or "layers" in r)]
    if not done:
        for r in rounds:
            print(json.dumps(r), file=sys.stderr)
        print("error: no round completed its timed steps", file=sys.stderr)
        return 1
    if args.trace:
        units = dict(PER_LAYER)
        values = {k: statistics.median(r["layers"][k] for r in done) for k in units}
    else:
        units = dict(END_TO_END)
        values = {k: statistics.median(r[k] for r in done) for k in units}
    facts = machine_facts()
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
              "machine": facts, "rounds": rounds}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    print(f"machine: {json.dumps(facts)}")
    for r in rounds:
        for msg in r.get("failures", []) + ([r["error"]] if "error" in r else []):
            print(f"failed: {msg}")
    print(f"rounds: {len(rounds)}  operations attempted: {attempted}  failed: {failed}")
    if args.trace:
        traced = " ".join(f"{k}={statistics.median(r[k] for r in done):.4f} s" for k in ("setup_s", "fit_s", "score_s"))
        print(f"traced steps (tracing on): {traced}")
    for k, v in values.items():
        print(f"{k}: {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
