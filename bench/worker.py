"""One round of one workload, in a process of its own.

Usage: python3 bench/worker.py ROOT WORKLOAD SEED ROUND TRACE SMOKE OUT_DIR

Runs setup (``setup_repeats`` times, each timed), fit and score, then the
output checks, and prints one JSON object with the timings, the peak
resident memory of the process or processes that ran the workload, and the
operations attempted and failed. Peak memory of an in-process workload is
read before the checks run, so the checks' own imports do not count.
"""
from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path


class Abort(Exception):
    """A timed step failed; the round's remaining operations count as failed."""


class Round:
    def __init__(self, root: Path, work: Path, seed: int, index: int, trace: bool):
        import numpy as np

        self.root = root
        self.work = work
        self.trace = trace
        self.ints = [int(x) for x in np.random.SeedSequence([seed, index]).generate_state(4)]
        self.attempted = 0
        self.failures: list[str] = []
        self.checks: list[tuple[str, bool, str]] = []
        self.cli_rss_mb = 0.0
        self.cli_traces: list = []
        self.tracer = None
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        self.env = env

    def path(self, name: str) -> str:
        return str(self.work / name)

    def call(self, name, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:
            self.failures.append(f"{name}: {exc!r}")
            raise Abort from exc

    def check(self, name, fn):
        self.attempted += 1
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, repr(exc)
        self.checks.append((name, bool(ok), detail))
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def cli(self, name, args, ok_codes=(0,)) -> str:
        """Run one ``ctbnlearn`` command as its own process and return its
        standard output. Its peak RSS comes from ``wait4``."""

        def run():
            tracing = self.tracer is not None and self.tracer.active
            if tracing:
                trace_out = self.path(f"cli-trace-{len(self.cli_traces)}.json")
                cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), trace_out, *args]
            else:
                cmd = [sys.executable, "-m", "ctbnlearn.cli", *args]
            with open(self.path("stdout.txt"), "w+") as out, open(self.path("stderr.txt"), "w+") as err:
                proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.work)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                out.seek(0)
                err.seek(0)
                text, errors = out.read(), err.read()
            self.cli_rss_mb = max(self.cli_rss_mb, usage.ru_maxrss / 1024.0)
            if proc.returncode not in ok_codes:
                raise RuntimeError(f"exit {proc.returncode}: {errors.strip()[-300:]}")
            if tracing:
                self.cli_traces.append((f"cli {args[0]}", json.loads(Path(trace_out).read_text())))
            return text

        return self.call(name, run)


def run_round(root: Path, workload_name: str, seed: int, index: int, trace: bool, smoke: bool, out_dir: Path) -> dict:
    import ctbnlearn
    import tracer as tracing
    import workloads

    if not Path(ctbnlearn.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"ctbnlearn imported from {ctbnlearn.__file__}, not from {root / 'src'}")
    workload = workloads.WORKLOADS[workload_name](smoke)
    work = out_dir / "work" / f"{workload_name}-{seed}-{index}"
    work.mkdir(parents=True, exist_ok=True)
    r = Round(root, work, seed, index, trace)
    planned = workload.planned_ops(trace)
    result = {"setup_s": None, "fit_s": None, "score_s": None, "peak_rss_mb": None}
    if trace:
        r.tracer = tracing.Tracer()
        r.tracer.install()
    try:
        setups = []
        for rep in range(workload.setup_repeats):
            if r.tracer is not None:
                r.tracer.active = rep == workload.setup_repeats - 1
            t0 = time.perf_counter()
            with _span(r.tracer, "bench.setup"):
                inputs = workload.setup(r)
            setups.append(time.perf_counter() - t0)
        result["setup_s"] = statistics.median(setups)

        t0 = time.perf_counter()
        with _span(r.tracer, "bench.fit"):
            fit = workload.fit(r, inputs)
        result["fit_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        with _span(r.tracer, "bench.score"):
            scores = workload.score(r, inputs, fit)
        result["score_s"] = time.perf_counter() - t0
        # A CLI workload runs in its command processes; any other in this one.
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["peak_rss_mb"] = r.cli_rss_mb or own

        if r.tracer is not None:
            r.tracer.uninstall()
            merged = tracing.merge([("bench", r.tracer.export()), *r.cli_traces])
            result["layers"] = tracing.layer_metrics(merged)
            trace_file = out_dir / f"trace-{workload_name}-{seed}-{index}.json"
            trace_file.write_text(json.dumps(merged))
        workload.run_checks(r, inputs, fit, scores)
    except Abort:
        pass
    except Exception as exc:
        result["error"] = repr(exc)
    finally:
        if r.tracer is not None:
            r.tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    # A failed step leaves the operations after it unattempted; they count
    # as attempted and failed, so every round reports the same total.
    result.update(
        attempted=planned,
        failed=len(r.failures) + planned - r.attempted,
        failures=r.failures,
        checks=r.checks,
    )
    return result


def _span(tracer, name):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def main(argv):
    root, workload, seed, index, trace, smoke, out_dir = argv
    root = Path(root)
    sys.path.insert(0, str(root / "src"))
    result = run_round(root, workload, int(seed), int(index), trace == "1", smoke == "1", Path(out_dir))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
