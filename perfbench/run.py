"""alhlab benchmark: one workload per call, or all four.

usage: python3 perfbench/run.py --workload {cli,exact-model,exact-general,
       radial,all} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload runs in fresh worker
processes (worker.py) with the checkout's ``src`` first on PYTHONPATH,
BLAS/OpenMP pools pinned to one thread and a fixed hash seed.  One client
runs the tasks closed loop, one at a time.

With ``--trace 0`` the run reports the end-to-end metrics.  ``setup_s`` is
the median over SETUP_PROBES worker processes of the time from spawn to
ready (imports and one untimed warm-up task); the last probe goes on to
measure.  With ``--trace 1`` a single worker runs with the span wrappers
of spans.py installed and reports the per-layer metrics per round; its
timings are never used as end-to-end numbers.

The last stdout line is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}).  The exit code is 0 only when every
workload ran to its end.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTDIR = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("cli", "exact-model", "exact-general", "radial")
SETUP_PROBES = 5
DEADLINE_S = 170.0

END_TO_END = {"throughput_tasks_per_s": "tasks/s", "task_ms_p50": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}

_SELF_MS = ("ratfun.poly_gcd", "ratfun.arith", "ratfun.evaluate",
            "geometry.christoffel", "geometry.riemann", "geometry.ricci",
            "geometry.inverse", "forms.wedge", "forms.ext_d",
            "forms.hodge_star", "hk.pullback_pm",
            "hk.second_derivative_report", "operators.laplacian",
            "operators.project_modes", "operators.blowup_lift",
            "indicial.indicial_roots", "modes.solve_bvp", "modes.spsolve",
            "modes.fit", "modes.weighted_sigma_min", "modes.svdvals",
            "cli.dispatch")
_CALLS = ("ratfun.poly_gcd", "ratfun.arith", "ratfun.evaluate",
          "ratfun.lambdify", "indicial.indicial_roots")
PER_LAYER = {**{f"{n}.calls": "count" for n in _CALLS},
             "ratfun.poly_gcd.general_calls": "count",
             "ratfun.poly_gcd.nontrivial_calls": "count",
             "ratfun.peak_degree": "degree",
             "modes.unknowns": "count",
             **{f"{n}.self_ms": "ms" for n in _SELF_MS},
             "cli.import_ms": "ms"}


THREAD_POOLS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """One worker process; killed if the run's deadline passes."""

    def __init__(self, args, deadline):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                     self.proc.kill)
        self.timer.start()

    def ready(self) -> bool:
        return self.proc.stdout.readline().strip() == "ready"

    def finish(self, command):
        """Send ``command``; return the last stdout line and the exit code."""
        try:
            out, _ = self.proc.communicate(command + "\n")
        finally:
            self.timer.cancel()
        lines = out.strip().splitlines()
        return (lines[-1] if lines else ""), self.proc.returncode

    def kill(self):
        self.timer.cancel()
        self.proc.kill()
        self.proc.wait()


def _start(args, deadline):
    worker = Worker(args, deadline)
    if worker.ready():
        return worker
    worker.kill()
    return None


def run_workload(workload, seed, seconds, traced):
    """Run one workload; returns the result object, or None on failure."""
    deadline = time.monotonic() + DEADLINE_S
    args = [workload, str(seed), str(seconds), "1" if traced else "0", OUTDIR]
    setups = []
    if traced:
        worker = _start(args, deadline)
    else:
        # set-up is timed in new processes, against the process reference
        ref_before = speed.process_s()
        for probe in range(SETUP_PROBES):
            t0 = time.perf_counter()
            worker = _start(args, deadline)
            t1 = time.perf_counter()
            if worker is None:
                break
            ref_after = speed.process_s()  # the worker waits meanwhile
            setups.append(speed.at_reference(t1 - t0, ref_before, ref_after))
            ref_before = ref_after
            if probe < SETUP_PROBES - 1:
                worker.finish("quit")
    if worker is None:
        print(f"{workload}: worker did not get ready", file=sys.stderr)
        return None
    line, code = worker.finish("go")
    if code != 0:
        print(f"{workload}: worker exited {code}", file=sys.stderr)
        return None
    report = json.loads(line)
    if traced:
        metrics = {name: {"value": report["per_round"].get(name, 0),
                          "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        d = report["durations"]
        values = {"throughput_tasks_per_s": len(d) / sum(d),
                  "task_ms_p50": statistics.median(d) * 1e3,
                  "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
                  "setup_s": statistics.median(setups)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        raw = report["raw_durations"]
        print(f"{workload}: {len(raw)} tasks in {report['rounds']} rounds; "
              f"raw wall time per task: median "
              f"{statistics.median(raw) * 1e3:.1f} ms, total "
              f"{sum(raw):.2f} s", file=sys.stderr)
    return {"correct": not report["problems"],
            "attempted": report["attempted"], "failed": report["failed"],
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "alhlab", "__init__.py")):
        print("no alhlab sources under src/ in this checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUTDIR, exist_ok=True)
    speed.pin_to_one_cpu()
    os.environ.update(dict.fromkeys(THREAD_POOLS, "1"))  # for every child
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    code = 0
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if result is None:
            code = 1
            continue
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
