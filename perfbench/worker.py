"""One workload process, started by run.py with the checkout's ``src`` on
the path and BLAS/OpenMP pools pinned to one thread.

Protocol: build the seeded round, run one untimed warm-up task, print
``ready`` and wait for a line on stdin.  ``go`` starts the measurement:
whole rounds, one task at a time, until ``seconds`` have passed.  Any
other line ends the process; run.py uses that to time set-up alone.
The last stdout line is a JSON report.

usage: worker.py WORKLOAD SEED SECONDS TRACE OUTDIR
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import speed
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _check_package_source():
    """alhlab must come from this checkout, never from an installed copy."""
    import importlib.util
    spec = importlib.util.find_spec("alhlab")
    want = os.path.join(ROOT, "src", "alhlab", "__init__.py")
    if spec is None or os.path.abspath(spec.origin) != want:
        raise SystemExit(f"alhlab not found at {want}")


def import_ms(env, repeats=3):
    """Median wall time of ``import alhlab.cli`` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import alhlab.cli; "
            "print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code], env=env,
                                  cwd=ROOT, capture_output=True, text=True,
                                  check=True, timeout=60).stdout)
             for _ in range(repeats)]
    return statistics.median(times) * 1e3


def main(argv):
    workload, seed, seconds, traced, outdir = argv
    seed, seconds, traced = int(seed), float(seconds), traced == "1"
    _check_package_source()
    rng = random.Random(f"{workload}:{seed}")
    tracer = runner = None
    if traced and workload != "cli":
        # installed before the tasks are built, so that the names they
        # import are the wrapped ones
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.active = False
    if workload == "cli":
        runner = workloads.CliRunner(ROOT, dict(os.environ), outdir, traced)
        warm, tasks = workloads.cli(rng, runner)
    else:
        warm, tasks = getattr(workloads, workload.replace("-", "_"))(rng)
    problem = warm.check(warm.run())
    if problem:
        raise SystemExit(f"warm-up check failed: {problem}")
    if runner is not None:
        runner.totals.clear()  # the warm-up is not part of any round
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    durations, raw, problems = [], [], []
    attempted = failed = rounds = 0
    # CLI calls are new processes; the in-process kernel does not follow
    # their start-up and import costs
    reference = speed.process_s if workload == "cli" else speed.kernel_s
    start = time.perf_counter()
    ref_before = reference()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for task in tasks:
            attempted += 1
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out, ok = task.run(), True
            except Exception:
                ok = False
                failed += 1
                print(f"{task.name} failed:\n{traceback.format_exc()}",
                      file=sys.stderr)
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.active = False
            ref_after = reference()
            if ok:
                raw.append(t1 - t0)
                durations.append(speed.at_reference(t1 - t0, ref_before,
                                                    ref_after))
                problem = task.check(out)
                if problem:
                    problems.append(f"{task.name}: {problem}")
            ref_before = ref_after
        rounds += 1
    if tracer is not None:
        tracer.uninstall()

    who = resource.RUSAGE_CHILDREN if workload == "cli" \
        else resource.RUSAGE_SELF
    report = {"attempted": attempted, "failed": failed,
              "problems": problems, "durations": durations,
              "raw_durations": raw, "rounds": rounds,
              "peak_rss_kb": resource.getrusage(who).ru_maxrss}
    if traced:
        from spans import merge_totals
        totals = tracer.totals() if tracer else merge_totals(runner.totals)
        if tracer:
            tracer.write(os.path.join(outdir, f"{workload}-seed{seed}"))
        report["per_round"] = {k: v / rounds for k, v in totals.items()
                               if k != "ratfun.peak_degree"}
        report["per_round"]["ratfun.peak_degree"] = totals.get(
            "ratfun.peak_degree", 0)
        report["per_round"]["cli.import_ms"] = import_ms(dict(os.environ))
    for problem in problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
