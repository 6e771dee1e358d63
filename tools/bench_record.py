"""Record one benchmark run as ``bench/BENCH_<label>.json``.

usage: python3 tools/bench_record.py --label LABEL [--seconds S] [--seed N]

Runs the command of ``BENCHMARK.json`` (``python3 perfbench/run.py``)
with ``--workload all`` as a subprocess from the root of the checkout,
its stderr passed through, and writes the last four JSON lines of its
stdout (one per workload) together with the seed, the seconds, the git
commit and whether the tree was dirty, the Python version,
``os.cpu_count()``, ``PYTHONDONTWRITEBYTECODE`` and ``src_lines``, the
line count of ``src/alhlab/*.py`` as ``cat src/alhlab/*.py | wc -l``
counts it.  ``--seconds`` defaults to ``run_seconds`` of
``BENCHMARK.json`` and ``--seed`` to 5.

The file is a record, not a verdict: a run that fails, or prints fewer
than four lines, is written with its exit code and a warning on stderr.
The recorder exits non-zero only when it cannot write the file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = 4


def _git(*args):
    """stdout of ``git args`` in ROOT, or None where git fails."""
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def _src_lines() -> int:
    """Newlines in ``src/alhlab/*.py`` under ROOT, which is what
    ``cat src/alhlab/*.py | wc -l`` prints."""
    return sum(path.read_bytes().count(b"\n")
               for path in (ROOT / "src" / "alhlab").glob("*.py"))


def record(command, seed, seconds) -> dict:
    """Run ``command --workload all --seed seed --seconds seconds`` in
    ROOT and return the record of its run."""
    argv = [*command, "--workload", "all", "--seed", str(seed),
            "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    runs = []
    for line in proc.stdout.splitlines():
        try:
            runs.append(json.loads(line))
        except ValueError:
            continue
    status = _git("status", "--porcelain")
    return {
        "command": argv,
        "exit_code": proc.returncode,
        "seed": seed,
        "seconds": seconds,
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "src_lines": _src_lines(),
        "runs": runs[-WORKLOADS:],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_-]+", args.label):
        parser.error("--label takes letters, digits, '-' and '_'")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    doc = record(spec["command"], args.seed, seconds)
    if doc["exit_code"] or len(doc["runs"]) != WORKLOADS:
        print(f"bench_record: the run exited {doc['exit_code']} with "
              f"{len(doc['runs'])} of {WORKLOADS} workload lines",
              file=sys.stderr)
    path = ROOT / "bench" / f"BENCH_{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
