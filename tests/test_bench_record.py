"""tools/bench_record.py, run against a stub benchmark command so that the
suite never runs the benchmark itself."""

import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"

# a stand-in for perfbench/run.py: a progress line on stderr, a stray
# non-JSON line and an extra JSON line first, then one canned line per
# workload, each carrying the arguments it was given
_STUB = """\
import json, sys
print("stub: running", file=sys.stderr)
print("not json")
print(json.dumps({"workload": "warm-up"}))
for name in sys.argv[1].split(","):
    print(json.dumps({"workload": name, "correct": True, "failed": 0,
                      "argv": sys.argv[2:]}))
sys.exit(int(sys.argv[1].count(",") != 3))
"""


@pytest.fixture
def bench_record(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_record", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    (tmp_path / "stub.py").write_text(_STUB)
    return module


def _bench_json(root, workloads):
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "stub.py", workloads],
        "run_seconds": 15}))


def _git_head(root):
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def test_record_holds_the_four_final_lines_and_the_run(bench_record,
                                                       tmp_path, capsys):
    _bench_json(tmp_path, "cli,exact-model,exact-general,radial")
    assert bench_record.main(["--label", "t1"]) == 0
    path = tmp_path / "bench" / "BENCH_t1.json"
    assert capsys.readouterr().out == f"{path}\n"
    doc = json.loads(path.read_text())
    args = ["--workload", "all", "--seed", "5", "--seconds", "15"]
    assert doc["runs"] == [
        {"workload": name, "correct": True, "failed": 0, "argv": args}
        for name in ("cli", "exact-model", "exact-general", "radial")]
    assert doc["command"][1:] == ["stub.py",
                                  "cli,exact-model,exact-general,radial",
                                  *args]
    assert (doc["exit_code"], doc["seed"], doc["seconds"]) == (0, 5, 15)
    assert doc["python"] == platform.python_version()
    assert doc["cpu_count"] == os.cpu_count()
    assert doc["PYTHONDONTWRITEBYTECODE"] == os.environ.get(
        "PYTHONDONTWRITEBYTECODE")
    assert doc["commit"] == _git_head(tmp_path)
    assert doc["src_lines"] == 0  # the temporary root has no src/alhlab
    assert isinstance(doc["dirty"], bool) or doc["dirty"] is None


def test_record_counts_the_source_lines(bench_record, tmp_path):
    """src_lines is what `cat src/alhlab/*.py | wc -l` prints: newlines in
    the package's top-level .py files only, a last line with no newline
    not counted."""
    _bench_json(tmp_path, "cli,exact-model,exact-general,radial")
    src = tmp_path / "src" / "alhlab"
    (src / "sub").mkdir(parents=True)
    (src / "a.py").write_text("x = 1\n\ny = 2\n")
    (src / "b.py").write_text("z = 3\nw = 4")
    (src / "notes.txt").write_text("not\ncounted\n")
    (src / "sub" / "c.py").write_text("not counted\n")
    assert bench_record.main(["--label", "lines"]) == 0
    doc = json.loads((tmp_path / "bench" / "BENCH_lines.json").read_text())
    assert doc["src_lines"] == 4


def test_a_failed_run_is_still_recorded(bench_record, tmp_path, capsys):
    _bench_json(tmp_path, "cli,radial")
    assert bench_record.main(["--label", "ci", "--seconds", "1",
                              "--seed", "0"]) == 0
    assert "exited 1 with 3 of 4 workload lines" in capsys.readouterr().err
    doc = json.loads((tmp_path / "bench" / "BENCH_ci.json").read_text())
    assert doc["exit_code"] == 1
    assert (doc["seed"], doc["seconds"]) == (0, 1.0)
    assert [run["workload"] for run in doc["runs"]] == ["warm-up", "cli",
                                                       "radial"]


@pytest.mark.parametrize("label", ["../x", "a b", ""])
def test_a_label_that_is_not_a_file_name_is_refused(bench_record, tmp_path,
                                                    label):
    _bench_json(tmp_path, "cli")
    with pytest.raises(SystemExit):
        bench_record.main(["--label", label])
    assert not (tmp_path / "bench").exists()
