"""Exact outputs, byte for byte.

``tests/golden/exact_outputs.txt`` holds exact CLI documents and the
canonical forms (``repr``) of exact curvature and Laplacian results: the
nonzero Christoffel, Riemann and Ricci components and the scalar of
``curvature(g)`` for every metric the ``exact-model`` benchmark takes, and
every cell of the zero-mode Hodge-de Rham systems ``reduced_D00`` with
the radial square ``hodge_derham_radial_square()``, and both blocks of
``pullback_pm`` for each semiflat kind at four values of c.  It also
records the components of the twisted model metrics ``metric_gh``,
``metric_gh_r`` and ``_calabi_root_metric(2)``, the six ``PMBasis``
forms, the deformed triple of each semiflat kind at the same values of c,
and the 15 blowup lifts (the four untwisted generators and the twisted
one at each of the stages b, c and a) with their chart variables.  Any
change to canonicalisation, gcd normalisation or printing shows here as
a diff.  Only exact values are recorded: no numpy or LAPACK floats; the
``pullback_pm`` entries are exact Fractions rounded to float once, and
are written with ``float.hex``.

Regenerate (only when an output is meant to change) with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

import runpy
import sys
from fractions import Fraction
from pathlib import Path

from alhlab.cli import cli_dispatch
from alhlab import geometry
from alhlab.forms import PMBasis
from alhlab.hk import SEMIFLAT_KINDS, _deformed_triple, pullback_pm
from alhlab.geometry import christoffel, curvature, metric_a, ricci
from alhlab.operators import (blowup_lift, hodge_derham_radial_square,
                              laplacian, reduced_D00, structure_fields)

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "exact_outputs.txt"

CLI_RUNS = (
    "curvature --metric gh",
    "curvature --metric a --at 1/3,1/2,1/5,0",
    "curvature --metric model --exact",
    "curvature --metric calabi:5 --exact",
    "indicial --operator scalar --weights",
    "indicial --operator d00-even --weights",
    "indicial --operator d00-odd --weights",
    "triple-q",
    "lift-check",
    "cohomology --b 3",
)

# the metrics of the exact-model curvature tasks
MODEL_METRICS = ("gh", "gh_r", "a", "model") + tuple(
    f"calabi:{n}" for n in range(3, 11))

# the twist parameters of the recorded pullback_pm expansions
PULLBACK_C = (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10),
              Fraction(7, 3))

# Gibbons-Hawking potentials V = a r + b y1 + d y2 + c: (a, b, d, c)
AFFINE_GH = ((3, 0, 0, 2), (0, 5, 0, 7), (0, 0, 4, 3))


def _gh_affine_metric():
    """The benchmark's Gibbons-Hawking builder with an affine potential."""
    perfbench = ROOT / "perfbench"
    sys.path.insert(0, str(perfbench))  # workloads imports checks
    try:
        return runpy.run_path(str(perfbench / "workloads.py"))[
            "gh_affine_metric"]
    finally:
        sys.path.remove(str(perfbench))


def _model_metric(name):
    if name.startswith("calabi:"):
        return geometry.metric_calabi(int(name.split(":")[1]))
    return getattr(geometry, f"metric_{name}")()


def _curvature_lines(name):
    """Nonzero components up to the index symmetries, then the scalar."""
    cur = curvature(_model_metric(name))
    gamma, riem, ric = cur["christoffel"], cur["riemann"], cur["ricci"]
    r4 = range(4)
    lines = [f"gamma[{i}][{j}][{k}] = {gamma[i][j][k]!r}"
             for i in r4 for j in r4 for k in range(j, 4)
             if not gamma[i][j][k].is_zero()]
    lines += [f"riemann[{l}][{i}][{j}][{k}] = {riem[l][i][j][k]!r}"
              for l in r4 for i in r4 for j in range(i + 1, 4) for k in r4
              if not riem[l][i][j][k].is_zero()]
    lines += [f"ricci[{j}][{k}] = {ric[j][k]!r}"
              for j in r4 for k in range(j, 4) if not ric[j][k].is_zero()]
    lines.append(f"scalar = {cur['scalar']!r}")
    return lines


def dump() -> str:
    """Every recorded output, one section per source."""
    out = []
    for run in CLI_RUNS:
        code, text = cli_dispatch(run.split())
        out.append(f"## alhlab {run} (exit {code})\n{text}")
    gh_affine_metric = _gh_affine_metric()
    for abcd in AFFINE_GH:
        g = gh_affine_metric(*abcd)
        gamma = christoffel(g)
        lines = [f"gamma[{i}][{j}][{k}] = {gamma[i][j][k]!r}"
                 for i in range(4) for j in range(4) for k in range(j, 4)
                 if not gamma[i][j][k].is_zero()]
        ric = ricci(g)
        lines += [f"ricci[{j}][{k}] = {ric[j][k]!r}"
                  for j in range(4) for k in range(j, 4)]
        out.append(f"## gh_affine_metric{abcd}\n" + "\n".join(lines) + "\n")
    for name in MODEL_METRICS:
        out.append(f"## curvature({name})\n"
                   + "\n".join(_curvature_lines(name)) + "\n")
    out.append(f"## laplacian(metric_a())\n{laplacian(metric_a())!r}\n")
    for parity in ("even", "odd"):
        # row, column and key order: the order the cells are stored in
        lines = [f"entries[{i}][{j}][{o}] = {c!r}"
                 for i, row in enumerate(reduced_D00(parity).entries)
                 for j, cell in enumerate(row) for o, c in cell.items()]
        out.append(f"## reduced_D00({parity!r})\n" + "\n".join(lines) + "\n")
    out.append("## hodge_derham_radial_square()\n"
               f"{hodge_derham_radial_square()!r}\n")
    for kind in SEMIFLAT_KINDS:
        for c in PULLBACK_C:
            lines = [f"{name}[{i}][{j}] = {float(v).hex()}"
                     for name, block in zip(("plus", "minus"),
                                            pullback_pm((kind, c)))
                     for i, row in enumerate(block)
                     for j, v in enumerate(row)]
            out.append(f"## pullback_pm(({kind!r}, {c}))\n"
                       + "\n".join(lines) + "\n")
    for label, g in (("metric_gh()", geometry.metric_gh()),
                     ("metric_gh_r()", geometry.metric_gh_r()),
                     ("_calabi_root_metric(2)",
                      geometry._calabi_root_metric(2))):
        lines = [f"g[{i}][{j}] = {g.entry(i, j)!r}"
                 for i in range(4) for j in range(i, 4)]
        out.append(f"## {label} on {g.chart.variables}\n"
                   + "\n".join(lines) + "\n")
    basis = PMBasis()
    lines = [f"{name}[{i}] = {w!r}"
             for name, triple in (("plus", basis.plus), ("minus", basis.minus))
             for i, w in enumerate(triple)]
    out.append("## PMBasis()\n" + "\n".join(lines) + "\n")
    for kind in SEMIFLAT_KINDS:
        for c in PULLBACK_C:
            lines = [f"w[{i}] = {w!r}"
                     for i, w in enumerate(_deformed_triple(kind, c))]
            out.append(f"## _deformed_triple({kind!r}, {c})\n"
                       + "\n".join(lines) + "\n")
    fields = [(f"structure_fields('a')[{i}]", v)
              for i, v in enumerate(structure_fields("a"))]
    fields.append(("structure_fields('a', twisted=True)[2]",
                   structure_fields("a", twisted=True)[2]))
    for stage in ("b", "c", "a"):
        lines = []
        for label, v in fields:
            lift = blowup_lift(v, stage)
            lines.append(f"{label} on {lift.chart.variables}: {lift!r}")
        out.append(f"## blowup_lift(field, {stage!r})\n"
                   + "\n".join(lines) + "\n")
    return "".join(out)


def test_exact_outputs_are_byte_identical():
    assert dump() == GOLDEN.read_text()


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(dump())
    else:
        sys.stdout.write(dump())
