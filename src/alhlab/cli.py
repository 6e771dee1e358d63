"""Batch command-line front end emitting JSON or CSV for each capability.

Subcommands cover exact curvature checks, indicial data, mode-reduced
boundary value solves with expansion fits, deformation families with
their symmetrization and derivative reports, the harmonic-form dimension
tables, the blowup lift verification, and the standard-triple wedge
algebra.  Exit codes: 0 success, 1 usage error, 2 numerical failure or
the exact-degree cap reached, 3 broken exact identity.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import re
import sys
import tempfile
from fractions import Fraction

import numpy as np

from .cohomology import l2_hodge_table, moduli_dim
from .config import DEFAULT, Tolerances
from .forms import PMBasis
from .geometry import (curvature, metric_a, metric_calabi, metric_gh,
                       metric_model, ricci)
from .hk import (Triple, family_calabi_modulus, family_calabi_scaling,
                 family_semiflat, gauge_residual, q_map,
                 second_derivative_report, symmetrize)
from .indicial import (NotBTypeError, indicial_poly, indicial_roots,
                       weight_window)
from .modes import (BVProblem, ConvergenceError, Dirichlet, RadialGrid,
                    fit_decay_rate, fit_expansion, solve_bvp)
from .operators import blowup_lift, laplacian, project_modes, reduced_D00, \
    reduced_scalar_b, structure_fields
from .ratfun import DegreeOverflowError, RatFun

__all__ = ["cli_dispatch", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IDENTITY = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so usage failures map to
    exit code 1."""

    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _clean(obj):
    """Recursively convert results to JSON-friendly deterministic data:
    exact values to strings, arrays to nested float lists."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, RatFun):
        return str(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for k in obj:
            rows.extend(_flatten(obj[k], f"{prefix}.{k}" if prefix else k))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            rows.extend(_flatten(v, f"{prefix}[{i}]"))
    else:
        rows.append((prefix, obj))
    return rows


def _render(doc, fmt):
    doc = _clean(doc)
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["key", "value"])
    for key, value in _flatten(doc):
        writer.writerow([key, value])
    return out.getvalue()


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".alhlab-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_config_file(path) -> dict:
    overrides = {}
    try:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise _UsageError(f"config line without '=': {line!r}")
                key, _, raw = line.partition("=")
                raw = raw.strip()
                try:
                    value = int(raw)
                except ValueError:
                    try:
                        value = float(raw)
                    except ValueError:
                        value = raw
                overrides[key.strip()] = value
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}")
    return overrides


def _tolerances(args) -> Tolerances:
    overrides = {}
    if getattr(args, "config", None):
        overrides.update(_load_config_file(args.config))
    try:
        return DEFAULT.with_overrides(**overrides)
    except TypeError as exc:
        raise _UsageError(f"unknown tolerance override: {exc}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_METRICS = {"gh": metric_gh, "a": metric_a, "model": metric_model}

_METRIC_REFS = {
    "gh": "gibbons-hawking-model-metric",
    "a": "conformal-a-metric",
    "model": "cylindrical-model-metric",
}


def _cmd_curvature(args):
    name = args.metric
    if name.startswith("calabi:"):
        n = int(name.split(":", 1)[1])
        g = metric_calabi(n)
        ref = f"calabi-family-degree-{n}"
    elif name in _METRICS:
        g = _METRICS[name]()
        ref = _METRIC_REFS[name]
    else:
        raise _UsageError(f"unknown metric {name!r}")
    results = {"metric": name}
    warnings = []
    ric = ricci(g)
    zero = all(ric[i][j].is_zero() for i in range(4) for j in range(4))
    results["ricci_zero_exact"] = zero
    results["ricci"] = "0 (identically)" if zero else "nonzero"
    if name == "gh" and not zero:
        raise ArithmeticError("model metric failed exact Ricci-flatness")
    if not zero:
        results["ricci_nonzero_entries"] = sum(
            0 if ric[i][j].is_zero() else 1
            for i in range(4) for j in range(4))
    if args.exact and not zero:
        results["scalar"] = str(curvature(g)["scalar"])
    if args.at is not None:
        values = [Fraction(v) for v in args.at.split(",")]
        if len(values) != 4:
            raise _UsageError("--at needs four comma-separated coordinates")
        point = dict(zip(g.chart.variables, values))
        # the radial end x = lo is the singular boundary, not a point
        for v, box in g.chart.domain.items():
            if box is None:
                continue
            lo, hi = box
            radial = v == g.chart.radial
            if not (lo < point[v] if radial else lo <= point[v]) \
                    or point[v] > hi:
                raise _UsageError(
                    f"--at: {v} = {point[v]} lies outside the chart domain "
                    f"{'(' if radial else '['}{lo}, {hi}]")
        results["point"] = [str(v) for v in values]
        results["ricci_max_abs_at_point"] = max(
            abs(float(ric[i][j].evaluate(point)))
            for i in range(4) for j in range(4))
    return results, [ref, "curvature-pipeline"], warnings


_OPERATORS = {
    "scalar": reduced_scalar_b,
    "d00-even": lambda: reduced_D00("even"),
    "d00-odd": lambda: reduced_D00("odd"),
}


def _cmd_indicial(args):
    if args.operator not in _OPERATORS:
        raise _UsageError(f"unknown operator {args.operator!r}")
    op = _OPERATORS[args.operator]()
    roots = indicial_roots(indicial_poly(op))
    results = {
        "operator": args.operator,
        "roots": [{
            "root": str(r.root),
            "multiplicity": r.multiplicity,
            "nullvectors": [[str(c) for c in vec] for vec in r.nullvectors],
        } for r in roots],
    }
    if args.weights:
        window = weight_window(roots)
        results["weights"] = [str(w) for w in window.weights]
    refs = ["indicial-polynomial", f"reduced-operator-{args.operator}"]
    return results, refs, []


def _cmd_modes_solve(args):
    tol = _tolerances(args)
    try:
        m = tuple(int(v) for v in args.m.split(","))
    except ValueError:
        raise _UsageError("--m needs two comma-separated integers")
    if len(m) != 2:
        raise _UsageError("--m needs two comma-separated integers")
    if not math.isfinite(args.cutoff):
        raise _UsageError(f"--cutoff {args.cutoff!r} is not finite")
    grid = RadialGrid(n=args.grid)
    op = project_modes(laplacian(metric_a()), args.k, m, product_model=True)
    problem = BVProblem(op, grid, inner=Dirichlet.scalar(0.0),
                        outer=Dirichlet.scalar(1.0))
    u = solve_bvp(problem, tol)
    results = {
        "k": args.k, "m": list(m), "grid": grid.n,
        "x_min": grid.x_min, "x_max": grid.x_max,
        "outer_value": 1.0,
        "max_abs": float(np.max(np.abs(u.values))),
        "unknowns": int(u.values.size),
        "discrete_residual": u.residual,
    }
    warnings = []
    if args.fit:
        try:
            roots = indicial_roots(indicial_poly(op))
            fit = fit_expansion(u, roots, cutoff=args.cutoff, config=tol)
            results["fit"] = {
                "kind": "power-expansion",
                "exponents": [str(g) for g in fit.exponents],
                "coefficients": fit.coefficients[:, 0].tolist(),
                "residual": fit.residual,
                "slope": fit.slope,
                "flagged": fit.flagged,
            }
        except NotBTypeError:
            power = -1 if args.k == 0 else -2
            rate = fit_decay_rate(u, power, config=tol)
            results["fit"] = {
                "kind": "exponential-rate",
                "log_power": power,
                "coefficient": rate,
            }
            warnings.append("operator is not regular-singular at the "
                            "inner end; fitted an exponential rate")
    return results, ["product-model-mode-reduction"], warnings


_FAMILIES = ("calabi-scaling", "calabi-modulus", "sf-theta", "sf-y1",
             "sf-y2")
_SF_KINDS = {"sf-theta": "theta_twist", "sf-y1": "y1_twist",
             "sf-y2": "y2_twist"}


def _cmd_deform(args):
    if args.family not in _FAMILIES:
        raise _UsageError(f"unknown family {args.family!r}")
    params = [float(p) for p in args.param.split(",")]
    if not all(math.isfinite(p) for p in params):
        raise _UsageError(f"--param {args.param!r} is not finite")
    results = {"family": args.family}
    warnings = []
    if args.family == "calabi-scaling":
        if len(params) != 1:
            raise _UsageError("calabi-scaling takes one parameter")
        fam = family_calabi_scaling(params[0])
        results["alpha"] = params[0]
    elif args.family == "calabi-modulus":
        if len(params) != 2:
            raise _UsageError("calabi-modulus takes two parameters a,b")
        fam = family_calabi_modulus(params[0], params[1])
        results["alpha"] = params[0]
        results["beta"] = params[1]
    else:
        if len(params) != 1:
            raise _UsageError("semiflat families take one parameter c")
        c = params[0]
        A, B = family_semiflat(_SF_KINDS[args.family], c)
        U, A_sym, B_sym = symmetrize(A, B)
        results.update({
            "c": c, "A_raw": A, "B_raw": B, "rotation": U,
            "A_symmetric": A_sym, "B_symmetric": B_sym,
        })
        return results, ["semiflat-coframe-deformation",
                         "polar-symmetrization"], warnings
    report = second_derivative_report(fam)
    results["A_ddot"] = report["A_ddot"]
    results["B_dot"] = report["B_dot"]
    results["lambda_ddot"] = report["lambda_ddot"]
    if args.report_mm:
        results["mm_residual_printed"] = report["mm_residual_printed"]
        results["mm_residual_factor2"] = report["mm_residual_factor2"]
        warnings.append("second-order constraint residuals are reported "
                        "in both normalizations, not asserted")
    return results, ["deformation-family-derivatives"], warnings


def _cmd_cohomology(args):
    table = l2_hodge_table(args.b)
    total = moduli_dim(args.b)
    results = {
        "b": args.b,
        "table": [{"k": row.k, "label": row.label, "dim": row.dim}
                  for row in table],
        "moduli_total": int(total),
        "moduli_split": list(total.split),
    }
    warnings = ["perversity bracket index is read as a floor"]
    return results, ["harmonic-form-dimension-table",
                     "moduli-dimension-count"], warnings


_STAGE_RADIAL = {"b": "s", "c": "s_prime", "a": "S"}
_STAGE_JAC_POW = {"b": 1, "c": 2, "a": 3}


def _stage_x(stage, xt, u):
    if stage == "b":
        return xt * u
    if stage == "c":
        return xt * (1 + xt * u)
    return xt * (1 + xt * xt * u)


def _cmd_lift_check(args):
    rng = random.Random(args.seed)
    gens = structure_fields("a")
    twisted = structure_fields("a", twisted=True)[2]
    checks = 0
    mismatches = []

    def verify(label, got, want):
        nonlocal checks
        checks += 1
        if got != want:
            mismatches.append(label)

    for stage in ("b", "c", "a"):
        radial = _STAGE_RADIAL[stage]
        jac_pow = _STAGE_JAC_POW[stage]
        lifted_radial = blowup_lift(gens[0], stage)
        lifted_fibers = [blowup_lift(gens[i], stage) for i in (1, 2)]
        lifted_circle = blowup_lift(gens[3], stage)
        verify(f"{stage}:circle",
               lifted_circle.coefficients[3], RatFun.const(1))
        for _ in range(10):
            xt = Fraction(rng.randint(1, 9), rng.randint(10, 40))
            u = Fraction(rng.randint(1, 40), rng.randint(5, 20))
            x_val = _stage_x(stage, xt, u)
            pt = {"x": xt, radial: u}
            verify(f"{stage}:radial",
                   lifted_radial.coefficients[0].evaluate(pt),
                   x_val ** 3 / xt ** jac_pow)
            scale = xt if stage == "a" else Fraction(1)
            for idx, lifted in zip((1, 2), lifted_fibers):
                verify(f"{stage}:fiber{idx}",
                       lifted.coefficients[idx].evaluate(pt), x_val / scale)
    lifted_tw = blowup_lift(twisted, "a")
    for _ in range(10):
        xt = Fraction(rng.randint(1, 9), rng.randint(10, 40))
        S = Fraction(rng.randint(1, 40), rng.randint(5, 20))
        yt1 = Fraction(rng.randint(-10, 10), rng.randint(1, 7))
        Y1 = Fraction(rng.randint(-10, 10), rng.randint(1, 7))
        x_val = xt * (1 + xt * xt * S)
        pt = {"x": xt, "S": S, "y1": yt1, "Y1": Y1}
        verify("a:twisted-fiber",
               lifted_tw.coefficients[2].evaluate(pt), x_val / xt)
        verify("a:twisted-circle",
               lifted_tw.coefficients[3].evaluate(pt),
               -(x_val * (yt1 + xt * Y1)))
    if mismatches:
        raise ArithmeticError(
            f"lift identities broke at: {sorted(set(mismatches))}")
    results = {"checks": checks, "mismatches": 0, "all_exact": True,
               "stages": ["b", "c", "a"], "seed": args.seed}
    return results, ["projective-blowup-lifts",
                     "jacobian-pushforward-oracle"], []


def _cmd_triple_q(args):
    basis = PMBasis()
    triple = Triple.standard()
    q = q_map(triple, basis.volume_form())
    if not all(q[i][j].is_zero() for i in range(3) for j in range(3)):
        raise ArithmeticError("standard triple failed the wedge identity")
    eps = Fraction(1, 8)
    eta = Triple(tuple(w.scale(RatFun.const(eps)) for w in triple.forms))
    from .geometry import metric_gh_r
    res = gauge_residual(eta, triple, metric_gh_r())
    diag = [str(res[i][i]) for i in range(3)]
    off_zero = all(res[i][j].is_zero()
                   for i in range(3) for j in range(3) if i != j)
    results = {
        "q_standard_all_zero": True,
        "gauge_residual_epsilon": str(eps),
        "gauge_residual_diagonal": diag,
        "gauge_residual_offdiagonal_zero": off_zero,
    }
    return results, ["wedge-defect-map", "gauged-deformation-residual"], []


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="alhlab",
                     description="exact-symbolic and numerical toolkit "
                                 "for fibered-boundary model geometry")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", default=None,
                        help="write the artifact to this path atomically")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", default=None,
                        help="key=value file of tolerance overrides")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("curvature", help="exact curvature of a model metric")
    p.add_argument("--metric", required=True,
                   help="gh | a | model | calabi:N")
    p.add_argument("--at", default=None,
                   help="four comma-separated rational coordinates")
    p.add_argument("--exact", action="store_true")

    p = sub.add_parser("indicial", help="indicial roots and weights")
    p.add_argument("--operator", required=True,
                   help="scalar | d00-even | d00-odd")
    p.add_argument("--weights", action="store_true")

    p = sub.add_parser("modes", help="mode-reduced radial solves")
    modes_sub = p.add_subparsers(dest="modes_command")
    ps = modes_sub.add_parser("solve")
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--m", required=True, help="two integers m1,m2")
    ps.add_argument("--grid", type=int, default=800)
    ps.add_argument("--fit", action="store_true")
    ps.add_argument("--cutoff", type=float, default=-3.5,
                    help="weight cutoff for the expansion fit")

    p = sub.add_parser("deform", help="deformation families and reports")
    p.add_argument("--family", required=True,
                   help="calabi-scaling | calabi-modulus | sf-theta | "
                        "sf-y1 | sf-y2")
    p.add_argument("--param", required=True,
                   help="family parameters, comma separated")
    p.add_argument("--report-mm", action="store_true", dest="report_mm")

    p = sub.add_parser("cohomology", help="dimension tables")
    p.add_argument("--b", type=int, required=True)

    sub.add_parser("lift-check", help="blowup lift verification")
    sub.add_parser("triple-q", help="standard triple wedge algebra")
    return parser


_DISPATCH = {
    "curvature": _cmd_curvature,
    "indicial": _cmd_indicial,
    "deform": _cmd_deform,
    "cohomology": _cmd_cohomology,
    "lift-check": _cmd_lift_check,
    "triple-q": _cmd_triple_q,
}


def _attach_at_values(argv) -> list:
    """``--at VALUE`` as ``--at=VALUE`` when VALUE starts with a minus
    sign: argparse takes such a token for an option unless it is a plain
    negative number, and a coordinate list is not."""
    out = []
    for tok in argv:
        if out and out[-1] == "--at" and re.match(r"-[\d.]", tok):
            out[-1] = f"--at={tok}"
        else:
            out.append(tok)
    return out


def cli_dispatch(argv) -> tuple:
    """Run one subcommand; returns (exit code, emitted artifact text)."""
    parser = _build_parser()
    inputs_note = {}
    try:
        args = parser.parse_args(_attach_at_values(argv))
        if args.command is None:
            raise _UsageError("a subcommand is required")
        if args.command == "modes":
            if getattr(args, "modes_command", None) != "solve":
                raise _UsageError("modes requires the 'solve' subcommand")
            handler = _cmd_modes_solve
        else:
            handler = _DISPATCH[args.command]
        inputs_note = {k: v for k, v in vars(args).items()
                       if k not in ("command", "modes_command")
                       and v is not None}
        results, refs, warnings = handler(args)
    except _UsageError as exc:
        return EXIT_USAGE, f"usage error: {exc}\n"
    except (ConvergenceError, np.linalg.LinAlgError) as exc:
        doc = {"command": argv[:], "error": str(exc),
               "kind": "numerical-failure"}
        return EXIT_NUMERIC, json.dumps(doc, indent=2, sort_keys=True) + "\n"
    except DegreeOverflowError as exc:
        # a resource limit of the exact arithmetic, not a broken identity
        doc = {"command": argv[:], "error": str(exc),
               "kind": "degree-cap-exceeded"}
        return EXIT_NUMERIC, json.dumps(doc, indent=2, sort_keys=True) + "\n"
    except ArithmeticError as exc:
        doc = {"command": argv[:], "error": str(exc),
               "kind": "exact-identity-failure"}
        return EXIT_IDENTITY, json.dumps(doc, indent=2,
                                         sort_keys=True) + "\n"
    except ValueError as exc:
        return EXIT_USAGE, f"usage error: {exc}\n"
    doc = {
        "command": args.command if args.command != "modes"
        else "modes solve",
        "inputs": inputs_note,
        "results": results,
        "provenance": {"paper_refs": refs},
        "warnings": warnings,
    }
    text = _render(doc, args.format)
    if args.output:
        _atomic_write(args.output, text)
    return EXIT_OK, text


def main(argv=None) -> int:
    code, text = cli_dispatch(sys.argv[1:] if argv is None else argv)
    if code == EXIT_OK:
        sys.stdout.write(text)
    else:
        sys.stderr.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
