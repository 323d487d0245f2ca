"""Command-line interface.

Every subcommand is a thin shell over the library operations.  Output goes
through a fixed envelope {tool_version, command, inputs, result, warnings};
`--format json` prints it as JSON with stable key order, `--format text`
renders a short human-readable view of the result payload.

Exit codes: 0 success, 1 computation error, 2 usage error, 3 a `verify`
run whose report, printed in full, has a summary count below the trial
count.  A computation error is one of the package's errors (a `ValueError`
subclass, an `ArithmeticError` or a `VerifyError`) or an `OSError` reading
`--input`; any other exception is a fault and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .cfrac import continued_fraction, convergents
from .curves import generic_member_g1, generic_member_g2, parse_series, polar
from .genus1 import polar_model_g1
from .genus2 import classify_nondegenerate, polar_model_g2
from .newton import is_nondegenerate, newton_polygon
from .puiseux import InsufficientDepthError, intersection_numeric, puiseux_expand
from .verify import SampleConfig, VerifyError, run_verification


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not 0 < tol < math.inf:  # also false for nan
        raise argparse.ArgumentTypeError(f"tolerance must be positive and finite: {text!r}")
    return tol


def _nonnegative(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"not a nonnegative integer: {text!r}")
    return int(text)


def _semigroup(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}") from exc


def _polygon_payload(poly) -> dict:
    return {
        "vertices": [list(v) for v in poly.vertices()],
        "sides": [
            {
                "from": list(s.from_pt),
                "to": list(s.to_pt),
                "lattice_points": [list(p) for p in s.lattice_points],
                "n": s.n,
                "m": s.m,
                "gcd": s.d,
            }
            for s in poly.sides
        ],
    }


def _topology_payload(report) -> dict:
    return {
        "branches": [{"a0": c.a0, "a1": c.a1, "count": c.count} for c in report.branches],
        "intersections": [list(row) for row in report.intersections],
    }


def _locus_payload(locus) -> dict:
    if all(len(g) == 1 for g in locus.groups):
        return {"generators": [g[0].render() for g in locus.groups]}
    return {
        "generators": None,
        "generator_groups": [[p.render() for p in g] for g in locus.groups],
    }


def _read_series(args):
    if args.expr is not None:
        return parse_series(args.expr)
    with open(args.input, "r", encoding="utf-8") as fh:
        return parse_series(fh.read())


def _cmd_cf(args):
    cf = continued_fraction(args.q, args.p)
    return {
        "h": list(cf.h),
        "s": cf.s,
        "convergents": [[p, q] for (p, q) in convergents(cf)],
    }, []


def _cmd_family(args):
    if args.kind == "g1":
        fam = generic_member_g1(args.p, args.q, args.bound)
        return {
            "p": args.p,
            "q": args.q,
            "weight_bound": fam.weight_bound,
            "coeff_vars": [v.name for v in fam.coeff_vars],
            "generic": fam.generic.render(),
        }, []
    fam = generic_member_g2(args.p, args.q, args.d, e1=args.e1, weight_bound=args.bound)
    return {
        "p": args.p,
        "q": args.q,
        "d": args.d,
        "e1": fam.e1,
        "i0": fam.class_var.i,
        "j0": fam.class_var.j,
        "weight_bound": fam.weight_bound,
        "a_vars": [v.name for v in fam.coeff_vars if v.kind == "aij"],
        "b_vars": [v.name for v in fam.coeff_vars if v.kind == "bij"],
    }, []


def _cmd_polar(args):
    return {"polar": polar(_read_series(args), args.a, args.b).render()}, []


def _cmd_polygon(args):
    series = _read_series(args)
    return _polygon_payload(newton_polygon(series)), []


def _cmd_nondeg(args):
    series = _read_series(args)
    report = is_nondegenerate(series)
    return {
        "verdict": report.verdict,
        "sides": [
            {
                "from": list(v.side.from_pt),
                "to": list(v.side.to_pt),
                "squarefree": v.squarefree,
                "path": v.path,
                "associated": v.associated.render(),
            }
            for v in report.sides
        ],
    }, []


def _model(args):
    if args.kind == "g1":
        return polar_model_g1(args.p, args.q)
    return polar_model_g2(args.p, args.q, args.d)


def _cmd_locus(args):
    return _locus_payload(_model(args).locus), []


def _cmd_topology(args):
    model = _model(args)
    payload = _topology_payload(model.topology)
    payload["predicted_polygon"] = _polygon_payload(model.predicted_polygon())
    return payload, []


def _cmd_classify(args):
    res = classify_nondegenerate(args.semigroup)
    return {
        "semigroup": args.semigroup,
        "nondegenerate_general_polar": res.nondegenerate,
        "genus": res.genus,
        "reason": res.reason,
    }, []


def _cmd_puiseux(args):
    series = _read_series(args)
    branches = puiseux_expand(series, depth=args.depth, min_order=args.min_order)
    payload = {"branches": [], "intersections": []}
    warnings = []
    flat = []
    for br, mult in branches:
        flat.append(br)
        payload["branches"].append({
            "ramification": br.n,
            "multiplicity": mult,
            "terms": [[str(e), c.real, c.imag] for (e, c) in br.terms],
            "char_exponents": list(br.char_exponents),
            "genus": br.genus,
            "semigroup": list(br.semigroup) if br.semigroup else None,
        })
    for i in range(len(flat)):
        for j in range(i + 1, len(flat)):
            try:
                value = intersection_numeric(flat[i], flat[j], tol=args.tol)
            except InsufficientDepthError:
                value = None
                warnings.append(
                    f"intersection of branches {i} and {j} needs more terms; rerun with --min-order"
                )
            payload["intersections"].append({"pair": [i, j], "value": value})
    return payload, warnings


def _cmd_verify(args):
    family = (args.p, args.q) if args.kind == "g1" else (args.p, args.q, args.d)
    cfg = SampleConfig(family=family, seed=args.seed, trials=args.trials,
                       coeff_range=args.range, puiseux_crosscheck=args.puiseux_crosscheck)
    return run_verification(cfg), []


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="polarnewton",
                                  description="Newton polygons and topology of general polar curves")
    top.add_argument("--format", choices=("text", "json"), default="text")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cf", help="continued fraction of q/p with convergents")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=_cmd_cf)

    def add_family_command(name, func, help_text):
        """A subcommand with g1 (--p, --q) and g2 (--p, --q, --d) variants."""
        kinds = sub.add_parser(name, help=help_text).add_subparsers(dest="kind", required=True)
        variants = []
        for kind in ("g1", "g2"):
            g = kinds.add_parser(kind)
            g.add_argument("--p", type=int, required=True)
            g.add_argument("--q", type=int, required=True)
            if kind == "g2":
                g.add_argument("--d", type=int, required=True)
            g.set_defaults(func=func, kind=kind)
            variants.append(g)
        return variants

    g1, g2 = add_family_command("family", _cmd_family, "generic family member data")
    g2.add_argument("--e1", type=int, default=2)
    for g in (g1, g2):
        g.add_argument("--bound", type=int, default=None)

    def add_series_input(cmd):
        source = cmd.add_mutually_exclusive_group(required=True)
        source.add_argument("--input", help="file with a curve expression")
        source.add_argument("--expr", help="curve expression")

    p = sub.add_parser("polar", help="polar series a*fx + b*fy")
    add_series_input(p)
    p.add_argument("--a", type=_fraction, default=None)
    p.add_argument("--b", type=_fraction, default=None)
    p.set_defaults(func=_cmd_polar)

    p = sub.add_parser("polygon", help="Newton polygon of a series")
    add_series_input(p)
    p.set_defaults(func=_cmd_polygon)

    p = sub.add_parser("nondeg", help="per-side squarefree verdicts")
    add_series_input(p)
    p.set_defaults(func=_cmd_nondeg)

    add_family_command("locus", _cmd_locus, "normalized degeneracy locus generators")
    add_family_command("topology", _cmd_topology, "predicted branch classes and intersections")

    p = sub.add_parser("classify", help="does the class have nondegenerate general polars?")
    p.add_argument("--semigroup", type=_semigroup, required=True, help="comma-separated minimal generators")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("puiseux", help="numeric branch expansions with invariants")
    add_series_input(p)
    p.add_argument("--depth", type=_nonnegative, default=0,
                   help="steps past separation, at least 2*ramification")
    p.add_argument("--min-order", type=_nonnegative, default=None, dest="min_order")
    p.add_argument("--tol", type=_tolerance, default=1e-8)
    p.set_defaults(func=_cmd_puiseux)

    for g in add_family_command("verify", _cmd_verify, "sampled verification of the predictions"):
        g.add_argument("--trials", type=int, default=10)
        g.add_argument("--seed", type=int, default=42)
        g.add_argument("--range", type=int, default=10)
        g.add_argument("--puiseux-crosscheck", action="store_true")

    return top


def _render_text(payload, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)) and value and not _is_flat(value):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_flat_repr(value)}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)) and value and not _is_flat(value):
                lines.append(f"{pad}-")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {_flat_repr(value)}")
    else:
        lines.append(f"{pad}{_flat_repr(payload)}")
    return lines


def _is_flat(value):
    if isinstance(value, list):
        return all(not isinstance(v, (dict, list)) for v in value)
    return False


def _flat_repr(value):
    if isinstance(value, list):
        return "[" + ", ".join(str(v) for v in value) + "]"
    return str(value)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    inputs = {k: v for k, v in vars(args).items()
              if k not in ("func", "format") and v is not None and not callable(v)}
    try:
        result, warnings = args.func(args)
    except BrokenPipeError:
        raise
    except (ValueError, ArithmeticError, VerifyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    envelope = {
        "tool_version": __version__,
        "command": args.command,
        "inputs": inputs,
        "result": result,
        "warnings": warnings,
    }
    if args.format == "json":
        print(json.dumps(envelope, indent=2, sort_keys=False, default=str))
    else:
        print("\n".join(_render_text(result)))
        for w in warnings:
            print(f"warning: {w}")
    if args.command == "verify" and min(result["summary"].values()) < result["summary"]["trials"]:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
