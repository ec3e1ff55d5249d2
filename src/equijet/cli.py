"""Command line driver: parse expressions, dispatch, serialize reports.

Every command prints a short human summary (including timing) followed by a
machine report; with ``--machine`` only the machine report is printed.  The
machine report is a JSON document with fixed key order, rationals rendered
as ``num/den`` strings and exponent vectors as integer arrays, and contains
nothing run-dependent, so identical inputs with the same order and seed
produce byte-identical reports.  The schema is documented in
``docs/report-schema.md``.

Exit codes: 0 success, 1 usage or syntax, 2 precondition, 3 inconclusive,
4 internal consistency.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .deform import SolutionFamily, binomial_family, verify_family
from .errors import EquijetError, UsageError
from .jets import DEFAULT_ORDER, Jet, VarContext, jet_to_text
from .mero import FactoredGerm, analyze, build_mero_deformation, emit_system
from .parser import parse_factored, parse_jet
from .pseudopoly import PseudoPolynomial, generalized_discriminants
from .scalars import Scalar, scalar_is_rational, scalar_to_text
from .tower import build_tower, build_tower_system, check_family
from .weierstrass import prepare_in, weierstrass_divide

ENV_ORDER = "EQUIJET_ORDER"
SCHEMA = "equijet-report/1"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def _parse_optional(self, arg_string):
        # every option but -h is long, so "-x2^2+x1^3" is an expression
        if (arg_string.startswith("-") and not arg_string.startswith("--")
                and arg_string not in self._option_string_actions):
            return None
        return super()._parse_optional(arg_string)


# -- serialization --------------------------------------------------------

def _scalar_entry(s: Scalar):
    if scalar_is_rational(s):
        return str(s)
    return {"value": scalar_to_text(s),
            "minpoly": [str(c) for c in s.field.minpoly]}


def _jet_entry(j: Jet) -> dict:
    terms = [{"exponents": list(key), "coefficient": _scalar_entry(coeff)}
             for key, coeff in j.graded_items()]
    return {"text": jet_to_text(j), "order": j.order, "exact": j.exact,
            "terms": terms}


def _poly_entry(P: PseudoPolynomial) -> dict:
    return {"variable": P.var, "degree": P.degree,
            "coefficients": [_jet_entry(c) for c in P.coeffs]}


def _level_entries(levels, axis: bool = False) -> list:
    """Tower levels; ``axis`` adds the family check's exactness flag."""
    out = []
    for lv in levels:
        entry = {
            "index": lv.index,
            "degree": lv.degree,
            "disc_index": lv.disc_index,
            "poly": _poly_entry(lv.poly),
            "unit": _jet_entry(lv.unit),
            "change": lv.change.describe(),
        }
        if axis:
            entry["axis_vanishing_exact"] = lv.axis_vanishing_exact
        out.append(entry)
    return out


# -- shared argument handling ----------------------------------------------

def _add_common(p: _Parser, vars_required: bool = True):
    p.add_argument("--vars", required=vars_required, default="",
                   help="comma-separated coordinate names, innermost first")
    p.add_argument("--params", default="",
                   help="comma-separated deformation parameter names")
    # the default comes from the environment on every call of ``main``
    p.add_argument("--order", type=_non_negative_int,
                   help=f"certification order (default {DEFAULT_ORDER}, env {ENV_ORDER})")
    p.add_argument("--seed", type=int, default=0, help="seed for coordinate searches")
    p.add_argument("--machine", action="store_true",
                   help="print only the machine report")


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _names(csv: str) -> Tuple[str, ...]:
    return tuple(n.strip() for n in csv.split(",") if n.strip())


def _context(args) -> VarContext:
    coords = _names(args.vars)
    params = _names(args.params)
    if not coords:
        raise UsageError("at least one coordinate is required (--vars)")
    return VarContext.make(coords, params)


def _rationals(csv: str) -> List[Fraction]:
    out = []
    for part in csv.split(","):
        part = part.strip()
        if part:
            try:
                out.append(Fraction(part))
            except (ValueError, ZeroDivisionError):
                raise UsageError(f"not a rational value: {part!r}") from None
    return out


_ENCODE = json.encoder.encode_basestring_ascii


def _report_text(report: dict) -> str:
    """``json.dumps(report, indent=2)``, byte for byte, without the
    pure-Python encoder that an ``indent`` makes ``json`` fall back to.
    A report holds strings, integers, booleans, None, lists, tuples and
    dicts with string keys; anything else is a ``TypeError``."""
    out: List[str] = []
    _write_json(report, "\n", out)
    return "".join(out)


def _write_json(value, newline: str, out: List[str]) -> None:
    """Append ``value`` at the nesting that ``newline`` (a line break and
    the indent of the current line) gives: strings through the C escaper
    of ``json``, integers by ``int.__repr__``, containers one item a
    line, two spaces deeper."""
    if isinstance(value, str):
        out.append(_ENCODE(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            out.append(sep)
            out.append(_ENCODE(key))
            out.append(": ")
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _input_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _report(command: str, inputs: dict, args, result: dict) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "input_sha256": _input_hash(inputs),
        "order": args.order,
        "seed": args.seed,
        "result": result,
    }


# -- command implementations -------------------------------------------------

def _cmd_prepare(args) -> Tuple[dict, List[str], int]:
    ctx = _context(args)
    f = parse_jet(args.expr, ctx, args.order)
    pf, change = prepare_in(f, args.var, ctx.coords, seed=args.seed)
    result = {
        "variable": args.var,
        "change": change.describe(),
        "unit": _jet_entry(pf.unit),
        "poly": _poly_entry(pf.poly),
        "exact": pf.exact,
    }
    human = [f"prepared in {args.var}: degree {pf.poly.degree}, unit {pf.unit}",
             f"distinguished polynomial: {pf.poly}"]
    return result, human, 0


def _cmd_divide(args) -> Tuple[dict, List[str], int]:
    ctx = _context(args)
    g = parse_jet(args.dividend, ctx, args.order)
    f = parse_jet(args.divisor, ctx, args.order)
    q, r = weierstrass_divide(g, f, args.var)
    result = {"variable": args.var, "quotient": _jet_entry(q), "remainder": _jet_entry(r)}
    human = [f"quotient: {q}", f"remainder: {r}"]
    return result, human, 0


def _cmd_gendisc(args) -> Tuple[dict, List[str], int]:
    ctx = _context(args)
    f = parse_jet(args.expr, ctx, args.order)
    P = PseudoPolynomial.from_jet(f, args.var)
    gd = generalized_discriminants(P)
    result = {
        "variable": args.var,
        "degree": gd.degree,
        "entries": [_jet_entry(e) for e in gd.entries],
        "first_nonzero": gd.first_nonzero,
        "certified": gd.certified,
        "uncertified_below": list(gd.uncertified_below),
    }
    human = [f"degree {gd.degree}, first nonzero index {gd.first_nonzero}"
             + ("" if gd.certified else " (vanishing below is only modulo the order)")]
    code = 0 if gd.certified else 3
    return result, human, code


def _cmd_tower(args) -> Tuple[dict, List[str], int]:
    ctx = _context(args)
    jets = [parse_jet(e, ctx, args.order) for e in args.exprs]
    tw = build_tower(jets[0], seed=args.seed) if len(jets) == 1 \
        else build_tower_system(jets, seed=args.seed)
    result = {
        "kind": tw.kind,
        "degrees": list(tw.degree_sequence),
        "indices": list(tw.index_sequence),
        "levels": _level_entries(tw.levels),
        "terminal_index": tw.terminal_index,
        "terminal_disc_index": tw.terminal_disc_index,
        "terminal_unit": _jet_entry(tw.terminal_unit),
        "caveats": list(tw.caveats),
        "factors": None if tw.factors is None else [_poly_entry(p) for p in tw.factors],
    }
    human = [f"tower degrees {tw.degree_sequence}, discriminant indices {tw.index_sequence}",
             f"termination: {tw.kind}, terminal unit {tw.terminal_unit}"]
    return result, human, 0


def _cmd_check_family(args) -> Tuple[dict, List[str], int]:
    ctx = _context(args)
    if not ctx.params:
        raise UsageError("check-family needs at least one parameter (--params)")
    F = parse_jet(args.expr, ctx, args.order)
    rep = check_family(F, seed=args.seed)
    result = {
        "verdict": rep.verdict,
        "levels": _level_entries(rep.levels, axis=True),
        "witness": None if rep.witness is None else _jet_entry(rep.witness),
        "witness_note": rep.witness_note,
        "terminal_unit": None if rep.terminal_unit is None else _jet_entry(rep.terminal_unit),
        "uncertified": list(rep.uncertified),
        "scope_note": rep.scope_note,
    }
    human = [f"verdict: {rep.verdict}"]
    if rep.witness is not None:
        human.append(f"witness: {rep.witness}")
    code = 3 if rep.verdict == "inconclusive" else 0
    return result, human, code


def _cmd_verify_family(args) -> Tuple[dict, List[str], int]:
    x_names = _names(args.vars)
    y_names = _names(args.yvars)
    z_names = _names(args.zvars)
    if not x_names or not y_names:
        raise UsageError("verify-family needs --vars and --yvars")
    sys_ctx = VarContext.make(x_names + y_names)
    fam_ctx = VarContext.make(x_names + z_names)
    x_ctx = VarContext.make(x_names)
    sf = SolutionFamily(
        x_names=x_names, y_names=y_names, z_names=z_names,
        system=tuple(parse_jet(e, sys_ctx, args.order) for e in args.eq or ()),
        family=tuple(parse_jet(e, fam_ctx, args.order) for e in args.sol or ()),
        witness=tuple(parse_jet(e, x_ctx, args.order) for e in args.witness or ()),
        target=tuple(parse_jet(e, x_ctx, args.order) for e in args.target or ()))
    rep = verify_family(sf, args.order)
    result = {
        "equations_hold": rep.equations_hold,
        "target_hit": rep.target_hit,
        "passed": rep.passed,
        "equation_residuals": [_jet_entry(r) for r in rep.equation_residuals],
        "target_residuals": [_jet_entry(r) for r in rep.target_residuals],
        "residual_order": rep.order,
    }
    human = [f"equations hold: {rep.equations_hold}; target hit: {rep.target_hit}"]
    return result, human, 0


def _cmd_binomial(args) -> Tuple[dict, List[str], int]:
    ctx = _context(args)
    if len(ctx.names) != 1:
        raise UsageError("binomial expects exactly one variable")
    y1 = parse_jet(args.y1, ctx, args.order)
    y2 = parse_jet(args.y2, ctx, args.order)
    # both targets are parsed at --order, so the family was verified at it
    sf, rep = binomial_family(y1, y2)
    result = {
        "family": [_jet_entry(c) for c in sf.family],
        "witness": [_jet_entry(w) for w in sf.witness],
        "verified": rep.passed,
        "equation_residuals": [_jet_entry(r) for r in rep.equation_residuals],
        "target_residuals": [_jet_entry(r) for r in rep.target_residuals],
    }
    human = [f"family: ({', '.join(str(c) for c in sf.family)})",
             f"witness: {sf.witness[0]}", f"verified: {rep.passed}"]
    return result, human, 0


def _germ_args(args) -> Tuple[FactoredGerm, FactoredGerm, VarContext]:
    names = _names(args.vars) if args.vars else ("x1", "x2")
    if len(names) != 2:
        raise UsageError("meromorphic analysis needs exactly two variables")
    ctx = VarContext.make(names)
    f = FactoredGerm.build(parse_factored(args.f, ctx, args.order))
    g = FactoredGerm.build(parse_factored(args.g, ctx, args.order))
    return f, g, ctx


def _record_entry(rec) -> dict:
    return {
        "h": _jet_entry(rec.h),
        "c": _scalar_entry(rec.c),
        "mu": rec.mu,
        "rho": _jet_entry(rec.rho),
        "minpoly": None if rec.minpoly is None else [str(c) for c in rec.minpoly],
    }


def _cmd_mero_analyze(args) -> Tuple[dict, List[str], int]:
    f, g, ctx = _germ_args(args)
    candidates = [parse_jet(c, ctx, args.order) for c in (args.candidate or ())]
    an = analyze(f, g, candidates=candidates)
    result = {
        "theta": {"dx1": _jet_entry(an.theta.a), "dx2": _jet_entry(an.theta.b)},
        "records": [_record_entry(r) for r in an.records],
        "informational": [_record_entry(r) for r in an.informational],
        "omega": {"dx1": _jet_entry(an.omega.a), "dx2": _jet_entry(an.omega.b)},
        "reality": an.reality,
        "e": an.e,
    }
    human = [f"{an.e} divisor record(s); reality: {an.reality}"]
    for rec in an.records:
        human.append(f"  h = {rec.h}; c = {scalar_to_text(rec.c)}; mu = {rec.mu}")
    return result, human, 0


def _cmd_emit_system(args) -> Tuple[dict, List[str], int]:
    f, g, ctx = _germ_args(args)
    an = analyze(f, g)
    sysS = emit_system(an)
    equations = [{
        "lhs": _jet_entry(lhs),
        "rhs": _jet_entry(rhs),
        "constant": _scalar_entry(rec.c),
        "mu": rec.mu,
    } for (lhs, rhs), rec in zip(sysS.equations, an.records)]
    # emit_system raises unless the reference solution satisfies every equation
    result = {
        "y1": list(sysS.y1_names), "y2": list(sysS.y2_names),
        "y3": list(sysS.y3_names), "y4": list(sysS.y4_names),
        "f_exponents": [exp for _, exp in f.factors],
        "g_exponents": [exp for _, exp in g.factors],
        "equations": equations,
        "solution": [_jet_entry(s) for s in sysS.solution],
        "verified": True,
    }
    human = [f"{len(equations)} equation(s), reference solution verified: True"]
    for eq in equations:
        human.append(f"  {eq['lhs']['text']} = {eq['rhs']['text']}")
    return result, human, 0


def _cmd_mero_deform(args) -> Tuple[dict, List[str], int]:
    f, g, ctx = _germ_args(args)
    an = analyze(f, g)
    sysS = emit_system(an)
    z_names = _names(args.zvars)
    x_names = ctx.names
    y_names = sysS.y_ctx.names
    sys_ctx = VarContext.make(x_names + y_names)
    system = tuple((lhs - rhs).in_context(sys_ctx) for lhs, rhs in sysS.equations)
    if z_names:
        fam_ctx = VarContext.make(x_names + z_names)
        fam = tuple(parse_jet(e, fam_ctx, args.order) for e in args.fam or ())
        witness = tuple(parse_jet(e, ctx, args.order) for e in args.witness or ())
    else:
        # the reference solution stated at --order, like a family parsed with --zvars
        fam = tuple(s.in_context(ctx).with_order(args.order) if s.exact else s.in_context(ctx)
                    for s in sysS.solution)
        witness = ()
    family = SolutionFamily(
        x_names=x_names, y_names=y_names, z_names=z_names,
        system=system, family=fam, witness=witness,
        target=tuple(s.in_context(ctx) for s in sysS.solution))
    grid = _rationals(args.t) if args.t else [Fraction(0), Fraction(1)]
    rep = build_mero_deformation(an, family, grid, k0=args.k0)
    result = {
        "k0": rep.k0,
        "slices": [{
            "t": _scalar_entry(sl.t_value),
            "division_exact": sl.division_exact,
            "isolated_singularity": sl.isolated_singularity,
            "reproduces_quotient": sl.reproduces_quotient,
            "polynomial_data": sl.polynomial_data,
            "note": sl.note,
        } for sl in rep.slices],
    }
    human = [f"{len(rep.slices)} slice(s) at k0 = {rep.k0}"]
    for sl in rep.slices:
        human.append(f"  t = {scalar_to_text(sl.t_value)}: division exact {sl.division_exact}, "
                     f"isolated {sl.isolated_singularity}")
    return result, human, 0


# -- driver -------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _build_argparser() -> Tuple[_Parser, List[_Parser]]:
    """The parser and its command parsers, built on the first call and
    shared by the later ones."""
    top = _Parser(prog="equijet", description="exact equisingularity toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="Weierstrass preparation")
    p.add_argument("expr")
    p.add_argument("--var", required=True)
    _add_common(p)

    p = sub.add_parser("divide", help="Weierstrass division")
    p.add_argument("dividend")
    p.add_argument("divisor")
    p.add_argument("--var", required=True)
    _add_common(p)

    p = sub.add_parser("gendisc", help="generalized discriminants of a monic polynomial")
    p.add_argument("expr")
    p.add_argument("--var", required=True)
    _add_common(p)

    p = sub.add_parser("tower", help="equisingularity ladder of a germ or system")
    p.add_argument("exprs", nargs="+")
    _add_common(p)

    p = sub.add_parser("check-family", help="Zariski equisingularity of a family")
    p.add_argument("expr")
    _add_common(p)

    p = sub.add_parser("verify-family", help="verify a parametrized solution family")
    p.add_argument("--eq", action="append", help="system equation (repeatable)")
    p.add_argument("--sol", action="append", help="family component (repeatable)")
    p.add_argument("--witness", action="append", help="witness series (repeatable)")
    p.add_argument("--target", action="append", help="target series (repeatable)")
    p.add_argument("--yvars", default="", help="solution variable names")
    p.add_argument("--zvars", default="", help="auxiliary variable names")
    _add_common(p)

    p = sub.add_parser("binomial", help="binomial solution family through a target")
    p.add_argument("y1")
    p.add_argument("y2")
    _add_common(p)

    p = sub.add_parser("mero-analyze", help="1-form divisor analysis of f/g")
    p.add_argument("--f", required=True, help="factored numerator, e.g. (x1)*(x2)")
    p.add_argument("--g", required=True, help="factored denominator, e.g. (x1+x2)^2")
    p.add_argument("--candidate", action="append", help="candidate divisor (repeatable)")
    _add_common(p, vars_required=False)

    p = sub.add_parser("emit-system", help="emit the polynomial system of an analysis")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    _add_common(p, vars_required=False)

    p = sub.add_parser("mero-deform", help="slice the interpolated family")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--k0", type=_non_negative_int, default=4)
    p.add_argument("--t", default="", help="comma-separated rational parameter values")
    p.add_argument("--zvars", default="")
    p.add_argument("--fam", action="append", help="family component (repeatable)")
    p.add_argument("--witness", action="append", help="witness series (repeatable)")
    _add_common(p, vars_required=False)

    return top, list(sub.choices.values())


_DISPATCH = {
    "prepare": _cmd_prepare,
    "divide": _cmd_divide,
    "gendisc": _cmd_gendisc,
    "tower": _cmd_tower,
    "check-family": _cmd_check_family,
    "verify-family": _cmd_verify_family,
    "binomial": _cmd_binomial,
    "mero-analyze": _cmd_mero_analyze,
    "emit-system": _cmd_emit_system,
    "mero-deform": _cmd_mero_deform,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    started = time.monotonic()
    try:
        parser, commands = _build_argparser()
        # a string default goes through ``type`` too, so a bad environment
        # value is a usage error like a bad flag
        order = os.environ.get(ENV_ORDER, str(DEFAULT_ORDER))
        for command in commands:
            command.set_defaults(order=order)
        args = parser.parse_args(argv)
        result, human, code = _DISPATCH[args.command](args)
        inputs = {k: v for k, v in sorted(vars(args).items())
                  if k != "machine" and v is not None}
        report = _report(args.command, inputs, args, result)
        text = _report_text(report) + "\n"
        if args.machine:
            sys.stdout.write(text)
        else:
            for line in human:
                print(line)
            print(f"elapsed: {time.monotonic() - started:.3f}s")
            print("--- machine report ---")
            sys.stdout.write(text)
        return code
    except EquijetError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
