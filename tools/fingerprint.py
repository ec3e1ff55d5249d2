"""Fingerprint every output of a benchmark workload, to check that a change
leaves the program's results as they were.

Run from any directory::

    python3 tools/fingerprint.py --root DIR --workload cli --seeds 3,11,21

``DIR`` is a checkout of equijet; the jobs and the program both come from
it (``DIR/bench/workloads.py``, read only, and ``DIR/src``), and for ``cli``
the corpus fixtures too (``DIR/corpus``; without them the tool exits 2).  Every job of
each seed is run once, the known-defect probe jobs included, and one line
``seed index label hash`` is printed per job, then ``total hash``.  The hash
covers the whole output: the terms, order and exactness flag of every jet,
every other field of the result objects, and the type and message of a
raised error; for a CLI job, the exit code and the printed text without its
``elapsed:`` lines.  Comparing two checkouts is one ``diff``::

    diff <(python3 tools/fingerprint.py --root OLD --workload cli --seeds 3) \\
         <(python3 tools/fingerprint.py --root NEW --workload cli --seeds 3)

The workload ``systems`` is not one of the benchmark's: its jobs come from
this tool, so ``DIR`` may be any checkout that has ``src``.  Each seed draws
:data:`SYSTEMS_DRAWS` ``tower`` commands on systems of 1-3 germs in 1-3
coordinates at orders 6-12, half of them with a term beyond the order (so
that the input is truncated).  Each runs in-process through ``cli.main``
and is hashed by its exit code, its stdout and its stderr, both without
their ``elapsed:`` lines.

The workload ``mero`` is the tool's too.  Each seed draws
:data:`MERO_DRAWS` ``mero-analyze``, ``emit-system`` and ``mero-deform``
commands (in turn) on germs of 1-2 generic curves through the origin each
(:func:`mero_base`), some of them squared, at orders 4-8; an analysis may
name a candidate divisor, a deformation a ``--k0`` and a grid of ``t``.
They run and are hashed as the ``systems`` commands are.  About half of
them end in exit 2 (shared or repeated factors); the rest reach the gcds,
the 1-form and the divisor analysis of ``mero``.  Then it draws
:data:`MERO_FAMILY_DRAWS` ``mero-deform --zvars z`` commands on the
translation family of ``tests/golden/mero_deform_family.args``, the
components ``x1, x2, x1 + x2, x1 - x2, -1/4`` of the germ
``(x1)*(x2) / (x1+x2)^2`` shifted by ``z - w``
(:func:`translation_family_argv`): the witness ``w`` has 1-3 terms of degree
1 to ``order + 1`` in ``x1, x2`` (so that some slices are truncated), with
a drawn ``--k0`` of 0-4, a grid of ``t`` that holds 0 and repeats, and an
order of 5-12.

The workload ``resultants`` is the tool's too, and runs in process.  Each
seed draws :data:`RESULTANTS_DRAWS` pairs of polynomials in ``y`` over
``x1, x2`` (:func:`resultants_jobs`), of degree 0-3 in ``y`` (0, a constant
operand, on either side, about one time in three each), with integer,
rational or ``Q(alpha)`` coefficients (``alpha^2 = 2``), each operand exact
at a finite order, exact at every order, truncated, or now and then zero.
Each job is one ``resultant_jets(A, B, "y")`` call, hashed by its jet or
its error.  No benchmark workload draws a constant operand, a ``Q(alpha)``
entry or a truncated rational pair; this one checks that a change to the
determinant or the resultant leaves them as they were.

The workload ``parse`` is the tool's too, and runs in process.  Each seed
draws :data:`PARSE_DRAWS` texts in ``t, x1, x2`` (:func:`parse_jobs`):
integer, big-integer and rational literals, sums, products, negations and
powers (nested, and past the order now and then), joined by spaces,
newlines and tabs, at orders 0-12.  About one text in five is then broken
(:func:`broken_text`): an unexpected ASCII or non-ASCII character, a
doubled or missing operator, a power of a rational literal, a zero
denominator, an unknown or non-ASCII name.  Each job parses its text with
``parse_jet`` and ``parse_factored`` and is hashed by the two results, or
by its error's type, message, line and column.

The workload ``degrees`` is the tool's too, and reaches degrees above the
benchmark's 6.  Each seed draws exact ``gendisc`` commands on monic ``P`` in
``y`` over ``x1, x2`` (:func:`degrees_jobs`): one split ``P`` of each degree
3-7 with distinct roots ``a*x1 + b*x2 +- x1^2`` (``a, b`` from -3 to 3),
:data:`DEGREES_REPEATED` of degree 4-6 with a repeated root, and
:data:`DEGREES_CUSPS` cusps ``y^p - x1^q``, each at an order above its total
degree, so that the input is exact.  They run and are hashed as the
``systems`` commands are.  The degree-7 commands take a few seconds each.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path


def canon(x):
    """A JSON-ready value that determines ``x`` up to object identity."""
    from equijet.jets import Jet
    from equijet.scalars import FieldElement

    if isinstance(x, Jet):
        # a rational coefficient by its value: 3 and Fraction(3) hash alike
        return ["Jet", list(x.ctx.names), x.ctx.n_params, str(x.order), x.exact,
                [[list(k), str(v) if isinstance(v, (int, Fraction)) else canon(v)]
                 for k, v in x.graded_items()]]
    if isinstance(x, BaseException):
        return ["error", type(x).__name__, str(x)]
    if isinstance(x, str):
        return "\n".join(line for line in x.split("\n") if not line.startswith("elapsed:"))
    if x is None or isinstance(x, (bool, int)):
        return x
    if isinstance(x, (float, Fraction)):
        return str(x)
    if isinstance(x, FieldElement):
        return ["FieldElement", [str(c) for c in x.coeffs], [str(c) for c in x.field.minpoly]]
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, dict):
        return ["dict", [[canon(k), canon(v)] for k, v in x.items()]]
    if dataclasses.is_dataclass(x):
        return [type(x).__name__] + [[f.name, canon(getattr(x, f.name))]
                                     for f in dataclasses.fields(x)]
    if hasattr(type(x), "__slots__"):
        return [type(x).__name__] + [[s, canon(getattr(x, s))] for s in type(x).__slots__]
    raise TypeError(f"no fingerprint for a {type(x).__name__}")


SYSTEMS_DRAWS = 300


def germ_text(rng: random.Random, names, order: int, beyond: bool) -> str:
    """A few terms of total degree 1-5 in ``names``, one in seven of them
    with a constant term (a unit entry); ``beyond`` adds a term of degree at
    least ``order``."""
    terms = ["1"] if rng.random() < 1 / 7 else []
    degrees = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
    if beyond:
        degrees.append(order + rng.randint(0, 2))
    for degree in degrees:
        exps = [0] * len(names)
        for _ in range(degree):
            exps[rng.randrange(len(names))] += 1
        mono = "*".join(f"{n}^{e}" for n, e in zip(names, exps) if e)
        terms.append(f"({rng.choice((-3, -2, -1, 1, 2, 3))})*{mono}")
    return " + ".join(terms)


def systems_commands(seed: int):
    """``(label, argv)`` for the seeded ``tower`` commands of one seed."""
    rng = random.Random(f"systems:{seed}")
    commands = []
    for _ in range(SYSTEMS_DRAWS):
        names = [f"x{k}" for k in range(1, rng.randint(1, 3) + 1)]
        order = rng.randint(6, 12)
        count = rng.randint(1, 3)
        beyond = rng.randrange(2 * count)  # an entry index, or no entry
        exprs = [germ_text(rng, names, order, k == beyond) for k in range(count)]
        argv = ["tower", *exprs, "--vars", ",".join(names), "--order", str(order)]
        commands.append((f"systems/{len(names)}v/{count}g/o{order}", argv))
    return commands


def systems_jobs(seed: int):
    """``(label, run)`` for the seeded ``tower`` commands of one seed."""
    return [(label, lambda argv=argv: run_cli(argv)) for label, argv in systems_commands(seed)]


MERO_DRAWS = 120
MERO_COEFFICIENTS = ("1", "-1", "2", "-3", "1/2", "-3/4", "5/3")


def mero_term(rng: random.Random, degree: int) -> str:
    """A term of total degree ``degree`` in ``x1, x2`` with a small integer
    or rational coefficient."""
    e1 = rng.randint(0, degree)
    mono = "*".join(f"{n}^{e}" for n, e in (("x1", e1), ("x2", degree - e1)) if e)
    return f"({rng.choice(MERO_COEFFICIENTS)})*{mono}"


def mero_base(rng: random.Random) -> str:
    """2-4 terms of degree 1-3 in ``x1, x2``: a curve through the origin."""
    return " + ".join(mero_term(rng, rng.randint(1, 3)) for _ in range(rng.randint(2, 4)))


MERO_FAMILY_DRAWS = 60


def translation_family_argv(rng: random.Random):
    """The order and argv of a ``mero-deform`` command on the translation
    family of the golden ``mero_deform_family`` command, through a drawn
    witness."""
    order = rng.randint(5, 12)
    w = " + ".join(mero_term(rng, rng.randint(1, order + 1)) for _ in range(rng.randint(1, 3)))
    grid = ["0"] + [str(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 3))]
    grid += rng.sample(grid, rng.randint(0, len(grid)))
    rng.shuffle(grid)
    fams = [f"x1+z-({w})", f"x2+z-({w})", f"x1+x2+2*z-2*({w})", "x1-x2", "-1/4"]
    return order, (["mero-deform", "--f", "(x1)*(x2)", "--g", "(x1+x2)^2", "--zvars", "z"]
                   + [arg for fam in fams for arg in ("--fam", fam)]
                   + ["--witness", w, "--t", ",".join(grid), "--k0", str(rng.randint(0, 4)),
                      "--order", str(order), "--machine"])


def mero_jobs(seed: int):
    """``(label, run)`` for the seeded ``mero`` commands of one seed."""
    rng = random.Random(f"mero:{seed}")
    jobs = []
    for k in range(MERO_DRAWS):
        command = ("mero-analyze", "emit-system", "mero-deform")[k % 3]
        f, g = ("*".join(f"({mero_base(rng)})" + ("^2" if rng.random() < 0.25 else "")
                         for _ in range(rng.randint(1, 2))) for _ in range(2))
        order = rng.randint(4, 8)
        argv = [command, "--f", f, "--g", g, "--order", str(order), "--machine"]
        if command == "mero-analyze" and rng.random() < 0.5:
            argv += ["--candidate", mero_base(rng)]
        if command == "mero-deform":
            argv += ["--k0", str(rng.randint(0, 3)), "--t", rng.choice(("0,1", "1/2,-3"))]
        jobs.append((f"mero/{command}/o{order}", lambda argv=argv: run_cli(argv)))
    rng = random.Random(f"mero-family:{seed}")
    for _ in range(MERO_FAMILY_DRAWS):
        order, argv = translation_family_argv(rng)
        jobs.append((f"mero/mero-deform-zvars/o{order}", lambda argv=argv: run_cli(argv)))
    return jobs


DEGREES_REPEATED = 2
DEGREES_CUSPS = 3


def degrees_jobs(seed: int):
    """``(label, run)`` for the seeded exact ``gendisc`` commands of one seed."""
    rng = random.Random(f"degrees:{seed}")

    def roots(count):
        """``count`` distinct roots ``a*x1 + b*x2 +- x1^2``."""
        drawn = set()
        while len(drawn) < count:
            drawn.add((rng.randint(-3, 3), rng.randint(-3, 3), rng.choice((-1, 1))))
        return sorted(drawn)

    cases = [(p, roots(p)) for p in range(3, 8)]
    for _ in range(DEGREES_REPEATED):
        p = rng.randint(4, 6)
        distinct = roots(rng.randint(2, p - 1))
        cases.append((p, distinct + [rng.choice(distinct) for _ in range(p - len(distinct))]))
    jobs = []
    for p, rs in cases:
        expr = "*".join(f"(y - ({a})*x1 - ({b})*x2 - ({e})*x1^2)" for a, b, e in rs)
        argv = ["gendisc", expr, "--var", "y", "--vars", "x1,x2,y", "--order", str(2 * p + 1),
                "--machine"]
        label = f"degrees/split/p{p}/{len(set(rs))}distinct"
        jobs.append((label, lambda argv=argv: run_cli(argv)))
    for _ in range(DEGREES_CUSPS):
        p, q = rng.randint(3, 7), rng.randint(1, 7)
        argv = ["gendisc", f"y^{p} - x1^{q}", "--var", "y", "--vars", "x1,y",
                "--order", str(max(p, q) + 1), "--machine"]
        jobs.append((f"degrees/cusp/p{p}/q{q}", lambda argv=argv: run_cli(argv)))
    return jobs


RESULTANTS_DRAWS = 500


def resultants_jobs(seed: int):
    """``(label, run)`` for the seeded ``resultant_jets`` calls of one seed."""
    from equijet.jets import INFINITE_ORDER, Jet, VarContext
    from equijet.pseudopoly import resultant_jets
    from equijet.scalars import NumberField

    rng = random.Random(f"resultants:{seed}")
    ctx = VarContext.make(["x1", "x2", "y"])
    alpha = NumberField([-2, 0, 1]).generator()

    def scalar(kind):
        a = rng.choice((-3, -2, -1, 1, 2, 3))
        if kind == "rational" and rng.random() < 0.5:
            return Fraction(a, rng.choice((2, 3, 5)))
        if kind == "field" and rng.random() < 0.5:
            return alpha * a + rng.randint(-2, 2)
        return a

    def operand(kind, degree):
        """A polynomial of this degree in ``y`` whose terms have degree at
        most 3 in ``x1, x2``, its leading coefficient a constant one time
        in two, and its order and flag."""
        terms = {(0, 0, degree): scalar(kind)} if rng.random() < 0.5 else {}
        for j in range(degree + 1):
            for _ in range(rng.randint(0 if terms or j < degree else 1, 3)):
                e1 = rng.randint(0, 3)
                terms[(e1, rng.randint(0, 3 - e1), j)] = scalar(kind)
        order = rng.randint(degree + 1, degree + 6)
        flag = "zero" if rng.random() < 0.05 else rng.choice(("exact", "every", "truncated"))
        if flag == "zero":
            return flag, Jet.zero(ctx, order, exact=rng.random() < 0.5)
        if flag == "exact":
            return flag, Jet.polynomial(ctx, terms, order)
        if flag == "every":
            return flag, Jet(ctx, INFINITE_ORDER, terms, True)
        return flag, Jet(ctx, order, terms, False)

    def run(a, b):
        try:
            return resultant_jets(a, b, "y")
        except Exception as exc:  # an error is an output too
            return exc

    jobs = []
    for _ in range(RESULTANTS_DRAWS):
        kind = rng.choice(("integer", "rational", "field"))
        da, db = (rng.choice((0, 0, 1, 2, 3)) for _ in range(2))
        (fa, a), (fb, b) = operand(kind, da), operand(kind, db)
        jobs.append((f"resultants/{kind}/{fa}-{fb}/d{da}-{db}", lambda a=a, b=b: run(a, b)))
    return jobs


PARSE_DRAWS = 2000
PARSE_NAMES = ("t", "x1", "x2")


def parse_text(rng: random.Random, order: int, depth: int = 0) -> str:
    """A random expression in :data:`PARSE_NAMES`; compound operands are
    parenthesized now and then, so the grammar groups the rest."""
    roll = rng.random()
    if depth > 3 or roll < 0.3:
        pick = rng.random()
        if pick < 0.25:
            return str(rng.randrange(10))
        if pick < 0.35:
            return str(rng.randrange(10 ** 9))
        if pick < 0.55:
            return f"{rng.randrange(10)}/{rng.randrange(1, 8)}"
        return rng.choice(PARSE_NAMES)

    def operand():
        text = parse_text(rng, order, depth + 1)
        return f"({text})" if rng.random() < 0.4 else text

    if roll < 0.5:
        space = rng.choice(("", " ", "\n", "\t", " \n\t "))
        return f"{operand()}{space}{rng.choice('+-')}{rng.choice(('', ' '))}{operand()}"
    if roll < 0.65:
        return f"{operand()}*{operand()}"
    if roll < 0.75:
        return f"-{operand()}"
    if rng.random() < 0.2:
        # a power past the order: its terms of positive degree are dropped
        base = rng.choice(PARSE_NAMES)
        if rng.random() < 0.5:
            base = f"({rng.randrange(3)} {rng.choice('+-')} {base})"
        return f"{base}^{rng.randrange(order, order + 3)}"
    text = operand()
    for _ in range(rng.choice((1, 1, 1, 2))):
        text += f"^{rng.randrange(4)}"
    return text


def broken_text(rng: random.Random, text: str) -> str:
    """``text`` with one drawn fault."""
    at = rng.randrange(len(text) + 1)
    fault = rng.choice(("char", "char", "delete", "op", "rational", "zero", "name"))
    if fault == "char":
        return text[:at] + rng.choice("$@.!\u00b2\u00e9\u00a0\u2003") + text[at:]
    if fault == "delete":
        return text[:at] + text[at + 1:]
    if fault == "op":
        return text[:at] + rng.choice(("^^", "**", "+*", "(", ")", "^", "/")) + text[at:]
    if fault == "rational":
        return f"{text} + 3/4^{rng.randrange(3)}"
    if fault == "zero":
        return f"{text}*1/0"
    return text + " + " + rng.choice(("zz", "x3", "x1\u00b2", "\u00e9"))


def parse_jobs(seed: int):
    """``(label, run)`` for the seeded texts of one seed."""
    from equijet.jets import VarContext
    from equijet.parser import parse_factored, parse_jet

    rng = random.Random(f"parse:{seed}")
    ctx = VarContext.make(["x1", "x2"], params=["t"])

    def run(text, order):
        try:
            return parse_jet(text, ctx, order), parse_factored(text, ctx, order)
        except Exception as exc:  # an error is an output too, with its position
            return exc, getattr(exc, "line", None), getattr(exc, "column", None)

    jobs = []
    for _ in range(PARSE_DRAWS):
        order = rng.randint(0, 12)
        text = parse_text(rng, order)
        kind = "valid"
        if rng.random() < 0.2:
            text, kind = broken_text(rng, text), "broken"
        jobs.append((f"parse/{kind}/o{order}", lambda text=text, order=order: run(text, order)))
    return jobs


def run_cli(argv):
    """The exit code, stdout and stderr of ``cli.main``, or what it raised."""
    from equijet import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception as exc:  # a traceback is an output too
        return exc
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", required=True, type=Path, help="checkout to run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated seeds")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "bench"), str(root / "src")]
    sys.dont_write_bytecode = True
    if args.workload == "cli" and not any((root / "corpus").glob("*.args")):
        # the cli jobs begin with the corpus fixtures: hashing the rest
        # alone would print a total that no full checkout gives
        print(f"error: no corpus fixtures in {root / 'corpus'}; the cli workload runs them",
              file=sys.stderr)
        return 2
    os.environ.pop("EQUIJET_ORDER", None)

    def jobs(seed):
        if args.workload == "systems":
            return systems_jobs(seed)
        if args.workload == "mero":
            return mero_jobs(seed)
        if args.workload == "degrees":
            return degrees_jobs(seed)
        if args.workload == "resultants":
            return resultants_jobs(seed)
        if args.workload == "parse":
            return parse_jobs(seed)
        import workloads
        return [(job.label, job.run) for job in workloads.make_jobs(args.workload, seed, root)]

    total = hashlib.sha256()
    for seed in (int(s) for s in args.seeds.split(",")):
        for i, (label, run) in enumerate(jobs(seed)):
            digest = hashlib.sha256(json.dumps(canon(run())).encode()).hexdigest()
            total.update(digest.encode())
            print(seed, i, label, digest[:16])
    print("total", total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
