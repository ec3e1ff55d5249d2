"""A seeded exit-code fuzzer for the command line.

Every input ends in a documented exit code (0-4), never a traceback.  A
nonzero code prints exactly one stderr line, which starts ``error:``; the
exception is exit 3 from ``gendisc`` and ``check-family``, which print their
inconclusive report on stdout and nothing on stderr.  Exit 0 prints nothing
on stderr.  The argument lists come from a small grammar over all ten
commands: expressions with zero, unit, rational-literal and huge-exponent
terms, orders 0-3 and up to 10, empty, duplicate and overlapping
``--vars``/``--params``, systems of 1-3 germs for ``tower``, mero germs with
shared or repeated factors, fixed or generic, and ``binomial`` with unit
targets.  About one ``gendisc`` draw in ten is followed by three more
``gendisc`` commands, drawn from a stream of their own so that the other
draws stay as they are: a split integer quartic at an order of 14-30, and
two exact ones, a split quartic with one factor squared and a cusp
``y^p - x1^q`` (``p = 3, 4``), whose exact passes stop at the rank and fall
back to the Berkowitz pass.
"""

import random

import pytest

from equijet.cli import main

SEEDS = range(6)
DRAWS = 150
NAMES = ("x", "x1", "x2", "x3", "t")
RATIONALS = ("1/2", "-3/4", "5/3", "-1/7")
REPORTED_INCONCLUSIVE = ("gendisc", "check-family")
MERO_BASES = ("x1", "x2", "x1 + x2", "x1 - 2*x2", "x2^2 - x1^3", "x1^2 + x2^2", "x1 + x2^2")
COEFFICIENTS = ("1", "-1", "2", "-3", "1/2", "-3/4", "5/3")


def _monomial(rng, names):
    name = rng.choice(names)
    if rng.random() < 0.1:
        return f"{name}^{rng.choice((10 ** 6, 10 ** 18))}"
    return name if rng.random() < 0.5 else f"{name}^{rng.randint(2, 4)}"


def _expr(rng, names):
    """A sum of 1-4 terms: zero, one, a rational literal, or a monomial with
    an integer or rational coefficient."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(8)
        if kind == 0:
            terms.append("0")
        elif kind == 1:
            terms.append("1")
        elif kind == 2:
            terms.append(rng.choice(RATIONALS))
        else:
            mono = "*".join(_monomial(rng, names) for _ in range(rng.randint(1, 2)))
            coeff = rng.choice(("", "2*", "(-1)*", "(-3)*", f"({rng.choice(RATIONALS)})*"))
            terms.append(coeff + mono)
    return " + ".join(terms)


def _names_arg(rng, pool):
    """Comma-separated names: usually distinct, sometimes empty or repeated."""
    roll = rng.random()
    if roll < 0.08:
        return ""
    names = rng.sample(pool, rng.randint(1, min(3, len(pool))))
    if roll < 0.16:
        names.append(names[0])
    return ",".join(names)


def _order(rng):
    return rng.randint(0, 3) if rng.random() < 0.3 else rng.randint(4, 10)


def _common(rng, vars_pool=NAMES[:4], params=False):
    """``--vars``, maybe ``--params`` (overlapping them at times), ``--order``,
    ``--seed`` and ``--machine``; returns the argument list and the names."""
    coords = _names_arg(rng, list(vars_pool))
    argv = ["--vars", coords]
    if params or rng.random() < 0.1:
        argv += ["--params", rng.choice(("t",) * 6 + (coords.split(",")[0], "t,t", ""))]
    order = _order(rng)
    argv += ["--order", str(order), "--seed", str(rng.randint(0, 3))]
    if rng.random() < 0.5:
        argv.append("--machine")
    names = [n for n in coords.split(",") if n] or ["x1"]
    return argv, names, order


def _generic_base(rng):
    """A curve through the origin: 2-4 terms of degree 1-3 in ``x1, x2`` with
    small integer or rational coefficients.  (One term with a coefficient
    would parse as two factors, one of them constant.)"""
    terms = []
    for _ in range(rng.randint(2, 4)):
        degree = rng.randint(1, 3)
        e1 = rng.randint(0, degree)
        mono = "*".join(f"{n}^{e}" for n, e in (("x1", e1), ("x2", degree - e1)) if e)
        terms.append(f"({rng.choice(COEFFICIENTS)})*{mono}")
    return " + ".join(terms)


def _factored(rng, chosen):
    """A factored mero germ of these bases, some of them powered."""
    return "*".join(f"({b})" + (f"^{rng.randint(2, 3)}" if rng.random() < 0.3 else "")
                    for b in chosen)


def draw(rng):
    command = rng.choice(("prepare", "divide", "gendisc", "tower", "check-family",
                          "verify-family", "binomial", "mero-analyze", "emit-system",
                          "mero-deform"))
    if command in ("prepare", "divide", "gendisc"):
        common, names, _ = _common(rng)
        var = rng.choice(names) if rng.random() < 0.9 else "z"
        exprs = [_expr(rng, names) for _ in range(2 if command == "divide" else 1)]
        if command == "gendisc" and rng.random() < 0.8:
            exprs = [f"{var}^{rng.randint(1, 5)} + {exprs[0]}"]  # most often monic
        return [command, *exprs, "--var", var, *common]
    if command in ("tower", "check-family"):
        common, names, order = _common(rng, params=command == "check-family")
        if order > 6:
            names = names[:2]
            common[1] = ",".join(names)  # three coordinates at order 10 take seconds
        if command == "check-family":
            names = names + ["t"]
        count = rng.randint(1, 3) if command == "tower" else 1
        return [command, *(_expr(rng, names) for _ in range(count)), *common]
    if command == "verify-family":
        common, names, _ = _common(rng)
        ys = ["y1", "y2"]
        argv = ["verify-family", "--yvars", _names_arg(rng, ys), "--zvars", "z", *common]
        for flag, pool, count in (("--eq", names + ys, 1), ("--sol", names + ["z"], 2),
                                  ("--witness", names, 1), ("--target", names, 2)):
            # mostly as many entries as the flag needs
            for _ in range(count if rng.random() < 0.8 else rng.randint(0, count)):
                argv += [flag, _expr(rng, pool)]
        return argv
    if command == "binomial":
        common, _, _ = _common(rng, vars_pool=("x",))
        if rng.random() < 0.4:
            y1, y2 = rng.choice((("1", "1"), ("x^0", "x^0"), ("1 + x", "1"), ("(1/8)", "(1/4)")))
        else:
            w = rng.choice(("x", "x + x^2", "(-1)*x + (1/2)*x^3", "2*x"))
            y1, y2 = f"({w})^3", f"({w})^2"
        return ["binomial", y1, y2, *common]
    common, names, _ = _common(rng, vars_pool=("x1", "x2", "x"))
    if rng.random() < 0.7:
        common = common[2:]  # the default coordinates x1, x2
        names = ["x1", "x2"]
    # fixed curves, a unit, a zero, a rational multiple, a power beyond the
    # order, and generic curves
    bases = MERO_BASES + (rng.choice(("1", "0", "(1/2)*x1", "x1 + 1", f"{names[0]}^30")),)
    # a base may repeat within a germ, and g may share one with f
    f, g = ([rng.choice(bases) if rng.random() < 0.5 else _generic_base(rng)
             for _ in range(rng.randint(1, 3))] for _ in range(2))
    if rng.random() < 0.3:
        g.append(f[0])
    argv = [command, "--f", _factored(rng, f), "--g", _factored(rng, g), *common]
    if command == "mero-analyze" and rng.random() < 0.5:
        argv += ["--candidate", _expr(rng, names)]
    if command == "mero-deform":
        argv += ["--k0", str(rng.randint(0, 5)), "--t", rng.choice(("0", "0,1", "1/2,-3"))]
    return argv


def draw_split_quartic(rng):
    """``gendisc`` of four factors ``y + a*x1 + b*x2 + c`` with small
    integers, the first maybe repeated, plus a power of ``x1`` beyond the
    order, at an order of 14-30."""
    order = rng.randint(14, 30)
    factors = [f"(y + ({rng.randint(-3, 3)})*x1 + ({rng.randint(-3, 3)})*x2"
               f" + ({rng.randint(-2, 2)}))" for _ in range(4)]
    if rng.random() < 0.3:
        factors[1] = factors[0]
    expr = "*".join(factors) + f" + x1^{order + rng.randint(1, 10)}"
    argv = ["gendisc", expr, "--var", "y", "--vars", "x1,x2,y", "--order", str(order)]
    return argv + ["--machine"] * (rng.random() < 0.5)


def draw_exact_gendiscs(rng):
    """Two exact ``gendisc`` commands, at orders above their degrees: four
    factors ``y + a*x1 + b*x2 + c`` with small integers, the first squared
    (three distinct roots: the exact pass stops at the rank), and
    ``y^p - x1^q`` with ``p = 3, 4`` (``d_2`` vanishes and ``d_3`` does not:
    the exact pass falls back to the Berkowitz pass)."""
    factors = [f"(y + ({rng.randint(-3, 3)})*x1 + ({rng.randint(-3, 3)})*x2"
               f" + ({rng.randint(-2, 2)}))" for _ in range(3)]
    quartic = f"{factors[0]}^2*" + "*".join(factors[1:])
    p, q = rng.randint(3, 4), rng.randint(1, 6)
    return [["gendisc", quartic, "--var", "y", "--vars", "x1,x2,y",
             "--order", str(rng.randint(5, 9))],
            ["gendisc", f"y^{p} - x1^{q}", "--var", "y", "--vars", "x1,y",
             "--order", str(max(p, q) + rng.randint(1, 4))]]


@pytest.mark.parametrize("seed", SEEDS)
def test_every_drawn_command_ends_in_a_documented_exit(seed, capsys):
    rng, quartics = random.Random(seed), random.Random(f"quartics:{seed}")
    for _ in range(DRAWS):
        argvs = [draw(rng)]
        if argvs[0][0] == "gendisc" and quartics.random() < 0.1:
            argvs += [draw_split_quartic(quartics), *draw_exact_gendiscs(quartics)]
        for argv in argvs:
            try:
                code = main(argv)
            except Exception as exc:  # name the input that escaped
                pytest.fail(f"{argv} raised {exc!r}")
            err = capsys.readouterr().err
            assert code in range(5), argv
            if code == 0 or (code == 3 and argv[0] in REPORTED_INCONCLUSIVE):
                assert err == "", argv
            else:
                assert err.startswith("error: ") and err.count("\n") == 1, argv
