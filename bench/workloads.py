"""Seeded job generators for the ``ladder``, ``discriminant`` and ``cli``
workloads.

Every workload is a fixed schedule of *cells* (input shapes); the seed only
draws the coefficients, monomials and roots inside each cell, so two seeds
give inputs of the same shape and cost class while the same seed gives the
same inputs.  The program sees only the generated inputs; each job's
specification is plain JSON, and :func:`digest` hashes the whole set.

Why these workloads:

* ``ladder`` -- germs in 2-3 coordinates with Weierstrass degree 2-4 at
  orders 8-14: ``build_tower`` + ``verify_tower`` or ``check_family``.
  Weierstrass preparation and truncated ``Jet.__mul__`` do most of the
  work; ``pseudopoly`` does little.  The timed germs have a polynomial
  distinguished polynomial; the ``perturbed`` germs, where it is a genuine
  series, are the ``unsound-exact`` probe.
* ``discriminant`` -- monic polynomials of degree 3-6 over 1-2 variables,
  split into known roots, both exact (lifted above their degree) and
  truncated at order 14: ``generalized_discriminants`` plus
  ``resultant_jets`` on a seeded pair.  Berkowitz determinants over full
  exact products dominate; ``weierstrass`` does no work.
* ``cli`` -- in-process ``cli.main`` on the committed corpus (compared byte
  for byte) plus seeded ``mero-analyze``, ``emit-system``, ``mero-deform``,
  ``verify-family`` and ``binomial`` command lines.  Jobs are small, so
  argument parsing, expression parsing, hashing, JSON serialization,
  ``polygcd`` and ``mero`` dominate.

Known defects.  Some input classes hit a known defect of the program on
every or on some draws (:data:`KNOWN_DEFECTS`).  Their jobs are drawn in
the same random stream as the others, so no draw is re-seeded or dropped,
but they carry the defect's name in ``Job.defect`` and form the workload's
*known-defect probe*: ``run.py`` runs each of them once per run, untimed,
checks it with the same oracle and reports its failures apart from the
timed jobs, whose outputs must all pass.  When a defect is fixed, its probe
reports no failures; moving its input class back into the timed mix is then
a change of the benchmark.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

import oracle as O

WORKLOADS = ("ladder", "discriminant", "cli")
KNOWN_DEFECTS = {
    "unsound-exact": "weierstrass_prepare can flag a truncated distinguished polynomial "
                     "that is a genuine series, and its unit, exact, so unit*W differs "
                     "from the germ, often even modulo the order; the degree-2 perturbed "
                     "germs in two coordinates hit it on every draw, others on some",
    "mero-vertical": "mero analysis exits 4 (a divisor 'admits no constant') on some "
                     "irreducible, pairwise coprime factors for which x1^2 divides f - g, "
                     "so that the line x1 = 0, no declared factor, divides the 1-form",
}
COEFFS = (-3, -2, -1, 1, 2, 3)


@dataclass
class Job:
    """One closed-loop request: ``run`` is the timed call, ``check`` the
    untimed oracle returning ``(conclusive, errors)`` for its output.
    ``defect`` names the entry of :data:`KNOWN_DEFECTS` that the job's input
    class exposes; such a job belongs to the known-defect probe."""

    label: str
    spec: dict
    run: Callable[[], object]
    check: Callable[[object], Tuple[bool, List[str]]]
    defect: str = ""


def digest(jobs: Sequence[Job]) -> str:
    canon = json.dumps([j.spec for j in jobs], sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def guarded(fn: Callable[[], object]) -> Callable[[], object]:
    """Return exceptions as outputs so the loop keeps running; the check
    decides whether an exception was a documented verdict."""
    def run():
        try:
            return fn()
        except Exception as err:  # judged by the job's check
            return err
    return run


def verdict_of_error(out) -> Tuple[bool, List[str]]:
    from equijet.errors import InconclusiveError

    if isinstance(out, InconclusiveError):
        return False, []
    return False, [f"raised {type(out).__name__}: {out}"]


def make_jobs(workload: str, seed: int, root: Path) -> List[Job]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ladder":
        return ladder_jobs(rng)
    if workload == "discriminant":
        return discriminant_jobs(rng)
    if workload == "cli":
        return cli_jobs(rng, root / "corpus")
    raise ValueError(f"unknown workload {workload!r}")


# -- text helpers ---------------------------------------------------------------

def mono_text(names: Sequence[str], exps: Sequence[int]) -> str:
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e) or "1"


def poly_text(names: Sequence[str], p: O.Poly) -> str:
    if not p:
        return "0"
    parts = []
    for k in sorted(p, key=lambda k: (sum(k), k)):
        # a bare monomial for coefficient 1, so that a one-term factor of a
        # factored germ is not split into a constant times a monomial
        mono = mono_text(names, k)
        parts.append(mono if p[k] == 1 and any(k) else f"({p[k]})*{mono}")
    return " + ".join(parts)


# -- ladder -------------------------------------------------------------------

#: (coordinates, Weierstrass degree, order) of the ``product`` germs, drawn
#: LADDER_DRAWS times.  Cells are shaped alike across draws, so each cell's
#: cost is steady.  Most are degree 2, where preparation and truncated
#: products dominate; the degree-3 and -4 cells add discriminant ladders.
#: With the families, 13 cells of equal weight: sorted by cost, p50 falls in
#: the middle of the 7th cell and p90 in the 12th, not on a boundary between
#: two cells, and the neighbouring cells overlap in cost.
LADDER_TOWERS = (
    (2, 2, 8), (2, 2, 11), (2, 2, 12), (2, 2, 14), (2, 3, 9), (2, 3, 10), (2, 3, 12),
    (2, 4, 8), (3, 2, 9), (3, 2, 10),
)
#: (Weierstrass degree, order, kind) of the parametrized families.
LADDER_FAMILIES = ((2, 10, "equisingular"), (3, 12, "equisingular"), (2, 10, "split"))
LADDER_DRAWS = 24
#: (coordinates, Weierstrass degree, order) of the ``perturbed`` germs, drawn
#: in the first PROBE_DRAWS rounds: the ``unsound-exact`` probe, untimed.
LADDER_PERTURBED = ((2, 2, 11), (2, 2, 14), (2, 3, 11), (2, 4, 11), (3, 2, 8))
PROBE_DRAWS = 8


def ladder_germ(rng: random.Random, nv: int, p: int, mode: str) -> Tuple[List[str], O.Poly]:
    """``(1 + a x1 + b xn) * W`` with ``W = xn^p + sum c_j m_j xn^(p-j)``.

    ``m_j`` is a fixed monomial of degree ``j + 1`` in the lower coordinates
    (degree ``j`` for ``p = 4``, which keeps the discriminant ladder under
    the degree cap), split evenly between ``x1`` and ``x2`` in three
    coordinates; only the coefficients are drawn, so every draw of a cell
    has the same shape.  ``perturbed`` adds ``c * x1 * xn^p``, which makes
    the distinguished polynomial of the result a genuine series.
    """
    names = [f"x{i}" for i in range(1, nv + 1)]
    n = nv - 1
    W: O.Poly = {}
    for j in range(0, p + 1):
        deg = 0 if j == 0 else j + (0 if p == 4 else 1)
        key = [0] * nv
        key[0] = deg - deg // 2 if nv == 3 else deg
        if nv == 3:
            key[1] = deg // 2
        key[n] = p - j
        W[tuple(key)] = Fraction(1 if j == 0 else rng.choice(COEFFS))
    unit = O.add(O.const(1, nv), O.add(O.scale(O.var(0, nv), rng.choice(COEFFS)),
                                       O.scale(O.var(n, nv), rng.choice(COEFFS))))
    f = O.mul(W, unit)
    if mode == "perturbed":
        key = [0] * nv
        key[0] += 1
        key[n] += p
        f = O.add(f, {tuple(key): Fraction(rng.choice(COEFFS))})
    return names, f


def ladder_family(rng: random.Random, p: int, kind: str) -> Tuple[List[str], O.Poly, Tuple[str, ...]]:
    """Families over ``t`` in ``(x1, x2)`` with a known answer.

    ``equisingular``: ``(x2^p + c (1 + b t) x1^q) (1 + d x1 + e x2)`` -- the
    coefficient of ``x1^q`` never vanishes near ``t = 0``.
    ``split``: ``x2^p + c x1^q + b t x1^r`` with ``r < q`` -- the
    singularity type jumps at ``t = 0``.
    ``perturbed``: the equisingular family plus ``d x1 x2^p``, a genuine
    series in the prepared polynomial.
    Variables are ordered ``(t, x1, x2)``.
    """
    names = ["t", "x1", "x2"]
    q = p + 1 if p == 2 else p + 2
    c, b = rng.choice(COEFFS), rng.choice(COEFFS)
    t, x1, x2 = (O.var(i, 3) for i in range(3))
    top = {(0, 0, p): Fraction(1)}
    if kind == "split":
        r = q - 1
        F = O.add(O.add(top, {(0, q, 0): Fraction(c)}), {(1, r, 0): Fraction(b)})
        return names, F, ("not-equisingular", "inconclusive")
    coef = O.scale(O.add(O.const(1, 3), O.scale(t, b)), c)
    W = O.add(top, O.mul(coef, {(0, q, 0): Fraction(1)}))
    unit = O.add(O.const(1, 3), O.add(O.scale(x1, rng.choice(COEFFS)), O.scale(x2, rng.choice(COEFFS))))
    F = O.mul(W, unit)
    if kind == "perturbed":
        F = O.add(F, {(0, 1, p): Fraction(rng.choice(COEFFS))})
    return names, F, ("equisingular", "inconclusive")


# Jobs call the program through module attributes (``tower.build_tower``),
# so that the traced run's wrappers see every call.

def tower_job(label: str, names: List[str], f: O.Poly, order: int) -> Job:
    from equijet import tower
    from equijet.jets import VarContext
    from equijet.parser import parse_jet

    text = poly_text(names, f)
    ctx = VarContext.make(names)
    jet = parse_jet(text, ctx, order)
    src = O.jet_dict(jet)

    def check(out):
        if isinstance(out, Exception):
            return verdict_of_error(out)
        tw, ver = out
        errs = O.check_levels(src, jet.exact, tw.levels, ctx, order,
                              terminal=(tw.terminal_disc_index, tw.terminal_unit))
        if not ver.all_passed:
            errs.append("verify_tower reports a failed identity")
        return tw.conclusive, errs

    def run():
        tw = tower.build_tower(jet)
        return tw, tower.verify_tower(tw)

    return Job(label, {"kind": "tower", "vars": names, "order": order, "expr": text},
               guarded(run), check)


def family_job(label: str, names: List[str], F: O.Poly, order: int,
               allowed: Tuple[str, ...]) -> Job:
    from equijet import tower
    from equijet.jets import VarContext
    from equijet.parser import parse_jet

    text = poly_text(names, F)
    ctx = VarContext.make(names[1:], params=names[:1])
    jet = parse_jet(text, ctx, order)
    src = O.jet_dict(jet)

    def check(out):
        if isinstance(out, Exception):
            return verdict_of_error(out)
        errs = []
        if out.verdict not in allowed:
            errs.append(f"verdict {out.verdict!r}, expected one of {allowed}")
        if out.levels:
            # the preparation of the top level, in the coordinates that every
            # level's change has been applied to
            changed = O.levels_source(src, out.levels, ctx, None if jet.exact else order)
            top = out.levels[0]
            errs += O.check_identity(changed, jet.exact, top.unit, top.poly, order, "level 1")
        return out.verdict != "inconclusive", errs

    return Job(label, {"kind": "family", "vars": names, "order": order, "expr": text},
               guarded(lambda: tower.check_family(jet)), check)


def ladder_jobs(rng: random.Random) -> List[Job]:
    jobs = []
    for r in range(LADDER_DRAWS):
        for nv, p, order in LADDER_TOWERS:
            names, f = ladder_germ(rng, nv, p, "product")
            jobs.append(tower_job(f"tower/{nv}v/p{p}/o{order}/product", names, f, order))
        for p, order, kind in LADDER_FAMILIES:
            names, F, allowed = ladder_family(rng, p, kind)
            jobs.append(family_job(f"family/p{p}/o{order}/{kind}", names, F, order, allowed))
        if r >= PROBE_DRAWS:
            continue
        for nv, p, order in LADDER_PERTURBED:
            names, f = ladder_germ(rng, nv, p, "perturbed")
            job = tower_job(f"tower/{nv}v/p{p}/o{order}/perturbed", names, f, order)
            job.defect = "unsound-exact"
            jobs.append(job)
    return jobs


# -- discriminant -------------------------------------------------------------

#: (coefficient variables, root multiplicities, mode), drawn DISC_DRAWS times.
#: The degree-6 cell is listed twice so that p90 falls inside its draws
#: and p50 inside the three ~100 ms degree-5 cells, not between cells.
DISC_CELLS = (
    (1, (1, 1, 1), "exact"), (1, (2, 1, 1), "exact"), (1, (1, 1, 1, 1, 1), "exact"),
    (1, (2, 2, 1), "exact"), (1, (3, 1, 1), "exact"), (1, (1, 1, 1, 1, 1, 1), "exact"),
    (1, (1, 1, 1, 1, 1, 1), "exact"), (2, (1, 1, 1), "exact"), (2, (2, 1, 1), "exact"),
    (2, (1, 1, 1, 1), "exact"), (1, (1, 1, 1, 1), "truncated"), (1, (2, 1, 1, 1), "truncated"),
    (2, (2, 1, 1), "truncated"),
)
DISC_DRAWS = 10
DISC_ORDER = 14


def rand_root(rng: random.Random, nx: int, width: int, growth: int, quadratic: bool) -> O.Poly:
    """``c0 + c1 x (+ c2 x^2)`` over one variable, ``c0 + c1 x1 + c2 x2`` over
    two; ``c1, c2`` are nonzero and grow with ``growth``."""
    r: O.Poly = {(0,) * width: Fraction(rng.randint(-2, 2))}
    keys = ([(1, 0), (2, 0)] if quadratic else [(1, 0)]) if nx == 1 else [(1, 0, 0), (0, 1, 0)]
    for key in keys:
        r[key] = Fraction(rng.choice(COEFFS) * rng.randint(1, growth))
    return O.clean(r)


def draw_roots(rng: random.Random, count: int, nx: int, width: int, growth: int,
                   quadratic: bool = False) -> List[O.Poly]:
    roots: List[O.Poly] = []
    while len(roots) < count:
        r = rand_root(rng, nx, width, growth, quadratic)
        if all(O.sub(r, s) for s in roots):
            roots.append(r)
    return roots


def split_poly(roots: Sequence[O.Poly], width: int) -> O.Poly:
    """``prod (y - r_i)`` with ``y`` the last variable."""
    y = O.var(width - 1, width)
    out = O.const(1, width)
    for r in roots:
        out = O.mul(out, O.sub(y, r))
    return out


def disc_job(rng: random.Random, nx: int, mult: Sequence[int], mode: str) -> Job:
    from equijet import pseudopoly
    from equijet.jets import Jet, VarContext

    names = [f"x{i}" for i in range(1, nx + 1)] + ["y"]
    width = nx + 1
    ctx = VarContext.make(names)
    exact = mode == "exact"
    growth = 4 if exact else 2
    # quadratic roots only below degree 5: the exact lift grows with the
    # coefficient degree, and degree 5-6 with quadratic roots takes seconds
    distinct = draw_roots(rng, len(mult), nx, width, growth, sum(mult) <= 4)
    roots = [r for r, m in zip(distinct, mult) for _ in range(m)]
    pair = draw_roots(rng, 2 + rng.randint(0, 1) + 2, nx, width, growth)
    pa, pb = pair[:2], pair[2:]

    def as_jet(p: O.Poly) -> Jet:
        order = max(DISC_ORDER, O.total_degree(p) + 1) if exact else DISC_ORDER
        return Jet(ctx, order, p, exact)

    P_full = split_poly(roots, width)
    p = len(roots)
    coeffs = []
    for j in range(1, p + 1):
        c = {k[:-1] + (0,): v for k, v in P_full.items() if k[-1] == p - j}
        coeffs.append(as_jet(c))
    P = pseudopoly.PseudoPolynomial("y", coeffs)
    A, B = as_jet(split_poly(pa, width)), as_jet(split_poly(pb, width))
    order = None if exact else DISC_ORDER
    spec = {"kind": "discriminant", "vars": names, "mode": mode,
            "roots": [sorted((list(k), str(v)) for k, v in r.items()) for r in roots],
            "pair": [sorted((list(k), str(v)) for k, v in r.items()) for r in pair]}

    def run():
        return pseudopoly.generalized_discriminants(P), pseudopoly.resultant_jets(A, B, "y")

    def check(out):
        if isinstance(out, Exception):
            return verdict_of_error(out)
        gd, res = out
        errs = []
        want = O.vandermonde_gendisc(roots, width, order)
        for l, (got, w) in enumerate(zip(gd.entries, want), start=1):
            g = O.jet_dict(got)
            if (O.sub(g, w) if exact else not O.equal_mod(g, w, got.order)):
                errs.append(f"Delta_{l} differs from the Vandermonde sum")
            if exact and not got.exact:
                errs.append(f"Delta_{l} of exact input is not flagged exact")
        if exact:
            n_dist = O.distinct_roots([O.jet_dict(c) for c in P.coeffs], names, "y")
            if gd.first_nonzero != p - n_dist + 1:
                errs.append(f"first nonzero index {gd.first_nonzero}, "
                            f"expected {p - n_dist + 1} from {n_dist} distinct roots")
        want_res = O.const(1, width)
        for r in pa:
            for s in pb:
                want_res = O.mul(want_res, O.sub(r, s), order)
        if (O.sub(O.jet_dict(res), want_res) if exact
                else not O.equal_mod(O.jet_dict(res), want_res, res.order)):
            errs.append("resultant differs from the product of root differences")
        return gd.certified, errs

    label = f"disc/{nx}v/{''.join(map(str, mult))}/{mode}"
    return Job(label, spec, guarded(run), check)


def discriminant_jobs(rng: random.Random) -> List[Job]:
    return [disc_job(rng, nx, mult, mode)
            for _ in range(DISC_DRAWS) for nx, mult, mode in DISC_CELLS]


# -- cli ----------------------------------------------------------------------

CLI_DRAWS = 200


def cli_run(argv: Sequence[str]) -> Callable[[], object]:
    from equijet import cli

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue()
    return run


def cli_job(label: str, argv: List[str], check_report: Callable[[dict], List[str]],
            defect: str = "") -> Job:
    def check(out):
        if isinstance(out, Exception):
            return verdict_of_error(out)
        code, text = out
        if code == 3:
            return False, []
        if code != 0:
            return False, [f"exit code {code}"]
        try:
            report = json.loads(text)
        except ValueError:
            return True, ["output is not one JSON report"]
        return True, check_report(report["result"])

    return Job(label, {"kind": "cli", "argv": argv}, guarded(cli_run(argv)), check, defect)


def corpus_jobs(corpus: Path) -> List[Job]:
    jobs = []
    for args in sorted(corpus.glob("*.args")):
        argv = args.read_text().splitlines()
        expected = (corpus / "expected" / f"{args.stem}.json").read_text()

        def check(out, expected=expected):
            if isinstance(out, Exception):
                return verdict_of_error(out)
            code, text = out
            errs = [] if text == expected else ["report differs from the committed bytes"]
            if code not in (0, 3):
                errs.append(f"exit code {code}")
            return code == 0, errs

        jobs.append(Job(f"cli/corpus/{args.stem}", {"kind": "corpus", "argv": argv,
                                                    "expected_sha256": hashlib.sha256(
                                                        expected.encode()).hexdigest()},
                        guarded(cli_run(argv)), check))
    return jobs


def curve_factors(rng: random.Random, count: int) -> List[O.Poly]:
    """Distinct smooth curves through the origin in ``(x1, x2)``:
    ``x2 + a x1 + b x1^2`` (degree 1 in x2, hence irreducible) or ``x1``;
    distinct ones are pairwise coprime and each is squarefree."""
    seen, out = set(), []
    while len(out) < count:
        if rng.random() < 0.15:
            key = ("x1",)
            poly = {(1, 0): Fraction(1)}
        else:
            a, b = rng.randint(-3, 3), rng.randint(-2, 2)
            key = (a, b)
            poly = O.clean({(0, 1): Fraction(1), (1, 0): Fraction(a), (2, 0): Fraction(b)})
        if key not in seen:
            seen.add(key)
            out.append(poly)
    return out


def vertical_defect(f: O.Poly, g: O.Poly) -> str:
    """``"mero-vertical"`` when ``x1^2`` divides ``f - g``, else ``""``.

    Products of ``curve_factors`` are monic in ``x2``, so ``c = 1`` is the
    only constant for which ``f - c g`` can vanish to order 2 along the line
    ``x1 = 0`` without ``x1`` being a declared factor."""
    d = O.sub(f, g)
    return "mero-vertical" if d and min(k[0] for k in d) >= 2 else ""


def factored_text(factors: Sequence[O.Poly], exps: Sequence[int]) -> str:
    names = ("x1", "x2")
    return "*".join(f"({poly_text(names, f)})" + (f"^{e}" if e > 1 else "")
                    for f, e in zip(factors, exps))


def mero_inputs(rng: random.Random, i: int):
    """Factored ``f`` and ``g``; the factor counts and exponents cycle with
    the draw index ``i`` so every seed gets the same mix of shapes.  The
    last item is the draw's :func:`vertical_defect`."""
    n_f, n_g = ((1, 1), (1, 2), (2, 1), (2, 2))[i % 4]
    facs = curve_factors(rng, n_f + n_g)
    ef = [1 + (i // 4) % 2] + [1] * (n_f - 1)
    eg = [1 + (i // 8) % 2] + [1] * (n_g - 1)
    f = O.const(1, 2)
    for b, e in zip(facs[:n_f], ef):
        f = O.mul(f, O.power(b, e, 2))
    g = O.const(1, 2)
    for b, e in zip(facs[n_f:], eg):
        g = O.mul(g, O.power(b, e, 2))
    reduced = O.const(1, 2)
    for b in facs:
        reduced = O.mul(reduced, b)
    return (factored_text(facs[:n_f], ef), factored_text(facs[n_f:], eg), f, g, reduced,
            vertical_defect(f, g))


def rational(entry):
    return Fraction(entry) if isinstance(entry, str) else None


def check_theta(result: dict, f: O.Poly, g: O.Poly, reduced: O.Poly) -> List[str]:
    """``theta * f * g == reduced * (g df - f dg)`` coefficientwise, and
    ``f - c g == h^(mu+1) rho`` for every rational divisor constant."""
    errs = []
    fg = O.mul(f, g)
    for i, key in enumerate(("dx1", "dx2")):
        lhs = O.mul(O.jet_dict(result["theta"][key]), fg)
        rhs = O.mul(reduced, O.sub(O.mul(g, O.derivative(f, i)), O.mul(f, O.derivative(g, i))))
        if O.sub(lhs, rhs):
            errs.append(f"theta.{key} does not satisfy the defining identity")
    for rec in result["records"]:
        c = rational(rec["c"])
        if c is None or any(not isinstance(t["coefficient"], str)
                            for j in (rec["h"], rec["rho"]) for t in j["terms"]):
            continue
        lhs = O.sub(f, O.scale(g, c))
        rhs = O.mul(O.power(O.jet_dict(rec["h"]), rec["mu"] + 1, 2), O.jet_dict(rec["rho"]))
        if O.sub(lhs, rhs):
            errs.append(f"record c={rec['c']}: f - c*g != h^(mu+1)*rho")
    return errs


def mero_analyze_job(rng: random.Random, i: int) -> Job:
    ftext, gtext, f, g, reduced, defect = mero_inputs(rng, i)
    argv = ["mero-analyze", "--f", ftext, "--g", gtext, "--machine"]
    return cli_job("cli/mero-analyze", argv, lambda r: check_theta(r, f, g, reduced), defect)


def emit_system_job(rng: random.Random, i: int) -> Job:
    ftext, gtext, f, g, _, defect = mero_inputs(rng, i)
    argv = ["emit-system", "--f", ftext, "--g", gtext, "--machine"]

    def check_report(r):
        errs = [] if r["verified"] else ["reference solution reported unverified"]
        names = r["y1"] + r["y2"] + r["y3"] + r["y4"]
        sols = {i: O.jet_dict(s) for i, s in enumerate(r["solution"])
                if all(isinstance(t["coefficient"], str) for t in s["terms"])}
        if len(sols) != len(names):
            return errs
        for eq in r["equations"]:
            if not all(isinstance(t["coefficient"], str)
                       for side in ("lhs", "rhs") for t in eq[side]["terms"]):
                continue
            resid = O.sub(O.jet_dict(eq["lhs"]), O.jet_dict(eq["rhs"]))
            if O.evaluate(resid, sols, 2):
                errs.append("an emitted equation fails at the reference solution")
        return errs

    return cli_job("cli/emit-system", argv, check_report, defect)


def mero_deform_job(rng: random.Random, i: int) -> Job:
    ftext, gtext, _, _, _, defect = mero_inputs(rng, i)
    ts = [Fraction(0), Fraction(rng.randint(1, 3), 4), Fraction(1)]
    # k0 cycles like the factor shapes, so that every seed gets the same mix
    argv = ["mero-deform", "--f", ftext, "--g", gtext,
            "--t", ",".join(str(t) for t in ts), "--k0", str(2 + (i // 16) % 4), "--machine"]

    def check_report(r):
        # without --zvars the family is the reference solution itself, so every
        # slice is the input germ: exact division and an isolated singularity
        errs = []
        for sl in r["slices"]:
            if not (sl["division_exact"] and sl["isolated_singularity"]):
                errs.append(f"slice t={sl['t']} is not the undeformed germ")
            if (sl["t"] == "0") != (sl["reproduces_quotient"] is not None) or \
                    sl["reproduces_quotient"] is False:
                errs.append(f"slice t={sl['t']}: wrong quotient reproduction flag")
        return errs

    return cli_job("cli/mero-deform", argv, check_report, defect)


def x_series(rng: random.Random, lowest: int, terms: int) -> O.Poly:
    """``x^lowest * (c + random higher terms)`` in one variable."""
    s = {(lowest,): Fraction(rng.choice((1, 2, -1)))}
    for _ in range(terms):
        s = O.add(s, {(lowest + rng.randint(1, 4),): Fraction(rng.choice(COEFFS))})
    return O.clean(s)


def verify_family_job(rng: random.Random, i: int) -> Job:
    """``y1^a = y2^b`` with the family ``(x^{bm} z^b, x^{am} z^a)`` through
    the witness ``z = w(x)``; every other draw perturbs the second target."""
    # the shape and order cycle with ``i`` so that every seed gets the same mix
    a, b = ((2, 3), (3, 2))[(i // 2) % 2]
    m = (i // 4) % 2
    order = 10 + (i // 8) % 5
    w = x_series(rng, 1, 2)
    t1 = O.trunc(O.mul({(b * m,): Fraction(1)}, O.power(w, b, 1)), order)
    t2 = O.trunc(O.mul({(a * m,): Fraction(1)}, O.power(w, a, 1)), order)
    if i % 2:
        t2 = O.add(t2, {(rng.randint(1, order - 1),): Fraction(rng.choice(COEFFS))})
    expect = not O.sub(O.trunc(O.mul({(a * m,): Fraction(1)}, O.power(w, a, 1)), order), t2)
    xs = ("x",)
    argv = ["verify-family", "--eq", f"y1^{a} - y2^{b}",
            "--sol", f"x^{b * m}*z^{b}" if m else f"z^{b}",
            "--sol", f"x^{a * m}*z^{a}" if m else f"z^{a}",
            "--witness", poly_text(xs, w), "--target", poly_text(xs, t1),
            "--target", poly_text(xs, t2), "--vars", "x", "--yvars", "y1,y2",
            "--zvars", "z", "--order", str(order), "--machine"]

    def check_report(r):
        if r["passed"] != expect:
            return [f"passed={r['passed']}, expected {expect}"]
        return []

    return cli_job("cli/verify-family", argv, check_report)


def binomial_job(rng: random.Random, i: int) -> Job:
    """Targets ``(w^3, w^2)`` for ``w = x^k v`` with a unit ``v``."""
    order = 12 + i % 5
    k = 1 + (i // 5) % 2
    w = x_series(rng, k, 2)
    w = O.scale(w, 1 / w[(k,)])
    y1, y2 = O.trunc(O.power(w, 3, 1), order), O.trunc(O.power(w, 2, 1), order)
    xs = ("x",)
    argv = ["binomial", poly_text(xs, y1), poly_text(xs, y2), "--vars", "x",
            "--order", str(order), "--machine"]

    def check_report(r):
        errs = [] if r["verified"] else ["family reported unverified"]
        wit = O.jet_dict(r["witness"][0])
        fam = [O.jet_dict(c) for c in r["family"]]
        x, z = O.var(0, 1), wit
        for comp, target in zip(fam, (y1, y2)):
            through = O.evaluate(comp, {0: x, 1: z}, 1, order)
            if not O.equal_mod(through, target, order):
                errs.append("family at the witness misses the target")
        return errs

    return cli_job("cli/binomial", argv, check_report)


def cli_jobs(rng: random.Random, corpus: Path) -> List[Job]:
    jobs = corpus_jobs(corpus)
    makers = (mero_analyze_job, emit_system_job, mero_deform_job, verify_family_job, binomial_job)
    for i in range(CLI_DRAWS):
        for make in makers:
            jobs.append(make(rng, i))
    return jobs
