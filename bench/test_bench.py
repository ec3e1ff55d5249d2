"""Tests of the benchmark itself: input determinism, oracle strength and
self-time arithmetic.  Run from the repository root with

    python3 -m pytest -q bench/test_bench.py
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import pytest  # noqa: E402

import layers  # noqa: E402
import oracle as O  # noqa: E402
import workloads  # noqa: E402
from equijet import tower  # noqa: E402
from equijet.jets import Jet, VarContext  # noqa: E402
from equijet.pseudopoly import PseudoPolynomial  # noqa: E402
from equijet.weierstrass import PreparedForm  # noqa: E402

X2 = VarContext.make(["x1", "x2"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_digest(workload):
    a = workloads.digest(workloads.make_jobs(workload, 7, ROOT))
    b = workloads.digest(workloads.make_jobs(workload, 7, ROOT))
    c = workloads.digest(workloads.make_jobs(workload, 8, ROOT))
    assert a == b != c


def prepared(unit_terms, w_coeffs, order, exact):
    """``x2^2 + a_1 x2 + a_2`` and a unit, built by hand in ``(x1, x2)``."""
    unit = Jet(X2, order, unit_terms, exact)
    poly = PseudoPolynomial("x2", [Jet(X2, order, c, exact) for c in w_coeffs])
    return PreparedForm(unit=unit, poly=poly, order=order)


# f = (1 + x1) x2^2 - x1^3 = (1 + x1) (x2^2 - x1^3 + x1^4 - ...): the true
# distinguished polynomial is a genuine series
F = {(0, 2): Fraction(1), (1, 2): Fraction(1), (3, 0): Fraction(-1)}
SERIES = {(k, 0): Fraction((-1) ** k) for k in range(3, 8)}


def test_oracle_accepts_an_honest_truncated_preparation():
    pf = prepared({(0, 0): 1, (1, 0): 1}, [{}, SERIES], 8, exact=False)
    assert O.check_preparation(F, True, pf, 8) == []


def test_oracle_rejects_a_corrupted_unit():
    pf = prepared({(0, 0): 1, (1, 0): 2}, [{}, SERIES], 8, exact=False)
    assert any("modulo degree 8" in e for e in O.check_preparation(F, True, pf, 8))


def test_oracle_rejects_a_false_exact_claim():
    pf = prepared({(0, 0): 1, (1, 0): 1}, [{}, SERIES], 8, exact=True)
    errs = O.check_preparation(F, True, pf, 8)
    assert errs and all("claimed exact" in e for e in errs)


def test_oracle_accepts_a_correct_tower():
    f = Jet.variable(X2, "x2") ** 2 - Jet.variable(X2, "x1") ** 3
    tw = tower.build_tower(f)
    assert O.check_levels(O.jet_dict(f), True, tw.levels, X2, f.order,
                          terminal=(tw.terminal_disc_index, tw.terminal_unit)) == []


def test_oracle_rejects_a_corrupted_tower_level():
    f = Jet.variable(X2, "x2") ** 2 - Jet.variable(X2, "x1") ** 3
    tw = tower.build_tower(f)
    lv = tw.levels[1]
    bad = type(lv)(index=lv.index, poly=lv.poly, unit=lv.unit.scale(2),
                   disc_index=lv.disc_index, change=lv.change)
    errs = O.check_levels(O.jet_dict(f), True, (tw.levels[0], bad), X2, f.order)
    assert any(e.startswith("level 2") for e in errs)


def test_oracle_rejects_a_corrupted_corpus_report():
    job = next(j for j in workloads.cli_jobs(random.Random(0), ROOT / "corpus")
               if j.label == "cli/corpus/tower_cusp")
    code, text = job.run()
    assert job.check((code, text)) == (True, [])
    corrupted = text.replace('"degrees": [\n      2,', '"degrees": [\n      3,')
    assert corrupted != text
    assert job.check((code, corrupted))[1] == ["report differs from the committed bytes"]


def test_oracle_rejects_a_corrupted_mero_report():
    x1, x2 = O.var(0, 2), O.var(1, 2)
    f, g = O.mul(x1, x2), O.power(O.add(x1, x2), 2, 2)
    reduced = O.mul(O.mul(x1, x2), O.add(x1, x2))
    job = workloads.cli_job("mero", ["mero-analyze", "--f", "(x1)*(x2)", "--g", "(x1+x2)^2",
                                     "--machine"],
                            lambda r: workloads.check_theta(r, f, g, reduced))
    code, text = job.run()
    assert job.check((code, text)) == (True, [])
    corrupted = text.replace('"coefficient": "-1"', '"coefficient": "1"', 1)
    assert job.check((code, corrupted))[1]


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 3.0, 6.0, 0, 0],    # overlaps b: children cover 1..6
        ["d", 2.0, 3.0, 1, 0],
        ["e", 8.0, 12.0, 0, 0],   # clipped to 8..10 inside a
    ]
    assert layers.self_times(spans) == [3.0, 2.0, 3.0, 1.0, 4.0]


def test_tracer_patches_by_name_imports_and_restores_them():
    original = tower.build_tower
    f = Jet.variable(X2, "x2") ** 2 - Jet.variable(X2, "x1") ** 3
    tracer = layers.Tracer()
    with tracer.installed():
        assert tower.build_tower is not original
        tower.build_tower(f)
    assert tower.build_tower is original
    names = {s[0] for s in tracer.spans}
    assert {"tower.build_tower", "weierstrass.prepare", "pseudopoly.gendisc", "jets.mul"} <= names
    metrics = tracer.metrics(1.0, 1.0)
    assert set(metrics) == set(layers.METRIC_NAMES)
    assert metrics["tower.levels"][0] == 2


def curve(a, b):
    return O.clean({(0, 1): Fraction(1), (1, 0): Fraction(a), (2, 0): Fraction(b)})


def test_vertical_defect_needs_x1_squared_to_divide_f_minus_g():
    # (x2 - x1 - x1^2)(x2 + x1) - (x2 - 3 x1 - 2 x1^2)(x2 + 3 x1 + x1^2) = 2 x1^2 (2 + x1)^2
    f = O.mul(curve(-1, -1), curve(1, 0))
    assert workloads.vertical_defect(f, O.mul(curve(-3, -2), curve(3, 1))) == "mero-vertical"
    assert workloads.vertical_defect(f, O.mul(curve(-3, -2), curve(2, 1))) == ""
    assert workloads.vertical_defect(curve(-1, 1), curve(-1, 2)) == "mero-vertical"
    assert workloads.vertical_defect(curve(-1, 1), curve(1, 1)) == ""


def test_probe_jobs_are_the_perturbed_germs_and_name_a_known_defect():
    jobs = workloads.make_jobs("ladder", 7, ROOT)
    probe = [j for j in jobs if j.defect]
    assert {j.label.rsplit("/", 1)[1] for j in probe} == {"perturbed"}
    assert len(probe) == workloads.PROBE_DRAWS * len(workloads.LADDER_PERTURBED)
    assert len(jobs) - len(probe) == workloads.LADDER_DRAWS * (len(workloads.LADDER_TOWERS)
                                                               + len(workloads.LADDER_FAMILIES))
    for workload in workloads.WORKLOADS:
        for job in workloads.make_jobs(workload, 7, ROOT):
            assert job.defect in ("", *workloads.KNOWN_DEFECTS)


def test_probe_counts_failed_jobs_apart(capsys):
    import run

    name = next(iter(workloads.KNOWN_DEFECTS))
    jobs = [workloads.Job("ok", {}, lambda: 1, lambda out: (True, []), name),
            workloads.Job("bad", {}, lambda: 2, lambda out: (True, ["wrong"]), name)]
    assert run.run_probe(jobs, [0, 1]) == 1
    out = capsys.readouterr().out
    assert f"KNOWN DEFECT {name}: bad: wrong" in out
    assert "1 of 2 probe jobs failed" in out
