import argparse
import io
import json
import pathlib
import random
import time
from contextlib import redirect_stdout

import pytest

from equijet.cli import main

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
# reports the corpus does not cover; kept out of ``corpus/`` so that the
# benchmark's corpus job mix stays as it is
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN_BUDGET_S = 2.0


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def machine_run(argv):
    return run(list(argv) + ["--machine"])


def test_tower_cusp_report():
    code, out = machine_run(["tower", "x2^2 - x1^3", "--vars", "x1,x2", "--order", "16"])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["degrees"] == [2, 3]
    assert rep["result"]["indices"] == [1, 3]
    assert rep["result"]["terminal_unit"]["text"] == "3"
    assert rep["result"]["levels"][1]["unit"]["text"] == "4"


def test_check_family_negative_report():
    code, out = machine_run(["check-family", "x2^2 - x1^3 - t*x1^2",
                             "--vars", "x1,x2", "--params", "t"])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["verdict"] == "not-equisingular"
    assert rep["result"]["witness"]["text"] == "2*t^2"


def test_mero_analyze_report():
    code, out = machine_run(["mero-analyze", "--f", "(x1)*(x2)", "--g", "(x1+x2)^2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["e"] == 1
    assert rep["result"]["records"][0]["c"] == "1/4"


def test_mero_analyze_reports_an_algebraic_constant():
    code, out = machine_run(["mero-analyze", "--f", "(x1 + 4*x2)*(x1 - 4*x2)",
                             "--g", "(x1)*(x2)"])
    assert code == 0
    records = json.loads(out)["result"]["records"]
    # c^2 = -64: both constants live in Q(cconst0) and print with their minpoly
    assert [rec["c"] for rec in records] == [
        {"value": "cconst0", "minpoly": ["64", "0", "1"]},
        {"value": "-1*cconst0", "minpoly": ["64", "0", "1"]}]
    h = records[0]["h"]
    assert h["text"] == "(-1/2*cconst0)*x2 + x1"
    assert h["terms"][0]["coefficient"] == {"value": "-1/2*cconst0",
                                            "minpoly": ["64", "0", "1"]}


def test_mero_analyze_finds_a_constant_with_an_18_digit_numerator():
    # the rational root of the constant's polynomial is found without
    # factoring its 19-digit constant term
    code, out = machine_run(["mero-analyze", "--f", "(x2 - 1000000000000000003*x1^2)",
                             "--g", "(x1)^2", "--candidate", "x2"])
    assert code == 0
    [record] = json.loads(out)["result"]["informational"]
    assert (record["h"]["text"], record["c"], record["mu"]) == (
        "x2", "-1000000000000000003", 0)


def test_prepare_of_a_unit_prints_the_distinguished_polynomial_1():
    code, out = run(["prepare", "1 + x1", "--var", "x2", "--vars", "x1,x2"])
    assert code == 0
    assert "distinguished polynomial: 1\n" in out


def test_binomial_target_with_a_tail_beyond_the_order():
    # y1^2 = y2^3 holds here only modulo the order: the exact product of the
    # targets must still be truncated at it
    code, out = machine_run([
        "binomial", "x^3 + (-3)*x^5 + (9/2)*x^7 + (-4)*x^9 + (9/4)*x^11",
        "x^2 + (-2)*x^4 + (2)*x^6 + (-1)*x^8 + (1/4)*x^10", "--vars", "x", "--order", "12"])
    assert code == 0
    assert json.loads(out)["result"]["verified"] is True


@pytest.mark.parametrize("y1, y2", [("1", "1"), ("x^0", "x^0")])
def test_binomial_of_unit_targets_is_exit_2(y1, y2, capsys):
    # y1^2 = y2^3 holds at valuation 0, where no witness vanishes at the origin
    code, _ = run(["binomial", y1, y2, "--vars", "x"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: the targets are units; the family needs a witness "
        "that vanishes at the origin\n")


def test_usage_error_is_exit_1():
    code, _ = run(["tower"])
    assert code == 1


def test_parse_error_is_exit_1():
    code, _ = run(["gendisc", "x2^^2", "--var", "x2", "--vars", "x2"])
    assert code == 1


@pytest.mark.parametrize("expr", ["x2^² - x1", "x2^2 - ²"])
def test_a_unicode_digit_is_a_parse_error_not_a_traceback(expr, capsys):
    code, out = run(["prepare", expr, "--var", "x2", "--vars", "x1,x2"])
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert "unexpected character '²'" in err and err.count("\n") == 1


def test_precondition_error_is_exit_2():
    code, _ = run(["prepare", "0", "--var", "x2", "--vars", "x1,x2"])
    assert code == 2
    code, _ = run(["divide", "x1", "x1*x2", "--var", "x2", "--vars", "x1,x2"])
    assert code == 2


def test_degree_cap_fails_before_any_division(monkeypatch, capsys):
    import equijet.weierstrass as weierstrass
    divisions = []
    divide = weierstrass.weierstrass_divide

    def counted(*args):
        divisions.append(args)
        return divide(*args)

    monkeypatch.setattr(weierstrass, "weierstrass_divide", counted)
    code, _ = run(["prepare", "x2^13 + x1", "--var", "x2", "--vars", "x1,x2"])
    assert code == 2
    assert "degree 13 exceeds the cap 12" in capsys.readouterr().err
    assert not divisions


def test_inconclusive_is_exit_3_and_says_so():
    import sys
    from io import StringIO
    err = StringIO()
    old = sys.stderr
    sys.stderr = err
    try:
        code, _ = run(["tower", "x2^2 - x1^20", "--vars", "x1,x2", "--order", "8"])
    finally:
        sys.stderr = old
    assert code == 3
    assert "certified only modulo" in err.getvalue()
    assert "identically" not in err.getvalue()


def test_check_family_inconclusive_exit_3():
    code, out = machine_run(["check-family", "x2^2 - x1^20", "--vars", "x1,x2",
                             "--params", "t", "--order", "8"])
    assert code == 3
    rep = json.loads(out)
    assert rep["result"]["verdict"] == "inconclusive"


def test_determinism_byte_identical_reports():
    for argv in (
        ["tower", "x1*x2*(x1+x2)", "--vars", "x1,x2", "--seed", "7"],
        ["check-family", "x2^2 - (1+t)*x1^3", "--vars", "x1,x2", "--params", "t"],
        ["mero-analyze", "--f", "(x2)^2", "--g", "(x1)"],
        ["prepare", "x1*x2", "--var", "x2", "--vars", "x1,x2", "--seed", "3"],
    ):
        code1, out1 = machine_run(argv)
        code2, out2 = machine_run(argv)
        assert code1 == code2 == 0
        assert out1 == out2


def test_order_env_default(monkeypatch):
    monkeypatch.setenv("EQUIJET_ORDER", "9")
    code, out = machine_run(["tower", "x2^2 - x1^3", "--vars", "x1,x2"])
    assert code == 0
    assert json.loads(out)["order"] == 9


def test_parser_is_built_once_and_reads_the_env_order_per_call(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    argv = ["tower", "x2^2 - x1^3", "--vars", "x1,x2"]
    monkeypatch.delenv("EQUIJET_ORDER", raising=False)
    code, out = machine_run(argv)
    assert code == 0 and json.loads(out)["order"] == 16
    after_first = len(built)
    monkeypatch.setenv("EQUIJET_ORDER", "9")
    code, out = machine_run(argv)
    assert code == 0 and json.loads(out)["order"] == 9
    monkeypatch.setenv("EQUIJET_ORDER", "abc")
    capsys.readouterr()
    code, _ = machine_run(argv)
    assert code == 1
    assert capsys.readouterr().err == "error: argument --order: not an integer: 'abc'\n"
    # only the first call may build the parser (none does if an earlier
    # test of this process built it)
    assert len(built) == after_first
    assert built.count("equijet") <= 1


@pytest.mark.parametrize("fixture", sorted(CORPUS.glob("*.args")),
                         ids=lambda p: p.stem)
def test_corpus_matches_committed_reports(fixture):
    argv = fixture.read_text().splitlines()
    code, out = run(argv)
    assert code == 0
    expected = (CORPUS / "expected" / (fixture.stem + ".json")).read_text()
    assert out == expected


@pytest.mark.parametrize("fixture", sorted(GOLDEN.glob("*.args")),
                         ids=lambda p: p.stem)
def test_golden_reports(fixture):
    argv = fixture.read_text().splitlines()
    start = time.perf_counter()
    code, out = run(argv)
    # the generic-factor mero reports take seconds when their constant gcds
    # run the whole pseudo-remainder sequence
    assert time.perf_counter() - start < GOLDEN_BUDGET_S
    expected = (GOLDEN / "expected" / (fixture.stem + ".json")).read_text()
    verdict = json.loads(expected)["result"].get("verdict")
    assert code == (3 if verdict == "inconclusive" else 0)
    assert out == expected


def test_golden_reports_cover_their_cases():
    def result(name):
        return json.loads((GOLDEN / "expected" / f"{name}.json").read_text())["result"]

    truncated = result("family_truncated_inconclusive")
    assert truncated["verdict"] == "inconclusive"
    assert not any(lv["axis_vanishing_exact"] for lv in truncated["levels"])
    identity = [["1", "0"], ["0", "1"]]
    # a shear below the top level remaps the level above it
    for name in ("tower_lower_shear", "family_lower_shear"):
        assert result(name)["levels"][1]["change"]["matrix"] != identity
    assert result("tower_system_shear")["levels"][0]["change"]["matrix"] != identity
    # a truncated slice is a report entry: no quotient check at t = 0
    zero = result("mero_deform_truncated")["slices"][0]
    assert zero["t"] == "0"
    assert zero["polynomial_data"] is False and zero["reproduces_quotient"] is None


@pytest.mark.parametrize("argv, env_order", [
    (["tower", "x2^2 - x1^3", "--vars", "x1,x2", "--order", "-3"], None),
    (["mero-deform", "--f", "(x1)*(x2)", "--g", "(x1+x2)^2", "--t", "abc"], None),
    (["tower", "x2^2 - x1^3", "--vars", "x1,x2"], "abc"),
    (["mero-deform", "--f", "(x1)*(x2)", "--g", "(x1+x2)^2", "--k0", "-1"], None),
], ids=["negative-order", "bad-rational", "bad-env-order", "negative-k0"])
def test_bad_input_is_a_one_line_usage_error(argv, env_order, monkeypatch, capsys):
    if env_order is not None:
        monkeypatch.setenv("EQUIJET_ORDER", env_order)
    code, _ = run(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


# irreducible over Q and pairwise coprime; homogeneous, so that f and g of one
# degree give 1-form divisors whose constants may be algebraic of any degree
MERO_BASES = {"x1": 1, "x2": 1, "x1+x2": 1, "x1-2*x2": 1, "x1+3*x2": 1, "x1^2+x2^2": 2,
              "x1^2+2*x2^2": 2, "x1^2-3*x2^2": 2, "x1^2-5*x2^2": 2, "x1^2+x1*x2+x2^2": 2}


def test_mero_analyze_of_irreducible_factors_exits_0_or_2(capsys):
    rng = random.Random(1)
    done = 0
    while done < 40:
        chosen = rng.sample(sorted(MERO_BASES), rng.choice([2, 3, 4]))
        exps = [rng.choice([1, 2]) for _ in chosen]
        cut = rng.randrange(1, len(chosen))
        degs = [MERO_BASES[b] * e for b, e in zip(chosen, exps)]
        if sum(degs[:cut]) != sum(degs[cut:]):
            continue
        text = [f"({b})^{e}" for b, e in zip(chosen, exps)]
        f, g = "*".join(text[:cut]), "*".join(text[cut:])
        code, _ = run(["mero-analyze", "--f", f, "--g", g])
        err = capsys.readouterr().err
        assert code in (0, 2), (f, g, code, err)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (f, g, err)
        done += 1


def test_mero_analyze_of_a_cubic_constant_is_a_precondition_error(capsys):
    # the constants of one divisor piece are the three roots of an irreducible cubic
    code, _ = run(["mero-analyze", "--f", "(x1^2+2*x2^2)*(x1+x2)", "--g", "(x1)*(x2)^2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "supports a single one" in err


def test_mero_analyze_names_a_constant_factor(capsys):
    # a parenthesized product lists its factors: here the constant 2 and x1
    code, _ = run(["mero-analyze", "--f", "(2*x1)*(x2)", "--g", "(x2 - x1^2)"])
    assert code == 2
    assert capsys.readouterr().err == "error: factors must be nonconstant: 2\n"


@pytest.mark.parametrize("expr", ["-x2^2+x1^3", "-x2^2 + x1^3"], ids=["unspaced", "spaced"])
def test_expression_may_start_with_minus(expr):
    code, out = machine_run(["tower", expr, "--vars", "x1,x2"])
    _, expected = machine_run(["tower", "0 - x2^2 + x1^3", "--vars", "x1,x2"])
    assert code == 0
    assert json.loads(out)["result"] == json.loads(expected)["result"]


def test_report_writer_is_json_dumps_with_an_indent_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from equijet.cli import _report_text

    # quotes, backslashes, control, non-ASCII and astral characters
    text = st.text(st.sampled_from('ab"\\/\n\t\x00\x1f\x7fé ☺\U0001d11e '))
    leaves = (text | st.none() | st.booleans()
              | st.integers(-(10 ** 40), 10 ** 40) | st.integers(-3, 3))
    values = st.recursive(leaves, lambda inner: (
        st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(text, inner, max_size=4)), max_leaves=20)

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @hypothesis.given(values)
    def body(value):
        assert _report_text(value) == json.dumps(value, indent=2)

    body()
    assert _report_text({"a": [], "b": {}, "c": ()}) == json.dumps(
        {"a": [], "b": {}, "c": ()}, indent=2)
