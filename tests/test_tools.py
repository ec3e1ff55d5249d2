"""The tools under ``tools/``: run as a user runs them, in a subprocess,
or one helper in process."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_fingerprint_of_cli_needs_the_corpus(tmp_path):
    # a root with the program and the workloads but no corpus/: the cli
    # jobs would silently lose their corpus fixtures
    for name in ("src", "bench"):
        (tmp_path / name).symlink_to(ROOT / name, target_is_directory=True)
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "fingerprint.py"), "--root", str(tmp_path),
         "--workload", "cli", "--seeds", "3"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "corpus" in lines[0]


def jet_entry(order, exact, *terms):
    """A jet entry of a machine report with the ``(exponents, coefficient)``
    pairs ``terms``."""
    return {"text": "", "order": order, "exact": exact,
            "terms": [{"exponents": list(k), "coefficient": c} for k, c in terms]}


def test_orderaudit_compares_jets_below_the_least_order_a_truncated_side_states():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import orderaudit
    finally:
        sys.path.remove(str(ROOT / "tools"))

    def findings(low, high):
        disagree, structure = [], []
        orderaudit.compare(low, high, "result", disagree, structure)
        return disagree, structure

    x, x3, x5 = ((1, 0), "1"), ((3, 0), "-1"), ((5, 0), "2")
    # truncated at 3 against 9: the x^3 and x^5 terms lie beyond 3
    assert findings(jet_entry(3, False, x), jet_entry(9, False, x, x3, x5)) == ([], [])
    assert findings(jet_entry(6, False, x), jet_entry(9, False, x, x3)) == (
        ["result below 6"], [])
    # an exact side states no order: below the other side's
    assert findings(jet_entry(9, True, x, x3), jet_entry(27, False, x, x3, x5)) == (
        ["result below 27"], [])
    assert findings(jet_entry(9, True, x), jet_entry(27, True, x)) == ([], [])
    low = {"kind": "trivial", "levels": [jet_entry(3, True, x)]}
    high = {"kind": "split", "levels": [jet_entry(9, True, x3), jet_entry(9, True, x)]}
    assert findings(low, high) == (
        ["result.levels[0] below inf"],
        ['result.kind: "trivial" != "split"', "result.levels: length 1 != 2"])


def test_orderaudit_ends_with_the_slowest_jobs(monkeypatch, capsys):
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import orderaudit
    finally:
        sys.path.remove(str(ROOT / "tools"))
    report = '{"result": {"kind": "trivial"}}'
    commands = [(f"job{i}", ["tower", "x", "--order", str(i + 1)]) for i in range(7)]
    monkeypatch.setattr(orderaudit, "systems_commands", lambda seed: commands)
    monkeypatch.setattr(orderaudit, "run_cli", lambda argv: (0, report, ""))
    # main prepends the root to sys.path and sets these two
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.delenv("EQUIJET_ORDER", raising=False)
    orderaudit.main(["--root", str(ROOT), "--workload", "systems", "--seeds", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "systems: 7 jobs, 0 errors, 7 comparable, 0 disagree, 0 structure"
    assert len(lines) == 1 + orderaudit.SLOWEST
    assert all(line.startswith("slow 3 ") and line.endswith("at 3N") for line in lines[1:])
