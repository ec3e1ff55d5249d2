"""Audit the orders a workload states: rerun each command at a multiple of
its order and check that the two machine reports agree where both claim to
know the answer.

Run from any directory::

    python3 tools/orderaudit.py --root DIR --workload systems --seeds 3,11

``DIR`` is a checkout of equijet; the program comes from ``DIR/src``.  The
workload ``systems`` is the seeded ``tower`` commands of
``tools/fingerprint.py`` (:func:`fingerprint.systems_commands`).  Each runs
in-process through ``cli.main`` with ``--machine`` at its order ``N`` and
again at ``FACTOR*N``, and the ``result`` parts of the two reports are
walked in parallel:

* a jet entry flagged exact in both reports must be equal;
* any other jet entry must agree below the least order that a non-exact
  side states;
* every other difference (a level more or less, another verdict, another
  degree) is a structural difference, listed apart;
* a command that ends in an error at either order is listed apart too.

One line is printed per finding, ``kind seed index label detail``, with
``kind`` one of ``disagree`` (a jet path), ``structure`` and ``error``;
then one count line per workload.  A job is comparable when both runs
succeed, and counted as disagreeing when one of its jet entries disagrees.
Last come the :data:`SLOWEST` jobs that took the most CPU time, one line
each, ``slow seed index label`` and the CPU seconds of the runs at ``N``
and at ``FACTOR*N``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from fingerprint import run_cli, systems_commands

#: The higher order is ``FACTOR`` times the command's own.
FACTOR = 3
#: How many of the slowest jobs the audit names at its end.
SLOWEST = 5


def is_jet(x) -> bool:
    return isinstance(x, dict) and set(x) == {"text", "order", "exact", "terms"}


def known(entry, below):
    """The terms of a jet entry of total degree below ``below``."""
    return [t for t in entry["terms"] if sum(t["exponents"]) < below]


def compare(low, high, path, disagree, structure):
    """Walk two report values in parallel, appending the paths of jet
    entries that disagree to ``disagree`` and every other difference to
    ``structure``."""
    if is_jet(low) and is_jet(high):
        below = min([float("inf")] + [e["order"] for e in (low, high) if not e["exact"]])
        if known(low, below) != known(high, below):
            disagree.append(f"{path} below {below}")
    elif isinstance(low, dict) and isinstance(high, dict):
        if low.keys() != high.keys():
            structure.append(f"{path}: keys {sorted(low)} != {sorted(high)}")
        for key in (key for key in low if key in high):
            compare(low[key], high[key], f"{path}.{key}", disagree, structure)
    elif isinstance(low, list) and isinstance(high, list):
        if len(low) != len(high):
            structure.append(f"{path}: length {len(low)} != {len(high)}")
        for i, (a, b) in enumerate(zip(low, high)):
            compare(a, b, f"{path}[{i}]", disagree, structure)
    elif low != high:
        structure.append(f"{path}: {json.dumps(low)} != {json.dumps(high)}")


def at_order(argv, factor):
    """``argv`` with ``--machine`` and its order multiplied by ``factor``."""
    argv = list(argv) + ["--machine"]
    i = argv.index("--order") + 1
    argv[i] = str(factor * int(argv[i]))
    return argv


def audit(argv):
    """``(errors, disagree, structure, seconds)`` of one command at ``N`` and
    ``FACTOR*N``, ``seconds`` the CPU time of each of the two runs."""
    reports, errors, seconds = [], [], []
    for k in (1, FACTOR):
        start = time.process_time()
        out = run_cli(at_order(argv, k))
        seconds.append(time.process_time() - start)
        if isinstance(out, BaseException):
            errors.append(f"at {k}N raised {type(out).__name__}: {out}")
        elif out[0] != 0:
            message = (out[2].strip().splitlines() or [""])[-1]
            errors.append(f"at {k}N exit {out[0]}: {message}")
        else:
            reports.append(json.loads(out[1])["result"])
    disagree, structure = [], []
    if not errors:
        compare(reports[0], reports[1], "result", disagree, structure)
    return errors, disagree, structure, seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", required=True, type=Path, help="checkout to run")
    ap.add_argument("--workload", required=True, choices=["systems"])
    ap.add_argument("--seeds", required=True, help="comma-separated seeds")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(args.root.resolve() / "src")]
    sys.dont_write_bytecode = True
    os.environ.pop("EQUIJET_ORDER", None)

    counts = dict.fromkeys(("jobs", "errors", "comparable", "disagree", "structure"), 0)
    timed = []
    for seed in (int(s) for s in args.seeds.split(",")):
        for i, (label, command) in enumerate(systems_commands(seed)):
            errors, disagree, structure, seconds = audit(command)
            timed.append((sum(seconds), seed, i, label, seconds))
            counts["jobs"] += 1
            counts["errors"] += bool(errors)
            counts["comparable"] += not errors
            counts["disagree"] += bool(disagree)
            counts["structure"] += bool(structure)
            for kind, lines in (("error", errors), ("disagree", disagree),
                                ("structure", structure)):
                for line in lines:
                    print(kind, seed, i, label, line)
    print(f"{args.workload}: " + ", ".join(f"{v} {k}" for k, v in counts.items()))
    timed.sort(key=lambda t: t[0], reverse=True)
    for _, seed, i, label, (low, high) in timed[:SLOWEST]:
        print(f"slow {seed} {i} {label} {low:.2f}s at N, {high:.2f}s at {FACTOR}N")
    return 0


if __name__ == "__main__":
    sys.exit(main())
