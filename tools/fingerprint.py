"""Fingerprint every output of a benchmark workload, to check that a change
leaves the program's results as they were.

Run from any directory::

    python3 tools/fingerprint.py --root DIR --workload cli --seeds 3,11,21

``DIR`` is a checkout of equijet; the jobs and the program both come from
it (``DIR/bench/workloads.py``, read only, and ``DIR/src``).  Every job of
each seed is run once, the known-defect probe jobs included, and one line
``seed index label hash`` is printed per job, then ``total hash``.  The hash
covers the whole output: the terms, order and exactness flag of every jet,
every other field of the result objects, and the type and message of a
raised error; for a CLI job, the exit code and the printed text without its
``elapsed:`` lines.  Comparing two checkouts is one ``diff``::

    diff <(python3 tools/fingerprint.py --root OLD --workload cli --seeds 3) \\
         <(python3 tools/fingerprint.py --root NEW --workload cli --seeds 3)
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path


def canon(x):
    """A JSON-ready value that determines ``x`` up to object identity."""
    from equijet.jets import Jet
    from equijet.scalars import FieldElement

    if isinstance(x, Jet):
        return ["Jet", list(x.ctx.names), x.ctx.n_params, str(x.order), x.exact,
                [[list(k), canon(v)] for k, v in x.graded_items()]]
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", required=True, type=Path, help="checkout to run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated seeds")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "bench"), str(root / "src")]
    sys.dont_write_bytecode = True
    os.environ.pop("EQUIJET_ORDER", None)
    import workloads

    total = hashlib.sha256()
    for seed in (int(s) for s in args.seeds.split(",")):
        for i, job in enumerate(workloads.make_jobs(args.workload, seed, root)):
            digest = hashlib.sha256(json.dumps(canon(job.run())).encode()).hexdigest()
            total.update(digest.encode())
            print(seed, i, job.label, digest[:16])
    print("total", total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
