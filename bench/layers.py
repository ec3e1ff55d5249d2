"""Per-layer spans and counters, recorded from outside the program.

:class:`Tracer` wraps the public functions of each ``equijet`` module and
patches every module attribute (and class attribute) that binds one of
them, because ``tower``, ``cli``, ``mero`` and ``deform`` import functions by
name.  A span is ``[name, start, end, parent, job]``; spans stay in memory
and are written out once, after the traced pass.  A span's self time is its
duration minus the part of its interval that its child spans cover.

Counts (calls, pairs, terms, dimensions) are deterministic for a given
input set; times are wall clock and include the wrappers' own cost, which
the run reports as the tracing overhead.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Sequence

#: span name -> (module, attribute path) of the wrapped public function.
SPANS = {
    "jets.mul": ("equijet.jets", "Jet.__mul__"),
    "jets.add": ("equijet.jets", "Jet.__add__"),
    "jets.invert_unit": ("equijet.jets", "Jet.invert_unit"),
    "jets.compose": ("equijet.jets", "Jet.compose"),
    "weierstrass.prepare": ("equijet.weierstrass", "weierstrass_prepare"),
    "weierstrass.divide": ("equijet.weierstrass", "weierstrass_divide"),
    "weierstrass.find_regular_change": ("equijet.weierstrass", "find_regular_change"),
    "pseudopoly.gendisc": ("equijet.pseudopoly", "generalized_discriminants"),
    "pseudopoly.hankel_minor": ("equijet.pseudopoly", "hankel_minor"),
    "pseudopoly.berkowitz": ("equijet.pseudopoly", "berkowitz_det"),
    "pseudopoly.power_sums": ("equijet.pseudopoly", "power_sums"),
    "pseudopoly.resultant": ("equijet.pseudopoly", "resultant_jets"),
    "polygcd.jet_gcd": ("equijet.polygcd", "jet_gcd"),
    "polygcd.exact_divide": ("equijet.polygcd", "exact_divide"),
    "polygcd.squarefree": ("equijet.polygcd", "squarefree_decomposition"),
    "mero.analyze": ("equijet.mero", "analyze"),
    "mero.theta": ("equijet.mero", "theta"),
    "mero.emit_system": ("equijet.mero", "emit_system"),
    "mero.deformation": ("equijet.mero", "build_mero_deformation"),
    "deform.verify_family": ("equijet.deform", "verify_family"),
    "deform.binomial_family": ("equijet.deform", "binomial_family"),
    "tower.build_tower": ("equijet.tower", "build_tower"),
    "tower.check_family": ("equijet.tower", "check_family"),
    "tower.verify_tower": ("equijet.tower", "verify_tower"),
    "parser.parse_jet": ("equijet.parser", "parse_jet"),
    "cli.main": ("equijet.cli", "main"),
}
#: counted without a span: scalar operations are too frequent to time.
COUNTED = {"scalars.field_mul": ("equijet.scalars", "FieldElement.__mul__")}

#: Reported metrics, by kind; ``Tracer.metrics`` gives their values and units.
CALLS = ("jets.mul", "jets.invert_unit", "jets.compose", "weierstrass.prepare",
         "weierstrass.divide", "weierstrass.find_regular_change", "pseudopoly.gendisc",
         "pseudopoly.hankel_minor", "pseudopoly.berkowitz", "pseudopoly.resultant",
         "polygcd.jet_gcd", "polygcd.exact_divide", "deform.verify_family", "parser.parse_jet")
SELF_MS = ("jets.mul", "jets.invert_unit", "jets.compose", "jets.add", "weierstrass.prepare",
           "weierstrass.divide", "weierstrass.find_regular_change", "pseudopoly.gendisc",
           "pseudopoly.berkowitz", "pseudopoly.power_sums", "pseudopoly.resultant",
           "polygcd.jet_gcd", "polygcd.exact_divide", "polygcd.squarefree", "mero.analyze",
           "mero.theta", "mero.emit_system", "mero.deformation", "deform.verify_family",
           "deform.binomial_family", "tower.build_tower", "tower.check_family",
           "tower.verify_tower", "parser.parse_jet", "cli.main")
COUNTERS = ("jets.mul.exact_calls", "jets.mul.pairs", "jets.mul.pair_yield", "jets.mul.terms_out",
            "scalars.coeff_bits.max", "scalars.field_mul.calls", "weierstrass.divide.muls",
            "weierstrass.prepare.exact_yield", "pseudopoly.berkowitz.dim_sum",
            "polygcd.exact_divide.yield", "tower.levels", "cli.report_bytes", "trace.spans",
            "trace.untraced_jobs_per_s", "trace.traced_jobs_per_s", "trace.overhead")
METRIC_NAMES = [f"{n}.calls" for n in CALLS] + [f"{n}.self_ms" for n in SELF_MS] + list(COUNTERS)


def resolve(module: str, path: str):
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Duration minus the union of the child intervals, clipped to the span."""
    kids: Dict[int, List[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            kids[s[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, cur = 0.0, None
        for a, b in sorted((max(spans[c][1], start), min(spans[c][2], end)) for c in kids[i]):
            if b <= a:
                continue
            if cur is None or a > cur[1]:
                covered += 0.0 if cur is None else cur[1] - cur[0]
                cur = [a, b]
            else:
                cur[1] = max(cur[1], b)
        if cur is not None:
            covered += cur[1] - cur[0]
        out.append(end - start - covered)
    return out


def coeff_bits(v) -> int:
    if isinstance(v, Fraction):
        return v.numerator.bit_length() + v.denominator.bit_length()
    return max((coeff_bits(c) for c in getattr(v, "coeffs", ())), default=0)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.job = -1
        self.count: Counter = Counter()
        self.bits = 0

    # -- per-call observations -------------------------------------------------

    def _mul(self, args, out, _):
        from equijet.jets import Jet

        if out is NotImplemented:
            return
        a, b = args
        hb = Counter(sum(k) for k in b.terms) if isinstance(b, Jet) else Counter({0: 1 if b else 0})
        ha = Counter(sum(k) for k in a.terms)
        pairs = len(a.terms) * sum(hb.values())
        full = a.exact and (not isinstance(b, Jet) or b.exact)
        if full:
            below = pairs
        else:
            below = sum(na * nb for da, na in ha.items() for db, nb in hb.items()
                        if da + db < out.order)
        c = self.count
        c["jets.mul.exact_calls"] += full
        c["jets.mul.pairs"] += pairs
        c["jets.mul.pairs_below"] += below
        c["jets.mul.terms_out"] += len(out.terms)
        self.bits = max(self.bits, max((coeff_bits(v) for v in out.terms.values()), default=0))

    def _prepare(self, args, out, _):
        if args[0].exact:
            self.count["weierstrass.prepare.exact_in"] += 1
            self.count["weierstrass.prepare.exact_out"] += out.exact

    def _berkowitz(self, args, out, _):
        self.count["pseudopoly.berkowitz.dim_sum"] += len(args[0])

    def _exact_divide(self, args, out, _):
        self.count["polygcd.exact_divide.hits"] += out is not None

    def _levels(self, args, out, _):
        self.count["tower.levels"] += len(out.levels)

    def _report_bytes(self, args, out, before):
        if before is not None:
            self.count["cli.report_bytes"] += len(sys.stdout.getvalue().encode()) - before

    @staticmethod
    def _stdout_size(args):
        get = getattr(sys.stdout, "getvalue", None)
        return len(get().encode()) if get else None

    # -- installation ----------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            state = before(args) if before else None
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after:
                after(args, out, state)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        count = self.count

        def wrapper(*args, **kwargs):
            count[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def wrappers(self):
        hooks = {"jets.mul": (None, self._mul), "weierstrass.prepare": (None, self._prepare),
                 "pseudopoly.berkowitz": (None, self._berkowitz),
                 "polygcd.exact_divide": (None, self._exact_divide),
                 "tower.build_tower": (None, self._levels),
                 "tower.check_family": (None, self._levels),
                 "cli.main": (self._stdout_size, self._report_bytes)}
        for name, (module, path) in SPANS.items():
            owner, attr = resolve(module, path)
            fn = getattr(owner, attr)
            before, after = hooks.get(name, (None, None))
            yield fn, self._wrap(name, fn, before, after)
        for name, (module, path) in COUNTED.items():
            owner, attr = resolve(module, path)
            fn = getattr(owner, attr)
            yield fn, self._counted(name, fn)

    @contextmanager
    def installed(self):
        """Replace every binding of a wrapped function inside ``equijet``:
        module globals and class attributes (``__rmul__ = __mul__`` too)."""
        replace = {id(fn): (fn, w) for fn, w in self.wrappers()}
        patched = []
        owners = [m for n, m in sys.modules.items() if n == "equijet" or n.startswith("equijet.")]
        owners += [v for m in list(owners) for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("equijet")]
        for owner in owners:
            for attr, val in list(vars(owner).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(owner, attr, hit[1])
                    patched.append((owner, attr, val))
        try:
            yield self
        finally:
            for owner, attr, val in patched:
                setattr(owner, attr, val)

    # -- the traced pass and its metrics ---------------------------------------

    def run_pass(self, jobs, order):
        """Run every job once, traced; returns the CPU seconds and outputs."""
        outs = {}
        t0 = time.process_time()
        for i in order:
            self.job = i
            outs[i] = jobs[i].run()
        return time.process_time() - t0, outs

    def metrics(self, untraced_jps: float, traced_jps: float) -> dict:
        spans = self.spans
        selfs = self_times(spans)
        calls: Counter = Counter()
        self_ms: Dict[str, float] = defaultdict(float)
        under_divide = [False] * len(spans)
        for i, (name, _, _, parent, _) in enumerate(spans):
            calls[name] += 1
            self_ms[name] += selfs[i] * 1000
            if parent >= 0:
                under_divide[i] = under_divide[parent] or spans[parent][0] == "weierstrass.divide"
        c = self.count
        ratio = lambda num, den: c[num] / c[den] if c[den] else 0.0
        values = {
            "jets.mul.exact_calls": (c["jets.mul.exact_calls"], "count"),
            "jets.mul.pairs": (c["jets.mul.pairs"], "count"),
            "jets.mul.pair_yield": (ratio("jets.mul.pairs_below", "jets.mul.pairs"), "ratio"),
            "jets.mul.terms_out": (c["jets.mul.terms_out"], "count"),
            "scalars.coeff_bits.max": (self.bits, "bits"),
            "scalars.field_mul.calls": (c["scalars.field_mul"], "count"),
            "weierstrass.divide.muls": (sum(1 for i, s in enumerate(spans)
                                            if s[0] == "jets.mul" and under_divide[i]), "count"),
            "weierstrass.prepare.exact_yield": (ratio("weierstrass.prepare.exact_out",
                                                      "weierstrass.prepare.exact_in"), "ratio"),
            "pseudopoly.berkowitz.dim_sum": (c["pseudopoly.berkowitz.dim_sum"], "count"),
            "polygcd.exact_divide.yield": (c["polygcd.exact_divide.hits"] / calls["polygcd.exact_divide"]
                                           if calls["polygcd.exact_divide"] else 0.0, "ratio"),
            "tower.levels": (c["tower.levels"], "count"),
            "cli.report_bytes": (c["cli.report_bytes"], "bytes"),
            "trace.spans": (len(spans), "count"),
            "trace.untraced_jobs_per_s": (untraced_jps, "1/s"),
            "trace.traced_jobs_per_s": (traced_jps, "1/s"),
            "trace.overhead": (untraced_jps / traced_jps, "x"),
        }
        out = {f"{n}.calls": (calls[n], "count") for n in CALLS}
        out.update({f"{n}.self_ms": (self_ms[n], "ms") for n in SELF_MS})
        out.update(values)
        return out

    def write(self, path: Path) -> int:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "job"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
        return len(self.spans)
