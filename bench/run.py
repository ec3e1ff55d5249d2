"""Closed-loop benchmark of equijet: one client, one process, no threads.

Run from the root of a checkout::

    python3 bench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

The client sends the next job when the previous one returns.  A run

1. times ``import equijet.cli`` in fresh interpreters (``setup_s``),
2. generates the workload's jobs from ``--seed`` and prints their digest,
3. runs a few jobs untimed as a warm-up,
4. with ``--trace 0`` cycles through the jobs in a seeded order for
   ``--seconds`` (then times once each job the loop did not reach) and
   reports the end-to-end metrics; with ``--trace 1`` runs two plain passes
   (the second one timed) and one traced pass over the timed jobs among the
   first eighth of the jobs and reports the per-layer metrics of ``layers.py`` and the tracing
   overhead,
5. checks the first output of every job against the oracles in
   ``oracle.py``, outside the timed region, and every repeated output
   against the first,
6. runs and checks once each job of the known-defect probe (see
   ``workloads.py``): the input classes that hit a known defect of the
   program.  Their failures are printed and counted apart from the timed
   jobs (``probe.failed`` in the traced run) and do not enter ``correct``,
   ``attempted`` or ``failed``.

A job counts as failed when its output fails its check or it raises
anything but ``InconclusiveError``; it counts as conclusive when it
reaches a verdict that passes its check.

Job times are CPU time of this single-threaded process: the jobs do no
I/O, so on an idle core CPU time is their latency, while wall time on a
shared machine adds other tenants' scheduling delays.  ``job_ms.p50`` and
``job_ms.p90`` are taken over the per-job medians, so every generated input
weighs the same however often the loop repeated it; ``jobs_per_s`` is the
number of jobs over the sum of those medians.  Every job time, and
``setup_s``, is scaled to the speed of a reference machine by
:class:`Speed`; the unscaled values are printed too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ENV_ORDER = "EQUIJET_ORDER"
SETUP_SAMPLES = 15
WARMUP = 3
#: The traced pass keeps every span in memory: about 300k on ``ladder``.
TRACE_SHARE = 8
#: CPU milliseconds of ``reference_kernel`` on the machine the benchmark was
#: defined on (Intel Xeon Processor, 2 vCPUs, Python 3.11.7).
REFERENCE_MS = 4.5
#: Wall seconds between reference samples during the timed loop.
REFERENCE_EVERY = 0.05
#: Exponent of the speed factor: between its two speeds the machine slows
#: ``reference_kernel`` by about 1.79x, the ladder jobs by 1.71x and the cli
#: jobs by 1.66x, i.e. by about the 0.9th power of the reference's slowdown.
SPEED_EXPONENT = 0.9
#: Times ``import equijet.cli`` in a fresh interpreter, then samples
#: ``reference_kernel`` three times in that interpreter, on the CPU the import
#: ran on; prints the import's CPU seconds and the median sample.
SETUP_CODE = ("import time; t = time.process_time(); import equijet.cli; "
              "d = time.process_time() - t; import statistics, sys; sys.path.insert(0, {bench!r}); "
              "import run; s = run.Speed(); [s.sample() for _ in range(3)]; "
              "print(d, statistics.median(s.samples))")


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def program_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != ENV_ORDER}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup():
    """Median CPU seconds of ``import equijet.cli`` in a fresh interpreter,
    unscaled and with each sample scaled by the reference samples taken in
    the same interpreter."""
    times = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE.format(bench=str(BENCH))],
                              cwd=ROOT, env=program_env(), capture_output=True, text=True,
                              timeout=60)
        if done.returncode != 0:
            fail(f"importing equijet.cli failed:\n{done.stderr}")
        cpu, ref = map(float, done.stdout.split())
        times.append((cpu, ref))
    raw = statistics.median(t for t, _ in times)
    return raw, statistics.median(t / (ref * 1000 / REFERENCE_MS) ** SPEED_EXPONENT
                                  for t, ref in times)


def reference_kernel(a, b) -> dict:
    """A truncated product of two dense two-variable series with ``Fraction``
    coefficients: the shape of the program's hot loop, in the benchmark's
    own code so that no change to the program moves it."""
    out = {}
    for (i, j), va in a.items():
        for (k, m), vb in b.items():
            if i + j + k + m < 10:
                key = (i + k, j + m)
                out[key] = out.get(key, 0) + va * vb
    return out


class Speed:
    """This machine's speed relative to the one ``REFERENCE_MS`` was measured
    on, from ``reference_kernel`` samples taken between jobs.

    A shared 2-vCPU Intel Xeon virtual machine switches between two speeds (the
    reference takes about 2.8 or 5 ms) within fractions of a second.  Each
    job's CPU time is divided by the speed factor of the median of the two
    reference samples before it and the two after it, so that runs made at
    different moments compare.  On three runs of one ``ladder`` input set
    the unscaled p50 ranged over 50% and p90 over 40%; scaled by the median
    of the samples within 0.5 s of each job, over 3% and 6%; scaled as
    here, over 4% and 1%.
    """

    def __init__(self):
        rng = random.Random(0)
        self.operands = [{(i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                          for i in range(10) for j in range(10 - i)} for _ in range(2)]
        self.times: list = []     # wall clock of each sample
        self.samples: list = []   # CPU seconds of each sample
        self.last = 0.0

    def sample(self) -> None:
        t0 = time.process_time()
        reference_kernel(*self.operands)
        self.samples.append(time.process_time() - t0)
        self.last = time.perf_counter()
        self.times.append(self.last)

    def between_jobs(self) -> None:
        if time.perf_counter() - self.last >= REFERENCE_EVERY:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Median of the two reference samples before ``start`` and the two
        after ``end`` (wall clock) over ``REFERENCE_MS``, to the power
        ``SPEED_EXPONENT``; > 1 when the machine was slower than the
        reference."""
        before = bisect.bisect_left(self.times, start)
        after = bisect.bisect_right(self.times, end)
        near = self.samples[max(0, before - 2):before] + self.samples[after:after + 2]
        return (statistics.median(near) * 1000 / REFERENCE_MS) ** SPEED_EXPONENT


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": git_commit()}


def fingerprint(out) -> str:
    """Canonical text of a job output, for comparing repeated runs."""
    from equijet.jets import Jet
    from equijet.pseudopoly import PseudoPolynomial

    def canon(x):
        if isinstance(x, Jet):
            return ("J", x.ctx.names, x.order, x.exact,
                    sorted((k, str(v)) for k, v in x.terms.items()))
        if isinstance(x, PseudoPolynomial):
            return ("P", x.var, [canon(c) for c in x.coeffs])
        if isinstance(x, BaseException):
            return ("E", type(x).__name__, str(x))
        if isinstance(x, (list, tuple)):
            return [canon(v) for v in x]
        if hasattr(x, "__dataclass_fields__"):
            return (type(x).__name__, [canon(getattr(x, f)) for f in x.__dataclass_fields__])
        return repr(x)

    return repr(canon(out))


def timed_loop(jobs, order, seconds: float, between):
    """Cycle through ``order`` until ``seconds`` of wall time have passed,
    then time once each job the loop did not reach, so every input has a
    sample.

    Returns the per-execution ``(job index, CPU seconds, wall start, wall
    end)`` samples, the first output of each job (checked later by its
    oracle) and the fingerprints of every repeated output (compared later
    with the first).
    """
    samples, first, repeats = [], {}, {}

    def timed(i):
        w0 = time.perf_counter()
        t0 = time.process_time()
        out = jobs[i].run()
        cpu = time.process_time() - t0
        samples.append((i, cpu, w0, time.perf_counter()))
        if i in first:
            repeats.setdefault(i, set()).add(fingerprint(out))
        else:
            first[i] = out
        between()

    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for i in order:
            if time.perf_counter() >= deadline:
                break
            timed(i)
    for i in order:
        if i not in first:
            timed(i)
    return samples, first, repeats


def one_pass(jobs, order):
    """Run every job once; returns the CPU seconds and the outputs."""
    t0 = time.process_time()
    outs = {i: jobs[i].run() for i in order}
    return time.process_time() - t0, outs


def job_stats(per_job: dict):
    """p50, p90 and jobs per second over the per-job median times (ms)."""
    ms = [statistics.median(v) for v in per_job.values()]
    return statistics.median(ms), statistics.quantiles(ms, n=10)[-1], len(ms) / (sum(ms) / 1000)


def run_probe(jobs, probe) -> int:
    """Run and check each known-defect job once; returns how many failed."""
    from workloads import KNOWN_DEFECTS

    failed = {}
    for i in probe:
        job = jobs[i]
        _, errs = job.check(job.run())
        for e in errs:
            print(f"KNOWN DEFECT {job.defect}: {job.label}: {e}")
        if errs:
            failed[job.defect] = failed.get(job.defect, 0) + 1
    for name, n in sorted(failed.items()):
        print(f"known defect {name} ({KNOWN_DEFECTS[name]}): {n} of "
              f"{sum(jobs[i].defect == name for i in probe)} probe jobs failed")
    print(f"probe: jobs={len(probe)} failed={sum(failed.values())}")
    return sum(failed.values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "equijet" / "__init__.py").is_file():
        fail(f"no equijet sources under {SRC}")
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    os.environ.pop(ENV_ORDER, None)

    speed = Speed()
    if not args.trace:
        setup_raw, setup_s = measure_setup()
    sys.path.insert(0, str(SRC))
    import equijet

    if Path(equijet.__file__).resolve().parent != SRC / "equijet":
        fail(f"imported equijet from {equijet.__file__}, not from {SRC}")
    # later imports (sympy in the oracles) must not write bytecode caches
    # outside the checkout
    sys.dont_write_bytecode = True

    print("env " + json.dumps(environment(), sort_keys=True))
    jobs = workloads.make_jobs(args.workload, args.seed, ROOT)
    print(f"inputs {args.workload} seed={args.seed} jobs={len(jobs)} "
          f"sha256={workloads.digest(jobs)}")
    order = [i for i, job in enumerate(jobs) if not job.defect]
    probe = [i for i, job in enumerate(jobs) if job.defect]
    print(f"timed jobs {len(order)}, known-defect probe jobs {len(probe)}")
    random.Random(args.seed).shuffle(order)

    for i in order[:WARMUP]:
        jobs[i].run()
    if args.trace:
        import layers

        # the first eighth of the jobs in generation order: whole draws of
        # every cell, so the counts repeat exactly for a seed
        traced_jobs = [i for i in order if i < max(1, len(jobs) // TRACE_SHARE)]
        # a first pass pays the heap's page faults, which count as CPU time
        _, first = one_pass(jobs, traced_jobs)
        untraced, again = one_pass(jobs, traced_jobs)
        tracer = layers.Tracer()
        with tracer.installed():
            traced, outs = tracer.run_pass(jobs, traced_jobs)
        repeats = {i: {fingerprint(out), fingerprint(again[i])} for i, out in outs.items()}
        n = len(traced_jobs)
        metrics = tracer.metrics(n / untraced, n / traced)
        spans = tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl.gz")
        print(f"trace: {n} jobs, {spans} spans, overhead x{traced / untraced:.3f}")
        executions = traced_jobs * 3
    else:
        samples, first, repeats = timed_loop(jobs, order, args.seconds, speed.between_jobs)
        executions = [s[0] for s in samples]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdicts = {}
    for i in sorted(first):
        job = jobs[i]
        conclusive, errs = job.check(first[i])
        if repeats.get(i, set()) - {fingerprint(first[i])}:
            errs = errs + ["a repeated run produced a different output"]
        for e in errs:
            print(f"FAIL {job.label}: {e}")
        verdicts[i] = (conclusive and not errs, bool(errs))

    attempted = len(executions)
    failed = sum(verdicts[i][1] for i in executions)
    conclusive = sum(verdicts[i][0] for i in executions)
    print(f"summary {args.workload}: attempted={attempted} failed={failed} "
          f"failed_ratio={failed / attempted:.4f} conclusive_ratio={conclusive / attempted:.4f}")
    probe_failed = run_probe(jobs, probe)
    if args.trace:
        metrics["probe.failed"] = (probe_failed, "count")

    if not args.trace:
        raw, scaled = {}, {}
        for i, cpu, w0, w1 in samples:
            raw.setdefault(i, []).append(cpu * 1000)
            scaled.setdefault(i, []).append(cpu * 1000 / speed.factor(w0, w1))
        p50, p90, jps = job_stats(raw)
        print(f"unscaled: setup_s={setup_raw:.4f} job_ms.p50={p50:.3f} job_ms.p90={p90:.3f} "
              f"jobs_per_s={jps:.3f}; {len(speed.samples)} reference samples, median "
              f"{statistics.median(speed.samples) * 1000:.3f} ms vs {REFERENCE_MS} ms")
        p50, p90, jps = job_stats(scaled)
        metrics = {
            "setup_s": (setup_s, "s"),
            "job_ms.p50": (p50, "ms"),
            "job_ms.p90": (p90, "ms"),
            "jobs_per_s": (jps, "1/s"),
            "conclusive_ratio": (conclusive / attempted, "ratio"),
            "ok_ratio": (1 - failed / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"timed executions: {len(samples)} over {len(order)} timed jobs")
        print(f"failed_ratio = {failed / attempted} ratio")
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value} {unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
