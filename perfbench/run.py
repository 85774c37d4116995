#!/usr/bin/env python3
"""cstarframes benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the run measures the end-to-end metrics with tracing off.
With --trace 1 it first measures untraced throughput for half the time,
then installs the span tracer and runs the workload's fixed number of
traced rounds for the per-layer metrics; the ratio of the two
throughputs is the tracing overhead.
Every verdict is checked.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 2 means the benchmark could
not run (no library source next to it, or bad arguments).
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("perturb-sampled", "exact-cli", "large-blocks")
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DETERMINISM_SUITE = "perturb1"
# Machine-speed probe.  A shared host's speed drifts by up to 1.6x within
# seconds, so every timed interval is also reported scaled to the nominal
# speed at which SpeedProbe.reference_s takes REF_NOMINAL_S.  The nominal
# value is the probe's time on the 2-vCPU x86-64 VM (Python 3.11, numpy
# 2.4, OpenBLAS on one thread) the benchmark was defined on, in its fast
# state.
REF_NOMINAL_S = 7.0e-3


class SpeedProbe:
    """Scale factors that map wall time on a machine whose speed drifts to
    wall time at nominal speed.

    The probe is a fixed piece of benchmark-owned work with the library's
    mix: an interpreter loop, small numpy matrices built and multiplied,
    a LAPACK SVD and Hermitian eigendecomposition the size of a
    large-blocks block, and a JSON round trip.  Each timed call and each
    set-up is scaled by REF_NOMINAL_S over the mean of the probes taken
    just before and just after it.  A reading runs with the cyclic
    garbage collector off, so collections of the library's objects fall
    in the library's time, not in the probe's.
    """

    def __init__(self) -> None:
        import numpy as np

        # bound now, so a tracer installed later does not see the probe
        self._array, self._eigh, self._eigvalsh, self._svd = (
            np.array, np.linalg.eigh, np.linalg.eigvalsh, np.linalg.svd)
        rng = np.random.default_rng(0)
        self._small = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                       for _ in range(8)]
        big = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
        self._big, self._herm = big, big + big.conj().T
        self._doc = {"rows": [[[float(x), x / 3.0] for x in range(12)] for _ in range(20)]}
        self.factors: list[float] = []
        self.reference_s()  # the first reading is cold: first LAPACK and json calls
        self.refresh()

    def reference_s(self) -> float:
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            return self._reading()
        finally:
            if gc_was_on:
                gc.enable()

    def _reading(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i
        for _ in range(30):
            xs = [self._array(m, dtype=complex) for m in self._small]
            y = xs[0]
            for x in xs[1:]:
                y = y @ x.conj().T + x
            self._eigvalsh(y + y.conj().T)
        self._svd(self._big)
        self._eigh(self._herm)
        json.loads(json.dumps(self._doc))
        return time.perf_counter() - t0

    def refresh(self) -> None:
        """Take a reading that starts a new interval."""
        self.last = self.reference_s()

    def next_factor(self) -> float:
        now = self.reference_s()
        factor = REF_NOMINAL_S / (0.5 * (self.last + now))
        self.last = now
        self.factors.append(factor)
        return factor


@dataclass
class Sample:
    """What one measuring phase saw: the wall time of each timed call,
    and the same at nominal machine speed."""

    call_s: list[float] = field(default_factory=list)
    call_norm_s: list[float] = field(default_factory=list)
    rounds: int = 0
    speed_factors: list[float] = field(default_factory=list)
    verdicts: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def verdicts_per_s(self, normalized: bool = True) -> float:
        return self.verdicts / sum(self.call_norm_s if normalized else self.call_s)


def measure(workload, state, run_call, probe: SpeedProbe,
            seconds: float = 0.0, rounds: int = 1) -> Sample:
    """Run whole rounds: at least `rounds`, then more until `seconds` have passed."""
    out = Sample()
    first_factor = len(probe.factors)
    probe.refresh()
    k = 0
    deadline = time.perf_counter() + seconds
    while k < rounds or time.perf_counter() < deadline:
        for call in workload.round(state, k):
            t0 = time.perf_counter()
            try:
                result = run_call(call.fn)
                dt = time.perf_counter() - t0
                wrong = call.check(result)
            except Exception as exc:  # a raised call is a failed verdict; keep measuring
                dt = time.perf_counter() - t0
                wrong = call.verdicts
                out.errors.append(f"round {k} {call.label}: {type(exc).__name__}: {exc}")
            out.call_s.append(dt)
            out.call_norm_s.append(dt * probe.next_factor())
            out.verdicts += call.verdicts
            out.failed += wrong
        k += 1
    out.rounds = k
    out.speed_factors = probe.factors[first_factor:]
    return out


def tail(values: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it
    (nearest-rank), as (value, percentile).  With fewer than twice that many
    samples such a percentile lies below the median, so the maximum is
    reported instead."""
    xs = sorted(values)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return xs[-1], 100
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, -(-pct * n // 100))
    return xs[rank - 1], pct


def blas_facts() -> dict:
    import numpy as np

    facts = {"blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    # the OpenBLAS that numpy wheels bundle; loading it again returns the loaded copy
    for path in sorted(Path(np.__file__).resolve().parent.parent.glob("numpy.libs/*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                return facts
    facts["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return facts


def machine_facts() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_facts(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def determinism_probe(seed: int) -> bool:
    """One fixed run_suite call, twice: its payload bytes must match."""
    import cstarframes as cf

    payloads = [
        cf.report_payload_bytes(cf.run_suite(DETERMINISM_SUITE, trials=1, seed=seed))
        for _ in range(2)
    ]
    return payloads[0] == payloads[1]


def set_up(workload, seed: int, workdir: Path, probe: SpeedProbe):
    """Set up SETUP_REPEATS times; return the last state and the median
    set-up time, raw and at nominal speed."""
    probe.refresh()
    raw, norm = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(seed, workdir)
        raw.append(time.perf_counter() - t0)
        norm.append(raw[-1] * probe.next_factor())
    return state, statistics.median(raw), statistics.median(norm)


def run(workload, seed: int, seconds: float, trace: bool, workdir: Path,
        trace_path: Path, import_s: tuple[float, float] = (0.0, 0.0)) -> dict:
    """One benchmark run.  import_s is the time the process took to import
    the workloads' modules (raw, at nominal speed); set-up time includes it."""
    probe = SpeedProbe()
    state, setup_raw, setup_norm = set_up(workload, seed, workdir, probe)
    direct = lambda fn: fn()  # noqa: E731
    measure(workload, state, direct, probe)  # warm-up round, not counted
    lines = []
    if not trace:
        s = measure(workload, state, direct, probe, seconds=seconds)
        tail_norm, pct = tail(s.call_norm_s)
        tail_raw, _ = tail(s.call_s)
        metrics = {
            "verdicts_per_s": (s.verdicts_per_s(), "1/s"),
            "call_p50_ms": (1000 * statistics.median(s.call_norm_s), "ms"),
            "call_tail_ms": (1000 * tail_norm, "ms"),
            "setup_s": (import_s[1] + setup_norm, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        lines += [
            f"timed calls: {s.rounds} rounds of {len(s.call_s) // s.rounds} "
            f"public calls; call_tail_ms is p{pct} of {len(s.call_s)} calls",
            f"machine speed factor: median {statistics.median(s.speed_factors):.4f}, "
            f"range {min(s.speed_factors):.4f}-{max(s.speed_factors):.4f}",
            f"raw wall-clock: verdicts_per_s = {s.verdicts_per_s(normalized=False):.6g} 1/s, "
            f"call_p50_ms = {1000 * statistics.median(s.call_s):.6g} ms, "
            f"call_tail_ms = {1000 * tail_raw:.6g} ms, "
            f"setup_s = {import_s[0] + setup_raw:.6g} s",
        ]
    else:
        from tracer import Tracer, layer_metrics

        plain = measure(workload, state, direct, probe, seconds=seconds / 2)
        tracer = Tracer()
        ids = itertools.count()
        tracer.install()
        try:
            # a fixed number of rounds, so counts repeat exactly for a seed
            s = measure(workload, state, lambda fn: tracer.timed_call(next(ids), fn),
                        probe, rounds=workload.trace_rounds)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer, s.verdicts)
        metrics["trace.verdicts_per_s_untraced"] = (plain.verdicts_per_s(), "1/s")
        metrics["trace.verdicts_per_s_traced"] = (s.verdicts_per_s(), "1/s")
        metrics["trace.overhead"] = (plain.verdicts_per_s() / s.verdicts_per_s(), "ratio")
        tracer.write(trace_path)
        busy = sum(v for k, (v, _) in metrics.items() if k.endswith(".busy_s"))
        lines.append(
            f"trace: {metrics['trace.spans'][0]} spans written to {trace_path}; "
            f"layer busy {busy:.6f} s + unattributed {metrics['trace.unattributed_s'][0]:.6f} s "
            f"= traced wall {metrics['trace.wall_s'][0]:.6f} s (raw wall-clock)")
        s.verdicts += plain.verdicts
        s.failed += plain.failed
        s.errors += plain.errors
    probe_ok = determinism_probe(seed)
    lines.append(f"determinism probe (run_suite {DETERMINISM_SUITE} x2): "
                 f"{'identical' if probe_ok else 'MISMATCH'}")
    lines.append(f"failed_fraction = {s.failed / s.verdicts:.6g} "
                 f"({s.failed} of {s.verdicts} verdicts)")
    return {
        "correct": probe_ok and s.failed == 0,
        "attempted": s.verdicts,
        "failed": s.failed,
        "metrics": metrics,
        "errors": s.errors,
        "lines": lines,
        "sizes": workload.sizes(state),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cstarframes" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'cstarframes'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy loads: one BLAS thread per process
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import workloads  # numpy, the library and everything the workloads use
    import_raw = time.perf_counter() - t0
    # a process imports once; the probe right after the import scales it
    import_s = (import_raw, import_raw * SpeedProbe().next_factor())
    workload = workloads.WORKLOADS[args.workload]()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        res = run(workload, args.seed, args.seconds, bool(args.trace), workdir,
                  TRACE_OUT / f"trace-{args.workload}.npz", import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    facts = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, **machine_facts(), "input_sizes": res["sizes"]}
    print("facts " + json.dumps(facts, sort_keys=True))
    for line in res["lines"]:
        print(line)
    for err in res["errors"][:10]:
        print(f"error: {err}", file=sys.stderr)
    for name, (value, unit) in res["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
