"""Span tracer for the benchmark's traced run.

The tracer wraps, at run time and from outside the library, every public
function and method of each ``cstarframes`` module plus the
``numpy.linalg`` entry points the library calls.  Each wrapped call
records one span (name, start, end, parent span, timed-call id) in
compact in-memory arrays; nothing is written until ``write``.  Per-layer
figures are derived afterwards: a span's self time is its duration minus
the durations of its direct children, and a layer's busy time is the sum
of the self times of its spans.  Root spans named ``call`` bracket each
timed call made by the benchmark, so their self time is the part of the
traced wall time that no library span covers ("unattributed").
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = (
    "algebra",
    "sampling",
    "hilbmod",
    "certify",
    "douglas",
    "frames",
    "perturb",
    "tensor",
    "serialize",
    "harness",
    "cli",
)
KERNEL = "kernel"
ROOT = "call"

# numpy.linalg entry points the library calls.
KERNEL_FUNCS = ("eigh", "eigvalsh", "eigvals", "inv", "norm", "qr", "svd")

# Dunder methods that carry algebra work; __eq__/__hash__ are left out
# because spec comparisons are too frequent and too cheap to span.
TRACED_DUNDERS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__")

SERIALIZE_ENCODE = (
    "encode_complex", "encode_element", "encode_vector", "encode_operator",
    "instance_to_dict", "certificate_to_dict", "sanitize", "dumps_stable",
    "report_payload_bytes", "write_report", "save_instance", "instance_digest",
)
SERIALIZE_DECODE = (
    "decode_complex", "decode_element", "decode_vector", "decode_operator",
    "parse_instance", "load_instance",
)
# functions whose path argument gives bytes written / read
WRITES = {"serialize.write_report": 1, "serialize.save_instance": 1}
READS = {"serialize.load_instance": 0}


def kernel_flops(func: str, args: tuple, kwargs: dict) -> tuple[str, float]:
    """Classify one numpy.linalg call and return its computed flop count.

    Counts follow the usual dense LAPACK estimates for real arithmetic
    (Golub & Van Loan), times 4 for complex input; they come from the
    matrix sizes, not from hardware counters.
    """
    a = np.asarray(args[0]) if args else None
    if a is None or a.ndim < 1:
        return func, 0.0
    cplx = 4.0 if np.iscomplexobj(a) else 1.0
    if a.ndim == 1:
        return func, 2.0 * a.size * cplx
    m, n = a.shape[-2], a.shape[-1]
    batch = a.size // max(1, m * n)
    k, big = min(m, n), max(m, n)
    if func == "norm":
        ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
        if ord_ == 2:
            return "norm2", batch * cplx * (4.0 * big * k * k - 4.0 * k**3 / 3.0)
        return "norm", batch * cplx * 2.0 * a.size
    if func == "svd":
        uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        if uv:
            return func, batch * cplx * (14.0 * big * k * k + 8.0 * k**3)
        return func, batch * cplx * (4.0 * big * k * k - 4.0 * k**3 / 3.0)
    if func == "eigh":
        return func, batch * cplx * 9.0 * n**3
    if func == "eigvalsh":
        return func, batch * cplx * 4.0 * n**3 / 3.0
    if func == "eigvals":
        return func, batch * cplx * 10.0 * n**3
    if func == "inv":
        return func, batch * cplx * 2.0 * n**3
    if func == "qr":
        return func, batch * cplx * (4.0 * big * k * k - 4.0 * k**3 / 3.0)
    return func, 0.0


class Tracer:
    """Records spans for every wrapped call while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.call = array("q")
        self._stack: list[int] = []
        self.call_id = -1
        self.flops: dict[str, float] = {}
        self.bytes_written = 0
        self.bytes_read = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -----------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call.append(self.call_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def timed_call(self, call_id: int, fn):
        """Run fn inside a root span tagged with call_id; return its result."""
        self.call_id = call_id
        i = self.open(self.name_id(ROOT))
        try:
            return fn()
        finally:
            self.close(i)
            self.call_id = -1

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.name_id(name)
        tracer = self

        if name in WRITES or name in READS:
            pos = WRITES.get(name, READS.get(name))

            @functools.wraps(fn)
            def traced_io(*args, **kwargs):
                i = tracer.open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(i)
                    path = args[pos] if len(args) > pos else None
                    if tracer.call_id >= 0 and path is not None and os.path.isfile(path):
                        if name in WRITES:
                            tracer.bytes_written += os.path.getsize(path)
                        else:
                            tracer.bytes_read += os.path.getsize(path)

            return traced_io

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)

        return traced

    def _wrap_kernel(self, func: str, fn):
        tracer = self
        nids = {}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            kind, flops = kernel_flops(func, args, kwargs)
            nid = nids.get(kind)
            if nid is None:
                nid = nids[kind] = tracer.name_id(f"{KERNEL}.{kind}")
            if tracer.call_id >= 0:
                tracer.flops[kind] = tracer.flops.get(kind, 0.0) + flops
            i = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the library's public callables and numpy.linalg."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("cstarframes")
        modules = [importlib.import_module(f"cstarframes.{m}") for m in LAYERS]
        replaced: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        # rebind every module-level reference, including re-exports
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                new = replaced.get(id(obj))
                if new is not None:
                    self._patch(mod, attr, new)
        for func in KERNEL_FUNCS:
            self._patch(np.linalg, func, self._wrap_kernel(func, getattr(np.linalg, func)))

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(name, obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._patch(cls, attr, type(obj)(self._wrap(name, obj.__func__)))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- output ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "call": np.frombuffer(self.call, dtype=np.int64),
        }

    def write(self, path: Path) -> None:
        """Write all spans as one .npz file (names table included)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


def ancestor_has(parent: np.ndarray, flag: np.ndarray) -> np.ndarray:
    """For each span, whether any proper ancestor has flag set."""
    out = np.zeros(parent.shape, dtype=bool)
    cur = parent.copy()
    while True:
        live = cur >= 0
        if not live.any():
            return out
        out[live] |= flag[cur[live]]
        cur[live] = parent[cur[live]]


def layer_metrics(tracer: Tracer, verdicts: int) -> dict[str, tuple[float, str]]:
    """Per-layer counts, busy (self) seconds and wasted-work ratios."""
    a = tracer.arrays()
    names = tracer.names
    nid, parent = a["name"], a["parent"]
    # only spans inside timed calls; set-up and checks between calls are not traced work
    inside = a["call"] >= 0
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - child
    n_names = len(names)
    count_by = np.bincount(nid, weights=inside, minlength=n_names)
    self_by = np.bincount(nid, weights=self_s * inside, minlength=n_names)

    def ids(pred) -> list[int]:
        return [i for i, n in enumerate(names) if pred(n)]

    def count(*full: str) -> int:
        return int(round(sum(count_by[i] for i in ids(lambda n: n in full))))

    def self_time(pred) -> float:
        return float(sum(self_by[i] for i in ids(pred)))

    def in_layer(layer: str):
        return lambda n: n.split(".", 1)[0] == layer

    def flag(*full: str) -> np.ndarray:
        return inside & np.isin(nid, ids(lambda n: n in full))

    m: dict[str, tuple[float, str]] = {}
    for layer in (*LAYERS, KERNEL):
        m[f"{layer}.busy_s"] = (self_time(in_layer(layer)), "s")

    m["algebra.elements_built"] = (count("algebra.AlgElement.__init__"), "count")
    m["sampling.vectors_drawn"] = (count("sampling.random_vector"), "count")
    m["sampling.draw_s"] = (self_time(lambda n: n.startswith("sampling.random_")), "s")
    m["hilbmod.vectors_built"] = (count("hilbmod.ModuleVector.__init__"), "count")
    m["hilbmod.operators_built"] = (count("hilbmod.ModuleOperator.__init__"), "count")
    m["hilbmod.apply_calls"] = (count("hilbmod.ModuleOperator.apply"), "count")
    m["hilbmod.apply_s"] = (self_time(lambda n: n == "hilbmod.ModuleOperator.apply"), "s")
    m["hilbmod.block_matrices_s"] = (
        self_time(lambda n: n == "hilbmod.ModuleOperator.block_matrices"), "s")
    m["hilbmod.compose_s"] = (self_time(lambda n: n in (
        "hilbmod.ModuleOperator.compose", "hilbmod.from_block_matrices")), "s")
    m["hilbmod.spectral_s"] = (self_time(lambda n: n in (
        "hilbmod.ModuleOperator.norm", "hilbmod.ModuleOperator.herm_eigs",
        "hilbmod.ModuleOperator.negative_witness", "hilbmod.ModuleOperator.inverse")), "s")
    m["kernel.eigh_calls"] = (count("kernel.eigh", "kernel.eigvalsh"), "count")
    m["kernel.svd_calls"] = (count("kernel.svd"), "count")
    m["kernel.spectral_norm_calls"] = (count("kernel.norm2"), "count")
    m["kernel.flops_computed"] = (float(sum(tracer.flops.values())), "flop")
    m["douglas.pinv_calls"] = (count("douglas.pseudo_inverse"), "count")
    m["douglas.pencil_calls"] = (count("douglas.pencil_lower_bound"), "count")
    m["certify.psd_calls"] = (count("certify.psd_certificate"), "count")
    m["frames.frameseq_built"] = (count("frames.FrameSeq.__init__"), "count")
    m["frames.coefficient_gram_calls"] = (count("frames.FrameSeq.coefficient_gram"), "count")
    m["perturb.difference_synthesis_calls"] = (count("perturb.difference_synthesis"), "count")
    m["serialize.encode_s"] = (self_time(lambda n: n.split(".")[-1] in SERIALIZE_ENCODE
                                         and n.startswith("serialize.")), "s")
    m["serialize.decode_s"] = (self_time(lambda n: n.split(".")[-1] in SERIALIZE_DECODE
                                         and n.startswith("serialize.")), "s")
    m["serialize.bytes_written"] = (tracer.bytes_written, "B")
    m["serialize.bytes_read"] = (tracer.bytes_read, "B")
    m["harness.instances_generated"] = (
        count("harness.random_instance", "harness.tensor_pair_instance"), "count")

    # wasted-work ratios, exact counts over their stated base
    pencils = m["douglas.pencil_calls"][0]
    svd_in_pencil = int(np.sum(flag("kernel.svd")
                               & ancestor_has(parent, flag("douglas.pencil_lower_bound"))))
    m["douglas.svd_per_pencil"] = (svd_in_pencil / pencils if pencils else 0.0, "ratio")
    perturb_ids = ids(in_layer("perturb"))
    drawn_in_perturb = int(np.sum(flag("sampling.random_vector")
                                  & ancestor_has(parent, np.isin(nid, perturb_ids))))
    m["perturb.samples_per_verdict"] = (drawn_in_perturb / verdicts if verdicts else 0.0, "ratio")
    m["perturb.difference_synthesis_per_trial"] = (
        m["perturb.difference_synthesis_calls"][0] / verdicts if verdicts else 0.0, "ratio")
    op_calls = count("hilbmod.ModuleOperator.compose", "douglas.pseudo_inverse")

    def name_at(idx: np.ndarray) -> np.ndarray:
        return np.where(idx >= 0, nid[np.maximum(idx, 0)], -1)

    grandparent = np.where(has_parent, parent[np.maximum(parent, 0)], -1)
    rebuilt = (flag("algebra.AlgElement.__init__")
               & np.isin(name_at(parent), ids(lambda n: n == "hilbmod.from_block_matrices"))
               & np.isin(name_at(grandparent), ids(lambda n: n in (
                   "hilbmod.ModuleOperator.compose", "douglas.pseudo_inverse"))))
    m["hilbmod.elements_per_operator_op"] = (
        int(rebuilt.sum()) / op_calls if op_calls else 0.0, "ratio")

    root = flag(ROOT)
    wall = float(dur[root].sum())
    m["trace.wall_s"] = (wall, "s")
    m["trace.unattributed_s"] = (float(self_s[root].sum()), "s")
    m["trace.spans"] = (int(inside.sum()), "count")
    return m
