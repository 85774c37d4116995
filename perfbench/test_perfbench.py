"""Tiny-size self-test of the benchmark.

Run from the repository root:  PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import cstarframes  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "perturb-sampled": lambda: workloads.PerturbSampled(samples=5, trace_rounds=1),
    "exact-cli": lambda: workloads.ExactCli(
        samples=5, suite_trials=1, generic_shapes=((1, 2),), rankdef_shapes=((2, 2),),
        tensor_shapes=((1, 1),), trace_rounds=1),
    "large-blocks": lambda: workloads.LargeBlocks(
        dims=(3, 2), rank=2, members=3, pool=1, trace_rounds=1),
}


def test_every_workload_is_named():
    assert set(TINY) == set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_is_correct(name, tmp_path):
    res = run.run(TINY[name](), 3, 0.0, False, tmp_path / "work", tmp_path / "t.npz")
    assert res["correct"], res["errors"]
    assert res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {
        "verdicts_per_s", "call_p50_ms", "call_tail_ms", "setup_s", "peak_rss_mb"}
    assert all(v > 0 and math.isfinite(v) for v, _ in res["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_accounts_for_wall_time(name, tmp_path):
    original = cstarframes.run_suite
    trace_path = tmp_path / "out" / "trace.npz"
    res = run.run(TINY[name](), 3, 0.0, True, tmp_path / "work", trace_path)
    assert res["correct"], res["errors"]
    assert cstarframes.run_suite is original  # tracer removed its wrappers
    m = {k: v for k, (v, _) in res["metrics"].items()}
    busy = sum(v for k, v in m.items() if k.endswith(".busy_s"))
    assert busy + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["trace.spans"] > 0 and m["trace.overhead"] > 0

    spans = np.load(trace_path)
    n = len(spans["name"])
    assert all(len(spans[k]) == n for k in ("start", "end", "parent", "call"))
    assert (spans["end"] >= spans["start"]).all()
    assert (spans["parent"] < np.arange(n)).all()
    names = list(spans["names"])
    roots = spans["name"] == names.index(tracer.ROOT)
    assert (spans["parent"][roots] == -1).all()
    assert (spans["call"] >= 0).all()


def test_layer_metrics_on_a_known_span_tree():
    t = tracer.Tracer()
    inner = t.name_id("douglas.pencil_lower_bound")
    leaf = t.name_id("kernel.svd")
    t.call_id = 0
    root = t.open(t.name_id(tracer.ROOT))
    p = t.open(inner)
    for _ in range(3):
        t.close(t.open(leaf))
    t.close(p)
    t.close(root)
    m = tracer.layer_metrics(t, verdicts=1)
    assert m["douglas.pencil_calls"][0] == 1
    assert m["kernel.svd_calls"][0] == 3
    assert m["douglas.svd_per_pencil"][0] == 3
    total = m["douglas.busy_s"][0] + m["kernel.busy_s"][0] + m["trace.unattributed_s"][0]
    assert total == pytest.approx(m["trace.wall_s"][0])


class _Wrong:
    """A workload whose calls give one wrong verdict and one exception."""

    def round(self, state, k):
        def boom():
            raise ValueError("boom")

        return [
            workloads.Call("wrong", lambda: "falsified", lambda r: int(r != "certified"), 1),
            workloads.Call("raises", boom, lambda r: 0, 2),
            workloads.Call("right", lambda: "certified", lambda r: int(r != "certified"), 1),
        ]


def test_gate_counts_wrong_and_raised_verdicts():
    s = run.measure(_Wrong(), None, lambda fn: fn(), run.SpeedProbe())
    assert (s.verdicts, s.failed) == (4, 3)
    assert len(s.errors) == 1 and "boom" in s.errors[0]


def test_tail_has_ten_samples_beyond_it():
    xs = [float(i) for i in range(1, 101)]
    value, pct = run.tail(xs)
    assert pct == 90 and sum(x > value for x in xs) == 10
    assert run.tail([float(i) for i in range(15)]) == (14.0, 100)


def test_launcher_refuses_to_run_without_library_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in ("run.py", "workloads.py", "tracer.py"):
        shutil.copy(HERE / f, tmp_path / "perfbench" / f)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
