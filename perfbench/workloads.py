"""The benchmark's workloads.

Each workload builds its inputs from the workload seed in ``setup`` and
then yields rounds of timed calls.  A round is the workload's unit of
user work on one input: every call in it reaches the library through a
public entry point, and every call carries the check that decides
whether its verdicts are the expected ones.  Library callables are
looked up on their modules at call time, so the tracer's wrappers are
seen when they are installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import cstarframes as cf
from cstarframes import cli, harness, sampling, serialize

TOL = 1e-9
TRIALS_PER_CALL = 1  # perturb-sampled: trials per run_suite call
DRAWS_PER_SHAPE = 10  # exact-cli: instance draws per listed shape at set-up
CERTIFIED = "certified"
FALSIFIED = "falsified"


@dataclass
class Call:
    """One timed public call.  ``check`` maps its result to the number of
    wrong verdicts among the ``verdicts`` it produced."""

    label: str
    fn: Callable[[], object]
    check: Callable[[object], int]
    verdicts: int


def seed_base(seed: int) -> int:
    """A 31-bit start value derived from the workload seed."""
    return int(np.random.SeedSequence(seed).generate_state(1)[0] >> 1)


# -- perturb-sampled -------------------------------------------------------------


class PerturbSampled:
    """run_suite("perturb1") and run_suite("perturb2") at harness defaults.

    Round k calls both suites for one trial at suite seed base + k, so
    successive rounds cover successive seeds of the generic profile.
    """

    name = "perturb-sampled"
    suites = ("perturb1", "perturb2")

    def __init__(self, samples: int = 100, trace_rounds: int = 16):
        self.samples = samples
        self.trace_rounds = trace_rounds

    def setup(self, seed: int, workdir: Path) -> dict:
        return {"base": seed_base(seed)}

    def sizes(self, state: dict) -> dict:
        return {
            "suites": list(self.suites),
            "trials_per_call": TRIALS_PER_CALL,
            "samples": self.samples,
            "epsilon": 1e-3,
            "tol": TOL,
            "profile": "generic: spec (2,1), rank 1-3, 1-6 members",
            "first_suite_seed": state["base"],
        }

    def round(self, state: dict, k: int) -> list[Call]:
        seed = state["base"] + k
        return [
            Call(
                suite,
                lambda suite=suite: cf.run_suite(
                    suite, trials=TRIALS_PER_CALL, seed=seed, samples=self.samples
                ),
                self._check,
                TRIALS_PER_CALL,
            )
            for suite in self.suites
        ]

    def _check(self, report: dict) -> int:
        rows = report["trials"]
        wrong = sum(r["status"] != CERTIFIED for r in rows)
        return wrong + max(0, TRIALS_PER_CALL - len(rows))


# -- exact-cli -------------------------------------------------------------------


MAX_DRAWS = 5000  # give up: the generator no longer produces a listed shape


def _shapes(ranks, max_members):
    return tuple((n, j) for n in ranks for j in range(n, max_members + 1))


class ExactCli:
    """cli.main in-process on instance files written during set-up.

    The pools hold one instance of every (rank, members) shape the
    generic and rank-deficient-K profiles produce and one tensor pair per
    (left rank, right rank), drawn from seeds derived from the workload
    seed, so every workload seed runs the same mix of sizes.
    """

    name = "exact-cli"
    suites = ("douglas-equivalence", "kframe-main", "conjugation", "tensor", "co-isometry")

    def __init__(
        self,
        samples: int = 100,
        suite_trials: int = 2,
        generic_shapes=_shapes((1, 2, 3), 6),
        rankdef_shapes=_shapes((2, 3), 6),
        tensor_shapes=((1, 1), (1, 2), (2, 1), (2, 2)),
        trace_rounds: int = 15,
    ):
        self.trace_rounds = trace_rounds
        self.samples = samples
        self.suite_trials = suite_trials
        self.generic_shapes = tuple(generic_shapes)
        self.rankdef_shapes = tuple(rankdef_shapes)
        self.tensor_shapes = tuple(tensor_shapes)

    def _pool(self, rng, make, shape_of, shapes) -> list:
        """First instance of each shape among a fixed number of draws (more
        only if a shape is still missing), so set-up work does not depend
        on how lucky the seed is."""
        found: dict = {}
        draws = DRAWS_PER_SHAPE * len(shapes)
        for i in range(MAX_DRAWS):
            if i >= draws and all(s in found for s in shapes):
                return [found[s] for s in shapes]
            inst = make(int(rng.integers(0, 2**31)))
            found.setdefault(shape_of(inst), inst)
        missing = sorted(set(shapes) - set(found))
        raise RuntimeError(f"instance generator produced no instance of shape {missing}")

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        generic = self._pool(
            rng, lambda s: harness.random_instance(s, "generic"),
            lambda i: (i.rank, len(i.members)), self.generic_shapes)
        rankdef = self._pool(
            rng, lambda s: harness.random_instance(s, "rank-deficient-K"),
            lambda i: (i.rank, len(i.members)), self.rankdef_shapes)
        tensor = self._pool(
            rng, harness.tensor_pair_instance,
            lambda i: (i.rank, i.right.rank), self.tensor_shapes)
        workdir.mkdir(parents=True, exist_ok=True)
        files: dict[str, list[str]] = {"generic": [], "frame": [], "rankdef": [], "tensor": []}
        for i, inst in enumerate(generic):
            files["generic"].append(self._save(inst, workdir / f"generic-{i}.json"))
            # check-frame derives its bounds: the stored A, B belong to K, not to I
            unbounded = serialize.Instance(
                spec=inst.spec, rank=inst.rank, members=inst.members, seed=inst.seed)
            files["frame"].append(self._save(unbounded, workdir / f"frame-{i}.json"))
        for i, inst in enumerate(rankdef):
            files["rankdef"].append(self._save(inst, workdir / f"rankdef-{i}.json"))
        for i, inst in enumerate(tensor):
            files["tensor"].append(self._save(inst, workdir / f"tensor-{i}.json"))
        return {"files": files, "workdir": workdir, "base": seed_base(seed)}

    @staticmethod
    def _save(inst, path: Path) -> str:
        serialize.save_instance(inst, path)
        return str(path)

    def sizes(self, state: dict) -> dict:
        return {
            "generic_shapes_rank_members": [list(s) for s in self.generic_shapes],
            "rankdef_shapes_rank_members": [list(s) for s in self.rankdef_shapes],
            "tensor_shapes_left_right_rank": [list(s) for s in self.tensor_shapes],
            "spec": "generic/rank-deficient (2,1); tensor (2,) x (1,1)",
            "samples": self.samples,
            "suites": list(self.suites),
            "suite_trials": self.suite_trials,
            "calls_per_round": 9 + len(self.suites),
        }

    def round(self, state: dict, k: int) -> list[Call]:
        files = state["files"]

        def pick(kind):
            return files[kind][k % len(files[kind])]

        single = [
            ("check-frame", pick("frame"), 0),
            ("check-kframe", pick("generic"), 0),
            ("bounds", pick("generic"), 0),
            ("douglas", pick("generic"), 0),
            ("atomic-system", pick("generic"), 0),
            ("dual-atoms", pick("generic"), 0),
            ("check-kframe", pick("rankdef"), 1),
            ("local-atoms", pick("rankdef"), 0),
            ("tensor", pick("tensor"), 0),
        ]
        calls = []
        for i, (command, path, code) in enumerate(single):
            report = str(state["workdir"] / f"report-{i}.json")
            argv = [command, "--input", path, "--samples", str(self.samples), "--report", report]
            calls.append(Call(command, self._invoke(argv),
                              self._single_check(report, code), 1))
        seed = state["base"] + k
        for suite in self.suites:
            report = str(state["workdir"] / f"report-suite-{suite}.json")
            argv = ["suite", suite, "--trials", str(self.suite_trials), "--seed", str(seed),
                    "--samples", str(self.samples), "--report", report]
            calls.append(Call(f"suite {suite}", self._invoke(argv),
                              self._suite_check(report), self.suite_trials))
        return calls

    @staticmethod
    def _invoke(argv: list[str]):
        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)
        return run

    @staticmethod
    def _single_check(report: str, expected_code: int):
        expected = CERTIFIED if expected_code == 0 else FALSIFIED

        def check(code: int) -> int:
            if code != expected_code:
                return 1
            rep = json.loads(Path(report).read_text(encoding="utf-8"))
            if rep["status"] != expected:
                return 1
            if expected == FALSIFIED and rep["certificates"][0]["witness_vector"] is None:
                return 1
            return 0

        return check

    def _suite_check(self, report: str):
        def check(code: int) -> int:
            rep = json.loads(Path(report).read_text(encoding="utf-8"))
            rows = rep["trials"]
            wrong = sum(r["status"] != CERTIFIED for r in rows)
            wrong += max(0, self.suite_trials - len(rows))
            if code != 0 or rep["summary"]["overall"] != CERTIFIED:
                wrong = max(wrong, 1)
            return min(wrong, self.suite_trials)

        return check


# -- large-blocks ----------------------------------------------------------------


@dataclass
class BlockInstance:
    frame: object
    k_op: object
    l_op: object
    k_norm: float
    s_norm: float  # ||S||, the frame operator's norm: the frame's optimal Bessel bound
    seed: int


class LargeBlocks:
    """Exact audits on large blocks, built from the public generators.

    Each instance is a 12-member family in A^4 over A = M_24 + M_12 with a
    planted K = U Q (so it is an atomic system and a K-frame) and
    L = K R (so R(L) = R(K) and the Douglas audit holds).  A round makes
    an odd number of calls of well-separated cost, so the median call
    latency lies inside one call's distribution, not in a gap between two.
    """

    name = "large-blocks"
    margin = 1e-6  # central bounds this far inside the optimal scalars

    def __init__(self, dims=(24, 12), rank: int = 4, members: int = 12, pool: int = 4,
                 trace_rounds: int = 12):
        self.trace_rounds = trace_rounds
        self.dims = tuple(dims)
        self.rank = rank
        self.members = members
        self.pool = pool

    def setup(self, seed: int, workdir: Path) -> dict:
        spec = cf.AlgebraSpec(self.dims)
        base = seed_base(seed)
        instances = []
        for i in range(self.pool):
            rng = sampling.stream(base, i)
            members = [sampling.random_vector(spec, self.rank, rng) for _ in range(self.members)]
            frame = cf.FrameSeq(members)
            q = sampling.random_operator(spec, self.rank, self.members, rng)
            k_op = frame.synthesis_op.compose(q)
            l_op = k_op.compose(sampling.random_operator(spec, self.rank, self.rank, rng))
            instances.append(BlockInstance(
                frame, k_op, l_op, k_op.norm(), frame.frame_op.norm(), base + i))
        return {"instances": instances, "spec": spec}

    def sizes(self, state: dict) -> dict:
        return {
            "spec": list(self.dims),
            "rank": self.rank,
            "members": self.members,
            "pool": self.pool,
            "tol": TOL,
            "bound_margin": self.margin,
        }

    def round(self, state: dict, k: int) -> list[Call]:
        inst = state["instances"][k % len(state["instances"])]
        spec = state["spec"]
        found: dict = {}

        def bounds():
            found["lam"], found["mu"] = cf.optimal_scalar_bounds(inst.frame, inst.k_op)
            return found["lam"], found["mu"]

        def bounds_check(result) -> int:
            lam, mu = result
            return int(not (math.isfinite(lam) and lam > 0.0 and mu > 0.0))

        def kframe():
            a = math.sqrt(found["lam"] * (1.0 - self.margin)) * spec.unit()
            b = math.sqrt(found["mu"]) * (1.0 + self.margin) * spec.unit()
            return cf.certify_kframe(inst.frame, inst.k_op, a, b, TOL)

        def bessel():
            b = math.sqrt(inst.s_norm) * (1.0 + self.margin) * spec.unit()
            return cf.certify_star_bessel(inst.frame, b, TOL)

        def douglas():
            return cf.equivalence_audit(inst.k_op, inst.l_op, TOL, seed=inst.seed)

        def douglas_check(cert) -> int:
            return int(cert.status != CERTIFIED or not cert.witness["cond_i"])

        def atomic():
            return cf.atomic_coefficients(inst.frame, inst.k_op, TOL, seed=inst.seed)

        def atomic_check(result) -> int:
            return int(not result[2] <= TOL * max(1.0, inst.k_norm))

        return [
            Call("optimal_scalar_bounds", bounds, bounds_check, 1),
            Call("certify_kframe", kframe, lambda c: int(c.status != CERTIFIED), 1),
            Call("certify_star_bessel", bessel, lambda c: int(c.status != CERTIFIED), 1),
            Call("equivalence_audit", douglas, douglas_check, 1),
            Call("atomic_coefficients", atomic, atomic_check, 1),
        ]


WORKLOADS = {w.name: w for w in (PerturbSampled, ExactCli, LargeBlocks)}
