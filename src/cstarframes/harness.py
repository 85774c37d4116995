"""Random instance generation, theorem-audit ensembles, and run reports.

Every ensemble is driven by Philox streams keyed (seed, suite tag, trial
index), so a (suite, config, seed) triple reproduces every numeric field
bit for bit.  A run report is a plain dict with fixed key order; its
serialized payload (wall clock excluded) is byte-identical across reruns.
"""

from __future__ import annotations

import re
import time
from typing import Optional

import numpy as np

from ._version import __version__
from .algebra import DEFAULT_TOL, AlgebraSpec
from .certify import (
    CERTIFIED, Certificate, FALSIFIED, INCONCLUSIVE, pencil_verdict, residual_verdict,
    verdict_at_norm, worst,
)
from .douglas import douglas_solve, equivalence_audit, pseudo_inverse
from .errors import AtomicSystemError, InputError
from .frames import (
    FrameSeq,
    _family,
    atomic_coefficients,
    certify_kframe,
    certify_star_bessel,
    coisometry_invariance_audit,
    conjugation_audit,
    derived_bounds,
    optimal_scalar_bounds,
)
from .hilbmod import (
    ModuleOperator,
    _operator,
    central_mult,
    diagonal_operator,
    identity_operator,
)
from .perturb import HYPOTHESIS_MARGINS, pertur1_audit, pertur2_audit
from .sampling import (
    random_central,
    random_operator,
    random_unitary,
    stream,
)
from .serialize import (
    Instance, _finite_family, certificate_to_dict, decode_number, decode_tolerance,
)
from .tensor import tensor_frame_audit, tensor_witness

PROFILES = (
    "generic",
    "rank-deficient-K",
    "co-isometry-commuting",
    "paper-example-truncation(N)",
)

SUITES = (
    "douglas-equivalence",
    "kframe-main",
    "paper-example",
    "conjugation",
    "tensor",
    "co-isometry",
    "perturb1",
    "perturb2",
)

# margin between optimal scalar bounds and the bounds stored in instances,
# so downstream perturbation checks have headroom
BOUND_MARGIN = 0.05
# size of the perturbation {f_j + epsilon r_j} of the perturbation suites
# and of the perturb1/perturb2 commands on a generated instance
DEFAULT_EPSILON = 1e-3


def _parse_profile(profile: str) -> tuple[str, Optional[int]]:
    m = re.fullmatch(r"paper-example-truncation\((\d+)\)", profile)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise InputError("paper-example-truncation needs N >= 1")
        return "paper-example-truncation", n
    if profile == "paper-example-truncation":
        return "paper-example-truncation", 10
    if profile in ("generic", "rank-deficient-K", "co-isometry-commuting"):
        return profile, None
    raise InputError(f"unknown profile {profile!r}; known: {', '.join(PROFILES)}")


def paper_truncation_values(n_terms: int) -> list[float]:
    return [1.0 / 3.0 + 1.0 / (j + 1) for j in range(n_terms)]


def _paper_truncation_instance(n_terms: int, seed: int) -> Instance:
    spec = AlgebraSpec((1,) * n_terms)
    vals = paper_truncation_values(n_terms)
    # member j is vals[j] on block j and 0 elsewhere, so block b of the
    # synthesis operator is the row vals[b] e_b
    u = _operator(
        spec, n_terms, 1, [v * np.eye(1, n_terms, b, dtype=complex) for b, v in enumerate(vals)]
    )
    k_op = central_mult(spec.central([v * v for v in vals]), 1)
    bound = spec.central(vals)
    return Instance(
        spec=spec,
        rank=1,
        members=_family(u),
        operators={"K": k_op},
        bounds={"B": bound, "C": bound},
        seed=seed,
    )


def _generic_draw(seed: int) -> tuple[FrameSeq, ModuleOperator, np.random.Generator]:
    """The generic profile's family, K = U Q0 and the stream L is drawn
    from; trials that read no bound take these, not the instance."""
    rng = stream(seed, 1)
    spec = AlgebraSpec((2, 1))
    n = int(rng.integers(1, 4))
    j_count = int(rng.integers(n, 7))
    frame = _family(random_operator(spec, j_count, n, rng))
    return frame, frame.synthesis_op.compose(random_operator(spec, n, j_count, rng)), rng


def _generic_instance(seed: int) -> Instance:
    frame, k_op, rng = _generic_draw(seed)
    l_op = k_op.compose(random_operator(frame.spec, frame.rank, frame.rank, rng))
    a, b = derived_bounds(frame, *optimal_scalar_bounds(frame, k_op), BOUND_MARGIN)
    return Instance(
        spec=frame.spec,
        rank=frame.rank,
        members=frame,
        operators={"K": k_op, "L": l_op},
        bounds={"A": a, "B": b},
        seed=seed,
    )


def _drop_last_slot(spec: AlgebraSpec, n: int) -> ModuleOperator:
    """Projection of A^n onto its first n - 1 slots: 1_A on the first n - 1
    diagonal entries of the grid, 0 elsewhere."""
    mats = [np.diag(np.arange(n * d) < (n - 1) * d).astype(complex) for d in spec.block_dims]
    return _operator(spec, n, n, mats)


def _rank_deficient_instance(seed: int) -> Instance:
    rng = stream(seed, 1)
    spec = AlgebraSpec((2, 1))
    n = int(rng.integers(2, 4))
    j_count = int(rng.integers(n, 7))
    mats = [np.array(m) for m in random_operator(spec, j_count, n, rng).block_matrices()]
    for d, m in zip(spec.block_dims, mats):
        m[-d:] = 0.0  # the last slot of every member
    return Instance(
        spec=spec,
        rank=n,
        members=_family(_operator(spec, j_count, n, mats)),
        operators={"K": identity_operator(spec, n), "P": _drop_last_slot(spec, n)},
        bounds={"A": spec.unit(), "B": spec.unit()},
        seed=seed,
    )


def _coisometry_draw(seed: int) -> tuple[FrameSeq, ModuleOperator, ModuleOperator]:
    """The co-isometry profile's family, central K and unitary T."""
    rng = stream(seed, 1)
    spec = AlgebraSpec((2, 1))
    n = int(rng.integers(1, 4))
    j_count = int(rng.integers(n, 7))
    frame = _family(random_operator(spec, j_count, n, rng))
    k_op = central_mult(random_central(spec, rng), n)
    return frame, k_op, random_unitary(spec, n, rng)


def _coisometry_instance(seed: int) -> Instance:
    frame, k_op, t_op = _coisometry_draw(seed)
    a, b = derived_bounds(frame, *optimal_scalar_bounds(frame, k_op), BOUND_MARGIN)
    return Instance(
        spec=frame.spec,
        rank=frame.rank,
        members=frame,
        operators={"K": k_op, "T": t_op},
        bounds={"A": a, "B": b},
        seed=seed,
    )


def random_instance(seed: int, profile: str) -> Instance:
    """Deterministic instance for the named ensemble profile."""
    name, n_terms = _parse_profile(profile)
    if name == "paper-example-truncation":
        return _paper_truncation_instance(n_terms, seed)
    if name == "generic":
        return _generic_instance(seed)
    if name == "rank-deficient-K":
        return _rank_deficient_instance(seed)
    return _coisometry_instance(seed)


def _trial_seed(seed: int, trial: int) -> int:
    return (seed * 1_000_003 + trial) % (2**61)


# -- suite trial bodies ----------------------------------------------------------


def _douglas_trial(seed: int, trial: int, tol: float) -> dict:
    rng = stream(seed, 2, trial)
    spec = AlgebraSpec((2, 1))
    n = 2 + trial % 2
    n2 = int(rng.integers(1, 4))
    s0 = random_operator(spec, n2, n, rng)
    s_op = _drop_last_slot(spec, n).compose(s0)
    nt = int(rng.integers(1, 4))
    q0 = random_operator(spec, nt, n2, rng)
    t_op = s_op.compose(q0)
    planted_inclusion = trial % 2 == 0
    if not planted_inclusion:
        r_op = random_operator(spec, nt, n, rng)
        coproj = identity_operator(spec, n) - s_op.compose(pseudo_inverse(s_op))
        t_op = t_op + coproj.compose(r_op)
    cert = equivalence_audit(t_op, s_op, tol)
    matches = bool(cert.witness.get("cond_i")) == planted_inclusion
    status = cert.status if matches else FALSIFIED
    return {
        "trial": trial,
        "status": status,
        "planted_inclusion": planted_inclusion,
        "matches_planted": matches,
        "certificate": certificate_to_dict(cert),
    }


def _kframe_main_trial(seed: int, trial: int, tol: float) -> dict:
    """A K-frame iff an atomic system for K, whose dual atoms then
    reconstruct K (`dual_ok`); an inconclusive `pencil_verdict` of lambda*
    leaves the row inconclusive."""
    profile = "generic" if trial % 2 == 0 else "rank-deficient-K"
    if profile == "generic":
        frame, k_op, _ = _generic_draw(_trial_seed(seed, trial))
    else:
        inst = _rank_deficient_instance(_trial_seed(seed, trial))
        frame, k_op = inst.members, inst.operators["K"]
    lam, mu = optimal_scalar_bounds(frame, k_op, tol)
    gate = pencil_verdict(lam, tol)
    kframe_ok = False
    if gate == CERTIFIED:
        a, b = derived_bounds(frame, lam, mu)
        kframe_ok = certify_kframe(frame, k_op, a, b, tol).ok
    try:
        recon_residual = atomic_coefficients(frame, k_op, tol)[2]
    except AtomicSystemError:
        recon_residual = None
    atomic_ok = recon_residual is not None
    return {
        "trial": trial,
        "status": INCONCLUSIVE if gate == INCONCLUSIVE else (
            CERTIFIED if kframe_ok == atomic_ok else FALSIFIED
        ),
        "profile": profile,
        "kframe_ok": kframe_ok,
        "atomic_ok": atomic_ok,
        "dual_ok": True,
        "lambda_star": lam,
        "reconstruction_residual": recon_residual,
    }


def _paper_example_run(seed: int, n_terms: int, tol: float) -> dict:
    """The equality <Q u, Q u> = C<u, u>C* for all u in A^1 is the operator
    equality Q*Q = M_C M_C*, decided by `residual_verdict` on the
    difference with scale max(1, ||M_C||^2), beside the Bessel bound and
    the factorization residual of U Q = K (scale max(1, ||K||))."""
    inst = _paper_truncation_instance(n_terms, seed)
    frame = inst.members
    k_op = inst.operators["K"]
    bessel = certify_star_bessel(frame, inst.bounds["B"], tol)
    sol = douglas_solve(k_op, frame.synthesis_op, tol)
    mc = diagonal_operator(inst.bounds["C"], 1)
    cc = mc.compose(mc.adjoint())
    equality, max_dev = residual_verdict((sol.q.adjoint().compose(sol.q) - cc).block_matrices(),
                                         tol, cc)
    factorization = verdict_at_norm(sol.residual, tol, k_op)
    return {
        "trial": 0,
        "status": worst(bessel.status, factorization, equality),
        "n_terms": n_terms,
        "bessel_status": bessel.status,
        "factorization_residual": sol.residual,
        "max_equality_deviation": max_dev,
    }


def _conjugation_trial(seed: int, trial: int, tol: float) -> dict:
    frame, _, _ = _generic_draw(_trial_seed(seed, trial))
    k_op = random_operator(frame.spec, frame.rank, frame.rank, stream(seed, 6, trial))
    cert = conjugation_audit(frame, k_op, tol)
    return {
        "trial": trial,
        "status": cert.status,
        "matched": cert.witness["matched"],
        "certificate": certificate_to_dict(cert),
    }


def tensor_pair_instance(seed: int) -> Instance:
    """Left/right instance pair for the tensor audit: left algebra M_2,
    right algebra C + C, planted K and L with scalar bounds."""
    rng = stream(seed, 7)
    left = AlgebraSpec((2,))
    right = AlgebraSpec((1, 1))
    n = int(rng.integers(1, 3))
    m = int(rng.integers(1, 3))
    j_count = int(rng.integers(n, 4))
    i_count = int(rng.integers(m, 4))
    f_seq = _family(random_operator(left, j_count, n, rng))
    h_seq = _family(random_operator(right, i_count, m, rng))
    k_op = f_seq.synthesis_op.compose(random_operator(left, n, j_count, rng))
    l_op = h_seq.synthesis_op.compose(random_operator(right, m, i_count, rng))
    a, b = derived_bounds(f_seq, *optimal_scalar_bounds(f_seq, k_op), BOUND_MARGIN)
    c, d = derived_bounds(h_seq, *optimal_scalar_bounds(h_seq, l_op), BOUND_MARGIN)
    right_inst = Instance(
        spec=right,
        rank=m,
        members=h_seq,
        operators={"L": l_op},
        bounds={"C": c, "D": d},
        seed=seed,
    )
    return Instance(
        spec=left,
        rank=n,
        members=f_seq,
        operators={"K": k_op},
        bounds={"A": a, "B": b},
        seed=seed,
        right=right_inst,
    )


def _tensor_pair_audit(inst: Instance, tol: float) -> Certificate:
    """`tensor_frame_audit` of a left/right instance pair, with K, A, B on
    the left and L, C, D on the right."""
    right = inst.right
    return tensor_frame_audit(
        tensor_witness(inst.spec, right.spec), inst.members, right.members,
        inst.operators["K"], right.operators["L"], inst.bounds["A"], inst.bounds["B"],
        right.bounds["C"], right.bounds["D"], tol,
    )


def _tensor_trial(seed: int, trial: int, tol: float) -> dict:
    cert = _tensor_pair_audit(tensor_pair_instance(_trial_seed(seed, trial)), tol)
    return {
        "trial": trial,
        "status": cert.status,
        "frame_operator_residual": cert.witness.get("frame_operator_residual"),
        "certificate": certificate_to_dict(cert),
    }


def _coisometry_trial(seed: int, trial: int, tol: float) -> dict:
    frame, k_op, t_op = _coisometry_draw(_trial_seed(seed, trial))
    cert = coisometry_invariance_audit(frame, t_op, k_op, tol)
    return {
        "trial": trial,
        "status": cert.status,
        "certificate": certificate_to_dict(cert),
    }


def _perturbed_pair(frame: FrameSeq, seed: int, epsilon: float) -> FrameSeq:
    """The perturbed partner {f_j + epsilon r_j} of a frame, r_j drawn
    from stream(seed, 8): its synthesis is U + epsilon R, R the random
    operator whose column j is the j-th of the draws.  A partner whose
    frame operator overflows is an input error."""
    noise = random_operator(frame.spec, frame.n_members, frame.rank, stream(seed, 8))
    return _finite_family(frame.synthesis_op + noise.scalar_mul(epsilon), "perturbed family")


def _perturbed_trial(seed: int, trial: int, epsilon: float) -> tuple:
    """A trial's generic family, its perturbed partner, K and bounds A, B:
    those of the generic instance, without its unread L, the last draw."""
    frame, k_op, _ = _generic_draw(_trial_seed(seed, trial))
    a, b = derived_bounds(frame, *optimal_scalar_bounds(frame, k_op), BOUND_MARGIN)
    return frame, _perturbed_pair(frame, _trial_seed(seed, trial) + 3, epsilon), k_op, a, b


def _perturb1_trial(seed: int, trial: int, tol: float, epsilon: float) -> dict:
    frame, h_seq, k_op, a, b = _perturbed_trial(seed, trial, epsilon)
    cert = pertur1_audit(frame, h_seq, k_op, k_op, a, b, tol=tol)
    w = cert.witness
    return {
        "trial": trial,
        "status": cert.status,
        "M": w["M"],
        "branch_M_f": w["branch_M_f"],
        "branch_M_h": w["branch_M_h"],
        "bessel_of_h": w["bessel_of_h"],
        # the Bessel bound the conclusion certified
        "bessel_bound": w["upper_const"],
    }


def _perturb2_trial(seed: int, trial: int, tol: float, epsilon: float) -> dict:
    frame, h_seq, k_op, a, b = _perturbed_trial(seed, trial, epsilon)
    cert = pertur2_audit(frame, h_seq, k_op, k_op, 0.2, 0.1, 0.05, a, b, tol=tol)
    hypothesis = cert.witness["hypothesis"]
    # a falsified hypothesis leaves nothing to check; an undecided one
    # leaves the row undecided unless the conclusion holds regardless
    if cert.ok or hypothesis == FALSIFIED:
        status = CERTIFIED
    else:
        status = INCONCLUSIVE if hypothesis == INCONCLUSIVE else FALSIFIED
    return {
        "trial": trial,
        "status": status,
        "hypothesis": hypothesis,
        # null where the hypothesis status carries no such margin
        **{
            f"hypothesis_{k}": cert.witness.get(f"hypothesis_{k}")
            for k in HYPOTHESIS_MARGINS
        },
        "conclusion_status": cert.status,
    }


def run_suite(
    suite: str,
    trials: int = 100,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    samples: int = 100,
    n_terms: int = 10,
    epsilon: float = DEFAULT_EPSILON,
) -> dict:
    """Execute one audit ensemble and assemble its run report.

    `samples` is checked (>= 1) and recorded in the config; no check draws
    samples."""
    if suite not in SUITES:
        raise InputError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}")
    if trials < 1 or samples < 1:
        raise InputError(f"trials and samples must be >= 1, got {trials} and {samples}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    tol = decode_tolerance(tol, "tol")
    epsilon = decode_number(epsilon, "epsilon")
    t0 = time.perf_counter()
    rows: list[dict] = []
    if suite == "paper-example":
        rows.append(_paper_example_run(seed, n_terms, tol))
    else:
        body = {
            "douglas-equivalence": lambda t: _douglas_trial(seed, t, tol),
            "kframe-main": lambda t: _kframe_main_trial(seed, t, tol),
            "conjugation": lambda t: _conjugation_trial(seed, t, tol),
            "tensor": lambda t: _tensor_trial(seed, t, tol),
            "co-isometry": lambda t: _coisometry_trial(seed, t, tol),
            "perturb1": lambda t: _perturb1_trial(seed, t, tol, epsilon),
            "perturb2": lambda t: _perturb2_trial(seed, t, tol, epsilon),
        }[suite]
        for t in range(trials):
            try:
                rows.append(body(t))
            except InputError as exc:
                rows.append({"trial": t, "status": "error", "error": str(exc)})
    statuses = [r["status"] for r in rows]
    overall = worst(*(INCONCLUSIVE if s == "error" else s for s in statuses))
    summary = {
        "total": len(rows),
        "certified": statuses.count("certified"),
        "falsified": statuses.count("falsified"),
        "inconclusive": statuses.count("inconclusive"),
        "errors": statuses.count("error"),
        "overall": overall,
    }
    report = {
        "tool": "cstarframes",
        "version": __version__,
        "command": "suite",
        "suite": suite,
        "config": {
            "trials": trials,
            "seed": seed,
            "tol": tol,
            "samples": samples,
            "n_terms": n_terms,
            "epsilon": epsilon,
        },
        "seed": seed,
        "instance_digest": None,
        "trials": rows,
        "summary": summary,
        "wall_clock_s": time.perf_counter() - t0,
    }
    return report
