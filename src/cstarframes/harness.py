"""Random instances, theorem-audit ensembles, the claim table and run reports.

Every ensemble is driven by Philox streams keyed (seed, suite tag, trial
index), so a (suite, config, seed) triple reproduces every numeric field
bit for bit.  A run report is a plain dict with fixed key order; its
serialized payload (wall clock excluded) is byte-identical across reruns.
"""

from __future__ import annotations

import re
import time
from dataclasses import replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from ._version import __version__
from .algebra import DEFAULT_TOL, AlgebraSpec
from .certify import (
    CERTIFIED, Certificate, FALSIFIED, INCONCLUSIVE, pencil_verdict, residual_verdict,
    verdict_at_norm, worst,
)
from .douglas import _factorization, equivalence_audit, pseudo_inverse
from .errors import AtomicSystemError, InputError
from .frames import (
    FrameSeq,
    _family,
    _pencil_certificate,
    _pencil_kframe,
    atomic_coefficients,
    certify_kframe,
    certify_star_bessel,
    coisometry_invariance_audit,
    conjugation_audit,
    derived_bounds,
    dual_atoms_audit,
    local_atoms_check,
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

# margin between optimal scalar bounds and the bounds stored in instances,
# so downstream perturbation checks have headroom
BOUND_MARGIN = 0.05
# size of the perturbation {f_j + epsilon r_j} of the perturbation suites
# and of the perturb1/perturb2 commands on a generated instance
DEFAULT_EPSILON = 1e-3
# perturb2's (alpha, beta, gamma) where the instance gives none
PERTURB2_CONSTANTS = {"alpha": 0.2, "beta": 0.1, "gamma": 0.05}


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
#
# A trial body takes (seed, trial, tol, epsilon) and returns its row, which
# `run_suite` numbers; the bodies that read no epsilon end in *_.


def _douglas_trial(seed: int, trial: int, tol: float, *_) -> dict:
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
        "status": status,
        "planted_inclusion": planted_inclusion,
        "matches_planted": matches,
        "certificate": certificate_to_dict(cert),
    }


def _kframe_main_trial(seed: int, trial: int, tol: float, *_) -> dict:
    """A K-frame iff an atomic system for K; an inconclusive
    `pencil_verdict` of lambda* leaves the row inconclusive."""
    profile = "generic" if trial % 2 == 0 else "rank-deficient-K"
    if profile == "generic":
        frame, k_op, _ = _generic_draw(_trial_seed(seed, trial))
    else:
        inst = _rank_deficient_instance(_trial_seed(seed, trial))
        frame, k_op = inst.members, inst.operators["K"]
    lam, mu = optimal_scalar_bounds(frame, k_op, tol)
    gate = pencil_verdict(lam, tol)
    a, b = derived_bounds(frame, lam, mu)
    kframe_ok = gate == CERTIFIED and certify_kframe(frame, k_op, a, b, tol).ok
    try:
        recon_residual = atomic_coefficients(frame, k_op, tol)[2]
    except AtomicSystemError:
        recon_residual = None
    atomic_ok = recon_residual is not None
    return {
        "status": INCONCLUSIVE if gate == INCONCLUSIVE else (
            CERTIFIED if kframe_ok == atomic_ok else FALSIFIED
        ),
        "profile": profile,
        "kframe_ok": kframe_ok,
        "atomic_ok": atomic_ok,
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
    q, residual = _factorization(frame.synthesis_op).solve(k_op, tol)
    mc = diagonal_operator(inst.bounds["C"], 1)
    cc = mc.compose(mc.adjoint())
    equality, max_dev = residual_verdict((q.adjoint().compose(q) - cc).block_matrices(), tol, cc)
    factorization = verdict_at_norm(residual, tol, k_op)
    return {
        "status": worst(bessel.status, factorization, equality),
        "n_terms": n_terms,
        "bessel_status": bessel.status,
        "factorization_residual": residual,
        "max_equality_deviation": max_dev,
    }


def _conjugation_trial(seed: int, trial: int, tol: float, *_) -> dict:
    frame, _, _ = _generic_draw(_trial_seed(seed, trial))
    k_op = random_operator(frame.spec, frame.rank, frame.rank, stream(seed, 6, trial))
    cert = conjugation_audit(frame, k_op, tol)
    return {
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


def _tensor_trial(seed: int, trial: int, tol: float, *_) -> dict:
    status, values, [cert] = _run_tensor(tensor_pair_instance(_trial_seed(seed, trial)), tol)
    return {
        "status": status,
        "frame_operator_residual": values.get("frame_operator_residual"),
        "certificate": certificate_to_dict(cert),
    }


def _coisometry_trial(seed: int, trial: int, tol: float, *_) -> dict:
    frame, k_op, t_op = _coisometry_draw(_trial_seed(seed, trial))
    cert = coisometry_invariance_audit(frame, t_op, k_op, tol)
    return {
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


def _perturbed_instance(seed: int, trial: int, epsilon: float) -> Instance:
    """`_perturbed_trial` as an instance with no L, so L is K."""
    frame, h_seq, k_op, a, b = _perturbed_trial(seed, trial, epsilon)
    return Instance(spec=frame.spec, rank=frame.rank, members=frame, h_members=h_seq,
                    operators={"K": k_op}, bounds={"A": a, "B": b})


def _perturb1_trial(seed: int, trial: int, tol: float, epsilon: float) -> dict:
    status, w, _ = _run_perturb1(_perturbed_instance(seed, trial, epsilon), tol, seed, None)
    keys = ("M", "branch_M_f", "branch_M_h", "bessel_of_h")
    # bessel_bound: the Bessel bound the conclusion certified
    return {"status": status, **{k: w[k] for k in keys}, "bessel_bound": w["upper_const"]}


def _perturb2_trial(seed: int, trial: int, tol: float, epsilon: float) -> dict:
    conclusion, w, _ = _run_perturb2(_perturbed_instance(seed, trial, epsilon), tol, seed, None)
    hypothesis = w["hypothesis"]
    # a falsified hypothesis leaves nothing to check; an undecided one
    # leaves the row undecided unless the conclusion holds regardless
    if conclusion == CERTIFIED or hypothesis == FALSIFIED:
        status = CERTIFIED
    else:
        status = INCONCLUSIVE if hypothesis == INCONCLUSIVE else FALSIFIED
    return {
        "status": status,
        "hypothesis": hypothesis,
        # null where the hypothesis status carries no such margin
        **{f"hypothesis_{k}": w.get(f"hypothesis_{k}") for k in HYPOTHESIS_MARGINS},
        "conclusion_status": conclusion,
    }


# -- claim runners -------------------------------------------------------------------
#
# A runner takes (inst, tol, seed, profile) and returns (status, values,
# certificates).  Only the perturbation runners read seed and profile: a
# generated instance gets its perturbed family drawn from the seed.


def _outcome(cert: Certificate) -> tuple:
    """Status, values and certificates of a claim decided by one certificate."""
    return cert.status, dict(cert.witness), [cert]


def _run_kframe(inst: Instance, k_op: ModuleOperator, tol: float, claim: str) -> tuple:
    """`frames._pencil_kframe` with the instance's bounds A, B, or where it
    lacks one with `derived_bounds`' B and a lower bound derived there."""
    frame = inst.members
    lam, mu = optimal_scalar_bounds(frame, k_op, tol)
    values = {"lambda_star": lam, "mu_star": mu}
    a, b = inst.bounds.get("A"), inst.bounds.get("B")
    if a is None or b is None:
        a, b = None, derived_bounds(frame, lam, mu)[1]
        if pencil_verdict(lam, tol) == CERTIFIED:
            values["derived_bounds"] = True
    witness = {"lambda_star": lam, "reason": "no scalar lower bound resolved at tol"}
    cert = _pencil_kframe(frame, k_op, lam, b, tol, claim, witness, a)
    return cert.status, values, [cert]


def _run_check_frame(inst: Instance, tol: float, *_) -> tuple:
    return _run_kframe(inst, identity_operator(inst.spec, inst.rank), tol, "star-frame")


def _run_check_kframe(inst: Instance, tol: float, *_) -> tuple:
    return _run_kframe(inst, inst.operators["K"], tol, "star-kframe")


def _run_atomic_system(inst: Instance, tol: float, *_) -> tuple:
    cert = dual_atoms_audit(inst.members, inst.operators["K"], tol)
    if not cert.ok:
        return cert.status, {}, [replace(cert, claim="atomic-system")]
    w = cert.witness
    values = {"q_norm": w["q_norm"], "residual": w["factorization_residual"],
              "coefficient_bound_norm": w["q_norm"]}
    return CERTIFIED, values, [Certificate(CERTIFIED, "atomic-system", dict(values), tol)]


def _run_dual_atoms(inst: Instance, tol: float, *_) -> tuple:
    return _outcome(dual_atoms_audit(inst.members, inst.operators["K"], tol))


def _run_local_atoms(inst: Instance, tol: float, *_) -> tuple:
    frame = inst.members
    s_pinv = pseudo_inverse(frame.frame_op)
    g_frame = inst.g_members
    if g_frame is None:
        g_frame = _family(s_pinv.compose(frame.synthesis_op))
    c = inst.bounds.get("C")
    if c is None:
        c = inst.spec.central([s_pinv.norm() * frame.synthesis_op.norm()] * inst.spec.n_blocks)
    return _outcome(local_atoms_check(frame, inst.operators["P"], g_frame, c, tol))


def _run_douglas(inst: Instance, tol: float, *_) -> tuple:
    return _outcome(equivalence_audit(inst.operators["K"], inst.operators["L"], tol))


def _run_bounds(inst: Instance, tol: float, *_) -> tuple:
    frame = inst.members
    k_op = inst.operators.get("K") or identity_operator(inst.spec, inst.rank)
    lam, mu = optimal_scalar_bounds(frame, k_op, tol)
    values = {"lambda_star": lam, "mu_star": mu}
    cert = _pencil_certificate(frame, k_op, lam, tol, "scalar-bounds", dict(values))
    return cert.status, values, [cert]


def _run_tensor(inst: Instance, tol: float, *_) -> tuple:
    """`tensor_frame_audit` of a left/right instance pair, with K, A, B on
    the left and L, C, D on the right."""
    right = inst.right
    return _outcome(tensor_frame_audit(
        tensor_witness(inst.spec, right.spec), inst.members, right.members,
        inst.operators["K"], right.operators["L"], inst.bounds["A"], inst.bounds["B"],
        right.bounds["C"], right.bounds["D"], tol,
    ))


def _perturb_common(inst: Instance, tol: float, seed: int, profile: Optional[str],
                    command: str) -> tuple:
    """The family, its perturbed partner, K, L (K where the instance has
    none) and bounds A, B of a perturbation claim.  A generated instance
    (a profile) without a partner gets one drawn at DEFAULT_EPSILON, and
    bounds the instance lacks are derived from lambda*, mu*."""
    frame = inst.members
    k_op = inst.operators["K"]
    l_op = inst.operators.get("L", k_op)
    if inst.h_members is not None:
        h_seq = inst.h_members
    elif profile:
        h_seq = _perturbed_pair(frame, seed, DEFAULT_EPSILON)
    else:
        raise InputError(f"{command} needs h_members (the perturbed family)")
    a = inst.bounds.get("A")
    b = inst.bounds.get("B")
    if a is None or b is None:
        lam, mu = optimal_scalar_bounds(frame, k_op, tol)
        if pencil_verdict(lam, tol) != CERTIFIED:
            raise InputError(f"{command}: base family is not a K-frame, no bounds derivable")
        a, b = derived_bounds(frame, lam, mu)
    return frame, h_seq, k_op, l_op, a, b


def _run_perturb1(inst: Instance, tol: float, seed: int, profile: Optional[str]) -> tuple:
    frame, h_seq, k_op, l_op, a, b = _perturb_common(inst, tol, seed, profile, "perturb1")
    return _outcome(pertur1_audit(frame, h_seq, k_op, l_op, a, b, tol=tol))


def _run_perturb2(inst: Instance, tol: float, seed: int, profile: Optional[str]) -> tuple:
    frame, h_seq, k_op, l_op, a, b = _perturb_common(inst, tol, seed, profile, "perturb2")
    pert = inst.perturbation or PERTURB2_CONSTANTS
    return _outcome(pertur2_audit(
        frame, h_seq, k_op, l_op,
        pert.get("alpha", 0.0), pert.get("beta", 0.0), pert.get("gamma", 0.0),
        a, b, tol=tol,
    ))


# -- the claim table -----------------------------------------------------------------


class Claim(NamedTuple):
    """One claim the tool runs: as a CLI command, a suite, or both."""

    command: Optional[str] = None
    suite: Optional[str] = None
    # the instance fields the command reads, checked in order by `check`:
    # "right" or "[right.]operators.X" or "[right.]bounds.X", then an
    # optional note on the field's role that its message carries
    needs: tuple = ()
    # the status line's values, where the first four are not the decision
    status_keys: Optional[tuple] = None
    # (inst, tol, seed, profile) -> (status, values, certificates)
    run: Optional[Callable] = None
    # (seed, trial, tol, epsilon) -> row
    trial: Optional[Callable] = None

    def check(self, inst: Instance) -> None:
        """Raise the InputError naming the first of `needs` that inst lacks."""
        for need in self.needs:
            path, _, note = need.partition(" ")
            who = f"{self.command} {note}".rstrip()
            if path == "right":
                if inst.right is None:
                    raise InputError(f"{who} needs a nested 'right' instance (or --profile)")
                continue
            side, kind, key = (["left"] + path.split("."))[-3:]
            if key not in getattr(inst.right if side == "right" else inst, kind):
                raise InputError(f"{who} needs operators.{key} in the instance"
                                 if kind == "operators"
                                 else f"{who} needs bounds.{key} on the {side} instance")


# Every claim the CLI and the suites run: its commands in order are cli.COMMANDS
# and its suites SUITES.  paper-example runs once, at n_terms.
CLAIMS = (
    Claim("check-frame", run=_run_check_frame),
    Claim("check-kframe", needs=("operators.K",), run=_run_check_kframe),
    Claim("atomic-system", needs=("operators.K",), run=_run_atomic_system),
    Claim("dual-atoms", needs=("operators.K",), run=_run_dual_atoms),
    Claim("local-atoms", needs=("operators.P",), run=_run_local_atoms),
    Claim("douglas", "douglas-equivalence",
          needs=("operators.K (uses K as T)", "operators.L (uses L as S)"),
          run=_run_douglas, trial=_douglas_trial),
    Claim("bounds", run=_run_bounds),
    Claim(suite="kframe-main", trial=_kframe_main_trial),
    Claim(suite="paper-example"),
    Claim(suite="conjugation", trial=_conjugation_trial),
    Claim("tensor", "tensor",
          needs=("right", "operators.K (left)", "right.operators.L (right)",
                 "bounds.A", "bounds.B", "right.bounds.C", "right.bounds.D"),
          run=_run_tensor, trial=_tensor_trial),
    Claim(suite="co-isometry", trial=_coisometry_trial),
    Claim("perturb1", "perturb1", needs=("operators.K",), status_keys=("M", "upper_const"),
          run=_run_perturb1, trial=_perturb1_trial),
    Claim("perturb2", "perturb2", needs=("operators.K",),
          status_keys=("hypothesis", "upper_const"), run=_run_perturb2, trial=_perturb2_trial),
)

_BY_SUITE = {c.suite: c for c in CLAIMS if c.suite}
SUITES = tuple(_BY_SUITE)


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
    if suite not in _BY_SUITE:
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
        rows.append({"trial": 0, **_paper_example_run(seed, n_terms, tol)})
    else:
        trial = _BY_SUITE[suite].trial
        for t in range(trials):
            try:
                rows.append({"trial": t, **trial(seed, t, tol, epsilon)})
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
