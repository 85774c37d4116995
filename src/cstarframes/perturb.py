"""Perturbation audits for K-frames.

Two hypotheses are checked against a perturbed family {h_j}: the min-type
quadratic comparison (a constant M controlling the difference quadratic
against both families), and the three-constant comparison with weights
alpha, beta, gamma.  Conclusions (Bessel bound and lower frame bound of
the perturbed family, with explicit constants) are certified
through operator pencils; the hypotheses themselves are exact per branch
but only samplable in their pointwise min/combination forms: a pointwise
minimum of two quadratic-form ratios, or a sum of square roots of
quadratic forms, is not one operator inequality, so no single gap
operator decides it.

Each sampled check draws all its samples in one `random_vectors` call and
evaluates them with `gram_norms`, one batched product per block, with the
per-sample arithmetic of a one-at-a-time loop.  Memory: every temporary
of a check holds samples * rank * sum(d_b^2) complex numbers of 16 B
(times the member count for the analysis images), e.g. 1000 samples at
rank 3 over (2, 1) take 240 kB each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgElement, DEFAULT_TOL
from .certify import CERTIFIED, Certificate, FALSIFIED, combine
from .douglas import pencil_lower_bound, range_residual
from .errors import InputError, PreconditionError
from .frames import FrameSeq, certify_kframe, certify_star_bessel
from .hilbmod import ModuleOperator, ModuleVector, _vector, gram_norms, identity_operator
from .sampling import random_vectors, stream


@dataclass
class PerturbReport:
    branch_M_f: float
    branch_M_h: float
    sampled_M: float
    conclusion: Certificate
    constants_used: dict = field(default_factory=dict)

    @property
    def certified_M(self) -> float:
        return min(self.branch_M_f, self.branch_M_h)


def difference_synthesis(f_seq: FrameSeq, h_seq: FrameSeq) -> ModuleOperator:
    """Synthesis operator of the difference family {f_j - h_j}."""
    if f_seq.n_members != h_seq.n_members:
        raise InputError("families must have equal member counts")
    if f_seq.spec != h_seq.spec or f_seq.rank != h_seq.rank:
        raise InputError("families must live in the same module")
    return f_seq.synthesis_op - h_seq.synthesis_op


def difference_quadratic(f_seq: FrameSeq, h_seq: FrameSeq, f: ModuleVector) -> float:
    """||sum_j <f, f_j - h_j><f_j - h_j, f>||, evaluated as ||<D* f, D* f>||."""
    d = difference_synthesis(f_seq, h_seq).adjoint().apply(f)
    return d.inner(d).norm()


def _branch_value(d_op: ModuleOperator, u_op: ModuleOperator) -> float:
    """Smallest M with D D* <= M U U*; +inf when range inclusion fails."""
    mu = pencil_lower_bound(d_op, u_op)
    if math.isinf(mu):
        return 0.0
    if mu == 0.0:
        return math.inf
    return 1.0 / mu


def exact_branch_M(f_seq: FrameSeq, h_seq: FrameSeq) -> tuple[float, float]:
    """Exact single-branch constants of the min-type comparison: the
    smallest M with ||D* f||^2 <= M ||U* f||^2 against each family."""
    return _branch_constants(difference_synthesis(f_seq, h_seq), f_seq, h_seq)


def _branch_constants(
    d_op: ModuleOperator, f_seq: FrameSeq, h_seq: FrameSeq
) -> tuple[float, float]:
    """`exact_branch_M` given the difference synthesis D."""
    return (
        _branch_value(d_op, f_seq.synthesis_op),
        _branch_value(d_op, h_seq.synthesis_op),
    )


def _sampled_min_ratio(
    d_adj: ModuleOperator, f_seq: FrameSeq, h_seq: FrameSeq, samples: int, seed: int
) -> float:
    """max over samples of min(q/a, q/b), with D* the adjoint of the
    difference synthesis: the sampled min-ratio never exceeds either exact
    branch constant.  Both audits draw here first, so this is where a
    sample count below 1 is rejected."""
    if samples < 1:
        raise InputError(f"samples must be >= 1, got {samples}")
    stacks = random_vectors(f_seq.spec, f_seq.rank, stream(seed, 0x3E), samples)
    q = gram_norms(d_adj, stacks)
    ratios = []
    for seq in (f_seq, h_seq):
        x = gram_norms(seq.analysis_op, stacks)
        ratios.append(np.divide(q, x, out=np.full_like(q, math.inf), where=x > 1e-30))
    worst = np.minimum(*ratios)
    worst = worst[np.isfinite(worst)]
    return float(worst.max()) if worst.size else 0.0


def _central_sigma_min(a: AlgElement) -> float:
    return float(np.abs(a.central_scalars()).min())


def _require_hypotheses(
    f_seq: FrameSeq,
    k_op: ModuleOperator,
    l_op: ModuleOperator,
    a: AlgElement,
    b: AlgElement,
    tol: float,
) -> None:
    if not (a.is_central(tol) and b.is_central(tol)):
        raise PreconditionError("perturbation audits need central bounds A, B")
    base = certify_kframe(f_seq, k_op, a, b, tol)
    if not base.ok:
        raise PreconditionError(
            f"hypothesis failed: base family is not a certified K-frame ({base.status})"
        )
    resid = range_residual(l_op, k_op)
    if resid > tol * max(1.0, l_op.norm()):
        raise PreconditionError(
            f"hypothesis failed: R(L) not contained in R(K), residual {resid:.3e}"
        )


def pertur1_audit(
    f_seq: FrameSeq,
    h_seq: FrameSeq,
    k_op: ModuleOperator,
    l_op: ModuleOperator,
    a: AlgElement,
    b: AlgElement,
    tol: float = DEFAULT_TOL,
    samples: int = 200,
    seed: int = 0,
    converse: bool = False,
) -> PerturbReport:
    """Audit the min-type perturbation statement.

    Forward mode: with M the smaller exact branch constant, certify that
    {h_j} is Bessel with bound (1 + sqrt(M)) ||B|| and an L-frame with a
    scalar lower bound obtained from the pencil of (L L*, U_H U_H*); the
    classical reference constant ||A||^2 lambda / (1 + sqrt(M))^2 is
    recorded alongside.

    Converse mode (co-isometric K, R(K) <= R(L)): checks that the reported
    M does not exceed min{(1 + ||D||/||A||)^2, (1 + sqrt(lambda)||B||/||C||)^2}
    evaluated from certified bounds of both families.
    """
    d_op = difference_synthesis(f_seq, h_seq)
    m_f, m_h = _branch_constants(d_op, f_seq, h_seq)
    sampled = _sampled_min_ratio(d_op.adjoint(), f_seq, h_seq, samples, seed)
    m_val = min(m_f, m_h)

    if converse:
        return _pertur1_converse(
            f_seq, h_seq, k_op, l_op, a, b, m_f, m_h, sampled, tol
        )

    _require_hypotheses(f_seq, k_op, l_op, a, b, tol)
    b_norm = b.norm()
    a_norm = a.norm()
    sqrt_m = math.sqrt(m_val) if math.isfinite(m_val) else math.inf
    constants: dict = {
        "M": m_val,
        "branch_M_f": m_f,
        "branch_M_h": m_h,
        "norm_A": a_norm,
        "norm_B": b_norm,
    }
    if not math.isfinite(m_val):
        conclusion = Certificate(
            FALSIFIED,
            "perturb-min-conclusion",
            {"reason": "both branch constants are infinite"},
            {"tol": tol},
        )
        return PerturbReport(m_f, m_h, sampled, conclusion, constants)

    bessel_bound = ((1.0 + sqrt_m) * b_norm) * f_seq.spec.unit()
    bessel = certify_star_bessel(h_seq, bessel_bound, tol)

    lam_lk = pencil_lower_bound(l_op, k_op)
    nu = pencil_lower_bound(l_op, h_seq.synthesis_op)
    lam_ref = lam_lk if math.isfinite(lam_lk) else 1.0
    constants["lambda_LK"] = lam_lk if math.isfinite(lam_lk) else float("inf")
    constants["pencil_lower_H"] = nu if math.isfinite(nu) else float("inf")
    constants["reference_lower_floor"] = (
        a_norm**2 * lam_ref / (1.0 + sqrt_m) ** 2
    )
    constants["bessel_of_h"] = math.sqrt(h_seq.frame_op.norm())

    frame_cert = _lframe_certificate(
        h_seq, l_op, nu, (1.0 + sqrt_m) * b_norm, tol, "perturb-lframe"
    )
    conclusion = combine("perturb-min-conclusion", [bessel, frame_cert])
    return PerturbReport(m_f, m_h, sampled, conclusion, constants)


def _lframe_certificate(
    h_seq: FrameSeq, l_op: ModuleOperator, nu: float, upper: float, tol: float, claim: str
) -> Certificate:
    """{h_j} as an L-frame with scalar bounds: falsified under `claim` when
    nu, the pencil value of (L L*, U_H U_H*), is 0; else `certify_kframe`
    with lower bound sqrt(nu (1 - 1e-12)) (1 when nu is infinite, L = 0)
    and upper bound `upper`."""
    if nu == 0.0:
        return Certificate(FALSIFIED, claim, {"pencil_lower_H": 0.0}, {"tol": tol})
    low = math.sqrt(max(nu * (1.0 - 1e-12), 0.0)) if math.isfinite(nu) else 1.0
    unit = h_seq.spec.unit()
    return certify_kframe(h_seq, l_op, low * unit, upper * unit, tol)


def _pertur1_converse(
    f_seq: FrameSeq,
    h_seq: FrameSeq,
    k_op: ModuleOperator,
    l_op: ModuleOperator,
    a: AlgElement,
    b: AlgElement,
    m_f: float,
    m_h: float,
    sampled: float,
    tol: float,
) -> PerturbReport:
    ident = identity_operator(f_seq.spec, f_seq.rank)
    if (k_op.compose(k_op.adjoint()) - ident).norm() > 1e-9:
        raise PreconditionError("converse mode needs a co-isometric K")
    resid = range_residual(k_op, l_op)
    if resid > tol * max(1.0, k_op.norm()):
        raise PreconditionError(
            f"converse hypothesis failed: R(K) not contained in R(L), residual {resid:.3e}"
        )
    # certified scalar bounds of the perturbed family against L
    nu = pencil_lower_bound(l_op, h_seq.synthesis_op)
    if nu <= 0.0:
        raise PreconditionError("converse hypothesis failed: {h_j} is not an L-frame")
    c_norm = math.sqrt(nu) if math.isfinite(nu) else 1.0
    d_norm = math.sqrt(h_seq.frame_op.norm())
    lam = pencil_lower_bound(k_op, l_op)
    lam_val = 1.0 / lam if lam not in (0.0, math.inf) else 0.0
    m_reference = min(
        (1.0 + d_norm / a.norm()) ** 2,
        (1.0 + math.sqrt(lam_val) * b.norm() / c_norm) ** 2,
    )
    m_val = min(m_f, m_h)
    ok = m_val <= m_reference + 1e-9
    conclusion = Certificate(
        CERTIFIED if ok else FALSIFIED,
        "perturb-min-converse",
        {"reported_M": m_val, "reference_M": m_reference},
        {"tol": tol},
    )
    constants = {
        "M": m_val,
        "reference_M": m_reference,
        "norm_A": a.norm(),
        "norm_B": b.norm(),
        "norm_C": c_norm,
        "norm_D": d_norm,
        "lambda": lam_val,
    }
    return PerturbReport(m_f, m_h, sampled, conclusion, constants)


def pertur2_audit(
    f_seq: FrameSeq,
    h_seq: FrameSeq,
    k_op: ModuleOperator,
    l_op: ModuleOperator,
    alpha: float,
    beta: float,
    gamma: float,
    a: AlgElement,
    b: AlgElement,
    tol: float = DEFAULT_TOL,
    samples: int = 1000,
    seed: int = 0,
) -> PerturbReport:
    """Audit the three-constant perturbation statement.

    The pointwise hypothesis is checked on samples (sound falsification
    with a witness; a clean pass is recorded as sampled-consistent).  The
    conclusion is certified: the Bessel norm of {h_j} against the explicit
    constant ||B|| (1 + (alpha + beta + gamma/||A||)/(1 - beta)), the
    L-frame property through pencils, and the lower constant g_sound, with
    sigma_min(A) replacing ||A|| where soundness requires it, decided
    exactly as g_sound^2 <= `pencil_lower_bound(K, U_H)`; its
    `worst_margin` is the pencil value minus g_sound^2.
    """
    if min(alpha, beta, gamma) < 0:
        raise InputError("alpha, beta, gamma must be nonnegative")
    a_norm = a.norm()
    if max(alpha + gamma / a_norm, beta) >= 1.0:
        raise InputError("constants must satisfy max(alpha + gamma/||A||, beta) < 1")
    d_op = difference_synthesis(f_seq, h_seq)
    _require_hypotheses(f_seq, k_op, l_op, a, b, tol)

    m_f, m_h = _branch_constants(d_op, f_seq, h_seq)
    d_adj = d_op.adjoint()
    sampled = _sampled_min_ratio(d_adj, f_seq, h_seq, samples=min(samples, 200), seed=seed)
    stacks = random_vectors(f_seq.spec, f_seq.rank, stream(seed, 0xAB), samples)
    lhs = np.sqrt(gram_norms(d_adj, stacks))
    rhs = (
        alpha * np.sqrt(gram_norms(f_seq.analysis_op, stacks))
        + beta * np.sqrt(gram_norms(h_seq.analysis_op, stacks))
        + gamma * np.sqrt(gram_norms(k_op.adjoint(), stacks))
    )
    violating = np.flatnonzero(lhs > rhs + tol * np.maximum(1.0, rhs))
    if violating.size:
        i = int(violating[0])
        conclusion = Certificate(
            FALSIFIED,
            "perturb-abg-hypothesis",
            {"violating_sample": i, "lhs": float(lhs[i]), "rhs": float(rhs[i])},
            {"tol": tol},
            samples,
            seed,
            witness_vector=_vector(f_seq.spec, [s[i] for s in stacks]),
        )
        return PerturbReport(
            m_f,
            m_h,
            sampled,
            conclusion,
            {"alpha": alpha, "beta": beta, "gamma": gamma},
        )

    b_norm = b.norm()
    sigma_min = _central_sigma_min(a)
    ratio = (alpha + beta + gamma / a_norm) / (1.0 - beta)
    upper_const = b_norm * (1.0 + ratio)
    bessel_h = math.sqrt(h_seq.frame_op.norm())
    upper_ok = bessel_h <= upper_const + tol
    upper_cert = Certificate(
        CERTIFIED if upper_ok else FALSIFIED,
        "perturb-abg-upper",
        {"bessel_of_h": bessel_h, "upper_const": upper_const},
        {"tol": tol},
    )

    frame_cert = _lframe_certificate(
        h_seq, l_op, pencil_lower_bound(l_op, h_seq.synthesis_op),
        bessel_h * (1.0 + 1e-9) + tol, tol, "perturb-abg-lframe",
    )

    g_reference = a_norm * (1.0 - (alpha + beta + gamma / a_norm) / (1.0 + beta))
    g_sound = sigma_min * (1.0 - (alpha + gamma / sigma_min)) / (1.0 + beta)
    # ||U_H* f|| >= g ||K* f|| for all f iff g^2 K K* <= U_H U_H* (the
    # rank-one reduction of `douglas._majorization`), iff g^2 is at most
    # the pencil value
    pencil_k = pencil_lower_bound(k_op, h_seq.synthesis_op)
    worst_margin = 0.0
    lower_ok = True
    if g_sound > 0:
        lower_ok = g_sound**2 <= pencil_k + tol * max(1.0, g_sound**2)
        if math.isfinite(pencil_k):
            worst_margin = pencil_k - g_sound**2
    lower_cert = Certificate(
        CERTIFIED if lower_ok else FALSIFIED,
        "perturb-abg-lower",
        {
            "g_reference": g_reference,
            "g_sound": g_sound,
            "worst_margin": worst_margin,
            "pencil_lower_K": pencil_k,
        },
        {"tol": tol},
    )
    conclusion = combine(
        "perturb-abg-conclusion", [upper_cert, frame_cert, lower_cert]
    )
    constants = {
        "alpha": alpha,
        "beta": beta,
        "gamma": gamma,
        "norm_A": a_norm,
        "norm_B": b_norm,
        "sigma_min_A": sigma_min,
        "upper_const": upper_const,
        "g_reference": g_reference,
        "g_sound": g_sound,
        "hypothesis": "sampled-consistent",
    }
    return PerturbReport(m_f, m_h, sampled, conclusion, constants)
