"""Perturbation audits for K-frames.

Two hypotheses are checked against a perturbed family {h_j}: the min-type
quadratic comparison (a constant M controlling the difference quadratic
against both families), and the three-constant comparison with weights
alpha, beta, gamma.  Conclusions (Bessel bound and lower frame bound of
the perturbed family, with explicit constants) are certified
through operator pencils; the hypotheses themselves are exact per branch
but only samplable in their pointwise min/combination forms.
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
from .hilbmod import ModuleOperator, ModuleVector
from .sampling import random_vector, stream


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


def _check_pair(f_seq: FrameSeq, h_seq: FrameSeq) -> None:
    if f_seq.n_members != h_seq.n_members:
        raise InputError("families must have equal member counts")
    if f_seq.spec != h_seq.spec or f_seq.rank != h_seq.rank:
        raise InputError("families must live in the same module")


def difference_synthesis(f_seq: FrameSeq, h_seq: FrameSeq) -> ModuleOperator:
    """Synthesis operator of the difference family {f_j - h_j}."""
    _check_pair(f_seq, h_seq)
    return f_seq.synthesis_op - h_seq.synthesis_op


def difference_quadratic(f_seq: FrameSeq, h_seq: FrameSeq, f: ModuleVector) -> float:
    """||sum_j <f, f_j - h_j><f_j - h_j, f>||, evaluated as ||D* f||^2."""
    d = difference_synthesis(f_seq, h_seq).adjoint().apply(f)
    return d.norm() ** 2


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
    d_op = difference_synthesis(f_seq, h_seq)
    return (
        _branch_value(d_op, f_seq.synthesis_op),
        _branch_value(d_op, h_seq.synthesis_op),
    )


def _sampled_min_ratio(
    f_seq: FrameSeq, h_seq: FrameSeq, samples: int, seed: int
) -> float:
    """max over samples of min(q/a, q/b): the sampled min-ratio never
    exceeds either exact branch constant."""
    d_adj = difference_synthesis(f_seq, h_seq).adjoint()
    rng = stream(seed, 0x3E)
    worst = 0.0
    for _ in range(samples):
        f = random_vector(f_seq.spec, f_seq.rank, rng)
        q = d_adj.apply(f).norm() ** 2
        a = f_seq.coefficient_gram(f).norm()
        b = h_seq.coefficient_gram(f).norm()
        ratios = [q / x for x in (a, b) if x > 1e-30]
        if ratios:
            worst = max(worst, min(ratios))
    return worst


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
    _check_pair(f_seq, h_seq)
    m_f, m_h = exact_branch_M(f_seq, h_seq)
    sampled = _sampled_min_ratio(f_seq, h_seq, samples, seed)
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

    if nu == 0.0:
        frame_cert = Certificate(
            FALSIFIED,
            "perturb-lframe",
            {"pencil_lower_H": 0.0},
            {"tol": tol},
        )
    else:
        low = math.sqrt(max(nu * (1.0 - 1e-12), 0.0)) if math.isfinite(nu) else 1.0
        frame_cert = certify_kframe(
            h_seq,
            l_op,
            low * f_seq.spec.unit(),
            (1.0 + sqrt_m) * b_norm * f_seq.spec.unit(),
            tol,
        )
    conclusion = combine("perturb-min-conclusion", [bessel, frame_cert])
    return PerturbReport(m_f, m_h, sampled, conclusion, constants)


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
    from .hilbmod import identity_operator

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
    L-frame property through pencils, and the lower-constant consistency
    with sigma_min(A) replacing ||A|| where soundness requires it.
    """
    if min(alpha, beta, gamma) < 0:
        raise InputError("alpha, beta, gamma must be nonnegative")
    a_norm = a.norm()
    if max(alpha + gamma / a_norm, beta) >= 1.0:
        raise InputError("constants must satisfy max(alpha + gamma/||A||, beta) < 1")
    _check_pair(f_seq, h_seq)
    _require_hypotheses(f_seq, k_op, l_op, a, b, tol)

    m_f, m_h = exact_branch_M(f_seq, h_seq)
    sampled = _sampled_min_ratio(f_seq, h_seq, samples=min(samples, 200), seed=seed)
    k_adj = k_op.adjoint()
    d_adj = difference_synthesis(f_seq, h_seq).adjoint()
    rng = stream(seed, 0xAB)
    for i in range(samples):
        f = random_vector(f_seq.spec, f_seq.rank, rng)
        q = math.sqrt(d_adj.apply(f).norm() ** 2)  # sqrt(difference_quadratic), bit for bit
        rhs = (
            alpha * math.sqrt(f_seq.coefficient_gram(f).norm())
            + beta * math.sqrt(h_seq.coefficient_gram(f).norm())
            + gamma * k_adj.apply(f).norm()
        )
        if q > rhs + tol * max(1.0, rhs):
            conclusion = Certificate(
                FALSIFIED,
                "perturb-abg-hypothesis",
                {"violating_sample": i, "lhs": q, "rhs": rhs},
                {"tol": tol},
                samples,
                seed,
                witness_vector=f,
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

    nu = pencil_lower_bound(l_op, h_seq.synthesis_op)
    if nu == 0.0:
        frame_cert = Certificate(
            FALSIFIED, "perturb-abg-lframe", {"pencil_lower_H": 0.0}, {"tol": tol}
        )
    else:
        low = math.sqrt(max(nu * (1.0 - 1e-12), 0.0)) if math.isfinite(nu) else 1.0
        frame_cert = certify_kframe(
            h_seq,
            l_op,
            low * f_seq.spec.unit(),
            (bessel_h * (1.0 + 1e-9) + tol) * f_seq.spec.unit(),
            tol,
        )

    g_reference = a_norm * (1.0 - (alpha + beta + gamma / a_norm) / (1.0 + beta))
    g_sound = sigma_min * (1.0 - (alpha + gamma / sigma_min)) / (1.0 + beta)
    lower_ok = True
    worst_margin = math.inf
    if g_sound > 0:
        rng2 = stream(seed, 0xAC)
        for _ in range(min(samples, 200)):
            f = random_vector(f_seq.spec, f_seq.rank, rng2)
            lhs = math.sqrt(h_seq.coefficient_gram(f).norm())
            rhs = g_sound * k_adj.apply(f).norm()
            worst_margin = min(worst_margin, lhs - rhs)
            if lhs < rhs - tol * max(1.0, rhs):
                lower_ok = False
                break
    lower_cert = Certificate(
        CERTIFIED if lower_ok else FALSIFIED,
        "perturb-abg-lower",
        {
            "g_reference": g_reference,
            "g_sound": g_sound,
            "worst_margin": worst_margin if math.isfinite(worst_margin) else 0.0,
            "pencil_lower_K": pencil_lower_bound(k_op, h_seq.synthesis_op),
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
