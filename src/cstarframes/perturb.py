"""Perturbation audits for K-frames.

Two hypotheses are checked against a perturbed family {h_j}, with D the
synthesis operator of the difference family {f_j - h_j}: the min-type
quadratic comparison (a constant M controlling the difference quadratic
against one of the families), and the three-constant comparison
||D* f|| <= alpha ||U_F* f|| + beta ||U_H* f|| + gamma ||K* f||.
Each audit returns one certificate.  Its conclusion about the perturbed
family is one `certify_kframe` of {h_j} against L: the upper bound is the
theorem's explicit constant, recorded as `upper_const`; the verdict and
lower bound that the pencil value nu of (L L*, U_H U_H*) gives are
`frames._pencil_kframe`'s, as for every K-frame read off a pencil value.
The audit's constants are witness fields of that certificate.

Verdicts draw nothing.  The min-type constants are exact per branch
(`exact_branch_M`).  The three-constant hypothesis is decided from
operator inequalities by branch and bound over the weight simplex
(`_abg_hypothesis`): certified where a monotone gap bound holds on every
triangle, falsified only with a rank-one witness evaluated directly, and
inconclusive only at the `_TRIANGLES` budget.  Every check and pencil
decides at the caller's tol.
"""

from __future__ import annotations

import math
from collections import deque
from functools import reduce

import numpy as np

from .algebra import AlgElement, DEFAULT_TOL
from .certify import (
    CERTIFIED, Certificate, FALSIFIED, INCONCLUSIVE, combine, psd_certificate, verdict,
)
from .douglas import _factorization, _inclusion, pencil_lower_bound
from .errors import InputError, PreconditionError
from .frames import FrameSeq, _pencil_kframe, certify_kframe
from .hilbmod import ModuleOperator


def difference_synthesis(f_seq: FrameSeq, h_seq: FrameSeq) -> ModuleOperator:
    """Synthesis operator of the difference family {f_j - h_j}."""
    if f_seq.n_members != h_seq.n_members:
        raise InputError("families must have equal member counts")
    if f_seq.spec != h_seq.spec or f_seq.rank != h_seq.rank:
        raise InputError("families must live in the same module")
    return f_seq.synthesis_op - h_seq.synthesis_op


def _branch_value(d_op: ModuleOperator, u_op: ModuleOperator, tol: float) -> float:
    """Smallest M with D D* <= M U U*; +inf when range inclusion fails at tol."""
    mu = pencil_lower_bound(d_op, u_op, tol)
    if math.isinf(mu):
        return 0.0
    if mu == 0.0:
        return math.inf
    return 1.0 / mu


def exact_branch_M(
    f_seq: FrameSeq, h_seq: FrameSeq, tol: float = DEFAULT_TOL
) -> tuple[float, float]:
    """Exact single-branch constants of the min-type comparison: the
    smallest M with ||D* f||^2 <= M ||U* f||^2 against each family, with
    range inclusion at tol."""
    d_op = difference_synthesis(f_seq, h_seq)
    return (
        _branch_value(d_op, f_seq.synthesis_op, tol),
        _branch_value(d_op, h_seq.synthesis_op, tol),
    )


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
    included, resid = _inclusion(l_op, k_op, tol)
    if not included:
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
) -> Certificate:
    """Audit the min-type perturbation statement.

    The hypothesis form is the branchwise one: ||D* f||^2 <= M ||U_F* f||^2
    for all f, or ||D* f||^2 <= M ||U_H* f||^2 for all f.  Its exact
    constant is M = min(m_f, m_h), the smaller of the two exact branch
    constants of `exact_branch_M`.  The pointwise form, ||D* f||^2 <=
    M max(||U_F* f||^2, ||U_H* f||^2) for each f, has a constant no larger
    (the sup of the pointwise min-ratio); its exact bracket is left open in
    ROADMAP.md (item 4), and no estimate of it is reported.

    It returns one certificate, "perturb-min-conclusion": the L-frame
    certificate of {h_j} (`frames._pencil_kframe`).  Its upper bound
    upper_const is the least Bessel bound of {h_j} that a branch gives,
    with D* f = U_F* f - U_H* f and ||U_F* f|| <= ||B|| ||f||:
      F branch (m_f finite): ||U_H* f|| <= ||U_F* f|| + ||D* f||
        <= (1 + sqrt(m_f)) ||U_F* f|| <= (1 + sqrt(m_f)) ||B|| ||f||;
      H branch (m_h < 1): (1 - sqrt(m_h)) ||U_H* f|| <= ||U_H* f|| - ||D* f||
        <= ||U_F* f|| <= ||B|| ||f||, so the bound is ||B|| / (1 - sqrt(m_h)).
    Its lower bound is the scalar one of the pencil value nu of
    (L L*, U_H U_H*), recorded as pencil_lower_H:
    falsified with a cokernel witness where nu = 0, and inconclusive where
    nu lies in (0, 10 tol], which resolves no lower bound at tol.  Its
    witness holds M, both branch constants, upper_const, lambda_LK, the
    pencil of (L L*, K K*) (exactly 1 when L is K, with K not factored),
    and bessel_of_h = sigma_max(U_H) = ||S_H||^(1/2), read off U_H's kept
    factorization.  A PreconditionError names the range residuals of a
    failed hypothesis: R(L) inside R(K), which holds exactly when L is K,
    or R(D) inside R(U_F) or R(U_H) (both branch constants infinite); and
    it names m_h where neither branch bounds {h_j} (m_f infinite, m_h >= 1).
    """
    _require_hypotheses(f_seq, k_op, l_op, a, b, tol)
    m_f, m_h = exact_branch_M(f_seq, h_seq, tol)
    m_val = min(m_f, m_h)
    constants: dict = {"M": m_val, "branch_M_f": m_f, "branch_M_h": m_h}
    if not math.isfinite(m_val):
        d_op = difference_synthesis(f_seq, h_seq)
        resid_f, resid_h = (_inclusion(d_op, s.synthesis_op, tol)[1] for s in (f_seq, h_seq))
        raise PreconditionError("hypothesis failed: R(D) is inside neither R(U_F) nor R(U_H), "
                                f"range residuals {resid_f:.3e} and {resid_h:.3e}")
    constants["norm_B"] = b_norm = b.norm()
    # each branch's Bessel bound of {h_j}, infinite where it gives none
    h_bound = b_norm / (1.0 - math.sqrt(m_h)) if m_h < 1.0 else math.inf
    upper_const = min((1.0 + math.sqrt(m_f)) * b_norm, h_bound)
    if math.isinf(upper_const):
        raise PreconditionError("hypothesis gives no Bessel bound of {h_j}: R(D) is not inside "
                                f"R(U_F), and branch_M_h = {m_h:.3e} is not below 1")
    lam_lk = pencil_lower_bound(l_op, k_op, tol)
    nu = pencil_lower_bound(l_op, h_seq.synthesis_op, tol)
    constants.update(
        upper_const=upper_const,
        lambda_LK=lam_lk,
        pencil_lower_H=nu,
        bessel_of_h=float(_factorization(h_seq.synthesis_op).smax),
    )
    frame_cert = _pencil_kframe(h_seq, l_op, nu, b.spec.central([upper_const] * b.spec.n_blocks),
                                tol, "perturb-lframe", {"pencil_value": nu})
    return combine("perturb-min-conclusion", [frame_cert], extra=constants)


# Witness fields of a certified or undecided three-constant hypothesis
# that `pertur2_audit` records, prefixed "hypothesis_": lhs_minus_rhs_max
# only if inconclusive, triangles only if the whole simplex did not decide.
HYPOTHESIS_MARGINS = ("min_eig", "scale", "lhs_minus_rhs_max", "triangles")

# Triangles of the weight simplex examined before the three-constant
# hypothesis is left inconclusive.
_TRIANGLES = 1024


def _split(tri: np.ndarray) -> list[np.ndarray]:
    """The 4 midpoint triangles of the triangle with vertex rows a, b, c."""
    a, b, c = tri
    ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
    return [np.array(t) for t in ((a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca))]


def _abg_hypothesis(
    d_op: ModuleOperator, terms: list[tuple[float, ModuleOperator]], tol: float
) -> Certificate:
    """Decide ||D* f|| <= sum_i c_i ||M_i* f|| for all f, three terms (c_i, M_i).

    As in `douglas._majorization`, the inequality holds for all f iff it
    holds for rank-one f, that is for the vectors x of the flattening.
    With a_i = ||M_i* x||, (sum_i c_i a_i)^2 is the minimum over w in the
    simplex of sum_i c_i^2 a_i^2 / w_i (Cauchy-Schwarz, attained at w_i
    proportional to c_i a_i), so the inequality holds iff D D* <= P(w) =
    sum_i c_i^2 M_i M_i* / w_i for every w in the simplex.

    Branch and bound over triangles T of the simplex, widest first.  P
    decreases in each w_i, so with w_T the componentwise maximum of T's
    vertices, one `psd_certificate` of P(w_T) - D D* certifies all of T;
    the first T, the whole simplex, has w_T = (1, 1, 1).  A falsified
    gap's eigenvector x is evaluated directly, and is the witness when
    `verdict` does not certify ||D* x|| - rhs at tol with scale
    max(1, rhs), as x^H P(w) x >= (sum_i c_i a_i)^2.  Otherwise T splits
    into its 4 midpoint triangles (`_split`).
    certified: every leaf is; a split one reports the leaf of least
    min_eig / scale and the triangle count.  falsified: x, with weights
    w_T.  inconclusive: `_TRIANGLES` triangles left a T undecided; the
    witness holds the whole simplex's gap, the largest lhs - rhs
    evaluated and the triangle count.
    """
    claim = "perturb-abg-hypothesis"
    d_adj = d_op.adjoint()
    dd = d_op.compose(d_adj)
    adjs = [m.adjoint() for _, m in terms]
    grams = [m.compose(adj).scalar_mul(c * c) for (c, m), adj in zip(terms, adjs)]
    pending, gaps, best = deque([np.eye(3)]), [], -math.inf
    while pending and len(gaps) < _TRIANGLES:
        tri = pending.popleft()
        weights = tri.max(axis=0)
        parts = [g.scalar_mul(1.0 / w) for g, w in zip(grams, weights)]
        cert = psd_certificate(reduce(ModuleOperator.__add__, parts) - dd, tol, claim)
        gaps.append(cert)
        if cert.status == FALSIFIED:
            f = cert.witness_vector
            lhs = d_adj.apply(f).norm()
            rhs = float(sum(c * adj.apply(f).norm() for (c, _), adj in zip(terms, adjs)))
            if verdict(lhs - rhs, tol, max(1.0, rhs)) != CERTIFIED:
                witness = {"lhs": lhs, "rhs": rhs, "min_eig": cert.witness["min_eig"],
                           "weights": [float(w) for w in weights]}
                return Certificate(FALSIFIED, claim, witness, tol, witness_vector=f)
            best = max(best, lhs - rhs)
        if not cert.ok:
            pending.extend(_split(tri))
    if pending:
        witness = {**gaps[0].witness, "lhs_minus_rhs_max": best, "triangles": len(gaps)}
        return Certificate(INCONCLUSIVE, claim, witness, tol)
    if len(gaps) == 1:
        return gaps[0]
    leaf = min((g for g in gaps if g.ok), key=lambda g: g.witness["min_eig"] / g.witness["scale"])
    return Certificate(CERTIFIED, claim, {**leaf.witness, "triangles": len(gaps)}, tol)


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
) -> Certificate:
    """Audit the three-constant perturbation statement.

    The hypothesis ||D* f|| <= alpha ||U_F* f|| + beta ||U_H* f|| +
    gamma ||K* f|| is decided by `_abg_hypothesis`.  When it is falsified,
    that certificate is returned, with its witness vector, and alpha,
    beta, gamma and hypothesis added to its witness.  Otherwise one
    certificate "perturb-abg-conclusion" combines two parts: the L-frame
    certificate of {h_j} (`frames._pencil_kframe`) with upper bound the
    explicit constant upper_const = ||B|| (1 + (alpha + beta +
    gamma/sigma_min(A))/(1 - beta)) and a lower bound from the pencil of
    (L L*, U_H U_H*); and the lower constant g_sound, with sigma_min(A)
    replacing ||A||, decided exactly as
    g_sound^2 <= `pencil_lower_bound(K, U_H)` (the L-frame's pencil when
    L is K), whose `worst_margin` is the pencil value minus g_sound^2.
    Its witness holds the constants, the hypothesis status and, as
    "hypothesis_<field>", each field of HYPOTHESIS_MARGINS that the
    hypothesis witness holds.

    Both constants and the precondition max(alpha + gamma/sigma_min(A),
    beta) < 1 divide by sigma_min(A), since the lower bound of {f_j} gives
    ||K* f|| <= ||U_F* f|| / sigma_min(A) and no better: (1 - beta)
    ||U_H* f|| <= (1 + alpha) ||U_F* f|| + gamma ||K* f|| <= (1 + alpha +
    gamma/sigma_min(A)) ||B|| ||f||.
    """
    if min(alpha, beta, gamma) < 0:
        raise InputError("alpha, beta, gamma must be nonnegative")
    d_op = difference_synthesis(f_seq, h_seq)
    _require_hypotheses(f_seq, k_op, l_op, a, b, tol)
    # A is central now, so sigma_min(A) is its least block scalar
    sigma_min = float(np.abs(a.central_scalars()).min())
    gamma_f = 0.0 if gamma == 0 else gamma / sigma_min if sigma_min > 0 else math.inf
    if max(alpha + gamma_f, beta) >= 1.0:
        raise InputError("constants must satisfy max(alpha + gamma/sigma_min(A), beta) < 1")

    hypothesis = _abg_hypothesis(
        d_op, [(alpha, f_seq.synthesis_op), (beta, h_seq.synthesis_op), (gamma, k_op)], tol
    )
    if hypothesis.status == FALSIFIED:
        hypothesis.witness.update(alpha=alpha, beta=beta, gamma=gamma, hypothesis=FALSIFIED)
        return hypothesis

    b_norm = b.norm()
    upper_const = b_norm * (1.0 + (alpha + beta + gamma_f) / (1.0 - beta))
    nu = pencil_lower_bound(l_op, h_seq.synthesis_op, tol)
    frame_cert = _pencil_kframe(h_seq, l_op, nu, b.spec.central([upper_const] * b.spec.n_blocks),
                                tol, "perturb-abg-lframe", {"pencil_value": nu})

    g_sound = sigma_min * (1.0 - (alpha + gamma_f)) / (1.0 + beta)
    # ||U_H* f|| >= g ||K* f|| for all f iff g^2 K K* <= U_H U_H* (the
    # rank-one reduction of `douglas._majorization`), iff g^2 is at most
    # the pencil value, nu's own when L is K
    pencil_k = nu if l_op is k_op else pencil_lower_bound(k_op, h_seq.synthesis_op, tol)
    worst_margin = 0.0
    lower = CERTIFIED
    if g_sound > 0:
        lower = verdict(g_sound**2 - pencil_k, tol, max(1.0, g_sound**2))
        if math.isfinite(pencil_k):
            worst_margin = pencil_k - g_sound**2
    lower_cert = Certificate(
        lower, "perturb-abg-lower",
        {"g_sound": g_sound, "worst_margin": worst_margin, "pencil_lower_K": pencil_k}, tol,
    )
    constants = {
        "alpha": alpha,
        "beta": beta,
        "gamma": gamma,
        "norm_B": b_norm,
        "sigma_min_A": sigma_min,
        "upper_const": upper_const,
        "g_sound": g_sound,
        "hypothesis": hypothesis.status,
        **{
            f"hypothesis_{k}": hypothesis.witness[k]
            for k in HYPOTHESIS_MARGINS
            if k in hypothesis.witness
        },
    }
    return combine("perturb-abg-conclusion", [frame_cert, lower_cert], extra=constants)
