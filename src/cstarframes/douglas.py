"""Executable Douglas-theorem toolkit.

For adjointable T and S with a common target module, the classical
equivalences are: range inclusion R(T) <= R(S); a pencil inequality
mu T T* <= S S* for some mu > 0; a norm inequality lambda ||T* f||^2 <=
||S* f||^2; and a factorization T = S Q.  All four are decidable here
because the flattened matrices are finite; Q is realized as the
minimal-norm solution S^+ T.

Every public call factors S once: one thin SVD per reduced block and one
rank decision at rtol times the largest singular value over all blocks
(`_Factorization`).  The pseudo-inverse, the range projection S S^+, the
whitened pencil and the solve all read that one factorization, so a call
makes exactly one SVD per algebra block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .certify import (
    BOUNDARY_FACTOR,
    CERTIFIED,
    Certificate,
    FALSIFIED,
    INCONCLUSIVE,
)
from .errors import InputError
from .hilbmod import ModuleOperator, ModuleVector, from_block_matrices, gram_norms
from .sampling import _first_violation, stream

DEFAULT_RTOL = 1e-10
INCLUSION_TOL = 1e-8


@dataclass
class DouglasReport:
    inclusion_ok: bool
    residual: float
    pencil_mu: float
    q: Optional[ModuleOperator]
    q_norm: float


def _check_common_target(t: ModuleOperator, s: ModuleOperator) -> None:
    if t.spec != s.spec or t.out_rank != s.out_rank:
        raise InputError("operators must share algebra spec and output rank")


class _Factorization:
    """Thin SVD U_b diag(sigma_b) V_b^H of each reduced block of S, with
    singular values <= rtol * sigma_max (the global largest) treated as
    zero.  The derived operators are built on first use."""

    def __init__(self, s: ModuleOperator, rtol: float):
        self.s = s
        self.svds = [np.linalg.svd(m, full_matrices=False) for m in s.block_matrices()]
        self.smax = max((sig.max() if sig.size else 0.0) for _, sig, _ in self.svds)
        self.cut = rtol * self.smax

    @cached_property
    def pinv(self) -> ModuleOperator:
        """S^+, inverted per reduced block in place, hence A-linear."""
        mats = []
        for u, sig, vh in self.svds:
            if self.smax == 0.0:
                mats.append(np.zeros((vh.shape[1], u.shape[0]), dtype=complex))
                continue
            inv = np.where(sig > self.cut, 1.0 / np.where(sig > 0, sig, 1.0), 0.0)
            mats.append((vh.conj().T * inv) @ u.conj().T)
        return from_block_matrices(self.s.spec, self.s.out_rank, self.s.in_rank, mats)

    @cached_property
    def proj(self) -> ModuleOperator:
        """S S^+, the projection onto R(S)."""
        return self.s.compose(self.pinv)

    def range_residual(self, t: ModuleOperator) -> float:
        return (t - self.proj.compose(t)).norm()

    def pencil(
        self,
        t: ModuleOperator,
        tnorm: float,
        residual: Optional[float] = None,
        incl_tol: float = INCLUSION_TOL,
    ) -> float:
        """`pencil_lower_bound` given ||T|| and, if already known, the
        range residual of T."""
        if tnorm == 0.0:
            return math.inf
        if residual is None:
            residual = self.range_residual(t)
        if residual > incl_tol * max(1.0, tnorm):
            return 0.0
        lam_max = 0.0
        for mt, (u, sig, _) in zip(t.block_matrices(), self.svds):
            keep = sig > self.cut
            if not keep.any():
                continue
            w = (u[:, keep] / sig[keep]) @ u[:, keep].conj().T
            lam = float(np.linalg.norm(w @ mt, ord=2)) ** 2
            lam_max = max(lam_max, lam)
        if lam_max == 0.0:
            return math.inf
        return 1.0 / lam_max

    def solve(self, t: ModuleOperator, tnorm: float, tol: float, mu: float) -> DouglasReport:
        """`douglas_solve` given ||T|| and the pencil value."""
        q = self.pinv.compose(t)
        residual = (self.s.compose(q) - t).norm()
        return DouglasReport(
            inclusion_ok=residual <= tol * max(1.0, tnorm),
            residual=residual,
            pencil_mu=mu,
            q=q,
            q_norm=q.norm(),
        )


def pseudo_inverse(t: ModuleOperator, rtol: float = DEFAULT_RTOL) -> ModuleOperator:
    """Moore-Penrose pseudo-inverse as a module operator.

    Computed per reduced block with singular values <= rtol * sigma_max
    (the global largest singular value) treated as zero.  The result is
    automatically A-linear because each reduced block is inverted in place.
    """
    return _Factorization(t, rtol).pinv


def range_residual(t: ModuleOperator, s: ModuleOperator, rtol: float = DEFAULT_RTOL) -> float:
    """Norm of (I - S S^+) T, zero exactly when R(T) is inside R(S)."""
    _check_common_target(t, s)
    return _Factorization(s, rtol).range_residual(t)


def range_inclusion(
    t: ModuleOperator, s: ModuleOperator, tol: float, rtol: float = DEFAULT_RTOL
) -> bool:
    return range_residual(t, s, rtol) <= tol * max(1.0, t.norm())


def pencil_lower_bound(
    t: ModuleOperator,
    s: ModuleOperator,
    rtol: float = DEFAULT_RTOL,
    incl_tol: float = INCLUSION_TOL,
) -> float:
    """sup{mu >= 0 : mu T T* <= S S*}.

    Returns 0 when range inclusion fails, math.inf for T = 0.  Otherwise
    computed by whitening: with W the pseudo-inverse square root of S S*,
    the value is 1 / lambda_max(W T T* W), evaluated per reduced block.
    """
    _check_common_target(t, s)
    tnorm = t.norm()
    if tnorm == 0.0:
        return math.inf
    return _Factorization(s, rtol).pencil(t, tnorm, incl_tol=incl_tol)


def douglas_solve(
    t: ModuleOperator, s: ModuleOperator, tol: float, rtol: float = DEFAULT_RTOL
) -> DouglasReport:
    """Minimal-norm factorization T = S Q with Q = S^+ T, plus diagnostics."""
    _check_common_target(t, s)
    fac = _Factorization(s, rtol)
    tnorm = t.norm()
    return fac.solve(t, tnorm, tol, fac.pencil(t, tnorm))


def _squared_norms(t: ModuleOperator, stacks) -> np.ndarray:
    """||T f_s||^2 per vector of a batch, squared as Python floats the way
    `ModuleVector.norm() ** 2` squares them."""
    return np.sqrt(gram_norms(t, stacks)).astype(object) ** 2


def _norm_violation(
    t_adj: ModuleOperator,
    s_adj: ModuleOperator,
    mu: float,
    tol: float,
    rng: np.random.Generator,
    samples: int,
) -> Optional[tuple[int, ModuleVector]]:
    """First sampled f with mu ||T* f||^2 > ||S* f||^2 + tol max(1, ||S* f||^2)."""

    def violated(stacks):
        rhs = _squared_norms(s_adj, stacks)
        return mu * _squared_norms(t_adj, stacks) > rhs + tol * np.maximum(1.0, rhs)

    return _first_violation(t_adj.spec, t_adj.in_rank, rng, samples, violated)


def _cokernel_violation(
    t_adj: ModuleOperator,
    s_adj: ModuleOperator,
    proj: ModuleOperator,
    tol: float,
    rng: np.random.Generator,
    samples: int,
) -> Optional[tuple[int, ModuleVector]]:
    """First sampled f = g - S S^+ g in the cokernel of S (||S* f|| <= tol)
    that T* sees (||T* f|| > BOUNDARY_FACTOR tol), with f built from the
    returned sample g as `(g - proj.apply(g))`."""

    def violated(stacks):
        f = [g - p @ g for p, g in zip(proj.block_matrices(), stacks)]
        return (np.sqrt(gram_norms(s_adj, f)) <= tol) & (
            np.sqrt(gram_norms(t_adj, f)) > BOUNDARY_FACTOR * tol
        )

    hit = _first_violation(t_adj.spec, t_adj.in_rank, rng, samples, violated)
    if hit is None:
        return None
    i, g = hit
    return i, g - proj.apply(g)


def equivalence_audit(
    t: ModuleOperator,
    s: ModuleOperator,
    tol: float = 1e-9,
    samples: int = 100,
    seed: int = 0,
) -> Certificate:
    """Evaluate the four equivalent conditions independently and certify
    that they agree.

    (i) range-inclusion residual, (ii) pencil positivity, (iii) the norm
    inequality lambda ||T* f||^2 <= ||S* f||^2 sampled at lambda equal to
    the pencil value, (iv) factorization residual of S (S^+ T) = T.  When
    (ii) fails, (iii) instead searches the sampled cokernel of S for a
    direction T* sees.
    """
    _check_common_target(t, s)
    rng = stream(seed, 0xD0)
    fac = _Factorization(s, DEFAULT_RTOL)
    tnorm = t.norm()
    tscale = max(1.0, tnorm)

    residual = fac.range_residual(t)
    cond_i = residual <= tol * tscale

    mu = fac.pencil(t, tnorm, residual)
    near_boundary = math.isfinite(mu) and tol < mu <= BOUNDARY_FACTOR * tol
    cond_ii = mu > BOUNDARY_FACTOR * tol or math.isinf(mu)

    t_adj = t.adjoint()
    s_adj = s.adjoint()
    if math.isinf(mu):
        hit = None
    elif cond_ii:
        hit = _norm_violation(t_adj, s_adj, mu, tol, rng, samples)
    else:
        hit = _cokernel_violation(t_adj, s_adj, fac.proj, tol, rng, samples)
    cond_iii = hit is None
    witness_vec = None if hit is None else hit[1]

    rep = fac.solve(t, tnorm, tol, mu)
    cond_iv = rep.residual <= tol * tscale

    verdicts = [cond_i, cond_ii, cond_iii, cond_iv]
    witness = {
        "range_residual": residual,
        "pencil_mu": mu if math.isfinite(mu) else float("inf"),
        "factorization_residual": rep.residual,
        "q_norm": rep.q_norm,
        "cond_i": cond_i,
        "cond_ii": cond_ii,
        "cond_iii": cond_iii,
        "cond_iv": cond_iv,
    }
    tolerances = {"tol": tol}
    if near_boundary:
        return Certificate(
            INCONCLUSIVE, "douglas-equivalence", witness, tolerances, samples, seed
        )
    if all(verdicts) or not any(verdicts):
        return Certificate(
            CERTIFIED, "douglas-equivalence", witness, tolerances, samples, seed
        )
    return Certificate(
        FALSIFIED,
        "douglas-equivalence",
        witness,
        tolerances,
        samples,
        seed,
        witness_vector=witness_vec,
    )
