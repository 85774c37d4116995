"""Executable Douglas-theorem toolkit.

For adjointable T and S with a common target module, the classical
equivalences are: range inclusion R(T) <= R(S); a pencil inequality
mu T T* <= S S* for some mu > 0; a norm inequality lambda ||T* f||^2 <=
||S* f||^2; and a factorization T = S Q.  All four are decidable here
because the flattened matrices are finite; Q is realized as the
minimal-norm solution S^+ T.  Nothing here samples: the norm inequality
reduces to rank-one vectors, so it is the pencil inequality decided by an
eigen route (`_majorization`), and its failure is witnessed by a singular
vector of (I - S S^+) T.

Each operator S is factored at most once in its lifetime: one
`_kernels.douglas_svd` per reduced block and one rank decision at
DEFAULT_RTOL times the largest singular value over all blocks
(`_Factorization`), built on first use by `_factorization` and kept on S
like its norm, so no later call on S takes an SVD of S.  Its singular
values are kept too: for a synthesis operator U they are sigma_max(U),
read as a Bessel bound and squared as `frames.optimal_scalar_bounds`'
mu* = ||U U*||, and the eigenvalues |c|^2 - sigma(U_b)^2 of a central
upper frame bound's gap (`frames._certify_upper`).  S's arrays are
read-only, so the kept factorization cannot go stale.

Range inclusion at tol is decided in one place, `_inclusion`: the range
residual ||(I - S S^+) T|| = max_b ||perp_b^H T_b||, exactly 0 where the
rank cut makes S_b onto, holds at <= tol max(1, ||T||) by
`certify.residual_verdict` (a `sigma_max` only where a Frobenius norm does
not certify, and ||T|| only for a residual above tol).  T is S is
included exactly, with S unfactored, as when a perturbation audit asks
whether R(K) lies in R(K).  The pencil, condition (i) of
`equivalence_audit`, the perturbation hypotheses and
`frames.atomic_coefficients` read that verdict.  The pencil is 0 where it
fails, else 1 / ||S^+ T||^2, where ||S^+ T|| = max_b ||left_b T_b|| (also
||Q||) is one values-only `eigvalsh` per block (`_kernels.gram_norm`) and
no SVD of Q; it is math.inf for T = 0, read off T's entries before S is
factored, and 1 for T is S.  The per-block norms are kept on S's
factorization for the last T asked about (`_Factorization.block_norms`),
so the pencil, ||Q||, the Douglas audit's solve and `frames`' decision of
an exactly central lower bound pay one Gram `eigvalsh` per block between
them on one (S, T).  The factorization residual ||S Q - T|| of
`_Factorization.solve` is a value that only condition (iv) decides.
`cokernel_witness` adds a `thin_svd` per block, which `equivalence_audit`
takes only when the pencil fails; the norm inequality is one
`psd_certificate`.  The public entry points are `pseudo_inverse`,
`pencil_lower_bound` and `equivalence_audit`.
"""

from __future__ import annotations

import math
import weakref
from typing import Optional

import numpy as np

from . import _kernels
from .algebra import DEFAULT_TOL
from .certify import (
    CERTIFIED, Certificate, FALSIFIED, INCONCLUSIVE, pencil_verdict, psd_certificate,
    residual_verdict, verdict, verdict_at_norm,
)
from .errors import InputError
from .hilbmod import ModuleOperator, ModuleVector, _operator

DEFAULT_RTOL = 1e-10


def _check_common_target(t: ModuleOperator, s: ModuleOperator) -> None:
    if t.spec != s.spec or t.out_rank != s.out_rank:
        raise InputError("operators must share algebra spec and output rank")


class _Factorization:
    """What the Douglas functions read of S, from one `douglas_svd`
    U_b diag(sigma_b) V_b^H per reduced block, U_b square, with singular
    values <= DEFAULT_RTOL * sigma_max (the global largest) treated as
    zero.  With k_b the number kept, it holds, per block:

    - `sigmas`: sigma_b, descending, min(rows, cols) of them, kept for
      S's lifetime, so sigma_max(S) = `smax` and the eigenvalues of
      S_b S_b^H (sigma_b^2, padded with zeros up to the rows) cost no
      further kernel call;
    - S^+ (`pinv`), V_k diag(1 / sigma_k) U_k^H, formed on first use;
    - `lefts`: diag(1 / sigma_k) U_k^H, so that ||left_b T_b|| =
      ||S_b^+ T_b|| (V_k has orthonormal columns); None when k_b = 0;
    - `perps`: perp_b^H, with perp_b = U_b[:, k_b:] an orthonormal basis
      of the complement of R(S_b), so that I - S S^+ = perp perp^H; None
      when k_b is the number of rows, where S_b is onto;
    - the norms ||left_b T_b|| of the last T asked about (`block_norms`).

    S^+ is the thin-SVD formula on U_b's first min(rows, cols) columns.
    For a large tall block (seen at 200 x 20, not up to 72 x 24) LAPACK's
    full U differs from its thin U in the last bits, so S^+ rounds there
    as another SVD of S_b would.  Only S^+ reads V_b, so the SVD factors
    are kept until S^+ is formed, and dropped then; the pencil, the range
    residual and the cokernel witness never form it.  `s` is a twin of S
    over the same read-only arrays, not S itself, and T is held weakly, so
    the factorization kept on S holds no reference back to S or to an
    operator whose factorization may hold S, and S with everything kept on
    it is freed by reference counting."""

    def __init__(self, s: ModuleOperator):
        self.s = _operator(s.spec, s.in_rank, s.out_rank, s.block_matrices())
        svds = [_kernels.douglas_svd(m) for m in s.block_matrices()]
        self.smax = max((sig[0] if sig.size else 0.0) for _, sig, _ in svds)
        self.cut = DEFAULT_RTOL * self.smax
        self.sigmas = [sig for _, sig, _ in svds]
        self.lefts: list[Optional[np.ndarray]] = []
        self.perps: list[Optional[np.ndarray]] = []
        self._factors: Optional[list] = []
        self._pinv: Optional[ModuleOperator] = None
        self._kept: Optional[tuple[weakref.ref, list[Optional[float]]]] = None
        for u, sig, vh in svds:
            k = int((sig > self.cut).sum())
            uh = u.conj().T
            self.lefts.append(uh[:k] / sig[:k, None] if k else None)
            self.perps.append(uh[k:] if k < len(uh) else None)
            self._factors.append((uh, sig, vh))

    @property
    def pinv(self) -> ModuleOperator:
        """S^+, formed on first use from the kept SVD factors, which are
        then dropped."""
        if self._pinv is None:
            pinvs = []
            for uh, sig, vh in self._factors:
                if self.smax == 0.0:
                    pinvs.append(np.zeros((vh.shape[1], uh.shape[1]), dtype=complex))
                else:
                    inv = np.where(sig > self.cut, 1.0 / np.where(sig > 0, sig, 1.0), 0.0)
                    pinvs.append((vh.conj().T * inv) @ uh[: sig.size])
            # S^+, inverted per reduced block in place, hence A-linear
            self._pinv = _operator(self.s.spec, self.s.out_rank, self.s.in_rank, pinvs)
            self._factors = None
        return self._pinv

    def cokernel_witness(
        self, t: ModuleOperator, tol: float
    ) -> tuple[Optional[ModuleVector], Optional[tuple[float, float]]]:
        """A top left singular vector f of (I - S S^+) T = perp (perp^H T),
        a direction in the cokernel of S that T* sees, with (||S* f||,
        ||T* f||); None for both when that operator is 0.  f is returned
        only where it witnesses R(T) not inside R(S): `verdict` certifies
        ||S* f|| at scale max(1, ||S||) and not ||T* f|| at max(1, ||T||)."""
        mats = [np.zeros_like(m) if ph is None else ph.conj().T @ (ph @ m)
                for ph, m in zip(self.perps, t.block_matrices())]
        f = _operator(t.spec, t.in_rank, t.out_rank, mats).adjoint_norm_witness()
        if f is None:
            return None, None
        s_norm, t_norm = self.s.adjoint().apply(f).norm(), t.adjoint().apply(f).norm()
        found = (verdict(s_norm, tol, max(1.0, self.smax)) == CERTIFIED
                 and verdict_at_norm(t_norm, tol, t) != CERTIFIED)
        return (f if found else None), (s_norm, t_norm)

    def range_residual(self, t: ModuleOperator, tol: float) -> tuple[str, float]:
        """`certify.residual_verdict` of (I - S S^+) T at scale max(1, ||T||),
        read on perp_b^H T_b: 0, certified, where S_b is onto."""
        mats = [ph @ m for ph, m in zip(self.perps, t.block_matrices()) if ph is not None]
        return residual_verdict(mats, tol, t)

    def block_norms(self, t: ModuleOperator) -> list[Optional[float]]:
        """||X_b|| = ||S_b^+ T_b|| per block, X_b = left_b T_b, None where
        k_b = 0: `_kernels.gram_norm`, one values-only `eigvalsh` and no SVD.
        They are kept for the last T asked about, matched by identity and
        held weakly, so a second call on the same T reads them (T's arrays
        are read-only, so the bits are the same) and the factorization
        keeps no T alive."""
        if self._kept is not None and self._kept[0]() is t:
            return self._kept[1]
        norms = [None if f is None else _kernels.gram_norm(f @ m)
                 for f, m in zip(self.lefts, t.block_matrices())]
        self._kept = (weakref.ref(t), norms)
        return norms

    def onto_norms(self, t: ModuleOperator) -> Optional[list[float]]:
        """`block_norms` of T where every S_b is onto at its kept rank cut
        (k_b is the number of rows, so left_b is square and T_b = S_b S_b^+
        T_b exactly); None, with no norm taken, where some S_b is not."""
        if any(f is None or f.shape[0] != f.shape[1] for f in self.lefts):
            return None
        return self.block_norms(t)

    def whitened_norm(self, t: ModuleOperator) -> float:
        """||S^+ T|| = max_b ||X_b|| (`block_norms`), which is 1 / sqrt(mu)
        for the pencil value mu when R(T) is inside R(S)."""
        return max((x for x in self.block_norms(t) if x is not None), default=0.0)

    def pencil(self, t: ModuleOperator, included: bool, qnorm: Optional[float] = None) -> float:
        """`pencil_lower_bound` given `_inclusion`'s verdict on T and, if
        already known, ||S^+ T||: 0 where R(T) is not inside R(S), math.inf
        for T = 0, where ||S^+ T|| is 0."""
        if not included:
            return 0.0
        lam = (self.whitened_norm(t) if qnorm is None else qnorm) ** 2
        return math.inf if lam == 0.0 else 1.0 / lam

    def solve(self, t: ModuleOperator, tol: float) -> tuple[ModuleOperator, float]:
        """Q = S^+ T, with ||S^+ T|| kept as its norm, and the value
        `certify.residual_verdict` reports for S Q - T; no pencil."""
        q = self.pinv.compose(t)
        q._norm = self.whitened_norm(t)
        return q, residual_verdict((self.s.compose(q) - t).block_matrices(), tol, t)[1]


def _factorization(s: ModuleOperator) -> _Factorization:
    """S's factorization, built on first use and kept on S for its lifetime."""
    if s._fac is None:
        s._fac = _Factorization(s)
    return s._fac


def pseudo_inverse(t: ModuleOperator) -> ModuleOperator:
    """Moore-Penrose pseudo-inverse as a module operator.

    Computed per reduced block with singular values <= DEFAULT_RTOL *
    sigma_max (the global largest singular value) treated as zero.  The
    result is automatically A-linear because each reduced block is
    inverted in place.  It is computed once per operator and kept, so
    every call on the same t returns the same operator.
    """
    return _factorization(t).pinv


def _inclusion(t: ModuleOperator, s: ModuleOperator, tol: float) -> tuple[bool, float]:
    """R(T) inside R(S) at tol, and the range residual deciding it: the one
    place that decides it.  t is s is included exactly, S unfactored."""
    _check_common_target(t, s)
    if t is s:
        return True, 0.0
    status, residual = _factorization(s).range_residual(t, tol)
    return status == CERTIFIED, residual


def pencil_lower_bound(
    t: ModuleOperator, s: ModuleOperator, tol: float = DEFAULT_TOL
) -> float:
    """sup{mu >= 0 : mu T T* <= S S*}.

    Returns 0 where `_inclusion` finds R(T) not inside R(S) at tol,
    math.inf for T = 0.  Otherwise it is 1 / ||S^+ T||^2 (Douglas: the
    minimal solution Q of T = S Q has ||Q||^2 = 1 / mu), with ||S^+ T|| =
    max_b ||diag(1 / sigma_k) U_k^H T_b|| read off S's kept SVD.  T = 0 is
    recognised from its entries, and t is s gives the exact 1.0
    (mu T T* <= T T* iff mu <= 1 for T != 0), so in neither case is S
    factored.
    """
    _check_common_target(t, s)
    if not any(m.any() for m in t.block_matrices()):
        return math.inf
    if t is s:
        return 1.0
    return _factorization(s).pencil(t, _inclusion(t, s, tol)[0])


def _majorization(
    t: ModuleOperator, s: ModuleOperator, mu: float, tol: float, size: float
) -> Certificate:
    """The norm inequality mu ||T* f||^2 <= ||S* f||^2 for all f, decided
    as psd_certificate(S S* - mu T T*).

    In block b a module vector is an (n d_b) x d_b matrix F.  With v a top
    right singular vector of T_b^H F, x = F v has ||T* x|| = ||T* F|| and
    ||S* x|| <= ||S* F||, so the inequality holds for all f iff it holds
    for rank-one f, that is iff mu T T* <= S S* on the flattening.  A
    negative eigenvector of the gap is a violating f.

    The gap cancels to about zero for equivalent pairs (T = S U, U
    unitary) while its rounding stays near eps max(||S||^2, mu ||T||^2),
    so the tolerance scales with size = max(||S||^2, mu ||T||^2), the
    relative test the norm inequality asks for."""
    gap = s.compose(s.adjoint()) - t.compose(t.adjoint()).scalar_mul(mu)
    return psd_certificate(gap, tol, "douglas-norm-inequality", scale=max(1.0, size))


def equivalence_audit(
    t: ModuleOperator,
    s: ModuleOperator,
    tol: float = DEFAULT_TOL,
    *,
    seed: Optional[int] = None,
) -> Certificate:
    """Evaluate the four equivalent conditions independently and certify
    that they agree.

    (i) range inclusion, `_inclusion`'s verdict, (ii) pencil positivity,
    the pencil read off that verdict, (iii) the norm inequality
    lambda ||T* f||^2 <= ||S* f||^2 at lambda equal to the pencil value,
    decided exactly by the eigen route of `_majorization` (independent of
    the whitened Gram behind (ii)), (iv) factorization residual of
    S (S^+ T) = T, which holds at <= tol max(1, ||T||), the bound (i)
    uses.  When (ii) fails, (iii) instead looks for a direction f in the
    cokernel of S that T* sees, at the top left singular vector of
    (I - S S^+) T = perp (perp^H T): it fails when ||S* f|| <=
    tol max(1, ||S||) and ||T* f||, the range residual up to rounding,
    does not hold at (i)'s bound.  A pencil value that `pencil_verdict`
    calls inconclusive, one that exists but lies below what tol resolves,
    or an inconclusive (iii) gives an inconclusive certificate.  So do
    conditions that disagree with no witness vector, from (iii)'s gap or
    its cokernel direction: only a witness falsifies.

    `seed` is ignored: nothing is sampled.
    """
    cond_i, residual = _inclusion(t, s, tol)
    fac = _factorization(s)
    q, fact_residual = fac.solve(t, tol)
    cond_iv = verdict_at_norm(fact_residual, tol, t) == CERTIFIED

    mu = fac.pencil(t, cond_i, q.norm())
    pencil_status = pencil_verdict(mu, tol)
    near_boundary = pencil_status == INCONCLUSIVE
    cond_ii = pencil_status == CERTIFIED

    found: dict = {}
    witness_vec = None
    if math.isinf(mu):
        cond_iii = True
    elif cond_ii:
        norm_cert = _majorization(t, s, mu, tol, max(fac.smax**2, mu * t.norm() ** 2))
        found["cond_iii_min_eig"] = norm_cert.witness["min_eig"]
        found["cond_iii_scale"] = norm_cert.witness["scale"]
        near_boundary = near_boundary or norm_cert.status == INCONCLUSIVE
        cond_iii = norm_cert.status != FALSIFIED
        witness_vec = norm_cert.witness_vector
    else:
        witness_vec, norms = fac.cokernel_witness(t, tol)
        if norms:
            found["cond_iii_s_adj_norm"], found["cond_iii_t_adj_norm"] = norms
        cond_iii = witness_vec is None

    verdicts = [cond_i, cond_ii, cond_iii, cond_iv]
    witness = {
        "range_residual": residual,
        "pencil_mu": mu if math.isfinite(mu) else float("inf"),
        "factorization_residual": fact_residual,
        "q_norm": q.norm(),
        "cond_i": cond_i,
        "cond_ii": cond_ii,
        "cond_iii": cond_iii,
        "cond_iv": cond_iv,
        **found,
    }
    if near_boundary:
        status = INCONCLUSIVE
    elif all(verdicts) or not any(verdicts):
        status = CERTIFIED
    else:
        # conditions that disagree falsify the claim only with a witness vector
        status = FALSIFIED if witness_vec is not None else INCONCLUSIVE
    return Certificate(
        status, "douglas-equivalence", witness, tol,
        witness_vector=witness_vec if status == FALSIFIED else None,
    )
