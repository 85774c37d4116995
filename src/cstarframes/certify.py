"""Certificates for operator inequalities and theorem audits.

A certificate records the outcome of one claim check: certified,
falsified (with an explicit witness vector when the claim is an
inequality), or inconclusive for near-boundary cases.

Every verdict of the library is `verdict(excess, tol, scale)` at the
caller's tol, scale = max(1, size of the quantity the rounding follows).
Where that size is an operator norm ||T|| that nothing else reads,
`verdict_at_norm` takes it only for an excess above tol.
A residual decided at tol is `residual_verdict`'s, an algebra element's
distance from a scalar block too: a Frobenius bound decides where it
certifies, and a `_kernels.sigma_max` per block only elsewhere; the
Douglas pencil takes no SVD (`_kernels.gram_norm`).  Every operator
inequality ends in `psd_certificate`, that rule on the gap's least
eigenvalue: one values-only `eigvalsh` per block of the gap, unless its
eigenvalues or a pencil decide the block (a central upper frame bound's
are |c|^2 - sigma(U_b)^2, read off U's kept singular values; a central
lower bound c 1 on onto U_b holds where |c|^2 ||U_b^+ K_b||^2 <= 1, and
where that holds on every block beyond rounding its gap is given by
bounds on its extreme eigenvalues, sigma_min(U_b)^2 (1 - |c|^2
||U_b^+ K_b||^2) and sigma_max(U_b)^2), and one block's `eigh` only when
it falsifies.  A gap whose caller passes its scale, the Douglas norm
inequality, is first tried by one shifted Cholesky per block
(`_cholesky_lower_bound`): where every block factors within a third of
tol * scale it certifies with no eigensolve, else every block takes the
eigen route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import _kernels
from .algebra import AlgElement
from .hilbmod import ModuleOperator, ModuleVector

CERTIFIED = "certified"
FALSIFIED = "falsified"
INCONCLUSIVE = "inconclusive"

# Margin separating a clear violation from roundoff at the boundary.
BOUNDARY_FACTOR = 10.0

_SEVERITY = (CERTIFIED, INCONCLUSIVE, FALSIFIED)

_EPS = float(np.finfo(float).eps)
_ETA = float(np.nextafter(0.0, 1.0))


def verdict(excess: float, tol: float, scale: float) -> str:
    """The one tolerance rule for a claim excess <= 0 computed with
    rounding of size scale: certified at excess <= tol * scale, falsified
    above BOUNDARY_FACTOR * tol * scale, inconclusive in between."""
    if excess <= tol * scale:
        return CERTIFIED
    return FALSIFIED if excess > BOUNDARY_FACTOR * tol * scale else INCONCLUSIVE


def verdict_at_norm(excess: float, tol: float, t: Union[ModuleOperator, AlgElement]) -> str:
    """`verdict` at scale max(1, ||t||), taking ||t|| only for an excess
    above tol: at or below a tol >= 0 it certifies at every scale >= 1."""
    if 0.0 <= tol and excess <= tol:
        return CERTIFIED
    return verdict(excess, tol, max(1.0, t.norm()))


def residual_verdict(blocks: Sequence[np.ndarray], tol: float,
                     scale: Union[float, ModuleOperator, AlgElement]) -> tuple[str, float]:
    """`verdict`, or `verdict_at_norm` for an operator or element scale, on
    the norm of the residual with these blocks, and the value it reports:
    the bound max_b ||R_b||_F >= ||R|| where that certifies, else ||R||
    itself."""
    decide = verdict_at_norm if isinstance(scale, (ModuleOperator, AlgElement)) else verdict
    frob = max((float(np.linalg.norm(m)) for m in blocks), default=0.0)
    if decide(frob, tol, scale) == CERTIFIED:
        return CERTIFIED, frob
    norm = max((float(_kernels.sigma_max(m)) for m in blocks), default=0.0)
    return decide(norm, tol, scale), norm


def pencil_verdict(mu: float, tol: float) -> str:
    """Whether a pencil value mu >= 0 (math.inf when T = 0) is positive:
    0 fails, a value in (0, BOUNDARY_FACTOR tol] is inconclusive, and a
    larger one holds, that is, where `verdict` falsifies mu <= 0."""
    if mu == 0.0:
        return FALSIFIED
    return CERTIFIED if verdict(mu, tol, 1.0) == FALSIFIED else INCONCLUSIVE


def worst(*statuses: str) -> str:
    """The status of an all-of claim: falsified dominates, then
    inconclusive."""
    return max(statuses, key=_SEVERITY.index, default=CERTIFIED)


@dataclass
class Certificate:
    status: str
    claim: str
    witness: dict
    tol: float
    witness_vector: Optional[ModuleVector] = None

    @property
    def ok(self) -> bool:
        return self.status == CERTIFIED

    def require(self, context: str = "") -> "Certificate":
        from .errors import PreconditionError

        if not self.ok:
            raise PreconditionError(
                f"{context or self.claim}: expected certified, got {self.status}"
            )
        return self


def psd_certificate(
    gap: Union[ModuleOperator, Callable[[], ModuleOperator]],
    tol: float,
    claim: str,
    scale: Optional[float] = None,
    eigs: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> Certificate:
    """Certify that a Hermitian gap operator is positive semidefinite.

    `verdict` on the excess -(min eigenvalue): certified when it is
    <= tol * scale, falsified, with an eigenvector witness mapped back to
    a module vector, when it is > BOUNDARY_FACTOR * tol * scale, and
    inconclusive in between (near-boundary exemption).

    The gap is Hermitian by construction, so its anti-Hermitian part is
    rounding only and is not measured: `frames` forms U U* - T T* and
    M_B M_B* - U U*, for local atoms compressed by a checked projection P,
    and at a rank-one witness the algebra-valued gap on A^1; `douglas`
    forms S S* - mu T T*; `perturb` sum_i c_i^2 M_i M_i* / w_i - D D*.
    One values-only `eigvalsh` per block of the Hermitian part
    (`herm_block_eigs`) gives the eigenvalues.  scale defaults to
    max(1, max |eigenvalue|) = max(1, ||gap||); a caller whose gap is a
    difference of larger terms passes their size, since rounding follows
    them.  Such a gap is first decided by `_cholesky_lower_bound` at
    tol * scale: where it proves every block, the certificate is certified
    with that proved bound as min_eig and no block is eigensolved; where a
    block's allowance exceeds a third of tol * scale (at tol = 0 every
    one does) or its factorization breaks down, every block takes the
    eigen route, bit for bit as without the proof.  A caller that knows
    some blocks' ascending eigenvalues exactly passes them as `eigs`, None
    for a block still to be eigensolved; they are decided by the same
    rule.  A block shown positive semidefinite otherwise may be given as a
    lower bound > 0 on its least eigenvalue and an upper bound on its
    largest (`frames._scalar_lower_eigs`): it certifies at any tol >= 0,
    and is reported and scaled by those bounds.  Such a caller may pass,
    as `gap`, the function that forms the gap operator: it is called at
    most once, only for a block still to be eigensolved or a falsified
    certificate.  Only a falsified certificate takes eigenvectors: one
    `eigh` of the block attaining the minimum, through `negative_witness`.
    """
    if eigs is None or any(w is None for w in eigs):
        gap = _formed(gap)
        if scale is not None and eigs is None:
            bound = _cholesky_lower_bound(gap, tol * scale)
            if bound is not None:
                return Certificate(CERTIFIED, claim, {"min_eig": bound, "scale": scale}, tol)
        eigs = gap.herm_block_eigs(eigs)
    min_eig = min(float(w[0]) for w in eigs)
    if scale is None:
        scale = max(1.0, *(max(-float(w[0]), float(w[-1])) for w in eigs))
    status = verdict(-min_eig, tol, scale)
    witness_vec = _formed(gap).negative_witness(eigs)[1] if status == FALSIFIED else None
    return Certificate(
        status, claim, {"min_eig": min_eig, "scale": scale}, tol,
        witness_vector=witness_vec,
    )


def _cholesky_lower_bound(gap: ModuleOperator, budget: float) -> Optional[float]:
    """A proved lower bound -2 max_b c_b on the least eigenvalue of the
    gap's Hermitian part, where for every block H_b of order n the
    allowance c_b = `_cholesky_shift` satisfies 3 c_b <= budget (= tol *
    scale) and `_kernels.cholesky` of H_b + c_b I completes; else None,
    and no block is eigensolved here.  Blocks are tried in turn, one
    Hermitian part held at a time, and the first that fails the gate or
    the factorization ends the proof (at tol = 0 the first block's gate).

    A completed factorization proves lambda_min(H_b) >= -2 c_b: c_b covers
    the Cholesky's backward error (`_kernels.cholesky`, at most
    gamma_{4(n+1)} tr(H_b + c_b I)) and the rounding of the shift.  What
    c_b leaves over, about 12 n u tr|H_b| with tr|H_b| >= ||H_b|| -
    2 (n - 1) c_b, bounds `eigvalsh`'s backward error of a few n u ||H_b||,
    so its least eigenvalue would be >= -3 c_b >= -budget: the eigen route
    certifies every block this one certifies."""
    allowance = 0.0
    for m in gap.block_matrices():
        h = _kernels.hermitian_part(m)
        c = _cholesky_shift(h)
        if not 3.0 * c <= budget:
            return None
        h.reshape(-1)[:: h.shape[0] + 1] += c  # the diagonal, in place
        if _kernels.cholesky(h) is None:
            return None
        allowance = max(allowance, c)
    return -2.0 * allowance


def _cholesky_shift(h: np.ndarray) -> float:
    """c = 8 (n + 2) (eps tr|h| + n eta) for a Hermitian h of order n, with
    tr|h| = sum_i |h_ii| and eta the least subnormal: Rump's allowance
    (BIT 46, 2006) with its constant raised to complex arithmetic, so a
    completed Cholesky of h + c I proves lambda_min(h) >= -2 c
    (`_cholesky_lower_bound`).  With u = eps / 2, the factorization's
    backward error (4n + 5) u tr|h| up to O(n^2 u^2) and the shift's
    rounding u (tr|h| + c) take less than a third of c; the n eta term
    covers entries that underflow, and makes c > 0, so tol = 0 never
    takes this route."""
    n = h.shape[0]
    trace = sum(map(abs, h.diagonal().real.tolist()))
    return 8.0 * (n + 2) * (_EPS * trace + n * _ETA)


def _formed(gap: Union[ModuleOperator, Callable[[], ModuleOperator]]) -> ModuleOperator:
    """The gap operator, formed now where `gap` is the function forming it."""
    return gap if isinstance(gap, ModuleOperator) else gap()


def combine(claim: str, parts: list[Certificate], extra: Optional[dict] = None) -> Certificate:
    """All-of combination of parts decided at one tol: falsified
    dominates, then inconclusive.  The witness holds `extra`, the status
    of part i under `part{i}:{claim}`, and the witness of every part, in
    order, under `parts`."""
    status = worst(*(c.status for c in parts))
    witness = dict(extra or {})
    for i, c in enumerate(parts):
        witness[f"part{i}:{c.claim}"] = c.status
    witness["parts"] = [c.witness for c in parts]
    witness_vector = next((c.witness_vector for c in parts if c.status == FALSIFIED), None)
    return Certificate(status, claim, witness, parts[-1].tol, witness_vector=witness_vector)
