"""Frame sequences on A^n: Bessel and K-frame certification, atomic
systems, dual atoms, local atoms, and frame transforms.

A frame sequence {f_j} is stored as its synthesis U: A^J -> A^n, sending
coefficients {g_j} to sum g_j f_j, with analysis U* f = {<f, f_j>} and
frame operator S = U U*.  Every derived family is one operator product on
U: the image {L f_j} has synthesis L U, the dual atoms Q*(e_j) have Q*,
and a tensor product family has U_f tensor U_h.  The two-sided frame
inequality with bounds A, B in A,

    A <K*f, K*f> A*  <=  sum_j <f, f_j><f_j, f>  <=  B <f, f> B*,

is decided exactly, one algebra block at a time.  Where a bound's block
is scalar, multiplication by it is adjointable and the inequality is an
operator inequality on the flattening.  Where it is not, the inequality
holds only if S (upper) or K K* (lower) vanishes on that block; see
`certify_star_bessel` and `certify_kframe` for the proof.  Both cases are
one gap operator handed to `psd_certificate`, formed per block by `_gap`
from the bound's block alone, with no kernel call on the bound and no
operator for it; where the block is exactly c 1 the lower gap is
S_k - T_k T_k^H with T_k = conj(c) K_k, and the upper gap's eigenvalues
are |c|^2 - sigma(U_k)^2, read off U's kept singular values, so that
gap is formed only to witness a violation.  Where every lower block is
exactly c 1 on an onto U_k, the lower inequality holds iff
|c|^2 ||U_k^+ K_k||^2 <= 1 (Douglas), read off the norms U's kept
factorization holds for K's pencil (`_scalar_lower_eigs`), so the lower
gap is formed only where that test fails on a block, or lands within
rounding of the boundary.  A violation on a non-scalar block comes with
a constructed rank-one witness.

Whether {f_j} is a K-frame is read off the pencil value lambda of
(K K*, U U*) (Douglas's majorization theorem), 0 exactly where
`douglas._inclusion` finds R(K) not inside R(U), as the atomic systems
do.  `_pencil_certificate` alone makes lambda = 0 falsified or
inconclusive, `_pencil_bound` alone gives its lower bound, and
`_pencil_kframe` every command's K-frame verdict, none certified at 0.

No check here samples.  Bounds that hold by construction are recorded,
not re-checked: C = ||Q|| 1 for the atomic coefficients and the dual
atoms.  The local-atom reconstruction on range(P) is the norm of
(I - U G*) P.  Every check decides at the caller's tol through
`certify.verdict`, a residual through `certify.residual_verdict`.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import _kernels
from .algebra import DEFAULT_TOL, AlgebraSpec, AlgElement
from .certify import (
    CERTIFIED, Certificate, FALSIFIED, INCONCLUSIVE, combine, pencil_verdict, psd_certificate,
    residual_verdict, verdict, worst,
)
from .douglas import _factorization, _inclusion, pencil_lower_bound
from .errors import AtomicSystemError, InputError, PreconditionError
from .hilbmod import (
    ModuleOperator,
    ModuleVector,
    _columns,
    _operator,
    _vector,
    diagonal_operator,
    identity_operator,
)

# Relative inset of bounds derived from optimal scalar values
# (`derived_bounds`) and of a Bessel bound taken from a norm.
BOUND_INSET = 1e-9
# Least size of a derived upper bound, so that it stays strictly nonzero.
BOUND_FLOOR = 1e-8


class FrameSeq:
    """Finite sequence {f_j} of module vectors, stored only as its
    synthesis operator U: A^J -> A^n (column block j is f_j), with U* and
    the frame operator U U* computed once.  `len` is the member count J;
    `members` rebuilds the vectors on each access, as read-only views of
    U.  Library code builds a family from its synthesis operator with
    `_family`."""

    __slots__ = ("synthesis_op", "analysis_op", "frame_op")

    def __init__(self, members: Sequence[ModuleVector]):
        if not members:
            raise InputError("a frame sequence needs at least one member")
        spec, rank = members[0].spec, members[0].rank
        if any(m.spec != spec or m.rank != rank for m in members):
            raise InputError("all frame members must share spec and rank")
        stacked = [np.hstack(s) for s in zip(*(m.stacks for m in members))]
        _adopt(self, ModuleOperator(spec, len(members), rank, stacked))

    @property
    def spec(self) -> AlgebraSpec:
        return self.synthesis_op.spec

    @property
    def rank(self) -> int:
        return self.synthesis_op.out_rank

    @property
    def n_members(self) -> int:
        return self.synthesis_op.in_rank

    def __len__(self) -> int:
        return self.synthesis_op.in_rank

    @property
    def members(self) -> tuple[ModuleVector, ...]:
        """The J members f_j = U e_j, rebuilt on each access."""
        return _columns(self.synthesis_op)

    def analysis(self, f: ModuleVector) -> ModuleVector:
        """Coefficient vector {<f, f_j>} in A^J."""
        return self.analysis_op.apply(f)

    def coefficient_gram(self, f: ModuleVector) -> AlgElement:
        """sum_j <f, f_j><f_j, f>, the A-valued middle of the frame inequality."""
        c = self.analysis(f)
        return c.inner(c)

    def __repr__(self) -> str:
        return (
            f"FrameSeq(J={self.n_members}, rank={self.rank}, "
            f"spec={self.spec.block_dims})"
        )


def _adopt(frame: FrameSeq, u: ModuleOperator) -> FrameSeq:
    """Give frame the synthesis operator u, with its analysis and frame
    operators; U U* >= 0 by construction."""
    frame.synthesis_op = u
    frame.analysis_op = u.adjoint()
    frame.frame_op = u.compose(frame.analysis_op)
    return frame


def _family(u: ModuleOperator) -> FrameSeq:
    """The family whose synthesis operator is u: A^J -> A^n, taking u over."""
    return _adopt(object.__new__(FrameSeq), u)


def coordinate_frame(spec: AlgebraSpec, rank: int) -> FrameSeq:
    """The standard coordinate frame of A^n (J = n, S = identity)."""
    return _family(identity_operator(spec, rank))


def _require_strictly_nonzero(x: AlgElement, name: str, tol: float) -> None:
    if not x.is_strictly_nonzero(tol):
        raise InputError(f"bound {name} must be strictly nonzero")


def certify_star_bessel(
    frame: FrameSeq, b: AlgElement, tol: float = DEFAULT_TOL
) -> Certificate:
    """Certify the upper frame inequality sum_j <f,f_j><f_j,f> <= B<f,f>B*.

    Decided per algebra block k.  Let F be the block-k stack of f (slab i
    is (f_i)_k^T) and S_k the reduced frame operator.  For xi in C^{d_k},

        xi* B<f,f>B* xi = ||F conj(B_k* xi)||^2,
        xi* (sum_j <f,f_j><f_j,f>) xi = (F conj(xi))^H S_k (F conj(xi)).

    Scalar B_k = beta 1 (within tol, `AlgElement.scalar_blocks`): the gap
    is the form of |beta|^2 1 - S_k, the central operator check, formed
    per block as I_n (x) (B_k^T conj(B_k)) - S_k by `_gap`, with no kernel
    call on B and no operator M_B.  Where B_k is exactly beta 1 its
    eigenvalues are |beta|^2 - sigma(U_k)^2, padded with |beta|^2 where
    U_k has fewer columns than rows: they are read off U's kept Douglas
    factorization (built on first use), and the gap block is formed only
    for a falsified verdict's eigenvector.
    Non-scalar B_k: take xi with B_k* xi not parallel to xi and w with
    w^H conj(xi) = 1, w^H conj(B_k* xi) = 0.  Then F = g w^H gives the gap
    xi*(B<f,f>B* - sum)xi = -g^H S_k g, which is -lambda_max(S_k) for a
    top eigenvector g.  So the inequality fails unless S_k = 0, and it
    holds when S_k = 0 since the middle term vanishes on the block.  The
    gap operator is |beta|^2 1 - S_k on scalar blocks and -S_k on others.
    """
    _require_strictly_nonzero(b, "B", tol)
    return _certify_upper(frame, b, tol, "star-bessel")


def certify_kframe(
    frame: FrameSeq,
    k_op: ModuleOperator,
    a: AlgElement,
    b: AlgElement,
    tol: float = DEFAULT_TOL,
) -> Certificate:
    """Certify the two-sided K-frame inequality with bounds A, B.

    The upper inequality is decided as in `certify_star_bessel`, from U's
    kept singular values where B is exactly central.  The lower one is
    certified by the pencil where on every block A_k is exactly alpha 1 on
    an onto U_k and |alpha|^2 ||U_k^+ K_k||^2 < 1 clears rounding
    (`_scalar_lower_eigs`), with no gap formed.  Otherwise, per algebra
    block k with F, S_k as there and K_k the reduced matrix of K, it uses

        xi* A<K*f, K*f>A* xi = ||K_k^H F conj(A_k* xi)||^2.

    Scalar A_k = alpha 1: the gap is the form of S_k - |alpha|^2 K_k K_k^H,
    the central check of U U* - T T* with T = K M_{A*}, formed per block
    as S_k - T_k T_k^H with T_k = conj(alpha) K_k where A_k is exactly
    alpha 1 (`_gap`).  Non-scalar A_k:
    take xi with A_k* xi not parallel to xi and w with w^H conj(xi) = 0,
    w^H conj(A_k* xi) = 1.  Then F = h w^H has F conj(xi) = 0, so the gap
    is -||K_k^H h||^2, which is -||K_k||^2 for a top left singular vector
    h.  So the inequality fails unless K_k = 0, and it holds when K_k = 0
    since the left side vanishes on the block.  The gap operator is the
    central one on scalar blocks and -K_k K_k^H on the others.
    """
    _require_strictly_nonzero(a, "A", tol)
    _require_strictly_nonzero(b, "B", tol)
    n = frame.rank
    if k_op.spec != frame.spec or k_op.in_rank != n or k_op.out_rank != n:
        raise InputError("K must be a square operator on the frame's module")
    lower = _decide(frame, a, k_op, lambda: _gap(a, frame.frame_op, tol, k_op), tol,
                    "star-kframe-lower", _scalar_lower_eigs(frame, k_op, a))
    return combine("star-kframe", [lower, _certify_upper(frame, b, tol, "star-kframe-upper")])


def _scalar_lower_eigs(
    frame: FrameSeq, k_op: ModuleOperator, a: AlgElement
) -> Optional[list[np.ndarray]]:
    """The lower gap's blocks decided by the pencil, for `psd_certificate`'s
    `eigs`, where it decides every block; else None, and every block takes
    the gap, since a block given by bounds would move the scale the others
    are decided at.  Where A_b is exactly c 1 and U_b is onto at its kept
    rank cut, U_b = W Sigma V^H with W square, so K_b = W Sigma X_b
    exactly for X_b = Sigma^-1 W^H K_b, and the gap S_b - |c|^2 K_b K_b^H
    is W Sigma (I - |c|^2 X_b X_b^H) Sigma W^H: its least eigenvalue is at
    least low_b = sigma_min(U_b)^2 (1 - |c|^2 ||X_b||^2), and its largest
    at most sigma_max(U_b)^2 (the gap is at most S_b), the pair given for
    the block.  ||X_b|| is U's kept factorization's `onto_norms` of K,
    kept there for the pencil of (K K*, U U*).  The pencil decides block b
    only where low_b exceeds `_pencil_slack` sigma_max(U_b)^2, so the gap
    route certifies the block too, at any tol >= 0."""
    scalars = a.exact_scalars()
    if any(c is None for c in scalars):
        return None
    fac = _factorization(frame.synthesis_op)
    norms = fac.onto_norms(k_op)
    if norms is None:
        return None
    eigs = []
    for c, x, sig, d in zip(scalars, norms, fac.sigmas, a.spec.block_dims):
        top = sig[0] * sig[0]
        low = sig[-1] * sig[-1] * (1.0 - (c.real**2 + c.imag**2) * x * x)
        if not low > _pencil_slack(frame.rank * d, frame.n_members * d) * top:
            return None
        eigs.append(np.array([low, top]))
    return eigs


def _pencil_slack(rows: int, cols: int) -> float:
    """rows (rows + cols + 8) eps, relative to sigma_max(U_b)^2 for a rows x
    cols block U_b: a bound on the rounding of the lower gap formed and
    eigensolved, gamma_cols || |U_b| ||^2 + gamma_rows || |c| |K_b| ||^2
    (Higham, ch. 3) with || |M| ||^2 <= rows ||M||^2 and |c|^2 ||K_b||^2 <=
    sigma_max^2 where |c|^2 ||X_b||^2 <= 1, plus eigvalsh's backward error
    of a few u.  It also bounds sigma_min(U_b)^2 times the relative
    rounding of |c|^2 ||X_b||^2: gamma_rows rows from X_b's Gram (see
    `_kernels.gram_norm`), and a few u sigma_max / sigma_min from X_b
    itself, the SVD's backward error through Sigma^-1."""
    return rows * (rows + cols + 8) * np.finfo(float).eps


def _certify_upper(frame: FrameSeq, b: AlgElement, tol: float, claim: str) -> Certificate:
    """The upper inequality: where B_b is exactly c 1, the gap block's
    eigenvalues are `_scalar_upper_eigs` of U's kept singular values (U is
    factored here on first use, so they never depend on what was cached);
    the `_gap` is formed only for another block's `eigvalsh` or for the
    `eigh` of a falsified verdict's witness."""
    n, sigmas = frame.rank, _factorization(frame.synthesis_op).sigmas
    eigs = [
        None if c is None else _scalar_upper_eigs(c, sig, n * d)
        for c, sig, d in zip(b.exact_scalars(), sigmas, b.spec.block_dims)
    ]
    return _decide(frame, b, None, lambda: _gap(b, frame.frame_op, tol), tol, claim, eigs)


def _scalar_upper_eigs(c: complex, sig: np.ndarray, rows: int) -> np.ndarray:
    """Ascending eigenvalues of |c|^2 I - U_b U_b^H from the descending
    singular values sig of U_b: |c|^2 - sig^2, then |c|^2 up to rows."""
    abs2 = c.real**2 + c.imag**2
    w = abs2 - sig * sig
    return w if sig.size == rows else np.concatenate((w, np.full(rows - sig.size, abs2)))


def _gap(
    bound: AlgElement,
    s_op: ModuleOperator,
    tol: float,
    k_op: Optional[ModuleOperator] = None,
) -> ModuleOperator:
    """The gap operator of the upper inequality with bound B (k_op None)
    or of the lower one with bound A and K, formed per block b from the
    bound's block and the reduced matrices S_b (and K_b):

    - block scalar within tol (`AlgElement.scalar_blocks`):
      I_n (x) (B_b^T conj(B_b)) - S_b, or S_b - T_b T_b^H with T_b the
      block of T = K M_{A*}: conj(c) K_b where A_b is exactly c 1
      (`AlgElement.exact_scalars`), else K_b (I_n (x) conj(A_b));
    - any other block: -S_b, or -K_b K_b^H.

    T_b is conj(c) K_b elementwise, not |c|^2 K_b K_b^H, so the gap is bit
    for bit the block of U U* - T T* for a real c."""
    n = s_op.in_rank
    k_mats = (None,) * bound.spec.n_blocks if k_op is None else k_op.block_matrices()
    mats = []
    for c, scalar, blk, s, k in zip(
        bound.exact_scalars(), bound.scalar_blocks(tol), bound.blocks,
        s_op.block_matrices(), k_mats,
    ):
        if not scalar:
            m = -s if k is None else -(k @ k.conj().T)
        elif k is None:
            m = _repeat_diagonal(blk.T @ blk.conj(), n) - s
        else:
            t = c.conjugate() * k if c is not None else k @ _repeat_diagonal(blk.conj(), n)
            m = s - t @ t.conj().T
        mats.append(m)
    return _operator(bound.spec, n, n, mats)


def _repeat_diagonal(m: np.ndarray, n: int) -> np.ndarray:
    """I_n (x) m, the grid with m on its n diagonal blocks, formed by one
    broadcast product (the entries of `np.kron`, without its overhead)."""
    d = len(m)
    return (np.eye(n)[:, None, :, None] * m[None, :, None, :]).reshape(n * d, n * d)


def _decide(
    frame: FrameSeq,
    bound: AlgElement,
    k_op: Optional[ModuleOperator],
    gap: Union[ModuleOperator, Callable[[], ModuleOperator]],
    tol: float,
    claim: str,
    eigs: Optional[list[Optional[np.ndarray]]] = None,
) -> Certificate:
    """Decide the upper inequality (k_op None) or the lower one with K
    from its `_gap`, or the function forming it, and the blocks'
    eigenvalues already known (`eigs`), as `psd_certificate` takes them.
    A violation on a non-scalar block gets the rank-one witness f = g w^H
    of `certify_star_bessel` and `certify_kframe`, with g the eigenvector
    psd_certificate found.  It is reported falsified only if
    psd_certificate falsifies the algebra-valued gap at f, as an operator
    on A^1, else inconclusive: for a bound block eps from scalar, ||w||
    grows like 1/eps and the gap like 1/eps^2, so roundoff swamps the
    violation.
    """
    cert = psd_certificate(gap, tol, claim, eigs=eigs)
    if cert.status != FALSIFIED:
        return cert
    stacks = cert.witness_vector.stacks
    k = next(i for i, st in enumerate(stacks) if st.any())
    if bound.scalar_blocks(tol)[k]:
        return cert
    c = bound.blocks[k].conj().T
    xi = _moving_direction(c)
    x, y = xi.conj(), (c @ xi).conj()
    if k_op is not None:
        x, y = y, x
    x_perp = x - y * (np.vdot(y, x) / np.vdot(y, y))
    w = x_perp / np.vdot(x_perp, x_perp).real  # w^H x = 1, w^H y = 0
    f_stacks = [np.zeros_like(st) for st in stacks]
    f_stacks[k] = np.outer(stacks[k][:, 0], w.conj())
    f = _vector(bound.spec, f_stacks)
    mid = frame.coefficient_gram(f)
    if k_op is None:
        at_f = bound * f.inner(f) * bound.adjoint() - mid
    else:
        kf = k_op.adjoint().apply(f)
        at_f = mid - bound * kf.inner(kf) * bound.adjoint()
    # on A^1 the reduced matrix of at_f is at_f's block transposed: same eigenvalues
    at_cert = psd_certificate(diagonal_operator(at_f, 1), tol, claim)
    witness = dict(cert.witness, block=k, witness_gap_min_eig=at_cert.witness["min_eig"],
                   witness_gap_scale=at_cert.witness["scale"])
    if at_cert.status == FALSIFIED:
        return Certificate(FALSIFIED, claim, witness, cert.tol, witness_vector=f)
    return Certificate(INCONCLUSIVE, claim, witness, cert.tol)


def _moving_direction(c: np.ndarray) -> np.ndarray:
    """Unit xi with c xi not parallel to xi, for a non-scalar square c:
    e_j at the largest off-diagonal entry c[i, j], or (e_p + e_q)/sqrt(2)
    at the largest gap |c[p, p] - c[q, q]|, whichever c moves further off
    the line of xi."""
    eye, diag = np.eye(len(c)), np.diag(c)
    j = np.argmax(np.abs(c - np.diag(diag)).max(axis=0))
    p, q = divmod(int(np.argmax(np.abs(diag[:, None] - diag))), len(c))
    pair = (eye[p] + eye[q]) / np.linalg.norm(eye[p] + eye[q])
    return max((eye[j], pair), key=lambda xi: np.linalg.norm(c @ xi - xi * np.vdot(xi, c @ xi)))


def optimal_scalar_bounds(
    frame: FrameSeq, k_op: Optional[ModuleOperator] = None, tol: float = DEFAULT_TOL
) -> tuple[float, float]:
    """Best scalar constants (lambda*, mu*) with
    lambda* K K* <= U U* and U U* <= mu* I.

    lambda* is the whitened-pencil extremal value restricted to the range
    of K K*; it is 0 exactly when the family is not a K-frame with any
    scalar lower bound, that is when R(K) is not inside R(U) at tol.
    mu* = ||U U*|| = sigma_max(U)^2 is read off U's kept factorization,
    which the pencil builds, so U U* is neither formed nor normed.
    """
    if k_op is None:
        k_op = identity_operator(frame.spec, frame.rank)
    lam = pencil_lower_bound(k_op, frame.synthesis_op, tol)
    return lam, float(_factorization(frame.synthesis_op).smax) ** 2


def derived_bounds(
    frame: FrameSeq, lam: float, mu: float, margin: float = BOUND_INSET
) -> tuple[AlgElement, AlgElement]:
    """Central bounds from optimal scalar values (lam, mu): `_pencil_bound`
    and sqrt(mu) (1 + margin) 1, floored at BOUND_FLOOR (raising B is sound)."""
    spec = frame.spec
    up = max(math.sqrt(mu) * (1.0 + margin), BOUND_FLOOR)
    return _pencil_bound(spec, lam, margin), spec.central([up] * spec.n_blocks)


def _pencil_bound(spec: AlgebraSpec, lam: float, margin: float = BOUND_INSET) -> AlgElement:
    """The central lower bound sqrt(lam (1 - margin)) 1 from the pencil
    value lam of (K K*, U U*), never above sqrt(lam); 1 where lam is
    infinite (K = 0)."""
    low = math.sqrt(max(lam, 0.0) * (1.0 - margin)) if math.isfinite(lam) else 1.0
    return spec.central([low] * spec.n_blocks)


def _pencil_certificate(
    frame: FrameSeq, k_op: ModuleOperator, lam: float, tol: float, claim: str, witness: dict
) -> Certificate:
    """`pencil_verdict` of the pencil value lam of (K K*, U U*) under claim.
    lam = 0, R(K) not inside R(U) at tol, is falsified with the cokernel
    witness f of U's kept factorization (U* f vanishes at tol, K* f does
    not) and both norms where there is one, else inconclusive."""
    status, f = pencil_verdict(lam, tol), None
    if status == FALSIFIED:
        f, norms = _factorization(frame.synthesis_op).cokernel_witness(k_op, tol)
        if norms:
            witness = dict(witness, witness_u_adj_norm=norms[0], witness_k_adj_norm=norms[1])
        status = FALSIFIED if f is not None else INCONCLUSIVE
    return Certificate(status, claim, witness, tol, witness_vector=f)


def _pencil_kframe(frame: FrameSeq, k_op: ModuleOperator, lam: float, b: AlgElement,
                   tol: float, claim: str, witness: dict,
                   a: Optional[AlgElement] = None) -> Certificate:
    """The K-frame verdict of {f_j}, with pencil value lam of (K K*, U U*)
    and upper bound b.  With a lower bound a, `certify_kframe`'s, unless it
    certifies where lam = 0 (R(K) is not inside R(U) at tol); without, the
    lower bound is `_pencil_bound` of lam where `_pencil_certificate`
    certifies lam.  Otherwise `_pencil_certificate`'s, under claim."""
    if a is not None:
        cert = certify_kframe(frame, k_op, a, b, tol)
        if not cert.ok or lam != 0.0:
            return cert
    gate = _pencil_certificate(frame, k_op, lam, tol, claim, witness)
    if a is not None or not gate.ok:
        return gate
    return certify_kframe(frame, k_op, _pencil_bound(frame.spec, lam), b, tol)


def atomic_coefficients(
    frame: FrameSeq,
    k_op: ModuleOperator,
    tol: float = DEFAULT_TOL,
    *,
    seed: Optional[int] = None,
) -> tuple[ModuleOperator, AlgElement, float]:
    """Coefficient operator of the atomic decomposition K f = sum a_j f_j.

    Q is the minimal-norm Douglas solution U Q = K (so a_f = Q f), read
    from U's kept factorization with no pencil, and C = ||Q|| 1_A
    witnesses the coefficient bound <a_f, a_f> <= C<f,f>C*: C is central,
    so the bound is Q*Q <= ||Q||^2 I, which always holds.  ||Q|| =
    ||U^+ K|| is U's kept factorization's whitened norm of K, with no SVD
    of Q.  Raises AtomicSystemError exactly where `douglas._inclusion`
    does not find R(K) inside R(U) at tol, before Q is formed; the
    factorization residual ||U Q - K|| it returns is a value, not decided.
    `seed` is ignored; nothing is sampled.
    """
    n = frame.rank
    if k_op.spec != frame.spec or k_op.in_rank != n or k_op.out_rank != n:
        raise InputError("K must be a square operator on the frame's module")
    included, residual = _inclusion(k_op, frame.synthesis_op, tol)
    if not included:
        raise AtomicSystemError(
            "not an atomic system: range-inclusion residual "
            f"{residual:.3e} exceeds tol {tol:g} x max(1, ||K||)"
        )
    q, residual = _factorization(frame.synthesis_op).solve(k_op, tol)
    return q, frame.spec.central([q.norm()] * frame.spec.n_blocks), residual


def dual_atoms(frame: FrameSeq, k_op: ModuleOperator, tol: float = DEFAULT_TOL) -> FrameSeq:
    """Bessel family {h_j} with K f = sum_j <f, h_j> f_j.

    h_j = Q*(e_j) for the atomic coefficient operator Q, using the
    self-duality of A^J: the coefficient functional f -> (Qf)_j is the
    pairing with h_j, so the family's synthesis operator is Q*.  Raises
    AtomicSystemError, a PreconditionError, where `atomic_coefficients`
    does: R(K) is not inside R(U) at tol.
    """
    q, _, _ = atomic_coefficients(frame, k_op, tol)
    return _family(q.adjoint())


def dual_atoms_audit(
    frame: FrameSeq, k_op: ModuleOperator, tol: float = DEFAULT_TOL
) -> Certificate:
    """Certificate version of the dual-atom reconstruction and Bessel bound.

    Certified exactly where `atomic_coefficients` finds R(K) inside R(U),
    where the exact Q = U^+ K has U Q = K: the atoms' synthesis is H = Q*,
    and the residual of K - U H* = K - U Q is recorded, not decided.  The
    Bessel bound ||Q|| 1 holds by construction, as Q*Q <= ||Q||^2 I:
    certified, Q* unfactored.  Elsewhere the pencil value is 0, and the
    certificate is `_pencil_certificate`'s at 0."""
    try:
        _, c, residual = atomic_coefficients(frame, k_op, tol)
    except AtomicSystemError as exc:  # R(K) is not inside R(U): the pencil value is 0
        return _pencil_certificate(frame, k_op, 0.0, tol, "dual-atoms", {"error": str(exc)})
    witness = {"max_reconstruction_residual": residual, "factorization_residual": residual,
               "q_norm": c.norm(), "bessel_status": CERTIFIED}
    return Certificate(CERTIFIED, "dual-atoms", witness, tol)


def local_atoms_check(
    frame: FrameSeq,
    p_op: ModuleOperator,
    g_frame: FrameSeq,
    c: AlgElement,
    tol: float = DEFAULT_TOL,
) -> Certificate:
    """Check that {f_j} with the family {g_j} of coefficient representers
    forms a family of local atoms for the submodule range(P).

    (i) The coefficient bound sum_j c_j(f) c_j(f)* <= C <f,f> C* with
    c_j(f) = <f, g_j>, for all f in range(P), is decided exactly as in
    `certify_star_bessel` with the frame operator S_g of {g_j} compressed
    to range(P): the gap is P(|gamma|^2 1 - S_g)P on blocks where
    C = gamma 1 is scalar and -P S_g P on the others, that is the upper
    gap of S_g from `_gap`, per block P_b(.)P_b.  An eigenvector of a
    compressed gap with negative eigenvalue lies in range(P), and so does
    the rank-one witness built from it.  `coefficient_gap_min` is the
    least eigenvalue of that gap restricted to range(P).  (ii) The
    reconstruction f = sum c_j(f) f_j holds on range(P) iff
    (I - U G*) P = 0, U and G the syntheses of {f_j} and {g_j}; its norm,
    the largest relative residual over range(P), falsifies where
    `certify.residual_verdict` (scale 1) does, with a top right singular
    vector as the witness.  It does not gate certification otherwise:
    its rounding grows with the condition number of S_g.  Additionally
    certifies that {P f_j} has scalar lower frame bound 1/||C|| on
    range(P) through the restricted pencil of its frame operator.
    """
    n = frame.rank
    if p_op.in_rank != n or p_op.out_rank != n or p_op.spec != frame.spec:
        raise InputError("P must be a square operator on the frame's module")
    if not p_op.is_projection(max(tol, DEFAULT_TOL)):
        raise InputError("P is not a projection")
    _require_strictly_nonzero(c, "C", tol)
    if g_frame.n_members != frame.n_members:
        raise InputError("need one coefficient representer per frame member")
    if p_op.norm() <= tol:
        return Certificate(
            CERTIFIED,
            "local-atoms",
            {"degenerate": True, "note": "zero submodule"},
            tol,
        )
    upper = _gap(c, g_frame.frame_op, tol).block_matrices()
    gap = _operator(frame.spec, n, n, [p @ g @ p for p, g in zip(p_op.block_matrices(), upper)])
    coeff = _decide(g_frame, c, None, gap, tol, "local-atoms-coefficient-bound")
    if coeff.status == FALSIFIED:
        return Certificate(
            FALSIFIED,
            "local-atoms",
            dict(coeff.witness, failed="coefficient-bound"),
            tol,
            witness_vector=coeff.witness_vector,
        )
    recon_gap = p_op - frame.synthesis_op.compose(g_frame.analysis_op).compose(p_op)
    recon_status, worst_recon = residual_verdict(recon_gap.block_matrices(), tol, 1.0)
    if recon_status == FALSIFIED:
        return Certificate(
            FALSIFIED,
            "local-atoms",
            {"failed": "reconstruction", "relative_residual": worst_recon},
            tol,
            witness_vector=recon_gap.adjoint().adjoint_norm_witness(),
        )
    # restricted lower frame bound of {P f_j} on range(P)
    pf = transform_frame(frame, p_op)
    floor = 1.0 / (c.norm() ** 2)
    bases = []
    for pb in p_op.block_matrices():
        w, v = _kernels.eigh(_kernels.hermitian_part(pb))
        bases.append(v[:, w > 0.5])
    restricted_min = _restricted_min_eig(bases, pf.frame_op)
    witness = {
        "max_reconstruction_residual": worst_recon,
        "coefficient_gap_min": _restricted_min_eig(bases, gap),
        "coefficient_bound": coeff.status,
        "restricted_min_eig": restricted_min,
        "scalar_floor": floor,
    }
    scale = max(1.0, pf.frame_op.norm(), floor)
    status = worst(verdict(floor - restricted_min, tol, scale), coeff.status)
    return Certificate(status, "local-atoms", witness, tol)


def _restricted_min_eig(bases: Sequence[np.ndarray], op: ModuleOperator) -> float:
    """Least eigenvalue of the Hermitian part of op restricted to the
    subspaces spanned by the orthonormal columns of bases, one per block;
    inf when every basis is empty."""
    least = math.inf
    for basis, m in zip(bases, op.block_matrices()):
        if basis.shape[1]:
            rest = basis.conj().T @ _kernels.hermitian_part(m) @ basis
            least = min(least, float(_kernels.eigvalsh(rest).min()))
    return least


def transform_frame(frame: FrameSeq, l_op: ModuleOperator) -> FrameSeq:
    """The image family {L f_j}, whose synthesis operator is L U."""
    if l_op.spec != frame.spec or l_op.in_rank != frame.rank:
        raise InputError("operator/frame shape mismatch")
    return _family(l_op.compose(frame.synthesis_op))


def conjugation_audit(
    frame: FrameSeq, k_op: ModuleOperator, tol: float = DEFAULT_TOL
) -> Certificate:
    """Compare the directly assembled frame operator of {K f_j} against the
    two conjugation candidates K S K* and K* S K; records which matches.
    S_{Kf} = K S K* is decided relative to max(1, ||S_{Kf}||)."""
    moved = transform_frame(frame, k_op)
    s_direct = moved.frame_op
    s_op = frame.frame_op
    scale = max(1.0, s_direct.norm())
    res_ksk = (s_direct - k_op.compose(s_op).compose(k_op.adjoint())).norm() / scale
    res_adj = (s_direct - k_op.adjoint().compose(s_op).compose(k_op)).norm() / scale
    matched = "KSK*" if res_ksk <= res_adj else "K*SK"
    return Certificate(
        verdict(res_ksk, tol, 1.0),
        "frame-operator-conjugation",
        {"residual_KSK*": res_ksk, "residual_K*SK": res_adj, "matched": matched},
        tol,
    )


def coisometry_invariance_audit(
    frame: FrameSeq,
    t_op: ModuleOperator,
    k_op: ModuleOperator,
    tol: float = DEFAULT_TOL,
) -> Certificate:
    """For a co-isometry T commuting with K, the optimal scalar bounds of
    {T f_j} agree with those of {f_j}, relative to max(1, bound).  T and
    K are checked at DEFAULT_TOL, whatever tol is."""
    n = frame.rank
    if not _is_coisometry(t_op, n):
        raise PreconditionError("T is not a co-isometry")
    comm = (k_op.compose(t_op) - t_op.compose(k_op)).block_matrices()
    if residual_verdict(comm, DEFAULT_TOL, max(1.0, k_op.norm() * t_op.norm()))[0] != CERTIFIED:
        raise PreconditionError("K and T do not commute")
    lam0, mu0 = optimal_scalar_bounds(frame, k_op, tol)
    lam1, mu1 = optimal_scalar_bounds(transform_frame(frame, t_op), k_op, tol)
    dev = max(abs(lam0 - lam1) / max(1.0, abs(lam0)), abs(mu0 - mu1) / max(1.0, mu0))
    return Certificate(
        verdict(dev, tol, 1.0),
        "coisometry-bound-invariance",
        {"lambda": lam0, "lambda_moved": lam1, "mu": mu0, "mu_moved": mu1,
         "max_relative_deviation": dev},
        tol,
    )


def _is_coisometry(t_op: ModuleOperator, rank: int) -> bool:
    """T T* = I on A^rank by `certify.residual_verdict` at DEFAULT_TOL, scale 1."""
    gap = t_op.compose(t_op.adjoint()) - identity_operator(t_op.spec, rank)
    return residual_verdict(gap.block_matrices(), DEFAULT_TOL, 1.0)[0] == CERTIFIED
