"""The free Hilbert module A^n over a block direct-sum C*-algebra.

Vectors are n-tuples of algebra elements with the algebra-valued inner
product <f, g> = sum_k f_k (g_k)*, linear over the algebra in the first
argument.  Adjointable operators are matrices of algebra elements acting
by right multiplication, (Tf)_i = sum_j f_j t[j][i]; this is exactly the
form every A-linear map between free modules takes.

All positivity and norm decisions are made in a faithful complex
representation ("flattening"): A^n viewed as a complex space of dimension
n * sum(d_i^2) with inner product (f, g) = trace<f, g>.  The flattened
matrix of an operator is permutation-similar to a direct sum over blocks
of d_b copies of a reduced block matrix, so all spectral quantities are
computed per block without assembling the big matrix.

These per-block arrays are the only representation.  An operator
A^n -> A^m holds per block b its reduced (m*d_b) x (n*d_b) matrix M_b,
with (i, j) sub-block t[j][i]_b^T; a rank-n vector holds per block an
(n*d_b) x d_b array F_b whose k-th slab of d_b rows is (f_k)_b^T.  Then
Tf is M_b F_b, <f, g> is F_b^T conj(G_b) and T* is M_b^H, one matrix
product per block.  Callers build vectors and operators from these
arrays, which the constructors copy and check; library code wraps the
arrays it computes with `_vector` and `_operator`, unchecked.  The
arrays are read-only, as are an algebra element's blocks, so an
operator computes its norm once and keeps it; `douglas` keeps the
operator's factorization in its `_fac` slot the same way, and sets the
norm of a Douglas solution Q from it.

Each spectral query is one `_kernels` call per reduced block: `norm` a
`sigma_max`; `herm_block_eigs` an `eigvalsh` of the Hermitian part,
except for a block whose eigenvalues the caller passes;
`negative_witness` one `eigh`, of the block with the least eigenvalue;
`adjoint_norm_witness` a `thin_svd`.  When a
decision takes them is stated in `certify` and `douglas`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .algebra import DEFAULT_TOL, AlgebraSpec, AlgElement, _readonly
from .errors import InputError, PreconditionError


class ModuleVector:
    """Element (f_1, ..., f_n) of A^n, stored as `stacks`: per block b an
    (n*d_b) x d_b array whose slab k is (f_k)_b^T.  The constructor copies
    and checks a caller's stacks; library code wraps the stacks it
    computes with `_vector`."""

    __slots__ = ("spec", "rank", "stacks")

    def __init__(self, spec: AlgebraSpec, stacks: Sequence[np.ndarray]):
        first = np.shape(stacks[0]) if len(stacks) else ()
        self.spec = spec
        self.rank = first[0] // spec.block_dims[0] if first else 0
        self.stacks = _checked_copies(spec, self.rank, 1, stacks)

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        self._check_compatible(other)
        return _vector(self.spec, [a + b for a, b in zip(self.stacks, other.stacks)])

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        self._check_compatible(other)
        return _vector(self.spec, [a - b for a, b in zip(self.stacks, other.stacks)])

    def __neg__(self) -> "ModuleVector":
        return _vector(self.spec, [-a for a in self.stacks])

    def scalar_mul(self, z: complex) -> "ModuleVector":
        return _vector(self.spec, [complex(z) * s for s in self.stacks])

    def inner(self, other: "ModuleVector") -> AlgElement:
        """A-valued inner product <f, g> = sum_k f_k (g_k)*."""
        self._check_compatible(other)
        return AlgElement(
            self.spec, [f.T @ g.conj() for f, g in zip(self.stacks, other.stacks)]
        )

    def norm(self) -> float:
        """Module norm ||<f, f>||^(1/2)."""
        return float(np.sqrt(self.inner(self).norm()))

    def _check_compatible(self, other: "ModuleVector") -> None:
        if self.spec != other.spec or self.rank != other.rank:
            raise InputError("module vectors must share spec and rank")

    def __repr__(self) -> str:
        return f"ModuleVector(rank={self.rank}, spec={self.spec.block_dims})"


class ModuleOperator:
    """Adjointable A-linear map A^n -> A^m with grid t[j][i] (input index
    first), stored as one reduced (m*d_b) x (n*d_b) matrix per block b,
    with (i, j) sub-block t[j][i]_b^T.  The constructor copies and checks
    a caller's matrices; library code wraps the matrices it computes with
    `_operator`."""

    __slots__ = ("spec", "in_rank", "out_rank", "_mats", "_norm", "_fac", "__weakref__")

    def __init__(
        self, spec: AlgebraSpec, in_rank: int, out_rank: int, mats: Sequence[np.ndarray]
    ):
        self.spec = spec
        self.in_rank = in_rank
        self.out_rank = out_rank
        self._mats = _checked_copies(spec, out_rank, in_rank, mats)
        self._norm = None
        self._fac = None

    def block_matrices(self) -> tuple[np.ndarray, ...]:
        """Reduced complex matrix per algebra block, the stored form.

        Block b gives a (out_rank*d_b) x (in_rank*d_b) matrix whose (i, j)
        sub-block is t[j][i]^T; the full flattening is d_b identical copies
        of it, so norms, spectra and pseudo-inverses are computed here.
        """
        return self._mats

    # -- algebra of operators -------------------------------------------------

    def apply(self, f: ModuleVector) -> ModuleVector:
        if f.spec != self.spec or f.rank != self.in_rank:
            raise InputError("operator/vector shape mismatch")
        return _vector(self.spec, [m @ s for m, s in zip(self._mats, f.stacks)])

    def adjoint(self) -> "ModuleOperator":
        return _operator(
            self.spec, self.out_rank, self.in_rank, [m.conj().T for m in self._mats]
        )

    def compose(self, other: "ModuleOperator") -> "ModuleOperator":
        """self after other (matrix product of the flattenings)."""
        if other.spec != self.spec or other.out_rank != self.in_rank:
            raise InputError("operator composition shape mismatch")
        mats = [sm @ om for sm, om in zip(self._mats, other._mats)]
        return _operator(self.spec, other.in_rank, self.out_rank, mats)

    def __add__(self, other: "ModuleOperator") -> "ModuleOperator":
        self._check_same_shape(other)
        mats = [a + b for a, b in zip(self._mats, other._mats)]
        return _operator(self.spec, self.in_rank, self.out_rank, mats)

    def __sub__(self, other: "ModuleOperator") -> "ModuleOperator":
        self._check_same_shape(other)
        mats = [a - b for a, b in zip(self._mats, other._mats)]
        return _operator(self.spec, self.in_rank, self.out_rank, mats)

    def scalar_mul(self, z: complex) -> "ModuleOperator":
        mats = [complex(z) * m for m in self._mats]
        return _operator(self.spec, self.in_rank, self.out_rank, mats)

    def _check_same_shape(self, other: "ModuleOperator") -> None:
        if (
            other.spec != self.spec
            or other.in_rank != self.in_rank
            or other.out_rank != self.out_rank
        ):
            raise InputError("operator shape mismatch")

    # -- spectral queries -----------------------------------------------------

    def norm(self) -> float:
        """Operator norm: largest singular value of the flattening."""
        if self._norm is None:
            self._norm = max(float(_kernels.sigma_max(m)) for m in self._mats)
        return self._norm

    def herm_block_eigs(
        self, known: Optional[Sequence[Optional[np.ndarray]]] = None
    ) -> list[np.ndarray]:
        """Ascending eigenvalues of the Hermitian part of each reduced block
        matrix, one values-only `eigvalsh` per block, except where `known`
        already holds a block's (None marks one to compute).

        For a Hermitian operator, block b's are the flattening's eigenvalues
        on that block, each with multiplicity d_b.
        """
        if self.in_rank != self.out_rank:
            raise InputError("eigenvalues need a square operator")
        if known is None:
            known = (None,) * len(self._mats)
        return [_kernels.eigvalsh(_kernels.hermitian_part(m)) if w is None else w
                for w, m in zip(known, self._mats)]

    def is_projection(self, tol: float = DEFAULT_TOL) -> bool:
        """P P = P and P* = P, by `certify.residual_verdict` at scale 1."""
        from .certify import CERTIFIED, residual_verdict

        if self.in_rank != self.out_rank:
            raise InputError("projections must be square")
        return all(residual_verdict(r.block_matrices(), tol, 1.0)[0] == CERTIFIED
                   for r in (self.compose(self) - self, self - self.adjoint()))

    def negative_witness(
        self, eigs: Optional[Sequence[np.ndarray]] = None
    ) -> tuple[float, ModuleVector]:
        """Most negative Hermitian-part eigenvalue with a module vector
        witnessing it: trace<Tf, f> equals the returned eigenvalue.

        `eigs` are the blocks' `herm_block_eigs`, computed here when not
        given.  The first block whose least eigenvalue is the minimum is
        then decomposed with vectors, by one `eigh`, and f is its least
        eigenvector as column 0 of that block.
        """
        if eigs is None:
            eigs = self.herm_block_eigs()
        b = min(range(len(eigs)), key=lambda i: eigs[i][0])
        w, v = _kernels.eigh(_kernels.hermitian_part(self._mats[b]))
        stacks = [
            np.zeros((self.in_rank * d, d), dtype=complex) for d in self.spec.block_dims
        ]
        stacks[b][:, 0] = v[:, 0]
        return float(w[0]), _vector(self.spec, stacks)

    def adjoint_norm_witness(self) -> Optional[ModuleVector]:
        """Unit module vector f of the target module with ||T* f|| = ||T||:
        a top left singular vector of the block attaining the norm, as
        column 0 of that block.  None when T = 0."""
        best = (0.0, 0, None)
        for b, m in enumerate(self._mats):
            u, sig, _ = _kernels.thin_svd(m)
            if sig[0] > best[0]:
                best = (float(sig[0]), b, u[:, 0])
        sigma, b, vec = best
        if sigma == 0.0:
            return None
        stacks = [
            np.zeros((self.out_rank * d, d), dtype=complex) for d in self.spec.block_dims
        ]
        stacks[b][:, 0] = vec
        return _vector(self.spec, stacks)

    def __repr__(self) -> str:
        return (
            f"ModuleOperator({self.in_rank}->{self.out_rank}, "
            f"spec={self.spec.block_dims})"
        )


def _checked_copies(
    spec: AlgebraSpec, rows: int, cols: int, arrays: Sequence[np.ndarray]
) -> tuple[np.ndarray, ...]:
    """Read-only copies of a caller's per-block arrays, after checking that
    block b is a finite (rows*d_b) x (cols*d_b) array."""
    if len(arrays) != spec.n_blocks:
        raise InputError("need one array per algebra block")
    if rows < 1 or cols < 1:
        raise InputError("rank-0 modules are rejected")
    arrays = [np.array(a, dtype=complex) for a in arrays]
    for b, (d, a) in enumerate(zip(spec.block_dims, arrays)):
        if a.shape != (rows * d, cols * d):
            raise InputError(f"block {b} array has wrong shape {a.shape}")
        if not np.isfinite(a).all():
            raise InputError(f"block {b} array must have finite entries")
    return _readonly(arrays)


def _vector(spec: AlgebraSpec, stacks: Sequence[np.ndarray]) -> ModuleVector:
    """Wrap per-block stacked arrays of matching shapes, taking them over."""
    f = object.__new__(ModuleVector)
    f.spec, f.rank, f.stacks = spec, len(stacks[0]) // spec.block_dims[0], _readonly(stacks)
    return f


def _columns(t: ModuleOperator) -> tuple[ModuleVector, ...]:
    """The images of the coordinate vectors under t, column block j of
    every reduced matrix for the j-th, as read-only views of them."""
    dims = t.spec.block_dims
    return tuple(
        _vector(t.spec, [m[:, j * d : (j + 1) * d] for d, m in zip(dims, t._mats)])
        for j in range(t.in_rank)
    )


def _operator(
    spec: AlgebraSpec, in_rank: int, out_rank: int, mats: Sequence[np.ndarray]
) -> ModuleOperator:
    """Wrap reduced matrices of matching shapes, taking them over."""
    t = object.__new__(ModuleOperator)
    t.spec, t.in_rank, t.out_rank, t._mats = spec, in_rank, out_rank, _readonly(mats)
    t._norm = None
    t._fac = None
    return t


def identity_operator(spec: AlgebraSpec, rank: int) -> ModuleOperator:
    mats = [np.eye(rank * d, dtype=complex) for d in spec.block_dims]
    return _operator(spec, rank, rank, mats)


def central_mult(a: AlgElement, rank: int, tol: float = DEFAULT_TOL) -> ModuleOperator:
    """Multiplication f -> a.f as an adjointable operator; needs central a.

    Left multiplication by a non-central element is not A-linear for the
    right-multiplication operator representation, so it is rejected.
    """
    if not a.is_central(tol):
        raise PreconditionError("central_mult needs a central element")
    return diagonal_operator(a, rank)


def diagonal_operator(a: AlgElement, rank: int) -> ModuleOperator:
    """The operator with a on the diagonal of its grid, f -> (f_1 a, ...,
    f_n a); for central a this is the module action f -> a.f."""
    mats = []
    for d, blk in zip(a.spec.block_dims, a.blocks):
        m = np.zeros((rank * d, rank * d), dtype=complex)
        for i in range(rank):
            m[i * d : (i + 1) * d, i * d : (i + 1) * d] = blk.T
        mats.append(m)
    return _operator(a.spec, rank, rank, mats)
