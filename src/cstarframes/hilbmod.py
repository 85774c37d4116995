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

These per-block arrays are the only stored form.  An operator A^n -> A^m
holds per block b its reduced (m*d_b) x (n*d_b) matrix M_b, with (i, j)
sub-block t[j][i]_b^T; a rank-n vector holds per block an (n*d_b) x d_b
array F_b whose k-th slab of d_b rows is (f_k)_b^T.  Then Tf is M_b F_b,
<f, g> is F_b^T conj(G_b), a.f is F_b a_b^T and T* is M_b^H, one matrix
product per block.  The arrays are read-only; `entries`, the algebra
elements, is rebuilt from them on every access, so callers bind it once.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .algebra import DEFAULT_TOL, AlgebraSpec, AlgElement
from .errors import InputError, PreconditionError


class ModuleVector:
    """Element (f_1, ..., f_n) of A^n, built from its n algebra elements
    and stored only as `stacks`: per block b an (n*d_b) x d_b array whose
    slab k is (f_k)_b^T.  `entries` rebuilds the elements on each access."""

    __slots__ = ("spec", "rank", "stacks")

    def __init__(self, spec: AlgebraSpec, entries: Sequence[AlgElement]):
        if not entries:
            raise InputError("rank-0 module vectors are rejected")
        for e in entries:
            if e.spec != spec:
                raise InputError("all vector entries must share the algebra spec")
        self.spec = spec
        self.rank = len(entries)
        self.stacks = _readonly(
            [np.vstack([e.blocks[b].T for e in entries]) for b in range(spec.n_blocks)]
        )

    @property
    def entries(self) -> tuple[AlgElement, ...]:
        """The n algebra elements, rebuilt on each access."""
        dims = self.spec.block_dims
        return tuple(
            AlgElement(self.spec, [s[k * d : (k + 1) * d].T for d, s in zip(dims, self.stacks)])
            for k in range(self.rank)
        )

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        self._check_compatible(other)
        return _vector(self.spec, [a + b for a, b in zip(self.stacks, other.stacks)])

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        self._check_compatible(other)
        return _vector(self.spec, [a - b for a, b in zip(self.stacks, other.stacks)])

    def __neg__(self) -> "ModuleVector":
        return _vector(self.spec, [-a for a in self.stacks])

    def module_mul(self, a: AlgElement) -> "ModuleVector":
        """Left module action a . f = (a f_1, ..., a f_n)."""
        if a.spec != self.spec:
            raise InputError("algebra spec mismatch in module action")
        return _vector(self.spec, [s @ blk.T for s, blk in zip(self.stacks, a.blocks)])

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

    def flat(self) -> np.ndarray:
        """Coordinates in the tracial complex representation, read from the
        entries like `ModuleOperator.flatten`."""
        return np.concatenate(
            [np.concatenate([blk.ravel() for blk in e.blocks]) for e in self.entries]
        )

    def _check_compatible(self, other: "ModuleVector") -> None:
        if self.spec != other.spec or self.rank != other.rank:
            raise InputError("module vectors must share spec and rank")

    def __repr__(self) -> str:
        return f"ModuleVector(rank={self.rank}, spec={self.spec.block_dims})"


def coordinate_vector(spec: AlgebraSpec, rank: int, slot: int) -> ModuleVector:
    """Unit coordinate vector: 1_A at the given slot, zero elsewhere."""
    if not 0 <= slot < rank:
        raise InputError(f"slot {slot} out of range for rank {rank}")
    entries = [spec.zero() for _ in range(rank)]
    entries[slot] = spec.unit()
    return ModuleVector(spec, entries)


def unflatten_vector(spec: AlgebraSpec, rank: int, x: np.ndarray) -> ModuleVector:
    """Inverse of ModuleVector.flat."""
    if rank < 1:
        raise InputError("rank-0 module vectors are rejected")
    if x.shape != (rank * spec.total_dim,):
        raise InputError(f"flat vector has wrong length {x.shape}")
    dims = spec.block_dims
    slots = np.array(x, dtype=complex).reshape(rank, spec.total_dim)
    segs = np.split(slots, np.cumsum([d * d for d in dims])[:-1], axis=1)
    return _vector(
        spec,
        [
            s.reshape(rank, d, d).transpose(0, 2, 1).reshape(rank * d, d)
            for d, s in zip(dims, segs)
        ],
    )


class ModuleOperator:
    """Adjointable A-linear map A^n -> A^m, built from its n x m grid of
    algebra elements t[j][i] (input index first) and stored only as one
    reduced (m*d_b) x (n*d_b) matrix per block b, with (i, j) sub-block
    t[j][i]_b^T.  `entries` rebuilds the grid on each access;
    `from_block_matrices` builds an operator from the matrices."""

    __slots__ = ("spec", "in_rank", "out_rank", "_mats")

    def __init__(self, spec: AlgebraSpec, entries: Sequence[Sequence[AlgElement]]):
        if not entries or not entries[0]:
            raise InputError("empty operator matrices are rejected")
        out_rank = len(entries[0])
        for row in entries:
            if len(row) != out_rank:
                raise InputError("ragged operator entry grid")
            for e in row:
                if e.spec != spec:
                    raise InputError("all operator entries must share the algebra spec")
        self.spec = spec
        self.in_rank = len(entries)
        self.out_rank = out_rank
        self._mats = _readonly(
            [
                np.block([[row[i].blocks[b].T for row in entries] for i in range(out_rank)])
                for b in range(spec.n_blocks)
            ]
        )

    # -- representations ----------------------------------------------------

    @property
    def entries(self) -> tuple[tuple[AlgElement, ...], ...]:
        """The n x m grid t[j][i], rebuilt on each access; row j is the
        image of the j-th coordinate vector."""
        dims = self.spec.block_dims
        images = (
            _vector(self.spec, [m[:, j * d : (j + 1) * d] for d, m in zip(dims, self._mats)])
            for j in range(self.in_rank)
        )
        return tuple(f.entries for f in images)

    def block_matrices(self) -> tuple[np.ndarray, ...]:
        """Reduced complex matrix per algebra block, the stored form.

        Block b gives a (out_rank*d_b) x (in_rank*d_b) matrix whose (i, j)
        sub-block is t[j][i]^T; the full flattening is d_b identical copies
        of it, so norms, spectra and pseudo-inverses are computed here.
        """
        return self._mats

    def flatten(self) -> np.ndarray:
        """Full complex matrix of f -> Tf on the tracial representation.

        Rows/columns are indexed by (slot, block, row, col) of the vector
        coordinates; the result satisfies flatten(T) @ f.flat() = (Tf).flat().
        Assembled from the entry grid, independently of the reduced matrices.
        """
        d2 = self.spec.total_dim
        out = np.zeros((self.out_rank * d2, self.in_rank * d2), dtype=complex)
        offs = np.cumsum([0] + [d * d for d in self.spec.block_dims])
        entries = self.entries
        for j in range(self.in_rank):
            for i in range(self.out_rank):
                for b, d in enumerate(self.spec.block_dims):
                    blk = entries[j][i].blocks[b]
                    sub = np.kron(np.eye(d), blk.T)
                    r0 = i * d2 + offs[b]
                    c0 = j * d2 + offs[b]
                    out[r0 : r0 + d * d, c0 : c0 + d * d] = sub
        return out

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
        return max(float(np.linalg.norm(m, ord=2)) for m in self._mats)

    def herm_eigs(self) -> np.ndarray:
        """Eigenvalues of the Hermitian part of the reduced block matrices.

        For a Hermitian operator these are the flattening's eigenvalues with
        multiplicities divided by d_b per block.
        """
        if self.in_rank != self.out_rank:
            raise InputError("eigenvalues need a square operator")
        vals = [np.linalg.eigvalsh(0.5 * (m + m.conj().T)) for m in self._mats]
        return np.concatenate(vals)

    def min_herm_eig(self) -> float:
        return float(self.herm_eigs().min())

    def is_positive(self, tol: float = DEFAULT_TOL) -> bool:
        """Positivity as an adjointable operator, decided in the flattening.

        Equivalent to <Tf, f> >= 0 in A for all f because the tracial
        representation is a faithful *-homomorphism.
        """
        if self.in_rank != self.out_rank:
            raise InputError("positivity needs a square operator")
        scale = max(1.0, self.norm())
        if (self - self.adjoint()).norm() > tol * scale:
            return False
        return self.min_herm_eig() >= -tol * scale

    def is_projection(self, tol: float = DEFAULT_TOL) -> bool:
        if self.in_rank != self.out_rank:
            raise InputError("projections must be square")
        idem = (self.compose(self) - self).norm()
        herm = (self - self.adjoint()).norm()
        return idem <= tol and herm <= tol

    def inverse(self) -> "ModuleOperator":
        """Two-sided inverse for square invertible operators."""
        if self.in_rank != self.out_rank:
            raise InputError("inverse needs a square operator")
        try:
            mats = [np.linalg.inv(m) for m in self._mats]
        except np.linalg.LinAlgError as exc:
            raise PreconditionError(f"operator is not invertible: {exc}") from exc
        return _operator(self.spec, self.in_rank, self.out_rank, mats)

    def negative_witness(self) -> tuple[float, ModuleVector]:
        """Most negative Hermitian-part eigenvalue with a module vector
        witnessing it: trace<Tf, f> equals the returned eigenvalue."""
        best = None
        for b, m in enumerate(self._mats):
            w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
            if best is None or w[0] < best[0]:
                best = (float(w[0]), b, v[:, 0])
        lam, b, vec = best
        stacks = [
            np.zeros((self.in_rank * d, d), dtype=complex) for d in self.spec.block_dims
        ]
        stacks[b][:, 0] = vec
        return lam, _vector(self.spec, stacks)

    def __repr__(self) -> str:
        return (
            f"ModuleOperator({self.in_rank}->{self.out_rank}, "
            f"spec={self.spec.block_dims})"
        )


def _readonly(arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return tuple(arrays)


def _vector(spec: AlgebraSpec, stacks: Sequence[np.ndarray]) -> ModuleVector:
    """Wrap per-block stacked arrays of matching shapes, taking them over."""
    f = object.__new__(ModuleVector)
    f.spec, f.rank, f.stacks = spec, len(stacks[0]) // spec.block_dims[0], _readonly(stacks)
    return f


def _operator(
    spec: AlgebraSpec, in_rank: int, out_rank: int, mats: Sequence[np.ndarray]
) -> ModuleOperator:
    """Wrap reduced matrices of matching shapes, taking them over."""
    t = object.__new__(ModuleOperator)
    t.spec, t.in_rank, t.out_rank, t._mats = spec, in_rank, out_rank, _readonly(mats)
    return t


def from_block_matrices(
    spec: AlgebraSpec, in_rank: int, out_rank: int, mats: Sequence[np.ndarray]
) -> ModuleOperator:
    """Operator storing copies of the given reduced per-block matrices,
    after checking their shapes."""
    if in_rank < 1 or out_rank < 1:
        raise InputError("empty operator matrices are rejected")
    if len(mats) != spec.n_blocks:
        raise InputError("need one reduced matrix per algebra block")
    mats = [np.array(m, dtype=complex) for m in mats]
    for b, (d, m) in enumerate(zip(spec.block_dims, mats)):
        if m.shape != (out_rank * d, in_rank * d):
            raise InputError(f"reduced matrix {b} has wrong shape {m.shape}")
    return _operator(spec, in_rank, out_rank, mats)


def identity_operator(spec: AlgebraSpec, rank: int) -> ModuleOperator:
    mats = [np.eye(rank * d, dtype=complex) for d in spec.block_dims]
    return from_block_matrices(spec, rank, rank, mats)


def zero_operator(spec: AlgebraSpec, in_rank: int, out_rank: int) -> ModuleOperator:
    mats = [np.zeros((out_rank * d, in_rank * d), dtype=complex) for d in spec.block_dims]
    return from_block_matrices(spec, in_rank, out_rank, mats)


def central_mult(a: AlgElement, rank: int, tol: float = DEFAULT_TOL) -> ModuleOperator:
    """Multiplication f -> a.f as an adjointable operator; needs central a.

    Left multiplication by a non-central element is not A-linear for the
    right-multiplication operator representation, so it is rejected.
    """
    if not a.is_central(tol):
        raise PreconditionError("central_mult needs a central element")
    mats = []
    for d, blk in zip(a.spec.block_dims, a.blocks):
        m = np.zeros((rank * d, rank * d), dtype=complex)
        for i in range(rank):
            m[i * d : (i + 1) * d, i * d : (i + 1) * d] = blk.T
        mats.append(m)
    return from_block_matrices(a.spec, rank, rank, mats)
