"""Finite-dimensional C*-algebras realized as direct sums of full matrix blocks.

An algebra is specified by its block dimensions (d_1, ..., d_B) and an
element is one complex d_i x d_i matrix per block.  The involution is the
blockwise conjugate transpose and the norm is the largest singular value
over all blocks, which is the C*-norm of the direct sum.
"""

from __future__ import annotations

import numbers
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, PreconditionError

DEFAULT_TOL = 1e-9


class AlgebraSpec:
    """Block structure (d_1, ..., d_B) of the algebra ⊕_i M_{d_i}(C)."""

    __slots__ = ("block_dims",)

    def __init__(self, block_dims: Iterable[int]):
        dims = tuple(int(d) for d in block_dims)
        if not dims:
            raise InputError("algebra spec needs at least one block")
        if any(d < 1 for d in dims):
            raise InputError(f"block dimensions must be >= 1, got {dims}")
        self.block_dims = dims

    @property
    def n_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def total_dim(self) -> int:
        """Complex dimension of the algebra, sum of d_i^2."""
        return sum(d * d for d in self.block_dims)

    def element(self, blocks: Sequence[np.ndarray]) -> "AlgElement":
        return AlgElement(self, blocks)

    def unit(self) -> "AlgElement":
        return AlgElement(self, [np.eye(d, dtype=complex) for d in self.block_dims])

    def zero(self) -> "AlgElement":
        return AlgElement(self, [np.zeros((d, d), dtype=complex) for d in self.block_dims])

    def central(self, scalars: Sequence[complex]) -> "AlgElement":
        """Central element with block i equal to scalars[i] times the identity."""
        if len(scalars) != self.n_blocks:
            raise InputError(
                f"need {self.n_blocks} scalars for a central element, got {len(scalars)}"
            )
        return AlgElement(
            self,
            [s * np.eye(d, dtype=complex) for s, d in zip(scalars, self.block_dims)],
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraSpec) and self.block_dims == other.block_dims

    def __hash__(self) -> int:
        return hash(self.block_dims)

    def __repr__(self) -> str:
        return f"AlgebraSpec{self.block_dims}"


def _check_same_spec(a: "AlgElement", b: "AlgElement") -> None:
    if a.spec != b.spec:
        raise InputError(f"algebra spec mismatch: {a.spec} vs {b.spec}")


class AlgElement:
    """One element of a block direct-sum C*-algebra.

    Immutable: the block matrices are copied on construction and marked
    read-only.  All arithmetic returns new elements.
    """

    __slots__ = ("spec", "blocks")

    def __init__(self, spec: AlgebraSpec, blocks: Sequence[np.ndarray]):
        if len(blocks) != spec.n_blocks:
            raise InputError(
                f"expected {spec.n_blocks} blocks, got {len(blocks)}"
            )
        mats = []
        for d, blk in zip(spec.block_dims, blocks):
            m = np.array(blk, dtype=complex)
            if m.shape != (d, d):
                raise InputError(f"block shape {m.shape} does not match dimension {d}")
            m.flags.writeable = False
            mats.append(m)
        self.spec = spec
        self.blocks = tuple(mats)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "AlgElement") -> "AlgElement":
        _check_same_spec(self, other)
        return AlgElement(self.spec, [x + y for x, y in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        _check_same_spec(self, other)
        return AlgElement(self.spec, [x - y for x, y in zip(self.blocks, other.blocks)])

    def __neg__(self) -> "AlgElement":
        return AlgElement(self.spec, [-x for x in self.blocks])

    def __mul__(self, other):
        if isinstance(other, AlgElement):
            _check_same_spec(self, other)
            return AlgElement(
                self.spec, [x @ y for x, y in zip(self.blocks, other.blocks)]
            )
        if isinstance(other, numbers.Number):
            return AlgElement(self.spec, [complex(other) * x for x in self.blocks])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Number):
            return AlgElement(self.spec, [complex(other) * x for x in self.blocks])
        return NotImplemented

    def adjoint(self) -> "AlgElement":
        """Involution: blockwise conjugate transpose."""
        return AlgElement(self.spec, [x.conj().T for x in self.blocks])

    # -- analysis -----------------------------------------------------------

    def norm(self) -> float:
        """C*-norm: the largest singular value over all blocks."""
        return max(
            float(np.linalg.norm(b, ord=2)) if b.size else 0.0 for b in self.blocks
        )

    def spectrum(self) -> np.ndarray:
        """Union of the eigenvalue multisets of all blocks."""
        return np.concatenate([np.linalg.eigvals(b) for b in self.blocks])

    def _scale(self) -> float:
        return max(1.0, self.norm())

    def is_positive(self, tol: float = DEFAULT_TOL) -> bool:
        """Hermitian within tol and all block eigenvalues >= -tol, relatively scaled."""
        if tol < 0:
            raise InputError("tolerance must be nonnegative")
        s = self._scale()
        if (self - self.adjoint()).norm() > tol * s:
            return False
        for b in self.blocks:
            herm = 0.5 * (b + b.conj().T)
            if float(np.linalg.eigvalsh(herm).min()) < -tol * s:
                return False
        return True

    def is_strictly_nonzero(self, tol: float = DEFAULT_TOL) -> bool:
        """True when zero is separated from the spectrum: min |eig| > tol scale."""
        if tol < 0:
            raise InputError("tolerance must be nonnegative")
        return float(np.abs(self.spectrum()).min()) > tol * self._scale()

    def is_central(self, tol: float = DEFAULT_TOL) -> bool:
        """True when every block is within tol of a scalar multiple of the identity.

        For a direct sum of full matrix blocks this is exactly membership in
        the center; the nearest scalar is trace/d per block.
        """
        if tol < 0:
            raise InputError("tolerance must be nonnegative")
        s = self._scale()
        for b in self.blocks:
            d = b.shape[0]
            lam = np.trace(b) / d
            if float(np.linalg.norm(b - lam * np.eye(d), ord=2)) > tol * s:
                return False
        return True

    def central_scalars(self) -> np.ndarray:
        """Per-block nearest scalars (trace/d); meaningful for central elements."""
        return np.array([np.trace(b) / b.shape[0] for b in self.blocks])

    def sqrt_positive(self, tol: float = DEFAULT_TOL) -> "AlgElement":
        """Positive square root via blockwise eigendecomposition.

        Negative eigenvalues within tolerance are clamped to zero.
        """
        if not self.is_positive(tol):
            raise PreconditionError("sqrt_positive requires a positive element")
        out = []
        for b in self.blocks:
            herm = 0.5 * (b + b.conj().T)
            w, v = np.linalg.eigh(herm)
            w = np.clip(w, 0.0, None)
            out.append((v * np.sqrt(w)) @ v.conj().T)
        return AlgElement(self.spec, out)

    def inverse(self) -> "AlgElement":
        """Blockwise inverse; valid for strictly nonzero elements."""
        try:
            return AlgElement(self.spec, [np.linalg.inv(b) for b in self.blocks])
        except np.linalg.LinAlgError as exc:
            raise PreconditionError(f"element is not invertible: {exc}") from exc

    def __repr__(self) -> str:
        return f"AlgElement(spec={self.spec.block_dims}, norm={self.norm():.4g})"
