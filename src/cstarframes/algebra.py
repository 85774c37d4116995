"""Finite-dimensional C*-algebras realized as direct sums of full matrix blocks.

An algebra is specified by its block dimensions (d_1, ..., d_B) and an
element is one complex d_i x d_i matrix per block.  The involution is the
blockwise conjugate transpose and the norm is the largest singular value
over all blocks, which is the C*-norm of the direct sum.

Every spectral norm in the library is `_kernels.sigma_max`, and elements
are immutable, so `AlgElement.norm` computes its value once and keeps
it.  An element also keeps, once, its exact per-block scalars: a block
equal to its (0, 0) entry c times the identity (every 1 x 1 block) is
c 1, and its norm is |c| with no kernel call.  A central element from
`AlgebraSpec.central`, which builds every bound the library derives,
carries those scalars from construction.
`frames` forms the gap of a frame inequality per block from the
bound's blocks, with no operator for the bound.

Elements carry no positivity test: the library decides every positivity
claim as an operator inequality, through `certify.psd_certificate`.
"""

from __future__ import annotations

import numbers
from typing import Iterable, Optional, Sequence

import numpy as np

from . import _kernels
from .errors import InputError

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
        return self.central([1.0] * self.n_blocks)

    def central(self, scalars: Sequence[complex]) -> "AlgElement":
        """Central element with block i equal to scalars[i] times the identity.

        Each scalar is checked finite once; the blocks are not copied and
        scanned as `AlgElement` does, and the element carries from
        construction the exact scalars that `AlgElement.exact_scalars`
        would find, signed zeros included."""
        if len(scalars) != self.n_blocks:
            raise InputError(
                f"need {self.n_blocks} scalars for a central element, got {len(scalars)}"
            )
        if not all(np.isfinite(s) for s in scalars):
            raise InputError("algebra element blocks must have finite entries")
        blocks = [s * np.eye(d, dtype=complex) for s, d in zip(scalars, self.block_dims)]
        a = object.__new__(AlgElement)
        a.spec, a.blocks, a._norm = self, _readonly(blocks), None
        a._exact = tuple(m[0, 0] for m in blocks)
        return a

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraSpec) and self.block_dims == other.block_dims

    def __hash__(self) -> int:
        return hash(self.block_dims)

    def __repr__(self) -> str:
        return f"AlgebraSpec{self.block_dims}"


def _readonly(arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return tuple(arrays)


def _check_same_spec(a: "AlgElement", b: "AlgElement") -> None:
    if a.spec != b.spec:
        raise InputError(f"algebra spec mismatch: {a.spec} vs {b.spec}")


class AlgElement:
    """One element of a block direct-sum C*-algebra.

    Immutable: the block matrices are copied on construction, checked to
    be finite and marked read-only, so the norm and the exact per-block
    scalars are computed at most once.  All arithmetic returns new
    elements.
    """

    __slots__ = ("spec", "blocks", "_norm", "_exact")

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
            if not np.isfinite(m).all():
                raise InputError("algebra element blocks must have finite entries")
            mats.append(m)
        self.spec = spec
        self.blocks = _readonly(mats)
        self._norm = None
        self._exact = None

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

    def exact_scalars(self) -> tuple[Optional[complex], ...]:
        """Per block, c where the block equals c 1 exactly, its (0, 0) entry
        times the identity, else None.  A 1 x 1 block is its entry with no
        comparison.  Computed once."""
        if self._exact is None:
            self._exact = tuple(
                b[0, 0] if len(b) == 1 or np.array_equal(b, b[0, 0] * np.eye(len(b))) else None
                for b in self.blocks
            )
        return self._exact

    def norm(self) -> float:
        """C*-norm: the largest singular value over all blocks, |c| for an
        exactly scalar block c 1."""
        if self._norm is None:
            self._norm = max(
                float(abs(c)) if c is not None else float(_kernels.sigma_max(b))
                for c, b in zip(self.exact_scalars(), self.blocks)
            )
        return self._norm

    def _scale(self) -> float:
        return max(1.0, self.norm())

    def is_strictly_nonzero(self, tol: float = DEFAULT_TOL) -> bool:
        """True when the element is invertible with margin: every block's
        least singular value exceeds tol scale.  Unlike the eigenvalues of a
        non-normal block, singular values move by at most the size of a
        perturbation; for a normal block they are the eigenvalue moduli.
        An exactly scalar block c 1 has |c| with no kernel call; any other
        gives sigma_min and sigma_max, kept as the norm, from one SVD."""
        if tol < 0:
            raise InputError("tolerance must be nonnegative")
        sigmas = [(abs(c),) if c is not None else _kernels.singular_values(b)
                  for c, b in zip(self.exact_scalars(), self.blocks)]
        if self._norm is None:
            self._norm = max(float(s[0]) for s in sigmas)
        return min(float(s[-1]) for s in sigmas) > tol * self._scale()

    def scalar_blocks(self, tol: float = DEFAULT_TOL) -> tuple[bool, ...]:
        """Per block, whether it is within tol (relatively scaled) of a
        scalar multiple of the identity; the nearest scalar is trace/d.  An
        exactly scalar block (`exact_scalars`) is scalar at every tol, with
        no kernel call: its trace/d can round off b[0, 0].  Another block's
        residual b - trace(b)/d 1 is decided by `certify.residual_verdict`
        at scale max(1, ||self||): on its Frobenius norm first, so an SVD
        of it, or of self for the scale, is taken only where that does not
        certify."""
        if tol < 0:
            raise InputError("tolerance must be nonnegative")
        exact = [c is not None for c in self.exact_scalars()]
        if all(exact):
            return tuple(exact)
        from .certify import CERTIFIED, residual_verdict

        return tuple(
            e or residual_verdict([b - np.trace(b) / len(b) * np.eye(len(b))], tol, self)[0]
            == CERTIFIED
            for e, b in zip(exact, self.blocks)
        )

    def is_central(self, tol: float = DEFAULT_TOL) -> bool:
        """Every block scalar within tol: membership in the center."""
        return all(self.scalar_blocks(tol))

    def central_scalars(self) -> np.ndarray:
        """Per block its `exact_scalars` entry, else trace/d (for central elements)."""
        return np.array([np.trace(b) / len(b) if c is None else c
                         for c, b in zip(self.exact_scalars(), self.blocks)])

    def __repr__(self) -> str:
        return f"AlgElement(spec={self.spec.block_dims}, norm={self.norm():.4g})"
