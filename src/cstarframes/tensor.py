"""Tensor products of block algebras, free modules, operators and frames.

The product of two block direct sums is the direct sum over block pairs
with dimensions d_i * e_k (the spatial tensor product, which is the only
C*-tensor product in finite dimensions).  Product blocks, module slots
and flattening coordinates are ordered lexicographically left-first; the
witness records the resulting index maps so tests are permutation-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, AlgElement, DEFAULT_TOL
from .certify import CERTIFIED, Certificate, FALSIFIED, combine
from .errors import InputError
from .frames import FrameSeq, certify_kframe
from .hilbmod import ModuleOperator, ModuleVector


@dataclass(frozen=True)
class TensorWitness:
    """Product algebra of two block algebras with explicit index maps."""

    left: AlgebraSpec
    right: AlgebraSpec
    product: AlgebraSpec
    block_pairs: tuple[tuple[int, int], ...]

    @classmethod
    def build(cls, left: AlgebraSpec, right: AlgebraSpec) -> "TensorWitness":
        pairs = [
            (i, k) for i in range(left.n_blocks) for k in range(right.n_blocks)
        ]
        dims = [left.block_dims[i] * right.block_dims[k] for i, k in pairs]
        return cls(left, right, AlgebraSpec(dims), tuple(pairs))

    # -- elementwise constructions -------------------------------------------

    def element(self, a: AlgElement, b: AlgElement) -> AlgElement:
        if a.spec != self.left or b.spec != self.right:
            raise InputError("tensor factors do not match the witness specs")
        blocks = [np.kron(a.blocks[i], b.blocks[k]) for i, k in self.block_pairs]
        return AlgElement(self.product, blocks)

    def vector(self, f: ModuleVector, h: ModuleVector) -> ModuleVector:
        """f tensor h in (A tensor B)^(n m), slots ordered (left, right)."""
        if f.spec != self.left or h.spec != self.right:
            raise InputError("tensor factors do not match the witness specs")
        h_entries = h.entries
        entries = [self.element(fe, he) for fe in f.entries for he in h_entries]
        return ModuleVector(self.product, entries)

    def operator(self, k_op: ModuleOperator, l_op: ModuleOperator) -> ModuleOperator:
        """K tensor L acting by (K tensor L)(f tensor h) = Kf tensor Lh."""
        if k_op.spec != self.left or l_op.spec != self.right:
            raise InputError("tensor factors do not match the witness specs")
        k_grid, l_grid = k_op.entries, l_op.entries
        grid = [
            [self.element(k, l) for k in k_row for l in l_row]
            for k_row in k_grid
            for l_row in l_grid
        ]
        return ModuleOperator(self.product, grid)

    # -- index maps ------------------------------------------------------------

    def flat_permutation(self, rank_left: int, rank_right: int) -> np.ndarray:
        """Map product flattening coordinates to Kronecker coordinates.

        perm[x] is the index into kron(left coordinates, right coordinates)
        carrying the same entry, so flat(K tensor L)[x, y] equals
        kron(flat K, flat L)[perm[x], perm[y]].
        """
        dl, dr = self.left.total_dim, self.right.total_dim
        offs_l = np.cumsum([0] + [d * d for d in self.left.block_dims])
        offs_r = np.cumsum([0] + [d * d for d in self.right.block_dims])
        offs_p = np.cumsum([0] + [d * d for d in self.product.block_dims])
        size_r = rank_right * dr
        perm = np.empty(rank_left * rank_right * self.product.total_dim, dtype=np.int64)
        for j in range(rank_left):
            for l in range(rank_right):
                slot = j * rank_right + l
                for t, (i, k) in enumerate(self.block_pairs):
                    di = self.left.block_dims[i]
                    ek = self.right.block_dims[k]
                    for p1 in range(di):
                        for p2 in range(ek):
                            for q1 in range(di):
                                for q2 in range(ek):
                                    row = (p1 * ek + p2) * (di * ek) + (q1 * ek + q2)
                                    x = slot * self.product.total_dim + offs_p[t] + row
                                    cl = j * dl + offs_l[i] + p1 * di + q1
                                    cr = l * dr + offs_r[k] + p2 * ek + q2
                                    perm[x] = cl * size_r + cr
        return perm


def tensor_witness(left: AlgebraSpec, right: AlgebraSpec) -> TensorWitness:
    return TensorWitness.build(left, right)


def tensor_frame(w: TensorWitness, left: FrameSeq, right: FrameSeq) -> FrameSeq:
    """Doubly indexed product family {f_j tensor h_i} over all pairs,
    ordered lexicographically (left index outer)."""
    members = [w.vector(f, h) for f in left.members for h in right.members]
    return FrameSeq(members)


def tensor_frame_diagonal(
    w: TensorWitness, left: FrameSeq, right: FrameSeq
) -> FrameSeq:
    """Single-index family {f_j tensor h_j}; exposed for completeness with
    no certified frame claims attached."""
    if left.n_members != right.n_members:
        raise InputError("diagonal tensor family needs equal member counts")
    return FrameSeq(
        [w.vector(f, h) for f, h in zip(left.members, right.members)]
    )


def tensor_frame_audit(
    w: TensorWitness,
    left: FrameSeq,
    right: FrameSeq,
    k_op: ModuleOperator,
    l_op: ModuleOperator,
    a: AlgElement,
    b: AlgElement,
    c: AlgElement,
    d: AlgElement,
    tol: float = DEFAULT_TOL,
) -> Certificate:
    """Certify the product-frame facts: the frame operator of the product
    family is S_f tensor S_h, and the family is a (K tensor L)-frame with
    bounds (A tensor C, B tensor D)."""
    base_left = certify_kframe(left, k_op, a, b, tol)
    base_left.require("left factor K-frame certification")
    base_right = certify_kframe(right, l_op, c, d, tol)
    base_right.require("right factor L-frame certification")

    prod = tensor_frame(w, left, right)
    s_expected = w.operator(left.frame_op, right.frame_op)
    rel = (prod.frame_op - s_expected).norm() / max(1.0, s_expected.norm())
    op_ok = rel <= 1e-10
    op_cert = Certificate(
        CERTIFIED if op_ok else FALSIFIED,
        "tensor-frame-operator",
        {"relative_residual": rel},
        {"tol": 1e-10},
    )
    kl = w.operator(k_op, l_op)
    ac = w.element(a, c)
    bd = w.element(b, d)
    frame_cert = certify_kframe(prod, kl, ac, bd, tol)
    return combine(
        "tensor-kframe",
        [op_cert, frame_cert],
        extra={"frame_operator_residual": rel, "members": prod.n_members},
    )
