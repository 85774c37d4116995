"""Tensor products of block algebras, free modules, operators and frames.

The product of two block direct sums is the direct sum over block pairs
with dimensions d_i * e_k (the spatial tensor product, which is the only
C*-tensor product in finite dimensions).  Product blocks and module
slots are ordered lexicographically left-first; the witness records the
block pairs in that order.
Products are formed on the per-block arrays: one broadcast product of
the factors' reduced matrices per block pair, laid out in product order,
with the entries of `np.kron` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraSpec, AlgElement, DEFAULT_TOL
from .certify import Certificate, combine, residual_verdict
from .errors import InputError
from .frames import FrameSeq, _family, certify_kframe
from .hilbmod import ModuleOperator, _operator


@dataclass(frozen=True)
class TensorWitness:
    """Product algebra of two block algebras with its block pairs (i, k),
    in product-block order."""

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

    # -- constructions ---------------------------------------------------------

    def element(self, a: AlgElement, b: AlgElement) -> AlgElement:
        if a.spec != self.left or b.spec != self.right:
            raise InputError("tensor factors do not match the witness specs")
        return AlgElement(self.product, [
            (a.blocks[i][:, None, :, None] * b.blocks[k][None, :, None, :]).reshape(dim, dim)
            for (i, k), dim in zip(self.block_pairs, self.product.block_dims)])

    def operator(self, k_op: ModuleOperator, l_op: ModuleOperator) -> ModuleOperator:
        """K tensor L acting by (K tensor L)(f tensor h) = Kf tensor Lh.

        Block (i, k) is kron(K_i, L_k) with rows (s, p, s', p') reordered to
        (s, s', p, p') and columns likewise: slots (left, right) outermost,
        formed as one broadcast product with each index on its own axis."""
        if k_op.spec != self.left or l_op.spec != self.right:
            raise InputError("tensor factors do not match the witness specs")
        n, n_out, m, m_out = k_op.in_rank, k_op.out_rank, l_op.in_rank, l_op.out_rank
        mats = []
        for i, k in self.block_pairs:
            d, e = self.left.block_dims[i], self.right.block_dims[k]
            kb = k_op.block_matrices()[i].reshape(n_out, 1, d, 1, n, 1, d, 1)
            lb = l_op.block_matrices()[k].reshape(1, m_out, 1, e, 1, m, 1, e)
            mats.append((kb * lb).reshape(n_out * m_out * d * e, n * m * d * e))
        return _operator(self.product, n * m, n_out * m_out, mats)


def tensor_witness(left: AlgebraSpec, right: AlgebraSpec) -> TensorWitness:
    return TensorWitness.build(left, right)


def tensor_frame(w: TensorWitness, left: FrameSeq, right: FrameSeq) -> FrameSeq:
    """Doubly indexed product family {f_j tensor h_i} over all pairs,
    ordered lexicographically (left index outer): its synthesis operator
    is U_f tensor U_h, whose (j, i) input slot is the pair's."""
    return _family(w.operator(left.synthesis_op, right.synthesis_op))


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
    bounds (A tensor C, B tensor D); the first by `certify.residual_verdict`
    at scale max(1, ||S_f tensor S_h||), reported relative to it."""
    base_left = certify_kframe(left, k_op, a, b, tol)
    base_left.require("left factor K-frame certification")
    base_right = certify_kframe(right, l_op, c, d, tol)
    base_right.require("right factor L-frame certification")

    prod = tensor_frame(w, left, right)
    s_expected = w.operator(left.frame_op, right.frame_op)
    scale = max(1.0, s_expected.norm())
    status, residual = residual_verdict((prod.frame_op - s_expected).block_matrices(), tol, scale)
    rel = residual / scale
    op_cert = Certificate(status, "tensor-frame-operator", {"relative_residual": rel}, tol)
    kl = w.operator(k_op, l_op)
    ac = w.element(a, c)
    bd = w.element(b, d)
    frame_cert = certify_kframe(prod, kl, ac, bd, tol)
    return combine(
        "tensor-kframe",
        [op_cert, frame_cert],
        extra={"frame_operator_residual": rel, "members": prod.n_members},
    )
