import time

import numpy as np
import pytest

from cstarframes import (
    AlgebraSpec,
    FrameSeq,
    coordinate_frame,
    identity_operator,
    optimal_scalar_bounds,
    tensor_frame,
    tensor_frame_audit,
    tensor_witness,
)
from cstarframes.harness import random_instance, tensor_pair_instance
from cstarframes.hilbmod import ModuleOperator
from cstarframes.sampling import (
    random_operator,
    random_vector,
    stream,
)

import oracles
from oracles import (
    flat_permutation, flatten, is_positive, random_element, random_hermitian, random_positive,
    reference_tensor_vector,
)

LEFT = AlgebraSpec((2,))
RIGHT = AlgebraSpec((1, 1))
W = tensor_witness(LEFT, RIGHT)


def test_product_spec_block_dims():
    assert W.product.block_dims == (2, 2)
    w2 = tensor_witness(AlgebraSpec((2, 1)), AlgebraSpec((3, 1)))
    assert w2.product.block_dims == (6, 2, 3, 1)


def test_unit_tensor_unit():
    one = W.element(LEFT.unit(), RIGHT.unit())
    assert (one - W.product.unit()).norm() == 0.0


def test_norm_multiplicativity():
    rng = stream(120, 0)
    for _ in range(20):
        a = random_element(LEFT, rng)
        b = random_element(RIGHT, rng)
        got = W.element(a, b).norm()
        assert got == pytest.approx(a.norm() * b.norm(), rel=1e-10)


def test_product_rule():
    rng = stream(121, 0)
    a, c = random_element(LEFT, rng), random_element(LEFT, rng)
    b, d = random_element(RIGHT, rng), random_element(RIGHT, rng)
    lhs = W.element(a, b) * W.element(c, d)
    rhs = W.element(a * c, b * d)
    assert (lhs - rhs).norm() <= 1e-11 * max(1.0, rhs.norm())


def test_star_compatibility():
    rng = stream(122, 0)
    a = random_element(LEFT, rng)
    b = random_element(RIGHT, rng)
    lhs = W.element(a, b).adjoint()
    rhs = W.element(a.adjoint(), b.adjoint())
    assert (lhs - rhs).norm() <= 1e-12 * max(1.0, rhs.norm())


def test_inner_product_compatibility():
    rng = stream(123, 0)
    f, f2 = random_vector(LEFT, 2, rng), random_vector(LEFT, 2, rng)
    h, h2 = random_vector(RIGHT, 2, rng), random_vector(RIGHT, 2, rng)
    lhs = reference_tensor_vector(W, f, h).inner(reference_tensor_vector(W, f2, h2))
    rhs = W.element(f.inner(f2), h.inner(h2))
    assert (lhs - rhs).norm() <= 1e-11 * max(1.0, rhs.norm())


def test_operator_action_on_pure_tensors():
    rng = stream(124, 0)
    k = random_operator(LEFT, 2, 2, rng)
    l_op = random_operator(RIGHT, 2, 3, rng)
    f = random_vector(LEFT, 2, rng)
    h = random_vector(RIGHT, 2, rng)
    lhs = W.operator(k, l_op).apply(reference_tensor_vector(W, f, h))
    rhs = reference_tensor_vector(W, k.apply(f), l_op.apply(h))
    assert (lhs - rhs).norm() <= 1e-11 * max(1.0, rhs.norm())


def test_operator_adjoint_compatibility():
    rng = stream(125, 0)
    k = random_operator(LEFT, 2, 2, rng)
    l_op = random_operator(RIGHT, 2, 2, rng)
    lhs = W.operator(k, l_op).adjoint()
    rhs = W.operator(k.adjoint(), l_op.adjoint())
    assert (lhs - rhs).norm() <= 1e-12 * max(1.0, rhs.norm())


def test_scalar_right_factor_preserves_certificates():
    # tensoring with the unit frame over C is an isomorphic copy
    rng = stream(126, 0)
    scalar = AlgebraSpec((1,))
    w = tensor_witness(LEFT, scalar)
    fr = FrameSeq([random_vector(LEFT, 2, rng) for _ in range(4)])
    unit_frame = coordinate_frame(scalar, 1)
    prod = tensor_frame(w, fr, unit_frame)
    lam0, mu0 = optimal_scalar_bounds(fr)
    lam1, mu1 = optimal_scalar_bounds(prod)
    assert lam1 == pytest.approx(lam0, rel=1e-12)
    assert mu1 == pytest.approx(mu0, rel=1e-12)


def test_tensor_of_coordinate_frames_is_coordinate_frame():
    fr = tensor_frame(W, coordinate_frame(LEFT, 2), coordinate_frame(RIGHT, 2))
    assert fr.n_members == 4
    ident = identity_operator(W.product, 4)
    assert (fr.frame_op - ident).norm() <= 1e-13


def test_member_count_is_product():
    rng = stream(127, 0)
    f_seq = FrameSeq([random_vector(LEFT, 1, rng) for _ in range(3)])
    h_seq = FrameSeq([random_vector(RIGHT, 2, rng) for _ in range(2)])
    assert tensor_frame(W, f_seq, h_seq).n_members == 6


def test_audit_coordinate_frames():
    cert = tensor_frame_audit(
        W,
        coordinate_frame(LEFT, 2),
        coordinate_frame(RIGHT, 2),
        identity_operator(LEFT, 2),
        identity_operator(RIGHT, 2),
        LEFT.unit(),
        LEFT.unit(),
        RIGHT.unit(),
        RIGHT.unit(),
        1e-9,
    )
    assert cert.status == "certified"
    assert cert.witness["frame_operator_residual"] <= 1e-12


def test_paper_truncation_times_coordinate_frame():
    inst = random_instance(0, "paper-example-truncation(3)")
    fr = inst.members
    scalar = AlgebraSpec((1,))
    w = tensor_witness(inst.spec, scalar)
    prod = tensor_frame(w, fr, coordinate_frame(scalar, 1))
    expected = w.operator(fr.frame_op, identity_operator(scalar, 1))
    assert (prod.frame_op - expected).norm() <= 1e-12


def test_positivity_preservation():
    rng = stream(129, 0)
    a = random_positive(LEFT, rng)
    b = random_positive(RIGHT, rng)
    assert is_positive(W.element(a, b), 1e-9)


def test_order_preservation():
    rng = stream(130, 0)
    a = random_hermitian(LEFT, rng)
    x = random_element(LEFT, rng)
    b = a + x.adjoint() * x
    c = random_positive(RIGHT, rng)
    gap = W.element(b, c) - W.element(a, c)
    assert is_positive(gap, 1e-9)


def test_flatten_kron_permutation():
    rng = stream(131, 0)
    k = random_operator(LEFT, 2, 2, rng)
    l_op = random_operator(RIGHT, 2, 2, rng)
    flat_prod = flatten(W.operator(k, l_op))
    kron = np.kron(flatten(k), flatten(l_op))
    perm = flat_permutation(W, 2, 2)
    assert np.linalg.norm(flat_prod - kron[np.ix_(perm, perm)]) <= 1e-11 * max(
        1.0, np.linalg.norm(kron)
    )


def test_random_ensemble_certifies_quickly():
    t0 = time.perf_counter()
    rng = stream(132, 0)
    for trial in range(10):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        f_seq = FrameSeq([random_vector(LEFT, n, rng) for _ in range(int(rng.integers(n, 4)))])
        h_seq = FrameSeq([random_vector(RIGHT, m, rng) for _ in range(int(rng.integers(m, 4)))])
        k = f_seq.synthesis_op.compose(random_operator(LEFT, n, f_seq.n_members, rng))
        l_op = h_seq.synthesis_op.compose(random_operator(RIGHT, m, h_seq.n_members, rng))
        lam_f, mu_f = optimal_scalar_bounds(f_seq, k)
        lam_h, mu_h = optimal_scalar_bounds(h_seq, l_op)
        a = np.sqrt(lam_f * (1 - 1e-9)) * LEFT.unit()
        b = np.sqrt(mu_f) * (1 + 1e-9) * LEFT.unit()
        c = np.sqrt(lam_h * (1 - 1e-9)) * RIGHT.unit()
        d = np.sqrt(mu_h) * (1 + 1e-9) * RIGHT.unit()
        cert = tensor_frame_audit(W, f_seq, h_seq, k, l_op, a, b, c, d, 1e-9)
        assert cert.status == "certified"
    assert time.perf_counter() - t0 < 5.0


def _with_signed_zeros(arrays):
    """Copies with a -0.0 and a +0.0 planted in the real and imaginary
    parts, so products of signed zeros are compared too."""
    out = []
    for a in arrays:
        a = np.array(a)
        a.real.flat[0], a.imag.flat[-1] = -0.0, 0.0
        a.imag.flat[0] = -0.0
        out.append(a)
    return out


@pytest.mark.parametrize(("left", "right"), [((2,), (1, 1)), ((2, 1), (3,)), ((1,), (1,))])
def test_kron_products_match_entrywise_reference(left, right):
    w = tensor_witness(AlgebraSpec(left), AlgebraSpec(right))
    rng = stream(133, len(left), len(right))
    for n, m, n_out, m_out in ((1, 1, 1, 1), (1, 2, 3, 1), (2, 1, 1, 2), (3, 2, 2, 3)):
        k = random_operator(w.left, n, n_out, rng)
        l_op = random_operator(w.right, m, m_out, rng)
        l_op = ModuleOperator(w.right, m, m_out, _with_signed_zeros(l_op.block_matrices()))
        got, want = w.operator(k, l_op), oracles.reference_tensor_operator(w, k, l_op)
        assert (got.in_rank, got.out_rank) == (want.in_rank, want.out_rank) == (n * m, n_out * m_out)
        assert all(
            x.tobytes() == y.tobytes()
            for x, y in zip(got.block_matrices(), want.block_matrices())
        )


@pytest.mark.parametrize(("left", "right"), [((2,), (1, 1)), ((2, 1), (3,)), ((1,), (1,)),
                                           ((3, 2), (2, 1))])
def test_broadcast_products_are_the_kron_products_bit_for_bit(left, right):
    w = tensor_witness(AlgebraSpec(left), AlgebraSpec(right))
    rng = stream(135, len(left), len(right))
    for n, m, n_out, m_out in ((1, 1, 1, 1), (1, 2, 3, 1), (2, 1, 1, 2), (3, 2, 2, 3)):
        k = random_operator(w.left, n, n_out, rng)
        k = ModuleOperator(w.left, n, n_out, _with_signed_zeros(k.block_matrices()))
        l_op = random_operator(w.right, m, m_out, rng)
        got, want = w.operator(k, l_op), oracles.kron_tensor_operator(w, k, l_op)
        assert (got.in_rank, got.out_rank) == (want.in_rank, want.out_rank) == (n * m, n_out * m_out)
        assert all(
            x.tobytes() == y.tobytes()
            for x, y in zip(got.block_matrices(), want.block_matrices())
        )
    a = random_element(w.left, rng)
    a = w.left.element(_with_signed_zeros(a.blocks))
    b = random_element(w.right, rng)
    got, want = w.element(a, b), oracles.kron_tensor_element(w, a, b)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(got.blocks, want.blocks))


def test_suite_pairs_take_the_kron_products_bit_for_bit():
    # every product the tensor suite forms: K tensor L, the bounds A tensor
    # C and B tensor D, and the syntheses and frame operators
    for seed in range(20):
        pair = tensor_pair_instance(seed)
        right = pair.right
        w = tensor_witness(pair.spec, right.spec)
        ops = [(pair.operators["K"], right.operators["L"]),
               (pair.members.synthesis_op, right.members.synthesis_op),
               (pair.members.frame_op, right.members.frame_op)]
        for k, l_op in ops:
            got, want = w.operator(k, l_op), oracles.kron_tensor_operator(w, k, l_op)
            assert all(
                x.tobytes() == y.tobytes()
                for x, y in zip(got.block_matrices(), want.block_matrices())
            )
        for a, c in (("A", "C"), ("B", "D")):
            got = w.element(pair.bounds[a], right.bounds[c])
            want = oracles.kron_tensor_element(w, pair.bounds[a], right.bounds[c])
            assert all(x.tobytes() == y.tobytes() for x, y in zip(got.blocks, want.blocks))


def test_tensor_frame_is_the_member_products_bit_for_bit():
    rng = stream(134, 0)
    for n, m, j_count, i_count in ((1, 1, 1, 1), (1, 2, 3, 2), (2, 1, 2, 4), (2, 2, 3, 3)):
        f_seq = FrameSeq([random_vector(LEFT, n, rng) for _ in range(j_count)])
        h_seq = FrameSeq([random_vector(RIGHT, m, rng) for _ in range(i_count)])
        prod = tensor_frame(W, f_seq, h_seq)
        ref = FrameSeq([reference_tensor_vector(W, f, h)
                        for f in f_seq.members for h in h_seq.members])
        assert (prod.n_members, prod.rank) == (j_count * i_count, n * m)
        for op in ("synthesis_op", "frame_op"):
            for x, y in zip(getattr(prod, op).block_matrices(), getattr(ref, op).block_matrices()):
                assert x.tobytes() == y.tobytes()
