import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cstarframes import (
    AlgElement,
    AlgebraSpec,
    AtomicSystemError,
    FrameSeq,
    InputError,
    ModuleOperator,
    ModuleVector,
    atomic_coefficients,
    certify_kframe,
    certify_star_bessel,
    coisometry_invariance_audit,
    conjugation_audit,
    coordinate_frame,
    dual_atoms,
    dual_atoms_audit,
    identity_operator,
    local_atoms_check,
    optimal_scalar_bounds,
    pencil_lower_bound,
    pseudo_inverse,
    save_instance,
    tensor_frame,
    tensor_witness,
    transform_frame,
)
from cstarframes import douglas, frames
from cstarframes.cli import COMMANDS, main
from cstarframes.harness import SUITES, random_instance, tensor_pair_instance
from cstarframes.hilbmod import _vector, central_mult
from cstarframes.certify import BOUNDARY_FACTOR, psd_certificate, residual_verdict
from cstarframes.sampling import (
    random_central,
    random_operator,
    random_unitary,
    random_vector,
    stream,
)

import oracles
from oracles import (
    coefficient_gram_direct,
    coordinate_vector,
    entries,
    flat,
    flatten,
    grid_operator,
    grid_vector,
    is_positive,
    module_mul,
    sequential_coefficient_bound_violation,
    pencil_oracle,
    random_element,
    reference_gap,
    reference_local_atoms_gap,
    sampled_bessel_violation,
    sampled_kframe_violation,
    spectrum,
    zero_operator,
)

SPEC = AlgebraSpec((2, 1))


def random_frame(spec, rank, count, rng):
    return FrameSeq([random_vector(spec, rank, rng) for _ in range(count)])


def paper_frame(n_terms):
    return random_instance(0, f"paper-example-truncation({n_terms})")


def scalar_bounds_with_margin(frame, k_op, margin=1e-6):
    lam, mu = optimal_scalar_bounds(frame, k_op)
    a = math.sqrt(lam * (1 - margin)) * frame.spec.unit()
    b = math.sqrt(mu) * (1 + margin) * frame.spec.unit()
    return a, b


# -- construction invariants ---------------------------------------------------------


def test_analysis_formula():
    rng = stream(70, 0)
    fr = random_frame(SPEC, 2, 4, rng)
    f = random_vector(SPEC, 2, rng)
    coeffs = fr.analysis(f)
    for j, m in enumerate(fr.members):
        assert (entries(coeffs)[j] - f.inner(m)).norm() <= 1e-12


def test_frame_operator_hermitian_positive():
    rng = stream(71, 0)
    fr = random_frame(SPEC, 2, 4, rng)
    s = fr.frame_op
    assert (s - s.adjoint()).norm() <= 1e-12 * max(1.0, s.norm())
    assert psd_certificate(s, 1e-9, "frame-operator-positive").ok


def test_frame_operator_entry_formula():
    rng = stream(72, 0)
    fr = random_frame(SPEC, 3, 5, rng)
    s = fr.frame_op
    for k in range(3):
        for i in range(3):
            total = 0 * SPEC.unit()
            for m in fr.members:
                total = total + entries(m)[k].adjoint() * entries(m)[i]
            assert (entries(s)[k][i] - total).norm() <= 1e-12 * max(1.0, total.norm())


def test_frame_operator_factors_through_flattening():
    rng = stream(73, 0)
    fr = random_frame(SPEC, 2, 5, rng)
    lhs = flatten(fr.frame_op)
    rhs = flatten(fr.synthesis_op) @ flatten(fr.analysis_op)
    assert np.linalg.norm(lhs - rhs) <= 1e-11 * max(1.0, np.linalg.norm(rhs))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_nonfinite_members_rejected(bad):
    # AlgElement and ModuleVector refuse the block, so the member is wrapped
    # unchecked, as library-computed arrays are
    stacks = [np.full((4, 2), bad, dtype=complex), np.zeros((2, 1), dtype=complex)]
    with pytest.raises(InputError, match="finite"):
        AlgElement(SPEC, [np.full((2, 2), bad), np.ones((1, 1))])
    with pytest.raises(InputError, match="finite"):
        ModuleVector(SPEC, stacks)
    members = [*coordinate_frame(SPEC, 2).members, _vector(SPEC, stacks)]
    with pytest.raises(InputError, match="finite"):
        FrameSeq(members)


# -- analysis / synthesis ----------------------------------------------------------------


def test_coordinate_frame_analysis_recovers_entries():
    fr = coordinate_frame(SPEC, 3)
    rng = stream(74, 0)
    f = random_vector(SPEC, 3, rng)
    coeffs = fr.analysis(f)
    for j in range(3):
        assert (entries(coeffs)[j] - entries(f)[j]).norm() <= 1e-13


def test_synthesis_adjoint_law():
    rng = stream(75, 0)
    fr = random_frame(SPEC, 2, 4, rng)
    g = random_vector(SPEC, 4, rng)
    f = random_vector(SPEC, 2, rng)
    lhs = fr.synthesis_op.apply(g).inner(f)
    rhs = g.inner(fr.analysis(f))
    assert (lhs - rhs).norm() <= 1e-11 * max(1.0, lhs.norm())


def test_synthesis_pairing_formula():
    rng = stream(76, 0)
    fr = random_frame(SPEC, 2, 4, rng)
    g = random_vector(SPEC, 4, rng)
    f = random_vector(SPEC, 2, rng)
    direct = 0 * SPEC.unit()
    for j, m in enumerate(fr.members):
        direct = direct + entries(g)[j] * m.inner(f)
    assert (fr.synthesis_op.apply(g).inner(f) - direct).norm() <= 1e-11 * max(1.0, direct.norm())


def test_paper_truncation_analysis_coefficients():
    inst = paper_frame(3)
    fr = inst.members
    u = grid_vector(inst.spec, [inst.spec.central([1.0, 1.0, 1.0])])
    coeffs = fr.analysis(u)
    expect = [4 / 3, 5 / 6, 2 / 3]
    for j in range(3):
        scal = entries(coeffs)[j].central_scalars()
        assert scal[j].real == pytest.approx(expect[j], abs=1e-14)
        off = [abs(scal[i]) for i in range(3) if i != j]
        assert max(off) <= 1e-14


def test_frame_operator_action_matches_direct_sum():
    rng = stream(77, 0)
    fr = random_frame(SPEC, 2, 5, rng)
    f = random_vector(SPEC, 2, rng)
    direct = None
    for m in fr.members:
        term = module_mul(m, f.inner(m))
        direct = term if direct is None else direct + term
    got = fr.frame_op.apply(f)
    assert (got - direct).norm() <= 1e-11 * max(1.0, direct.norm())


def test_single_unit_member_gives_identity_frame_operator():
    fr = FrameSeq([coordinate_vector(SPEC, 1, 0)])
    assert (fr.frame_op - identity_operator(SPEC, 1)).norm() <= 1e-14


def test_paper_truncation_frame_operator():
    inst = paper_frame(3)
    fr = inst.members
    expected = central_mult(
        inst.spec.central([(4 / 3) ** 2, (5 / 6) ** 2, (2 / 3) ** 2]), 1
    )
    assert (fr.frame_op - expected).norm() <= 1e-14


def test_coefficient_gram_matches_direct_sum():
    rng = stream(78, 0)
    fr = random_frame(SPEC, 2, 5, rng)
    f = random_vector(SPEC, 2, rng)
    got = fr.coefficient_gram(f)
    want = coefficient_gram_direct(fr, f)
    assert (got - want).norm() <= 1e-11 * max(1.0, want.norm())


# -- Bessel certification ---------------------------------------------------------------


def test_bessel_coordinate_frame():
    fr = coordinate_frame(SPEC, 2)
    cert = certify_star_bessel(fr, SPEC.unit(), 1e-9)
    assert cert.status == "certified"


def test_bessel_scaled_frame_falsified_with_witness():
    fr = FrameSeq([m.scalar_mul(2.0) for m in coordinate_frame(SPEC, 2).members])
    cert = certify_star_bessel(fr, SPEC.unit(), 1e-9)
    assert cert.status == "falsified"
    w = cert.witness_vector
    assert w is not None
    gap = SPEC.unit() * w.inner(w) * SPEC.unit() - fr.coefficient_gram(w)
    assert not is_positive(gap, 1e-9)


def test_bessel_paper_equality_case():
    inst = paper_frame(4)
    cert = certify_star_bessel(inst.members, inst.bounds["B"], 1e-9)
    assert cert.status == "certified"
    assert abs(cert.witness["min_eig"]) <= 1e-12


@pytest.mark.parametrize("beta", [1.7, 2.9])
def test_bessel_exactly_scalar_bound_at_zero_tolerance(beta):
    # beta 1 on a 3x3 block is scalar exactly, so the gap is the central
    # (beta^2 - 1) I even where trace/d rounds off beta
    fr = coordinate_frame(AlgebraSpec((3,)), 1)
    cert = certify_star_bessel(fr, beta * fr.spec.unit(), 0.0)
    assert cert.status == "certified"
    assert cert.witness["min_eig"] == pytest.approx(beta**2 - 1.0)


def upper_gap_at(fr, b, f):
    """B<f,f>B* - sum_j <f,f_j><f_j,f>, the middle summed term by term."""
    return b * f.inner(f) * b.adjoint() - coefficient_gram_direct(fr, f)


def lower_gap_at(fr, k, a, f):
    """sum_j <f,f_j><f_j,f> - A<K*f,K*f>A*, the middle summed term by term."""
    kf = k.adjoint().apply(f)
    return coefficient_gram_direct(fr, f) - a * kf.inner(kf) * a.adjoint()


def min_eig(x):
    return min(float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0]) for m in x.blocks)


def element(block0, block1):
    return SPEC.element([np.array(block0, dtype=complex), np.array([[block1]], dtype=complex)])


def test_bessel_non_central_bound_falsified_with_witness():
    fr = coordinate_frame(SPEC, 2)
    # a non-central bound dominating the identity is still no Bessel bound:
    # S does not vanish on its non-scalar block
    b = element([[3.0, 0.5], [0.0, 3.0]], 3.0)
    cert = certify_star_bessel(fr, b, 1e-9)
    assert cert.status == "falsified"
    assert cert.witness["block"] == 0
    assert min_eig(upper_gap_at(fr, b, cert.witness_vector)) == pytest.approx(-1.1245, abs=1e-4)
    small = b * 0.01
    cert2 = certify_star_bessel(fr, small, 1e-9)
    assert cert2.status == "falsified"
    assert not is_positive(upper_gap_at(fr, small, cert2.witness_vector), 1e-9)
    # over M_2(C) alone, B = diag(50, 60) is no Bessel bound for any nonzero frame
    spec = AlgebraSpec((2,))
    rng = stream(84, 0)
    fr2 = FrameSeq([random_vector(spec, 1, rng) for _ in range(3)])
    b2 = spec.element([np.diag([50.0, 60.0]).astype(complex)])
    cert3 = certify_star_bessel(fr2, b2, 1e-9)
    assert cert3.status == "falsified"
    gap = upper_gap_at(fr2, b2, cert3.witness_vector)
    assert min_eig(gap) < -10 * 1e-9 * max(1.0, gap.norm())


def test_non_central_bounds_certify_where_frame_and_k_vanish():
    # members and K vanish on the M_2 block, so the non-central blocks of
    # A and B constrain nothing and the scalar blocks decide
    rng = stream(85, 0)
    members = []
    for _ in range(3):
        v = random_vector(SPEC, 2, rng)
        members.append(grid_vector(SPEC, [element(np.zeros((2, 2)), e.blocks[1][0, 0])
                                           for e in entries(v)]))
    fr = FrameSeq(members)
    k = central_mult(SPEC.central([0.0, 1.0]), 2)
    lam, mu = optimal_scalar_bounds(fr, k)
    a = element([[0.01, 0.001], [0.0, 0.01]], math.sqrt(lam * (1 - 1e-6)))
    b = element([[3.0, 0.5], [0.0, 3.0]], math.sqrt(mu) * (1 + 1e-6))
    assert certify_star_bessel(fr, b, 1e-9).status == "certified"
    assert certify_kframe(fr, k, a, b, 1e-9).status == "certified"
    # the scalar blocks still decide: a lower bound past lambda* fails there
    a_big = element([[0.01, 0.001], [0.0, 0.01]], math.sqrt(lam * 1.01))
    assert certify_kframe(fr, k, a_big, b, 1e-9).status == "falsified"


def test_nearly_scalar_bound_is_inconclusive():
    # B_0 = 3 + eps E_01 is not scalar, yet the rank-one witness needs
    # ||w|| ~ 1/eps: its gap re-checks at eps = 1e-3 but roundoff swamps it at 1e-5
    fr = coordinate_frame(SPEC, 2)
    b = element([[3.0, 1e-3], [0.0, 3.0]], 3.0)
    cert = certify_star_bessel(fr, b, 1e-9)
    assert cert.status == "falsified"
    assert not is_positive(upper_gap_at(fr, b, cert.witness_vector), 1e-9)
    cert = certify_star_bessel(fr, element([[3.0, 1e-5], [0.0, 3.0]], 3.0), 1e-9)
    assert cert.status == "inconclusive"
    assert cert.witness_vector is None


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 2),
    count=st.integers(1, 4),
    scale=st.sampled_from([0.3, 1.0, 3.0]),
    vanish=st.booleans(),
)
def test_exact_decision_agrees_with_reference_sampler(seed, rank, count, scale, vanish):
    # every violation the old sampler finds is falsified exactly, and every
    # falsified witness re-checks through the algebra-valued gaps
    rng = stream(seed, 0)
    members = [random_vector(SPEC, rank, rng) for _ in range(count)]
    if vanish:
        members = [grid_vector(SPEC, [element(np.zeros((2, 2)), e.blocks[1][0, 0])
                                       for e in entries(m)]) for m in members]
    fr = FrameSeq(members)
    k = random_operator(SPEC, rank, rank, rng)
    if vanish:
        k = k.compose(central_mult(SPEC.central([0.0, 1.0]), rank))
    a = random_element(SPEC, rng, scale=0.3 * scale)
    b = random_element(SPEC, rng, scale=scale)
    assume(a.is_strictly_nonzero(1e-9) and b.is_strictly_nonzero(1e-9))

    bessel = certify_star_bessel(fr, b, 1e-9)
    if sampled_bessel_violation(fr, b, 1e-9, 100, seed) is not None:
        assert bessel.status == "falsified"
    if bessel.status == "falsified":
        assert not is_positive(upper_gap_at(fr, b, bessel.witness_vector), 1e-9)

    kframe = certify_kframe(fr, k, a, b, 1e-9)
    if sampled_kframe_violation(fr, k, a, b, 1e-9, 100, seed) is not None:
        assert kframe.status == "falsified"
    if kframe.status == "falsified":
        w = kframe.witness_vector
        assert not (is_positive(lower_gap_at(fr, k, a, w), 1e-9)
                    and is_positive(upper_gap_at(fr, b, w), 1e-9))


def test_bessel_rejects_degenerate_bound():
    fr = coordinate_frame(SPEC, 2)
    with pytest.raises(InputError):
        certify_star_bessel(fr, 0 * SPEC.unit(), 1e-9)


# -- K-frame certification ----------------------------------------------------------------


def test_every_frame_is_kframe_for_identity():
    rng = stream(80, 0)
    fr = random_frame(SPEC, 2, 4, rng)
    a, b = scalar_bounds_with_margin(fr, identity_operator(SPEC, 2))
    cert = certify_kframe(fr, identity_operator(SPEC, 2), a, b, 1e-9)
    assert cert.status == "certified"


def test_contraction_scales_lower_bound():
    # a frame with bounds (A, B) is a K-frame with bounds (A/||K||, B)
    rng = stream(81, 0)
    fr = random_frame(SPEC, 2, 4, rng)
    a, b = scalar_bounds_with_margin(fr, identity_operator(SPEC, 2))
    k0 = random_operator(SPEC, 2, 2, rng)
    k = k0.scalar_mul(1.0 / (k0.norm() * 1.01))
    assert k.norm() <= 1.0
    a_scaled = a * (1.0 / k.norm())
    cert = certify_kframe(fr, k, a_scaled, b, 1e-9)
    assert cert.status == "certified"


def test_rank_deficient_frame_falsified_with_witness():
    rng = stream(82, 0)
    members = []
    for _ in range(4):
        v = random_vector(SPEC, 2, rng)
        members.append(grid_vector(SPEC, [entries(v)[0], 0 * SPEC.unit()]))
    fr = FrameSeq(members)
    k = identity_operator(SPEC, 2)
    cert = certify_kframe(fr, k, SPEC.unit(), 10.0 * SPEC.unit(), 1e-9)
    assert cert.status == "falsified"
    w = cert.witness_vector
    assert w is not None
    # the witness lives in the lost direction: the lower inequality fails there
    ka = k.adjoint().apply(w)
    gap = fr.coefficient_gram(w) - SPEC.unit() * ka.inner(ka) * SPEC.unit()
    assert not is_positive(gap, 1e-9)


def test_kframe_non_central_bounds_falsified_with_witness():
    fr = coordinate_frame(SPEC, 2)
    k = identity_operator(SPEC, 2)
    b = element([[2.0, 0.3], [0.0, 2.0]], 2.0)
    cert = certify_kframe(fr, k, SPEC.unit() * 0.5, b, 1e-9)
    assert cert.status == "falsified"
    assert cert.witness["part1:star-kframe-upper"] == "falsified"
    assert not is_positive(upper_gap_at(fr, b, cert.witness_vector), 1e-9)
    # a non-central lower bound fails wherever K does not vanish on its block
    a = element([[0.01, 0.001], [0.0, 0.01]], 0.01)
    cert = certify_kframe(fr, k, a, 10.0 * SPEC.unit(), 1e-9)
    assert cert.status == "falsified"
    assert cert.witness["part0:star-kframe-lower"] == "falsified"
    assert min_eig(lower_gap_at(fr, k, a, cert.witness_vector)) == pytest.approx(-1.0, abs=1e-3)


# -- optimal scalar bounds ---------------------------------------------------------------


def test_optimal_bounds_coordinate_frame():
    fr = coordinate_frame(SPEC, 2)
    lam, mu = optimal_scalar_bounds(fr)
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert mu == pytest.approx(1.0, abs=1e-12)


def test_optimal_bounds_doubled_coordinate_frame():
    members = list(coordinate_frame(SPEC, 2).members) * 2
    lam, mu = optimal_scalar_bounds(FrameSeq(members))
    assert lam == pytest.approx(2.0, abs=1e-12)
    assert mu == pytest.approx(2.0, abs=1e-12)


def test_optimal_lower_bound_matches_pencil_oracle():
    rng = stream(84, 0)
    for _ in range(5):
        fr = random_frame(SPEC, 2, 4, rng)
        k = fr.synthesis_op.compose(random_operator(SPEC, 2, 4, rng))
        lam, _ = optimal_scalar_bounds(fr, k)
        want = pencil_oracle(k, fr.synthesis_op)
        assert lam == pytest.approx(want, rel=1e-8)


# -- atomic systems ------------------------------------------------------------------------


def test_atomic_coefficients_for_frame_operator():
    rng = stream(85, 0)
    fr = random_frame(SPEC, 2, 4, rng)
    q, c, residual = atomic_coefficients(fr, fr.frame_op, 1e-9)
    assert residual <= 1e-10
    # Q recovers the analysis operator when K = S = U U*
    assert (q - fr.analysis_op).norm() <= 1e-9 * max(1.0, q.norm())
    assert c.norm() == pytest.approx(fr.analysis_op.norm(), rel=1e-12)


def test_atomic_coefficients_paper_equality():
    inst = paper_frame(6)
    fr = inst.members
    q, _, residual = atomic_coefficients(fr, inst.operators["K"], 1e-9)
    assert residual <= 1e-12
    c = inst.bounds["C"]
    rng = stream(86, 0)
    for _ in range(25):
        u = random_vector(inst.spec, 1, rng)
        a_u = q.apply(u)
        # coefficients are u times the conjugated member values
        for j, m in enumerate(fr.members):
            want = u.inner(m)
            assert (entries(a_u)[j] - want).norm() <= 1e-12
        dev = (a_u.inner(a_u) - c * u.inner(u) * c.adjoint()).norm()
        assert dev <= 1e-12


def test_atomic_coefficients_planted_factorization():
    rng = stream(87, 0)
    for _ in range(5):
        fr = random_frame(SPEC, 2, 4, rng)
        q0 = random_operator(SPEC, 2, 4, rng)
        k = fr.synthesis_op.compose(q0)
        q, c, residual = atomic_coefficients(fr, k, 1e-9)
        assert residual <= 1e-9 * max(1.0, k.norm())
        assert q.norm() <= q0.norm() + 1e-9
        assert c.norm() == pytest.approx(q.norm(), rel=1e-12)


def test_atomic_rejects_range_violation():
    rng = stream(88, 0)
    members = [
        grid_vector(SPEC, [entries(random_vector(SPEC, 2, rng))[0], 0 * SPEC.unit()])
        for _ in range(4)
    ]
    fr = FrameSeq(members)
    with pytest.raises(AtomicSystemError):
        atomic_coefficients(fr, identity_operator(SPEC, 2), 1e-9)


def test_corollary_equivalence_atomic_iff_range_inclusion():
    # atomic system exists exactly when R(K) is inside R(U)
    rng = stream(89, 0)
    for k_iter in range(100):
        seed = 1000 + k_iter
        profile = "generic" if k_iter % 2 == 0 else "rank-deficient-K"
        inst = random_instance(seed, profile)
        fr = inst.members
        k = inst.operators["K"]
        inclusion = douglas._inclusion(k, fr.synthesis_op, 1e-9)[0]
        try:
            atomic_coefficients(fr, k, 1e-9)
            atomic_ok = True
        except AtomicSystemError:
            atomic_ok = False
        assert atomic_ok == inclusion


@pytest.mark.parametrize(
    "dims", [(2, 1), (1,), (3, 2, 1)], ids=lambda d: "+".join(map(str, d))
)
def test_coefficient_bound_holds_through_the_flattening(dims):
    # C = ||Q|| 1 makes the bound Q*Q <= ||Q||^2 I, which always holds; the
    # one-vector-at-a-time loop, summing in the algebra, must agree with
    # the operator route on both sides of ||Q||
    spec = AlgebraSpec(dims)
    rng = stream(98, len(dims))
    fr = random_frame(spec, 2, 4, rng)
    q, c, _ = atomic_coefficients(fr, fr.synthesis_op.compose(random_operator(spec, 2, 4, rng)))
    assert c.norm() == q.norm()
    assert sequential_coefficient_bound_violation(q, c, 1e-9, stream(0, 0), 100) is None
    low = 0.5 * c
    gap = central_mult(low * low.adjoint(), 2) - q.adjoint().compose(q)
    cert = psd_certificate(gap, 1e-9, "coefficient-bound")
    assert cert.status == "falsified"
    f = cert.witness_vector
    a_f = q.apply(f)
    assert not is_positive(low * f.inner(f) * low.adjoint() - a_f.inner(a_f), 1e-9)
    assert sequential_coefficient_bound_violation(q, low, 1e-9, stream(0, 0), 100) is not None


# -- dual atoms -------------------------------------------------------------------------------


def test_dual_atoms_for_frame_operator_are_members():
    rng = stream(90, 0)
    fr = random_frame(SPEC, 2, 4, rng)
    atoms = dual_atoms(fr, fr.frame_op, 1e-9)
    for h, m in zip(atoms.members, fr.members):
        assert (h - m).norm() <= 1e-9 * max(1.0, m.norm())


def test_dual_atoms_identity_reproduce_canonical_dual():
    rng = stream(91, 0)
    fr = random_frame(SPEC, 2, 5, rng)
    atoms = dual_atoms(fr, identity_operator(SPEC, 2), 1e-9)
    s_inv = pseudo_inverse(fr.frame_op)
    for h, m in zip(atoms.members, fr.members):
        assert (h - s_inv.apply(m)).norm() <= 1e-9 * max(1.0, h.norm())
    # canonical-dual reconstruction f = sum <f, S^-1 f_j> f_j
    f = random_vector(SPEC, 2, rng)
    coeffs = [f.inner(h) for h in atoms.members]
    recon = fr.synthesis_op.apply(grid_vector(SPEC, coeffs))
    assert (f - recon).norm() <= 1e-9 * max(1.0, f.norm())


def test_dual_atoms_planted_reconstruction():
    rng = stream(92, 0)
    fr = random_frame(SPEC, 2, 4, rng)
    k = fr.synthesis_op.compose(random_operator(SPEC, 2, 4, rng))
    h_frame = dual_atoms(fr, k, 1e-9)
    for _ in range(10):
        f = random_vector(SPEC, 2, rng)
        recon = fr.synthesis_op.apply(h_frame.analysis(f))
        assert (k.apply(f) - recon).norm() <= 1e-9 * max(1.0, f.norm())


def test_dual_atoms_scale_their_residual_with_k():
    # K scaled by 1e6: ||K|| = 1.6e7 and a factorization residual of 1.6e-8,
    # 1e-15 of ||K||; all three decide it at tol with scale max(1, ||K||)
    inst = random_instance(4, "generic")
    fr, k = inst.members, inst.operators["K"].scalar_mul(1e6)
    assert k.norm() > 1e7
    _, _, residual = atomic_coefficients(fr, k, 1e-9)
    assert 1e-9 < residual <= 1e-9 * k.norm()
    assert len(dual_atoms(fr, k, 1e-9)) == fr.n_members
    cert = dual_atoms_audit(fr, k, 1e-9)
    assert cert.status == "certified", cert.witness


# -- local atoms --------------------------------------------------------------------------------


def test_local_atoms_full_module_canonical():
    rng = stream(93, 0)
    fr = random_frame(SPEC, 2, 5, rng)
    s_inv = pseudo_inverse(fr.frame_op)
    atoms = transform_frame(fr, s_inv)
    c = (s_inv.norm() * fr.synthesis_op.norm()) * SPEC.unit()
    cert = local_atoms_check(fr, identity_operator(SPEC, 2), atoms, c, 1e-9)
    assert cert.status == "certified"


def test_local_atoms_zero_projection_degenerate():
    rng = stream(94, 0)
    fr = random_frame(SPEC, 2, 3, rng)
    cert = local_atoms_check(
        fr, zero_operator(SPEC, 2, 2), fr, SPEC.unit(), 1e-9
    )
    assert cert.status == "certified"
    assert cert.witness.get("degenerate") is True


def test_local_atoms_planted_projection():
    rng = stream(95, 0)
    # members supported on the first slot only
    members = [
        grid_vector(SPEC, [random_element(SPEC, rng), 0 * SPEC.unit()]) for _ in range(4)
    ]
    fr = FrameSeq(members)
    p_grid = [
        [SPEC.unit(), 0 * SPEC.unit()],
        [0 * SPEC.unit(), 0 * SPEC.unit()],
    ]
    p = grid_operator(SPEC, p_grid)
    s_pinv = pseudo_inverse(fr.frame_op)
    atoms = transform_frame(fr, s_pinv)
    c = (s_pinv.norm() * fr.synthesis_op.norm() + 1.0) * SPEC.unit()
    cert = local_atoms_check(fr, p, atoms, c, 1e-9)
    assert cert.status == "certified"
    # the coefficient gap restricted to range(P) keeps its margin; the
    # gap compressed by P would read 0 on the kernel of P
    assert cert.witness["coefficient_gap_min"] > 0.0
    cert_full = local_atoms_check(fr, identity_operator(SPEC, 2), atoms, c, 1e-9)
    assert cert_full.status == "falsified"
    assert cert_full.witness["failed"] == "reconstruction"
    # the witness re-checks: its residual through the atoms is the reported norm
    f = cert_full.witness_vector
    recon = fr.synthesis_op.apply(atoms.analysis(f))
    assert (f - recon).norm() / f.norm() == pytest.approx(
        cert_full.witness["relative_residual"], rel=1e-9
    )
    assert cert_full.witness["relative_residual"] > BOUNDARY_FACTOR * 1e-9


def test_local_atoms_canonical_atoms_of_ill_conditioned_frame_certified():
    # cond(S) = 1e7: the reconstruction residual of the canonical dual atoms
    # is rounding of about eps cond(S), above tol on some seeds, and it
    # falsifies only above BOUNDARY_FACTOR tol
    residuals = []
    for seed in range(10):
        rng = stream(97, seed)
        sig = [np.diag(np.geomspace(1.0, 10**-3.5, 2 * d)) for d in SPEC.block_dims]
        l_op = random_unitary(SPEC, 2, rng).compose(
            ModuleOperator(SPEC, 2, 2, sig)
        ).compose(random_unitary(SPEC, 2, rng))
        fr = transform_frame(coordinate_frame(SPEC, 2), l_op)
        s_inv = pseudo_inverse(fr.frame_op)
        atoms = transform_frame(fr, s_inv)
        c = (1.001 * math.sqrt(s_inv.norm())) * SPEC.unit()
        cert = local_atoms_check(fr, identity_operator(SPEC, 2), atoms, c, 1e-9)
        assert cert.status == "certified", (seed, cert.witness)
        residuals.append(cert.witness["max_reconstruction_residual"])
    assert max(residuals) > 1e-9


@pytest.mark.parametrize("p_slots", [(0, 1), (0,)], ids=["P=I", "P=slot0"])
def test_local_atoms_non_central_bound_falsified_with_witness_in_range(p_slots):
    # C = [[3, .5], [0, 3]] + 3 is not scalar on the first block, where the
    # coefficient sum <f, f> of the coordinate frame does not vanish
    fr = coordinate_frame(SPEC, 2)
    c = SPEC.element([np.array([[3.0, 0.5], [0.0, 3.0]]), np.array([[3.0]])])
    p = grid_operator(
        SPEC,
        [[SPEC.unit() if i == j and j in p_slots else 0 * SPEC.unit() for i in range(2)]
         for j in range(2)],
    )
    cert = local_atoms_check(fr, p, fr, c, 1e-9)
    assert cert.status == "falsified"
    assert cert.witness["failed"] == "coefficient-bound"
    f = cert.witness_vector
    assert (p.apply(f) - f).norm() <= 1e-12
    gap = c * f.inner(f) * c.adjoint() - fr.coefficient_gram(f)
    scale = max(1.0, gap.norm())
    assert float(np.real(spectrum(gap)).min()) < -BOUNDARY_FACTOR * 1e-9 * scale
    # the P = I case is the Bessel inequality, decided the same way
    assert certify_star_bessel(fr, c, 1e-9).status == "falsified"


def test_dual_atoms_audit_residual_matches_atoms_synthesis():
    # H* is Q bit for bit, and K - U H* is U Q - K negated bit for bit, so
    # the residual rule on the atoms' own reconstruction reports the
    # factorization residual's bits, and certifies
    for seed in range(20):
        rng = stream(99, seed)
        fr = random_frame(SPEC, 2, 4, rng)
        k = fr.synthesis_op.compose(random_operator(SPEC, 2, 4, rng))
        cert = dual_atoms_audit(fr, k, 1e-9)
        assert cert.status == "certified"
        h = dual_atoms(fr, k, 1e-9)
        recon = (k - fr.synthesis_op.compose(h.analysis_op)).block_matrices()
        status, direct = residual_verdict(recon, 1e-9, k)
        assert status == "certified"
        assert repr(cert.witness["max_reconstruction_residual"]) == repr(direct)
        assert repr(cert.witness["factorization_residual"]) == repr(direct)
        assert direct >= (k - fr.synthesis_op.compose(h.analysis_op)).norm() * (1 - 1e-12)


def test_dual_atoms_audit_factors_only_the_frame(monkeypatch):
    # the atoms' Bessel bound holds by construction: Q* is not factored
    built = oracles.counted_factorizations(monkeypatch)
    for seed in range(10):
        rng = stream(99, seed)
        fr = random_frame(SPEC, 2, 4, rng)
        k = fr.synthesis_op.compose(random_operator(SPEC, 2, 4, rng))
        built.clear()
        cert = dual_atoms_audit(fr, k, 1e-9)
        assert (cert.status, cert.witness["bessel_status"]) == ("certified", "certified")
        assert len(built) == 1 and built[0] is fr.synthesis_op


def test_dual_atoms_of_a_zero_k_certify_at_tol_zero():
    # the atoms are all zero and so is their Bessel bound ||Q|| 1, which
    # holds; no zero bound reaches certify_star_bessel's nonzero check
    inst = random_instance(0, "generic")
    cert = dual_atoms_audit(inst.members, inst.operators["K"].scalar_mul(0.0), 0.0)
    assert (cert.status, cert.witness["bessel_status"], cert.witness["q_norm"]) == (
        "certified", "certified", 0.0)


@pytest.mark.parametrize("profile", ["generic", "rank-deficient-K"])
def test_bessel_bounds_held_by_construction_certify(profile):
    # dual_atoms_audit records this bound as certified without a check; it
    # certifies on the family's own factorization
    for seed in range(40):
        inst = random_instance(seed, profile)
        fr = inst.members
        # the rank-deficient frame is an atomic system for P, not for K = I
        k = inst.operators["K" if profile == "generic" else "P"]
        assert dual_atoms_audit(fr, k, 1e-9).witness["bessel_status"] == "certified"
        assert oracles.dual_atoms_bessel(fr, k, 1e-9).status == "certified"


def test_local_atoms_requires_projection():
    rng = stream(96, 0)
    fr = random_frame(SPEC, 2, 3, rng)
    not_proj = identity_operator(SPEC, 2).scalar_mul(2.0)
    with pytest.raises(InputError):
        local_atoms_check(fr, not_proj, fr, SPEC.unit(), 1e-9)


# -- transforms ------------------------------------------------------------------------------------


def test_transform_identity_keeps_members():
    rng = stream(97, 0)
    fr = random_frame(SPEC, 2, 4, rng)
    same = transform_frame(fr, identity_operator(SPEC, 2))
    for a, b in zip(same.members, fr.members):
        assert (a - b).norm() == 0.0


def test_conjugation_identity_holds():
    rng = stream(98, 0)
    for _ in range(5):
        fr = random_frame(SPEC, 2, 4, rng)
        k = random_operator(SPEC, 2, 2, rng)
        cert = conjugation_audit(fr, k, tol=1e-10)
        assert cert.status == "certified"
        assert cert.witness["matched"] == "KSK*"
        assert cert.witness["residual_KSK*"] <= 1e-10


def test_coisometry_preserves_optimal_bounds():
    rng = stream(99, 0)
    fr = random_frame(SPEC, 2, 5, rng)
    k = central_mult(random_central(SPEC, rng), 2)
    t = random_unitary(SPEC, 2, rng)
    cert = coisometry_invariance_audit(fr, t, k, tol=1e-8)
    assert cert.status == "certified"


def test_transform_kframe_bounds():
    # a K-frame {f_j} with bounds (A, B) makes {L f_j} an LK-frame with
    # bounds (A, ||L|| B)
    rng = stream(100, 0)
    fr = random_frame(SPEC, 2, 4, rng)
    k = fr.synthesis_op.compose(random_operator(SPEC, 2, 4, rng))
    a, b = scalar_bounds_with_margin(fr, k)
    l_op = random_operator(SPEC, 2, 2, rng)
    assert certify_kframe(fr, k, a, b, 1e-9).status == "certified"
    moved = transform_frame(fr, l_op)
    cert = certify_kframe(moved, l_op.compose(k), a, l_op.norm() * b, 1e-9)
    assert cert.status == "certified"


def test_lframe_proposition_with_pencil_scaling():
    # planted R(L) inside R(K) with invertible K: the K-frame is an
    # L-frame with lower bound sqrt(lambda) A
    rng = stream(101, 0)
    fr = random_frame(SPEC, 2, 5, rng)
    k = random_operator(SPEC, 2, 2, rng)  # invertible a.s.
    a, b = scalar_bounds_with_margin(fr, k)
    base = certify_kframe(fr, k, a, b, 1e-9)
    assert base.status == "certified"
    l_op = k.compose(random_operator(SPEC, 2, 2, rng))
    lam = pencil_lower_bound(l_op, k)
    assert lam > 0
    a_l = math.sqrt(lam) * a
    cert = certify_kframe(fr, l_op, a_l, b, 1e-9)
    assert cert.status == "certified"


# -- the K S^-1 family ------------------------------------------------------------------------------
#
# For an invertible frame operator S, K f = sum_j <f, f_j> K S^-1 f_j: the
# family {K S^-1 f_j} is {f_j} moved by K S^+ (S^+ = S^-1), and the
# identity is K = V U*, V its synthesis, checked here on the flattenings.


def ks_inverse_family(fr, k):
    return transform_frame(fr, k.compose(pseudo_inverse(fr.frame_op)))


def test_ks_inverse_with_frame_operator_returns_members():
    rng = stream(102, 0)
    fr = random_frame(SPEC, 2, 4, rng)
    new_frame = ks_inverse_family(fr, fr.frame_op)
    for h, m in zip(new_frame.members, fr.members):
        assert (h - m).norm() <= 1e-9 * max(1.0, m.norm())


def test_ks_inverse_identity_gives_canonical_dual():
    rng = stream(103, 0)
    fr = random_frame(SPEC, 2, 4, rng)
    new_frame = ks_inverse_family(fr, identity_operator(SPEC, 2))
    s_flat = flatten(fr.frame_op)
    for h, m in zip(new_frame.members, fr.members):
        want = np.linalg.solve(s_flat, flat(m))
        assert np.linalg.norm(flat(h) - want) <= 1e-10 * max(1.0, np.linalg.norm(want))


def assert_ks_inverse_reconstructs(fr, k):
    k_flat = flatten(k)
    recon = flatten(ks_inverse_family(fr, k).synthesis_op) @ flatten(fr.analysis_op)
    assert np.linalg.norm(k_flat - recon, 2) <= 1e-10 * max(1.0, np.linalg.norm(k_flat, 2))


def test_ks_inverse_random_k_reconstruction():
    rng = stream(104, 0)
    fr = random_frame(SPEC, 2, 4, rng)
    assert_ks_inverse_reconstructs(fr, random_operator(SPEC, 2, 2, rng))


def test_ks_inverse_accepts_a_small_well_conditioned_frame():
    # scaling the members by 1e-5 scales S by 1e-10 and keeps its condition
    # number: least eigenvalue 1.6e-11, below tol, but 1e-2 of ||S||, so the
    # rank cut of S^+, relative to ||S||, keeps S invertible
    inst = random_instance(3, "generic")
    small = transform_frame(inst.members, identity_operator(SPEC, inst.rank).scalar_mul(1e-5))
    assert min(w[0] for w in small.frame_op.herm_block_eigs()) < 1e-9
    for fr in (inst.members, small):
        assert_ks_inverse_reconstructs(fr, inst.operators["K"])


# -- invariants -------------------------------------------------------------------------------------------


def test_norm_form_equivalence():
    rng = stream(106, 0)
    fr = random_frame(SPEC, 2, 5, rng)
    k = fr.synthesis_op.compose(random_operator(SPEC, 2, 5, rng))
    a, b = scalar_bounds_with_margin(fr, k)
    assert certify_kframe(fr, k, a, b, 1e-9).status == "certified"
    k_adj = k.adjoint()
    for _ in range(100):
        f = random_vector(SPEC, 2, rng)
        mid = fr.coefficient_gram(f).norm()
        lhs = module_mul(k_adj.apply(f), a).norm() ** 2
        rhs = module_mul(f, b).norm() ** 2
        assert lhs <= mid + 1e-9 * max(1.0, mid)
        assert mid <= rhs + 1e-9 * max(1.0, rhs)


def test_bound_monotonicity_under_member_addition():
    rng = stream(107, 0)
    for _ in range(10):
        fr = random_frame(SPEC, 2, 4, rng)
        k = random_operator(SPEC, 2, 2, rng)
        lam0, mu0 = optimal_scalar_bounds(fr, k)
        bigger = FrameSeq(list(fr.members) + [random_vector(SPEC, 2, rng)])
        lam1, mu1 = optimal_scalar_bounds(bigger, k)
        assert lam1 >= lam0 - 1e-9 * max(1.0, lam0)
        assert mu1 >= mu0 - 1e-9 * max(1.0, mu0)


def test_kframe_rejects_non_square_k():
    rng = stream(108, 0)
    fr = random_frame(SPEC, 2, 4, rng)
    k_rect = random_operator(SPEC, 2, 3, rng)
    with pytest.raises(InputError):
        certify_kframe(fr, k_rect, SPEC.unit(), SPEC.unit(), 1e-9)
    with pytest.raises(InputError):
        atomic_coefficients(fr, k_rect, 1e-9)


def test_local_atoms_rejects_wrong_coefficient_count():
    rng = stream(109, 0)
    fr = random_frame(SPEC, 2, 4, rng)
    with pytest.raises(InputError, match="one coefficient representer"):
        local_atoms_check(
            fr, identity_operator(SPEC, 2), FrameSeq(fr.members[:-1]), SPEC.unit(), 1e-9
        )


def test_bessel_near_boundary_is_inconclusive():
    # an upper bound short by 5 tol lands in the near-boundary band
    fr = coordinate_frame(SPEC, 2)
    b = math.sqrt(1 - 5e-9) * SPEC.unit()
    cert = certify_star_bessel(fr, b, 1e-9)
    assert cert.status == "inconclusive"
    clearly_bad = math.sqrt(1 - 5e-8) * SPEC.unit()
    assert certify_star_bessel(fr, clearly_bad, 1e-9).status == "falsified"


# -- a family is stored as its synthesis operator ------------------------------------------------


@pytest.mark.parametrize(
    ("dims", "rank", "count"), [((2, 1), 2, 4), ((1,), 1, 1), ((3, 2, 1), 3, 5)]
)
def test_members_rebuild_the_synthesis_operator_bit_for_bit(dims, rank, count):
    spec = AlgebraSpec(dims)
    fr = random_frame(spec, rank, count, stream(140, rank, count))
    assert "members" not in FrameSeq.__slots__
    assert (fr.spec, fr.rank, fr.n_members) == (spec, rank, count)
    assert fr.n_members == fr.synthesis_op.in_rank
    again = FrameSeq(fr.members)
    for x, y in zip(again.synthesis_op.block_matrices(), fr.synthesis_op.block_matrices()):
        assert x.tobytes() == y.tobytes()
    for m in fr.members:
        assert m.rank == rank and all(not s.flags.writeable for s in m.stacks)
        with pytest.raises(ValueError):
            m.stacks[0][0, 0] = 1.0


def test_coordinate_frame_is_the_frame_of_coordinate_vectors():
    for dims, rank in (((2, 1), 3), ((1,), 1), ((3,), 2)):
        spec = AlgebraSpec(dims)
        fr = coordinate_frame(spec, rank)
        ref = FrameSeq([coordinate_vector(spec, rank, j) for j in range(rank)])
        for op in ("synthesis_op", "frame_op"):
            for x, y in zip(getattr(fr, op).block_matrices(), getattr(ref, op).block_matrices()):
                assert x.tobytes() == y.tobytes()


def test_dual_atoms_are_the_adjoint_coefficient_images_bit_for_bit():
    for seed in range(4):
        inst = random_instance(seed, "generic")
        fr, k = inst.members, inst.operators["K"]
        q, _, _ = atomic_coefficients(fr, k, 1e-9)
        q_adj = q.adjoint()
        atoms = dual_atoms(fr, k, 1e-9)
        assert len(atoms) == fr.n_members
        for j, h in enumerate(atoms.members):
            ref = q_adj.apply(coordinate_vector(SPEC, fr.n_members, j))
            assert all(x.tobytes() == y.tobytes() for x, y in zip(h.stacks, ref.stacks))


def test_transform_frame_matches_member_images_to_roundoff():
    # the image family's synthesis is the one product L U per block; BLAS
    # blocks that product differently from the J products L f_j, so the
    # last bits may differ, but never by more than roundoff
    rng = stream(141, 0)
    for rank, count in ((1, 3), (2, 4), (3, 6)):
        fr = random_frame(SPEC, rank, count, rng)
        l_op = random_operator(SPEC, rank, rank, rng)
        moved = transform_frame(fr, l_op)
        assert moved.n_members == count
        for h, m in zip(moved.members, fr.members):
            ref = l_op.apply(m)
            assert (h - ref).norm() <= 1e-12 * max(1.0, ref.norm())


def forbid_member_lists(monkeypatch):
    """Make `FrameSeq(members)` raise, so a family built member by member
    fails loudly."""

    def guarded(self, members):
        raise AssertionError("a family was built from a member list")

    monkeypatch.setattr(FrameSeq, "__init__", guarded)


def test_derived_families_are_built_from_their_synthesis_operators(tmp_path, monkeypatch):
    generic = random_instance(5, "generic")
    perturbed = random_instance(6, "generic")
    perturbed.h_members = transform_frame(
        perturbed.members, identity_operator(SPEC, perturbed.rank).scalar_mul(1.0 + 1e-3)
    )
    rankdef = random_instance(2, "rank-deficient-K")
    with_atoms = random_instance(2, "rank-deficient-K")
    with_atoms.g_members = transform_frame(
        with_atoms.members, pseudo_inverse(with_atoms.members.frame_op)
    )
    files = {}
    for name, inst in (("generic", generic), ("perturbed", perturbed), ("rankdef", rankdef),
                       ("atoms", with_atoms), ("tensor", tensor_pair_instance(3))):
        files[name] = str(tmp_path / f"{name}.json")
        save_instance(inst, files[name])
    # files decode straight into synthesis operators: no entry point may
    # build a family from a member list
    forbid_member_lists(monkeypatch)

    runs = [["suite", name, "--trials", "3"] for name in SUITES]
    runs += [[command, "--profile", "generic", "--seed", "2"] for command in COMMANDS
             if command not in ("suite", "local-atoms")]
    runs += [["local-atoms", "--profile", "rank-deficient-K", "--seed", "2"],
             ["perturb1", "--input", files["generic"], "--profile", "generic"]]
    runs += [[command, "--input", files["generic"]] for command in COMMANDS
             if command not in ("suite", "local-atoms", "tensor", "perturb1", "perturb2")]
    runs += [["bounds", "--input", files["rankdef"]],
             ["local-atoms", "--input", files["rankdef"]],
             ["local-atoms", "--input", files["atoms"]],
             ["tensor", "--input", files["tensor"]],
             ["perturb1", "--input", files["perturbed"]],
             ["perturb2", "--input", files["perturbed"]]]
    assert {r[0] for r in runs} == set(COMMANDS)
    assert {r[0] for r in runs if "--input" in r} == set(COMMANDS) - {"suite"}
    for argv in runs:
        assert main(argv + ["--samples", "20"]) in (0, 1, 2), argv

    fr, k = generic.members, generic.operators["K"]
    assert dual_atoms(fr, k, 1e-9).n_members == fr.n_members
    transform_frame(fr, generic.operators["L"])
    local_atoms_check(fr, identity_operator(SPEC, generic.rank), dual_atoms(fr, k, 1e-9),
                      SPEC.unit(), 1e-9)
    coordinate_frame(SPEC, 2)
    w = tensor_witness(SPEC, AlgebraSpec((1,)))
    right = coordinate_frame(w.right, 1)
    assert tensor_frame(w, fr, right).n_members == fr.n_members
    with pytest.raises(AssertionError, match="member list"):
        FrameSeq(fr.members)


# -- per-block gaps against the diagonal-operator reference ----------------------------------


def recorded_gaps(monkeypatch):
    """The gap operators `frames` hands to psd_certificate, in call order,
    formed here where it hands over the function forming one."""
    gaps = []
    decide = frames.psd_certificate

    def recording(gap, *args, **kwargs):
        gaps.append(gap if isinstance(gap, ModuleOperator) else gap())
        return decide(gaps[-1], *args, **kwargs)

    monkeypatch.setattr(frames, "psd_certificate", recording)
    return gaps


def off_line(x, size):
    """x plus size ||x|| in the off-diagonal corner of its 2 x 2 block."""
    e = np.zeros((2, 2), dtype=complex)
    e[0, 1] = size * x.norm()
    return x + SPEC.element([e, np.zeros((1, 1))])


BOUND_KINDS = {
    "real": lambda x: x,
    "complex": lambda x: cmath.exp(0.7j) * x,
    "within-tol": lambda x: off_line(x, 1e-12),
    "non-scalar": lambda x: off_line(x, 0.3),
}


def gap_inputs(seed, scale, kind="real"):
    """(frame, K, A, B) of a generic instance and (frame, P, atoms, C) as
    the local-atoms command builds them on a rank-deficient-K instance.
    The bounds start as real c 1 (the stored A and B, the command's C),
    are tightened by scale (1 certifies) and then made of the given kind."""
    inst = random_instance(seed, "generic")
    rd = random_instance(seed, "rank-deficient-K")
    s_pinv = pseudo_inverse(rd.members.frame_op)
    c = (s_pinv.norm() * rd.members.synthesis_op.norm()) * SPEC.unit()
    kind = BOUND_KINDS[kind]
    return (inst.members, inst.operators["K"], kind(scale * inst.bounds["A"]),
            kind((1.0 / scale) * inst.bounds["B"]), rd.members, rd.operators["P"],
            transform_frame(rd.members, s_pinv), kind((1.0 / scale) * c))


def run_gap_checks(fr, k, a, b, loc_fr, p, atoms, c, tol=1e-9):
    return [certify_kframe(fr, k, a, b, tol), certify_star_bessel(fr, b, tol),
            local_atoms_check(loc_fr, p, atoms, c, tol)]


@pytest.mark.parametrize("seed", range(6))
def test_real_central_gaps_match_the_reference_bit_for_bit(seed, monkeypatch):
    gaps = recorded_gaps(monkeypatch)
    statuses = set()
    for scale in (1.0, 4.0):
        inputs = gap_inputs(seed, scale)
        fr, k, a, b, _, p, atoms, c = inputs
        gaps.clear()
        statuses.update(cert.status for cert in run_gap_checks(*inputs))
        expected = [reference_gap(a, fr.frame_op, 1e-9, k), reference_gap(b, fr.frame_op, 1e-9),
                    reference_gap(b, fr.frame_op, 1e-9),
                    reference_local_atoms_gap(p, atoms.frame_op, c, 1e-9)]
        assert len(gaps) == len(expected)
        for got, want in zip(gaps, expected):
            for gm, wm in zip(got.block_matrices(), want.block_matrices()):
                assert np.array_equal(gm, wm)
    assert statuses == {"certified", "falsified"}


@pytest.mark.parametrize("kind", ["complex", "within-tol", "non-scalar"])
@pytest.mark.parametrize("seed", range(6))
def test_other_bound_gaps_decide_as_the_reference(seed, kind, monkeypatch):
    statuses = set()
    for scale in (1.0, 4.0):
        inputs = gap_inputs(seed, scale, kind)
        certs = run_gap_checks(*inputs)
        with monkeypatch.context() as m:
            m.setattr(frames, "_gap", reference_gap)
            assert [c.status for c in run_gap_checks(*inputs)] == [c.status for c in certs]
        statuses.update(cert.status for cert in certs)
        # every falsified witness re-checks through the term-by-term middle
        fr, k, a, b, _, _, atoms, c = inputs
        kframe, bessel, local = certs
        if kframe.status == "falsified":
            w = kframe.witness_vector
            assert not (is_positive(lower_gap_at(fr, k, a, w), 1e-9)
                        and is_positive(upper_gap_at(fr, b, w), 1e-9))
        if bessel.status == "falsified":
            assert not is_positive(upper_gap_at(fr, b, bessel.witness_vector), 1e-9)
        if local.status == "falsified":
            assert local.witness["failed"] == "coefficient-bound"
            assert not is_positive(upper_gap_at(atoms, c, local.witness_vector), 1e-9)
    assert "falsified" in statuses


@pytest.mark.parametrize("seed", range(3))
def test_central_bounds_take_no_kernel_call_and_no_diagonal_operator(seed, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("diagonal_operator was called")

    calls = oracles.record_kernels(monkeypatch)
    monkeypatch.setattr(frames, "diagonal_operator", forbidden)
    for scale in (1.0, 4.0):
        fr, k, a, b, loc_fr, p, atoms, c = gap_inputs(seed, scale)
        calls.clear()
        # U was factored when the instance derived its bounds, so the upper
        # halves read its kept singular values
        certify_kframe(fr, k, a, b, 1e-9)
        certify_star_bessel(fr, b, 1e-9)
        assert calls.of(*oracles.SVDS) == []
        local_atoms_check(loc_fr, p, atoms, c, 1e-9)
        assert not any(np.shares_memory(x, blk) for x in calls.of(*oracles.SVDS)
                       for blk in c.blocks)


# -- the upper inequality from U's kept singular values ---------------------------------------


def eigen_route_upper(frame, b, tol, claim="star-bessel"):
    """The upper inequality decided by an eigvalsh of every formed gap block."""
    return frames._decide(frame, b, None, frames._gap(b, frame.frame_op, tol), tol, claim)


# per block of a bound: |c|^2 as a multiple of sigma_max(U_b)^2, spread
# over falsified (0.5), inconclusive (1 - 5e-9) and certified (1 + 1e-6, 2)
UPPER_FACTORS = (0.5, 1.0 - 5e-9, 1.0 + 1e-6, 2.0)
UPPER_KINDS = ("real", "complex", "within-tol", "non-scalar")


def upper_case(seed):
    """A frame, possibly tall (J < n), and a bound whose blocks mix exact
    real and complex scalars, near-scalars within tol and non-scalars;
    1 x 1 blocks are exact."""
    rng = stream(seed, 9)
    spec = AlgebraSpec([(3, 2, 1), (1,), (1, 1), (2, 1)][seed % 4])
    n, count = int(rng.integers(1, 4)), int(rng.integers(1, 6))
    u = random_operator(spec, count, n, rng)
    blocks = []
    for i, (d, m) in enumerate(zip(spec.block_dims, u.block_matrices())):
        kind = UPPER_KINDS[(seed // 4 + i) % (4 if d > 1 else 2)]
        size = UPPER_FACTORS[int(rng.integers(4))] ** 0.5 * np.linalg.norm(m, 2)
        c = size * (cmath.exp(0.7j) if kind == "complex" else 1.0)
        blk = c * np.eye(d, dtype=complex)
        if kind in ("within-tol", "non-scalar"):
            blk[0, 1] = size * (1e-12 if kind == "within-tol" else 0.3)
        blocks.append(blk)
    return frames._family(u), spec.element(blocks)


@pytest.mark.parametrize("seed", range(48))
def test_upper_route_decides_as_the_eigen_route(seed):
    frame, b = upper_case(seed)
    cert = certify_star_bessel(frame, b, 1e-9)
    ref = eigen_route_upper(_copy_frame(frame), b, 1e-9)
    scale = ref.witness["scale"]
    assert cert.status == ref.status
    assert abs(cert.witness["min_eig"] - ref.witness["min_eig"]) <= 1e-12 * scale
    assert abs(cert.witness["scale"] - scale) <= 1e-12 * scale
    # the rest of the witness, and a falsified witness vector, bit for bit
    drop = ("min_eig", "scale")
    assert {k: v for k, v in cert.witness.items() if k not in drop} == {
        k: v for k, v in ref.witness.items() if k not in drop}
    if ref.witness_vector is None:
        assert cert.witness_vector is None
    else:
        assert all(x.tobytes() == y.tobytes()
                   for x, y in zip(cert.witness_vector.stacks, ref.witness_vector.stacks))
    # the upper half of a K-frame certificate is the same decision
    k = identity_operator(frame.spec, frame.rank).scalar_mul(0.0)
    kframe = certify_kframe(frame, k, frame.spec.unit(), b, 1e-9)
    assert kframe.witness["parts"][1] == cert.witness


def test_upper_route_cases_cover_tall_frames_1x1_blocks_and_every_status():
    cases = [upper_case(seed) for seed in range(48)]
    assert any(fr.n_members < fr.rank for fr, _ in cases)
    assert any(fr.spec.block_dims == (1,) for fr, _ in cases)
    kinds = set()
    for _, b in cases:
        exact, scalar = b.exact_scalars(), b.scalar_blocks(1e-9)
        kinds.add((any(c is not None for c in exact),
                   any(s and c is None for c, s in zip(exact, scalar)), not all(scalar)))
    assert (True, True, True) in kinds
    statuses = {certify_star_bessel(fr, b, 1e-9).status for fr, b in cases}
    assert statuses == {"certified", "falsified", "inconclusive"}


def _copy_frame(frame):
    u = frame.synthesis_op
    return frames._family(ModuleOperator(u.spec, u.in_rank, u.out_rank, u.block_matrices()))


@pytest.mark.parametrize("seed", range(8))
def test_upper_route_does_not_depend_on_a_kept_factorization(seed):
    # the route factors U on first use, so a cold U and one factored by an
    # earlier pencil give the same bits
    frame, b = upper_case(seed)
    warm = _copy_frame(frame)
    pencil_lower_bound(identity_operator(frame.spec, frame.rank), warm.synthesis_op)
    cold = _copy_frame(frame)
    assert cold.synthesis_op._fac is None
    got = [certify_star_bessel(fr, b, 1e-9) for fr in (cold, warm)]
    assert repr(got[0].witness) == repr(got[1].witness)
    assert got[0].status == got[1].status


# -- the exactly central lower inequality from the pencil ---------------------------------


def block_pencils(frame, k_op):
    """Per block lambda_b = 1 / lambda_max(K_b^H S_b^-1 K_b), the largest
    |c|^2 with |c|^2 K_b K_b^H <= S_b for an invertible S_b, by numpy's
    solve; 1 where K_b = 0."""
    lams = []
    for s, k in zip(frame.frame_op.block_matrices(), k_op.block_matrices()):
        m = k.conj().T @ np.linalg.solve(s, k)
        top = np.linalg.eigvalsh(0.5 * (m + m.conj().T))[-1]
        lams.append(1.0 / top if top > 0 else 1.0)
    return lams


def pencil_route_case(spec, seed, rank, extra, deficient):
    """A frame of rank + extra members in A^rank, onto in every block, and
    a generic K or one that vanishes on the last slot."""
    rng = stream(seed, 11)
    frame = random_frame(spec, rank, rank + extra, rng)
    mats = [np.array(m) for m in random_operator(spec, rank, rank, rng).block_matrices()]
    if deficient:
        for d, m in zip(spec.block_dims, mats):
            m[:, -d:] = 0.0
    return frame, ModuleOperator(spec, rank, rank, mats)


@settings(max_examples=60, deadline=None)
@given(
    dims=st.sampled_from([(2, 1), (3,)]),
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 2),
    extra=st.integers(0, 2),
    deficient=st.booleans(),
    sign=st.sampled_from([-1.0, 1.0]),
    delta=st.sampled_from([1e-1, 1e-6, 0.0]),
    tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
)
def test_pencil_route_decides_as_the_gap_route(dims, seed, rank, extra, deficient, sign, delta,
                                               tol):
    # A = sqrt(lambda_b (1 -+ delta)) 1 per block: the pencil route gives
    # the gap route's status and witness, at tol 0 too, and where it
    # decides, every block's gap has its least eigenvalue at or above 0
    # in floats and the pair it reports bounds the gap's extreme
    # eigenvalues
    spec = AlgebraSpec(dims)
    frame, k = pencil_route_case(spec, seed, rank, extra, deficient)
    assume(douglas._factorization(frame.synthesis_op).onto_norms(k) is not None)
    a = spec.central([math.sqrt(lam * (1.0 + sign * delta)) for lam in block_pencils(frame, k)])
    b = spec.central([math.sqrt(frame.frame_op.norm()) * (1.0 + 1e-6)] * spec.n_blocks)
    cert = certify_kframe(frame, k, a, b, tol)
    ref = oracles.gap_route_kframe(frame, k, a, b, tol)
    assert cert.status == ref.status
    if ref.witness_vector is None:
        assert cert.witness_vector is None
    else:
        assert all(x.tobytes() == y.tobytes()
                   for x, y in zip(cert.witness_vector.stacks, ref.witness_vector.stacks))
    eigs = frames._scalar_lower_eigs(frame, k, a)
    if sign < 0 and delta == 1e-1:
        assert eigs is not None
    if eigs is None:
        assert repr(cert.witness) == repr(ref.witness)
    else:
        gap = reference_gap(a, frame.frame_op, tol, k)
        for w, g, s in zip(eigs, gap.block_matrices(), frame.frame_op.block_matrices()):
            ev = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
            slack = 1e-12 * max(1.0, np.linalg.norm(s, 2))
            assert 0.0 < w[0] <= ev[0] + slack and ev[0] >= 0.0
            assert ev[-1] <= w[-1] + slack
    # the route reads U's kept norms of K where an earlier pencil left
    # them, and takes them itself on a cold U: the same bits either way
    optimal_scalar_bounds(frame, k)
    cold = certify_kframe(_copy_frame(frame), k, a, b, tol)
    assert repr(cold.witness) == repr(certify_kframe(frame, k, a, b, tol).witness)


@pytest.mark.parametrize("second", ["not-onto", "onto-violated"])
def test_pencil_route_leaves_a_mixed_lower_gap_to_the_gap_route(second):
    # block 0: an onto U_0 of norm 100 whose central lower bound the pencil
    # certifies on its own; block 1: a gap diag(-1e-9, .) the pencil cannot
    # certify, on a U_1 of rank 1 or on an onto U_1.  The excess 1e-9 lies
    # above tol but within tol times the gap's scale, which block 0's
    # sigma_max^2 = 1e4 sets, so the gap route certifies; the pencil
    # decides no block of it, and every reported bit is the gap route's
    spec = AlgebraSpec((1, 1))
    u0 = 100.0 * np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
    u1 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]] if second == "not-onto"
                  else [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    frame = frames._family(ModuleOperator(spec, 3, 2, [u0, u1]))
    k = ModuleOperator(spec, 2, 2, [0.5 * np.eye(2), np.diag([math.sqrt(1.0 + 1e-9), 0.5])
                                    if second == "onto-violated"
                                    else np.diag([math.sqrt(1.0 + 1e-9), 0.0])])
    a, b = spec.unit(), 101.0 * spec.unit()
    optimal_scalar_bounds(frame, k)
    assert frames._scalar_lower_eigs(frame, k, a) is None
    alone = frames._family(ModuleOperator(spec, 3, 2, [u0, u0]))
    assert frames._scalar_lower_eigs(alone, ModuleOperator(spec, 2, 2, [0.5 * np.eye(2)] * 2),
                                     a) is not None
    cert = certify_kframe(frame, k, a, b, 1e-12)
    ref = oracles.gap_route_kframe(frame, k, a, b, 1e-12)
    assert ref.status == cert.status == "certified"
    assert repr(cert.witness) == repr(ref.witness)
    lower = cert.witness["parts"][0]
    assert -1.1e-9 < lower["min_eig"] < -0.9e-9 and lower["scale"] > 1e3


@pytest.mark.parametrize("stored", [False, True], ids=["derived", "stored"])
@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3], ids=["24+12", "0", "1", "2", "3"])
def test_pencil_kframe_takes_no_kernel_call_after_its_pencil(seed, stored, monkeypatch):
    # the K-frame verdict of every command and perturbation conclusion,
    # with the instance's stored bounds or the ones derived from the pencil
    if seed is None:  # the large-blocks shape: 12 members in A^4, K = U Q
        spec = AlgebraSpec((24, 12))
        rng = stream(78, 2)
        frame = random_frame(spec, 4, 12, rng)
        k = frame.synthesis_op.compose(random_operator(spec, 4, 12, rng))
    else:
        inst = random_instance(seed, "generic")
        frame, k = inst.members, inst.operators["K"]
    lam, mu = optimal_scalar_bounds(frame, k)
    a, b = frames.derived_bounds(frame, lam, mu)
    calls = oracles.record_kernels(monkeypatch)
    cert = frames._pencil_kframe(frame, k, lam, b, 1e-9, "star-kframe", {},
                                 a if stored else None)
    assert calls == []
    monkeypatch.undo()
    assert cert.ok


def test_central_bounds_built_by_arithmetic_take_no_kernel_call_and_no_scan(monkeypatch):
    # the large-blocks K-frame call: bounds c 1 and d 1 built as numbers
    # times the unit carry their exact scalars from construction, so with
    # U's factorization and the K norms kept the certificate takes no
    # kernel call and scans no block of either bound
    from cstarframes import algebra

    spec = AlgebraSpec((24, 12))
    rng = stream(78, 3)
    frame = random_frame(spec, 4, 12, rng)
    k = frame.synthesis_op.compose(random_operator(spec, 4, 12, rng))
    lam, mu = optimal_scalar_bounds(frame, k)

    def forbidden(b):
        raise AssertionError("a bound's block was scanned")

    calls = oracles.record_kernels(monkeypatch)
    monkeypatch.setattr(algebra, "_scalar_of", forbidden)
    a = math.sqrt(lam * (1.0 - 1e-6)) * spec.unit()
    b = math.sqrt(mu) * (1.0 + 1e-6) * spec.unit()
    assert a._exact is not None and b._exact is not None
    cert = certify_kframe(frame, k, a, b, 1e-9)
    assert calls == []
    monkeypatch.undo()
    assert cert.status == "certified"
    assert [x.tobytes() for x in a.exact_scalars()] == [
        x.tobytes() for x in AlgElement(spec, a.blocks).exact_scalars()]


@pytest.mark.parametrize("seed", range(16))
def test_upper_route_forms_the_gap_only_to_eigensolve_or_witness(seed, monkeypatch):
    frame, b = upper_case(seed)
    cert = certify_star_bessel(frame, b, 1e-9)
    formed = []
    real_gap = frames._gap

    def counting_gap(*args, **kwargs):
        formed.append(args)
        return real_gap(*args, **kwargs)

    monkeypatch.setattr(frames, "_gap", counting_gap)
    again = certify_star_bessel(frame, b, 1e-9)
    assert repr(again.witness) == repr(cert.witness)
    all_exact = all(c is not None for c in b.exact_scalars())
    assert len(formed) == (0 if all_exact and cert.status != "falsified" else 1)
