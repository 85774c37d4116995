import gc
import inspect
import math
import re
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cstarframes
from cstarframes import _kernels
from cstarframes import (
    AlgElement,
    AlgebraSpec,
    Certificate,
    FrameSeq,
    ModuleOperator,
    atomic_coefficients,
    certify_kframe,
    douglas,
    dual_atoms_audit,
    equivalence_audit,
    identity_operator,
    optimal_scalar_bounds,
    pencil_lower_bound,
    pseudo_inverse,
)
from cstarframes.certify import BOUNDARY_FACTOR, pencil_verdict
from cstarframes.hilbmod import ModuleOperator
from cstarframes.sampling import (
    random_operator,
    random_unitary,
    random_vector,
    stream,
)

import oracles
from oracles import grid_operator, module_mul, pencil_oracle, random_element, zero_operator

SPEC = AlgebraSpec((2, 1))


def make_rank_deficient(spec, in_rank, out_rank, rng):
    """Operator whose range misses the last coordinate slot."""
    s0 = random_operator(spec, in_rank, out_rank, rng)
    grid = [
        [spec.unit() if (i == j and j < out_rank - 1) else 0 * spec.unit()
         for i in range(out_rank)]
        for j in range(out_rank)
    ]
    from cstarframes.hilbmod import ModuleOperator

    return grid_operator(spec, grid).compose(s0)


# -- pseudo-inverse ---------------------------------------------------------------


def test_pinv_identity_and_zero():
    ident = identity_operator(SPEC, 2)
    assert (pseudo_inverse(ident) - ident).norm() <= 1e-12
    z = zero_operator(SPEC, 2, 3)
    assert pseudo_inverse(z).norm() == 0.0
    assert pseudo_inverse(z).in_rank == 3
    assert pseudo_inverse(z).out_rank == 2


def test_pinv_full_rank_left_inverse():
    rng = stream(50, 0)
    t = random_operator(SPEC, 2, 3, rng)  # tall: injective a.s.
    p = pseudo_inverse(t)
    assert (p.compose(t) - identity_operator(SPEC, 2)).norm() <= 1e-9


def test_penrose_identities():
    rng = stream(51, 0)
    for in_rank, out_rank in [(2, 2), (2, 3), (3, 2)]:
        t = random_operator(SPEC, in_rank, out_rank, rng)
        p = pseudo_inverse(t)
        scale = max(1.0, t.norm())
        assert (t.compose(p).compose(t) - t).norm() <= 1e-9 * scale
        assert (p.compose(t).compose(p) - p).norm() <= 1e-9 * scale
        tp = t.compose(p)
        pt = p.compose(t)
        assert (tp.adjoint() - tp).norm() <= 1e-9 * scale
        assert (pt.adjoint() - pt).norm() <= 1e-9 * scale


def test_pinv_is_module_linear():
    rng = stream(52, 0)
    t = random_operator(SPEC, 2, 3, rng)
    q = pseudo_inverse(t)
    a = random_element(SPEC, rng)
    f = random_vector(SPEC, 3, rng)
    lhs = q.apply(module_mul(f, a))
    rhs = module_mul(q.apply(f), a)
    assert (lhs - rhs).norm() <= 1e-10 * max(1.0, lhs.norm())


# -- range inclusion -----------------------------------------------------------------


def test_range_inclusion_reflexive():
    rng = stream(53, 0)
    s = random_operator(SPEC, 2, 3, rng)
    assert douglas._inclusion(s, s, 1e-9)[0]


def test_zero_range_excludes_nonzero():
    rng = stream(54, 0)
    t = random_operator(SPEC, 2, 3, rng)
    assert not douglas._inclusion(t, zero_operator(SPEC, 2, 3), 1e-9)[0]


def test_planted_inclusion_and_violation():
    rng = stream(55, 0)
    for _ in range(10):
        s = make_rank_deficient(SPEC, 2, 3, rng)
        q0 = random_operator(SPEC, 2, 2, rng)
        t_in = s.compose(q0)
        assert douglas._inclusion(t_in, s, 1e-9)[0]
        coproj = identity_operator(SPEC, 3) - s.compose(pseudo_inverse(s))
        t_out = t_in + coproj.compose(random_operator(SPEC, 2, 3, rng))
        assert not douglas._inclusion(t_out, s, 1e-9)[0]


# -- pencil lower bound -----------------------------------------------------------------


def test_pencil_reflexive_is_one():
    rng = stream(56, 0)
    s = random_operator(SPEC, 3, 3, rng)
    assert pencil_lower_bound(s, s) == pytest.approx(1.0, abs=1e-9)


def test_pencil_scaling():
    rng = stream(57, 0)
    s = random_operator(SPEC, 3, 3, rng)
    t = s.scalar_mul(2.0)
    assert pencil_lower_bound(t, s) == pytest.approx(0.25, abs=1e-9)
    for c in (0.5, 3.0, 1.5j):
        t2 = s.scalar_mul(c)
        assert pencil_lower_bound(t2, s) == pytest.approx(
            1.0 / abs(c) ** 2, rel=1e-9
        )


def test_pencil_matches_generalized_eigenvalue_oracle():
    rng = stream(58, 0)
    for k in range(10):
        s = make_rank_deficient(SPEC, 2, 3, rng) if k % 2 else random_operator(SPEC, 2, 3, rng)
        t = s.compose(random_operator(SPEC, 2, 2, rng))
        got = pencil_lower_bound(t, s)
        want = pencil_oracle(t, s)
        assert got == pytest.approx(want, rel=1e-8)


def test_pencil_zero_on_violation():
    rng = stream(59, 0)
    s = make_rank_deficient(SPEC, 2, 3, rng)
    coproj = identity_operator(SPEC, 3) - s.compose(pseudo_inverse(s))
    t = coproj.compose(random_operator(SPEC, 2, 3, rng))
    assert pencil_lower_bound(t, s) == 0.0


def test_pencil_infinite_for_zero_t():
    rng = stream(60, 0)
    s = random_operator(SPEC, 2, 3, rng)
    assert math.isinf(pencil_lower_bound(zero_operator(SPEC, 2, 3), s))


# -- the minimal solution Q = S^+ T, read off the audit's witness ----------------------------
#
# condition (iv) is the factorization residual of S Q = T; q_norm is ||Q||


def test_solve_reflexive():
    rng = stream(61, 0)
    s = random_operator(SPEC, 2, 3, rng)
    w = equivalence_audit(s, s, 1e-9).witness
    assert w["cond_iv"]
    assert w["factorization_residual"] <= 1e-9
    assert w["q_norm"] <= 1.0 + 1e-9


def test_solve_planted_factorization_minimality():
    # the residual rule's value bounds ||S Q - T|| from above
    rng = stream(62, 0)
    for _ in range(10):
        s = random_operator(SPEC, 2, 3, rng)
        q0 = random_operator(SPEC, 2, 2, rng)
        t = s.compose(q0)
        w = equivalence_audit(t, s, 1e-9).witness
        assert w["cond_iv"]
        assert w["factorization_residual"] <= 1e-9 * max(1.0, t.norm())
        assert w["q_norm"] <= q0.norm() + 1e-9


def test_solve_inclusion_violation():
    rng = stream(63, 0)
    s = make_rank_deficient(SPEC, 2, 3, rng)
    coproj = identity_operator(SPEC, 3) - s.compose(pseudo_inverse(s))
    t = s.compose(random_operator(SPEC, 2, 2, rng)) + coproj.compose(
        random_operator(SPEC, 2, 3, rng)
    )
    w = equivalence_audit(t, s, 1e-9).witness
    assert not w["cond_iv"]
    assert w["pencil_mu"] <= 1e-9


def test_minimal_norm_matches_pencil():
    rng = stream(64, 0)
    for _ in range(10):
        s = random_operator(SPEC, 2, 3, rng)
        t = s.compose(random_operator(SPEC, 2, 2, rng))
        w = equivalence_audit(t, s, 1e-9).witness
        assert w["q_norm"] ** 2 == pytest.approx(1.0 / w["pencil_mu"], rel=1e-6)


# -- equivalence audit -------------------------------------------------------------------


def test_audit_reflexive_positive():
    rng = stream(65, 0)
    s = random_operator(SPEC, 2, 3, rng)
    cert = equivalence_audit(s, s, 1e-9)
    assert cert.status == "certified"
    assert cert.witness["cond_i"] and cert.witness["cond_iv"]


@pytest.mark.parametrize("size", [1.0, 3e3, 1e5, 1e6])
def test_audit_equivalent_pairs_at_large_norm(size):
    # S S* - mu T T* cancels for T = S and T = S U (U unitary), while its
    # rounding grows like eps ||S||^2; out_rank > in_rank gives S a cokernel
    rng = stream(75, 0)
    for spec in (SPEC, AlgebraSpec((3, 2, 1))):
        s = random_operator(spec, 2, 3, rng).scalar_mul(size)
        for t in (s, s.compose(random_unitary(spec, 2, rng))):
            cert = equivalence_audit(t, s, 1e-9)
            assert cert.status == "certified", (spec.block_dims, cert.witness)
            assert cert.witness["cond_iii"]


def test_audit_planted_violation_negative():
    rng = stream(66, 0)
    s = make_rank_deficient(SPEC, 2, 3, rng)
    coproj = identity_operator(SPEC, 3) - s.compose(pseudo_inverse(s))
    t = coproj.compose(random_operator(SPEC, 2, 3, rng))
    cert = equivalence_audit(t, s, 1e-9)
    assert cert.status == "certified"
    assert not cert.witness["cond_i"]
    assert not cert.witness["cond_ii"]


def test_audit_agreement_on_mixed_ensemble():
    rng = stream(67, 0)
    agree = 0
    total = 30
    for k in range(total):
        s = make_rank_deficient(SPEC, 2, 3, rng)
        t = s.compose(random_operator(SPEC, 2, 2, rng))
        if k % 2:
            coproj = identity_operator(SPEC, 3) - s.compose(pseudo_inverse(s))
            t = t + coproj.compose(random_operator(SPEC, 2, 3, rng))
        cert = equivalence_audit(t, s, 1e-9)
        if cert.status == "certified":
            agree += 1
        assert cert.witness["cond_i"] == (k % 2 == 0)
    assert agree == total


def test_audit_near_boundary_pencil_is_inconclusive():
    rng = stream(68, 0)
    s = random_operator(SPEC, 2, 2, rng)
    t = s.scalar_mul(1.0 / math.sqrt(5e-9))  # pencil value 5e-9 in (tol, 10 tol]
    cert = equivalence_audit(t, s, 1e-9)
    assert cert.status == "inconclusive"


@pytest.mark.parametrize(("tol", "sigma"), [(1e-12, 1e-10), (1e-12, 1e-11), (0.0, 1e-13)])
def test_audit_failed_inclusion_without_a_witness_is_inconclusive(tol, sigma):
    # S = diag(1, sigma): the rank cut drops sigma, so (i) finds R(I) not
    # inside R(S), but ||S* e_2|| = sigma exceeds tol, so the cokernel
    # direction does not re-check and (iii) is not witnessed false
    spec = AlgebraSpec((1,))
    t = ModuleOperator(spec, 2, 2, [np.eye(2, dtype=complex)])
    s = ModuleOperator(spec, 2, 2, [np.diag([1.0, sigma]).astype(complex)])
    cert = equivalence_audit(t, s, tol)
    conds = [cert.witness[f"cond_{c}"] for c in ("i", "ii", "iii", "iv")]
    assert (cert.status, cert.witness_vector, conds) == (
        "inconclusive", None, [False, False, True, False])
    assert cert.witness["cond_iii_s_adj_norm"] == pytest.approx(sigma)
    assert oracles.reference_equivalence_audit(t, s, tol).status == "inconclusive"


@pytest.mark.parametrize(("ratio", "tol", "included"), [
    (2e-9, 1e-9, False), (5e-9, 1e-9, False),
    (2e-8, 1e-6, True), (1e-7, 1e-6, True), (5e-7, 1e-6, True),
])
def test_audit_decides_every_condition_at_the_callers_tol(ratio, tol, included):
    # T = S R plus a cokernel part with range residual / ||T|| = ratio: the
    # four conditions, the pencil's range inclusion among them, agree at
    # tol whichever side of it the residual lies
    rng = stream(69, 0)
    s = make_rank_deficient(SPEC, 2, 3, rng)
    sr = s.compose(random_operator(SPEC, 2, 2, rng))
    coproj = identity_operator(SPEC, 3) - s.compose(pseudo_inverse(s))
    e = coproj.compose(random_operator(SPEC, 2, 3, rng))
    t = sr + e.scalar_mul(ratio * sr.norm() / e.norm())
    assert t.norm() > 1.0
    assert oracles.reference_range_residual(t, s) / t.norm() == pytest.approx(ratio, rel=1e-6)
    cert = equivalence_audit(t, s, tol)
    assert cert.status == "certified", cert.witness
    conds = [cert.witness[f"cond_{c}"] for c in ("i", "ii", "iii", "iv")]
    assert conds == [included] * 4
    assert (cert.witness["pencil_mu"] > 0.0) == included
    assert (pencil_lower_bound(t, s, tol) > 0.0) == included


# -- the factored toolkit, checked against the per-function code ---------------------------

ORACLE_SPECS = [AlgebraSpec(d) for d in ((2, 1), (1,), (3, 2, 1))]


def spec_id(spec):
    return "+".join(map(str, spec.block_dims))


def douglas_cases(spec, rng):
    """(name, T, S) pairs covering the branches of every Douglas function."""
    s = random_operator(spec, 2, 3, rng)
    s_def = make_rank_deficient(spec, 2, 3, rng)
    coproj = identity_operator(spec, 3) - s_def.compose(pseudo_inverse(s_def))
    t_def = s_def.compose(random_operator(spec, 2, 2, rng))
    return [
        ("generic", s.compose(random_operator(spec, 2, 2, rng)), s),
        ("rank-deficient-S", t_def, s_def),
        ("zero-S", random_operator(spec, 2, 3, rng), zero_operator(spec, 2, 3)),
        ("zero-T", zero_operator(spec, 2, 3), s),
        ("failed-inclusion", t_def + coproj.compose(random_operator(spec, 2, 3, rng)), s_def),
        ("near-boundary", s.scalar_mul(1.0 / math.sqrt(5e-9)), s),
        ("onto-S", random_operator(spec, 2, 2, rng), random_operator(spec, 3, 2, rng)),
    ]


def same_bits(a, b):
    """Bit identity of floats, reports and operators (repr keeps -0.0 and
    every digit of a float)."""
    if hasattr(a, "block_matrices"):
        return all(x.tobytes() == y.tobytes() for x, y in zip(a.block_matrices(), b.block_matrices()))
    return repr(a) == repr(b)


def same_certificate(a, b):
    vec_a, vec_b = a.witness_vector, b.witness_vector
    return (
        (a.status, a.claim, repr(a.witness), a.tol)
        == (b.status, b.claim, repr(b.witness), b.tol)
        and (vec_a is None) == (vec_b is None)
        and (vec_a is None or all(x.tobytes() == y.tobytes()
                                  for x, y in zip(vec_a.stacks, vec_b.stacks)))
    )


# Residuals the oracles take by another sum agree to a few rounding errors
# of an SVD.  Condition (iii)'s gap S S* - mu T T* moves with mu by at most
# whitened_rtol mu ||T||^2 <= whitened_rtol cond_iii_scale (0.9 eps of it at
# this seed).
NORM_RTOL = 8 * np.finfo(float).eps
# what reads as rounding in a residual or a cokernel witness
ROUNDING = 1e-12


def whitened_rounding(x):
    """gamma_k || |X| ||^2, k the larger side of X: room for X's own
    rounding in ||X||^2."""
    k, unit = max(x.shape), np.finfo(float).eps / 2
    return k * unit / (1 - k * unit) * np.linalg.svd(np.abs(x), compute_uv=False)[0] ** 2


def whitened_rtol(t, s):
    """How far ||S^+ T||^2 = max_b ||X_b||^2, X_b = left_b T_b, and so the
    pencil 1 / ||S^+ T||^2 and ||Q||, may lie from the oracles' SVDs of
    diag(1 / sigma_k) U_k^H T and of Q, relative: NORM_RTOL for the SVDs'
    own rounding plus the largest `whitened_rounding` over ||S^+ T||^2, for
    X_b formed here as (diag(1 / sigma_k) U_k^H) T_b and there as
    diag(1 / sigma_k) (U_k^H T_b), from SVDs of S_b that may differ in
    their last bits."""
    lefts = douglas._factorization(s).lefts
    xs = [f @ m for f, m in zip(lefts, t.block_matrices()) if f is not None]
    top = max((np.linalg.svd(x, compute_uv=False)[0] for x in xs), default=0.0)
    if top == 0.0:
        return NORM_RTOL
    return NORM_RTOL + max(whitened_rounding(x) for x in xs) / top**2


def assert_rounding_close(got, want, rtol, what):
    close = got == want if not math.isfinite(want) else abs(got - want) <= rtol * abs(want)
    assert close, (what, got, want)


def onto_by_reference(s, rtol=1e-10):
    """Whether every block of S keeps as many singular values above rtol
    times the largest (over all blocks) as it has rows, from SVDs taken
    here."""
    sigs = [np.linalg.svd(m, compute_uv=False) for m in s.block_matrices()]
    smax = max((x.max() if x.size else 0.0) for x in sigs)
    return smax > 0.0 and all(
        int((x > rtol * smax).sum()) == m.shape[0] for x, m in zip(sigs, s.block_matrices())
    )


def assert_range_residual_matches(got, want, t, s, what):
    """Exactly 0 where every block of S is onto; rounding where the
    oracle's (I - S S^+) T is rounding; the oracle's value to ROUNDING
    relative elsewhere."""
    bound = ROUNDING * max(1.0, t.norm())
    if onto_by_reference(s):
        assert got == 0.0 and want <= bound, (what, got, want)
    elif want <= bound:
        assert got <= bound, (what, got, want)
    else:
        assert_rounding_close(got, want, ROUNDING, what)


def assert_cokernel_witness_matches(got, want, t, s, residual, what):
    """The library takes its cokernel witness f in R(S)^perp, so ||S* f||
    is rounding.  Where (I - S S^+) T is more than rounding, the oracle's f
    is the same direction: its ||S* f|| is rounding too and ||T* f||
    agrees.  Where it is rounding (near-boundary), T = S X sees no
    direction of R(S)^perp, and the oracle's f is noise, checked only
    through the cond_iii it decides."""
    bound = ROUNDING * max(1.0, t.norm(), s.norm())
    if "cond_iii_s_adj_norm" not in got:
        return
    assert got["cond_iii_s_adj_norm"] <= bound, what
    if residual > ROUNDING * max(1.0, t.norm()):
        assert want["cond_iii_s_adj_norm"] <= bound, what
        assert_rounding_close(
            got["cond_iii_t_adj_norm"], want["cond_iii_t_adj_norm"], ROUNDING, what
        )
    else:
        assert got["cond_iii_t_adj_norm"] <= bound, what


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=spec_id)
def test_factored_douglas_toolkit_matches_per_function_reference(spec):
    statuses = {}
    for name, t, s in douglas_cases(spec, stream(69, spec.n_blocks)):
        assert same_bits(pseudo_inverse(s), oracles.reference_pseudo_inverse(s)), name
        want_residual = oracles.reference_range_residual(t, s)
        rtol = whitened_rtol(t, s)
        assert_rounding_close(
            pencil_lower_bound(t, s), oracles.reference_pencil_lower_bound(t, s), rtol, name
        )
        q, _ = douglas._factorization(s).solve(t, 1e-9)
        assert same_bits(q, oracles.reference_douglas_solve(t, s, 1e-9)[0]), name
        cert = equivalence_audit(t, s, 1e-9)
        ref = oracles.reference_equivalence_audit(t, s, 1e-9)
        assert (cert.status, cert.claim, cert.tol) == (
            ref.status, ref.claim, ref.tol
        ), name
        vec, ref_vec = cert.witness_vector, ref.witness_vector
        assert (vec is None) == (ref_vec is None), name
        assert vec is None or all(
            x.tobytes() == y.tobytes() for x, y in zip(vec.stacks, ref_vec.stacks)
        ), name
        assert cert.witness.keys() == ref.witness.keys(), name
        for key, value in cert.witness.items():
            if key == "range_residual":
                assert_range_residual_matches(value, want_residual, t, s, (name, key))
            elif key in ("pencil_mu", "q_norm"):
                assert_rounding_close(value, ref.witness[key], rtol, (name, key))
            elif key == "factorization_residual":
                assert_rounding_close(value, ref.witness[key], NORM_RTOL, (name, key))
            elif key == "cond_iii_min_eig":
                # the eigen route's least eigenvalue up to rounding, or a
                # Cholesky proof's lower bound -2c on it, 3c <= tol * scale
                scale = cert.witness["cond_iii_scale"]
                assert value <= ref.witness[key] + rtol * scale, (name, key)
                assert (abs(value - ref.witness[key]) <= rtol * scale
                        or -1.5 * value <= 1e-9 * scale), (name, key)
            elif key not in ("cond_iii_s_adj_norm", "cond_iii_t_adj_norm"):
                assert same_bits(value, ref.witness[key]), (name, key)
        assert_cokernel_witness_matches(cert.witness, ref.witness, t, s, want_residual, name)
        statuses[name] = cert.status
    assert statuses["near-boundary"] == "inconclusive"
    assert statuses["failed-inclusion"] == "certified"
    assert statuses["onto-S"] == "certified"


# -- the whitened norm: the top singular value of each whitened block ---------------------

WHITENED_SHAPES = [(1, 1), (1, 5), (5, 1), (4, 4), (6, 3), (3, 6)]
# X_b = left_b T_b underflows at 1e-300 and 1e-160 only in its square, and
# its square overflows at 1e300: ||X_b|| is read off X_b itself
WHITENED_SCALES = [1e-300, 1e-160, 1.0, 1e300]
ONE = AlgebraSpec((1,))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(WHITENED_SHAPES),
    rank=st.integers(0, 6),
    scale=st.sampled_from(WHITENED_SCALES),
)
def test_block_norms_are_the_top_singular_value_of_each_whitened_block(seed, shape, rank, scale):
    # S of one rows x (rows + 1) block, onto, and T = S Y with Y rank-deficient
    # (0 at rank 0) and scaled, so X_b = left_b T_b is rows x cols and R(T) is
    # inside R(S): the kept norm is X_b's top singular value bit for bit,
    # and the pencil is 1 / ||X_b||^2, inf where that square underflows
    rng = np.random.default_rng(seed)
    rows, cols = shape
    r = min(rank, rows, cols)

    def gaussian(m, n):
        return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

    s = ModuleOperator(ONE, rows + 1, rows, [gaussian(rows, rows + 1)])
    t = s.compose(ModuleOperator(ONE, cols, rows + 1,
                                 [gaussian(rows + 1, r) @ gaussian(r, cols) * scale]))
    fac = douglas._factorization(s)
    x = fac.lefts[0] @ t.block_matrices()[0]
    want = float(np.linalg.svd(x, compute_uv=False)[0])
    assert fac.block_norms(t) == [want]
    assert pencil_lower_bound(t, s) == (1.0 / (want * want) if want * want else math.inf)


def test_block_norms_of_an_overflowed_block_are_inf():
    # S = 1e-300 1 keeps both singular values, so left_b T_b is [[inf, 1],
    # [2, 3]] (a NaN imaginary part at inf) for T_b = 1e-300 [[1e600, 1],
    # [2, 3]]: its product overflows, the SVD of it gives NaN, and ||X_b||
    # is inf, so the pencil is 0, with no numpy warning
    s = ModuleOperator(ONE, 2, 2, [1e-300 * np.eye(2)])
    t = ModuleOperator(ONE, 2, 2, [np.array([[1e300, 1e-300], [2e-300, 3e-300]])])
    with np.errstate(over="ignore", invalid="ignore"):
        x = douglas._factorization(s).lefts[0] @ t.block_matrices()[0]
    assert x[0, 0].real == math.inf and np.isnan(np.linalg.svd(x, compute_uv=False)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert douglas._factorization(s).block_norms(t) == [math.inf]
        assert pencil_lower_bound(t, s) == 0.0


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=spec_id)
def test_tiny_t_keeps_its_whitened_norm(spec):
    # ||S^+ T|| of 1e-200 T is 1e-200 ||S^+ T||, not a 0 that would read T
    # as 0
    _, t, s = douglas_cases(spec, stream(81, spec.n_blocks))[0]
    tiny = t.scalar_mul(1e-200)
    got = equivalence_audit(tiny, s, 1e-9).witness["q_norm"]
    assert got > 0.0
    want = 1e-200 * equivalence_audit(t, s, 1e-9).witness["q_norm"]
    assert_rounding_close(got, want, whitened_rtol(t, s), "q")


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=spec_id)
@pytest.mark.parametrize("scale", [1e-160, 1e-300, 1e-310, 1e-320])
def test_tiny_s_raises_nothing(spec, scale):
    # ||S^+ T||^2 of a tiny S overflows, and below the rank cut's floor
    # (1e-310, 1e-320) 1 / sigma would: the pencil and the audit of every
    # case, with the tiny S on either side, end with no exception and no
    # numpy warning
    for name, t, s in douglas_cases(spec, stream(82, spec.n_blocks)):
        tiny = s.scalar_mul(scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, b in ((t, tiny), (tiny, t)):
                mu = pencil_lower_bound(a, b)
                assert mu >= 0.0 and equivalence_audit(a, b).status in (
                    "certified", "falsified", "inconclusive"), name


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=spec_id)
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    side=st.sampled_from([-1e-3, -1e-9, 1e-9, 1e-3]),
)
def test_pencil_status_is_the_svd_routes_at_the_boundary(spec, seed, side):
    # T = S X scaled so that the SVD route's pencil is BOUNDARY_FACTOR tol
    # (1 + side): inconclusive below, certified above, by both routes
    tol = 1e-9
    _, t, s = douglas_cases(spec, stream(seed, 0))[0]
    target = BOUNDARY_FACTOR * tol * (1.0 + side)
    t = t.scalar_mul(math.sqrt(oracles.reference_pencil_lower_bound(t, s, tol=tol) / target))
    want = oracles.reference_pencil_lower_bound(t, s, tol=tol)
    got = pencil_lower_bound(t, s, tol)
    assert_rounding_close(got, want, whitened_rtol(t, s), "pencil")
    expected = "certified" if side > 0 else "inconclusive"
    assert pencil_verdict(got, tol) == pencil_verdict(want, tol) == expected


# -- exact condition (iii) against the one-vector-at-a-time samplers ------------------------


SAMPLER_CASES = ["generic", "rank-deficient-S", "zero-T", "failed-inclusion"]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=spec_id)
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    case=st.sampled_from(SAMPLER_CASES),
    factor=st.sampled_from([0.5, 1.0, 1.5, 4.0]),
)
def test_exact_norm_condition_agrees_with_sequential_sampler(spec, seed, case, factor):
    # every violation the sequential sampler finds at mu = factor x pencil
    # is falsified by the exact decision, and the falsified witness
    # re-checks through apply; at the pencil value and below nothing fails
    t, s = {name: (t, s) for name, t, s in douglas_cases(spec, stream(seed, 0))}[case]
    t_adj, s_adj, tol = t.adjoint(), s.adjoint(), 1e-9
    pencil = pencil_lower_bound(t, s)
    assert (case == "failed-inclusion") == (pencil == 0.0)
    assert (case == "zero-T") == math.isinf(pencil)
    if case in ("failed-inclusion", "zero-T"):
        return
    mu = factor * pencil
    cert = douglas._majorization(t, s, mu, tol, max(s.norm() ** 2, mu * t.norm() ** 2))
    if oracles.sequential_norm_violation(t_adj, s_adj, mu, tol, stream(seed, 1), 100):
        assert cert.status == "falsified"
    if factor <= 1.0:
        assert cert.status == "certified"
        assert equivalence_audit(t, s, tol).witness["cond_iii"]
    if cert.status == "falsified":
        f = cert.witness_vector
        gap = s_adj.apply(f).norm() ** 2 - mu * t_adj.apply(f).norm() ** 2
        assert gap < -BOUNDARY_FACTOR * tol * cert.witness["scale"]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=spec_id)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(SAMPLER_CASES))
def test_exact_cokernel_witness_agrees_with_sequential_sampler(spec, seed, case):
    # every cokernel direction the sequential sampler finds means the
    # audit's (iii) fails, and its exact witness, rebuilt independently,
    # re-checks through apply
    t, s = {name: (t, s) for name, t, s in douglas_cases(spec, stream(seed, 0))}[case]
    t_adj, s_adj, tol = t.adjoint(), s.adjoint(), 1e-9
    audit = equivalence_audit(t, s, tol)
    assert audit.status == "certified"
    proj = s.compose(pseudo_inverse(s))
    if oracles.sequential_cokernel_violation(t_adj, s_adj, proj, tol, stream(seed, 2), 100):
        assert not audit.witness["cond_ii"] and not audit.witness["cond_iii"]
    assert audit.witness["cond_iii"] == (case != "failed-inclusion")
    if not audit.witness["cond_iii"]:
        f = oracles.reference_top_left_vector(t - proj.compose(t))
        assert (f - proj.apply(f)).norm() == pytest.approx(1.0, rel=1e-9)
        assert s_adj.apply(f).norm() <= tol
        assert t_adj.apply(f).norm() > BOUNDARY_FACTOR * tol
        assert audit.witness["cond_iii_t_adj_norm"] == pytest.approx(t_adj.apply(f).norm())


# -- one factorization per operator ---------------------------------------------------------


@pytest.mark.parametrize("dims", [(24, 12), (3, 2, 1)], ids=["24+12", "3+2+1"])
def test_one_svd_per_block_per_operator(dims, monkeypatch):
    spec = AlgebraSpec(dims)
    rng = stream(72, len(dims))
    frame = FrameSeq([random_vector(spec, 4, rng) for _ in range(12)])
    u = frame.synthesis_op
    k = u.compose(random_operator(spec, 4, 12, rng))
    l = k.compose(random_operator(spec, 4, 4, rng))
    kernels = oracles.record_kernels(monkeypatch)
    calls = [
        lambda: equivalence_audit(k, u, 1e-9),
        lambda: pencil_lower_bound(k, u),
        lambda: equivalence_audit(k, l, 1e-9),
        lambda: atomic_coefficients(frame, k, 1e-9),
    ]
    for call in calls:
        call()
    # U is shared by three calls and L is used by one: each is factored
    # once, one SVD with vectors per block of its own stored arrays
    want = [*u.block_matrices(), *l.block_matrices()]
    factored = kernels.of("douglas_svd", "thin_svd")
    assert len(factored) == len(want) == 2 * spec.n_blocks
    assert all(a is b for a, b in zip(factored, want))
    kernels.clear()
    for call in calls:
        call()
    assert kernels.of("douglas_svd", "thin_svd") == []
    # a content-equal copy is another operator, factored afresh
    u_copy = _copy(u)
    pencil_lower_bound(k, u_copy)
    factored = kernels.of("douglas_svd", "thin_svd")
    assert len(factored) == spec.n_blocks
    assert all(a is b for a, b in zip(factored, u_copy.block_matrices()))


def test_atomic_coefficients_evaluates_no_pencil(monkeypatch):
    spec = AlgebraSpec((24, 12))
    rng = stream(73, 2)
    frame = FrameSeq([random_vector(spec, 4, rng) for _ in range(12)])
    u = frame.synthesis_op
    k = u.compose(random_operator(spec, 4, 12, rng))
    pencil_lower_bound(k, u)  # factors U; R(K) is inside R(U), so no ||K||
    fac = douglas._factorization(u)
    calls = oracles.record_kernels(monkeypatch)
    q, c, residual = atomic_coefficients(frame, k, 1e-9)
    assert k._norm is None  # a residual within tol certifies at any ||K||
    # ||Q|| = max_b ||X_b||, X_b = left_b K_b, is read off the norms the
    # pencil kept on U's factorization for K; U Q - K certifies on its
    # Frobenius norm, and no kernel is called, on a block of Q or on
    # anything else
    assert calls == []
    factored_residual = [a - b for a, b in zip(u.compose(q).block_matrices(), k.block_matrices())]
    whitened = [w @ m for w, m in zip(fac.lefts, k.block_matrices())]
    assert fac.block_norms(k) == [float(_kernels.sigma_max(x)) for x in whitened]
    assert residual == max(float(np.linalg.norm(m)) for m in factored_residual)
    assert c.norm() == q.norm() == fac.whitened_norm(k)
    w = equivalence_audit(k, u, 1e-9).witness
    assert c.norm() == w["q_norm"] and residual == w["factorization_residual"]


def test_onto_frame_takes_no_svd_of_a_range_residual(monkeypatch):
    # U of a 12-member frame of A^4 is onto in both blocks, so the rank cut
    # decides its range residual (exactly 0, no kernel call), and ||S^+ T||
    # (the pencil and ||Q||) is one values-only SVD per block of left_b T_b,
    # taken once and kept on U's factorization for T
    spec = AlgebraSpec((24, 12))
    rng = stream(76, 2)
    frame = FrameSeq([random_vector(spec, 4, rng) for _ in range(12)])
    u = frame.synthesis_op
    k = u.compose(random_operator(spec, 4, 12, rng))
    gram_shapes = {(4 * d, 4 * d) for d in spec.block_dims}
    lam, mu = optimal_scalar_bounds(frame, k)  # factors U and keeps its norms of K
    a = math.sqrt(lam * (1.0 - 1e-6)) * spec.unit()
    b = math.sqrt(mu) * (1.0 + 1e-6) * spec.unit()
    # every later call reads the kept norms: the K-frame's central lower
    # bound is decided by the pencil and its upper one by sigma(U), U Q - K
    # certifies on its Frobenius norm, the dual atoms' reconstruction is
    # that residual, mu* is U's kept sigma_max squared, and only condition
    # (iii) takes a kernel call, one shifted Cholesky per block of its gap,
    # which proves it at scale ||U||^2 (no norm of K), so no eigvalsh
    calls = {
        "optimal_scalar_bounds": (lambda: optimal_scalar_bounds(frame, k), 0, 0),
        "certify_kframe": (lambda: certify_kframe(frame, k, a, b, 1e-9), 0, 0),
        "atomic_coefficients": (lambda: atomic_coefficients(frame, k, 1e-9), 0, 0),
        "dual_atoms_audit": (lambda: dual_atoms_audit(frame, k, 1e-9), 0, 0),
        "equivalence_audit": (lambda: equivalence_audit(k, u, 1e-9), 0, 1),
    }
    fac = douglas._factorization(u)
    assert all(f.shape[0] == f.shape[1] for f in fac.lefts)  # k_b = rows: onto
    assert fac.onto_norms(k) is fac.block_norms(k)
    kernels = oracles.record_kernels(monkeypatch)
    for name, (call, per_block, cholesky_per_block) in calls.items():
        kernels.clear()
        result = call()
        grams, factored = kernels.of("eigvalsh"), kernels.of("cholesky")
        assert kernels.of(*oracles.SVDS) == kernels.of("eigh") == [], name
        assert len(grams) == per_block * spec.n_blocks, name
        assert len(factored) == cholesky_per_block * spec.n_blocks, name
        assert all(a.shape in gram_shapes for a in grams + factored), name
        if name in ("certify_kframe", "equivalence_audit", "dual_atoms_audit"):
            assert result.status == "certified"
        if name == "equivalence_audit":
            assert result.witness["range_residual"] == 0.0


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=spec_id)
def test_optimal_scalar_bounds_read_mu_off_the_kept_factorization(spec, monkeypatch):
    # a fresh frame pays its factorization, one full SVD per block of U,
    # and the whitened norm of K, one values-only SVD per block of X_b;
    # mu* is U's kept sigma_max squared, so no values-only SVD of U U* runs
    rng = stream(80, spec.n_blocks)
    frame = FrameSeq([random_vector(spec, 3, rng) for _ in range(5)])
    u = frame.synthesis_op
    k = u.compose(random_operator(spec, 3, 5, rng))
    calls = oracles.record_kernels(monkeypatch)
    lam, mu = optimal_scalar_bounds(frame, k)
    monkeypatch.undo()
    factored, norms = calls.of("douglas_svd", "thin_svd"), calls.of("singular_values")
    assert len(factored) == spec.n_blocks
    assert all(a is m for a, m in zip(factored, u.block_matrices()))
    assert [a.shape for a in norms] == [(3 * d, 3 * d) for d in spec.block_dims]
    assert calls.of("eigvalsh") == calls.of("eigh") == []
    assert mu == float(douglas._factorization(u).smax) ** 2
    assert_rounding_close(mu, frame.frame_op.norm(), NORM_RTOL, "mu*")
    assert lam > 0.0


def test_onto_operator_with_condition_number_1e8_includes_every_range():
    # the rank cut keeps all four singular values geomspace(1, 1e-8) of the
    # one 4 x 6 block, so S is onto and R(T) is inside R(S) for every T;
    # rounding in S S^+ T - T (about 7e-9 here) used to exceed tol ||T||
    spec = AlgebraSpec((2,))
    rng = stream(78, 0)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    s = ModuleOperator(spec, 3, 2, [(u * np.geomspace(1.0, 1e-8, 4)) @ v[:4].conj()])
    t = random_operator(spec, 2, 2, rng)
    assert douglas._inclusion(t, s, 1e-9) == (True, 0.0)
    # the pencil mu = 1 / ||S^+ T||^2 exists but lies below what tol resolves
    cert = equivalence_audit(t, s, 1e-9)
    assert cert.witness["cond_i"]
    assert 0.0 < cert.witness["pencil_mu"] <= BOUNDARY_FACTOR * 1e-9
    assert cert.status == "inconclusive"


def test_only_the_accessor_builds_a_factorization():
    """Every factorization is built by `douglas._factorization`, which keeps
    it on its operator, so no uncached path factors an operator again."""
    pattern = re.compile(r"\b_Factorization\s*\(")
    hits = [
        (path.name, line.strip())
        for path in sorted(Path(cstarframes.__file__).parent.glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if pattern.search(line)
    ]
    assert len(hits) == 1
    assert hits[0][0] == "douglas.py"
    assert hits[0][1] in inspect.getsource(douglas._factorization)


def _copy(s):
    return ModuleOperator(s.spec, s.in_rank, s.out_rank, s.block_matrices())


def same_result(a, b):
    """Bit identity of what the Douglas entry points, `optimal_scalar_bounds`
    and `atomic_coefficients` return."""
    if isinstance(a, Certificate):
        return same_certificate(a, b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same_result(x, y) for x, y in zip(a, b))
    if isinstance(a, AlgElement):
        return all(x.tobytes() == y.tobytes() for x, y in zip(a.blocks, b.blocks))
    return same_bits(a, b)


DOUGLAS_ENTRY_POINTS = {
    "pseudo_inverse": lambda t, s: pseudo_inverse(s),
    "_inclusion": lambda t, s: douglas._inclusion(t, s, 1e-9),
    "pencil_lower_bound": pencil_lower_bound,
    "equivalence_audit": lambda t, s: equivalence_audit(t, s, 1e-9),
}


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=spec_id)
def test_kept_factorization_gives_the_bits_of_a_fresh_one(spec):
    for case, t, s in douglas_cases(spec, stream(73, spec.n_blocks)):
        warm = _copy(s)
        for call in DOUGLAS_ENTRY_POINTS.values():
            call(t, warm)
        for name, call in DOUGLAS_ENTRY_POINTS.items():
            cold = _copy(s)
            first = call(t, cold)  # factors cold, unless the pencil of T = 0
            assert (cold._fac is None) == (case == "zero-T" and name == "pencil_lower_bound")
            assert same_result(first, call(t, cold)), (case, name)
            assert same_result(first, call(t, warm)), (case, name)
            # only a solve forms S^+, and formed after any call it has the
            # bits of warm's, formed right after its SVDs
            unformed = cold._fac is None or cold._fac._pinv is None
            assert unformed == (name in ("_inclusion", "pencil_lower_bound")), (case, name)
            assert same_result(pseudo_inverse(cold), pseudo_inverse(warm)), (case, name)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=spec_id)
def test_pencil_residual_and_witness_form_no_pseudo_inverse(spec):
    for case, t, s in douglas_cases(spec, stream(77, spec.n_blocks)):
        lazy = _copy(s)
        douglas._inclusion(t, lazy, 1e-9)
        pencil_lower_bound(t, lazy)
        fac = douglas._factorization(lazy)
        fac.cokernel_witness(t, 1e-9)
        assert fac._pinv is None and fac._factors is not None, case
        eager = _copy(s)
        assert same_result(pseudo_inverse(lazy), pseudo_inverse(eager)), case
        assert fac._factors is None, case  # the SVD factors go once S^+ is formed


def test_pencil_takes_no_norm_of_t_within_tol():
    cases = {case: (t, s) for case, t, s in douglas_cases(SPEC, stream(78, 0))}
    for case in ("generic", "rank-deficient-S", "onto-S"):
        t, s = cases[case]
        assert 0.0 < pencil_lower_bound(t, s) < math.inf, case
        assert douglas._inclusion(t, s, 1e-9)[1] <= 1e-9 and t._norm is None, case
    # past tol the residual is weighed against max(1, ||T||)
    t, s = cases["failed-inclusion"]
    assert pencil_lower_bound(t, s) == 0.0 and t._norm is not None
    # T = 0 is read off its entries: no norm and no factorization
    t, s = cases["zero-T"]
    fresh = _copy(s)
    assert pencil_lower_bound(t, fresh) == math.inf
    assert t._norm is None and fresh._fac is None


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=spec_id)
def test_t_is_s_is_decided_exactly_without_a_factorization(spec, monkeypatch):
    # mu S S* <= S S* iff mu <= 1, and R(S) is inside R(S): both exact for
    # the operator itself, while an equal copy is another operator, factored
    rng = stream(79, spec.n_blocks)
    s = make_rank_deficient(spec, 2, 3, rng)
    calls = oracles.record_kernels(monkeypatch)
    assert douglas._inclusion(s, s, 0.0) == (True, 0.0)
    assert pencil_lower_bound(s, s, 0.0) == 1.0
    assert calls.of(*oracles.SVDS) == [] and s._fac is None and s._norm is None
    zero = zero_operator(spec, 2, 3)
    assert math.isinf(pencil_lower_bound(zero, zero))
    assert douglas._inclusion(zero, zero, 1e-9) == (True, 0.0)
    assert calls.of(*oracles.SVDS) == [] and zero._fac is None
    copy = _copy(s)
    residual, mu = douglas._inclusion(copy, s, 1e-9)[1], pencil_lower_bound(copy, s, 1e-9)
    assert s._fac is not None
    assert all(any(a is m for a in calls.of(*oracles.SVDS)) for m in s.block_matrices())
    assert residual <= 1e-12 and mu == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=spec_id)
def test_kept_factorization_gives_the_bits_of_a_fresh_one_on_frames(spec):
    rng = stream(74, spec.n_blocks)
    frame = FrameSeq([random_vector(spec, 3, rng) for _ in range(5)])
    k = frame.synthesis_op.compose(random_operator(spec, 3, 5, rng))
    calls = {
        "optimal_scalar_bounds": lambda fr: optimal_scalar_bounds(fr, k),
        "optimal_scalar_bounds-identity": lambda fr: optimal_scalar_bounds(fr),
        "atomic_coefficients": lambda fr: atomic_coefficients(fr, k, 1e-9),
    }
    warm = FrameSeq(frame.members)
    for call in calls.values():
        call(warm)
    for name, call in calls.items():
        cold = FrameSeq(frame.members)
        first = call(cold)
        assert cold.synthesis_op._fac is not None, name
        assert same_result(first, call(cold)), name
        assert same_result(first, call(warm)), name


def test_kept_factorization_holds_no_reference_to_its_operator():
    s = random_operator(SPEC, 3, 2, stream(75, 0))
    pinv_block = weakref.ref(pseudo_inverse(s).block_matrices()[0])
    fac = s._fac
    assert pinv_block() is not None  # kept on s while s lives
    seen, todo = set(), [fac]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or not isinstance(
            obj, (douglas._Factorization, ModuleOperator, dict, list, tuple)
        ):
            continue
        seen.add(id(obj))
        assert obj is not s
        todo.extend(gc.get_referents(obj))
    del fac
    # each audit keeps on the factorization of its second operator the
    # norms of its first; held strongly, K -> fac(K) -> L -> fac(L) -> K
    # would be a cycle that only the collector frees
    rng = stream(75, 1)
    k, l = (random_operator(SPEC, 3, 3, rng) for _ in range(2))
    equivalence_audit(k, l, 1e-9)
    equivalence_audit(l, k, 1e-9)
    refs = [weakref.ref(x) for x in (k, l, k._fac, l._fac)]
    gc.disable()
    try:
        del s, k, l
        # freed by reference counting alone
        assert pinv_block() is None
        assert [r() for r in refs] == [None] * 4
    finally:
        gc.enable()


def test_kept_norms_are_matched_by_identity(monkeypatch):
    # a content-equal copy of T is another operator: its norms are taken
    # afresh, one values-only SVD per block, and come out bit for bit the same
    rng = stream(75, 2)
    frame = FrameSeq([random_vector(SPEC, 3, rng) for _ in range(5)])
    u = frame.synthesis_op
    k = u.compose(random_operator(SPEC, 3, 5, rng))
    fac = douglas._factorization(u)
    kept = fac.block_norms(k)
    calls = oracles.record_kernels(monkeypatch)
    assert fac.block_norms(k) is kept and calls == []
    k_copy = _copy(k)
    assert fac.block_norms(k_copy) == kept
    assert len(calls.of("singular_values")) == SPEC.n_blocks and calls.of("eigvalsh") == []
    calls.clear()
    lam = pencil_lower_bound(k_copy, u)
    assert calls == []  # the copy is now the T whose norms are kept
    assert pencil_lower_bound(k, u) == lam
