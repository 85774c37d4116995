"""psd_certificate takes the decompositions its verdict reads and no others,
and the residual rule decides as `verdict` on the spectral norm would."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarframes import (
    AlgebraSpec, FrameSeq, ModuleOperator, certify_kframe, certify_star_bessel, identity_operator,
    pencil_lower_bound,
)
from cstarframes.certify import (
    BOUNDARY_FACTOR, CERTIFIED, FALSIFIED, INCONCLUSIVE, pencil_verdict, psd_certificate,
    residual_verdict, verdict, verdict_at_norm, worst,
)
from cstarframes.harness import random_instance
from cstarframes.sampling import random_operator, random_vector, stream

import oracles
from oracles import record_kernels

EPS = np.finfo(float).eps
# rank 3 keeps the gap's blocks (9x9, 6x6) apart from the bound's (3x3, 2x2)
SPEC = AlgebraSpec((3, 2))
RANK = 3


def _frame(seed: int) -> FrameSeq:
    rng = stream(seed, 0)
    return FrameSeq([random_vector(SPEC, RANK, rng) for _ in range(5)])


def _gap_shaped(a: np.ndarray) -> bool:
    return a.shape in {(RANK * d, RANK * d) for d in SPEC.block_dims}


def _hermitian_gap(seed: int, shift: float):
    """X X* - shift 1 for a random X, made exactly Hermitian."""
    x = random_operator(SPEC, RANK, RANK, stream(seed, 1))
    g = x.compose(x.adjoint()) - identity_operator(SPEC, RANK).scalar_mul(shift)
    return (g + g.adjoint()).scalar_mul(0.5)


def test_certified_bessel_takes_values_only(monkeypatch):
    frame = _frame(90)
    b = math.sqrt(frame.frame_op.norm()) * (1.0 + 1e-6) * SPEC.unit()
    calls = record_kernels(monkeypatch)
    cert = certify_star_bessel(frame, b, 1e-9)
    assert cert.status == CERTIFIED
    # B is exactly scalar: the gap's eigenvalues are |beta|^2 - sigma(U_b)^2,
    # read off U's factorization, one SVD per block of U, built on first use
    assert calls.of("eigvalsh", "eigh") == []
    u_blocks = frame.synthesis_op.block_matrices()
    svds = calls.of(*oracles.SVDS)
    assert len(svds) == len(u_blocks)
    assert all(np.array_equal(a, m) for a, m in zip(svds, u_blocks))
    # the gap is Hermitian by construction: no SVD of a gap-sized matrix
    assert not any(_gap_shaped(a) for a in svds)
    # a second call finds the factorization kept on U: no kernel call
    calls.clear()
    assert certify_star_bessel(frame, b, 1e-9).witness == cert.witness
    assert calls == []


def test_falsified_bessel_takes_one_eigh(monkeypatch):
    frame = _frame(91)
    b = 0.5 * math.sqrt(frame.frame_op.norm()) * SPEC.unit()
    calls = record_kernels(monkeypatch)
    cert = certify_star_bessel(frame, b, 1e-9)
    assert cert.status == FALSIFIED and cert.witness_vector is not None
    assert calls.of("eigvalsh") == []
    assert len(calls.of("eigh")) == 1 and _gap_shaped(calls.of("eigh")[0])


@pytest.mark.parametrize("seed", range(6))
def test_falsified_witness_is_negative_witness(seed):
    gap = _hermitian_gap(seed, 3.0)
    cert = psd_certificate(gap, 1e-9, "test")
    assert cert.status == FALSIFIED
    _, f = gap.negative_witness()
    assert all(x.tobytes() == y.tobytes()
               for x, y in zip(cert.witness_vector.stacks, f.stacks))


@pytest.mark.parametrize("shift", [0.0, 0.5, 3.0])
@pytest.mark.parametrize("seed", range(8))
def test_margins_agree_with_full_decompositions(seed, shift):
    """min_eig and the default scale match an eigh of every block and the
    SVD norm of the gap, the route they replace, to a few roundoffs: both
    routes are backward stable, and over 1200 gaps of this family the
    largest difference was 5.7 eps scale (scale) and 1.2 eps scale
    (min_eig)."""
    gap = _hermitian_gap(10 + seed, shift)
    cert = psd_certificate(gap, 1e-9, "test")
    scale = max(1.0, gap.norm())
    least = min(
        float(np.linalg.eigh(0.5 * (m + m.conj().T))[0][0]) for m in gap.block_matrices()
    )
    assert abs(cert.witness["scale"] - scale) <= 8 * EPS * scale
    assert abs(cert.witness["min_eig"] - least) <= 8 * EPS * scale


@pytest.mark.parametrize("seed", range(40))
def test_tol_zero_certifies_generic_kframes(seed):
    """At tol 0 the verdict follows the sign of the least eigenvalue.  The
    generic instances' stored bounds leave a margin, so the gaps' rounding
    in their anti-Hermitian parts (about 1e-15) must not falsify them."""
    inst = random_instance(seed, "generic")
    cert = certify_kframe(
        inst.members, inst.operators["K"], inst.bounds["A"], inst.bounds["B"], 0.0
    )
    assert cert.status == CERTIFIED


@pytest.mark.parametrize(("excess", "status"), [
    (-1.0, CERTIFIED), (0.0, CERTIFIED), (2e-9, CERTIFIED), (2.1e-9, INCONCLUSIVE),
    (2e-8, INCONCLUSIVE), (2.1e-8, FALSIFIED), (math.inf, FALSIFIED), (math.nan, INCONCLUSIVE),
])
def test_verdict_is_the_three_way_rule_at_tol_times_scale(excess, status):
    assert verdict(excess, 1e-9, 2.0) == status


def test_verdict_at_zero_tolerance_follows_the_sign():
    assert verdict(0.0, 0.0, 1.0) == CERTIFIED
    assert verdict(1e-300, 0.0, 1.0) == FALSIFIED


@pytest.mark.parametrize("norm", [0.5, 3.0])
@pytest.mark.parametrize("tol", [0.0, 1e-9, -1e-9])
@pytest.mark.parametrize("excess", [-1.0, -2e-9, 0.0, 1e-9, 2e-9, 2e-8, math.inf, math.nan])
def test_verdict_at_norm_is_verdict_at_max_1_norm(norm, tol, excess):
    # ||T|| is taken only for an excess above a tol >= 0
    t = identity_operator(SPEC, 2).scalar_mul(norm)
    assert verdict_at_norm(excess, tol, t) == verdict(excess, tol, max(1.0, norm))
    assert (t._norm is None) == (tol >= 0 and excess <= tol)


@pytest.mark.parametrize(("mu", "tol", "status"), [
    (0.0, 1e-9, FALSIFIED), (1e-10, 1e-9, INCONCLUSIVE), (1e-8, 1e-9, INCONCLUSIVE),
    (1.1e-8, 1e-9, CERTIFIED), (math.inf, 1e-9, CERTIFIED),
    (0.0, 0.0, FALSIFIED), (1e-300, 0.0, CERTIFIED),
])
def test_pencil_verdict_reads_a_pencil_value(mu, tol, status):
    assert pencil_verdict(mu, tol) == status


def test_worst_status_dominance():
    assert worst() == CERTIFIED
    assert worst(CERTIFIED, INCONCLUSIVE) == INCONCLUSIVE
    assert worst(INCONCLUSIVE, FALSIFIED, CERTIFIED) == FALSIFIED


# -- the residual rule ------------------------------------------------------------

# within this relative distance of a threshold, rounding decides the status
NEAR = 1e-12


def _residual_block(kind: str, rows: int, cols: int, size: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if kind == "zero":
        return np.zeros((rows, cols), dtype=complex)
    if kind == "1x1":
        return size * gauss(1, 1)
    if kind == "rank-one":
        return size * np.outer(gauss(rows), gauss(cols).conj())
    return size * gauss(rows, cols)


residual_blocks = st.lists(
    st.builds(
        _residual_block,
        st.sampled_from(["zero", "1x1", "rank-one", "generic"]),
        st.integers(1, 5),
        st.integers(1, 5),
        st.sampled_from([1e-15, 1e-9, 1.0, 1e3]),
        st.integers(0, 2**32 - 1),
    ),
    min_size=1,
    max_size=3,
)


def _near(x: float, threshold: float) -> bool:
    return abs(x - threshold) <= NEAR * abs(threshold)


@settings(max_examples=300, deadline=None)
@given(
    blocks=residual_blocks,
    tol=st.sampled_from([0.0, 1e-12, 1e-9, 0.5, -1e-9]),
    ratio=st.sampled_from([0.01, 0.5, 0.999, 1.001, 2.0, 9.99, 10.01, 1e3]),
    free_scale=st.floats(0.5, 1e4),
    as_operator=st.booleans(),
)
def test_residual_rule_decides_as_the_spectral_norm(blocks, tol, ratio, free_scale, as_operator):
    # ratio places ||R|| at ratio times tol * scale where that is possible,
    # so both sides of both thresholds are drawn
    norm = max(float(np.linalg.norm(m, 2)) for m in blocks)
    scale = norm / (ratio * tol) if tol > 0 and norm > 0 else free_scale
    if as_operator:
        # scale passed as T, read as max(1, ||T||)
        arg = ModuleOperator(AlgebraSpec((1,)), 1, 1, [np.array([[scale]])])
        scale = max(1.0, scale)
    else:
        arg = scale
    status, value = residual_verdict(blocks, tol, arg)
    assert value >= norm * (1.0 - NEAR)
    thresholds = (tol * scale, BOUNDARY_FACTOR * tol * scale)
    if not any(_near(norm, thr) for thr in thresholds):
        assert status == verdict(norm, tol, scale)
    ref_status, ref_value = oracles.reference_residual_verdict(blocks, tol, arg)
    frob = max(float(np.linalg.norm(m)) for m in blocks)
    if not any(_near(x, thr) for x in (norm, frob) for thr in thresholds):
        assert status == ref_status
        assert abs(value - ref_value) <= 8 * EPS * ref_value


def test_residual_rule_takes_an_svd_only_where_the_frobenius_bound_does_not_certify(
    monkeypatch,
):
    rng = np.random.default_rng(5)
    blocks = [rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4)) for _ in range(2)]
    t = identity_operator(SPEC, 2).scalar_mul(3.0)
    calls = record_kernels(monkeypatch)
    status, value = residual_verdict([1e-14 * m for m in blocks], 1e-9, t)
    # certified on max_b ||R_b||_F: no SVD, and ||T|| not taken
    assert (status, calls.of(*oracles.SVDS), t._norm) == (CERTIFIED, [], None)
    assert value == max(float(np.linalg.norm(1e-14 * m)) for m in blocks)
    status, value = residual_verdict(blocks, 1e-9, t)
    # falsified: one values-only SVD per block of R (and of T, for ||T||),
    # and the spectral norm reported
    assert status == FALSIFIED
    assert [a.shape for a in calls.of(*oracles.SVDS)].count((6, 4)) == 2 and t._norm == 3.0
    assert value == max(float(np.linalg.norm(m, 2)) for m in blocks)
    # no blocks: a residual of exactly 0
    assert residual_verdict([], 1e-9, 1.0) == (CERTIFIED, 0.0)
    assert residual_verdict([], -1e-9, 1.0) == (FALSIFIED, 0.0)


# -- the Cholesky proof of a caller-scaled gap ------------------------------------

TOLS = [0.0, 1e-12, 1e-9, 1e-6]


def _unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@st.composite
def _gap_shapes(draw):
    """(block dims, rank) with every block of the gap of order rank * d_b in 1..96."""
    rank = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 96 // rank), min_size=1, max_size=2))
    return tuple(dims), rank


def _tight_douglas_gap(dims, rank, in_rank, size, seed):
    """S S* - mu T T* for T = S Q at the pencil value mu, which leaves it
    positive semidefinite and singular, and its scale max(1, ||S||^2), as
    `equivalence_audit` passes them."""
    spec = AlgebraSpec(dims)
    rng = stream(seed, 0)
    s = random_operator(spec, in_rank, rank, rng).scalar_mul(size)
    t = s.compose(random_operator(spec, in_rank, in_rank, rng))
    mu = pencil_lower_bound(t, s, 1e-9)
    gap = s.compose(s.adjoint()) - t.compose(t.adjoint()).scalar_mul(mu)
    return gap, max(1.0, s.norm() ** 2)


def _planted_gap(dims, rank, tol, delta, size, seed):
    """A Hermitian gap whose blocks have eigenvalues drawn from [0, size]
    but for block 0's least, -tol * scale * (1 + delta), scale = max(1,
    size)."""
    rng = np.random.default_rng(seed)
    scale = max(1.0, size)
    mats = []
    for b, d in enumerate(dims):
        w = size * rng.uniform(0.0, 1.0, rank * d)
        if b == 0:
            w[0] = -tol * scale * (1.0 + delta)
        v = _unitary(rank * d, rng)
        mats.append((v * w) @ v.conj().T)
    return ModuleOperator(AlgebraSpec(dims), rank, rank, mats), scale


@settings(max_examples=200, deadline=None)
@given(
    shape=_gap_shapes(),
    tol=st.sampled_from(TOLS),
    planted=st.booleans(),
    delta=st.sampled_from([-0.999, -0.9, -0.5, -1e-3, 1e-3, 0.5]),
    size=st.sampled_from([1e-3, 1.0, 1e3]),
    in_rank=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_cholesky_proof_decides_as_the_eigen_route(shape, tol, planted, delta, size, in_rank,
                                                   seed):
    """Where every block of H + c 1 factors and 3 c <= tol * scale, with c
    Rump's allowance of that block, the gap certifies with the proved
    bound -2 max c, which lies at or below the eigen route's least
    eigenvalue; everywhere else the certificate is the eigen route's bit
    for bit.  Tight Douglas gaps (least eigenvalue 0 up to rounding)
    within the gate are always proved."""
    dims, rank = shape
    if planted:
        gap, scale = _planted_gap(dims, rank, tol, delta, size, seed)
    else:
        gap, scale = _tight_douglas_gap(dims, rank, in_rank, size, seed)
    cert = psd_certificate(gap, tol, "test", scale=scale)
    ref = oracles.eigen_psd_certificate(gap, tol, "test", scale)
    assert cert.status == ref.status
    assert cert.witness["scale"] == scale
    herms = [0.5 * (m + m.conj().T) for m in gap.block_matrices()]
    shifts = [oracles.rump_allowance(h) for h in herms]
    proved = -2.0 * max(shifts)
    # the allowance's trace may be summed in another order: equal to 1e-12
    by_proof = math.isclose(cert.witness["min_eig"], proved, rel_tol=1e-12)
    if by_proof:
        assert all(3.0 * c <= tol * scale for c in shifts)
        assert cert.status == CERTIFIED and proved <= ref.witness["min_eig"]
        assert cert.witness_vector is None
    else:
        assert cert.witness["min_eig"] == ref.witness["min_eig"]
        assert (cert.witness_vector is None) == (ref.witness_vector is None)
        if cert.witness_vector is not None:
            assert all(x.tobytes() == y.tobytes() for x, y in
                       zip(cert.witness_vector.stacks, ref.witness_vector.stacks))
    least = [float(np.linalg.eigvalsh(h)[0]) for h in herms]
    if all(3.0 * c <= tol * scale and w >= -c / 4 for c, w in zip(shifts, least)):
        assert by_proof


def test_a_caller_scaled_gap_takes_the_eigen_route_where_no_proof_is_tried_or_it_fails(
    monkeypatch,
):
    gap = _hermitian_gap(20, 3.0)  # X X* - 3 1: negative on every block
    scale = max(1.0, gap.norm())
    refs = {tol: oracles.eigen_psd_certificate(gap, tol, "test", scale) for tol in (1e-9, 0.0)}
    calls = record_kernels(monkeypatch)
    for tol, factored in ((1e-9, 1), (0.0, 0)):
        calls.clear()
        cert, ref = psd_certificate(gap, tol, "test", scale=scale), refs[tol]
        assert cert.status == ref.status == FALSIFIED
        assert cert.witness == ref.witness
        assert all(x.tobytes() == y.tobytes()
                   for x, y in zip(cert.witness_vector.stacks, ref.witness_vector.stacks))
        # at tol 1e-9 the first block's shifted Cholesky breaks down; at tol
        # 0 no allowance fits the gate and none is tried; either way every
        # block takes its eigvalsh and the falsified one its eigh
        assert len(calls.of("cholesky")) == factored, tol
        assert [a.shape for a in calls.of("eigvalsh")] == [(9, 9), (6, 6)], tol
        assert len(calls.of("eigh")) == 1 and calls.of(*oracles.SVDS) == [], tol
    # a tight Douglas gap at tol 0 takes the eigen route too, whatever its sign
    gap, scale = _tight_douglas_gap((3, 2), RANK, 2, 1.0, 7)
    calls.clear()
    cert = psd_certificate(gap, 0.0, "test", scale=scale)
    assert calls.of("cholesky") == [] and len(calls.of("eigvalsh")) == 2
    assert len(calls.of("eigh")) == (cert.status == FALSIFIED)
