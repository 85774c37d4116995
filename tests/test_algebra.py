import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cstarframes
from cstarframes import AlgebraSpec, InputError
from cstarframes._kernels import sigma_max
from cstarframes.sampling import stream

from oracles import is_positive, random_element, random_hermitian, record_kernels, spectrum

SPEC21 = AlgebraSpec((2, 1))
SPEC111 = AlgebraSpec((1, 1, 1))


def diag_element(spec, values):
    return spec.central(values)


# -- construction ------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(InputError):
        AlgebraSpec(())
    with pytest.raises(InputError):
        AlgebraSpec((2, 0))
    assert AlgebraSpec((2, 1)).total_dim == 5


def test_block_shape_validation():
    with pytest.raises(InputError):
        SPEC21.element([np.eye(2), np.eye(2)])
    with pytest.raises(InputError):
        SPEC21.element([np.eye(2)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "imag-inf"])
def test_nonfinite_blocks_rejected(bad):
    blocks = [np.eye(2, dtype=complex), np.eye(1, dtype=complex)]
    blocks[0][0, 1] = bad
    with pytest.raises(InputError, match="finite"):
        SPEC21.element(blocks)
    with pytest.raises(InputError, match="finite"):
        cstarframes.AlgElement(SPEC21, blocks)


def test_nonfinite_bound_never_reaches_a_certificate():
    """A NaN bound used to reach certify_kframe and die in LAPACK with a
    LinAlgError; it is now refused where the element is built."""
    frame = cstarframes.coordinate_frame(SPEC21, 2)
    k_op = cstarframes.identity_operator(SPEC21, 2)
    with pytest.raises(InputError, match="finite"):
        a = SPEC21.element([np.full((2, 2), np.nan), np.eye(1)])
        cstarframes.certify_kframe(frame, k_op, a, SPEC21.unit(), 1e-9)


def test_unit_blocks_are_identities():
    one = SPEC21.unit()
    assert np.allclose(one.blocks[0], np.eye(2))
    assert np.allclose(one.blocks[1], np.eye(1))


# signed zeros, negative reals and negative imaginary parts
CENTRAL_SCALARS = [
    -0.0, complex(-0.0, -0.0), complex(0.0, -0.0), -2.5, complex(1.5, -3.0),
    complex(-1e-300, -7.0), 0.0, 1.0,
]
CENTRAL_SPECS = [(1,), (2, 1), (3, 3)]


def _bits(scalars):
    return [np.asarray(x).tobytes() for x in scalars]


@pytest.mark.parametrize("dims", CENTRAL_SPECS, ids=str)
def test_central_elements_carry_the_exact_scalars_of_their_blocks(dims):
    # a central element skips the element constructor's copy and scan; the
    # exact scalars it carries are those that the constructor's element of
    # the same blocks finds by comparison, bit for bit
    spec = AlgebraSpec(dims)
    n = spec.n_blocks
    cases = [[s] * n for s in CENTRAL_SCALARS] + [
        CENTRAL_SCALARS[k : k + n] for k in range(len(CENTRAL_SCALARS) - n + 1)
    ]
    for scalars in cases:
        c = spec.central(scalars)
        assert _bits(c.exact_scalars()) == _bits(spec.element(c.blocks).exact_scalars())
        for s, d, m in zip(scalars, dims, c.blocks):
            assert m.tobytes() == (s * np.eye(d, dtype=complex)).tobytes()
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0, 0] = 1.0
    unit = spec.unit()
    assert [m.tobytes() for m in unit.blocks] == [np.eye(d, dtype=complex).tobytes() for d in dims]
    assert _bits(unit.exact_scalars()) == _bits(spec.element(unit.blocks).exact_scalars())


def test_central_scalars_are_the_exact_scalars_where_a_block_has_one():
    # trace/d rounds c off on larger blocks: 0.6999999999999998 at d = 3
    assert AlgebraSpec((3,)).central([0.7]).central_scalars()[0] == 0.7
    assert AlgebraSpec((6,)).central([0.1]).central_scalars()[0] == 0.1
    # a block that is not scalar keeps its nearest scalar trace/d
    spec = AlgebraSpec((3, 1))
    x = spec.element([np.diag([1.0, 2.0, 4.0]), np.array([[0.7]])])
    assert list(x.central_scalars()) == [np.trace(x.blocks[0]) / 3, 0.7]


@pytest.mark.parametrize("dims", CENTRAL_SPECS, ids=str)
@pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0.0, np.inf)], ids=["inf", "nan", "imag-inf"])
def test_central_rejects_nonfinite_scalars(dims, bad):
    spec = AlgebraSpec(dims)
    with pytest.raises(InputError, match="^algebra element blocks must have finite entries$"):
        spec.central([1.0] * (spec.n_blocks - 1) + [bad])


@pytest.mark.parametrize("dims", CENTRAL_SPECS, ids=str)
def test_central_rejects_a_wrong_scalar_count(dims):
    spec = AlgebraSpec(dims)
    for count in (spec.n_blocks - 1, spec.n_blocks + 1):
        with pytest.raises(InputError, match=f"need {spec.n_blocks} scalars.*got {count}"):
            spec.central([1.0] * count)


# -- arithmetic ---------------------------------------------------------------


def test_unit_law():
    rng = stream(1, 0)
    a = random_element(SPEC21, rng)
    assert ((SPEC21.unit() * a) - a).norm() == 0.0


def test_involution_antihomomorphism():
    rng = stream(2, 0)
    a = random_element(SPEC21, rng)
    b = random_element(SPEC21, rng)
    lhs = (a * b).adjoint()
    rhs = b.adjoint() * a.adjoint()
    assert (lhs - rhs).norm() <= 1e-13 * max(1.0, lhs.norm())


def test_nilpotent_square():
    spec = AlgebraSpec((2,))
    a = spec.element([np.array([[0, 1], [0, 0]], dtype=complex)])
    assert (a * a).norm() == 0.0


def test_spec_mismatch_rejected():
    rng = stream(3, 0)
    a = random_element(SPEC21, rng)
    b = random_element(SPEC111, rng)
    with pytest.raises(InputError):
        a * b


# -- norm -----------------------------------------------------------------------


def test_unit_norm():
    assert SPEC21.unit().norm() == 1.0


def test_norm_paper_diagonal():
    # diag(1/3 + 1/i) truncated at three terms peaks at the first entry
    a = diag_element(SPEC111, [4 / 3, 5 / 6, 2 / 3])
    assert a.norm() == pytest.approx(4 / 3, abs=1e-15)


def test_cstar_identity_against_singular_value_oracle():
    rng = stream(4, 0)
    for _ in range(20):
        a = random_element(SPEC21, rng)
        # oracle: ||a|| via eigenvalues of a^H a, not the svd route norm() takes
        oracle = max(
            np.sqrt(np.linalg.eigvalsh(b.conj().T @ b).max()) for b in a.blocks
        )
        assert (a.adjoint() * a).norm() == pytest.approx(oracle**2, rel=1e-10)
        assert a.norm() ** 2 == pytest.approx(oracle**2, rel=1e-10)


# -- the spectral-norm kernel and the memoised norm -------------------------------


def _kernel_cases():
    rng = np.random.default_rng(7)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    low = cplx(5, 2) @ cplx(2, 4)
    yield "single", [cplx(d, e) for d, e in ((2, 2), (3, 5), (6, 2), (12, 24))]
    yield "1x1", [cplx(1, 1), np.array([[-2.5 + 0j]]), np.array([[3.0]])]
    yield "zero", [np.zeros((3, 3), complex), np.zeros((1, 1), complex), np.zeros((4, 2))]
    yield "rank-deficient", [low, low.conj().T, np.outer(cplx(3), cplx(3).conj())]
    yield "stack", [cplx(50, 2, 2), cplx(7, 3, 1), np.zeros((4, 2, 2), complex),
                    np.stack([low, 0 * low, low]), cplx(0, 3, 3)]


@pytest.mark.parametrize("case", list(_kernel_cases()), ids=lambda c: c[0])
def test_spectral_norm_kernel_is_numpys_two_norm_bit_for_bit(case):
    for m in case[1]:
        got = sigma_max(m)
        want = np.linalg.norm(m, ord=2, axis=(-2, -1))
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _shapes(calls) -> list:
    return [np.shape(a) for _, a in calls]


def test_element_norm_is_computed_once(monkeypatch):
    a = random_element(SPEC21, stream(4, 1))
    calls = record_kernels(monkeypatch)
    first = a.norm()
    # one SVD per block that is not exactly scalar; the 1x1 block is
    assert _shapes(calls) == [(2, 2)]
    assert a.norm() == first and a._scale() == max(1.0, first)
    assert _shapes(calls) == [(2, 2)]
    assert first == max(float(np.linalg.norm(b, ord=2)) for b in a.blocks)


def test_exactly_scalar_norm_takes_no_kernel_call(monkeypatch):
    # |c| for a block equal to c 1; for real c it is the SVD's value exactly
    spec = AlgebraSpec((1, 3))
    values = [0.0, -2.5, 1e-3, 7.25, 1e-3j, 0.3 + 0.7j]
    expected = [float(sigma_max(c * np.eye(3, dtype=complex))) for c in values]
    calls = record_kernels(monkeypatch)
    for c, want in zip(values, expected):
        assert (c * spec.unit()).norm() == abs(c)
        if complex(c).imag == 0:
            assert abs(c) == want
        assert spec.element([np.full((1, 1), c), np.eye(3)]).exact_scalars() == (c, 1.0)
    assert calls == []


def test_strictly_nonzero_takes_no_svd_of_an_exactly_scalar_block(monkeypatch):
    # sigma_min and the norm by one SVD per block that is not exactly
    # scalar; the norm is kept for the next call
    spec = AlgebraSpec((2, 3))
    for a, general in ((random_element(spec, stream(4, 3)), [(2, 2), (3, 3)]),
                       (random_element(SPEC21, stream(4, 4)), [(2, 2)]),
                       (2.0 * spec.unit(), [])):
        expected = max(float(np.linalg.norm(b, ord=2)) for b in a.blocks)
        calls = record_kernels(monkeypatch)
        assert a.is_strictly_nonzero(1e-9)
        assert _shapes(calls) == general
        assert a.norm() == expected
        assert _shapes(calls) == general


def test_element_blocks_are_read_only():
    src = [np.eye(2, dtype=complex), np.eye(1, dtype=complex)]
    a = SPEC21.element(src)
    with pytest.raises(ValueError):
        a.blocks[0][0, 0] = 5.0
    src[0][0, 0] = 5.0  # the element holds copies
    assert a.norm() == 1.0


# -- spectrum -------------------------------------------------------------------


def test_spectrum_of_unit():
    vals = spectrum(SPEC21.unit())
    assert len(vals) == 3
    assert np.allclose(sorted(vals.real), [1, 1, 1])
    assert np.allclose(vals.imag, 0)


def test_spectrum_diagonal():
    a = diag_element(AlgebraSpec((1, 1)), [4 / 3, 5 / 6])
    assert sorted(np.real(spectrum(a))) == pytest.approx([5 / 6, 4 / 3])


def test_spectrum_matches_companion_matrix_oracle():
    rng = stream(5, 0)
    for _ in range(10):
        a = random_hermitian(SPEC21, rng)
        got = np.sort_complex(spectrum(a))
        oracle = np.sort_complex(
            np.concatenate([np.roots(np.poly(b)) for b in a.blocks])
        )
        assert np.allclose(got, oracle, atol=1e-8)


# -- positivity (the test oracle), strict nonzeroness, centrality ------------------


def test_zero_is_positive():
    assert is_positive(0 * SPEC21.unit(), 1e-9)
    with pytest.raises(InputError):
        is_positive(0 * SPEC21.unit(), -1e-9)


def test_indefinite_not_positive():
    spec = AlgebraSpec((2,))
    a = spec.element([np.diag([1.0, -1.0]).astype(complex)])
    assert not is_positive(a, 1e-9)
    # a nilpotent block has spectrum {0} but is not Hermitian
    assert not is_positive(spec.element([np.array([[0.0, 1.0], [0.0, 0.0]])]), 1e-9)


def test_a_star_a_positive_matches_eigendecomposition():
    rng = stream(6, 0)
    for _ in range(20):
        a = random_element(SPEC21, rng)
        p = a.adjoint() * a
        assert is_positive(p, 1e-9)
        for b in p.blocks:
            assert np.linalg.eigvalsh(0.5 * (b + b.conj().T)).min() >= -1e-12


def test_strictly_nonzero():
    assert SPEC21.unit().is_strictly_nonzero(1e-9)
    spec = AlgebraSpec((2,))
    a = spec.element([np.array([[1, 0], [0, 0]], dtype=complex)])
    assert not a.is_strictly_nonzero(1e-9)


@pytest.mark.parametrize("delta", [0.0, 1e-14])
def test_strictly_nonzero_reads_singular_values(delta):
    # [[0, 1], [delta, 0]] has eigenvalues +-sqrt(delta), 1e-7 at delta =
    # 1e-14, but least singular value delta: a perturbation of size 1e-14
    # makes it singular, so it is not strictly nonzero at tol 1e-9
    a = SPEC21.element([np.array([[0.0, 1.0], [delta, 0.0]]), np.ones((1, 1))])
    assert np.abs(spectrum(a)).min() == pytest.approx(np.sqrt(delta))
    assert not a.is_strictly_nonzero(1e-9)


@pytest.mark.parametrize("n", [1, 3, 10, 50])
def test_paper_sequence_strictly_nonzero(n):
    spec = AlgebraSpec((1,) * n)
    c = diag_element(spec, [1 / 3 + 1 / (i + 1) for i in range(n)])
    assert c.is_strictly_nonzero(1e-9)
    assert np.abs(spectrum(c)).min() > 1 / 3


def test_centrality():
    assert SPEC21.unit().is_central(1e-9)
    spec2 = AlgebraSpec((2,))
    a = spec2.element([np.diag([1.0, 2.0]).astype(complex)])
    assert not a.is_central(1e-9)
    rng = stream(7, 0)
    d = diag_element(SPEC111, list(rng.standard_normal(3)))
    assert d.is_central(1e-9)


def test_exactly_scalar_blocks_are_scalar_at_every_tol(monkeypatch):
    # trace/d rounds off c for many c, so the measured distance from the
    # nearest scalar is not 0; an exact c 1 must still be scalar at tol 0
    spec = AlgebraSpec((24, 12))
    for c in [*np.linspace(0.1, 3.0, 50), 0.3 + 0.7j]:
        assert (c * spec.unit()).scalar_blocks(0.0) == (True, True), c
    calls = record_kernels(monkeypatch)
    assert (1.7 * spec.unit()).scalar_blocks(0.0) == (True, True)
    assert SPEC111.central([0.2, -1.0, 3.0]).scalar_blocks(0.0) == (True, True, True)
    assert calls == []
    # a block off the identity line is still measured, and only it
    a = SPEC21.element([np.diag([1.0, 1.0 + 1e-12]), np.eye(1)])
    assert a.scalar_blocks(0.0) == (False, True)
    assert a.scalar_blocks(1e-9) == (True, True)
    assert calls


def test_scalar_block_residual_certifies_on_its_frobenius_norm(monkeypatch):
    # b - trace(b)/d 1 within tol in Frobenius norm is decided with no SVD,
    # of it or of the element for the scale max(1, ||a||)
    spec = AlgebraSpec((3,))
    a = spec.element([np.diag([0.7, 0.7, 0.7 + 1e-16])])
    calls = record_kernels(monkeypatch)
    assert a.is_central(1e-9)
    assert calls == [] and a._norm is None
    # above tol, the scale takes ||b|| and the residual its own SVD
    b = spec.element([np.diag([0.7, 0.7, 0.7 + 1e-6])])
    assert not b.is_central(1e-9)
    assert _shapes(calls) == [(3, 3), (3, 3)] and b._norm is not None


# -- property tests ------------------------------------------------------------------

complex_entries = st.complex_numbers(
    min_magnitude=0, max_magnitude=5, allow_nan=False, allow_infinity=False
)


@settings(max_examples=50, deadline=None)
@given(
    b0=arrays(np.complex128, (2, 2), elements=complex_entries),
    b1=arrays(np.complex128, (1, 1), elements=complex_entries),
)
def test_involution_is_isometric_involution(b0, b1):
    a = SPEC21.element([b0, b1])
    assert (a.adjoint().adjoint() - a).norm() == 0.0
    assert abs(a.adjoint().norm() - a.norm()) <= 1e-13 * max(1.0, a.norm())


@settings(max_examples=50, deadline=None)
@given(
    b0=arrays(np.complex128, (2, 2), elements=complex_entries),
    b1=arrays(np.complex128, (1, 1), elements=complex_entries),
)
def test_cstar_identity_property(b0, b1):
    a = SPEC21.element([b0, b1])
    lhs = (a.adjoint() * a).norm()
    assert lhs == pytest.approx(a.norm() ** 2, rel=1e-10, abs=1e-10)


def test_order_compatibility_under_conjugation():
    rng = stream(9, 0)
    for _ in range(20):
        a = random_hermitian(SPEC21, rng)
        x = random_element(SPEC21, rng)
        b = a + x.adjoint() * x
        c = random_element(SPEC21, rng)
        assert is_positive(c * b * c.adjoint() - c * a * c.adjoint(), 1e-9)
