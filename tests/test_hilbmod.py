import numpy as np
import pytest

from cstarframes import (
    AlgebraSpec,
    InputError,
    ModuleOperator,
    ModuleVector,
    PreconditionError,
    central_mult,
    identity_operator,
)
from cstarframes._kernels import sigma_max
from cstarframes.certify import FALSIFIED, psd_certificate
from cstarframes.sampling import (
    random_central,
    random_operator,
    random_vector,
    stream,
)

from oracles import (
    coordinate_vector,
    entries,
    flat,
    flatten,
    grid_operator,
    grid_vector,
    is_positive,
    module_mul,
    random_element,
    record_kernels,
    unflatten_vector,
)

SPEC = AlgebraSpec((2, 1))


# -- vectors and the inner product ------------------------------------------------


def test_inner_product_of_coordinate_vector():
    e0 = coordinate_vector(SPEC, 3, 0)
    assert (e0.inner(e0) - SPEC.unit()).norm() == 0.0


def test_inner_product_hermitian_symmetry():
    rng = stream(20, 0)
    f = random_vector(SPEC, 3, rng)
    g = random_vector(SPEC, 3, rng)
    lhs = f.inner(g).adjoint()
    rhs = g.inner(f)
    assert (lhs - rhs).norm() <= 1e-13 * max(1.0, lhs.norm())


def test_inner_product_first_argument_module_linear():
    rng = stream(21, 0)
    a = random_element(SPEC, rng)
    f = random_vector(SPEC, 2, rng)
    g = random_vector(SPEC, 2, rng)
    lhs = module_mul(f, a).inner(g)
    rhs = a * f.inner(g)
    assert (lhs - rhs).norm() <= 1e-12 * max(1.0, lhs.norm())


def test_sequence_example_inner_product_is_entrywise():
    # commutative three-block algebra, rank one: <u, u> = diag(|u_i|^2)
    spec = AlgebraSpec((1, 1, 1))
    u = grid_vector(spec, [spec.central([1 + 2j, -0.5, 3j])])
    got = u.inner(u)
    assert np.allclose(got.central_scalars(), [5.0, 0.25, 9.0])


def test_vector_norm():
    z = grid_vector(SPEC, [0 * SPEC.unit(), 0 * SPEC.unit()])
    assert z.norm() == 0.0
    assert coordinate_vector(SPEC, 2, 1).norm() == 1.0
    rng = stream(22, 0)
    f = random_vector(SPEC, 2, rng)
    assert f.norm() ** 2 == pytest.approx(f.inner(f).norm(), rel=1e-12)


def test_rank_and_spec_mismatch():
    rng = stream(23, 0)
    f = random_vector(SPEC, 2, rng)
    g = random_vector(SPEC, 3, rng)
    with pytest.raises(InputError):
        f.inner(g)
    # the constructors check block count, block shapes and rank agreement
    assert ModuleVector(SPEC, [np.ones((4, 2)), np.ones((2, 1))]).rank == 2
    bad_stacks = {
        "block count": [np.ones((4, 2))],
        "block shape": [np.ones((4, 2)), np.ones((2, 2))],
        "ranks disagree": [np.ones((4, 2)), np.ones((3, 1))],
    }
    for stacks in bad_stacks.values():
        with pytest.raises(InputError, match="block"):
            ModuleVector(SPEC, stacks)
    assert ModuleOperator(SPEC, 2, 3, [np.ones((6, 4)), np.ones((3, 2))]).norm() > 0.0
    bad_mats = {
        "block count": [np.ones((6, 4)), np.ones((3, 2)), np.ones((3, 2))],
        "block shape": [np.ones((6, 4)), np.ones((2, 3))],
        "ranks disagree": [np.ones((6, 4)), np.ones((2, 2))],
        "ranks swapped": [np.ones((4, 6)), np.ones((2, 3))],
    }
    for mats in bad_mats.values():
        with pytest.raises(InputError, match="block"):
            ModuleOperator(SPEC, 2, 3, mats)


def test_rank_zero_rejected():
    with pytest.raises(InputError):
        ModuleVector(SPEC, [])
    with pytest.raises(InputError, match="rank-0"):
        ModuleVector(SPEC, [np.zeros((0, 2)), np.zeros((0, 1))])
    with pytest.raises(InputError, match="rank-0"):
        ModuleOperator(SPEC, 0, 2, [np.zeros((4, 0)), np.zeros((2, 0))])


# -- operators -------------------------------------------------------------------


def test_identity_apply():
    rng = stream(24, 0)
    f = random_vector(SPEC, 3, rng)
    assert (identity_operator(SPEC, 3).apply(f) - f).norm() == 0.0


def test_adjoint_law_random():
    rng = stream(25, 0)
    for _ in range(10):
        t = random_operator(SPEC, 2, 3, rng)
        f = random_vector(SPEC, 2, rng)
        g = random_vector(SPEC, 3, rng)
        lhs = t.apply(f).inner(g)
        rhs = f.inner(t.adjoint().apply(g))
        assert (lhs - rhs).norm() <= 1e-11 * max(1.0, lhs.norm())


def test_adjoint_entry_convention():
    rng = stream(26, 0)
    t = random_operator(SPEC, 2, 3, rng)
    ta = t.adjoint()
    for j in range(2):
        for i in range(3):
            assert (entries(ta)[i][j] - entries(t)[j][i].adjoint()).norm() == 0.0


def test_compose_with_planted_inverse():
    rng = stream(27, 0)
    t = random_operator(SPEC, 3, 3, rng)
    t_inv = ModuleOperator(SPEC, 3, 3, [np.linalg.inv(m) for m in t.block_matrices()])
    ident = identity_operator(SPEC, 3)
    assert (t.compose(t_inv) - ident).norm() <= 1e-9
    assert (t_inv.compose(t) - ident).norm() <= 1e-9


def test_module_linearity_of_operators():
    rng = stream(28, 0)
    t = random_operator(SPEC, 2, 3, rng)
    a = random_element(SPEC, rng)
    f = random_vector(SPEC, 2, rng)
    lhs = t.apply(module_mul(f, a))
    rhs = module_mul(t.apply(f), a)
    assert (lhs - rhs).norm() <= 1e-12 * max(1.0, lhs.norm())


# -- flattening --------------------------------------------------------------------


def test_flatten_identity():
    flat_id = flatten(identity_operator(SPEC, 2))
    assert flat_id.shape == (2 * SPEC.total_dim, 2 * SPEC.total_dim)
    assert np.allclose(flat_id, np.eye(2 * SPEC.total_dim))


def test_flatten_star_compatibility():
    rng = stream(29, 0)
    t = random_operator(SPEC, 2, 3, rng)
    assert np.linalg.norm(flatten(t.adjoint()) - flatten(t).conj().T) <= 1e-12


def test_flatten_is_homomorphism():
    rng = stream(30, 0)
    t = random_operator(SPEC, 2, 3, rng)
    r = random_operator(SPEC, 3, 2, rng)
    lhs = flatten(r.compose(t))
    rhs = flatten(r) @ flatten(t)
    assert np.linalg.norm(lhs - rhs) <= 1e-11 * max(1.0, np.linalg.norm(rhs))


def test_flatten_action_consistency():
    rng = stream(31, 0)
    for _ in range(10):
        t = random_operator(SPEC, 2, 3, rng)
        f = random_vector(SPEC, 2, rng)
        lhs = flatten(t) @ flat(f)
        rhs = flat(t.apply(f))
        assert np.linalg.norm(lhs - rhs) <= 1e-11 * max(1.0, np.linalg.norm(rhs))


def test_unflatten_vector_roundtrip():
    rng = stream(32, 0)
    f = random_vector(SPEC, 3, rng)
    back = unflatten_vector(SPEC, 3, flat(f))
    assert (back - f).norm() == 0.0


def test_trace_inner_product_matches_flat_coordinates():
    rng = stream(33, 0)
    f = random_vector(SPEC, 2, rng)
    g = random_vector(SPEC, 2, rng)
    trace_ip = sum(np.trace(b) for b in f.inner(g).blocks)
    coord_ip = np.vdot(flat(g), flat(f))  # conjugates the second factor
    assert abs(trace_ip - coord_ip) <= 1e-12 * max(1.0, abs(trace_ip))


# -- positivity and norms ------------------------------------------------------------


def test_op_positive_identity_and_negation():
    ident = identity_operator(SPEC, 2)
    assert psd_certificate(ident, 1e-9, "identity").ok
    assert psd_certificate(ident.scalar_mul(-1.0), 1e-9, "minus-identity").status == FALSIFIED


def test_op_positive_gram_and_sampled_cross_check():
    rng = stream(34, 0)
    r = random_operator(SPEC, 3, 2, rng)
    gram = r.compose(r.adjoint())
    assert psd_certificate(gram, 1e-9, "gram").ok
    for _ in range(100):
        f = random_vector(SPEC, 2, rng)
        assert is_positive(gram.apply(f).inner(f), 1e-9)


def test_op_norm_identity():
    assert identity_operator(SPEC, 3).norm() == pytest.approx(1.0)


def test_op_norm_central_multiplication():
    spec = AlgebraSpec((1, 1, 1))
    m = central_mult(spec.central([4 / 3, 5 / 6, 2 / 3]), 1)
    assert m.norm() == pytest.approx(4 / 3, abs=1e-14)


def test_module_norm_inequality():
    rng = stream(35, 0)
    for _ in range(20):
        t = random_operator(SPEC, 2, 2, rng)
        f = random_vector(SPEC, 2, rng)
        tf = t.apply(f)
        gap = (t.norm() ** 2) * f.inner(f) - tf.inner(tf)
        assert is_positive(gap, 1e-9)


# -- central multiplication -----------------------------------------------------------


def test_central_mult_unit_is_identity():
    m = central_mult(SPEC.unit(), 3)
    assert (m - identity_operator(SPEC, 3)).norm() == 0.0


def test_central_mult_adjoint_is_star():
    rng = stream(36, 0)
    a = random_central(SPEC, rng)
    m = central_mult(a, 2)
    assert (m.adjoint() - central_mult(a.adjoint(), 2)).norm() <= 1e-13


def test_central_mult_commutative_case():
    spec = AlgebraSpec((1, 1))
    a = spec.central([2.0, 3.0])
    m = central_mult(a, 1)
    f = grid_vector(spec, [spec.unit()])
    out = m.apply(f)
    assert np.allclose(entries(out)[0].central_scalars(), [2.0, 3.0])


def test_central_mult_rejects_non_central():
    spec = AlgebraSpec((2,))
    a = spec.element([np.diag([1.0, 2.0]).astype(complex)])
    with pytest.raises(PreconditionError):
        central_mult(a, 2)


def test_central_mult_action_is_module_action():
    rng = stream(37, 0)
    a = random_central(SPEC, rng)
    f = random_vector(SPEC, 2, rng)
    assert (central_mult(a, 2).apply(f) - module_mul(f, a)).norm() <= 1e-13


# -- projections ------------------------------------------------------------------------


def test_projection_checks():
    assert identity_operator(SPEC, 2).is_projection(1e-9)
    grid = [
        [SPEC.unit(), 0 * SPEC.unit()],
        [0 * SPEC.unit(), 0 * SPEC.unit()],
    ]
    p = grid_operator(SPEC, grid)
    assert p.is_projection(1e-9)


def test_planted_hermitian_idempotent():
    # eigen-truncation of a random positive operator yields a projection
    rng = stream(38, 0)
    r = random_operator(SPEC, 3, 3, rng)
    gram = r.compose(r.adjoint())
    mats = []
    for m in gram.block_matrices():
        w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
        keep = w > 0.5 * w.max()
        mats.append((v[:, keep]) @ v[:, keep].conj().T)
    p = ModuleOperator(SPEC, 3, 3, mats)
    assert p.is_projection(1e-9)
    assert not (p + identity_operator(SPEC, 3)).is_projection(1e-9)


# -- invariants -----------------------------------------------------------------------


def test_cauchy_schwarz_surrogate():
    rng = stream(39, 0)
    for _ in range(50):
        f = random_vector(SPEC, 2, rng)
        g = random_vector(SPEC, 2, rng)
        assert f.inner(g).norm() <= f.norm() * g.norm() + 1e-10


def test_faithfulness_of_flattening_positivity():
    # non-positive Hermitian operators expose a violating vector quickly
    rng = stream(40, 0)
    tol = 1e-9
    checked = 0
    for _ in range(100):
        r = random_operator(SPEC, 2, 2, rng)
        t = r + r.adjoint()
        cert = psd_certificate(t, tol, "t")
        if cert.ok:
            continue
        checked += 1
        if cert.status != FALSIFIED:
            continue  # near-boundary exemption
        found = False
        for _ in range(1000):
            f = random_vector(SPEC, 2, rng)
            if not is_positive(t.apply(f).inner(f), tol):
                found = True
                break
        assert found
    assert checked >= 50


def test_negative_witness_matches_eigenvalue():
    rng = stream(41, 0)
    r = random_operator(SPEC, 2, 2, rng)
    t = r + r.adjoint()
    lam, f = t.negative_witness()
    quad = t.apply(f).inner(f)
    trace = sum(np.trace(b).real for b in quad.blocks)
    assert trace == pytest.approx(lam, rel=1e-9, abs=1e-12)


def test_self_inner_product_always_positive():
    # the gram <f, f> is a sum of products a a*, positive by construction
    rng = stream(42, 0)
    for _ in range(50):
        f = random_vector(SPEC, 3, rng)
        assert is_positive(f.inner(f), 1e-9)


# -- stored layout ------------------------------------------------------------------

LAYOUT_CASES = [
    pytest.param(AlgebraSpec(dims), rank, id=f"{'+'.join(map(str, dims))}-rank{rank}")
    for dims in ((2, 1), (1,))
    for rank in (1, 3)
]


def _assert_same_bits(xs, ys):
    assert len(xs) == len(ys)
    for x, y in zip(xs, ys):
        assert x.shape == y.shape and x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize(("spec", "rank"), LAYOUT_CASES)
def test_random_draws_keep_elementwise_draw_order(spec, rank):
    f = random_vector(spec, rank, stream(43, rank))
    rng = stream(43, rank)
    g = grid_vector(spec, [random_element(spec, rng) for _ in range(rank)])
    _assert_same_bits(f.stacks, g.stacks)

    out_rank = 4 - rank
    t = random_operator(spec, rank, out_rank, stream(44, rank))
    rng = stream(44, rank)
    grid = [[random_element(spec, rng) for _ in range(out_rank)] for _ in range(rank)]
    _assert_same_bits(t.block_matrices(), grid_operator(spec, grid).block_matrices())


@pytest.mark.parametrize(("spec", "rank"), LAYOUT_CASES)
def test_entries_view_agrees_with_stored_arrays(spec, rank):
    rng = stream(45, rank)
    f = random_vector(spec, rank, rng)
    _assert_same_bits(grid_vector(spec, entries(f)).stacks, f.stacks)
    t = random_operator(spec, rank, 4 - rank, rng)
    for op in (t, t.adjoint(), t.compose(t.adjoint())):
        _assert_same_bits(grid_operator(spec, entries(op)).block_matrices(), op.block_matrices())

    # one matmul per block against the entrywise definitions, summed term by term
    g = random_vector(spec, rank, rng)
    fe, ge, grid = entries(f), entries(g), entries(t)
    ip = sum((a * b.adjoint() for a, b in zip(fe, ge)), 0 * spec.unit())
    assert (f.inner(g) - ip).norm() <= 1e-13 * max(1.0, ip.norm())
    tf = grid_vector(
        spec,
        [sum((fe[j] * grid[j][i] for j in range(rank)), 0 * spec.unit()) for i in range(4 - rank)],
    )
    assert (t.apply(f) - tf).norm() <= 1e-13 * max(1.0, tf.norm())


# -- memoised operator norm -----------------------------------------------------------


def _built_every_way(spec, rng):
    """The same operators through the grid oracle, the public constructor
    and the internal wrapper that compose/adjoint/+ use."""
    t = random_operator(spec, 3, 2, rng)
    grid = grid_operator(spec, entries(t))
    copied = ModuleOperator(spec, 3, 2, [np.array(m) for m in t.block_matrices()])
    return {"grid": grid, "constructor": copied, "adjoint": t.adjoint(),
            "compose": t.adjoint().compose(t), "sum": t + t, "identity": identity_operator(spec, 2)}


@pytest.mark.parametrize("spec", [SPEC, AlgebraSpec((1,)), AlgebraSpec((3, 2, 1))],
                         ids=["2+1", "1", "3+2+1"])
def test_operator_norm_equals_kernel_on_every_constructor(spec):
    for name, op in _built_every_way(spec, stream(46, spec.n_blocks)).items():
        fresh = max(float(sigma_max(m)) for m in op.block_matrices())
        assert op.norm() == fresh, name
        assert op.norm() == max(float(np.linalg.norm(m, ord=2)) for m in op.block_matrices())


def test_operator_norm_is_computed_once(monkeypatch):
    ops = _built_every_way(SPEC, stream(47, 0))
    calls = record_kernels(monkeypatch)
    for name, op in ops.items():
        calls.clear()
        first = op.norm()
        assert len(calls) == SPEC.n_blocks, name
        assert op.norm() == first and len(calls) == SPEC.n_blocks, name


def test_operator_block_matrices_are_read_only():
    for name, op in _built_every_way(SPEC, stream(48, 0)).items():
        before = op.norm()
        with pytest.raises(ValueError):
            op.block_matrices()[0][0, 0] = 7.0
        assert op.norm() == before, name
    src = [np.eye(2, dtype=complex), np.eye(1, dtype=complex)]
    t = ModuleOperator(SPEC, 1, 1, src)
    f = ModuleVector(SPEC, src)
    src[0][0, 0] = 5.0  # the constructors store copies
    assert t.norm() == 1.0
    assert f.norm() == 1.0
    with pytest.raises(ValueError):
        f.stacks[0][0, 0] = 7.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)],
                         ids=["nan", "inf", "imag-inf"])
def test_nonfinite_block_matrices_rejected(bad):
    mats = [np.eye(4, dtype=complex), np.eye(2, dtype=complex)]
    mats[0][1, 2] = bad
    with pytest.raises(InputError, match="finite"):
        ModuleOperator(SPEC, 2, 2, mats)
    stacks = [np.ones((4, 2), dtype=complex), np.ones((2, 1), dtype=complex)]
    stacks[1][1, 0] = bad
    with pytest.raises(InputError, match="finite"):
        ModuleVector(SPEC, stacks)
