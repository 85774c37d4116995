import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarframes import (
    AlgebraSpec,
    FrameSeq,
    InputError,
    Instance,
    PreconditionError,
    central_mult,
    certify_kframe,
    coordinate_frame,
    exact_branch_M,
    identity_operator,
    douglas,
    optimal_scalar_bounds,
    pencil_lower_bound,
    pertur1_audit,
    pertur2_audit,
    run_suite,
    save_instance,
    transform_frame,
)
from cstarframes import cli, frames, harness, perturb
from cstarframes.algebra import AlgElement
from cstarframes.harness import random_instance
from cstarframes.hilbmod import ModuleOperator
from cstarframes.perturb import difference_synthesis
from cstarframes.sampling import random_operator, random_unitary, random_vector, stream

from oracles import (
    abg_grid_margin, branch_oracle, coefficient_gram_direct, coordinate_vector, entries, flat,
    flatten, grid_vector, record_kernels,
)

SPEC = AlgebraSpec((2, 1))


def random_frame(rank, count, rng, spec=SPEC):
    return FrameSeq([random_vector(spec, rank, rng) for _ in range(count)])


def perturbed(frame, rng, eps):
    return FrameSeq(
        [m + random_vector(frame.spec, frame.rank, rng).scalar_mul(eps)
         for m in frame.members]
    )


def margin_bounds(frame, k_op, margin=0.05):
    lam, mu = optimal_scalar_bounds(frame, k_op)
    a = math.sqrt(lam * (1 - margin)) * frame.spec.unit()
    b = math.sqrt(mu) * (1 + margin) * frame.spec.unit()
    return a, b


# -- difference quadratic ------------------------------------------------------------
#
# ||sum_j <f, f_j - h_j><f_j - h_j, f>|| is ||<D* f, D* f>||


def difference_adjoint(fr, hs, f):
    """D* f, D the synthesis of {f_j - h_j}."""
    return difference_synthesis(fr, hs).adjoint().apply(f)


def test_difference_quadratic_vanishes_for_equal_families():
    rng = stream(140, 0)
    fr = random_frame(2, 4, rng)
    d = difference_adjoint(fr, fr, random_vector(SPEC, 2, rng))
    assert d.inner(d).norm() <= 1e-24


def test_difference_quadratic_against_zero_family():
    rng = stream(141, 0)
    fr = random_frame(2, 4, rng)
    zero_members = [
        grid_vector(SPEC, [0 * SPEC.unit(), 0 * SPEC.unit()]) for _ in range(4)
    ]
    zeros = FrameSeq(zero_members)
    f = random_vector(SPEC, 2, rng)
    d = difference_adjoint(fr, zeros, f)
    want = fr.analysis(f).norm() ** 2
    assert d.inner(d).norm() == pytest.approx(want, rel=1e-12)


def test_difference_quadratic_matches_direct_sum():
    rng = stream(142, 0)
    fr = random_frame(2, 4, rng)
    hs = perturbed(fr, rng, 0.3)
    diff_members = [a - b for a, b in zip(fr.members, hs.members)]
    diff_frame = FrameSeq(diff_members)
    for _ in range(10):
        f = random_vector(SPEC, 2, rng)
        d = difference_adjoint(fr, hs, f)
        want = coefficient_gram_direct(diff_frame, f).norm()
        assert d.inner(d).norm() == pytest.approx(want, rel=1e-11, abs=1e-14)


def test_member_count_mismatch_rejected():
    rng = stream(143, 0)
    with pytest.raises(InputError):
        difference_synthesis(random_frame(2, 4, rng), random_frame(2, 3, rng))


# -- exact branch constants ------------------------------------------------------------


def test_branches_zero_for_equal_families():
    rng = stream(144, 0)
    fr = random_frame(2, 4, rng)
    assert exact_branch_M(fr, fr) == (0.0, 0.0)


def test_branches_closed_form_scaling():
    rng = stream(145, 0)
    fr = random_frame(2, 5, rng)
    eps = 0.25
    hs = FrameSeq([m.scalar_mul(1 + eps) for m in fr.members])
    m_f, m_h = exact_branch_M(fr, hs)
    assert m_f == pytest.approx(eps**2, abs=1e-9)
    assert m_h == pytest.approx(eps**2 / (1 + eps) ** 2, abs=1e-9)


def test_branches_match_pencil_oracle():
    rng = stream(146, 0)
    for _ in range(5):
        fr = random_frame(2, 4, rng)
        hs = perturbed(fr, rng, 0.5)
        m_f, m_h = exact_branch_M(fr, hs)
        d_op = difference_synthesis(fr, hs)
        assert m_f == pytest.approx(branch_oracle(d_op, fr.synthesis_op), rel=1e-8)
        assert m_h == pytest.approx(branch_oracle(d_op, hs.synthesis_op), rel=1e-8)


def test_branches_invariant_under_module_unitary():
    rng = stream(147, 0)
    fr = random_frame(2, 4, rng)
    hs = perturbed(fr, rng, 0.3)
    m0 = exact_branch_M(fr, hs)
    u = random_unitary(SPEC, 2, rng)
    m1 = exact_branch_M(transform_frame(fr, u), transform_frame(hs, u))
    assert m1[0] == pytest.approx(m0[0], rel=1e-9, abs=1e-12)
    assert m1[1] == pytest.approx(m0[1], rel=1e-9, abs=1e-12)


# -- min-type audit -----------------------------------------------------------------------


def test_pertur1_trivial_equal_families():
    rng = stream(148, 0)
    fr = random_frame(2, 5, rng)
    k = fr.synthesis_op.compose(random_operator(SPEC, 2, 5, rng))
    a, b = margin_bounds(fr, k)
    cert = pertur1_audit(fr, fr, k, k, a, b)
    assert cert.witness["M"] == 0.0
    assert cert.status == "certified"


def test_pertur1_planted_small_perturbation():
    rng = stream(149, 0)
    fr = random_frame(2, 5, rng)
    k = fr.synthesis_op.compose(random_operator(SPEC, 2, 5, rng))
    a, b = margin_bounds(fr, k)
    hs = perturbed(fr, rng, 1e-3)
    cert = pertur1_audit(fr, hs, k, k, a, b)
    assert cert.status == "certified"
    assert cert.witness["M"] < 1e-2
    assert math.sqrt(cert.witness["bessel_of_h"] ** 2) <= (
        1 + math.sqrt(cert.witness["M"])
    ) * b.norm() + 1e-9


def test_pertur1_sampled_ratio_below_branches():
    # the pointwise min-ratio min(q/a, q/b) of every f lies below both
    # exact branch constants, so its sampled maximum does too
    rng = stream(150, 0)
    fr = random_frame(2, 4, rng)
    k = fr.synthesis_op.compose(random_operator(SPEC, 2, 4, rng))
    a, b = margin_bounds(fr, k)
    hs = perturbed(fr, rng, 0.4)
    cert = pertur1_audit(fr, hs, k, k, a, b)
    sampled = sequential_min_ratio(fr, hs, 200, 3)
    assert 0.0 < sampled <= min(cert.witness["branch_M_f"], cert.witness["branch_M_h"]) + 1e-9


def test_pertur1_conclusion_soundness():
    # whenever the audit certifies, a direct certification with the derived
    # scalar bounds certifies too
    rng = stream(151, 0)
    for trial in range(5):
        fr = random_frame(2, 5, rng)
        k = fr.synthesis_op.compose(random_operator(SPEC, 2, 5, rng))
        a, b = margin_bounds(fr, k)
        hs = perturbed(fr, rng, 1e-3)
        cert = pertur1_audit(fr, hs, k, k, a, b)
        if cert.status != "certified":
            continue
        nu = cert.witness["pencil_lower_H"]
        low = math.sqrt(nu * (1 - 1e-9)) * SPEC.unit()
        up = (1 + math.sqrt(cert.witness["M"])) * b.norm() * SPEC.unit()
        direct = certify_kframe(hs, k, low, up, 1e-9)
        assert direct.status == "certified"


def test_pertur1_requires_base_frame():
    rng = stream(152, 0)
    fr = random_frame(2, 4, rng)
    k = identity_operator(SPEC, 2)
    bad_a = 100.0 * SPEC.unit()
    with pytest.raises(PreconditionError, match="K-frame"):
        pertur1_audit(fr, fr, k, k, bad_a, 100.0 * SPEC.unit())


def test_pertur1_requires_range_inclusion():
    rng = stream(153, 0)
    members = [
        grid_vector(SPEC, [entries(random_vector(SPEC, 2, rng))[0], 0 * SPEC.unit()])
        for _ in range(4)
    ]
    fr = FrameSeq(members)
    k = fr.synthesis_op.compose(random_operator(SPEC, 2, 4, rng))
    a, b = margin_bounds(fr, k)
    l_full = identity_operator(SPEC, 2)
    with pytest.raises(PreconditionError, match="R\\(L\\)"):
        pertur1_audit(fr, fr, k, l_full, a, b)


def _no_branch_instance():
    """f = {e_1, 0}, h = {0, e_2}, K = diag(1, 0), A = 0.9, B = 1.1 on A^2, A = C."""
    spec = AlgebraSpec((1,))
    e1, e2, zero = (grid_vector(spec, [x * spec.unit(), y * spec.unit()])
                    for x, y in ((1, 0), (0, 1), (0, 0)))
    k = ModuleOperator(spec, 2, 2, [np.diag([1.0, 0.0])])
    return FrameSeq([e1, zero]), FrameSeq([zero, e2]), k, 0.9 * spec.unit(), 1.1 * spec.unit()


def test_pertur1_with_no_branch_is_a_precondition_error(monkeypatch):
    # neither branch of the hypothesis holds, so there is no conclusion to
    # falsify: the audit raises, and a suite row is an error (CLI exit 3)
    fr, hs, k, a, b = _no_branch_instance()
    assert exact_branch_M(fr, hs) == (math.inf, math.inf)
    with pytest.raises(PreconditionError,
                       match=r"R\(U_F\) nor R\(U_H\), range residuals 1.000e\+00 and 1.000e\+00"):
        pertur1_audit(fr, hs, k, k, a, b)
    monkeypatch.setattr(harness, "_perturbed_trial", lambda *args: _no_branch_instance())
    row = run_suite("perturb1", trials=1, seed=0)["trials"][0]
    assert row["status"] == "error" and "range residuals" in row["error"]


def test_tiny_positive_nu_is_inconclusive_not_an_input_error():
    # {h_j} = {3e-10} is an L-frame with nu = 9e-20, inside (0, 10 tol]:
    # no lower bound is resolved at tol, which is near the boundary, not
    # a bound A that the caller got wrong
    spec = AlgebraSpec((1,))
    one = identity_operator(spec, 1)
    fr, hs = (FrameSeq([grid_vector(spec, [x * spec.unit()])]) for x in (1.0, 3e-10))
    cert = pertur1_audit(fr, hs, one, one, 0.9 * spec.unit(), 1.1 * spec.unit(), tol=1e-9)
    assert cert.witness["pencil_lower_H"] == pytest.approx(9e-20, rel=1e-12)
    assert cert.status == "inconclusive"


def test_zero_nu_conclusion_carries_a_cokernel_witness():
    # h = diag(1, 0) against the coordinate frame of A^2, K = L = 1: nu = 0,
    # and the conclusion is falsified with a vector f that U_H* kills and
    # L* does not, re-checked on the flattening with no kernel of the library
    fr = FrameSeq(list(coordinate_frame(SPEC, 2).members))
    hs = FrameSeq([coordinate_vector(SPEC, 2, 0), grid_vector(SPEC, [0 * SPEC.unit()] * 2)])
    one = identity_operator(SPEC, 2)
    cert = pertur1_audit(fr, hs, one, one, 0.9 * SPEC.unit(), 1.1 * SPEC.unit())
    assert (cert.status, cert.claim) == ("falsified", "perturb-min-conclusion")
    assert cert.witness["pencil_lower_H"] == 0.0
    x = flat(cert.witness_vector)
    u_h, l = (flatten(t).conj().T for t in (hs.synthesis_op, one))
    assert np.linalg.norm(u_h @ x) == 0.0 < np.linalg.norm(x)
    assert np.linalg.norm(l @ x) == pytest.approx(np.linalg.norm(x), rel=1e-12)


# -- three-constant audit -------------------------------------------------------------------


def test_pertur2_exact_zero_constants():
    rng = stream(155, 0)
    fr = random_frame(2, 5, rng)
    k = fr.synthesis_op.compose(random_operator(SPEC, 2, 5, rng))
    a, b = margin_bounds(fr, k)
    cert = pertur2_audit(fr, fr, k, k, 0.0, 0.0, 0.0, a, b)
    assert cert.witness["hypothesis"] == "certified"
    assert cert.status == "certified"


def test_pertur2_closed_form_scaling():
    # h_j = (1 - delta) f_j satisfies the hypothesis exactly with
    # alpha = delta, beta = gamma = 0
    rng = stream(156, 0)
    fr = random_frame(2, 5, rng)
    k = fr.synthesis_op.compose(random_operator(SPEC, 2, 5, rng))
    a, b = margin_bounds(fr, k)
    delta = 0.1
    hs = FrameSeq([m.scalar_mul(1 - delta) for m in fr.members])
    cert = pertur2_audit(fr, hs, k, k, delta, 0.0, 0.0, a, b)
    assert cert.witness["hypothesis"] == "certified"
    assert cert.status == "certified"


def test_pertur2_planted_ensemble():
    rng = stream(157, 0)
    for trial in range(5):
        fr = random_frame(2, 5, rng)
        k = fr.synthesis_op.compose(random_operator(SPEC, 2, 5, rng))
        a, b = margin_bounds(fr, k)
        hs = perturbed(fr, rng, 1e-3)
        cert = pertur2_audit(fr, hs, k, k, 0.2, 0.1, 0.05, a, b)
        assert cert.witness["hypothesis"] == "certified"
        assert cert.status == "certified"


def sequential_lower_violation(hs, k, g, tol, samples, seed):
    """First f with ||U_H* f|| < g ||K* f|| - tol max(1, g ||K* f||), the
    sampled lower-constant check `pertur2_audit` once ran."""
    rng = stream(seed, 0xAC)
    for i in range(samples):
        f = random_vector(hs.spec, hs.rank, rng)
        rhs = g * k.adjoint().apply(f).norm()
        if math.sqrt(hs.coefficient_gram(f).norm()) < rhs - tol * max(1.0, rhs):
            return i, f
    return None


def test_pertur2_lower_constant_is_the_pencil_bound():
    # ||U_H* f|| >= g ||K* f|| for all f iff g^2 <= pencil_lower_bound(K, U_H):
    # the audit certifies g_sound, the sampler agrees, and above the pencil
    # value every sampled violation is an exact one
    rng = stream(157, 0)
    for trial in range(3):
        fr = random_frame(2, 5, rng)
        k = fr.synthesis_op.compose(random_operator(SPEC, 2, 5, rng))
        a, b = margin_bounds(fr, k)
        hs = perturbed(fr, rng, 1e-3)
        cert = pertur2_audit(fr, hs, k, k, 0.2, 0.1, 0.05, a, b)
        assert cert.witness["part1:perturb-abg-lower"] == "certified"
        g_sound = cert.witness["g_sound"]
        pencil = pencil_lower_bound(k, hs.synthesis_op)
        assert 0.0 < g_sound**2 <= pencil
        assert sequential_lower_violation(hs, k, g_sound, 1e-9, 200, trial) is None
        g_high = 1.5 * math.sqrt(pencil)
        u_h = hs.synthesis_op
        size = max(u_h.norm() ** 2, g_high**2 * k.norm() ** 2)
        exact = douglas._majorization(k, u_h, g_high**2, 1e-9, size)
        assert exact.status == "falsified"
        if sequential_lower_violation(hs, k, g_high, 1e-9, 200, trial) is not None:
            w = exact.witness_vector
            assert math.sqrt(hs.coefficient_gram(w).norm()) < g_high * k.adjoint().apply(w).norm()


def test_pertur2_reads_sigma_min_of_a_the_bound_carries():
    # on a 3 x 3 block trace/3 rounds 0.7 off; sigma_min(A) is its exact scalar
    spec = AlgebraSpec((3,))
    rng = stream(160, 0)
    fr = random_frame(2, 5, rng, spec)
    k = fr.synthesis_op.compose(random_operator(spec, 2, 5, rng))
    lam, mu = optimal_scalar_bounds(fr, k)
    a = spec.central([0.7 * math.sqrt(lam)])
    b = spec.central([1.05 * math.sqrt(mu)])
    cert = pertur2_audit(fr, fr, k, k, 0.0, 0.0, 0.0, a, b)
    assert cert.witness["sigma_min_A"] == a.exact_scalars()[0].real == a.norm()
    assert cert.status == "certified"


def test_pertur2_rejects_bad_constants():
    rng = stream(158, 0)
    fr = random_frame(2, 4, rng)
    k = fr.synthesis_op.compose(random_operator(SPEC, 2, 4, rng))
    a, b = margin_bounds(fr, k)
    with pytest.raises(InputError):
        pertur2_audit(fr, fr, k, k, 0.9, 0.0, a.norm(), a, b)
    with pytest.raises(InputError):
        pertur2_audit(fr, fr, k, k, 0.0, 1.0, 0.0, a, b)


def test_pertur2_falsifies_violated_hypothesis():
    # alpha = beta = gamma = 0 demands h_j = f_j; any real perturbation
    # produces a witness
    rng = stream(159, 0)
    fr = random_frame(2, 5, rng)
    k = fr.synthesis_op.compose(random_operator(SPEC, 2, 5, rng))
    a, b = margin_bounds(fr, k)
    hs = perturbed(fr, rng, 0.5)
    cert = pertur2_audit(fr, hs, k, k, 0.0, 0.0, 0.0, a, b)
    assert cert.witness["hypothesis"] == "falsified"
    assert cert.claim == "perturb-abg-hypothesis"
    assert_witness_rechecks(cert, fr, hs, k, (0.0, 0.0, 0.0))


# -- constants that follow from their proofs ----------------------------------------------------


def test_perturb1_sweep_certifies_every_bessel_bound_it_reports():
    # the conclusion's Bessel bound is the one a holding branch proves, so
    # no row of the sweep is falsified, and every row at epsilon <= 0.3
    # stays certified as under the former (1 + sqrt(M)) ||B||
    for seed in range(4):
        for eps in (1e-3, 0.05, 0.3, 2.0, 5.0):
            for row in run_suite("perturb1", trials=40, seed=seed, epsilon=eps)["trials"]:
                assert row["status"] != "falsified", (seed, eps, row)
                assert row["bessel_of_h"] <= row["bessel_bound"], (seed, eps, row)
                if eps <= 0.3:
                    assert row["status"] == "certified", (seed, eps, row)


def _no_bounding_branch_instance():
    """f = {e_1, 0}, h = {e_1 + 5 e_2, 5 e_2}, K = L = diag(1, 0), A = 0.9,
    B = 1.1 on A^2, A = C: R(D) = span e_2 is not inside R(U_F), and
    m_h = 2, so neither branch bounds {h_j}."""
    spec = AlgebraSpec((1,))
    f1, f2, h1, h2 = (grid_vector(spec, [x * spec.unit(), y * spec.unit()])
                      for x, y in ((1, 0), (0, 0), (1, 5), (0, 5)))
    k = ModuleOperator(spec, 2, 2, [np.diag([1.0, 0.0])])
    return FrameSeq([f1, f2]), FrameSeq([h1, h2]), k, 0.9 * spec.unit(), 1.1 * spec.unit()


def test_pertur1_with_no_bounding_branch_is_a_precondition_error(tmp_path, capsys):
    # the constant (1 + sqrt(m_h)) ||B|| = 2.66 that the H branch does not
    # prove, against sigma_max(U_H) = 7.1, was once a falsified conclusion
    fr, hs, k, a, b = _no_bounding_branch_instance()
    m_f, m_h = exact_branch_M(fr, hs)
    assert m_f == math.inf and m_h == pytest.approx(2.0)
    message = r"no Bessel bound of \{h_j\}: .* branch_M_h = 2.000e\+00 is not below 1"
    with pytest.raises(PreconditionError, match=message):
        pertur1_audit(fr, hs, k, k, a, b)
    path = tmp_path / "inst.json"
    save_instance(Instance(spec=fr.spec, rank=2, members=fr, h_members=hs,
                           operators={"K": k}, bounds={"A": a, "B": b}), path)
    assert cli.main(["perturb1", "--input", str(path)]) == 3
    assert "no Bessel bound of {h_j}" in capsys.readouterr().err


def test_pertur2_divides_by_sigma_min_of_a(tmp_path, capsys):
    # D = -K/2 meets the hypothesis with gamma = 0.5, alpha = beta = 0, and
    # A = (1, 0.0099) is a lower bound; ||K* f|| <= ||U_F* f|| / 0.0099 only,
    # so gamma / sigma_min(A) = 50.5 breaks the precondition that
    # gamma / ||A|| = 0.5 met, with upper_const 1.575 < sigma_max(U_H) = 51
    spec = AlgebraSpec((1, 1))
    fr, hs = (FrameSeq([grid_vector(spec, [spec.central(v)])]) for v in ([1, 1], [1.5, 51]))
    k = central_mult(spec.central([1, 100]), 1)
    a, b = spec.central([1, 0.0099]), 1.05 * spec.unit()
    assert certify_kframe(fr, k, a, b).ok
    with pytest.raises(InputError, match=r"gamma/sigma_min\(A\), beta\) < 1"):
        pertur2_audit(fr, hs, k, k, 0.0, 0.0, 0.5, a, b)
    path = tmp_path / "inst.json"
    save_instance(Instance(spec=spec, rank=1, members=fr, h_members=hs, operators={"K": k},
                           bounds={"A": a, "B": b},
                           perturbation={"alpha": 0.0, "beta": 0.0, "gamma": 0.5}), path)
    assert cli.main(["perturb2", "--input", str(path)]) == 3
    assert "sigma_min(A)" in capsys.readouterr().err


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    eps=st.floats(0.0, 5.0),
    shrink=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
    constants=st.tuples(st.floats(0.0, 0.6), st.floats(0.0, 0.6), st.floats(0.0, 0.3)),
)
def test_no_conclusion_is_falsified_under_a_certified_hypothesis(seed, eps, shrink, constants):
    # A is a lower bound of {f_j} scaled block by block, so sigma_min(A) <
    # ||A|| where the blocks differ; whatever {h_j} is, a hypothesis that
    # holds yields a conclusion that is not falsified
    frame, k, _ = harness._generic_draw(seed)
    lam, mu = optimal_scalar_bounds(frame, k)
    a = SPEC.central([s * math.sqrt(lam) for s in shrink])
    b = SPEC.central([1.05 * math.sqrt(mu)] * 2)
    hs = harness._perturbed_pair(frame, seed + 3, eps)
    try:
        assert pertur1_audit(frame, hs, k, k, a, b).status != "falsified"
    except PreconditionError:
        pass  # no branch of the hypothesis bounds {h_j}
    try:
        cert = pertur2_audit(frame, hs, k, k, *constants, a, b)
    except InputError:
        return  # the constants fail the precondition
    assert not (cert.status == "falsified" and cert.witness["hypothesis"] == "certified")


# -- shared invariants --------------------------------------------------------------------------


def test_triangle_consistency():
    rng = stream(160, 0)
    fr = random_frame(2, 4, rng)
    hs = perturbed(fr, rng, 0.3)
    d_adj = difference_synthesis(fr, hs).adjoint()
    for _ in range(50):
        f = random_vector(SPEC, 2, rng)
        nf = fr.analysis(f).norm()
        nh = hs.analysis(f).norm()
        nd = d_adj.apply(f).norm()
        assert abs(nh - nf) <= nd + 1e-10




# -- the three-constant hypothesis against direct evaluation ---------------------------

ABG = (0.2, 0.1, 0.05)  # the constants of the perturb2 suite


def assert_witness_rechecks(cert, fr, hs, k, constants, tol=1e-9):
    """A falsified three-constant hypothesis carries f with ||D* f|| >
    rhs + tol max(1, rhs), re-evaluated here through the difference
    synthesis and the member-by-member coefficient Grams."""
    assert cert.status == "falsified" and cert.claim == "perturb-abg-hypothesis"
    w = cert.witness_vector
    alpha, beta, gamma = constants
    lhs = difference_adjoint(fr, hs, w).norm()
    rhs = (
        alpha * math.sqrt(coefficient_gram_direct(fr, w).norm())
        + beta * math.sqrt(coefficient_gram_direct(hs, w).norm())
        + gamma * k.adjoint().apply(w).norm()
    )
    assert lhs > rhs + tol * max(1.0, rhs)
    assert lhs == pytest.approx(cert.witness["lhs"], rel=1e-9)
    assert rhs == pytest.approx(cert.witness["rhs"], rel=1e-9)


def sequential_min_ratio(fr, hs, samples, seed):
    rng = stream(seed, 0x3E)
    worst = 0.0
    for _ in range(samples):
        f = random_vector(fr.spec, fr.rank, rng)
        d = difference_adjoint(fr, hs, f)
        q = d.inner(d).norm()
        ratios = [q / x for x in (fr.coefficient_gram(f).norm(), hs.coefficient_gram(f).norm())
                  if x > 1e-30]
        if ratios:
            worst = max(worst, min(ratios))
    return worst


def sequential_abg_violation(fr, hs, k, alpha, beta, gamma, tol, samples, seed):
    """First sampled f violating the three-constant hypothesis, the check
    `pertur2_audit` once ran one sample at a time."""
    rng = stream(seed, 0xAB)
    for i in range(samples):
        f = random_vector(fr.spec, fr.rank, rng)
        lhs = difference_adjoint(fr, hs, f).norm()
        rhs = (
            alpha * math.sqrt(fr.coefficient_gram(f).norm())
            + beta * math.sqrt(hs.coefficient_gram(f).norm())
            + gamma * k.adjoint().apply(f).norm()
        )
        if lhs > rhs + tol * max(1.0, rhs):
            return i, lhs, rhs
    return None


def _abg_setup(case):
    if case == "scaled":  # test_pertur2_closed_form_scaling: holds
        rng = stream(156, 0)
        fr = random_frame(2, 5, rng)
        k = fr.synthesis_op.compose(random_operator(SPEC, 2, 5, rng))
        hs = FrameSeq([m.scalar_mul(1 - 0.1) for m in fr.members])
        return fr, hs, k, (0.1, 0.0, 0.0), 200, 6
    # test_pertur2_falsifies_violated_hypothesis, and a case where the
    # loop's first violation is not its first sample
    eps, constants = {"zero": (0.5, (0.0, 0.0, 0.0)), "mixed": (0.3, ABG)}[case]
    rng = stream(159, 0)
    fr = random_frame(2, 5, rng)
    k = fr.synthesis_op.compose(random_operator(SPEC, 2, 5, rng))
    return fr, perturbed(fr, rng, eps), k, constants, 100, 7


@pytest.mark.parametrize("case", ["scaled", "zero", "mixed"])
def test_exact_hypothesis_agrees_with_sequential_loop(case):
    # every violation the sampling loop finds shows as a falsified
    # hypothesis whose own witness re-checks
    fr, hs, k, constants, samples, seed = _abg_setup(case)
    a, b = margin_bounds(fr, k)
    cert = pertur2_audit(fr, hs, k, k, *constants, a, b)
    found = sequential_abg_violation(fr, hs, k, *constants, 1e-9, samples, seed)
    if case == "scaled":
        assert found is None
        assert cert.witness["hypothesis"] == "certified"
        return
    assert found is not None and (found[0] > 0) == (case == "mixed")
    assert cert.witness["hypothesis"] == "falsified"
    assert_witness_rechecks(cert, fr, hs, k, constants)


def _suite_trial(trial, epsilon, seed=0):
    """Families, K and bounds of a perturb2 suite trial, built as
    `harness._perturb2_trial` builds them."""
    return harness._perturbed_trial(seed, trial, epsilon)


def test_each_conclusion_is_decided_once(monkeypatch):
    # pertur1_audit certifies the base K-frame and the L-frame of {h_j},
    # two gaps each, with no Bessel check beside the L-frame's upper half;
    # pertur2_audit takes the pencils of (L L*, U_H U_H*) and (K K*, U_H U_H*),
    # one pencil when L is K, and no min-type branch
    fr, hs, k, a, b = _suite_trial(0, 1e-3)
    calls = []
    for module in (douglas, frames, perturb):
        for name in ("psd_certificate", "pencil_lower_bound"):
            real = getattr(module, name, None)
            if real is not None:

                def counting(*args, _real=real, _name=name, **kwargs):
                    calls.append(_name)
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, name, counting)
    assert pertur1_audit(fr, hs, k, k, a, b).ok
    assert calls.count("psd_certificate") == 4
    calls.clear()
    assert pertur2_audit(fr, hs, k, k, *ABG, a, b).ok
    assert calls.count("pencil_lower_bound") == 1
    calls.clear()
    assert pertur2_audit(fr, hs, k, k.scalar_mul(0.5), *ABG, a, b).ok
    assert calls.count("pencil_lower_bound") == 2


@pytest.mark.parametrize("audit", ["perturb1", "perturb2"])
def test_l_is_k_certifies_a_rank_deficient_k_at_tol_zero(audit):
    # K of generic seed 0 with its last slot dropped is rank-deficient;
    # R(K) inside R(K) and the pencil of (K K*, K K*) are exact, so tol 0
    # meets no rounding of a factorization of K, whose residual is 6.1e-16
    inst = random_instance(0, "generic")
    fr = inst.members
    k = inst.operators["K"].compose(harness._drop_last_slot(inst.spec, inst.rank))
    assert any(np.linalg.matrix_rank(m) < len(m) for m in k.block_matrices())
    a, b = frames.derived_bounds(fr, *optimal_scalar_bounds(fr, k, 0.0), 0.05)
    hs = harness._perturbed_pair(fr, 3, 1e-3)
    if audit == "perturb1":
        cert = pertur1_audit(fr, hs, k, k, a, b, tol=0.0)
        assert cert.witness["lambda_LK"] == 1.0
    else:
        cert = pertur2_audit(fr, hs, k, k, *ABG, a, b, tol=0.0)
    assert cert.status == "certified"
    assert k._fac is None


def test_one_pencil_when_l_is_k_gives_the_bits_of_two():
    # the pencil of (K K*, U_H U_H*) is the one of (L L*, U_H U_H*) when L
    # is K; an equal copy of K takes it a second time, to the same bits
    fr, hs, k, a, b = _suite_trial(0, 1e-3)
    same = pertur2_audit(fr, hs, k, k, *ABG, a, b)
    copy = ModuleOperator(k.spec, k.in_rank, k.out_rank, k.block_matrices())
    assert repr(same.witness) == repr(pertur2_audit(fr, hs, k, copy, *ABG, a, b).witness)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    ("suite", "expected"),
    [
        # two factorizations (U_F and U_H), one full SVD per block of spec
        # (2,1) each, and none of K, since the suite passes L = K; no S^+
        # is formed, a residual within tol takes no ||T||, the two upper
        # halves read sigma(U_F), sigma(U_H) and bessel_of_h sigma_max(U_H),
        # and the derived bounds' mu* sigma_max(U_F); each of the 4 pencils
        # takes its whitened norm as one values-only SVD per block, and no
        # other values-only SVD runs.  The hypotheses are checked before the
        # branch pencils of D, so the base K-frame's lower half reads the
        # norms of K on U_F that the bounds' pencil kept, and the
        # conclusion's reads those of its own pencil
        ("perturb1", {"douglas_svd": 4, "thin_svd": 0, "singular_values": 8, "eigvalsh": 0,
                      "eigh": 0, "cholesky": 0}),
        # 2 pencils, one of them of (K K*, U_H U_H*), each one values-only
        # SVD per block, and the hypothesis gap at its first vertex, one
        # eigvalsh per block; the base K-frame's upper half factors
        # U_F, and both lower halves read the norms their pencils kept
        ("perturb2", {"douglas_svd": 4, "thin_svd": 0, "singular_values": 4, "eigvalsh": 2,
                      "eigh": 0, "cholesky": 0}),
    ],
)
def test_suite_trial_kernel_calls(monkeypatch, suite, expected, seed):
    calls = record_kernels(monkeypatch)
    report = run_suite(suite, trials=1, seed=seed)
    assert report["summary"]["certified"] == 1
    assert {name: len(calls.of(name)) for name in expected} == expected


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("suite", ["perturb1", "perturb2"])
def test_suite_trials_build_no_checked_element(monkeypatch, suite, seed):
    # every element of a perturbation trial is a central bound the library
    # derives, built with its exact scalars and without the checked
    # constructor's copy and scan
    real = AlgElement.__init__
    built = []

    def counted(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(AlgElement, "__init__", counted)
    report = run_suite(suite, trials=1, seed=seed)
    assert report["summary"]["certified"] == 1
    assert built == []


@pytest.mark.parametrize("trial", [10, 20])
def test_pertur2_wrong_sampled_pass_is_falsified(trial):
    # epsilon = 0.3, seed 0: 1000 samples found no violation of the
    # hypothesis here, yet a rank-one vector read off the weighted pencil
    # violates it
    fr, hs, k, a, b = _suite_trial(trial, 0.3)
    cert = pertur2_audit(fr, hs, k, k, *ABG, a, b)
    assert cert.witness["hypothesis"] == "falsified"
    assert_witness_rechecks(cert, fr, hs, k, ABG)


def _hypothesis_inputs(trial, epsilon, seed=0):
    """D and the terms (c_i, M_i) of a perturb2 suite trial's hypothesis."""
    fr, hs, k, _, _ = _suite_trial(trial, epsilon, seed)
    terms = [(ABG[0], fr.synthesis_op), (ABG[1], hs.synthesis_op), (ABG[2], k)]
    return difference_synthesis(fr, hs), terms


def test_hypothesis_search_repeats_no_eigensolve(monkeypatch):
    # epsilon = 0.05, seed 0, trial 11: the whole simplex's gap is
    # falsified without a violation, so the simplex is split; each
    # examined triangle costs one values-only eigensolve per block, and
    # only a falsified gap an eigh, of a matrix no kernel saw before
    d_op, terms = _hypothesis_inputs(11, 0.05)
    calls, gaps = record_kernels(monkeypatch), []
    real_psd = perturb.psd_certificate

    def recording_psd(*args, **kwargs):
        gaps.append(real_psd(*args, **kwargs))
        return gaps[-1]

    monkeypatch.setattr(perturb, "psd_certificate", recording_psd)
    cert = perturb._abg_hypothesis(d_op, terms, 1e-9)
    monkeypatch.undo()
    seen = [(name, m.shape, m.tobytes()) for name, m in calls if name in ("eigvalsh", "eigh")]
    assert cert.status == "certified" and cert.witness["triangles"] == len(gaps) > 1
    n_falsified = sum(g.status == "falsified" for g in gaps)
    assert n_falsified >= 1
    assert sum(call[0] == "eigvalsh" for call in seen) == len(gaps) * d_op.spec.n_blocks
    assert sum(call[0] == "eigh" for call in seen) == n_falsified
    assert len(set(seen)) == len(seen)


# perturb2 rows (seed, epsilon, trial) whose hypothesis is certified only
# after the whole simplex is split
SPLIT_ROWS = [(0, 0.05, t) for t in (11, 12, 34, 36)] + [(0, 0.3, 18), (0, 0.3, 25)] + [
    (1, 0.05, t) for t in (5, 6, 23)] + [(1, 0.3, 24), (1, 0.3, 30)]


@pytest.mark.parametrize("seed,epsilon,trial", SPLIT_ROWS)
def test_split_hypothesis_is_certified_on_the_whole_simplex(seed, epsilon, trial):
    # the grid oracle checks P(w) >= D D* at points of its own, not at the
    # triangles' bounds
    d_op, terms = _hypothesis_inputs(trial, epsilon, seed)
    cert = perturb._abg_hypothesis(d_op, terms, 1e-9)
    assert cert.status == "certified" and cert.witness["triangles"] > 1
    assert cert.witness["min_eig"] >= -1e-9 * cert.witness["scale"]
    assert abg_grid_margin(d_op, terms) >= -1e-9


@pytest.mark.parametrize("trial", [10, 20])
def test_grid_oracle_sees_a_falsified_hypothesis(trial):
    # the oracle is not vacuous: the rows of the falsified test above fail it
    assert abg_grid_margin(*_hypothesis_inputs(trial, 0.3)) < -1e-9


def test_hypothesis_budget_leaves_a_split_row_inconclusive(monkeypatch):
    # with a budget of one triangle, a row that needs splitting stays
    # undecided, below the falsifying bound on both margins
    monkeypatch.setattr(perturb, "_TRIANGLES", 1)
    fr, hs, k, a, b = _suite_trial(11, 0.05)
    cert = pertur2_audit(fr, hs, k, k, *ABG, a, b)
    c = cert.witness
    assert c["hypothesis"] == "inconclusive" and c["hypothesis_triangles"] == 1
    assert c["hypothesis_min_eig"] < 0 and c["hypothesis_scale"] >= 1.0
    assert c["hypothesis_lhs_minus_rhs_max"] < 0


@pytest.mark.parametrize("epsilon", [0.05, 0.3])
def test_perturb2_suite_at_larger_epsilon(epsilon):
    report = run_suite("perturb2", trials=40, seed=0, epsilon=epsilon)
    for row in report["trials"]:
        assert row["status"] != "falsified"
        if row["status"] == "inconclusive":
            assert row["hypothesis"] == "inconclusive"
        if row["hypothesis"] == "falsified":
            fr, hs, k, a, b = _suite_trial(row["trial"], epsilon)
            cert = pertur2_audit(fr, hs, k, k, *ABG, a, b)
            assert row["conclusion_status"] == "falsified"
            assert_witness_rechecks(cert, fr, hs, k, ABG)


def test_perturb2_rows_carry_hypothesis_margins():
    """A certified hypothesis says how far it is from the boundary: the
    least eigenvalue and scale of its certifying gap of least margin, and
    the triangles examined when the whole simplex did not decide it; an
    inconclusive one is left to the budget test."""
    report = run_suite("perturb2", trials=40, seed=0, epsilon=0.05)
    margins = ("hypothesis_min_eig", "hypothesis_scale", "hypothesis_lhs_minus_rhs_max",
               "hypothesis_triangles")
    seen, split = set(), 0
    for row in report["trials"]:
        min_eig, scale, best, triangles = (row[k] for k in margins)
        seen.add(row["hypothesis"])
        if row["hypothesis"] == "certified":
            assert min_eig >= -1e-9 * scale and scale >= 1.0 and best is None
            if triangles is not None:
                split += 1
                fr, hs, k, a, b = _suite_trial(row["trial"], 0.05)
                cert = pertur2_audit(fr, hs, k, k, *ABG, a, b)
                assert [cert.witness.get(k) for k in margins] == [
                    min_eig, scale, None, triangles]
                assert triangles > 1
        else:
            assert (min_eig, scale, best, triangles) == (None, None, None, None)
    assert seen == {"certified", "falsified"} and split >= 4
