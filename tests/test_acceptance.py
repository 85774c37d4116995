"""Acceptance criteria, one test per criterion.

Run with `pytest -v tests/test_acceptance.py`: the verbose test lines are
the per-criterion pass/fail report, and each test prints its measured
numbers (visible with -s or on failure).
"""

import math
import time

import pytest

from cstarframes import (
    AlgebraSpec,
    AtomicSystemError,
    FrameSeq,
    atomic_coefficients,
    certify_kframe,
    certify_star_bessel,
    coisometry_invariance_audit,
    conjugation_audit,
    dual_atoms_audit,
    equivalence_audit,
    identity_operator,
    optimal_scalar_bounds,
    pencil_lower_bound,
    pertur1_audit,
    pertur2_audit,
    pseudo_inverse,
    random_instance,
    report_payload_bytes,
    run_suite,
    tensor_frame,
    tensor_frame_audit,
    tensor_witness,
)
from cstarframes.sampling import random_operator, random_vector, stream

from oracles import grid_operator, is_positive, pencil_oracle


def _line(name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status}  {name}: {detail}")


def test_criterion_1_paper_example_atomic_equality():
    t0 = time.perf_counter()
    inst = random_instance(0, "paper-example-truncation(10)")
    frame = inst.members
    k_op = inst.operators["K"]
    c_bound = inst.bounds["C"]

    bessel = certify_star_bessel(frame, inst.bounds["B"], tol=1e-9)
    q, _, residual = atomic_coefficients(frame, k_op, tol=1e-9)
    rng = stream(0, 100)
    max_dev = 0.0
    for _ in range(100):
        u = random_vector(inst.spec, 1, rng)
        a_u = q.apply(u)
        dev = (a_u.inner(a_u) - c_bound * u.inner(u) * c_bound.adjoint()).norm()
        max_dev = max(max_dev, dev)
    dt = time.perf_counter() - t0
    ok = bessel.ok and residual <= 1e-9 and max_dev <= 1e-12 and dt < 1.0
    _line(
        "criterion 1 (paper example, N=10)",
        ok,
        f"bessel={bessel.status}, residual={residual:.2e}, "
        f"max |<a,a> - C<u,u>C*| = {max_dev:.2e}, runtime={dt:.2f}s",
    )
    assert bessel.ok
    assert residual <= 1e-9
    assert max_dev <= 1e-12
    assert dt < 1.0


def test_criterion_2_atomic_system_iff_kframe():
    t0 = time.perf_counter()
    agreements = 0
    total = 100
    for trial in range(total):
        profile = "generic" if trial % 2 == 0 else "rank-deficient-K"
        inst = random_instance(5000 + trial, profile)
        frame = inst.members
        k_op = inst.operators["K"]

        lam, mu = optimal_scalar_bounds(frame, k_op)
        kframe_ok = False
        if math.isfinite(lam) and lam > 1e-8:
            a = math.sqrt(lam * (1 - 1e-9)) * inst.spec.unit()
            b = math.sqrt(mu) * (1 + 1e-9) * inst.spec.unit()
            kframe_ok = certify_kframe(frame, k_op, a, b, 1e-9).ok

        try:
            q, c, residual = atomic_coefficients(frame, k_op, tol=1e-8)
            atomic_ok = residual <= 1e-8
            if atomic_ok:
                rng = stream(6000 + trial, 0)
                for _ in range(20):
                    f = random_vector(inst.spec, inst.rank, rng)
                    qf = q.apply(f)
                    gap = c * f.inner(f) * c.adjoint() - qf.inner(qf)
                    if not is_positive(gap, 1e-9):
                        atomic_ok = False
                        break
        except AtomicSystemError:
            atomic_ok = False

        dual_ok = True
        if atomic_ok:
            audit = dual_atoms_audit(frame, k_op, tol=1e-9)
            dual_ok = audit.witness["max_reconstruction_residual"] <= 1e-9
        if kframe_ok == atomic_ok and (not atomic_ok or dual_ok):
            agreements += 1
    dt = time.perf_counter() - t0
    ok = agreements == total and dt < 60.0
    _line(
        "criterion 2 (atomic system iff K-frame)",
        ok,
        f"{agreements}/{total} agreement, runtime={dt:.1f}s",
    )
    assert agreements == total
    assert dt < 60.0


def test_criterion_3_douglas_equivalence_with_oracle():
    t0 = time.perf_counter()
    spec = AlgebraSpec((2, 1))
    agree = 0
    oracle_ok = 0
    total = 100
    for trial in range(total):
        rng = stream(8000, trial)
        n = 2 + trial % 2
        drop_grid = [
            [spec.unit() if (i == j and j < n - 1) else 0 * spec.unit() for i in range(n)]
            for j in range(n)
        ]
        s_op = grid_operator(spec, drop_grid).compose(
            random_operator(spec, int(rng.integers(1, 4)), n, rng)
        )
        t_op = s_op.compose(random_operator(spec, 2, s_op.in_rank, rng))
        planted_inclusion = trial < 50
        if not planted_inclusion:
            coproj = identity_operator(spec, n) - s_op.compose(pseudo_inverse(s_op))
            t_op = t_op + coproj.compose(random_operator(spec, 2, n, rng))

        cert = equivalence_audit(t_op, s_op, 1e-9, seed=9000 + trial)
        if cert.ok and cert.witness["cond_i"] == planted_inclusion:
            agree += 1

        got = pencil_lower_bound(t_op, s_op)
        want = pencil_oracle(t_op, s_op)
        if math.isinf(got) and math.isinf(want):
            oracle_ok += 1
        elif got == pytest.approx(want, rel=1e-8, abs=1e-12):
            oracle_ok += 1
    dt = time.perf_counter() - t0
    ok = agree == total and oracle_ok == total and dt < 30.0
    _line(
        "criterion 3 (Douglas equivalence)",
        ok,
        f"{agree}/{total} four-way agreement, {oracle_ok}/{total} oracle matches, "
        f"runtime={dt:.1f}s",
    )
    assert agree == total
    assert oracle_ok == total
    assert dt < 30.0


def test_criterion_4_frame_operator_conjugation():
    t0 = time.perf_counter()
    passed = 0
    matched_conj = 0
    total = 50
    for trial in range(total):
        inst = random_instance(10000 + trial, "generic")
        frame = inst.members
        rng = stream(11000, trial)
        k_op = random_operator(inst.spec, inst.rank, inst.rank, rng)
        cert = conjugation_audit(frame, k_op, tol=1e-10)
        if cert.ok and cert.witness["residual_KSK*"] <= 1e-10:
            passed += 1
        # the L-form question: which conjugation the transform satisfies
        l_op = random_operator(inst.spec, inst.rank, inst.rank, rng)
        l_cert = conjugation_audit(frame, l_op, tol=1e-10)
        if l_cert.witness["matched"] == "KSK*":
            matched_conj += 1
    dt = time.perf_counter() - t0
    ok = passed == total and matched_conj == total
    _line(
        "criterion 4 (frame operator conjugation)",
        ok,
        f"{passed}/{total} match K S K* at 1e-10; L-form matched L S L* in "
        f"{matched_conj}/{total} trials, runtime={dt:.1f}s",
    )
    assert passed == total
    assert matched_conj == total  # LSL*, not L*SL, is the identity that holds


def test_criterion_5_tensor_theorem():
    t0 = time.perf_counter()
    left = AlgebraSpec((2,))
    right = AlgebraSpec((1, 1))
    w = tensor_witness(left, right)
    passed = 0
    total = 50
    for trial in range(total):
        rng = stream(12000, trial)
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        f_seq = FrameSeq(
            [random_vector(left, n, rng) for _ in range(int(rng.integers(n, 4)))]
        )
        h_seq = FrameSeq(
            [random_vector(right, m, rng) for _ in range(int(rng.integers(m, 4)))]
        )
        k_op = f_seq.synthesis_op.compose(random_operator(left, n, f_seq.n_members, rng))
        l_op = h_seq.synthesis_op.compose(random_operator(right, m, h_seq.n_members, rng))
        lam_f, mu_f = optimal_scalar_bounds(f_seq, k_op)
        lam_h, mu_h = optimal_scalar_bounds(h_seq, l_op)
        a = math.sqrt(lam_f * (1 - 1e-9)) * left.unit()
        b = math.sqrt(mu_f) * (1 + 1e-9) * left.unit()
        c = math.sqrt(lam_h * (1 - 1e-9)) * right.unit()
        d = math.sqrt(mu_h) * (1 + 1e-9) * right.unit()

        prod = tensor_frame(w, f_seq, h_seq)
        s_expected = w.operator(f_seq.frame_op, h_seq.frame_op)
        rel = (prod.frame_op - s_expected).norm() / max(1.0, s_expected.norm())
        cert = tensor_frame_audit(w, f_seq, h_seq, k_op, l_op, a, b, c, d, 1e-9)
        if rel <= 1e-10 and cert.ok:
            passed += 1
    dt = time.perf_counter() - t0
    ok = passed == total and dt < 60.0
    _line(
        "criterion 5 (tensor product theorem)",
        ok,
        f"{passed}/{total} certified with S_tensor = S_f (x) S_h at 1e-10, "
        f"runtime={dt:.1f}s",
    )
    assert passed == total
    assert dt < 60.0


def test_criterion_6_coisometry_invariance():
    t0 = time.perf_counter()
    passed = 0
    total = 50
    for trial in range(total):
        inst = random_instance(13000 + trial, "co-isometry-commuting")
        cert = coisometry_invariance_audit(
            inst.members, inst.operators["T"], inst.operators["K"], tol=1e-8
        )
        if cert.ok and cert.witness["max_relative_deviation"] <= 1e-8:
            passed += 1
    dt = time.perf_counter() - t0
    ok = passed == total
    _line(
        "criterion 6 (co-isometry bound invariance)",
        ok,
        f"{passed}/{total} invariant within 1e-8, runtime={dt:.1f}s",
    )
    assert passed == total


def test_criterion_7_perturbation_soundness():
    t0 = time.perf_counter()
    total = 100
    p1_passed = 0
    bessel_passed = 0
    p2_passed = 0
    eps = 1e-3
    for trial in range(total):
        inst = random_instance(14000 + trial, "generic")
        frame = inst.members
        k_op = inst.operators["K"]
        a, b = inst.bounds["A"], inst.bounds["B"]
        rng = stream(15000, trial)
        h_seq = FrameSeq(
            [m + random_vector(inst.spec, inst.rank, rng).scalar_mul(eps)
             for m in frame.members]
        )
        cert1 = pertur1_audit(frame, h_seq, k_op, k_op, a, b, tol=1e-9)
        if cert1.ok:
            p1_passed += 1
        m_val = cert1.witness["M"]
        if cert1.witness["bessel_of_h"] <= (1 + math.sqrt(m_val)) * b.norm() + 1e-9:
            bessel_passed += 1
        cert2 = pertur2_audit(frame, h_seq, k_op, k_op, 0.2, 0.1, 0.05, a, b, tol=1e-9)
        hypothesis_passed = cert2.witness["hypothesis"] == "certified"
        if (not hypothesis_passed) or cert2.ok:
            p2_passed += 1
    dt = time.perf_counter() - t0
    ok = p1_passed == total and bessel_passed == total and p2_passed == total and dt < 120.0
    _line(
        "criterion 7 (perturbation soundness)",
        ok,
        f"pertur1 {p1_passed}/{total}, Bessel constant {bessel_passed}/{total}, "
        f"pertur2 {p2_passed}/{total}, runtime={dt:.1f}s",
    )
    assert p1_passed == total
    assert bessel_passed == total
    assert p2_passed == total
    assert dt < 120.0


def test_criterion_8_report_determinism():
    configs = [
        ("douglas-equivalence", dict(trials=8, seed=21, samples=20)),
        ("perturb1", dict(trials=3, seed=22, samples=30)),
        ("paper-example", dict(seed=23, samples=40, n_terms=6)),
    ]
    ok = True
    for suite, kwargs in configs:
        first = report_payload_bytes(run_suite(suite, **kwargs))
        second = report_payload_bytes(run_suite(suite, **kwargs))
        same = first == second
        ok = ok and same
        assert same, f"suite {suite} payload differs between identical runs"
    _line("criterion 8 (report determinism)", ok,
          f"{len(configs)} suites byte-identical on re-run")
