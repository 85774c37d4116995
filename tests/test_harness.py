import hashlib
import inspect
import json
import math
import sys

import pytest

import cstarframes
from cstarframes import (
    SUITES,
    InputError,
    instance_digest,
    load_instance,
    parse_instance,
    random_instance,
    report_payload_bytes,
    run_suite,
    save_instance,
)
from cstarframes import cli, harness
from cstarframes.certify import psd_certificate
from cstarframes.harness import paper_truncation_values, tensor_pair_instance
from cstarframes.sampling import random_vector, stream
from cstarframes.serialize import dumps_stable, instance_to_dict

import oracles
from oracles import entries


# -- profiles -----------------------------------------------------------------------


def test_unknown_profile_rejected():
    with pytest.raises(InputError):
        random_instance(0, "nonsense")


def test_paper_truncation_member_values():
    inst = random_instance(0, "paper-example-truncation(3)")
    assert inst.spec.block_dims == (1, 1, 1)
    expect = [4 / 3, 5 / 6, 2 / 3]
    for j, m in enumerate(inst.members.members):
        scal = entries(m)[0].central_scalars()
        assert scal[j].real == pytest.approx(expect[j], abs=1e-15)
    assert paper_truncation_values(3) == pytest.approx(expect)


def _text_digest(inst) -> str:
    # SHA-256 of the sorted compact JSON dump of the instance file's fields:
    # every float as its text, so a moved bit in any array moves it
    text = json.dumps(instance_to_dict(inst), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_instance_bytes_are_pinned():
    # the files' bytes, through their digests, as the member-list encoding wrote them;
    # the stored central bounds derive from mu* = sigma_max(U)^2
    profiles = ("generic", "rank-deficient-K", "co-isometry-commuting", "paper-example-truncation")
    digests = [_text_digest(random_instance(seed, p)) for p in profiles for seed in range(10)]
    digests += [_text_digest(tensor_pair_instance(seed)) for seed in range(10)]
    assert hashlib.sha256("".join(digests).encode()).hexdigest() == (
        "d4433a8b72067a6bc4514e55883afef00dcf30acd0e6ad4abedecb7dc5223db2"
    )


# sha256 over the payloads of run_suite(suite, trials=3, seed=k), k = 0, 1
SUITE_PAYLOADS = {
    "douglas-equivalence": "0236bf52ab99917419b014f219aab7b82b35778efea8dfb1461eba8bc2102cd2",
    "kframe-main": "ec5f6b5b260fdaa896a8c74fadc4cf137813913f1cbe5fb6bfa4bcca56335aa4",
    "paper-example": "94d94a18f9b255b4f506ab21634c0c72917ae60991bd032be5fb702ce522ee96",
    "conjugation": "0de79c73b502663ef8409ec262cf65352e663502bf633daa8801909542f9ba15",
    "tensor": "f267f03e5b415df181147155d2719da9c9b69e578871eed33dcbd878d4d99762",
    "co-isometry": "7707488ee6f2f5f5952d907753b5d2221ec1678eae454fbe4c9c6c654eb18fb8",
    "perturb1": "1bdaedc9f74f5694ad9e2d26f4e04988eba811a0e8bb29776429aee5739ee61e",
    "perturb2": "e1dbd66b51eceb68ff02db2ac3570b2b21f235a8a5d9b9fe1783b2edc8d51e3b",
}


def test_suite_payload_bytes_are_pinned():
    # every suite's payload bytes, one hash per suite so a change names the
    # suites it moved; a pure speed-up moves no byte
    got = {}
    for suite in SUITES:
        digest = hashlib.sha256()
        for seed in (0, 1):
            digest.update(report_payload_bytes(run_suite(suite, trials=3, seed=seed)))
        got[suite] = digest.hexdigest()
    assert got == SUITE_PAYLOADS


def test_trials_factor_only_what_their_rows_read(monkeypatch):
    # a conjugation row reads no bound, so nothing is factored; a generic
    # kframe-main row factors its frame once (the pencil, then the atomic
    # coefficients), and no bound of its instance is derived
    built = oracles.counted_factorizations(monkeypatch)
    for trial in range(6):
        built.clear()
        harness._conjugation_trial(0, trial, 1e-9)
        assert built == []
    for trial in (0, 2, 4):
        built.clear()
        row = harness._kframe_main_trial(0, trial, 1e-9)
        assert row["profile"] == "generic"
        assert len(built) == 1


def test_profile_determinism():
    for profile in ("generic", "rank-deficient-K", "co-isometry-commuting"):
        a = random_instance(123, profile)
        b = random_instance(123, profile)
        assert instance_digest(a) == instance_digest(b)
        c = random_instance(124, profile)
        assert instance_digest(a) != instance_digest(c)


def test_generic_profile_constructs_frames():
    for seed in range(100):
        inst = random_instance(seed, "generic")
        frame = inst.members
        assert frame.n_members >= frame.rank
        assert psd_certificate(frame.frame_op, 1e-9, "frame-operator-positive").ok
        assert "K" in inst.operators and "A" in inst.bounds


def test_coisometry_profile_commutes_exactly():
    inst = random_instance(5, "co-isometry-commuting")
    k = inst.operators["K"]
    t = inst.operators["T"]
    # central multiplications commute with every module operator; the
    # residual is pure matmul roundoff
    scale = max(1.0, k.norm() * t.norm())
    assert (k.compose(t) - t.compose(k)).norm() <= 1e-15 * scale
    ident_gap = t.compose(t.adjoint()).norm()
    assert abs(ident_gap - 1.0) <= 1e-12


# -- instance files ----------------------------------------------------------------------


def test_instance_round_trip(tmp_path):
    inst = random_instance(7, "generic")
    p = tmp_path / "inst.json"
    save_instance(inst, p)
    loaded = load_instance(p)
    assert instance_digest(loaded) == instance_digest(inst)
    # canonical: re-serializing the parsed file reproduces the bytes
    assert dumps_stable(instance_to_dict(loaded)) == p.read_text()


def test_tensor_pair_round_trip(tmp_path):
    inst = tensor_pair_instance(3)
    p = tmp_path / "pair.json"
    save_instance(inst, p)
    loaded = load_instance(p)
    assert loaded.right is not None
    assert instance_digest(loaded) == instance_digest(inst)


def test_parse_rejects_bad_fields():
    inst = random_instance(7, "generic")
    data = instance_to_dict(inst)
    bad = dict(data)
    bad["surprise"] = 1
    with pytest.raises(InputError, match="unknown fields"):
        parse_instance(bad)
    bad2 = json.loads(json.dumps(data))
    bad2["members"][0][0][0][0] = [1.0]  # not a [re, im] pair
    with pytest.raises(InputError, match=r"members\[0\]"):
        parse_instance(bad2)
    bad3 = json.loads(json.dumps(data))
    del bad3["rank"]
    with pytest.raises(InputError, match="rank"):
        parse_instance(bad3)


def test_load_reports_json_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"algebra": [2, 1],\n  "rank": }')
    with pytest.raises(InputError, match="line 2"):
        load_instance(p)


def test_perturbation_field_round_trip(tmp_path):
    inst = random_instance(7, "generic")
    inst.perturbation = {"alpha": 0.2, "beta": 0.1, "gamma": 0.05}
    inst.h_members = inst.members
    p = tmp_path / "pert.json"
    save_instance(inst, p)
    loaded = load_instance(p)
    assert loaded.perturbation == {"alpha": 0.2, "beta": 0.1, "gamma": 0.05}
    assert len(loaded.h_members) == len(inst.members)


# -- suites -----------------------------------------------------------------------------------


def test_unknown_suite_rejected():
    with pytest.raises(InputError):
        run_suite("no-such-suite")


def test_suite_report_shape():
    rep = run_suite("conjugation", trials=3, seed=11)
    assert rep["command"] == "suite"
    assert rep["suite"] == "conjugation"
    assert rep["summary"]["total"] == 3
    assert rep["summary"]["overall"] == "certified"
    assert "wall_clock_s" in rep
    payload = report_payload_bytes(rep)
    assert b"wall_clock_s" not in payload


def test_suite_determinism_bytes():
    rep1 = run_suite("douglas-equivalence", trials=5, seed=42, samples=20)
    rep2 = run_suite("douglas-equivalence", trials=5, seed=42, samples=20)
    assert report_payload_bytes(rep1) == report_payload_bytes(rep2)
    rep3 = run_suite("douglas-equivalence", trials=5, seed=43, samples=20)
    assert report_payload_bytes(rep1) != report_payload_bytes(rep3)


def test_suite_reports_are_strict_json():
    rep = run_suite("perturb1", trials=2, seed=3, samples=20)
    text = report_payload_bytes(rep).decode()
    parsed = json.loads(text)  # would fail on NaN/Infinity tokens
    assert parsed["summary"]["total"] == 2


def test_paper_example_suite():
    rep = run_suite("paper-example", seed=0, samples=50, n_terms=5)
    row = rep["trials"][0]
    assert row["status"] == "certified"
    assert row["max_equality_deviation"] <= 1e-12


@pytest.mark.parametrize("suite", ["perturb1", "perturb2"])
def test_perturb_suites_audit_at_the_suite_tolerance(monkeypatch, suite):
    name = {"perturb1": "pertur1_audit", "perturb2": "pertur2_audit"}[suite]
    real = getattr(harness, name)
    seen, certs = [], []

    def spy(*args, **kwargs):
        seen.append(kwargs["tol"])
        certs.append(real(*args, **kwargs))
        return certs[-1]

    monkeypatch.setattr(harness, name, spy)
    rep = run_suite(suite, trials=2, seed=5, tol=1e-6, samples=10)
    assert seen == [1e-6, 1e-6]
    assert rep["config"]["tol"] == 1e-6
    if suite == "perturb1":
        # the row records the Bessel bound of {h_j} that the conclusion
        # certified at the suite's tol, its upper_const: the least of
        # (1 + sqrt(m_f)) ||B|| and, where m_h < 1, ||B|| / (1 - sqrt(m_h))
        for row, cert in zip(rep["trials"], certs):
            b = random_instance(harness._trial_seed(5, row["trial"]), "generic").bounds["B"]
            m_f, m_h = row["branch_M_f"], row["branch_M_h"]
            assert row["bessel_bound"] == min((1.0 + math.sqrt(m_f)) * b.norm(),
                                              b.norm() / (1.0 - math.sqrt(m_h)))
            assert row["bessel_bound"] == cert.witness["upper_const"]
            assert row["status"] == cert.status


@pytest.mark.parametrize("suite", ["conjugation", "co-isometry", "tensor"])
def test_suite_certificates_record_the_suite_tolerance(suite):
    rep = run_suite(suite, trials=2, seed=5, tol=1e-6)
    assert [r["certificate"]["tolerances"] for r in rep["trials"]] == [{"tol": 1e-6}] * 2


def test_paper_example_decides_at_the_suite_tolerance():
    # N = 12 leaves a factorization residual of 5.6e-17: certified at the
    # default tol and falsified at tol 0, which needs it exactly 0
    rows = [run_suite("paper-example", n_terms=12, tol=tol)["trials"][0] for tol in (1e-9, 0.0)]
    assert [r["status"] for r in rows] == ["certified", "falsified"]
    assert 0.0 < rows[1]["factorization_residual"] < 1e-15


def test_kframe_main_decides_atomicity_at_the_suite_tolerance():
    # trial 0 is generic, U onto: R(K) lies inside R(U) exactly, so it is an
    # atomic system at tol 0 too, as it is a K-frame; U Q = K holds only up
    # to rounding, which the row records as a value and does not decide
    rows = [run_suite("kframe-main", trials=1, tol=tol)["trials"][0] for tol in (1e-9, 0.0)]
    assert [(r["kframe_ok"], r["atomic_ok"]) for r in rows] == [(True, True)] * 2
    assert [r["status"] for r in rows] == ["certified", "certified"]
    assert 0.0 < rows[1]["reconstruction_residual"] < 1e-13


def test_kframe_main_takes_no_witness_it_drops(monkeypatch):
    # rank-deficient trial 1 takes no cokernel witness (a thin SVD per block
    # and a norm) by `dual_atoms_audit`: 10 SVDs where 13 were taken
    calls = oracles.record_kernels(monkeypatch)
    report = run_suite("kframe-main", trials=2, seed=0)
    assert report["summary"]["certified"] == 2
    assert {k: len(calls.of(k)) for k in oracles.SVDS} == {
        "singular_values": 6, "douglas_svd": 4, "thin_svd": 0}


@pytest.mark.parametrize(("trials", "samples"), [(0, 100), (-1, 100), (2, 0), (2, -5)])
def test_run_suite_rejects_counts_below_one(trials, samples):
    with pytest.raises(InputError, match="trials and samples must be >= 1"):
        run_suite("perturb1", trials=trials, samples=samples)


def test_run_suite_rejects_a_negative_seed():
    with pytest.raises(InputError, match="seed must be >= 0, got -1"):
        run_suite("kframe-main", trials=1, seed=-1)


INVALID_VALUES = {"nan": math.nan, "inf": math.inf, "negative": -1.0, "overflow": 1e300}
INVALID_INPUTS = [
    (suite, "tol", value) for suite in ("conjugation", "douglas-equivalence")
    for value in ("nan", "inf", "negative")
] + [(suite, "epsilon", value) for suite in ("perturb1", "perturb2")
     for value in ("nan", "inf", "overflow")]


@pytest.mark.parametrize(
    ("suite", "field", "value"), INVALID_INPUTS,
    ids=[f"{s}-{v}" if f == "tol" else f"{s}-{f}-{v}" for s, f, v in INVALID_INPUTS],
)
def test_run_suite_rejects_invalid_tolerance(suite, field, value):
    # a non-finite epsilon is rejected like a bad tol; a finite one whose
    # perturbed family's frame operator overflows makes the trial an error row
    if value == "overflow":
        (row,) = run_suite(suite, trials=1, epsilon=INVALID_VALUES[value])["trials"]
        assert row["status"] == "error" and "frame operator U U* overflows" in row["error"]
        return
    with pytest.raises(InputError, match=f"{field}: "):
        run_suite(suite, trials=1, **{field: INVALID_VALUES[value]})


def test_run_suite_runs_at_zero_tolerance():
    report = run_suite("douglas-equivalence", trials=2, tol=0)
    assert report["config"]["tol"] == 0.0
    assert report["summary"]["total"] == 2 and report["summary"]["errors"] == 0


# -- instance families are drawn as one synthesis operator ----------------------------


def test_perturbed_pair_is_the_member_perturbations_bit_for_bit():
    for seed in range(4):
        frame = random_instance(seed, "generic").members
        h_seq = harness._perturbed_pair(frame, seed + 3, 1e-3)
        rng = stream(seed + 3, 8)
        ref = [m + random_vector(frame.spec, frame.rank, rng).scalar_mul(1e-3)
               for m in frame.members]
        assert h_seq.n_members == len(ref)
        for h, r in zip(h_seq.members, ref):
            assert all(x.tobytes() == y.tobytes() for x, y in zip(h.stacks, r.stacks))


def test_generic_members_are_sequential_draws_bit_for_bit():
    for seed in range(4):
        inst = random_instance(seed, "generic")
        rng = stream(seed, 1)
        n = int(rng.integers(1, 4))
        j_count = int(rng.integers(n, 7))
        ref = [random_vector(inst.spec, n, rng) for _ in range(j_count)]
        assert (inst.rank, len(inst.members)) == (n, j_count)
        for m, r in zip(inst.members.members, ref):
            assert all(x.tobytes() == y.tobytes() for x, y in zip(m.stacks, r.stacks))


def _arrays(*objects):
    """Every stored array of the operators and elements, as bytes."""
    return [
        [m.tobytes() for m in (x.blocks if hasattr(x, "blocks") else x.block_matrices())]
        for x in objects
    ]


def test_perturbed_trials_are_the_generic_instances_without_l(monkeypatch):
    # a perturbation trial's family, partner, K, A and B are the generic
    # instance's and its perturbed pair's bit for bit; L, the instance's
    # last draw, is not drawn
    real = harness.random_operator
    drawn = []

    def counted(*args, **kwargs):
        drawn.append(args)
        return real(*args, **kwargs)

    for seed in range(20):
        trial = seed % 3
        t_seed = harness._trial_seed(seed, trial)
        inst = random_instance(t_seed, "generic")
        h_ref = harness._perturbed_pair(inst.members, t_seed + 3, 1e-3)
        monkeypatch.setattr(harness, "random_operator", counted)
        drawn.clear()
        frame, h_seq, k_op, a, b = harness._perturbed_trial(seed, trial, 1e-3)
        assert len(drawn) == 3
        monkeypatch.setattr(harness, "random_operator", real)
        assert _arrays(frame.synthesis_op, h_seq.synthesis_op, k_op, a, b) == _arrays(
            inst.members.synthesis_op, h_ref.synthesis_op, inst.operators["K"],
            inst.bounds["A"], inst.bounds["B"],
        )


# -- the claim table ---------------------------------------------------------------------


# the public functions that no claim runs, each with why it stays public:
# everything else in __all__ is reached when every claim of CLAIMS runs
NOT_A_CLAIM = {
    "coordinate_frame": "builds an input family",
    "dual_atoms": "builds the atoms an input to local-atoms may carry",
    "load_instance": "reads an instance file, the CLI's --input",
    "parse_instance": "decodes an instance dict, the CLI's --input",
    "save_instance": "writes an instance file",
    "write_report": "writes a report, the CLI's --report",
    "report_payload_bytes": "a report's bytes without its wall clock",
}


def test_every_public_function_is_reached_by_a_claim_or_listed(monkeypatch, capsys):
    functions = {name for name in cstarframes.__all__
                 if inspect.isfunction(getattr(cstarframes, name))}
    reached = set()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cstarframes"]
    for name in functions:
        real = getattr(cstarframes, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            reached.add(_name)
            return _real(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, spy)
    for claim in harness.CLAIMS:
        if claim.command:
            profile = "rank-deficient-K" if claim.command == "local-atoms" else "generic"
            assert cli.main([claim.command, "--profile", profile]) in (0, 1, 2), claim
        if claim.suite:
            assert cli.main(["suite", claim.suite, "--trials", "2"]) in (0, 1, 2), claim
    capsys.readouterr()
    assert NOT_A_CLAIM.keys() <= functions, NOT_A_CLAIM.keys() - functions
    assert reached.isdisjoint(NOT_A_CLAIM), reached & NOT_A_CLAIM.keys()
    assert reached | NOT_A_CLAIM.keys() == functions, functions - reached - NOT_A_CLAIM.keys()


def test_commands_and_suites_come_from_the_claim_table():
    assert cli.COMMANDS == tuple(c.command for c in harness.CLAIMS if c.command) + ("suite",)
    assert SUITES == tuple(c.suite for c in harness.CLAIMS if c.suite)
    for claim in harness.CLAIMS:
        assert claim.command or claim.suite
        assert (claim.run is None) == (claim.command is None), claim
        assert (claim.trial is None) == (claim.suite in (None, "paper-example")), claim
