import argparse
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cstarframes import (
    AlgebraSpec, FrameSeq, InputError, Instance, coordinate_frame, identity_operator, optimal_scalar_bounds, pertur1_audit, pertur2_audit, save_instance,
)
from cstarframes import cli, harness
from cstarframes.cli import COMMANDS, main
from cstarframes.frames import derived_bounds
from cstarframes.harness import SUITES, random_instance, tensor_pair_instance
from cstarframes.hilbmod import ModuleOperator, ModuleVector, central_mult
from cstarframes.serialize import instance_to_dict, load_instance, report_payload_bytes

import oracles

SPEC = AlgebraSpec((2, 1))


def write_instance(tmp_path, inst, name="inst.json"):
    p = tmp_path / name
    save_instance(inst, p)
    return str(p)


def test_certified_exit_code(capsys):
    assert main(["check-kframe", "--profile", "generic", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "certified" in out


def test_falsified_exit_code(capsys):
    assert main(["check-kframe", "--profile", "rank-deficient-K", "--seed", "3"]) == 1
    assert "falsified" in capsys.readouterr().out


def test_inconclusive_exit_code(tmp_path, capsys):
    # an upper bound short by 3 tol lands in the near-boundary band
    members = coordinate_frame(SPEC, 2)
    inst = Instance(spec=SPEC, rank=2, members=members,
                    bounds={"A": 0.5 * SPEC.unit(), "B": math.sqrt(1 - 3e-9) * SPEC.unit()})
    path = write_instance(tmp_path, inst)
    assert main(["check-frame", "--input", path]) == 2
    assert "inconclusive" in capsys.readouterr().out


def test_non_central_bound_falsified_exit_code(tmp_path, capsys):
    # a non-central upper bound is decided exactly: S does not vanish on its
    # non-scalar block, so the report carries a rank-one witness
    members = coordinate_frame(SPEC, 2)
    b = SPEC.element(
        [np.array([[3.0, 0.5], [0.0, 3.0]], dtype=complex), np.array([[3.0]], dtype=complex)]
    )
    inst = Instance(spec=SPEC, rank=2, members=members,
                    bounds={"A": 0.5 * SPEC.unit(), "B": b})
    path = write_instance(tmp_path, inst)
    out = tmp_path / "report.json"
    assert main(["check-frame", "--input", path, "--report", str(out)]) == 1
    assert "falsified" in capsys.readouterr().out
    cert = json.loads(out.read_text())["certificates"][0]
    assert "samples" not in cert and "seed" not in cert
    w = oracles.reference_decode_vector(SPEC, cert["witness_vector"])
    gap = b * w.inner(w) * b.adjoint() - coordinate_frame(SPEC, 2).coefficient_gram(w)
    assert not oracles.is_positive(gap, 1e-9)


def test_input_error_exit_code(capsys):
    assert main(["check-frame", "--profile", "no-such-profile"]) == 3
    assert "error:" in capsys.readouterr().err
    assert main(["check-frame"]) == 3  # neither --input nor --profile
    assert main(["check-kframe", "--input", "/nonexistent/file.json"]) == 3


def test_missing_operator_is_input_error(tmp_path, capsys):
    inst = Instance(spec=SPEC, rank=2, members=coordinate_frame(SPEC, 2))
    path = write_instance(tmp_path, inst)
    assert main(["check-kframe", "--input", path]) == 3
    assert "operators.K" in capsys.readouterr().err


def test_report_written(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "check-kframe", "--profile", "generic", "--seed", "3",
        "--report", str(out),
    ])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["command"] == "check-kframe"
    assert rep["status"] == "certified"
    assert rep["certificates"][0]["status"] == "certified"
    assert isinstance(rep["instance_digest"], str)
    capsys.readouterr()


def test_instance_file_commands(tmp_path, capsys):
    inst = random_instance(4, "generic")
    path = write_instance(tmp_path, inst)
    assert main(["bounds", "--input", path]) == 0
    assert main(["atomic-system", "--input", path]) == 0
    assert main(["dual-atoms", "--input", path]) == 0
    assert main(["douglas", "--input", path]) == 0
    capsys.readouterr()


def test_local_atoms_command(capsys):
    assert main(["local-atoms", "--profile", "rank-deficient-K", "--seed", "2"]) == 0
    capsys.readouterr()


def test_tensor_command(tmp_path, capsys):
    assert main(["tensor", "--profile", "generic", "--seed", "5"]) == 0
    inst = tensor_pair_instance(6)
    path = write_instance(tmp_path, inst, "pair.json")
    assert main(["tensor", "--input", path]) == 0
    capsys.readouterr()


def test_perturb_commands(tmp_path, capsys):
    assert main(["perturb1", "--profile", "generic", "--seed", "5",
                 "--samples", "50"]) == 0
    inst = random_instance(5, "generic")
    inst.h_members = inst.members
    inst.perturbation = {"alpha": 0.2, "beta": 0.1, "gamma": 0.05}
    path = write_instance(tmp_path, inst)
    assert main(["perturb1", "--input", path, "--samples", "50"]) == 0
    assert main(["perturb2", "--input", path, "--samples", "50"]) == 0
    capsys.readouterr()


def test_perturb_requires_h_members(tmp_path, capsys):
    inst = random_instance(5, "generic")
    path = write_instance(tmp_path, inst)
    assert main(["perturb1", "--input", path]) == 3
    assert "h_members" in capsys.readouterr().err


def test_suite_command(tmp_path, capsys):
    out = tmp_path / "suite.json"
    code = main([
        "suite", "conjugation", "--trials", "3", "--seed", "9",
        "--report", str(out),
    ])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["suite"] == "conjugation"
    assert rep["summary"]["total"] == 3
    assert "3/3 certified" in capsys.readouterr().out


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cstarframes.cli", "bounds", "--profile",
         "generic", "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "lambda_star" in proc.stdout


# tol 0 is honoured, not replaced by the default: the lower bound A, 1e-11
# above the optimal sqrt(lambda*), violates the K-frame inequality by far less
# than any positive tolerance resolves, and only tol 0 falsifies it
@pytest.mark.parametrize(("tol", "code"), [(1e-6, 0), (0.0, 1)])
def test_instance_tolerances_and_seed_apply_when_flags_absent(tmp_path, capsys, tol, code):
    inst = random_instance(4, "generic")
    inst.tol = 0.0
    # the stored bounds keep a margin, so tol 0 certifies them
    assert main(["check-kframe", "--input", write_instance(tmp_path, inst, "stored.json")]) == 0
    lam, _ = optimal_scalar_bounds(inst.members, inst.operators["K"])
    inst.bounds["A"] = math.sqrt(lam * (1.0 + 1e-11)) * inst.spec.unit()
    inst.tol = tol
    inst.seed = 77
    path = write_instance(tmp_path, inst)
    out = tmp_path / "rep.json"
    assert main(["check-kframe", "--input", path, "--report", str(out)]) == code
    rep = json.loads(out.read_text())
    assert rep["config"]["tol"] == tol
    assert rep["seed"] == 77
    # explicit flags win over the file
    assert main(["check-kframe", "--input", path, "--tol", "1e-9",
                 "--seed", "5", "--report", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["config"]["tol"] == 1e-9
    assert rep["seed"] == 5
    capsys.readouterr()


@pytest.mark.parametrize("command", ["bounds", "check-frame"])
def test_lower_bound_below_tol_resolution_is_inconclusive(tmp_path, capsys, command):
    # S = diag(1, 1e-10): lambda* = 1e-10 is a scalar lower bound, but lies
    # in (0, 10 tol], so the verdict is inconclusive, not a witness-less
    # falsified
    spec = AlgebraSpec((1,))
    members = FrameSeq([ModuleVector(spec, [np.array([[1.0], [0.0]])]),
                        ModuleVector(spec, [np.array([[0.0], [1e-5]])])])
    path = write_instance(tmp_path, Instance(spec=spec, rank=2, members=members))
    out = tmp_path / "rep.json"
    assert main([command, "--input", path, "--report", str(out)]) == 2
    rep = json.loads(out.read_text())
    assert rep["status"] == "inconclusive"
    assert rep["values"]["lambda_star"] == pytest.approx(1e-10, rel=1e-9)
    assert rep["certificates"][0]["status"] == "inconclusive"
    capsys.readouterr()


@pytest.mark.parametrize("command", ["bounds", "check-frame"])
def test_no_scalar_lower_bound_is_falsified_with_a_cokernel_witness(tmp_path, capsys, command):
    # the rank-deficient members vanish on the last slot, so R(K) for K = I
    # is not inside R(U) and lambda* = 0; the witness f there has U* f = 0
    # and ||K* f|| = 1
    for seed in range(40):
        inst = random_instance(seed, "rank-deficient-K")
        frame_only = Instance(spec=inst.spec, rank=inst.rank, members=inst.members)
        path = write_instance(tmp_path, frame_only if command == "check-frame" else inst)
        out = tmp_path / "rep.json"
        assert main([command, "--input", path, "--report", str(out)]) == 1, seed
        rep = json.loads(out.read_text())
        assert rep["status"] == "falsified" and rep["values"]["lambda_star"] == 0.0
        cert = rep["certificates"][0]
        assert cert["witness"]["witness_u_adj_norm"] == 0.0
        assert cert["witness"]["witness_k_adj_norm"] == pytest.approx(1.0, abs=1e-12)
        f = oracles.reference_decode_vector(inst.spec, cert["witness_vector"])
        assert inst.members.analysis(f).norm() == 0.0
        assert inst.operators["K"].adjoint().apply(f).norm() == pytest.approx(1.0, abs=1e-12)
    capsys.readouterr()


@pytest.mark.parametrize("tol", ["0", "1e-30"])
def test_derived_lower_bound_is_never_lifted_above_root_lambda(tmp_path, capsys, tol):
    # {1e-9 e} is a genuine K-frame for K = 1 with lambda* = 1e-18; a
    # derived lower bound floored above sqrt(lambda*) would falsify it
    spec = AlgebraSpec((1,))
    members = FrameSeq([ModuleVector(spec, [np.array([[1e-9]])])])
    inst = Instance(spec=spec, rank=1, members=members,
                    operators={"K": identity_operator(spec, 1)})
    path = write_instance(tmp_path, inst)
    out = tmp_path / "rep.json"
    assert main(["check-kframe", "--input", path, "--tol", tol, "--report", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["values"]["lambda_star"] == pytest.approx(1e-18, rel=1e-12)
    assert rep["values"]["derived_bounds"] is True
    a, _ = derived_bounds(members, rep["values"]["lambda_star"], rep["values"]["mu_star"])
    assert a.norm() <= math.sqrt(rep["values"]["lambda_star"])
    capsys.readouterr()


@pytest.mark.parametrize("seed", range(4))
def test_failed_atomic_system_carries_the_bounds_witness(tmp_path, capsys, seed):
    # atomic-system, dual-atoms and bounds witness one failure, R(K) not
    # inside R(U), with one cokernel vector f; U* f = 0 and K* f != 0 are
    # re-checked on the flattening, with no kernel of the library
    inst = random_instance(seed, "rank-deficient-K")
    out = tmp_path / "rep.json"
    certs = {}
    for command in ("atomic-system", "dual-atoms", "bounds"):
        assert main([command, "--profile", "rank-deficient-K", "--seed", str(seed),
                     "--report", str(out)]) == 1
        certs[command] = json.loads(out.read_text())["certificates"][0]
    capsys.readouterr()
    assert certs["atomic-system"]["claim"] == "atomic-system"
    want = certs["bounds"]["witness_vector"]
    for command in ("atomic-system", "dual-atoms"):
        cert = certs[command]
        assert cert["status"] == "falsified" and "error" in cert["witness"]
        assert cert["witness_vector"] == want
        for key in ("witness_u_adj_norm", "witness_k_adj_norm"):
            assert cert["witness"][key] == certs["bounds"]["witness"][key]
    x = oracles.flat(oracles.reference_decode_vector(inst.spec, want))
    u, k = (oracles.flatten(t).conj().T for t in (inst.members.synthesis_op, inst.operators["K"]))
    assert np.linalg.norm(u @ x) == 0.0
    assert np.linalg.norm(k @ x) == pytest.approx(np.linalg.norm(x), rel=1e-12)


TOL = 1e-9


@pytest.mark.parametrize(
    ("lam", "status"),
    [(0.0, "falsified"), (5 * TOL, "inconclusive"), (100 * TOL, "certified"),
     (math.inf, "certified")],
)
def test_one_pencil_value_gets_one_status_everywhere(tmp_path, monkeypatch, capsys, lam, status):
    # the family {c} on A = C against K = 1 has lambda* = c^2, and {1}
    # against K = 0 has lambda* = inf; the perturbed family {c} has that
    # pencil value nu against L.  bounds, check-kframe without stored
    # bounds, both perturbation conclusions and the kframe-main gate read
    # it alike.  perturb2's hypothesis (alpha, beta, gamma) = (0.2, 0.1, 0)
    # holds for f = {1.2 c}; where nu = 0 no hypothesis can hold, as it
    # makes {h_j} an L-frame, so there the falsified hypothesis answers
    spec = AlgebraSpec((1,))

    def family(x):
        return FrameSeq([ModuleVector(spec, [np.array([[x]])])])

    c = 1.0 if math.isinf(lam) else math.sqrt(lam)
    k = central_mult(spec.central([0.0 if math.isinf(lam) else 1.0]), 1)
    one = identity_operator(spec, 1)
    frame = family(c)
    got = {}
    path = write_instance(tmp_path, Instance(spec=spec, rank=1, members=frame, operators={"K": k}))
    for command in ("bounds", "check-kframe"):
        got[command] = {0: "certified", 1: "falsified", 2: "inconclusive"}[
            main([command, "--input", path, "--tol", str(TOL)])]
    capsys.readouterr()
    got["perturb1"] = pertur1_audit(family(1.0), frame, one, k, spec.central([0.9]),
                                    spec.central([1.1]), TOL).status
    a = 1.2 * c if c else 1.0
    got["perturb2"] = pertur2_audit(family(a), frame, one, k, 0.2, 0.1, 0.0,
                                    spec.central([a / 2]), spec.central([2 * a]), TOL).status
    monkeypatch.setattr(harness, "_generic_draw", lambda seed: (frame, k, None))
    row = harness._kframe_main_trial(0, 0, TOL)
    assert row["lambda_star"] == pytest.approx(lam, rel=1e-12)
    got["kframe-main"] = ("inconclusive" if row["status"] == "inconclusive"
                          else "certified" if row["kframe_ok"] else "falsified")
    assert got == dict.fromkeys(got, status)


# -- malformed instance fields ------------------------------------------------------


def _set_scalar(d, value):
    d["members"][0][0][0][0][0][0] = value


@pytest.mark.parametrize(
    ("edit", "field"),
    [
        (lambda d: d.update(tolerances={"tol": "abc"}), ".tolerances.tol:"),
        (lambda d: d.update(tolerances={"tol": None}), ".tolerances.tol:"),
        (lambda d: d.update(tolerances={"tol": [1]}), ".tolerances.tol:"),
        (lambda d: d.update(tolerances={"tol": -1e-9}), ".tolerances.tol:"),
        (lambda d: d.update(tolerances={"tol": float("nan")}), ".tolerances.tol:"),
        (lambda d: d.update(tolerances={"rtol": 1e-3, "tol": 1e-6}), ".tolerances.rtol:"),
        (lambda d: d.update(perturbation={"alpha": "x"}), ".perturbation.alpha:"),
        (lambda d: d.update(algebra="ab"), ".algebra:"),
        (lambda d: _set_scalar(d, 10**400), ".members[0][0][0][0][0]:"),
        (lambda d: d.update(algebra=[1.5]), ".algebra[0]:"),
        (lambda d: d.update(rank=True), ".rank:"),
    ],
    ids=["tol-str", "tol-null", "tol-list", "tol-negative", "tol-nan", "tol-unknown-key",
         "alpha-str", "algebra-str",
         "scalar-overflow", "algebra-float", "rank-bool"],
)
def test_malformed_field_is_input_error(tmp_path, capsys, edit, field):
    data = instance_to_dict(random_instance(4, "generic"))
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(InputError, match=re.escape(field)):
        load_instance(path)
    assert main(["check-kframe", "--input", str(path)]) == 3
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("key", ["members", "h_members", "g_members"])
def test_overflowing_members_name_their_field(tmp_path, capsys, key):
    # finite entries whose frame operator U U* overflows: the error names
    # the family's field, and numpy warns of no overflow on the way
    data = instance_to_dict(random_instance(4, "generic"))
    del data["bounds"]
    data[key] = json.loads(json.dumps(data["members"]))
    data[key][0][0][0][0][0][0] = 1e200
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in ("bounds", "check-kframe", "check-frame"):
            assert main([command, "--input", str(path)]) == 3, command
            assert f"huge.json.{key}: " in capsys.readouterr().err, command


def _long_rank(path: Path) -> None:
    text = json.dumps(instance_to_dict(random_instance(4, "generic")))
    path.write_text(re.sub(r'"rank": \d+', '"rank": ' + "7" * 5000, text, count=1),
                    encoding="utf-8")


@pytest.mark.parametrize(
    ("write", "message"),
    [
        # an integer token past Python's 4300-digit conversion limit
        (_long_rank, "unreadable JSON: Exceeds the limit"),
        # a UTF-16 byte-order mark is not UTF-8
        (lambda p: p.write_bytes(b"\xff\xfe" + b"{}"), "cannot read instance file"),
        # nesting past the JSON parser's recursion limit
        (lambda p: p.write_text("[" * 100000, encoding="utf-8"), "unreadable JSON: maximum"),
    ],
    ids=["rank-5000-digits", "utf16-bom", "nested-100000"],
)
def test_unreadable_instance_file_is_input_error(tmp_path, capsys, write, message):
    path = tmp_path / "unreadable.json"
    write(path)
    with pytest.raises(InputError, match=re.escape(str(path))):
        load_instance(path)
    assert main(["bounds", "--input", str(path)]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and message in err


@pytest.mark.parametrize(
    ("argv", "flag"),
    [
        (["bounds", "--profile", "generic", "--seed", "3", "--tol", "-1"], "--tol:"),
        (["suite", "conjugation", "--trials", "2", "--tol", "nan"], "--tol:"),
        (["check-kframe", "--profile", "generic", "--seed", "3", "--tol", "inf"], "--tol:"),
        (["perturb2", "--profile", "generic", "--seed", "3", "--samples", "-1"], "--samples:"),
        (["perturb2", "--profile", "generic", "--seed", "3", "--samples", "0"], "--samples:"),
        (["suite", "perturb1", "--trials", "0"], "--trials:"),
        (["suite", "perturb2", "--trials", "1", "--samples", "0"], "--samples:"),
        (["check-kframe", "--profile", "generic", "--seed", "-1"], "--seed: must be >= 0, got -1"),
        (["suite", "kframe-main", "--trials", "1", "--seed", "-1"], "--seed: must be >= 0"),
    ],
    ids=["tol-negative", "tol-nan-suite", "tol-inf", "samples-negative", "samples-zero",
         "trials-zero", "suite-samples-zero", "seed-negative", "suite-seed-negative"],
)
def test_invalid_flag_is_input_error(capsys, argv, flag):
    assert main(argv) == 3
    assert flag in capsys.readouterr().err


def test_zero_tolerance_flag_still_runs(tmp_path, capsys):
    assert main(["bounds", "--profile", "generic", "--seed", "3", "--tol", "0"]) == 0
    # the suite decides at its tol: at 0 a conjugation residual must be
    # exactly 0, and a rounding-size one falsifies
    out = tmp_path / "rep.json"
    assert main(["suite", "conjugation", "--trials", "1", "--tol", "0",
                 "--report", str(out)]) == 1
    rep = json.loads(out.read_text())
    assert rep["config"]["tol"] == 0.0
    assert rep["trials"][0]["certificate"]["tolerances"] == {"tol": 0.0}
    capsys.readouterr()


def test_suite_rejects_input_file(tmp_path, capsys):
    assert main(["suite", "conjugation", "--trials", "1",
                 "--input", str(tmp_path / "absent.json")]) == 3
    assert "--input" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["suite", "conjugation", "--trials", "1", "--profile", "generic"],
    ["suite", "paper-example", "--profile", "rank-deficient-K"],
    ["suite", "kframe-main", "--trials", "1", "--profile", "paper-example-truncation(3)"],
])
def test_suite_rejects_profile_it_does_not_read(capsys, argv):
    assert main(argv) == 3
    assert "--profile" in capsys.readouterr().err


@pytest.mark.parametrize(("profile", "n_terms"), [("paper-example-truncation(10)", 10),
                                                  ("paper-example-truncation(3)", 3)])
def test_paper_example_suite_reads_truncation_profile(tmp_path, capsys, profile, n_terms):
    out = tmp_path / "rep.json"
    assert main(["suite", "paper-example", "--profile", profile, "--report", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["config"]["n_terms"] == n_terms and rep["trials"][0]["n_terms"] == n_terms
    capsys.readouterr()


# -- combined certificates keep the witness of every part ------------------------------


def test_falsified_kframe_report_carries_part_witnesses(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["check-kframe", "--profile", "rank-deficient-K", "--seed", "3",
                 "--report", str(out)]) == 1
    witness = json.loads(out.read_text())["certificates"][0]["witness"]
    assert witness["part0:star-kframe-lower"] == "falsified"
    lower, upper = witness["parts"]
    assert lower["min_eig"] < 0 and lower["scale"] >= 1.0
    assert set(upper) >= {"min_eig", "scale"}
    capsys.readouterr()


def test_perturb2_report_carries_lower_constant(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["perturb2", "--profile", "generic", "--seed", "3", "--samples", "50",
                 "--report", str(out)]) == 0
    report = json.loads(out.read_text())
    values = report["values"]
    assert values["hypothesis"] == "certified"
    assert values["hypothesis_min_eig"] >= 0 and values["hypothesis_scale"] >= 1.0
    assert "hypothesis_lhs_minus_rhs_max" not in values
    assert values["upper_const"] > values["norm_B"]
    witness = report["certificates"][0]["witness"]
    assert witness == values
    frame, lower = witness["parts"]
    assert len(frame["parts"]) == 2
    assert lower["worst_margin"] > 0 and lower["pencil_lower_K"] > 0
    assert lower["worst_margin"] == pytest.approx(lower["pencil_lower_K"] - lower["g_sound"] ** 2)
    capsys.readouterr()


@pytest.mark.parametrize(
    ("command", "keys"),
    [("perturb1", ("M", "upper_const")), ("perturb2", ("hypothesis", "upper_const")),
     ("check-kframe", ("lambda_star", "mu_star"))],
)
def test_status_line_shows_the_decision(tmp_path, capsys, command, keys):
    # perturb2's first four values are the audit's inputs (alpha, beta,
    # gamma, norm_B); its status line shows the hypothesis and the
    # constant instead, and the report keeps its field order
    out = tmp_path / "r.json"
    assert main([command, "--profile", "generic", "--seed", "1", "--report", str(out)]) == 0
    values = json.loads(out.read_text())["values"]
    shown = ", ".join(
        f"{k}={values[k]:.6g}" if isinstance(values[k], float) else f"{k}={values[k]}"
        for k in keys)
    assert capsys.readouterr().out == f"{command}: certified ({shown})\n"
    if command == "perturb2":
        assert list(values)[:4] == ["alpha", "beta", "gamma", "norm_B"]


def test_status_line_of_a_falsified_hypothesis(tmp_path, capsys):
    # a falsified hypothesis has no upper constant to show
    inst = random_instance(5, "generic")
    inst.h_members = FrameSeq([m.scalar_mul(3.0) for m in inst.members.members])
    inst.perturbation = {"alpha": 0.2, "beta": 0.1, "gamma": 0.05}
    assert main(["perturb2", "--input", write_instance(tmp_path, inst)]) == 1
    assert capsys.readouterr().out == "perturb2: falsified (hypothesis=falsified)\n"


# -- the CLI path reads and writes per-block arrays only ------------------------------


def test_cli_path_builds_no_element_grids(tmp_path, capsys):
    # the library has no element-grid view or constructor left to call:
    # vectors and operators are built only from per-block arrays
    for cls in (ModuleVector, ModuleOperator):
        assert not hasattr(cls, "entries")
    assert list(inspect.signature(ModuleVector).parameters) == ["spec", "stacks"]
    assert list(inspect.signature(ModuleOperator).parameters) == [
        "spec", "in_rank", "out_rank", "mats"]

    generic = random_instance(4, "generic")
    perturbed = random_instance(5, "generic")
    perturbed.h_members = perturbed.members
    perturbed.perturbation = {"alpha": 0.2, "beta": 0.1, "gamma": 0.05}
    paths = {
        "generic": write_instance(tmp_path, generic, "generic.json"),
        "frame": write_instance(tmp_path, Instance(spec=generic.spec, rank=generic.rank,
                                                   members=generic.members), "frame.json"),
        "rankdef": write_instance(tmp_path, random_instance(4, "rank-deficient-K"), "rd.json"),
        "pair": write_instance(tmp_path, tensor_pair_instance(6), "pair.json"),
        "perturbed": write_instance(tmp_path, perturbed, "perturbed.json"),
    }
    runs = [
        ("check-frame", "frame", 0), ("check-kframe", "generic", 0), ("bounds", "generic", 0),
        ("douglas", "generic", 0), ("atomic-system", "generic", 0),
        ("dual-atoms", "generic", 0), ("check-kframe", "rankdef", 1),
        ("local-atoms", "rankdef", 0), ("tensor", "pair", 0),
        ("perturb1", "perturbed", 0), ("perturb2", "perturbed", 0),
    ]
    assert {command for command, _, _ in runs} | {"suite"} == set(COMMANDS)
    report = str(tmp_path / "r.json")
    for command, kind, code in runs:
        argv = [command, "--input", paths[kind], "--samples", "50", "--report", report]
        assert main(argv) == code, command
    for suite in SUITES:
        argv = ["suite", suite, "--trials", "2", "--samples", "50", "--report", report]
        assert main(argv) == 0, suite
    capsys.readouterr()


# -- report paths and parser reuse ---------------------------------------------------


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_report_is_input_error(tmp_path, capsys, where):
    report = tmp_path / "no-such-dir" / "r.json" if where == "missing-dir" else tmp_path
    code = main(["check-kframe", "--profile", "generic", "--seed", "3", "--report", str(report)])
    out, err = capsys.readouterr()
    assert code == 3
    assert out.startswith("check-kframe: certified")  # the status line comes first
    assert err.startswith(f"error: cannot write report {report}: ")
    assert "Traceback" not in err


def _payload(path) -> list[str]:
    return [ln for ln in path.read_text(encoding="utf-8").splitlines() if '"wall_clock_s"' not in ln]


def test_parser_is_built_once_and_reused(tmp_path, monkeypatch, capsys):
    path = write_instance(tmp_path, random_instance(4, "generic"))
    fresh = tmp_path / "fresh.json"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "cstarframes.cli", "check-kframe", "--input", path,
         "--report", str(fresh)],
        capture_output=True, text=True, env=env,
    )

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert main(["bounds", "--input", path]) == 0
    # usage errors: one after parsing, one while the positionals are switched off
    for argv in (["suite"], ["check-frame", "--trials", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    reused = tmp_path / "reused.json"
    code = main(["check-kframe", "--input", path, "--report", str(reused)])
    assert len(built) == 1
    assert (code, capsys.readouterr().out) == (proc.returncode, proc.stdout)
    assert _payload(reused) == _payload(fresh)


def test_report_bytes_are_pinned(tmp_path, capsys):
    # every single command on generated instances, exit code and report
    # payload (the report without wall_clock_s); a pure speed-up moves no byte
    report = tmp_path / "r.json"
    digest = hashlib.sha256()
    for profile in ("generic", "rank-deficient-K"):
        for command in COMMANDS:
            if command == "suite":
                continue
            for seed in range(4):
                report.unlink(missing_ok=True)
                code = main([command, "--profile", profile, "--seed", str(seed),
                             "--report", str(report)])
                payload = (report_payload_bytes(json.loads(report.read_text(encoding="utf-8")))
                           if report.exists() else b"")
                digest.update(f"{profile} {command} {seed} {code}\n".encode() + payload)
    capsys.readouterr()
    assert digest.hexdigest() == (
        "bd9d48319f03cf73b125135762f7e23e6f13652b9115eb7e6fd0e5657d46ab23"
    )


def test_input_report_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    # every single command on instance files that save_instance writes,
    # read through --input: exit code and the report bytes without the
    # wall_clock_s line (none where the command rejects the file)
    monkeypatch.chdir(tmp_path)
    files = [(f"{profile}-{seed}.json", random_instance(seed, profile))
             for profile in ("generic", "rank-deficient-K") for seed in range(4)]
    files += [(f"tensor-{seed}.json", tensor_pair_instance(seed)) for seed in range(4)]
    report = Path("r.json")
    digest = hashlib.sha256()
    for name, inst in files:
        save_instance(inst, name)
        for command in COMMANDS:
            if command == "suite":
                continue
            report.unlink(missing_ok=True)
            code = main([command, "--input", name, "--report", str(report)])
            payload = b"".join(
                line for line in (report.read_bytes() if report.exists() else b"").splitlines(True)
                if b'"wall_clock_s"' not in line)
            digest.update(f"{name} {command} {code}\n".encode() + payload)
    capsys.readouterr()
    assert digest.hexdigest() == (
        "eaedaa4fa249a529eade310d2c279f39bef002e581bb905b924f0e898e8d467c"
    )


def _readme_list(label: str) -> tuple:
    """The names of the README CLI section's `label:` paragraph."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    paragraph = section.split(f"\n{label}: ")[1].split("\n\n")[0]
    return tuple(name.split()[0] for name in re.findall(r"`([^`]+)`", paragraph))


def test_readme_lists_the_commands_and_suites():
    assert _readme_list("Commands") == COMMANDS
    assert _readme_list("Suites") == SUITES
