import json
import math
import subprocess
import sys

import numpy as np
import pytest

from cstarframes import AlgebraSpec, Instance, coordinate_frame, save_instance
from cstarframes.cli import main
from cstarframes.harness import random_instance, tensor_pair_instance
from cstarframes.serialize import decode_vector

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
    members = list(coordinate_frame(SPEC, 2).members)
    inst = Instance(spec=SPEC, rank=2, members=members,
                    bounds={"A": 0.5 * SPEC.unit(), "B": math.sqrt(1 - 3e-9) * SPEC.unit()})
    path = write_instance(tmp_path, inst)
    assert main(["check-frame", "--input", path]) == 2
    assert "inconclusive" in capsys.readouterr().out


def test_non_central_bound_falsified_exit_code(tmp_path, capsys):
    # a non-central upper bound is decided exactly: S does not vanish on its
    # non-scalar block, so the report carries a rank-one witness
    members = list(coordinate_frame(SPEC, 2).members)
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
    assert cert["samples"] is None and cert["seed"] is None
    w = decode_vector(SPEC, 2, cert["witness_vector"], "witness_vector")
    gap = b * w.inner(w) * b.adjoint() - coordinate_frame(SPEC, 2).coefficient_gram(w)
    assert not gap.is_positive(1e-9)


def test_input_error_exit_code(capsys):
    assert main(["check-frame", "--profile", "no-such-profile"]) == 3
    assert "error:" in capsys.readouterr().err
    assert main(["check-frame"]) == 3  # neither --input nor --profile
    assert main(["check-kframe", "--input", "/nonexistent/file.json"]) == 3


def test_missing_operator_is_input_error(tmp_path, capsys):
    inst = Instance(spec=SPEC, rank=2, members=list(coordinate_frame(SPEC, 2).members))
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
    inst.h_members = [m for m in inst.members]
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


# tol 0 is honoured, not replaced by the default: it leaves no room for the
# roundoff-level Hermitian residual of the gap operators, so the check falsifies
@pytest.mark.parametrize(("tol", "code"), [(1e-6, 0), (0.0, 1)])
def test_instance_tolerances_and_seed_apply_when_flags_absent(tmp_path, capsys, tol, code):
    inst = random_instance(4, "generic")
    inst.tolerances = {"tol": tol}
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
