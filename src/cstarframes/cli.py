"""Batch verifier CLI.

Commands read a JSON instance (--input) or generate one from a named
ensemble (--profile), run the requested certification, optionally write a
JSON report (--report), and exit with 0 = certified / all-pass,
1 = falsified, 2 = inconclusive, 3 = input error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from ._version import __version__
from .certify import CERTIFIED, Certificate, FALSIFIED, INCONCLUSIVE
from .douglas import equivalence_audit
from .errors import AtomicSystemError, InputError
from .frames import (
    FrameSeq,
    atomic_coefficients,
    certify_kframe,
    dual_atoms_audit,
    local_atoms_check,
    optimal_scalar_bounds,
)
from .harness import SUITES, random_instance, run_suite, tensor_pair_instance
from .hilbmod import identity_operator
from .perturb import pertur1_audit, pertur2_audit
from .sampling import random_vector, stream
from .serialize import (
    Instance,
    certificate_to_dict,
    instance_digest,
    load_instance,
    write_report,
)
from .tensor import tensor_frame_audit, tensor_witness

COMMANDS = (
    "check-frame",
    "check-kframe",
    "atomic-system",
    "dual-atoms",
    "local-atoms",
    "douglas",
    "bounds",
    "tensor",
    "perturb1",
    "perturb2",
    "suite",
)

EXIT_CODES = {CERTIFIED: 0, FALSIFIED: 1, INCONCLUSIVE: 2}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="instance file (JSON)")
    common.add_argument("--tol", type=float, default=None,
                        help="certification tolerance (default 1e-9; an instance "
                             "file's tolerances.tol applies when the flag is absent)")
    common.add_argument("--samples", type=int, default=1000, help="sample count for sampled checks")
    common.add_argument("--seed", type=int, default=None,
                        help="RNG seed, uint64 (default 0; an instance file's "
                             "seed applies when the flag is absent)")
    common.add_argument("--report", help="write a JSON report here")
    common.add_argument("--profile", help="generate the instance from this ensemble profile")
    common.add_argument("--trials", type=int, default=100, help="trial count (suite command)")

    parser = argparse.ArgumentParser(
        prog="cstarframes",
        description="Certify frame inequalities on finite-dimensional Hilbert C*-modules.",
    )
    parser.add_argument("--version", action="version", version=f"cstarframes {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        if name == "suite":
            sp = sub.add_parser(name, parents=[common], help="run an audit ensemble")
            sp.add_argument("name", choices=SUITES, help="suite name")
        else:
            sub.add_parser(name, parents=[common])
    return parser


def _resolve_defaults(args, inst: Instance | None) -> None:
    """Flag > instance file > built-in default, applied in place."""
    if args.tol is None:
        tol = inst.tolerances.get("tol") if inst else None
        args.tol = 1e-9 if tol is None else tol
    if args.seed is None:
        args.seed = (inst.seed if inst and inst.seed is not None else None) or 0


def _get_instance(args, command: str) -> Instance:
    if args.input:
        inst = load_instance(args.input)
        _resolve_defaults(args, inst)
        return inst
    _resolve_defaults(args, None)
    if args.profile:
        if command == "tensor":
            return tensor_pair_instance(args.seed)
        return random_instance(args.seed, args.profile)
    raise InputError(f"{command} needs --input or --profile")


def _need_operator(inst: Instance, key: str, command: str):
    if key not in inst.operators:
        raise InputError(f"{command} needs operators.{key} in the instance")
    return inst.operators[key]


def _derived_scalar_bounds(frame: FrameSeq, lam: float, mu: float, tol: float):
    low = 1.0 if math.isinf(lam) else math.sqrt(max(lam, 0.0) * (1.0 - 1e-9))
    up = math.sqrt(mu) * (1.0 + 1e-9) if mu > 0 else 1.0
    return low * frame.spec.unit(), up * frame.spec.unit()


def _kframe_command(inst: Instance, k_op, args, claim: str):
    frame = inst.frame()
    lam, mu = optimal_scalar_bounds(frame, k_op)
    values = {"lambda_star": lam, "mu_star": mu}
    a = inst.bounds.get("A")
    b = inst.bounds.get("B")
    if a is None or b is None:
        if not math.isinf(lam) and lam <= args.tol:
            cert = Certificate(
                FALSIFIED, claim,
                {"lambda_star": lam, "reason": "no scalar lower bound"},
                {"tol": args.tol},
            )
            return cert.status, values, [cert]
        a, b = _derived_scalar_bounds(frame, lam, mu, args.tol)
        values["derived_bounds"] = True
    cert = certify_kframe(frame, k_op, a, b, args.tol, args.samples, args.seed)
    return cert.status, values, [cert]


def _cmd_check_frame(inst: Instance, args):
    k_op = identity_operator(inst.spec, inst.rank)
    return _kframe_command(inst, k_op, args, "star-frame")


def _cmd_check_kframe(inst: Instance, args):
    k_op = _need_operator(inst, "K", "check-kframe")
    return _kframe_command(inst, k_op, args, "star-kframe")


def _cmd_atomic_system(inst: Instance, args):
    frame = inst.frame()
    k_op = _need_operator(inst, "K", "atomic-system")
    try:
        q, c, residual = atomic_coefficients(
            frame, k_op, args.tol, samples=min(args.samples, 50), seed=args.seed
        )
    except AtomicSystemError as exc:
        cert = Certificate(FALSIFIED, "atomic-system", {"error": str(exc)}, {"tol": args.tol})
        return cert.status, {}, [cert]
    values = {"q_norm": q.norm(), "residual": residual, "coefficient_bound_norm": c.norm()}
    cert = Certificate(CERTIFIED, "atomic-system", dict(values), {"tol": args.tol})
    return cert.status, values, [cert]


def _cmd_dual_atoms(inst: Instance, args):
    frame = inst.frame()
    k_op = _need_operator(inst, "K", "dual-atoms")
    cert = dual_atoms_audit(frame, k_op, args.tol, min(args.samples, 100), args.seed)
    return cert.status, dict(cert.witness), [cert]


def _cmd_local_atoms(inst: Instance, args):
    frame = inst.frame()
    p_op = _need_operator(inst, "P", "local-atoms")
    from .douglas import pseudo_inverse

    s_pinv = pseudo_inverse(frame.frame_op)
    if inst.g_members:
        atoms = inst.g_members
    else:
        atoms = [s_pinv.apply(m) for m in frame.members]
    c = inst.bounds.get("C")
    if c is None:
        c = (s_pinv.norm() * frame.synthesis_op.norm()) * inst.spec.unit()
    cert = local_atoms_check(
        frame, p_op, atoms, c, args.tol, min(args.samples, 200), args.seed
    )
    return cert.status, dict(cert.witness), [cert]


def _cmd_douglas(inst: Instance, args):
    t_op = _need_operator(inst, "K", "douglas (uses K as T)")
    s_op = _need_operator(inst, "L", "douglas (uses L as S)")
    cert = equivalence_audit(t_op, s_op, args.tol, min(args.samples, 200), args.seed)
    return cert.status, dict(cert.witness), [cert]


def _cmd_bounds(inst: Instance, args):
    frame = inst.frame()
    k_op = inst.operators.get("K") or identity_operator(inst.spec, inst.rank)
    lam, mu = optimal_scalar_bounds(frame, k_op)
    values = {"lambda_star": lam, "mu_star": mu}
    if math.isinf(lam) or lam > 10 * args.tol:
        status = CERTIFIED
    elif lam > args.tol:
        status = INCONCLUSIVE
    else:
        status = FALSIFIED
    cert = Certificate(status, "scalar-bounds", dict(values), {"tol": args.tol})
    return status, values, [cert]


def _cmd_tensor(inst: Instance, args):
    if inst.right is None:
        raise InputError("tensor needs a nested 'right' instance (or --profile)")
    left_frame = inst.frame()
    right_frame = inst.right.frame()
    k_op = _need_operator(inst, "K", "tensor (left)")
    l_op = _need_operator(inst.right, "L", "tensor (right)")
    for key, where in (("A", inst), ("B", inst)):
        if key not in where.bounds:
            raise InputError(f"tensor needs bounds.{key} on the left instance")
    for key in ("C", "D"):
        if key not in inst.right.bounds:
            raise InputError(f"tensor needs bounds.{key} on the right instance")
    w = tensor_witness(inst.spec, inst.right.spec)
    cert = tensor_frame_audit(
        w, left_frame, right_frame, k_op, l_op,
        inst.bounds["A"], inst.bounds["B"],
        inst.right.bounds["C"], inst.right.bounds["D"],
        args.tol,
    )
    return cert.status, dict(cert.witness), [cert]


def _perturb_common(inst: Instance, args, command: str):
    frame = inst.frame()
    k_op = _need_operator(inst, "K", command)
    l_op = inst.operators.get("L", k_op)
    if inst.h_members:
        h_seq = inst.h_frame()
    elif args.profile:
        rng = stream(args.seed, 8)
        h_seq = FrameSeq(
            [m + random_vector(inst.spec, inst.rank, rng).scalar_mul(1e-3)
             for m in frame.members]
        )
    else:
        raise InputError(f"{command} needs h_members (the perturbed family)")
    a = inst.bounds.get("A")
    b = inst.bounds.get("B")
    if a is None or b is None:
        lam, mu = optimal_scalar_bounds(frame, k_op)
        if not math.isinf(lam) and lam <= args.tol:
            raise InputError(f"{command}: base family is not a K-frame, no bounds derivable")
        a, b = _derived_scalar_bounds(frame, lam, mu, args.tol)
    return frame, h_seq, k_op, l_op, a, b


def _cmd_perturb1(inst: Instance, args):
    frame, h_seq, k_op, l_op, a, b = _perturb_common(inst, args, "perturb1")
    rep = pertur1_audit(
        frame, h_seq, k_op, l_op, a, b, args.tol,
        samples=min(args.samples, 500), seed=args.seed,
    )
    values = {
        "branch_M_f": rep.branch_M_f,
        "branch_M_h": rep.branch_M_h,
        "sampled_M": rep.sampled_M,
        "M": rep.certified_M,
    }
    values.update({f"const.{k}": v for k, v in rep.constants_used.items()})
    return rep.conclusion.status, values, [rep.conclusion]


def _cmd_perturb2(inst: Instance, args):
    frame, h_seq, k_op, l_op, a, b = _perturb_common(inst, args, "perturb2")
    pert = inst.perturbation or {"alpha": 0.2, "beta": 0.1, "gamma": 0.05}
    rep = pertur2_audit(
        frame, h_seq, k_op, l_op,
        pert.get("alpha", 0.0), pert.get("beta", 0.0), pert.get("gamma", 0.0),
        a, b, args.tol, samples=args.samples, seed=args.seed,
    )
    values = {
        "branch_M_f": rep.branch_M_f,
        "branch_M_h": rep.branch_M_h,
        "sampled_M": rep.sampled_M,
    }
    values.update({f"const.{k}": v for k, v in rep.constants_used.items()})
    return rep.conclusion.status, values, [rep.conclusion]


_HANDLERS = {
    "check-frame": _cmd_check_frame,
    "check-kframe": _cmd_check_kframe,
    "atomic-system": _cmd_atomic_system,
    "dual-atoms": _cmd_dual_atoms,
    "local-atoms": _cmd_local_atoms,
    "douglas": _cmd_douglas,
    "bounds": _cmd_bounds,
    "tensor": _cmd_tensor,
    "perturb1": _cmd_perturb1,
    "perturb2": _cmd_perturb2,
}


def _run_single(args) -> tuple[dict, int]:
    t0 = time.perf_counter()
    inst = _get_instance(args, args.command)
    status, values, certs = _HANDLERS[args.command](inst, args)
    report = {
        "tool": "cstarframes",
        "version": __version__,
        "command": args.command,
        "config": {
            "input": args.input,
            "profile": args.profile,
            "tol": args.tol,
            "samples": args.samples,
            "seed": args.seed,
        },
        "seed": args.seed,
        "instance_digest": instance_digest(inst),
        "status": status,
        "values": values,
        "certificates": [certificate_to_dict(c) for c in certs],
        "wall_clock_s": time.perf_counter() - t0,
    }
    return report, EXIT_CODES.get(status, 3)


def _run_suite(args) -> tuple[dict, int]:
    _resolve_defaults(args, None)
    n_terms = 10
    if args.profile:
        from .harness import _parse_profile

        name, n = _parse_profile(args.profile)
        if name == "paper-example-truncation" and n:
            n_terms = n
    report = run_suite(
        args.name,
        trials=args.trials,
        seed=args.seed,
        tol=args.tol,
        samples=args.samples,
        n_terms=n_terms,
    )
    return report, EXIT_CODES.get(report["summary"]["overall"], 3)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "suite":
            report, code = _run_suite(args)
            s = report["summary"]
            print(
                f"suite {args.name}: {s['certified']}/{s['total']} certified, "
                f"{s['falsified']} falsified, {s['inconclusive']} inconclusive, "
                f"{s['errors']} errors -> {s['overall']}"
            )
        else:
            report, code = _run_single(args)
            extras = ", ".join(
                f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in list(report["values"].items())[:4]
            )
            print(f"{args.command}: {report['status']}" + (f" ({extras})" if extras else ""))
        if args.report:
            write_report(report, args.report)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
