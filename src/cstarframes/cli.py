"""Batch verifier CLI.

Commands read a JSON instance (--input) or generate one from a named
ensemble (--profile), run the requested certification, optionally write a
JSON report (--report), and exit with 0 = certified / all-pass,
1 = falsified, 2 = inconclusive, 3 = input error or an unwritable report
path (argparse usage errors exit 2).  A K-frame verdict or bound read off
lambda* is `frames`'.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import replace

from ._version import __version__
from .algebra import DEFAULT_TOL
from .certify import CERTIFIED, Certificate, FALSIFIED, INCONCLUSIVE, pencil_verdict
from .douglas import equivalence_audit, pseudo_inverse
from .errors import InputError
from .frames import (
    _family,
    _pencil_certificate,
    certify_kframe,
    derived_bounds,
    dual_atoms_audit,
    local_atoms_check,
    optimal_scalar_bounds,
)
from .harness import (
    DEFAULT_EPSILON, SUITES, _parse_profile, _perturbed_pair, _tensor_pair_audit,
    random_instance, run_suite, tensor_pair_instance,
)
from .hilbmod import identity_operator
from .perturb import pertur1_audit, pertur2_audit
from .serialize import (
    Instance,
    certificate_to_dict,
    decode_tolerance,
    instance_digest,
    load_instance,
    write_report,
)

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

# the values a status line shows where the first four are not the
# decision: perturb2's first four are the audit's inputs
_STATUS_KEYS = {"perturb1": ("M", "upper_const"), "perturb2": ("hypothesis", "upper_const")}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process.  Its usage string is
    formatted here and kept in `parser.usage`, so parsing does not format
    it again on every call; the text is the one argparse would format."""
    parser = argparse.ArgumentParser(
        prog="cstarframes",
        description="Certify frame inequalities on finite-dimensional Hilbert C*-modules.",
    )
    parser.add_argument("--version", action="version", version=f"cstarframes {__version__}")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("name", nargs="?", choices=SUITES, help="suite name (suite command only)")
    parser.add_argument("--input", help="instance file (JSON)")
    parser.add_argument("--tol", type=float, default=None,
                        help=f"certification tolerance (default {DEFAULT_TOL:g}; an instance "
                             "file's tolerances.tol applies when the flag is absent)")
    parser.add_argument("--samples", type=int, default=1000,
                        help="accepted for compatibility, checked (>= 1) and recorded in "
                             "the report config; no check draws samples")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed, uint64 (default 0; an instance file's "
                             "seed applies when the flag is absent)")
    parser.add_argument("--report", help="write a JSON report here")
    parser.add_argument("--profile", help="generate the instance from this ensemble profile")
    parser.add_argument("--trials", type=int, default=100, help="trial count (suite command)")
    parser.usage = parser.format_usage().removeprefix("usage: ")
    return parser


def _resolve_defaults(args, inst: Instance | None) -> None:
    """Flag > instance file > built-in default, applied in place after
    checking the flags."""
    for flag, value, least in (("--samples", args.samples, 1), ("--trials", args.trials, 1),
                               ("--seed", args.seed, 0)):
        if value is not None and value < least:
            raise InputError(f"{flag}: must be >= {least}, got {value}")
    if args.tol is None:
        tol = inst.tol if inst else None
        args.tol = DEFAULT_TOL if tol is None else tol
    else:
        args.tol = decode_tolerance(args.tol, "--tol")
    if args.seed is None:
        args.seed = (inst.seed if inst and inst.seed is not None else None) or 0


def _get_instance(args, command: str) -> tuple[Instance, str]:
    """The instance and its digest."""
    if args.input:
        inst = load_instance(args.input)
        _resolve_defaults(args, inst)
    else:
        _resolve_defaults(args, None)
        if not args.profile:
            raise InputError(f"{command} needs --input or --profile")
        inst = (tensor_pair_instance(args.seed) if command == "tensor"
                else random_instance(args.seed, args.profile))
    return inst, instance_digest(inst)


def _need_operator(inst: Instance, key: str, command: str):
    if key not in inst.operators:
        raise InputError(f"{command} needs operators.{key} in the instance")
    return inst.operators[key]


def _kframe_command(inst: Instance, k_op, args, claim: str):
    """certify_kframe with the instance's bounds, or with `derived_bounds`
    where `frames._pencil_certificate` certifies lambda*; else that
    certificate."""
    frame = inst.members
    lam, mu = optimal_scalar_bounds(frame, k_op, args.tol)
    values = {"lambda_star": lam, "mu_star": mu}
    a = inst.bounds.get("A")
    b = inst.bounds.get("B")
    if a is None or b is None:
        witness = {"lambda_star": lam, "reason": "no scalar lower bound resolved at tol"}
        cert = _pencil_certificate(frame, k_op, lam, args.tol, claim, witness)
        if not cert.ok:
            return cert.status, values, [cert]
        a, b = derived_bounds(frame, lam, mu)
        values["derived_bounds"] = True
    cert = certify_kframe(frame, k_op, a, b, args.tol)
    return cert.status, values, [cert]


def _cmd_check_frame(inst: Instance, args):
    k_op = identity_operator(inst.spec, inst.rank)
    return _kframe_command(inst, k_op, args, "star-frame")


def _cmd_check_kframe(inst: Instance, args):
    k_op = _need_operator(inst, "K", "check-kframe")
    return _kframe_command(inst, k_op, args, "star-kframe")


def _cmd_atomic_system(inst: Instance, args):
    k_op = _need_operator(inst, "K", "atomic-system")
    cert = dual_atoms_audit(inst.members, k_op, args.tol)
    if not cert.ok:
        return cert.status, {}, [replace(cert, claim="atomic-system")]
    w = cert.witness
    values = {"q_norm": w["q_norm"], "residual": w["factorization_residual"],
              "coefficient_bound_norm": w["q_norm"]}
    return CERTIFIED, values, [Certificate(CERTIFIED, "atomic-system", dict(values), args.tol)]


def _cmd_dual_atoms(inst: Instance, args):
    k_op = _need_operator(inst, "K", "dual-atoms")
    cert = dual_atoms_audit(inst.members, k_op, args.tol)
    return cert.status, dict(cert.witness), [cert]


def _cmd_local_atoms(inst: Instance, args):
    frame = inst.members
    p_op = _need_operator(inst, "P", "local-atoms")
    s_pinv = pseudo_inverse(frame.frame_op)
    g_frame = inst.g_members
    if g_frame is None:
        g_frame = _family(s_pinv.compose(frame.synthesis_op))
    c = inst.bounds.get("C")
    if c is None:
        c = inst.spec.central([s_pinv.norm() * frame.synthesis_op.norm()] * inst.spec.n_blocks)
    cert = local_atoms_check(frame, p_op, g_frame, c, args.tol)
    return cert.status, dict(cert.witness), [cert]


def _cmd_douglas(inst: Instance, args):
    t_op = _need_operator(inst, "K", "douglas (uses K as T)")
    s_op = _need_operator(inst, "L", "douglas (uses L as S)")
    cert = equivalence_audit(t_op, s_op, args.tol)
    return cert.status, dict(cert.witness), [cert]


def _cmd_bounds(inst: Instance, args):
    frame = inst.members
    k_op = inst.operators.get("K") or identity_operator(inst.spec, inst.rank)
    lam, mu = optimal_scalar_bounds(frame, k_op, args.tol)
    values = {"lambda_star": lam, "mu_star": mu}
    cert = _pencil_certificate(frame, k_op, lam, args.tol, "scalar-bounds", dict(values))
    return cert.status, values, [cert]


def _cmd_tensor(inst: Instance, args):
    if inst.right is None:
        raise InputError("tensor needs a nested 'right' instance (or --profile)")
    _need_operator(inst, "K", "tensor (left)")
    _need_operator(inst.right, "L", "tensor (right)")
    for key, side, where in (("A", "left", inst), ("B", "left", inst),
                             ("C", "right", inst.right), ("D", "right", inst.right)):
        if key not in where.bounds:
            raise InputError(f"tensor needs bounds.{key} on the {side} instance")
    cert = _tensor_pair_audit(inst, args.tol)
    return cert.status, dict(cert.witness), [cert]


def _perturb_common(inst: Instance, args, command: str):
    frame = inst.members
    k_op = _need_operator(inst, "K", command)
    l_op = inst.operators.get("L", k_op)
    if inst.h_members is not None:
        h_seq = inst.h_members
    elif args.profile:
        h_seq = _perturbed_pair(frame, args.seed, DEFAULT_EPSILON)
    else:
        raise InputError(f"{command} needs h_members (the perturbed family)")
    a = inst.bounds.get("A")
    b = inst.bounds.get("B")
    if a is None or b is None:
        lam, mu = optimal_scalar_bounds(frame, k_op, args.tol)
        if pencil_verdict(lam, args.tol) != CERTIFIED:
            raise InputError(f"{command}: base family is not a K-frame, no bounds derivable")
        a, b = derived_bounds(frame, lam, mu)
    return frame, h_seq, k_op, l_op, a, b


def _cmd_perturb1(inst: Instance, args):
    frame, h_seq, k_op, l_op, a, b = _perturb_common(inst, args, "perturb1")
    cert = pertur1_audit(frame, h_seq, k_op, l_op, a, b, args.tol)
    return cert.status, dict(cert.witness), [cert]


def _cmd_perturb2(inst: Instance, args):
    frame, h_seq, k_op, l_op, a, b = _perturb_common(inst, args, "perturb2")
    pert = inst.perturbation or {"alpha": 0.2, "beta": 0.1, "gamma": 0.05}
    cert = pertur2_audit(
        frame, h_seq, k_op, l_op,
        pert.get("alpha", 0.0), pert.get("beta", 0.0), pert.get("gamma", 0.0),
        a, b, args.tol,
    )
    return cert.status, dict(cert.witness), [cert]


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
    inst, digest = _get_instance(args, args.command)
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
        "instance_digest": digest,
        "status": status,
        "values": values,
        "certificates": [certificate_to_dict(c) for c in certs],
        "wall_clock_s": time.perf_counter() - t0,
    }
    return report, EXIT_CODES.get(status, 3)


def _run_suite(args) -> tuple[dict, int]:
    if args.input:
        raise InputError("suite draws its own instances and reads no --input file")
    _resolve_defaults(args, None)
    n_terms = 10
    if args.profile:
        name, n = _parse_profile(args.profile)
        if (args.name, name) != ("paper-example", "paper-example-truncation"):
            raise InputError(f"--profile {args.profile}: only suite paper-example reads a "
                             "profile, paper-example-truncation(N)")
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
    parser = build_parser()
    args = parser.parse_intermixed_args(argv)
    if (args.command == "suite") != (args.name is not None):
        parser.error("suite takes one suite name and the other commands none")
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
            values = report["values"]
            keys = _STATUS_KEYS.get(args.command, list(values)[:4])
            extras = ", ".join(
                f"{k}={values[k]:.6g}" if isinstance(values[k], float) else f"{k}={values[k]}"
                for k in keys if k in values
            )
            print(f"{args.command}: {report['status']}" + (f" ({extras})" if extras else ""))
        if args.report:
            try:
                write_report(report, args.report)
            except OSError as exc:
                raise InputError(f"cannot write report {args.report}: {exc}") from exc
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
