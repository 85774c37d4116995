"""Batch verifier CLI.

Commands read a JSON instance (--input) or generate one from a named
ensemble (--profile), run the requested certification, optionally write a
JSON report (--report), and exit with 0 = certified / all-pass,
1 = falsified, 2 = inconclusive, 3 = input error or an unwritable report
path (argparse usage errors exit 2).  Each command is a row of
`harness.CLAIMS`; this module parses, resolves defaults and reports.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from ._version import __version__
from .algebra import DEFAULT_TOL
from .certify import CERTIFIED, FALSIFIED, INCONCLUSIVE
from .errors import InputError
from .harness import (
    CLAIMS, SUITES, _parse_profile, random_instance, run_suite, tensor_pair_instance,
)
from .serialize import (
    Instance,
    certificate_to_dict,
    decode_tolerance,
    instance_digest,
    load_instance,
    write_report,
)

_BY_COMMAND = {c.command: c for c in CLAIMS if c.command}
COMMANDS = (*_BY_COMMAND, "suite")

EXIT_CODES = {CERTIFIED: 0, FALSIFIED: 1, INCONCLUSIVE: 2}


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


def _get_instance(args) -> tuple[Instance, str]:
    """The instance and its digest."""
    if args.input:
        inst = load_instance(args.input)
        _resolve_defaults(args, inst)
    else:
        _resolve_defaults(args, None)
        if not args.profile:
            raise InputError(f"{args.command} needs --input or --profile")
        inst = (tensor_pair_instance(args.seed) if args.command == "tensor"
                else random_instance(args.seed, args.profile))
    return inst, instance_digest(inst)


def _run_single(args, claim) -> tuple[dict, int]:
    t0 = time.perf_counter()
    inst, digest = _get_instance(args)
    claim.check(inst)
    status, values, certs = claim.run(inst, args.tol, args.seed, args.profile)
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
            claim = _BY_COMMAND[args.command]
            report, code = _run_single(args, claim)
            values = report["values"]
            keys = claim.status_keys or list(values)[:4]
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
