"""Instance and report file formats.

Instances are UTF-8 JSON.  Complex scalars are two-element arrays
[re, im]; an algebra element is a list of 2-D arrays (one per block); a
module vector is a list of algebra elements; operators are 2-D arrays of
algebra elements indexed [input][output].  Reports are JSON with a stable
field order; status strings are exactly "certified", "falsified",
"inconclusive".  Non-finite floats are encoded as the strings "inf",
"-inf", "nan" so reports stay strict JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .algebra import AlgebraSpec, AlgElement
from .certify import Certificate
from .errors import InputError
from .frames import FrameSeq
from .hilbmod import ModuleOperator, ModuleVector

OPERATOR_KEYS = ("K", "L", "P", "T")
BOUND_KEYS = ("A", "B", "C", "D")


# -- scalar/element encoding --------------------------------------------------


def encode_complex(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def decode_complex(data, path: str) -> complex:
    if (
        not isinstance(data, (list, tuple))
        or len(data) != 2
        or not all(isinstance(x, (int, float)) for x in data)
    ):
        raise InputError(f"{path}: complex scalars are two-element arrays [re, im]")
    if not (math.isfinite(data[0]) and math.isfinite(data[1])):
        raise InputError(f"{path}: non-finite component in complex scalar")
    return complex(float(data[0]), float(data[1]))


def encode_element(a: AlgElement) -> list:
    return [
        [[encode_complex(z) for z in row] for row in blk] for blk in a.blocks
    ]


def decode_element(spec: AlgebraSpec, data, path: str) -> AlgElement:
    if not isinstance(data, list) or len(data) != spec.n_blocks:
        raise InputError(
            f"{path}: expected {spec.n_blocks} blocks, got "
            f"{len(data) if isinstance(data, list) else type(data).__name__}"
        )
    blocks = []
    for b, (d, blk) in enumerate(zip(spec.block_dims, data)):
        if not isinstance(blk, list) or len(blk) != d:
            raise InputError(f"{path}[{b}]: block must be a {d}x{d} array")
        rows = []
        for r, row in enumerate(blk):
            if not isinstance(row, list) or len(row) != d:
                raise InputError(f"{path}[{b}][{r}]: block must be a {d}x{d} array")
            rows.append([decode_complex(z, f"{path}[{b}][{r}][{c}]") for c, z in enumerate(row)])
        blocks.append(rows)
    return AlgElement(spec, blocks)


def encode_vector(f: ModuleVector) -> list:
    return [encode_element(e) for e in f.entries]


def decode_vector(spec: AlgebraSpec, rank: int, data, path: str) -> ModuleVector:
    if not isinstance(data, list) or len(data) != rank:
        raise InputError(f"{path}: expected {rank} entries")
    return ModuleVector(
        spec, [decode_element(spec, e, f"{path}[{i}]") for i, e in enumerate(data)]
    )


def encode_operator(t: ModuleOperator) -> list:
    return [[encode_element(e) for e in row] for row in t.entries]


def decode_operator(spec: AlgebraSpec, data, path: str) -> ModuleOperator:
    if not isinstance(data, list) or not data or not isinstance(data[0], list):
        raise InputError(f"{path}: operators are 2-D arrays indexed [input][output]")
    grid = []
    width = len(data[0])
    for j, row in enumerate(data):
        if not isinstance(row, list) or len(row) != width:
            raise InputError(f"{path}[{j}]: ragged operator rows")
        grid.append(
            [decode_element(spec, e, f"{path}[{j}][{i}]") for i, e in enumerate(row)]
        )
    return ModuleOperator(spec, grid)


# -- instances -----------------------------------------------------------------


@dataclass
class Instance:
    """In-memory form of one instance file."""

    spec: AlgebraSpec
    rank: int
    members: list[ModuleVector]
    h_members: Optional[list[ModuleVector]] = None
    g_members: Optional[list[ModuleVector]] = None
    operators: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    perturbation: Optional[dict] = None
    tolerances: dict = field(default_factory=dict)
    seed: Optional[int] = None
    right: Optional["Instance"] = None

    def frame(self) -> FrameSeq:
        return FrameSeq(self.members)

    def h_frame(self) -> FrameSeq:
        if not self.h_members:
            raise InputError("instance has no h_members (perturbed family)")
        return FrameSeq(self.h_members)


def instance_to_dict(inst: Instance) -> dict:
    out: dict = {
        "algebra": list(inst.spec.block_dims),
        "rank": inst.rank,
        "members": [encode_vector(m) for m in inst.members],
    }
    if inst.h_members:
        out["h_members"] = [encode_vector(m) for m in inst.h_members]
    if inst.g_members:
        out["g_members"] = [encode_vector(m) for m in inst.g_members]
    if inst.operators:
        out["operators"] = {
            k: encode_operator(v) for k, v in sorted(inst.operators.items())
        }
    if inst.bounds:
        out["bounds"] = {k: encode_element(v) for k, v in sorted(inst.bounds.items())}
    if inst.perturbation is not None:
        out["perturbation"] = {
            k: float(inst.perturbation[k])
            for k in ("alpha", "beta", "gamma")
            if k in inst.perturbation
        }
    if inst.tolerances:
        out["tolerances"] = {k: float(v) for k, v in sorted(inst.tolerances.items())}
    if inst.seed is not None:
        out["seed"] = int(inst.seed)
    if inst.right is not None:
        out["right"] = instance_to_dict(inst.right)
    return out


def parse_instance(data: dict, path: str = "instance") -> Instance:
    if not isinstance(data, dict):
        raise InputError(f"{path}: instance files hold one JSON object")
    unknown = set(data) - {
        "algebra", "rank", "members", "h_members", "g_members", "operators",
        "bounds", "perturbation", "tolerances", "seed", "right",
    }
    if unknown:
        raise InputError(f"{path}: unknown fields {sorted(unknown)}")
    if "algebra" not in data:
        raise InputError(f"{path}.algebra: required")
    spec = AlgebraSpec(data["algebra"])
    if "rank" not in data or not isinstance(data["rank"], int) or data["rank"] < 1:
        raise InputError(f"{path}.rank: required positive integer")
    rank = data["rank"]
    if "members" not in data or not isinstance(data["members"], list) or not data["members"]:
        raise InputError(f"{path}.members: required non-empty list")
    members = [
        decode_vector(spec, rank, m, f"{path}.members[{j}]")
        for j, m in enumerate(data["members"])
    ]
    inst = Instance(spec=spec, rank=rank, members=members)
    for key in ("h_members", "g_members"):
        if key in data:
            vs = data[key]
            if not isinstance(vs, list) or not vs:
                raise InputError(f"{path}.{key}: must be a non-empty list")
            setattr(
                inst,
                key,
                [
                    decode_vector(spec, rank, m, f"{path}.{key}[{j}]")
                    for j, m in enumerate(vs)
                ],
            )
    if "operators" in data:
        ops = data["operators"]
        if not isinstance(ops, dict):
            raise InputError(f"{path}.operators: must be an object")
        for k, v in ops.items():
            if k not in OPERATOR_KEYS:
                raise InputError(f"{path}.operators.{k}: unknown operator key")
            inst.operators[k] = decode_operator(spec, v, f"{path}.operators.{k}")
    if "bounds" in data:
        bounds = data["bounds"]
        if not isinstance(bounds, dict):
            raise InputError(f"{path}.bounds: must be an object")
        for k, v in bounds.items():
            if k not in BOUND_KEYS:
                raise InputError(f"{path}.bounds.{k}: unknown bound key")
            inst.bounds[k] = decode_element(spec, v, f"{path}.bounds.{k}")
    if "perturbation" in data:
        pert = data["perturbation"]
        if not isinstance(pert, dict) or not set(pert) <= {"alpha", "beta", "gamma"}:
            raise InputError(
                f"{path}.perturbation: object with keys alpha, beta, gamma"
            )
        inst.perturbation = {k: float(v) for k, v in pert.items()}
    if "tolerances" in data:
        tols = data["tolerances"]
        if not isinstance(tols, dict):
            raise InputError(f"{path}.tolerances: must be an object")
        inst.tolerances = {k: float(v) for k, v in tols.items()}
    if "seed" in data:
        if not isinstance(data["seed"], int) or data["seed"] < 0:
            raise InputError(f"{path}.seed: must be a nonnegative integer")
        inst.seed = data["seed"]
    if "right" in data:
        inst.right = parse_instance(data["right"], f"{path}.right")
    return inst


def load_instance(path: str | Path) -> Instance:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read instance file {p}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{p}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_instance(data, path=str(p))


def save_instance(inst: Instance, path: str | Path) -> None:
    Path(path).write_text(dumps_stable(instance_to_dict(inst)), encoding="utf-8")


def instance_digest(inst: Instance) -> str:
    payload = json.dumps(
        instance_to_dict(inst), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


# -- reports --------------------------------------------------------------------


def sanitize(obj):
    """Replace non-finite floats by strings so output is strict JSON."""
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, dict):
        return {k: sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if hasattr(obj, "item"):  # numpy scalars
        return sanitize(obj.item())
    return str(obj)


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "claim": cert.claim,
        "status": cert.status,
        "witness": sanitize(cert.witness),
        "tolerances": sanitize(cert.tolerances),
        "samples": cert.samples,
        "seed": cert.seed,
        "witness_vector": (
            encode_vector(cert.witness_vector) if cert.witness_vector is not None else None
        ),
    }


def dumps_stable(obj) -> str:
    """Deterministic JSON text: fixed insertion order, sanitized floats."""
    return json.dumps(sanitize(obj), indent=2, allow_nan=False) + "\n"


def report_payload_bytes(report: dict) -> bytes:
    """Serialized report with the wall-clock field removed; two runs with
    identical config and seed produce identical payload bytes."""
    payload = {k: v for k, v in report.items() if k != "wall_clock_s"}
    return dumps_stable(payload).encode("utf-8")


def write_report(report: dict, path: str | Path) -> None:
    Path(path).write_text(dumps_stable(report), encoding="utf-8")
