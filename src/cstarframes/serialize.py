"""Instance and report file formats.

Instances are UTF-8 JSON.  Complex scalars are two-element arrays
[re, im]; an algebra element is a list of 2-D arrays (one per block); a
module vector is a list of algebra elements; operators are 2-D arrays of
algebra elements indexed [input][output].  A family {f_j} (`members`,
`h_members`, `g_members`) is the grid of its synthesis operator
U: A^J -> A^n, entry [j][i] slot i of member j.  Reports are JSON with a
stable field order; status strings are exactly "certified",
"falsified", "inconclusive".  Non-finite floats are encoded as the
strings "inf", "-inf", "nan" so reports stay strict JSON.

Vectors, operators and families are encoded from their per-block arrays,
one reshape/transpose and one `tolist` per block; operators and families
are decoded straight into them.  A grid whose containers all have the
expected lengths and whose scalars are all finite floats is checked level
by level in C and read as one float array; any other grid goes to the
element walker, which checks every scalar and alone writes the diagnostic
with its field path.  No algebra element or member vector is built per
entry.

`dumps_stable` writes exactly `json.dumps(sanitize(obj), indent=2,
allow_nan=False)` in one walk, without json's pure-Python indenting
encoder.  `instance_digest` hashes the decoded arrays, not their JSON
text, so two files that parse to one instance share a digest and no
float is written out to take it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional

import numpy as np

from .algebra import AlgebraSpec, AlgElement
from .certify import Certificate
from .errors import InputError
from .frames import FrameSeq, _family
from .hilbmod import ModuleOperator, ModuleVector, _operator

OPERATOR_KEYS = ("K", "L", "P", "T")
BOUND_KEYS = ("A", "B", "C", "D")


# -- scalar/element encoding --------------------------------------------------


def _finite(x) -> bool:
    """Whether x is a JSON number, not a boolean, that is finite as a float."""
    return type(x) in (int, float) and -sys.float_info.max <= x <= sys.float_info.max


def decode_number(data, path: str) -> float:
    if not _finite(data):
        kind = "non-finite number" if type(data) in (int, float) else "expected a number"
        raise InputError(f"{path}: {kind}, got {data!r:.20}")
    return float(data)


def decode_tolerance(data, path: str) -> float:
    """A tolerance: a finite number >= 0 (0 leaves no room for roundoff)."""
    tol = decode_number(data, path)
    if tol < 0:
        raise InputError(f"{path}: tolerances are nonnegative, got {tol!r}")
    return tol


def _integer(data, path: str, minimum: int, what: str) -> int:
    if type(data) is not int or data < minimum:
        raise InputError(f"{path}: {what}")
    return data


def decode_complex(data, path: str) -> complex:
    if not isinstance(data, (list, tuple)) or len(data) != 2:
        raise InputError(f"{path}: complex scalars are two-element arrays [re, im]")
    return complex(decode_number(data[0], path), decode_number(data[1], path))


def _check_element(spec: AlgebraSpec, data, path: str) -> None:
    if not isinstance(data, list) or len(data) != spec.n_blocks:
        raise InputError(
            f"{path}: expected {spec.n_blocks} blocks, got "
            f"{len(data) if isinstance(data, list) else type(data).__name__}"
        )
    for b, (d, blk) in enumerate(zip(spec.block_dims, data)):
        if not isinstance(blk, list) or len(blk) != d:
            raise InputError(f"{path}[{b}]: block must be a {d}x{d} array")
        for r, row in enumerate(blk):
            if not isinstance(row, list) or len(row) != d:
                raise InputError(f"{path}[{b}][{r}]: block must be a {d}x{d} array")
            for c, z in enumerate(row):
                if not (type(z) is list and len(z) == 2 and _finite(z[0]) and _finite(z[1])):
                    decode_complex(z, f"{path}[{b}][{r}][{c}]")


def _pairs(z: np.ndarray) -> list:
    return np.ascontiguousarray(z).view(float).reshape(*z.shape, 2).tolist()


def _complex(pairs) -> np.ndarray:
    return np.array(pairs, dtype=float).view(complex)[..., 0]


def encode_element(a: AlgElement) -> list:
    return [_pairs(blk) for blk in a.blocks]


def _element_lengths(spec: AlgebraSpec, k: int) -> tuple[list, ...]:
    """The container lengths, level by level, of k encoded elements: k
    lists of blocks, their block rows, their entries, their [re, im]."""
    dims = spec.block_dims
    rows = [d for d in dims for _ in range(d)]
    return [len(dims)] * k, list(dims) * k, rows * k, [2] * (k * spec.total_dim)


def _float_leaves(level: list, lengths) -> Optional[np.ndarray]:
    """The scalars of the nested lists in level, in order, as one complex
    array, when the containers of the i-th level are lists of lengths
    lengths[i] and every scalar is a finite float; else None.  Each level
    is checked and flattened in C, so no Python loop visits a scalar; a
    bool, string, null or int never passes (only `float` does)."""
    for want in lengths:
        if set(map(type, level)) != {list} or list(map(len, level)) != want:
            return None
        level = list(chain.from_iterable(level))
    if set(map(type, level)) != {float}:
        return None
    z = np.array(level, dtype=float)
    return z.view(complex) if np.isfinite(z).all() else None


def _split_blocks(spec: AlgebraSpec, z: np.ndarray) -> list:
    """Per block, the contiguous (..., d, d) array of z's last axis, which
    holds each element's blocks one after another, row-major."""
    blocks, start = [], 0
    for d in spec.block_dims:
        blk = np.ascontiguousarray(z[..., start:start + d * d])
        blocks.append(blk.reshape(*z.shape[:-1], d, d))
        start += d * d
    return blocks


def decode_element(spec: AlgebraSpec, data, path: str) -> AlgElement:
    z = _float_leaves([data], _element_lengths(spec, 1))
    if z is not None:
        return AlgElement(spec, _split_blocks(spec, z))
    _check_element(spec, data, path)
    return AlgElement(spec, [_complex(blk) for blk in data])


def encode_operator(t: ModuleOperator) -> list:
    n, m = t.in_rank, t.out_rank
    blocks = [
        _pairs(mat.reshape(m, d, n, d).transpose(2, 0, 3, 1))
        for d, mat in zip(t.spec.block_dims, t.block_matrices())
    ]
    return [[list(e) for e in zip(*row)] for row in zip(*blocks)]


def encode_vector(f: ModuleVector) -> list:
    """The one row of the grid of the operator A^1 -> A^n that f spans."""
    return encode_operator(_operator(f.spec, 1, f.rank, f.stacks))[0]


def _decode_grid(spec: AlgebraSpec, data: list, m: int, path: str, what: str) -> ModuleOperator:
    """The operator A^n -> A^m with grid data, entry [j][i] at input j and
    output i.  A grid that `_float_leaves` does not take is walked: every
    scalar is checked, and each row j must hold m elements, else
    `{path}[j]: {what}`."""
    n = len(data)
    z = _float_leaves(data, ([m] * n, *_element_lengths(spec, n * m)))
    if z is not None:
        blocks = _split_blocks(spec, z.reshape(n, m, spec.total_dim))
    else:
        for j, row in enumerate(data):
            if not isinstance(row, list) or len(row) != m:
                raise InputError(f"{path}[{j}]: {what}")
            for i, e in enumerate(row):
                _check_element(spec, e, f"{path}[{j}][{i}]")
        blocks = [_complex([[e[b] for e in row] for row in data]) for b in range(spec.n_blocks)]
    return _operator(spec, n, m, [
        blk.transpose(1, 3, 0, 2).reshape(m * d, n * d) for d, blk in zip(spec.block_dims, blocks)
    ])


def decode_operator(spec: AlgebraSpec, data, path: str) -> ModuleOperator:
    if not isinstance(data, list) or not data or not isinstance(data[0], list) or not data[0]:
        raise InputError(f"{path}: operators are non-empty 2-D arrays indexed [input][output]")
    return _decode_grid(spec, data, len(data[0]), path, "ragged operator rows")


def _decode_family(spec: AlgebraSpec, rank: int, data, path: str) -> FrameSeq:
    """The family whose members data[j] are rank-entry lists, decoded as
    the grid of its synthesis operator U.  Finite but huge entries can
    overflow the frame operator U U*, which is checked here, so the error
    names the field rather than the first later step that meets the inf."""
    if not isinstance(data, list) or not data:
        raise InputError(f"{path}: required non-empty list")
    return _finite_family(_decode_grid(spec, data, rank, path, f"expected {rank} entries"), path)


def _finite_family(u: ModuleOperator, path: str) -> FrameSeq:
    """The family with synthesis operator u, rejected with an InputError
    naming path when its frame operator U U* overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        family = _family(u)
    if not all(np.isfinite(m).all() for m in family.frame_op.block_matrices()):
        raise InputError(f"{path}: members too large, their frame operator U U* overflows")
    return family


# -- instances -----------------------------------------------------------------


@dataclass
class Instance:
    """In-memory form of one instance file; each family is held as the
    FrameSeq of its synthesis operator."""

    spec: AlgebraSpec
    rank: int
    members: FrameSeq
    h_members: Optional[FrameSeq] = None
    g_members: Optional[FrameSeq] = None
    operators: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    perturbation: Optional[dict] = None
    tol: Optional[float] = None
    seed: Optional[int] = None
    right: Optional["Instance"] = None


def instance_to_dict(inst: Instance) -> dict:
    out: dict = {
        "algebra": list(inst.spec.block_dims),
        "rank": inst.rank,
        "members": encode_operator(inst.members.synthesis_op),
    }
    for key in ("h_members", "g_members"):
        family = getattr(inst, key)
        if family is not None:
            out[key] = encode_operator(family.synthesis_op)
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
    if inst.tol is not None:
        out["tolerances"] = {"tol": float(inst.tol)}
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
    dims = data.get("algebra")
    if not isinstance(dims, list) or not dims:
        raise InputError(f"{path}.algebra: required non-empty list of block dimensions")
    for b, d in enumerate(dims):
        _integer(d, f"{path}.algebra[{b}]", 1, "block dimensions are positive integers")
    spec = AlgebraSpec(dims)
    rank = _integer(data.get("rank"), f"{path}.rank", 1, "required positive integer")
    inst = Instance(spec, rank, _decode_family(spec, rank, data.get("members"), f"{path}.members"))
    for key in ("h_members", "g_members"):
        if key in data:
            setattr(inst, key, _decode_family(spec, rank, data[key], f"{path}.{key}"))
    for name, keys, decode, what in (("operators", OPERATOR_KEYS, decode_operator, "operator"),
                                     ("bounds", BOUND_KEYS, decode_element, "bound")):
        if name in data:
            if not isinstance(data[name], dict):
                raise InputError(f"{path}.{name}: must be an object")
            for k, v in data[name].items():
                if k not in keys:
                    raise InputError(f"{path}.{name}.{k}: unknown {what} key")
                getattr(inst, name)[k] = decode(spec, v, f"{path}.{name}.{k}")
    if "perturbation" in data:
        pert = data["perturbation"]
        if not isinstance(pert, dict) or not set(pert) <= {"alpha", "beta", "gamma"}:
            raise InputError(
                f"{path}.perturbation: object with keys alpha, beta, gamma"
            )
        inst.perturbation = {
            k: decode_number(v, f"{path}.perturbation.{k}") for k, v in pert.items()
        }
    if "tolerances" in data:
        tols = data["tolerances"]
        if not isinstance(tols, dict):
            raise InputError(f"{path}.tolerances: must be an object")
        for k, v in tols.items():
            if k != "tol":
                raise InputError(f"{path}.tolerances.{k}: unknown tolerance key")
            inst.tol = decode_tolerance(v, f"{path}.tolerances.{k}")
    if "seed" in data:
        inst.seed = _integer(data["seed"], f"{path}.seed", 0, "must be a nonnegative integer")
    if "right" in data:
        inst.right = parse_instance(data["right"], f"{path}.right")
    return inst


def load_instance(path: str | Path) -> Instance:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read instance file {p}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{p}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # an integer token past Python's digit limit, or nesting past the
        # parser's recursion limit
        raise InputError(f"{p}: unreadable JSON: {exc}") from exc
    return parse_instance(data, path=str(p))


def save_instance(inst: Instance, path: str | Path) -> None:
    Path(path).write_text(dumps_stable(instance_to_dict(inst)), encoding="utf-8")


def instance_digest(inst: Instance) -> str:
    """SHA-256 of the decoded instance: per level (the instance, then its
    `right`), a compact sorted-JSON header of its scalars, of whether a
    `right` follows and of every array's name and block shapes, then the
    arrays' '<c16' block bytes in name order."""
    h = hashlib.sha256()
    level = inst
    while level is not None:
        arrays = {k: getattr(level, k) for k in ("members", "h_members", "g_members")}
        arrays = {k: f.synthesis_op.block_matrices() for k, f in arrays.items() if f is not None}
        arrays.update((f"operators.{k}", v.block_matrices()) for k, v in level.operators.items())
        arrays.update((f"bounds.{k}", v.blocks) for k, v in level.bounds.items())
        names = sorted(arrays)
        pert = level.perturbation
        header = {
            "algebra": list(level.spec.block_dims),
            "rank": int(level.rank),
            "seed": None if level.seed is None else int(level.seed),
            "tol": None if level.tol is None else float(level.tol),
            "perturbation": None if pert is None else {k: float(v) for k, v in pert.items()},
            "right": level.right is not None,
            "arrays": {k: [m.shape for m in arrays[k]] for k in names},
        }
        h.update(json.dumps(header, sort_keys=True, separators=(",", ":")).encode())
        for k in names:
            for m in arrays[k]:
                h.update(np.ascontiguousarray(m, dtype="<c16"))
        level = level.right
    return h.hexdigest()


# -- reports --------------------------------------------------------------------


def sanitize(obj):
    """Replace non-finite floats by strings so output is strict JSON; any
    other type raises TypeError, as its repr may hold a memory address."""
    return _sanitize(obj)


def _sanitize(obj):
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    raise TypeError(f"cannot encode {type(obj).__name__} in a report")


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "claim": cert.claim,
        "status": cert.status,
        "witness": sanitize(cert.witness),
        "tolerances": {"tol": sanitize(cert.tol)},
        "witness_vector": (
            encode_vector(cert.witness_vector) if cert.witness_vector is not None else None
        ),
    }


class _Unusual(Exception):
    """A value `_encode` leaves to the reference encoder: a dict key that
    is not a string, or a type that `sanitize` rejects."""


def _encode(x, pad: str) -> str:
    """x as `json.dumps(sanitize(x), indent=2, allow_nan=False)` writes it
    inside a container whose closing bracket follows pad (a newline and
    that container's indent)."""
    if isinstance(x, float):
        if math.isfinite(x):
            return float.__repr__(x)
        return '"nan"' if x != x else ('"inf"' if x > 0 else '"-inf"')
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = pad + "  "
        items = []
        for k, v in x.items():
            if not isinstance(k, str):
                raise _Unusual
            items.append(f"{encode_basestring_ascii(k)}: {_encode(v, inner)}")
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([_encode(v, inner) for v in x]) + pad + "]"
    if x is None:
        return "null"
    if x is True or x is False:
        return "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    raise _Unusual


def dumps_stable(obj) -> str:
    """Deterministic JSON text: fixed insertion order, sanitized floats.
    The text is exactly `json.dumps(sanitize(obj), indent=2,
    allow_nan=False) + "\n"`; a non-string key or a type `sanitize`
    rejects goes to that reference, which writes the key or raises."""
    try:
        return _encode(obj, "\n") + "\n"
    except _Unusual:
        return json.dumps(sanitize(obj), indent=2, allow_nan=False) + "\n"


def report_payload_bytes(report: dict) -> bytes:
    """Serialized report with the wall-clock field removed; two runs with
    identical config and seed produce identical payload bytes."""
    payload = {k: v for k, v in report.items() if k != "wall_clock_s"}
    return dumps_stable(payload).encode("utf-8")


def write_report(report: dict, path: str | Path) -> None:
    """Write `dumps_stable(report)` to path, rewriting an existing file in
    place: the text goes over the old bytes, then the file is cut to its
    new length.  Symlinks are followed, hard links see the new bytes and
    the file keeps its mode, as with a plain rewrite.

    Opening without O_TRUNC spares the writeback that ext4 (auto_da_alloc)
    forces at close when a non-empty file is truncated to zero and
    rewritten.  Reports are never fsynced, so they are not durable either
    way; a power loss during a rewrite can leave old and new bytes mixed,
    where truncating first could leave an empty file."""
    text = dumps_stable(report)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.truncate()
