import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cstarframes import (
    AlgebraSpec, FrameSeq, InputError, Instance, certify_star_bessel, coordinate_frame,
    identity_operator, transform_frame,
)
from cstarframes.frames import _family
from cstarframes.serialize import (
    certificate_to_dict,
    decode_element,
    decode_operator,
    dumps_stable,
    encode_element,
    encode_operator,
    encode_vector,
    instance_to_dict,
    parse_instance,
    sanitize,
    write_report,
)
from cstarframes.hilbmod import ModuleOperator, _vector
from cstarframes.sampling import random_operator, random_vector, stream

import oracles

SPEC = AlgebraSpec((2, 1))
CODEC_SPECS = (AlgebraSpec((2, 1)), AlgebraSpec((1,)), AlgebraSpec((3, 2, 1)))

finite_complex = st.complex_numbers(
    min_magnitude=0, max_magnitude=10, allow_nan=False, allow_infinity=False
)


@settings(max_examples=40, deadline=None)
@given(
    b0=arrays(np.complex128, (2, 2), elements=finite_complex),
    b1=arrays(np.complex128, (1, 1), elements=finite_complex),
)
def test_element_encode_decode_roundtrip(b0, b1):
    a = SPEC.element([b0, b1])
    back = decode_element(SPEC, encode_element(a), "x")
    assert (back - a).norm() == 0.0


def test_vector_and_operator_roundtrip():
    rng = stream(200, 0)
    f = random_vector(SPEC, 3, rng)
    assert (oracles.reference_decode_vector(SPEC, encode_vector(f)) - f).norm() == 0.0
    t = random_operator(SPEC, 2, 3, rng)
    back = decode_operator(SPEC, encode_operator(t), "op")
    assert (back - t).norm() == 0.0
    assert back.in_rank == 2 and back.out_rank == 3


def test_decode_diagnostics_carry_field_paths():
    pair = [0.0, 0.0]
    good_block0 = [[pair, pair], [pair, pair]]
    with pytest.raises(InputError, match=r"root\[1\]"):
        decode_element(SPEC, [good_block0, "nope"], "root")
    bad_block0 = [[[1.0], pair], [pair, pair]]  # one-element scalar
    with pytest.raises(InputError, match=r"root\[0\]\[0\]\[0\].*two-element"):
        decode_element(SPEC, [bad_block0, [[pair]]], "root")


def test_sanitize_non_finite_floats():
    obj = {"a": math.inf, "b": [-math.inf, math.nan, 1.5], "c": "x", "d": np.float64(2.0)}
    out = sanitize(obj)
    assert out == {"a": "inf", "b": ["-inf", "nan", 1.5], "c": "x", "d": 2.0}
    text = dumps_stable(obj)
    json.loads(text)  # strict JSON


@pytest.mark.parametrize("value", [object(), 1 + 2j, np.int64(3), {1, 2}])
def test_sanitize_rejects_values_it_cannot_encode(value):
    # str() of such a value is no stable encoding (a default repr holds a
    # memory address), so it raises instead of reaching a report
    with pytest.raises(TypeError, match="cannot encode"):
        sanitize({"witness": [value]})
    with pytest.raises(TypeError):
        dumps_stable({"values": value})


def test_falsified_certificate_serializes_witness_vector():
    scaled = transform_frame(coordinate_frame(SPEC, 2), identity_operator(SPEC, 2).scalar_mul(2.0))
    cert = certify_star_bessel(scaled, SPEC.unit(), 1e-9)
    assert cert.status == "falsified"
    d = certificate_to_dict(cert)
    assert d["status"] == "falsified"
    assert d["witness_vector"] is not None
    back = oracles.reference_decode_vector(SPEC, d["witness_vector"])
    assert (back - cert.witness_vector).norm() == 0.0


def test_dumps_stable_is_deterministic():
    rng = stream(201, 0)
    t = random_operator(SPEC, 2, 2, rng)
    d1 = dumps_stable({"op": encode_operator(t), "v": 1.0})
    d2 = dumps_stable({"op": encode_operator(t), "v": 1.0})
    assert d1 == d2


def test_decode_rejects_non_finite_scalars():
    pair = [0.0, 0.0]
    block0 = [[[math.inf, 0.0], pair], [pair, pair]]
    with pytest.raises(InputError, match="non-finite"):
        decode_element(SPEC, [block0, [[pair]]], "root")


# -- the array codec against the element walker ----------------------------------

signed_floats = st.one_of(
    st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def complex_arrays(draw, shape):
    z = np.empty(shape, dtype=complex)
    z.real = draw(arrays(np.float64, shape, elements=signed_floats))
    z.imag = draw(arrays(np.float64, shape, elements=signed_floats))
    return z


@st.composite
def codec_vectors(draw):
    spec = draw(st.sampled_from(CODEC_SPECS))
    n = draw(st.integers(1, 3))
    return _vector(spec, [draw(complex_arrays((n * d, d))) for d in spec.block_dims])


@st.composite
def codec_operators(draw):
    spec = draw(st.sampled_from(CODEC_SPECS))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    mats = [draw(complex_arrays((m * d, n * d))) for d in spec.block_dims]
    return ModuleOperator(spec, n, m, mats)


def same_bits(xs, ys):
    return len(xs) == len(ys) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(xs, ys)
    )


@settings(max_examples=60, deadline=None)
@given(f=codec_vectors())
def test_vector_codec_matches_element_walker(f):
    text = json.dumps(encode_vector(f))
    assert text == json.dumps(oracles.reference_encode_vector(f))
    data = json.loads(text)
    # a vector of A^n is the one-row grid of the operator A^1 -> A^n it spans
    got = decode_operator(f.spec, [data], "v")
    assert same_bits(got.block_matrices(), oracles.reference_decode_vector(f.spec, data).stacks)
    assert same_bits(got.block_matrices(), f.stacks)


@settings(max_examples=60, deadline=None)
@given(t=codec_operators())
def test_family_codec_matches_member_walker(t):
    # a family's members list is its synthesis operator's grid: member j
    # encodes as row j, and the file decodes into U's arrays unrestacked;
    # U U* of the largest draws overflows, and decoding rejects that file
    # at its members field
    with np.errstate(over="ignore", invalid="ignore"):
        family = _family(t)
        data = instance_to_dict(Instance(t.spec, t.out_rank, family))
        want = FrameSeq([oracles.reference_decode_vector(t.spec, m) for m in data["members"]])
    assert json.dumps(data["members"]) == json.dumps(
        [oracles.reference_encode_vector(m) for m in family.members])
    assert same_bits(want.synthesis_op.block_matrices(), t.block_matrices())
    if not all(np.isfinite(m).all() for m in family.frame_op.block_matrices()):
        with pytest.raises(InputError, match=r"^instance\.members: "):
            parse_instance(json.loads(json.dumps(data)))
        return
    got = parse_instance(json.loads(json.dumps(data))).members
    assert len(got) == len(want) == t.in_rank
    assert same_bits(got.synthesis_op.block_matrices(), want.synthesis_op.block_matrices())
    assert same_bits(got.synthesis_op.block_matrices(), t.block_matrices())


@settings(max_examples=60, deadline=None)
@given(t=codec_operators())
def test_operator_codec_matches_element_walker(t):
    text = json.dumps(encode_operator(t))
    assert text == json.dumps(oracles.reference_encode_operator(t))
    data = json.loads(text)
    got = decode_operator(t.spec, data, "op")
    want = oracles.reference_decode_operator(t.spec, data)
    assert (got.in_rank, got.out_rank) == (want.in_rank, want.out_rank)
    assert same_bits(got.block_matrices(), want.block_matrices())
    assert same_bits(got.block_matrices(), t.block_matrices())


@settings(max_examples=60, deadline=None)
@given(f=codec_vectors())
def test_element_codec_matches_element_walker(f):
    a = f.spec.element([s[:d].T for d, s in zip(f.spec.block_dims, f.stacks)])
    text = json.dumps(encode_element(a))
    assert text == json.dumps(oracles.reference_encode_element(a))
    data = json.loads(text)
    got = decode_element(a.spec, data, "a")
    assert same_bits(got.blocks, oracles.reference_decode_element(a.spec, data).blocks)
    assert same_bits(got.blocks, a.blocks)


def test_write_report_rewrites_in_place(tmp_path):
    target = tmp_path / "report.json"
    link = tmp_path / "link.json"
    hard = tmp_path / "hard.json"
    long, short = {"status": "certified", "pad": "x" * 500}, {"status": "falsified"}
    write_report(long, target)
    link.symlink_to(target)
    os.link(target, hard)
    write_report(short, link)  # a shorter report leaves no tail of the longer one
    assert target.read_bytes() == dumps_stable(short).encode("utf-8")
    assert link.is_symlink() and hard.read_bytes() == target.read_bytes()
    target.chmod(0o600)
    write_report(long, target)
    assert hard.read_bytes() == dumps_stable(long).encode("utf-8")
    assert target.stat().st_mode & 0o777 == 0o600
