import collections
import enum
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cstarframes import (
    AlgebraSpec, FrameSeq, InputError, Instance, certify_star_bessel, coordinate_frame,
    identity_operator, transform_frame,
)
from cstarframes import cli, serialize
from cstarframes.frames import _family
from cstarframes.serialize import (
    certificate_to_dict,
    decode_element,
    decode_operator,
    dumps_stable,
    encode_element,
    encode_operator,
    encode_vector,
    instance_digest,
    instance_to_dict,
    load_instance,
    parse_instance,
    sanitize,
    save_instance,
    write_report,
)
from cstarframes.harness import random_instance, tensor_pair_instance
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


# -- malformed grids: the walker writes every diagnostic ---------------------------------


def _malformed_base() -> dict:
    data = instance_to_dict(random_instance(4, "generic"))
    data["h_members"] = data["members"]
    data["right"] = instance_to_dict(random_instance(5, "generic"))
    return json.loads(json.dumps(data))


# field -> (the field path of its first element, that element)
MALFORMED_FIELDS = {
    "members": ("members[0][0]", lambda d: d["members"][0][0]),
    "h_members": ("h_members[0][0]", lambda d: d["h_members"][0][0]),
    "operators.K": ("operators.K[0][0]", lambda d: d["operators"]["K"][0][0]),
    "bounds.A": ("bounds.A", lambda d: d["bounds"]["A"]),
    "right.members": ("right.members[0][0]", lambda d: d["right"]["members"][0][0]),
}


def _set_first_scalar(value):
    def edit(element):
        element[0][0][0][0] = value
    return edit


# defect -> (edit of the first element, the walker's diagnostic after its
# field path), recorded before grids were read in bulk
MALFORMED_DEFECTS = {
    "bool": (_set_first_scalar(True), "[0][0][0]: expected a number, got True"),
    "string": (_set_first_scalar("1.5"), "[0][0][0]: expected a number, got '1.5'"),
    "null": (_set_first_scalar(None), "[0][0][0]: expected a number, got None"),
    "nan": (_set_first_scalar(math.nan), "[0][0][0]: non-finite number, got nan"),
    "infinity": (_set_first_scalar(math.inf), "[0][0][0]: non-finite number, got inf"),
    "int-overflow": (_set_first_scalar(10**400),
                     "[0][0][0]: non-finite number, got 10000000000000000000"),
    "ragged-row": (lambda e: e[0][0].pop(), "[0][0]: block must be a 2x2 array"),
    "block-count": (lambda e: e.pop(), ": expected 2 blocks, got 1"),
    "three-element-pair": (lambda e: e[0][0][0].append(0.0),
                           "[0][0][0]: complex scalars are two-element arrays [re, im]"),
}


def _load_error(tmp_path, monkeypatch, data) -> str:
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(InputError) as exc:
        load_instance("bad.json")
    return str(exc.value)


@pytest.mark.parametrize("defect", sorted(MALFORMED_DEFECTS))
@pytest.mark.parametrize("where", sorted(MALFORMED_FIELDS))
def test_malformed_grid_keeps_its_diagnostic(tmp_path, monkeypatch, where, defect):
    data = _malformed_base()
    path, element = MALFORMED_FIELDS[where]
    edit, message = MALFORMED_DEFECTS[defect]
    edit(element(data))
    assert _load_error(tmp_path, monkeypatch, data) == f"bad.json.{path}{message}"


@pytest.mark.parametrize(
    ("where", "message"),
    [("members", "members[1]: expected 3 entries"),
     ("h_members", "h_members[1]: expected 3 entries"),
     ("operators.K", "operators.K[1]: ragged operator rows"),
     ("right.members", "right.members[1]: expected 3 entries")],
)
def test_ragged_grid_row_keeps_its_diagnostic(tmp_path, monkeypatch, where, message):
    data = _malformed_base()
    grid = data
    for key in where.split("."):
        grid = grid[key]
    grid[1].append(grid[1][0])
    assert _load_error(tmp_path, monkeypatch, data) == f"bad.json.{message}"


# -- the report encoder against json's own indenting encoder -----------------------------


def _reference_dump(x) -> str:
    return json.dumps(sanitize(x), indent=2, allow_nan=False) + "\n"


class _Level(enum.IntEnum):
    LOW = 1


encodable_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([2**64, -(2**200), _Level.LOW]),
    st.floats(), st.sampled_from([-0.0, math.inf, -math.inf, math.nan, np.float64(2.5)]),
    st.text(), st.sampled_from(["é ü", "☃", "\U0001f600", 'q"\\\n\t']),
)
unsupported_leaves = st.sampled_from([object(), 1 + 2j, np.int64(3), {1, 2}, b"x"])
dict_keys = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())


def json_trees(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.lists(kids, max_size=4),
            st.lists(kids, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=3), kids, max_size=4),
            st.dictionaries(dict_keys, kids, max_size=3),
        ),
        max_leaves=25,
    )


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(json_trees(encodable_leaves),
                   json_trees(st.one_of(encodable_leaves, unsupported_leaves))))
def test_dumps_stable_matches_the_json_reference(x):
    # nan, inf, -0.0, big ints, non-ASCII text, empty containers, tuples
    # and non-string keys: the same text, or the same exception type
    try:
        want = _reference_dump(x)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)):
            dumps_stable(x)
        return
    assert dumps_stable(x) == want


def test_dumps_stable_never_enters_the_python_encoder(monkeypatch):
    # json falls back to its pure-Python encoder for indent=2; the report
    # encoder writes the same text without it
    def refuse(*args, **kwargs):
        raise AssertionError("pure-Python json encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError, match="pure-Python"):
        json.dumps([1.0], indent=2)
    cert = certify_star_bessel(
        transform_frame(coordinate_frame(SPEC, 2), identity_operator(SPEC, 2).scalar_mul(2.0)),
        SPEC.unit(), 1e-9)
    report = {"values": {"x": math.inf, "y": [math.nan, -0.0, 10**30], "z": ()},
              "certificates": [certificate_to_dict(cert)], "ok": True, "none": None}
    assert json.loads(dumps_stable(report))["values"]["x"] == "inf"
    dumps_stable(instance_to_dict(random_instance(4, "generic")))


# -- the digest of the decoded instance ------------------------------------------------


def _write_text(path, data, replace=()):
    text = json.dumps(data, indent=2)
    for old, new in replace:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    path.write_text(text, encoding="utf-8")
    return path


def _scalar(d, value):
    d["members"][0][0][0][0][0][0] = value


def _right_scalar(d, value):
    d["right"]["members"][0][0][0][0][0][0] = value


def _reverse_keys(d):
    for level in (d, d["bounds"], d["right"]):
        for k in reversed(list(level)):
            level[k] = level.pop(k)


def _respell_floats(d):
    _scalar(d, 1234.5)
    _right_scalar(d, 4321.0)


def _drop_seeds(d):
    del d["seed"], d["right"]["seed"]


def _unchanged(d):
    pass


# name -> (in-place edit of the instance data, token replacements in its
# text, in-place edit that gives the same instance spelled canonically)
DIGEST_VARIANTS = {
    "canonical": (_unchanged, (), _unchanged),
    "shuffled-keys": (_reverse_keys, (), _unchanged),
    "float-spelling": (
        _respell_floats, (("1234.5", "1234.50"), ("4321.0", "4.321e3"), ("2.5e-09", "25e-10")),
        _respell_floats),
    "int-scalar": (lambda d: _scalar(d, 3), (), lambda d: _scalar(d, 3.0)),
    "int-scalar-in-right": (lambda d: _right_scalar(d, -2), (), lambda d: _right_scalar(d, -2.0)),
    "int-tol": (lambda d: d.update(tolerances={"tol": 0}), (),
                lambda d: d.update(tolerances={"tol": 0.0})),
    "int-perturbation": (lambda d: d.update(perturbation={"alpha": 1}), (),
                         lambda d: d.update(perturbation={"alpha": 1.0})),
    "float-perturbation": (lambda d: d.update(perturbation={"alpha": 0.5}), (),
                           lambda d: d.update(perturbation={"alpha": 0.5})),
    "empty-perturbation": (lambda d: d.update(perturbation={}), (),
                           lambda d: d.update(perturbation={})),
    "empty-operators": (lambda d: d.update(operators={}), (), lambda d: d.pop("operators")),
    "empty-bounds-in-right": (lambda d: d["right"].update(bounds={}), (),
                              lambda d: d["right"].pop("bounds")),
    "empty-tolerances": (lambda d: d.update(tolerances={}), (), lambda d: d.pop("tolerances")),
    "no-seed": (_drop_seeds, (), _drop_seeds),
}


def _digest_data() -> dict:
    data = instance_to_dict(random_instance(4, "generic"))
    data["right"] = instance_to_dict(random_instance(5, "generic"))
    data["tolerances"] = {"tol": 2.5e-9}
    return data


def _cli_digest(path, tmp_path, monkeypatch) -> str:
    # the report's digest, taken with the encoders refused: the CLI hashes
    # the decoded arrays and writes no instance back out to do it
    def refuse(*args):
        raise AssertionError("an --input file is re-encoded")

    report = tmp_path / "digest-report.json"
    with monkeypatch.context() as m:
        m.setattr(serialize, "instance_to_dict", refuse)
        m.setattr(serialize, "encode_operator", refuse)
        assert cli.main(["bounds", "--input", str(path), "--report", str(report)]) == 0
    return json.loads(report.read_text(encoding="utf-8"))["instance_digest"]


@pytest.mark.parametrize("name", list(DIGEST_VARIANTS))
def test_cli_digest_equals_the_instance_digest(tmp_path, monkeypatch, capsys, name):
    # a file and its canonically spelled twin parse to one instance and
    # share its digest
    edit, replace, twin = DIGEST_VARIANTS[name]
    data, same = _digest_data(), _digest_data()
    edit(data)
    twin(same)
    path = _write_text(tmp_path / f"{name}.json", data, replace)
    want = instance_digest(parse_instance(same))
    assert _cli_digest(path, tmp_path, monkeypatch) == want
    assert instance_digest(load_instance(path)) == want
    capsys.readouterr()


def test_equal_instances_in_other_spellings_share_a_digest(tmp_path, monkeypatch, capsys):
    # an int scalar, an empty operators object and shuffled keys leave the
    # instance, and so its digest, unchanged
    data = instance_to_dict(random_instance(4, "generic"))
    data["members"][0][0][0][0][0][0] = 3.0
    del data["operators"]
    want = _cli_digest(_write_text(tmp_path / "a.json", data), tmp_path, monkeypatch)
    data["members"][0][0][0][0][0][0] = 3
    data["operators"] = {}
    data = {k: data[k] for k in reversed(list(data))}
    assert _cli_digest(_write_text(tmp_path / "b.json", data), tmp_path, monkeypatch) == want
    capsys.readouterr()


def _last_bit(inst):
    # the real part of one scalar of the members moved by one ulp
    mats = [m.copy() for m in inst.members.synthesis_op.block_matrices()]
    mats[0][0, 0] = np.nextafter(mats[0][0, 0].real, np.inf) + 1j * mats[0][0, 0].imag
    u = ModuleOperator(inst.spec, inst.members.n_members, inst.rank, mats)
    return replace(inst, members=_family(u))


# name -> a change of the instance that its digest must see
DIGEST_SENSITIVITY = {
    "scalar-last-bit": _last_bit,
    "rank": lambda i: replace(i, rank=i.rank + 1),
    "seed": lambda i: replace(i, seed=i.seed + 1),
    "no-seed": lambda i: replace(i, seed=None),
    "tol": lambda i: replace(i, tol=float(np.nextafter(i.tol, 1.0))),
    "no-tol": lambda i: replace(i, tol=None),
    "bound-key": lambda i: replace(i, bounds={"B": i.bounds["A"]}),
    "operator-key": lambda i: replace(i, operators={"L": i.operators["K"]}),
    "h-members": lambda i: replace(i, h_members=i.members),
    "g-members": lambda i: replace(i, g_members=i.members),
    "perturbation": lambda i: replace(i, perturbation={"alpha": 0.5}),
    "empty-perturbation": lambda i: replace(i, perturbation={}),
    "no-right": lambda i: replace(i, right=None),
    "right-scalar-last-bit": lambda i: replace(i, right=_last_bit(i.right)),
    "right-twice": lambda i: replace(i, right=replace(i.right, right=i.right)),
}


@pytest.mark.parametrize("name", list(DIGEST_SENSITIVITY))
def test_digest_sees_every_field(name):
    inst = parse_instance(_digest_data())
    inst.bounds = {"A": inst.bounds["A"]}
    inst.operators = {"K": inst.operators["K"]}
    assert instance_digest(DIGEST_SENSITIVITY[name](inst)) != instance_digest(inst)


def test_digest_does_not_confuse_shapes_with_the_same_bytes():
    # one member of A^2 and two members of A^1 hold the same bytes; with the
    # rank field equal, only the arrays' shapes tell the instances apart
    spec = AlgebraSpec((1,))
    column = _family(ModuleOperator(spec, 1, 2, [np.array([[1.0], [2.0]], dtype=complex)]))
    row = _family(ModuleOperator(spec, 2, 1, [np.array([[1.0, 2.0]], dtype=complex)]))
    a, b = Instance(spec, 2, column), Instance(spec, 2, row)
    assert instance_digest(a) != instance_digest(b)


# -- structural guards ---------------------------------------------------------------


def test_loading_a_canonical_file_walks_no_scalar(tmp_path, monkeypatch):
    walked = []
    monkeypatch.setattr(serialize, "_check_element", lambda *args: walked.append(args[2]))
    pair = tensor_pair_instance(2)
    pair.h_members = pair.members
    for k, inst in enumerate([random_instance(4, "generic"),
                              random_instance(4, "rank-deficient-K"), pair]):
        path = tmp_path / f"{k}.json"
        save_instance(inst, path)
        load_instance(path)
    assert walked == []
    data = instance_to_dict(random_instance(4, "generic"))
    data["members"][0][0][0][0][0][0] = 3  # an int scalar is walked, and accepted
    load_instance(_write_text(tmp_path / "int.json", data))
    assert walked


def test_tracer_sees_the_public_codec_calls_only(tmp_path, capsys):
    # the benchmark's tracer wraps public names: one span per codec call,
    # none per encoded node, and the file's decode under parse_instance
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracer

    path = tmp_path / "inst.json"
    save_instance(random_instance(4, "generic"), path)
    argv = ["check-kframe", "--input", str(path), "--report", str(tmp_path / "r.json")]
    t = tracer.Tracer()
    t.install()
    try:
        assert t.timed_call(0, lambda: cli.main(argv)) == 0
    finally:
        t.uninstall()
    capsys.readouterr()
    spans = collections.Counter(
        t.names[i] for i in t.name if t.names[i].startswith("serialize."))
    assert spans == {"serialize.load_instance": 1, "serialize.parse_instance": 1,
                     "serialize.Instance.__init__": 1, "serialize.instance_digest": 1,
                     "serialize.decode_operator": 2,
                     "serialize.decode_element": 2, "serialize.certificate_to_dict": 1,
                     "serialize.sanitize": 2, "serialize.write_report": 1,
                     "serialize.dumps_stable": 1}
