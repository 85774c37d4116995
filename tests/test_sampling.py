import functools
import inspect
import json
import sys

import pytest

from cstarframes import (
    AlgebraSpec,
    InputError,
    atomic_coefficients,
    equivalence_audit,
    frames,
    local_atoms_check,
    pertur1_audit,
    pertur2_audit,
    run_suite,
    sampling,
    save_instance,
)
from cstarframes.cli import main
from cstarframes.harness import _perturbed_pair, random_instance
from cstarframes.serialize import certificate_to_dict
from cstarframes.sampling import random_operator, random_vector, stream

SPEC = AlgebraSpec((2, 1))

BATCH_CASES = [
    pytest.param(
        AlgebraSpec(dims), rank, count, id=f"{'+'.join(map(str, dims))}-rank{rank}-count{count}"
    )
    for dims in ((2, 1), (1,), (3, 2, 1))
    for rank in (1, 3)
    for count in (1, 7)
]


@pytest.mark.parametrize(("spec", "rank", "count"), BATCH_CASES)
def test_batch_equals_sequential_draws_bit_for_bit(spec, rank, count):
    """Column j of random_operator(spec, count, rank) is, bit for bit, the
    j-th of count sequential random_vector draws on the same stream, and
    the operator leaves the generator where those draws leave it."""
    rng = stream(46, rank, count)
    mats = random_operator(spec, count, rank, rng).block_matrices()
    seq = stream(46, rank, count)
    sequential = [random_vector(spec, rank, seq) for _ in range(count)]
    for b, (m, d) in enumerate(zip(mats, spec.block_dims)):
        assert m.shape == (rank * d, count * d)
        assert not m.flags.writeable
        for j, f in enumerate(sequential):
            col = m[:, j * d : (j + 1) * d]
            assert col.dtype == f.stacks[b].dtype
            assert col.tobytes() == f.stacks[b].tobytes()
    assert rng.standard_normal() == seq.standard_normal()


def test_rank_zero_batch_rejected():
    for in_rank, out_rank in ((0, 2), (3, 0)):
        with pytest.raises(InputError, match="rank-0"):
            random_operator(SPEC, in_rank, out_rank, stream(47, 1))
    with pytest.raises(InputError, match="rank-0"):
        random_vector(SPEC, 0, stream(47, 1))


# -- guard: exact checks draw nothing ------------------------------------------------

DRAWS = ("random_central", "random_vector", "random_operator", "random_unitary")


def forbid_draws(monkeypatch, allowed=()):
    """Make every `sampling` draw raise unless it is one of the `allowed`
    functions or is reached through one, so a check that samples fails
    loudly; every module of the library that imported a draw by name is
    patched too."""
    codes = {inspect.unwrap(f).__code__ for f in allowed}

    def guard(draw):
        @functools.wraps(draw)
        def guarded(*args, **kwargs):
            frame = sys._getframe(1)
            ok = draw.__code__ in codes
            while frame is not None and not ok:
                ok = frame.f_code in codes
                frame = frame.f_back
            if not ok:
                raise AssertionError(f"an exact check drew from sampling.{draw.__name__}")
            return draw(*args, **kwargs)

        return guarded

    for name in DRAWS:
        draw = inspect.unwrap(getattr(sampling, name))
        guarded = guard(draw)
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] == "cstarframes":
                for attr, value in list(vars(module).items()):
                    if getattr(value, "__wrapped__", value) is draw:
                        monkeypatch.setattr(module, attr, guarded)


def test_draw_guard_fires_on_a_sampling_check(monkeypatch):
    # a library module that imported the draw by name is guarded too
    monkeypatch.setattr(frames, "random_vector", random_vector, raising=False)

    def sampled_check():
        return frames.random_vector(SPEC, 2, stream(48, 0))

    forbid_draws(monkeypatch)
    with pytest.raises(AssertionError, match="random_vector"):
        sampled_check()
    rng = stream(48, 1)
    for name, args in (("random_central", (SPEC,)),
                       ("random_vector", (SPEC, 1)), ("random_operator", (SPEC, 1, 1)),
                       ("random_unitary", (SPEC, 1))):
        with pytest.raises(AssertionError, match=name):
            getattr(sampling, name)(*args, rng)
    # an instance generator may draw; a check still may not
    forbid_draws(monkeypatch, (random_instance,))
    assert random_instance(3, "generic").members.n_members >= 1
    with pytest.raises(AssertionError, match="random_vector"):
        sampled_check()


def unsampled(cert) -> bool:
    """A certificate records no sample count or seed, nor does its report."""
    keys = certificate_to_dict(cert).keys()
    return not hasattr(cert, "samples") and "samples" not in keys and "seed" not in keys


def test_exact_checks_draw_nothing(tmp_path, monkeypatch):
    generic = random_instance(3, "generic")
    rankdef = random_instance(4, "rank-deficient-K")
    frame, k, l = generic.members, generic.operators["K"], generic.operators["L"]
    a, b = generic.bounds["A"], generic.bounds["B"]
    h_seq = _perturbed_pair(frame, 5, 0.3)
    paths = {}
    for name, inst in (("generic", generic), ("rankdef", rankdef)):
        paths[name] = str(tmp_path / f"{name}.json")
        save_instance(inst, paths[name])
    forbid_draws(monkeypatch)

    cert = equivalence_audit(k, l, 1e-9)
    assert cert.status == "certified" and unsampled(cert)
    atomic_coefficients(frame, k, 1e-9)
    assert unsampled(local_atoms_check(
        rankdef.members, rankdef.operators["P"], rankdef.members, 2.0 * SPEC.unit()
    ))
    # the keyword forms the benchmark calls are accepted and ignored
    cert = equivalence_audit(k, l, 1e-9, seed=5)
    assert cert.status == "certified" and unsampled(cert)
    atomic_coefficients(frame, k, 1e-9, seed=5)
    assert unsampled(pertur1_audit(frame, h_seq, k, l, a, b))
    cert = pertur2_audit(frame, h_seq, k, l, 0.2, 0.1, 0.05, a, b)
    assert cert.witness["hypothesis"] == "falsified"
    assert unsampled(cert)

    for argv in (["douglas", "--input", paths["generic"]],
                 ["atomic-system", "--input", paths["generic"]],
                 ["local-atoms", "--input", paths["rankdef"]]):
        assert main(argv + ["--samples", "100", "--report", str(tmp_path / "r.json")]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        [cert] = report["certificates"]
        assert "samples" not in cert and "seed" not in cert

    assert run_suite("paper-example", seed=1)["summary"]["overall"] == "certified"
    # these suites build their instances by sampling; their checks may not
    forbid_draws(monkeypatch, (sampling.random_operator, random_instance))
    for suite in ("douglas-equivalence", "kframe-main", "perturb1", "perturb2"):
        assert run_suite(suite, trials=6, seed=1)["summary"]["overall"] == "certified"
