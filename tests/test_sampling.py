import json
import sys

import pytest

from cstarframes import (
    AlgebraSpec,
    InputError,
    atomic_coefficients,
    equivalence_audit,
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
from cstarframes.sampling import random_vector, random_vectors, stream

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
    batch = random_vectors(spec, rank, stream(46, rank, count), count, scale=0.5)
    rng = stream(46, rank, count)
    sequential = [random_vector(spec, rank, rng, scale=0.5) for _ in range(count)]
    assert len(batch) == spec.n_blocks
    for b, d in enumerate(spec.block_dims):
        assert batch[b].shape == (count, rank * d, d)
        assert not batch[b].flags.writeable
        for s, f in enumerate(sequential):
            assert batch[b][s].dtype == f.stacks[b].dtype
            assert batch[b][s].tobytes() == f.stacks[b].tobytes()
    # the batch leaves the generator where the sequential draws leave it
    assert random_vectors(spec, rank, stream(46, rank, count), count + 1, scale=0.5)[0][
        count
    ].tobytes() == random_vector(spec, rank, rng, scale=0.5).stacks[0].tobytes()


def test_empty_batch_has_per_block_shapes():
    spec = AlgebraSpec((3, 2, 1))
    batch = random_vectors(spec, 2, stream(47, 0), 0)
    assert [s.shape for s in batch] == [(0, 2 * d, d) for d in spec.block_dims]


def test_rank_zero_batch_rejected():
    with pytest.raises(InputError):
        random_vectors(AlgebraSpec((2, 1)), 0, stream(47, 1), 3)


# -- guard: exact checks draw nothing ------------------------------------------------


def forbid_draws(monkeypatch, generators=()):
    """Make `random_vectors` raise unless it is reached through one of the
    instance generators, so a check that samples fails loudly; every
    module of the library that imported it by name is patched too."""
    codes = {g.__code__ for g in generators}

    def guarded(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in codes:
                return random_vectors(*args, **kwargs)
            frame = frame.f_back
        raise AssertionError("an exact check drew random vectors")

    guarded.replaces_random_vectors = True
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cstarframes":
            for attr, value in list(vars(module).items()):
                if value is random_vectors or hasattr(value, "replaces_random_vectors"):
                    monkeypatch.setattr(module, attr, guarded)


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
    assert unsampled(pertur1_audit(frame, h_seq, k, l, a, b).conclusion)
    rep = pertur2_audit(frame, h_seq, k, l, 0.2, 0.1, 0.05, a, b)
    assert rep.constants_used["hypothesis"] == "falsified"
    assert unsampled(rep.conclusion)

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
