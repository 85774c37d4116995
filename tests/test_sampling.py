import pytest

from cstarframes import AlgebraSpec, InputError
from cstarframes.sampling import random_vector, random_vectors, stream

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
