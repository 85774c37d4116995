"""Seedable random generators for algebra elements, vectors and operators.

All randomness flows through Philox counter-based generators keyed by a
seed and a spawn path, so any (seed, path) pair names one reproducible
stream.  Suites use stream(seed, trial_index) per trial; nested draws
split further by appending path components.

Module vectors have one draw path, `random_vectors`: a whole batch of
samples comes from a single `standard_normal` call and is cut into
per-block stacked arrays.  `Generator.standard_normal` caches no draws
between calls, so the batch is bit for bit the same as drawing its
vectors one call at a time; `random_vector` is the batch of one and
`random_operator` draws its columns as one batch.

Verdicts draw nothing: every check is decided exactly, so these
generators only build instances.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraSpec, AlgElement
from .errors import InputError
from .hilbmod import ModuleOperator, ModuleVector, _operator, _readonly, _vector


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the given seed and spawn path."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))


def _gauss_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return (re + 1j * im) / np.sqrt(2.0)


def random_element(spec: AlgebraSpec, rng: np.random.Generator, scale: float = 1.0) -> AlgElement:
    return AlgElement(spec, [scale * _gauss_matrix(rng, d, d) for d in spec.block_dims])


def random_central(spec: AlgebraSpec, rng: np.random.Generator) -> AlgElement:
    """Central element with per-block scalars of modulus in [0.5, 2)."""
    mags = rng.uniform(0.5, 2.0, size=spec.n_blocks)
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=spec.n_blocks))
    return spec.central(list(mags * phases))


def random_vectors(
    spec: AlgebraSpec, rank: int, rng: np.random.Generator, count: int, scale: float = 1.0
) -> tuple[np.ndarray, ...]:
    """`count` random rank-`rank` vectors from one `standard_normal` call,
    as one read-only (count, rank*d_b, d_b) array per block b: slice s of
    every block is the `stacks` of sample s.

    Sample s is bit for bit the s-th of `count` sequential `random_vector`
    calls on the same generator: per sample, entries in order, per entry
    blocks in order, per block a d_b x d_b real part then imaginary part,
    each as `random_element` draws it.
    """
    if rank < 1:
        raise InputError("rank-0 module vectors are rejected")
    dims = spec.block_dims
    per_entry = sum(2 * d * d for d in dims)
    z = rng.standard_normal(count * rank * per_entry).reshape(count, rank, per_entry)
    segs = np.split(z, np.cumsum([2 * d * d for d in dims])[:-1], axis=2)
    stacks = []
    for d, seg in zip(dims, segs):
        re_im = seg.reshape(count, rank, 2, d, d)
        e = scale * ((re_im[:, :, 0] + 1j * re_im[:, :, 1]) / np.sqrt(2.0))
        stacks.append(e.transpose(0, 1, 3, 2).reshape(count, rank * d, d))
    return _readonly(stacks)


def random_vector(
    spec: AlgebraSpec, rank: int, rng: np.random.Generator, scale: float = 1.0
) -> ModuleVector:
    """Entries drawn in order, each as random_element would draw it."""
    return _vector(spec, [s[0] for s in random_vectors(spec, rank, rng, 1, scale)])


def random_operator(
    spec: AlgebraSpec,
    in_rank: int,
    out_rank: int,
    rng: np.random.Generator,
    scale: float = 1.0,
) -> ModuleOperator:
    """Grid row j, the image t[j][:] of the j-th coordinate vector, is
    sample j of one random_vectors batch."""
    cols = random_vectors(spec, out_rank, rng, in_rank, scale)
    return _operator(spec, in_rank, out_rank, [np.hstack(s) for s in cols])


def random_unitary(spec: AlgebraSpec, rank: int, rng: np.random.Generator) -> ModuleOperator:
    """Haar-style unitary module operator built per reduced block matrix."""
    mats = []
    for d in spec.block_dims:
        g = _gauss_matrix(rng, rank * d, rank * d)
        q, r = np.linalg.qr(g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        mats.append(q)
    return _operator(spec, rank, rank, mats)
