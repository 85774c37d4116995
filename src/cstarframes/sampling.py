"""Seedable random generators for algebra elements, vectors and operators.

All randomness flows through Philox counter-based generators keyed by a
seed and a spawn path, so any (seed, path) pair names one reproducible
stream.  Suites use stream(seed, trial_index) per trial; nested draws
split further by appending path components.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraSpec, AlgElement
from .hilbmod import ModuleOperator, ModuleVector, from_block_matrices, unflatten_vector


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


def random_hermitian(spec: AlgebraSpec, rng: np.random.Generator) -> AlgElement:
    a = random_element(spec, rng)
    return 0.5 * (a + a.adjoint())


def random_positive(spec: AlgebraSpec, rng: np.random.Generator) -> AlgElement:
    a = random_element(spec, rng)
    return a * a.adjoint()


def random_central(
    spec: AlgebraSpec,
    rng: np.random.Generator,
    strictly_nonzero: bool = True,
    low: float = 0.5,
    high: float = 2.0,
) -> AlgElement:
    """Central element with per-block scalars of modulus in [low, high)."""
    mags = rng.uniform(low, high, size=spec.n_blocks)
    if not strictly_nonzero:
        mags[rng.integers(0, spec.n_blocks)] = 0.0
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=spec.n_blocks))
    return spec.central(list(mags * phases))


def random_vector(
    spec: AlgebraSpec, rank: int, rng: np.random.Generator, scale: float = 1.0
) -> ModuleVector:
    """Entries drawn in order, each as random_element would draw it."""
    dims = spec.block_dims
    draws = [(scale * _gauss_matrix(rng, d, d)).ravel() for _ in range(rank) for d in dims]
    # rank < 1 leaves no draws; unflatten_vector rejects it
    return unflatten_vector(spec, rank, np.concatenate(draws or [np.zeros(0)]))


def random_operator(
    spec: AlgebraSpec,
    in_rank: int,
    out_rank: int,
    rng: np.random.Generator,
    scale: float = 1.0,
) -> ModuleOperator:
    """Grid row j, the image t[j][:] of the j-th coordinate vector, is one
    random_vector draw, j ascending."""
    cols = [random_vector(spec, out_rank, rng, scale).stacks for _ in range(in_rank)]
    return from_block_matrices(spec, in_rank, out_rank, [np.hstack(s) for s in zip(*cols)])


def random_unitary(spec: AlgebraSpec, rank: int, rng: np.random.Generator) -> ModuleOperator:
    """Haar-style unitary module operator built per reduced block matrix."""
    mats = []
    for d in spec.block_dims:
        g = _gauss_matrix(rng, rank * d, rank * d)
        q, r = np.linalg.qr(g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        mats.append(q)
    return from_block_matrices(spec, rank, rank, mats)
