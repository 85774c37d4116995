"""Seedable random generators for algebra elements, vectors and operators.

All randomness flows through Philox counter-based generators keyed by a
seed and a spawn path, so any (seed, path) pair names one reproducible
stream.  Suites use stream(seed, trial_index) per trial; nested draws
split further by appending path components.

Module vectors and operators have one draw path, `random_operator`: one
`standard_normal` call reshaped straight into the reduced matrices, each
grid entry a complex Gaussian element (per block a real then an imaginary
d x d draw, over sqrt 2); `random_vector` is its one column.

Verdicts draw nothing: every check is decided exactly, so these
generators only build instances.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraSpec, AlgElement
from .errors import InputError
from .hilbmod import ModuleOperator, ModuleVector, _operator, _vector


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the given seed and spawn path."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))


def _gauss_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return (re + 1j * im) / np.sqrt(2.0)


def random_central(spec: AlgebraSpec, rng: np.random.Generator) -> AlgElement:
    """Central element with per-block scalars of modulus in [0.5, 2)."""
    mags = rng.uniform(0.5, 2.0, size=spec.n_blocks)
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=spec.n_blocks))
    return spec.central(list(mags * phases))


def random_operator(
    spec: AlgebraSpec, in_rank: int, out_rank: int, rng: np.random.Generator
) -> ModuleOperator:
    """One `standard_normal` call, per input j, output slot i and block b a
    d_b x d_b real then imaginary part, over sqrt 2; input j is the j-th
    `random_vector` draw."""
    if in_rank < 1 or out_rank < 1:
        raise InputError("rank-0 modules are rejected")
    z = rng.standard_normal((in_rank, out_rank, 2 * spec.total_dim))
    mats, start = [], 0
    for d in spec.block_dims:
        re_im = z[:, :, start : start + 2 * d * d].reshape(in_rank, out_rank, 2, d, d)
        start += 2 * d * d
        e = (re_im[:, :, 0] + 1j * re_im[:, :, 1]) / np.sqrt(2.0)
        # t[j][i] block b is the (i, j) d x d block of the reduced matrix, transposed
        mats.append(e.transpose(1, 3, 0, 2).reshape(out_rank * d, in_rank * d))
    return _operator(spec, in_rank, out_rank, mats)


def random_vector(spec: AlgebraSpec, rank: int, rng: np.random.Generator) -> ModuleVector:
    """The one column of `random_operator(spec, 1, rank, rng)`: entries
    drawn in order."""
    return _vector(spec, random_operator(spec, 1, rank, rng).block_matrices())


def random_unitary(spec: AlgebraSpec, rank: int, rng: np.random.Generator) -> ModuleOperator:
    """Haar-style unitary module operator built per reduced block matrix."""
    mats = []
    for d in spec.block_dims:
        g = _gauss_matrix(rng, rank * d, rank * d)
        # generation, not a decision: the one LAPACK call outside `_kernels`
        q, r = np.linalg.qr(g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        mats.append(q)
    return _operator(spec, rank, rank, mats)
