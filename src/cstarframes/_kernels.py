"""Every LAPACK call of the library, one function per kernel, called
through this module (`_kernels.eigvalsh(h)`) and reading
`np.linalg.<routine>` when it runs, so a wrapper on either sees it.
`sigma_max`, numpy's matrix 2-norm bit for bit without its axis
bookkeeping, and `gram_norm` call LAPACK only through other kernels."""

from __future__ import annotations

import math

import numpy as np

_GRAM_LOW, _GRAM_HIGH = 2.0**-900, 2.0**900


def singular_values(m):
    return np.linalg.svd(m, compute_uv=False)


def douglas_svd(m):
    """U, sigma, V^H with U square: full for a tall m, else thin."""
    return np.linalg.svd(m, full_matrices=m.shape[0] > m.shape[1])


def thin_svd(m):
    return np.linalg.svd(m, full_matrices=False)


def eigvalsh(h):
    return np.linalg.eigvalsh(h)


def eigh(h):
    return np.linalg.eigh(h)


def sigma_max(m):
    return singular_values(m)[..., 0]


def hermitian_part(m):
    return 0.5 * (m + m.conj().T)


def gram_norm(x: np.ndarray) -> float:
    """||X|| = sqrt(max(lambda_top, 0)), with lambda_top the largest
    eigenvalue of the Gram on X's smaller side (X X^H or X^H X), from one
    values-only `eigvalsh`.

    With k X's larger dimension, the Gram rounds as |fl(G) - G| <=
    gamma_k |X| |X|^H, gamma_k = k u / (1 - k u) (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3), so lambda_top = ||X||^2
    moves by at most gamma_k || |X| ||^2 beyond eigvalsh's backward error
    of a few u ||X||^2; relative to ||X||^2 that is gamma_k
    (|| |X| || / ||X||)^2, which an SVD of X does not pay.  Where G's
    largest diagonal entry lies outside [2^-900, 2^900], G is formed
    again from X scaled by the exact power of two 2^-e, e the `frexp`
    exponent of max |x|, so a tiny X (a T of norm 1e-200) does not read
    as 0 nor a huge one as inf; X = 0 gives 0, and an X whose product
    overflowed (an infinite entry) gives inf, the norm rounded."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = x @ x.conj().T if x.shape[0] <= x.shape[1] else x.conj().T @ x
    if _GRAM_LOW <= np.diagonal(g).real.max() <= _GRAM_HIGH:
        return math.sqrt(max(float(eigvalsh(g)[-1]), 0.0))
    amax = max(float(np.abs(x.real).max()), float(np.abs(x.imag).max()))
    if amax == 0.0 or math.isinf(amax):
        return amax
    # the scaled X has its largest real or imaginary part in [1/2, 1), so
    # its Gram's largest diagonal entry lies in range
    e = math.frexp(amax)[1]
    with np.errstate(over="ignore"):
        return float(np.ldexp(gram_norm(np.ldexp(x.real, -e) + 1j * np.ldexp(x.imag, -e)), e))
