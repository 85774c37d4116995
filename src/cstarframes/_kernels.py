"""Every LAPACK call of the library, one function per kernel, called
through this module (`_kernels.eigvalsh(h)`) and reading
`np.linalg.<routine>` when it runs, so a wrapper on either sees it.
`sigma_max`, numpy's matrix 2-norm bit for bit without its axis
bookkeeping and the one spectral norm of the library, calls LAPACK only
through `singular_values`."""

from __future__ import annotations

import numpy as np


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


def cholesky(h):
    """The lower Cholesky factor R of a Hermitian h (R R^H = h, read off
    h's lower triangle), or None where the factorization meets a pivot
    that is not positive (or is NaN).

    Where it completes, R R^H = h + E with |E| <= g |R| |R|^H, g =
    gamma_{n+1} for real and at most gamma_{4(n+1)} for complex h of order
    n (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3
    and sec. 3.6), so ||E|| <= g tr(R R^H) <= g / (1 - g) tr(h), and the
    least eigenvalue of h is at least -g / (1 - g) tr(h) (Rump,
    "Verification of positive definiteness", BIT 46, 2006); entries that
    underflow add an absolute error of a few n^2 times the least
    subnormal."""
    try:
        return np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return None


def sigma_max(m):
    return singular_values(m)[..., 0]


def hermitian_part(m):
    return 0.5 * (m + m.conj().T)
