"""Independent numerical oracles used by the test suite.

These deliberately take different computational routes than the library:
full flattened matrices and scipy's generalized eigensolver instead of
per-block whitened SVDs, direct summation instead of operator identities.
"""

import math

import numpy as np
import scipy.linalg

from cstarframes.sampling import random_vector, stream


def pencil_oracle(t, s, rtol=1e-10, incl_tol=1e-8):
    """sup{mu : mu T T* <= S S*} via a restricted generalized eigenproblem
    on the full flattened matrices."""
    tf = t.flatten()
    sf = s.flatten()
    a = tf @ tf.conj().T
    b = sf @ sf.conj().T
    a_norm = np.linalg.norm(a, ord=2)
    if a_norm == 0.0:
        return math.inf
    w, v = np.linalg.eigh(b)
    # rank detection on the Gram matrix: eigenvalues scale as singular
    # values squared, and roundoff leaves ~1e-16 * max relics
    keep = w > 1e-12 * max(w.max(), 0.0) if w.max() > 0 else w > 0
    if not keep.any():
        return 0.0
    basis = v[:, keep]
    proj = basis @ basis.conj().T
    if np.linalg.norm(a - proj @ a @ proj, ord=2) > incl_tol * max(1.0, a_norm):
        return 0.0
    a_r = basis.conj().T @ a @ basis
    b_r = basis.conj().T @ b @ basis
    vals = scipy.linalg.eigh(a_r, b_r, eigvals_only=True)
    lam_max = float(vals.max())
    if lam_max <= 0.0:
        return math.inf
    return 1.0 / lam_max


def branch_oracle(d_seq_op, u_op, rtol=1e-10):
    """Smallest M with D D* <= M U U*, by the same restricted eigenproblem."""
    mu = pencil_oracle(d_seq_op, u_op, rtol)
    if math.isinf(mu):
        return 0.0
    if mu == 0.0:
        return math.inf
    return 1.0 / mu


def coefficient_gram_direct(frame, f):
    """sum_j <f, f_j><f_j, f> summed term by term in the algebra."""
    acc = frame.spec.zero()
    for m in frame.members:
        c = f.inner(m)
        acc = acc + c * c.adjoint()
    return acc


def sampled_bessel_violation(frame, b, tol, samples, seed):
    """Sampled falsification of sum_j <f,f_j><f_j,f> <= B<f,f>B*, the check
    `certify_star_bessel` once ran for non-central B: the first sampled f
    whose algebra-valued gap is not positive within tol, as (index, f), or
    None."""
    rng = stream(seed, 0xBE)
    for k in range(samples):
        f = random_vector(frame.spec, frame.rank, rng)
        gap = b * f.inner(f) * b.adjoint() - frame.coefficient_gram(f)
        if not gap.is_positive(tol):
            return k, f
    return None


def sampled_kframe_violation(frame, k_op, a, b, tol, samples, seed):
    """Sampled falsification of both K-frame inequalities, the check
    `certify_kframe` once ran for non-central bounds; as above."""
    rng = stream(seed, 0x4B)
    k_adj = k_op.adjoint()
    for i in range(samples):
        f = random_vector(frame.spec, frame.rank, rng)
        mid = frame.coefficient_gram(f)
        kf = k_adj.apply(f)
        low_gap = mid - a * kf.inner(kf) * a.adjoint()
        up_gap = b * f.inner(f) * b.adjoint() - mid
        if not low_gap.is_positive(tol) or not up_gap.is_positive(tol):
            return i, f
    return None
