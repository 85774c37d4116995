"""Independent numerical oracles used by the test suite.

These deliberately take different computational routes than the library:
full flattened matrices and scipy's generalized eigensolver instead of
per-block whitened SVDs, direct summation instead of operator identities.
Reference copies of replaced code (the per-function Douglas
factorizations) pin the current code to what it replaced, and the
sampled checks the library once ran, one vector at a time, are the
independent route its exact decisions are tested against.  The
element-walking codec and the entrywise tensor products pin the array
codec and the per-block kron products bit for bit.
"""

import math

import numpy as np
import scipy.linalg

from cstarframes.certify import (
    BOUNDARY_FACTOR,
    CERTIFIED,
    Certificate,
    FALSIFIED,
    INCONCLUSIVE,
    psd_certificate,
)
from cstarframes.algebra import AlgElement
from cstarframes.douglas import DouglasReport
from cstarframes.hilbmod import ModuleOperator, ModuleVector, _vector, from_block_matrices
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


# -- the Douglas toolkit as it was before it shared one factorization ----------
#
# Each function below factors S on its own, as the library once did: the
# audit made 12 thin SVDs at two blocks where the shared factorization
# makes 2.  The library must return bit-identical values and certificates.
# The sampled loops draw one vector at a time; every violation they find
# must be falsified by the library's exact decisions.


def reference_pseudo_inverse(t, rtol=1e-10):
    svds = [np.linalg.svd(m, full_matrices=False) for m in t.block_matrices()]
    smax = max((s.max() if s.size else 0.0) for _, s, _ in svds)
    mats = []
    for u, s, vh in svds:
        if smax == 0.0:
            mats.append(np.zeros((vh.shape[1], u.shape[0]), dtype=complex))
            continue
        inv = np.where(s > rtol * smax, 1.0 / np.where(s > 0, s, 1.0), 0.0)
        mats.append((vh.conj().T * inv) @ u.conj().T)
    return from_block_matrices(t.spec, t.out_rank, t.in_rank, mats)


def reference_range_residual(t, s, rtol=1e-10):
    proj = s.compose(reference_pseudo_inverse(s, rtol))
    return (t - proj.compose(t)).norm()


def reference_pencil_lower_bound(t, s, rtol=1e-10, incl_tol=1e-8):
    tnorm = t.norm()
    if tnorm == 0.0:
        return math.inf
    if reference_range_residual(t, s, rtol) > incl_tol * max(1.0, tnorm):
        return 0.0
    lam_max = 0.0
    smax = max(
        (np.linalg.svd(m, compute_uv=False).max() if m.size else 0.0)
        for m in s.block_matrices()
    )
    for mt, ms in zip(t.block_matrices(), s.block_matrices()):
        u, sig, _ = np.linalg.svd(ms, full_matrices=False)
        keep = sig > rtol * smax
        if not keep.any():
            continue
        w = (u[:, keep] / sig[keep]) @ u[:, keep].conj().T
        lam = float(np.linalg.norm(w @ mt, ord=2)) ** 2
        lam_max = max(lam_max, lam)
    if lam_max == 0.0:
        return math.inf
    return 1.0 / lam_max


def reference_douglas_solve(t, s, tol, rtol=1e-10):
    q = reference_pseudo_inverse(s, rtol).compose(t)
    residual = (s.compose(q) - t).norm()
    return DouglasReport(
        inclusion_ok=residual <= tol * max(1.0, t.norm()),
        residual=residual,
        pencil_mu=reference_pencil_lower_bound(t, s, rtol),
        q=q,
        q_norm=q.norm(),
    )


def sequential_norm_violation(t_adj, s_adj, mu, tol, rng, samples):
    """First f with mu ||T* f||^2 > ||S* f||^2 + tol max(1, ||S* f||^2), as
    (index, f), or None; one vector per draw."""
    for i in range(samples):
        f = random_vector(t_adj.spec, t_adj.in_rank, rng)
        lhs = mu * t_adj.apply(f).norm() ** 2
        rhs = s_adj.apply(f).norm() ** 2
        if lhs > rhs + tol * max(1.0, rhs):
            return i, f
    return None


def sequential_cokernel_violation(t_adj, s_adj, proj, tol, rng, samples):
    """First f = g - proj g, proj = S S^+, with
    ||S* f|| <= tol < ||T* f|| / BOUNDARY_FACTOR."""
    for i in range(samples):
        g = random_vector(t_adj.spec, t_adj.in_rank, rng)
        f = g - proj.apply(g)
        if s_adj.apply(f).norm() <= tol and t_adj.apply(f).norm() > BOUNDARY_FACTOR * tol:
            return i, f
    return None


def sequential_coefficient_bound_violation(q, c, tol, rng, samples):
    """First f whose gap C<f,f>C* - <Qf,Qf> fails AlgElement.is_positive."""
    for i in range(samples):
        f = random_vector(q.spec, q.in_rank, rng)
        a_f = q.apply(f)
        gap = c * f.inner(f) * c.adjoint() - a_f.inner(a_f)
        if not gap.is_positive(tol):
            return i, f
    return None


def reference_top_left_vector(op):
    """Unit rank-one module vector from a top left singular vector of the
    block of op with the largest singular value, or None for op = 0."""
    best = None
    for b, m in enumerate(op.block_matrices()):
        u, sig, _ = np.linalg.svd(m, full_matrices=False)
        if sig[0] > 0.0 and (best is None or sig[0] > best[0]):
            best = (sig[0], b, u[:, 0])
    if best is None:
        return None
    stacks = [np.zeros((op.out_rank * d, d), dtype=complex) for d in op.spec.block_dims]
    stacks[best[1]][:, 0] = best[2]
    return _vector(op.spec, stacks)


def reference_equivalence_audit(t, s, tol=1e-9):
    """The audit written out against the per-function factorizations, with
    condition (iii) decided exactly: psd_certificate(S S* - mu T T*) at the
    pencil value, scaled by max(1, ||S||^2, mu ||T||^2), or the top left
    singular vector of (I - S S^+) T."""
    tscale = max(1.0, t.norm())
    coresidual = t - s.compose(reference_pseudo_inverse(s)).compose(t)
    residual = coresidual.norm()
    cond_i = residual <= tol * tscale
    mu = reference_pencil_lower_bound(t, s)
    near_boundary = math.isfinite(mu) and tol < mu <= BOUNDARY_FACTOR * tol
    cond_ii = mu > BOUNDARY_FACTOR * tol or math.isinf(mu)
    found, witness_vector, cond_iii = {}, None, True
    if cond_ii and math.isfinite(mu):
        gap = s.compose(s.adjoint()) - t.compose(t.adjoint()).scalar_mul(mu)
        s_max = max(np.linalg.svd(m, full_matrices=False)[1].max() for m in s.block_matrices())
        scale = max(1.0, s_max**2, mu * t.norm() ** 2)
        cert = psd_certificate(gap, tol, "douglas-norm-inequality", scale=scale)
        found = {"cond_iii_min_eig": cert.witness["min_eig"],
                 "cond_iii_scale": cert.witness["scale"]}
        near_boundary = near_boundary or cert.status == INCONCLUSIVE
        cond_iii = cert.status != FALSIFIED
        witness_vector = cert.witness_vector
    elif not cond_ii:
        f = reference_top_left_vector(coresidual)
        if f is not None:
            s_norm, t_norm = s.adjoint().apply(f).norm(), t.adjoint().apply(f).norm()
            found = {"cond_iii_s_adj_norm": s_norm, "cond_iii_t_adj_norm": t_norm}
            if s_norm <= tol and t_norm > BOUNDARY_FACTOR * tol:
                cond_iii, witness_vector = False, f
    rep = reference_douglas_solve(t, s, tol)
    cond_iv = rep.residual <= tol * tscale
    verdicts = [cond_i, cond_ii, cond_iii, cond_iv]
    witness = {
        "range_residual": residual,
        "pencil_mu": mu if math.isfinite(mu) else float("inf"),
        "factorization_residual": rep.residual,
        "q_norm": rep.q_norm,
        "cond_i": cond_i,
        "cond_ii": cond_ii,
        "cond_iii": cond_iii,
        "cond_iv": cond_iv,
        **found,
    }
    if near_boundary:
        status = INCONCLUSIVE
    elif all(verdicts) or not any(verdicts):
        status = CERTIFIED
    else:
        status = FALSIFIED
    return Certificate(
        status, "douglas-equivalence", witness, {"tol": tol},
        witness_vector=witness_vector if status == FALSIFIED else None,
    )


# -- the codec and tensor products as they were before they read the arrays ----
#
# These walk the algebra elements one scalar at a time through `entries`
# and rebuild vectors and operators from element grids, as the library
# once did.  The library's array codec must write the same JSON text and
# decode the same bits, and its per-block kron products must equal the
# entrywise ones bit for bit.


def reference_encode_element(a):
    return [[[[float(z.real), float(z.imag)] for z in row] for row in blk] for blk in a.blocks]


def reference_encode_vector(f):
    return [reference_encode_element(e) for e in f.entries]


def reference_encode_operator(t):
    return [[reference_encode_element(e) for e in row] for row in t.entries]


def reference_decode_element(spec, data):
    """Decode checked data scalar by scalar into an AlgElement."""
    return AlgElement(
        spec, [[[complex(float(re), float(im)) for re, im in row] for row in blk] for blk in data]
    )


def reference_decode_vector(spec, data):
    return ModuleVector(spec, [reference_decode_element(spec, e) for e in data])


def reference_decode_operator(spec, data):
    return ModuleOperator(spec, [[reference_decode_element(spec, e) for e in row] for row in data])


def reference_tensor_vector(w, f, h):
    """f tensor h entry by entry: slot (j, l) is w.element(f_j, h_l)."""
    return ModuleVector(w.product, [w.element(fe, he) for fe in f.entries for he in h.entries])


def reference_tensor_operator(w, k_op, l_op):
    """K tensor L entry by entry: grid entry ((j, l), (i, i')) is
    w.element(K[j][i], L[l][i'])."""
    grid = [
        [w.element(k, l) for k in k_row for l in l_row]
        for k_row in k_op.entries
        for l_row in l_op.entries
    ]
    return ModuleOperator(w.product, grid)
