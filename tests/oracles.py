"""Independent numerical oracles used by the test suite.

These deliberately take different computational routes than the library:
full flattened matrices and scipy's generalized eigensolver instead of
per-block whitened SVDs, direct summation instead of operator identities.
The library builds vectors and operators only from per-block arrays; the
element-grid views here (`entries`, the grid constructors, the module
action, the tracial flattening `flat`/`flatten`, `flat_permutation` and
`spectrum`) read those arrays as algebra elements and rebuild them the
other way round, so the tests check the arrays against the definitions.
Reference copies of replaced code (the per-function Douglas
factorizations, the K-frame lower half decided by its gap alone) pin the
current code to what it replaced, and the
sampled checks the library once ran, one vector at a time, are the
independent route its exact decisions are tested against.  Witnesses
re-check through `is_positive`, the positivity rule those sampled
checks applied, on an element's blocks with numpy alone: the library
keeps no such rule of its own.  The
element-walking codec, the entrywise tensor products and the `np.kron`
ones pin the array codec and the per-block broadcast products bit for
bit, and the Bessel bounds the library records as holding by
construction are re-checked on the families themselves.  A gap decided
at the caller's scale is checked against the eigen route alone
(`eigen_psd_certificate`), the route its Cholesky proof replaces.
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
    combine,
    verdict,
)
from cstarframes.algebra import AlgElement
from cstarframes import _kernels, douglas, frames
from cstarframes.errors import InputError
from cstarframes.frames import _family, atomic_coefficients, certify_star_bessel
from cstarframes.hilbmod import ModuleOperator, ModuleVector, _operator, _vector, diagonal_operator
from cstarframes.sampling import _gauss_matrix, random_vector, stream


# -- the element-grid views of vectors and operators ---------------------------
#
# A vector is the n-tuple (f_1, ..., f_n) of algebra elements and an
# operator the n x m grid t[j][i] (input index first), read here as slices
# of the stored arrays and rebuilt from elements with `vstack` and `block`.
# The tracial flattening is assembled from the elements by `kron`,
# independently of the reduced matrices.


def entries(x):
    """The algebra elements of a vector (f_1, ..., f_n), or the grid
    t[j][i] of an operator, whose row j is the image of the j-th
    coordinate vector; sliced from the stored arrays."""
    dims = x.spec.block_dims
    if isinstance(x, ModuleVector):
        return tuple(
            AlgElement(x.spec, [s[k * d : (k + 1) * d].T for d, s in zip(dims, x.stacks)])
            for k in range(x.rank)
        )
    mats = x.block_matrices()
    return tuple(
        tuple(
            AlgElement(
                x.spec,
                [m[i * d : (i + 1) * d, j * d : (j + 1) * d].T for d, m in zip(dims, mats)],
            )
            for i in range(x.out_rank)
        )
        for j in range(x.in_rank)
    )


def grid_vector(spec, elements):
    """The vector (f_1, ..., f_n) of the given algebra elements."""
    return ModuleVector(
        spec, [np.vstack([e.blocks[b].T for e in elements]) for b in range(spec.n_blocks)]
    )


def grid_operator(spec, grid):
    """The operator with grid t[j][i], input index first."""
    n, m = len(grid), len(grid[0])
    return ModuleOperator(
        spec,
        n,
        m,
        [
            np.block([[row[i].blocks[b].T for row in grid] for i in range(m)])
            for b in range(spec.n_blocks)
        ],
    )


def zero_operator(spec, in_rank, out_rank):
    """The zero operator A^in_rank -> A^out_rank."""
    mats = [np.zeros((out_rank * d, in_rank * d), dtype=complex) for d in spec.block_dims]
    return _operator(spec, in_rank, out_rank, mats)


def coordinate_vector(spec, rank, slot):
    """Unit coordinate vector: 1_A at the given slot, zero elsewhere."""
    return grid_vector(spec, [spec.unit() if k == slot else 0 * spec.unit() for k in range(rank)])


def module_mul(f, a):
    """Left module action a.f = (a f_1, ..., a f_n), element by element."""
    return grid_vector(f.spec, [a * e for e in entries(f)])


def flat(f):
    """Coordinates of f in the tracial complex representation: per slot,
    per block, the entries of (f_k)_b row by row."""
    return np.concatenate(
        [np.concatenate([blk.ravel() for blk in e.blocks]) for e in entries(f)]
    )


def unflatten_vector(spec, rank, x):
    """Inverse of `flat`, through the algebra elements."""
    offs = np.cumsum([0] + [d * d for d in spec.block_dims])
    slots = np.asarray(x, dtype=complex).reshape(rank, spec.total_dim)
    return grid_vector(
        spec,
        [
            AlgElement(spec, [s[o : o + d * d].reshape(d, d) for d, o in zip(spec.block_dims, offs)])
            for s in slots
        ],
    )


def flatten(t):
    """Full complex matrix of f -> Tf on the tracial representation, with
    flatten(T) @ flat(f) = flat(Tf); assembled from the grid by `kron`."""
    d2 = t.spec.total_dim
    out = np.zeros((t.out_rank * d2, t.in_rank * d2), dtype=complex)
    offs = np.cumsum([0] + [d * d for d in t.spec.block_dims])
    grid = entries(t)
    for j in range(t.in_rank):
        for i in range(t.out_rank):
            for b, d in enumerate(t.spec.block_dims):
                r0 = i * d2 + offs[b]
                c0 = j * d2 + offs[b]
                out[r0 : r0 + d * d, c0 : c0 + d * d] = np.kron(np.eye(d), grid[j][i].blocks[b].T)
    return out


def flat_permutation(w, rank_left, rank_right):
    """Map product flattening coordinates to Kronecker coordinates.

    perm[x] is the index into kron(left coordinates, right coordinates)
    carrying the same entry, so flatten(K tensor L)[x, y] equals
    kron(flatten K, flatten L)[perm[x], perm[y]].
    """
    dl, dr = w.left.total_dim, w.right.total_dim
    offs_l = np.cumsum([0] + [d * d for d in w.left.block_dims])
    offs_r = np.cumsum([0] + [d * d for d in w.right.block_dims])
    perm = []
    for j in range(rank_left):
        for l in range(rank_right):
            for i, k in w.block_pairs:
                di, ek = w.left.block_dims[i], w.right.block_dims[k]
                # product coordinates of the block run in (p1, p2, q1, q2) order
                p1, p2, q1, q2 = np.indices((di, ek, di, ek)).reshape(4, -1)
                cl = j * dl + offs_l[i] + p1 * di + q1
                cr = l * dr + offs_r[k] + p2 * ek + q2
                perm.append(cl * (rank_right * dr) + cr)
    return np.concatenate(perm).astype(np.int64)


def spectrum(a):
    """Union of the eigenvalue multisets of all blocks of an element."""
    return np.concatenate([np.linalg.eigvals(b) for b in a.blocks])


def random_element(spec, rng, scale=1.0):
    """An element with independent complex Gaussian entries, per block a
    d x d real then imaginary draw, as `sampling.random_operator` draws
    each grid entry."""
    return AlgElement(spec, [scale * _gauss_matrix(rng, d, d) for d in spec.block_dims])


def random_hermitian(spec, rng):
    a = random_element(spec, rng)
    return 0.5 * (a + a.adjoint())


def random_positive(spec, rng):
    a = random_element(spec, rng)
    return a * a.adjoint()


def is_positive(a, tol):
    """Whether an algebra element is positive within tol: Hermitian within
    tol s and every block eigenvalue >= -tol s, s = max(1, ||a||).  The
    rule the library's sampled checks applied to each drawn gap, read
    from the stored blocks with numpy alone, so witnesses re-check
    independently of the library's decisions."""
    if tol < 0:
        raise InputError("tolerance must be nonnegative")
    s = max(1.0, max(np.linalg.norm(b, 2) for b in a.blocks))
    if max(np.linalg.norm(b - b.conj().T, 2) for b in a.blocks) > tol * s:
        return False
    return all(np.linalg.eigvalsh(0.5 * (b + b.conj().T)).min() >= -tol * s for b in a.blocks)


def pencil_oracle(t, s, rtol=1e-10, incl_tol=1e-8):
    """sup{mu : mu T T* <= S S*} via a restricted generalized eigenproblem
    on the full flattened matrices."""
    tf = flatten(t)
    sf = flatten(s)
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
    acc = 0 * frame.spec.unit()
    for m in frame.members:
        c = f.inner(m)
        acc = acc + c * c.adjoint()
    return acc


def abg_grid_margin(d_op, terms, steps=40):
    """Least lambda_min(P(w) - D D*) / max(1, ||P(w) - D D*||) over the
    interior points w = (i, j, k) / steps of the weight simplex, where
    P(w) = sum_i c_i^2 M_i M_i* / w_i for the terms (c_i, M_i): the
    three-constant hypothesis holds iff P(w) >= D D* on the whole simplex.
    Formed from each operator's per-block matrices with numpy alone."""
    dd = [m @ m.conj().T for m in d_op.block_matrices()]
    grams = [[c * c * (m @ m.conj().T) for m in op.block_matrices()] for c, op in terms]
    worst = math.inf
    for i in range(1, steps):
        for j in range(1, steps - i):
            w = np.array([i, j, steps - i - j]) / steps
            for b, x in enumerate(dd):
                eigs = np.linalg.eigvalsh(sum(g[b] / wk for g, wk in zip(grams, w)) - x)
                worst = min(worst, eigs[0] / max(1.0, np.abs(eigs).max()))
    return worst


def sampled_bessel_violation(frame, b, tol, samples, seed):
    """Sampled falsification of sum_j <f,f_j><f_j,f> <= B<f,f>B*, the check
    `certify_star_bessel` once ran for non-central B: the first sampled f
    whose algebra-valued gap is not positive within tol, as (index, f), or
    None."""
    rng = stream(seed, 0xBE)
    for k in range(samples):
        f = random_vector(frame.spec, frame.rank, rng)
        gap = b * f.inner(f) * b.adjoint() - frame.coefficient_gram(f)
        if not is_positive(gap, tol):
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
        if not is_positive(low_gap, tol) or not is_positive(up_gap, tol):
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
    return ModuleOperator(t.spec, t.out_rank, t.in_rank, mats)


def reference_residual_verdict(blocks, tol, scale):
    """The residual rule written out: the largest blockwise Frobenius
    norm, as an exactly rounded sum of the entries' squared moduli, decides
    where it is <= tol * scale and is then the value; elsewhere the
    largest `np.linalg.norm(m, 2)` decides and is the value.  An operator
    scale stands for max(1, its norm)."""
    if isinstance(scale, ModuleOperator):
        scale = max(1.0, scale.norm())
    frob = max((math.sqrt(math.fsum(abs(z) ** 2 for z in np.ravel(m))) for m in blocks),
               default=0.0)
    if frob <= tol * scale:
        return CERTIFIED, frob
    norm = max((float(np.linalg.norm(m, 2)) for m in blocks), default=0.0)
    if norm <= tol * scale:
        return CERTIFIED, norm
    return (FALSIFIED if norm > BOUNDARY_FACTOR * tol * scale else INCONCLUSIVE), norm


def reference_range_residual(t, s, rtol=1e-10):
    proj = s.compose(reference_pseudo_inverse(s, rtol))
    return (t - proj.compose(t)).norm()


def reference_pencil_lower_bound(t, s, rtol=1e-10, tol=1e-9):
    tnorm = t.norm()
    if tnorm == 0.0:
        return math.inf
    if reference_range_residual(t, s, rtol) > tol * max(1.0, tnorm):
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
        # ||W T|| for W = U_k diag(1 / sigma_k) U_k^H is ||diag(1 / sigma_k) U_k^H T||,
        # U_k an isometry: one product fewer to round than forming W
        lam = float(np.linalg.norm((u[:, keep].conj().T @ mt) / sig[keep, None], ord=2)) ** 2
        lam_max = max(lam_max, lam)
    if lam_max == 0.0:
        return math.inf
    return 1.0 / lam_max


def reference_douglas_solve(t, s, tol, rtol=1e-10):
    """Q = S^+ T, with the residual rule's status and value for S Q - T."""
    q = reference_pseudo_inverse(s, rtol).compose(t)
    return (q, *reference_residual_verdict((s.compose(q) - t).block_matrices(), tol, t))


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
    """First f whose gap C<f,f>C* - <Qf,Qf> fails `is_positive`."""
    for i in range(samples):
        f = random_vector(q.spec, q.in_rank, rng)
        a_f = q.apply(f)
        gap = c * f.inner(f) * c.adjoint() - a_f.inner(a_f)
        if not is_positive(gap, tol):
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


def eigen_psd_certificate(gap, tol, claim, scale):
    """`psd_certificate` of a gap at the caller's scale by the eigen route
    alone, with no Cholesky proof tried: one `eigvalsh` per block of the
    Hermitian part, `verdict` on the least eigenvalue, and one `eigh` for
    a falsified witness."""
    eigs = [np.linalg.eigvalsh(0.5 * (m + m.conj().T)) for m in gap.block_matrices()]
    min_eig = min(float(w[0]) for w in eigs)
    status = verdict(-min_eig, tol, scale)
    witness = gap.negative_witness(eigs)[1] if status == FALSIFIED else None
    return Certificate(status, claim, {"min_eig": min_eig, "scale": scale}, tol,
                       witness_vector=witness)


def rump_allowance(h):
    """Rump's rounding allowance c = 8 (n + 2) (eps tr|h| + n eta) for a
    Hermitian h of order n, eta the least subnormal: a float Cholesky of
    h + c 1 that completes proves lambda_min(h) >= -2 c."""
    n = h.shape[0]
    trace = float(np.abs(np.diagonal(h).real).sum())
    return 8.0 * (n + 2) * (np.finfo(float).eps * trace + n * np.nextafter(0.0, 1.0))


def reference_equivalence_audit(t, s, tol=1e-9):
    """The audit written out against the per-function factorizations, with
    condition (iii) decided by the eigen route: `eigen_psd_certificate` of
    S S* - mu T T* at the pencil value, scaled by max(1, ||S||^2), or the
    top left singular vector of (I - S S^+) T."""
    tscale = max(1.0, t.norm())
    coresidual = t - s.compose(reference_pseudo_inverse(s)).compose(t)
    status_i, residual = reference_residual_verdict(coresidual.block_matrices(), tol, t)
    cond_i = status_i == CERTIFIED
    mu = reference_pencil_lower_bound(t, s, tol=tol)
    near_boundary = math.isfinite(mu) and 0.0 < mu <= BOUNDARY_FACTOR * tol
    cond_ii = mu > BOUNDARY_FACTOR * tol or math.isinf(mu)
    found, witness_vector, cond_iii = {}, None, True
    s_max = max(np.linalg.svd(m, full_matrices=False)[1].max() for m in s.block_matrices())
    if cond_ii and math.isfinite(mu):
        gap = s.compose(s.adjoint()) - t.compose(t.adjoint()).scalar_mul(mu)
        scale = max(1.0, s_max**2)
        cert = eigen_psd_certificate(gap, tol, "douglas-norm-inequality", scale)
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
            # the cokernel direction fails (iii) where its T* norm, the
            # range residual up to rounding, fails (i)
            if s_norm <= tol * max(1.0, s_max) and t_norm > tol * tscale:
                cond_iii, witness_vector = False, f
    q, status_iv, fact_residual = reference_douglas_solve(t, s, tol)
    cond_iv = status_iv == CERTIFIED
    verdicts = [cond_i, cond_ii, cond_iii, cond_iv]
    witness = {
        "range_residual": residual,
        "pencil_mu": mu if math.isfinite(mu) else float("inf"),
        "factorization_residual": fact_residual,
        "q_norm": q.norm(),
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
        # conditions that disagree falsify the claim only with a witness vector
        status = FALSIFIED if witness_vector is not None else INCONCLUSIVE
    return Certificate(
        status, "douglas-equivalence", witness, tol,
        witness_vector=witness_vector if status == FALSIFIED else None,
    )


# -- the codec and tensor products as they were before they read the arrays ----
#
# These walk the algebra elements one scalar at a time through `entries`
# and rebuild vectors and operators from element grids, as the library
# once did.  The library's array codec must write the same JSON text and
# decode the same bits, and its per-block tensor products must equal the
# entrywise ones, and the `np.kron` ones it once formed, bit for bit.


def reference_encode_element(a):
    return [[[[float(z.real), float(z.imag)] for z in row] for row in blk] for blk in a.blocks]


def reference_encode_vector(f):
    return [reference_encode_element(e) for e in entries(f)]


def reference_encode_operator(t):
    return [[reference_encode_element(e) for e in row] for row in entries(t)]


def reference_decode_element(spec, data):
    """Decode checked data scalar by scalar into an AlgElement."""
    return AlgElement(
        spec, [[[complex(float(re), float(im)) for re, im in row] for row in blk] for blk in data]
    )


def reference_decode_vector(spec, data):
    return grid_vector(spec, [reference_decode_element(spec, e) for e in data])


def reference_decode_operator(spec, data):
    return grid_operator(spec, [[reference_decode_element(spec, e) for e in row] for row in data])


def kron_tensor_element(w, a, b):
    """a tensor b as the library once formed it: one `np.kron` per block
    pair."""
    return AlgElement(w.product, [np.kron(a.blocks[i], b.blocks[k]) for i, k in w.block_pairs])


def kron_tensor_operator(w, k_op, l_op):
    """K tensor L as the library once formed it: per block pair (i, k),
    kron(K_i, L_k) with rows (s, p, s', p') reordered to (s, s', p, p')
    by a reshape and a transpose, and columns likewise."""
    n, n_out, m, m_out = k_op.in_rank, k_op.out_rank, l_op.in_rank, l_op.out_rank
    mats = []
    for i, k in w.block_pairs:
        d, e = w.left.block_dims[i], w.right.block_dims[k]
        z = np.kron(k_op.block_matrices()[i], l_op.block_matrices()[k])
        z = z.reshape(n_out, d, m_out, e, n, d, m, e).transpose(0, 2, 1, 3, 4, 6, 5, 7)
        mats.append(z.reshape(n_out * m_out * d * e, n * m * d * e))
    return _operator(w.product, n * m, n_out * m_out, mats)


def reference_tensor_vector(w, f, h):
    """f tensor h entry by entry: slot (j, l) is w.element(f_j, h_l)."""
    return grid_vector(w.product, [w.element(fe, he) for fe in entries(f) for he in entries(h)])


def reference_tensor_operator(w, k_op, l_op):
    """K tensor L entry by entry: grid entry ((j, l), (i, i')) is
    w.element(K[j][i], L[l][i'])."""
    grid = [
        [w.element(k, l) for k in k_row for l in l_row]
        for k_row in entries(k_op)
        for l_row in entries(l_op)
    ]
    return grid_operator(w.product, grid)


# -- frame-inequality gaps from diagonal-operator products ---------------------


def _mixed_gap(bound, central_gap, other_gap, tol):
    """Block b of central_gap where the bound is scalar within tol, of
    other_gap elsewhere."""
    mats = [
        c if s else o
        for s, c, o in zip(
            bound.scalar_blocks(tol), central_gap.block_matrices(), other_gap.block_matrices()
        )
    ]
    return _operator(bound.spec, central_gap.in_rank, central_gap.out_rank, mats)


def reference_gap(bound, s_op, tol, k_op=None):
    """The gap operator of the upper frame inequality with bound B (k_op
    None), M_B M_B* - S, or of the lower one with bound A and K,
    S - T T* with T = K M_{A*}; -S or -K K* on the blocks where the bound
    is not scalar.  M_X is the `diagonal_operator` of X."""
    n = s_op.in_rank
    if k_op is None:
        mb = diagonal_operator(bound, n)
        return _mixed_gap(bound, mb.compose(mb.adjoint()) - s_op, s_op.scalar_mul(-1.0), tol)
    t = k_op.compose(diagonal_operator(bound.adjoint(), n))
    return _mixed_gap(
        bound, s_op - t.compose(t.adjoint()), k_op.compose(k_op.adjoint()).scalar_mul(-1.0), tol
    )


def gap_route_kframe(frame, k_op, a, b, tol):
    """`certify_kframe` as it decided before its lower half read the
    pencil: every block of the lower gap S - T T* eigensolved, a violation
    witnessed as before, and the upper half as `certify_kframe` takes it."""
    lower = frames._decide(frame, a, k_op, frames._gap(a, frame.frame_op, tol, k_op), tol,
                           "star-kframe-lower")
    return combine("star-kframe",
                   [lower, frames._certify_upper(frame, b, tol, "star-kframe-upper")])


def reference_local_atoms_gap(p_op, s_g, c, tol):
    """The coefficient-bound gap of local atoms: P(M_C M_C* - S_g)P where C
    is scalar, -P S_g P elsewhere."""
    mc = diagonal_operator(c, p_op.in_rank)
    return _mixed_gap(
        c, p_op.compose(mc.compose(mc.adjoint()) - s_g).compose(p_op),
        p_op.compose(s_g).compose(p_op).scalar_mul(-1.0), tol,
    )


# -- Bessel bounds that hold by construction ------------------------------------
#
# `dual_atoms_audit` records its family's Bessel bound as certified
# without a check; these re-check the bound on the family itself, through
# its own factorization, and count the factorizations a call builds.


def counted_factorizations(monkeypatch):
    """The list that receives the operator of every Douglas factorization
    built from now on (until monkeypatch undoes the patch)."""
    built, init = [], douglas._Factorization.__init__
    monkeypatch.setattr(douglas._Factorization, "__init__",
                        lambda self, s: built.append(s) or init(self, s))
    return built


def dual_atoms_bessel(frame, k_op, tol):
    """`certify_star_bessel` of the dual atoms, the family with synthesis
    Q*, at the bound ||Q|| 1 of `atomic_coefficients`."""
    q, c, _ = atomic_coefficients(frame, k_op, tol)
    return certify_star_bessel(_family(q.adjoint()), c, tol)


# -- kernel calls -------------------------------------------------------------

SVDS = ("singular_values", "douglas_svd", "thin_svd")
# `sigma_max` is recorded as the kernel it calls, `singular_values`
KERNELS = (*SVDS, "eigvalsh", "eigh", "cholesky")


class KernelCalls(list):
    """(kernel, argument) of each kernel call, in order, the argument itself."""

    def of(self, *kernels):
        return [a for k, a in self if k in kernels]


def record_kernels(monkeypatch):
    """The KernelCalls that receives every kernel call until monkeypatch undoes it."""
    calls = KernelCalls()
    for name in KERNELS:
        real = getattr(_kernels, name)
        monkeypatch.setattr(_kernels, name,
                            lambda a, _real=real, _name=name: calls.append((_name, a)) or _real(a))
    return calls
