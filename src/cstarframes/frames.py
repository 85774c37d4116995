"""Frame sequences on A^n: Bessel and K-frame certification, atomic
systems, dual atoms, local atoms, and frame transforms.

A frame sequence {f_j} has synthesis U: A^J -> A^n sending coefficients
{g_j} to sum g_j f_j, analysis U* f = {<f, f_j>}, and frame operator
S = U U*.  The two-sided frame inequality with central bounds A, B,

    A <K*f, K*f> A*  <=  sum_j <f, f_j><f_j, f>  <=  B <f, f> B*,

is equivalent to a pair of operator inequalities in the adjointable
algebra (conjugating multiplications are adjointable exactly for central
bounds), so it is certified by eigenvalue checks on the flattening.
Non-central bounds only admit sampled falsification here.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .algebra import DEFAULT_TOL, AlgElement
from .certify import (
    BOUNDARY_FACTOR,
    CERTIFIED,
    Certificate,
    FALSIFIED,
    INCONCLUSIVE,
    combine,
    psd_certificate,
)
from .douglas import DouglasReport, douglas_solve, pencil_lower_bound
from .errors import AtomicSystemError, InputError, PreconditionError
from .hilbmod import (
    ModuleOperator,
    ModuleVector,
    central_mult,
    coordinate_vector,
    from_block_matrices,
    identity_operator,
)
from .sampling import random_vector, stream


class FrameSeq:
    """Finite sequence of module vectors with eagerly cached synthesis,
    analysis and frame operators."""

    __slots__ = ("spec", "rank", "members", "synthesis_op", "analysis_op", "frame_op")

    def __init__(self, members: Sequence[ModuleVector]):
        if not members:
            raise InputError("a frame sequence needs at least one member")
        spec = members[0].spec
        rank = members[0].rank
        for m in members:
            if m.spec != spec or m.rank != rank:
                raise InputError("all frame members must share spec and rank")
        self.spec = spec
        self.rank = rank
        self.members = tuple(members)
        per_block = zip(*(m.stacks for m in self.members))
        self.synthesis_op = from_block_matrices(
            spec, len(members), rank, [np.hstack(s) for s in per_block]
        )
        self.analysis_op = self.synthesis_op.adjoint()
        self.frame_op = self.synthesis_op.compose(self.analysis_op)
        scale = max(1.0, self.frame_op.norm())
        if self.frame_op.min_herm_eig() < -1e-8 * scale:
            raise InputError("frame operator failed its positivity guard")

    @property
    def n_members(self) -> int:
        return len(self.members)

    def analysis(self, f: ModuleVector) -> ModuleVector:
        """Coefficient vector {<f, f_j>} in A^J."""
        return self.analysis_op.apply(f)

    def synthesis(self, coeffs) -> ModuleVector:
        """sum_j g_j f_j for coefficients in A^J."""
        if isinstance(coeffs, ModuleVector):
            g = coeffs
        else:
            g = ModuleVector(self.spec, list(coeffs))
        return self.synthesis_op.apply(g)

    def coefficient_gram(self, f: ModuleVector) -> AlgElement:
        """sum_j <f, f_j><f_j, f>, the A-valued middle of the frame inequality."""
        c = self.analysis(f)
        return c.inner(c)

    def __repr__(self) -> str:
        return (
            f"FrameSeq(J={self.n_members}, rank={self.rank}, "
            f"spec={self.spec.block_dims})"
        )


def coordinate_frame(spec, rank: int) -> FrameSeq:
    """The standard coordinate frame of A^n (J = n, S = identity)."""
    return FrameSeq([coordinate_vector(spec, rank, j) for j in range(rank)])


def _require_strictly_nonzero(x: AlgElement, name: str, tol: float) -> None:
    if not x.is_strictly_nonzero(tol):
        raise InputError(f"bound {name} must be strictly nonzero")


def certify_star_bessel(
    frame: FrameSeq,
    b: AlgElement,
    tol: float = DEFAULT_TOL,
    samples: int = 1000,
    seed: int = 0,
) -> Certificate:
    """Certify the upper frame inequality sum <f,f_j><f_j,f> <= B<f,f>B*.

    Central B: decided as positivity of M_B M_{B*} - U U* on the
    flattening.  Non-central B: sampled falsification only; a clean pass
    is inconclusive because no finite certificate is available.
    """
    _require_strictly_nonzero(b, "B", tol)
    n = frame.rank
    s_op = frame.frame_op
    if b.is_central(tol):
        mb = central_mult(b, n, tol)
        gap = mb.compose(mb.adjoint()) - s_op
        return psd_certificate(gap, tol, "star-bessel")
    rng = stream(seed, 0xBE)
    for k in range(samples):
        f = random_vector(frame.spec, n, rng)
        gap_elem = b * f.inner(f) * b.adjoint() - frame.coefficient_gram(f)
        if not gap_elem.is_positive(tol):
            return Certificate(
                FALSIFIED,
                "star-bessel",
                {"violating_sample": k, "gap_min_spec": float(
                    np.real(gap_elem.spectrum()).min()
                )},
                {"tol": tol},
                samples,
                seed,
                witness_vector=f,
            )
    return Certificate(
        INCONCLUSIVE,
        "star-bessel",
        {"note": "non-central bound, sampled check only"},
        {"tol": tol},
        samples,
        seed,
    )


def certify_kframe(
    frame: FrameSeq,
    k_op: ModuleOperator,
    a: AlgElement,
    b: AlgElement,
    tol: float = DEFAULT_TOL,
    samples: int = 1000,
    seed: int = 0,
) -> Certificate:
    """Certify the two-sided K-frame inequality with bounds A, B.

    Central bounds give a full certificate: the lower inequality is
    positivity of U U* - T T* with T = K M_{A*}, the upper as in the
    Bessel check.  If either bound is non-central the check degrades to
    sampled falsification.
    """
    _require_strictly_nonzero(a, "A", tol)
    _require_strictly_nonzero(b, "B", tol)
    n = frame.rank
    if k_op.spec != frame.spec or k_op.in_rank != n or k_op.out_rank != n:
        raise InputError("K must be a square operator on the frame's module")
    s_op = frame.frame_op
    if a.is_central(tol) and b.is_central(tol):
        t = k_op.compose(central_mult(a.adjoint(), n, tol))
        lower = psd_certificate(s_op - t.compose(t.adjoint()), tol, "star-kframe-lower")
        mb = central_mult(b, n, tol)
        upper = psd_certificate(mb.compose(mb.adjoint()) - s_op, tol, "star-kframe-upper")
        return combine("star-kframe", [lower, upper])
    rng = stream(seed, 0x4B)
    k_adj = k_op.adjoint()
    for i in range(samples):
        f = random_vector(frame.spec, n, rng)
        mid = frame.coefficient_gram(f)
        kf = k_adj.apply(f)
        low_gap = mid - a * kf.inner(kf) * a.adjoint()
        up_gap = b * f.inner(f) * b.adjoint() - mid
        if not low_gap.is_positive(tol) or not up_gap.is_positive(tol):
            return Certificate(
                FALSIFIED,
                "star-kframe",
                {"violating_sample": i},
                {"tol": tol},
                samples,
                seed,
                witness_vector=f,
            )
    return Certificate(
        INCONCLUSIVE,
        "star-kframe",
        {"note": "non-central bounds, sampled check only"},
        {"tol": tol},
        samples,
        seed,
    )


def optimal_scalar_bounds(
    frame: FrameSeq, k_op: Optional[ModuleOperator] = None
) -> tuple[float, float]:
    """Best scalar constants (lambda*, mu*) with
    lambda* K K* <= U U* and U U* <= mu* I.

    lambda* is the whitened-pencil extremal value restricted to the range
    of K K*; it is 0 exactly when the family is not a K-frame with any
    scalar lower bound.
    """
    if k_op is None:
        k_op = identity_operator(frame.spec, frame.rank)
    lam = pencil_lower_bound(k_op, frame.synthesis_op)
    mu = frame.frame_op.norm()
    return lam, mu


def atomic_coefficients(
    frame: FrameSeq,
    k_op: ModuleOperator,
    tol: float = DEFAULT_TOL,
    samples: int = 20,
    seed: int = 0,
) -> tuple[ModuleOperator, AlgElement, float]:
    """Coefficient operator of the atomic decomposition K f = sum a_j f_j.

    Q is the minimal-norm Douglas solution U Q = K (so a_f = Q f), and
    C = ||Q|| 1_A witnesses the coefficient bound <a_f, a_f> <= C<f,f>C*.
    Raises AtomicSystemError when R(K) is not inside R(U) within tol.
    """
    n = frame.rank
    if k_op.spec != frame.spec or k_op.in_rank != n or k_op.out_rank != n:
        raise InputError("K must be a square operator on the frame's module")
    rep: DouglasReport = douglas_solve(k_op, frame.synthesis_op, tol)
    if not rep.inclusion_ok:
        raise AtomicSystemError(
            "not an atomic system: range-inclusion residual "
            f"{rep.residual:.3e} exceeds tol {tol:g} x max(1, ||K||)"
        )
    q = rep.q
    c = rep.q_norm * frame.spec.unit()
    rng = stream(seed, 0xA7)
    for _ in range(samples):
        f = random_vector(frame.spec, n, rng)
        a_f = q.apply(f)
        gap = c * f.inner(f) * c.adjoint() - a_f.inner(a_f)
        if not gap.is_positive(tol):
            raise PreconditionError(
                "coefficient bound audit failed; flattening is inconsistent"
            )
    return q, c, rep.residual


def dual_atoms(
    frame: FrameSeq,
    k_op: ModuleOperator,
    tol: float = DEFAULT_TOL,
    samples: int = 20,
    seed: int = 0,
) -> list[ModuleVector]:
    """Bessel family {h_j} with K f = sum_j <f, h_j> f_j.

    h_j = Q*(e_j) for the atomic coefficient operator Q, using the
    self-duality of A^J: the coefficient functional f -> (Qf)_j is the
    pairing with h_j.
    """
    q, _, _ = atomic_coefficients(frame, k_op, tol, samples=0)
    q_adj = q.adjoint()
    atoms = [
        q_adj.apply(coordinate_vector(frame.spec, frame.n_members, j))
        for j in range(frame.n_members)
    ]
    rng = stream(seed, 0xDA)
    recon = frame.synthesis_op.compose(q)
    for _ in range(samples):
        f = random_vector(frame.spec, frame.rank, rng)
        resid = (k_op.apply(f) - recon.apply(f)).norm()
        if resid > tol * max(1.0, f.norm()):
            raise PreconditionError("dual-atom reconstruction audit failed")
    return atoms


def dual_atoms_audit(
    frame: FrameSeq,
    k_op: ModuleOperator,
    tol: float = DEFAULT_TOL,
    samples: int = 50,
    seed: int = 0,
) -> Certificate:
    """Certificate version of the dual-atom reconstruction and Bessel bound."""
    try:
        q, c, residual = atomic_coefficients(frame, k_op, tol, samples=0)
    except AtomicSystemError as exc:
        return Certificate(
            FALSIFIED, "dual-atoms", {"error": str(exc)}, {"tol": tol}
        )
    atoms = dual_atoms(frame, k_op, tol, samples=0)
    h_frame = FrameSeq(atoms)
    rng = stream(seed, 0xDB)
    worst = 0.0
    for _ in range(samples):
        f = random_vector(frame.spec, frame.rank, rng)
        num = (k_op.apply(f) - frame.synthesis(h_frame.analysis(f))).norm()
        worst = max(worst, num / max(1e-30, f.norm()))
    bessel = certify_star_bessel(h_frame, max(c.norm(), tol) * frame.spec.unit(), tol)
    ok = worst <= tol
    status = CERTIFIED if ok and bessel.ok else FALSIFIED
    return Certificate(
        status,
        "dual-atoms",
        {
            "max_reconstruction_residual": worst,
            "factorization_residual": residual,
            "q_norm": c.norm(),
            "bessel_status": bessel.status,
        },
        {"tol": tol},
        samples,
        seed,
    )


def local_atoms_check(
    frame: FrameSeq,
    p_op: ModuleOperator,
    atoms: Sequence[ModuleVector],
    c: AlgElement,
    tol: float = DEFAULT_TOL,
    samples: int = 200,
    seed: int = 0,
) -> Certificate:
    """Check that {f_j} with coefficient representers {g_j} forms a family
    of local atoms for the submodule range(P).

    For sampled f = P f0: (i) the coefficient bound
    sum c_j(f) c_j(f)* <= C <f,f> C* with c_j(f) = <f, g_j>, and (ii) the
    reconstruction f = sum c_j(f) f_j.  Additionally certifies that
    {P f_j} has scalar lower frame bound 1/||C|| on range(P) through the
    restricted pencil of its frame operator.
    """
    n = frame.rank
    if p_op.in_rank != n or p_op.out_rank != n or p_op.spec != frame.spec:
        raise InputError("P must be a square operator on the frame's module")
    if not p_op.is_projection(max(tol, 1e-9)):
        raise InputError("P is not a projection")
    _require_strictly_nonzero(c, "C", tol)
    if len(atoms) != frame.n_members:
        raise InputError("need one coefficient representer per frame member")
    if p_op.norm() <= tol:
        return Certificate(
            CERTIFIED,
            "local-atoms",
            {"degenerate": True, "note": "zero submodule"},
            {"tol": tol},
        )
    g_frame = FrameSeq(list(atoms))
    rng = stream(seed, 0x1A)
    worst_recon = 0.0
    worst_gap = math.inf
    for i in range(samples):
        f0 = random_vector(frame.spec, n, rng)
        f = p_op.apply(f0)
        fnorm = f.norm()
        if fnorm <= 1e-12:
            continue
        coeffs = g_frame.analysis(f)
        gap = c * f.inner(f) * c.adjoint() - coeffs.inner(coeffs)
        gap_min = float(np.real(gap.spectrum()).min())
        worst_gap = min(worst_gap, gap_min / max(1.0, fnorm**2))
        if not gap.is_positive(tol):
            return Certificate(
                FALSIFIED,
                "local-atoms",
                {"failed": "coefficient-bound", "sample": i, "gap_min_eig": gap_min},
                {"tol": tol},
                samples,
                seed,
                witness_vector=f,
            )
        recon = frame.synthesis(coeffs)
        rel = (f - recon).norm() / fnorm
        worst_recon = max(worst_recon, rel)
        if rel > tol * BOUNDARY_FACTOR:
            return Certificate(
                FALSIFIED,
                "local-atoms",
                {"failed": "reconstruction", "sample": i, "relative_residual": rel},
                {"tol": tol},
                samples,
                seed,
                witness_vector=f,
            )
    # restricted lower frame bound of {P f_j} on range(P)
    pf = transform_frame(frame, p_op)
    floor = 1.0 / (c.norm() ** 2)
    restricted_min = math.inf
    for pb, sb in zip(p_op.block_matrices(), pf.frame_op.block_matrices()):
        w, v = np.linalg.eigh(0.5 * (pb + pb.conj().T))
        keep = w > 0.5
        if not keep.any():
            continue
        basis = v[:, keep]
        rest = basis.conj().T @ (0.5 * (sb + sb.conj().T)) @ basis
        restricted_min = min(restricted_min, float(np.linalg.eigvalsh(rest).min()))
    witness = {
        "max_reconstruction_residual": worst_recon,
        "coefficient_gap_min": worst_gap if math.isfinite(worst_gap) else 0.0,
        "restricted_min_eig": restricted_min,
        "scalar_floor": floor,
    }
    scale = max(1.0, pf.frame_op.norm(), floor)
    if restricted_min >= floor - tol * scale:
        return Certificate(CERTIFIED, "local-atoms", witness, {"tol": tol}, samples, seed)
    if restricted_min < floor - BOUNDARY_FACTOR * tol * scale:
        return Certificate(FALSIFIED, "local-atoms", witness, {"tol": tol}, samples, seed)
    return Certificate(INCONCLUSIVE, "local-atoms", witness, {"tol": tol}, samples, seed)


def transform_frame(frame: FrameSeq, l_op: ModuleOperator) -> FrameSeq:
    """The image family {L f_j}."""
    if l_op.spec != frame.spec or l_op.in_rank != frame.rank:
        raise InputError("operator/frame shape mismatch")
    return FrameSeq([l_op.apply(m) for m in frame.members])


def conjugation_audit(
    frame: FrameSeq, k_op: ModuleOperator, tol: float = 1e-10
) -> Certificate:
    """Compare the directly assembled frame operator of {K f_j} against the
    two conjugation candidates K S K* and K* S K; records which matches."""
    moved = transform_frame(frame, k_op)
    s_direct = moved.frame_op
    s_op = frame.frame_op
    scale = max(1.0, s_direct.norm())
    res_ksk = (s_direct - k_op.compose(s_op).compose(k_op.adjoint())).norm() / scale
    res_adj = (s_direct - k_op.adjoint().compose(s_op).compose(k_op)).norm() / scale
    matched = "KSK*" if res_ksk <= res_adj else "K*SK"
    best = min(res_ksk, res_adj)
    status = CERTIFIED if res_ksk <= tol else (
        FALSIFIED if best > BOUNDARY_FACTOR * tol else INCONCLUSIVE
    )
    return Certificate(
        status,
        "frame-operator-conjugation",
        {"residual_KSK*": res_ksk, "residual_K*SK": res_adj, "matched": matched},
        {"tol": tol},
    )


def coisometry_invariance_audit(
    frame: FrameSeq,
    t_op: ModuleOperator,
    k_op: ModuleOperator,
    tol: float = 1e-8,
) -> Certificate:
    """For a co-isometry T commuting with K, the optimal scalar bounds of
    {T f_j} agree with those of {f_j}."""
    n = frame.rank
    ident = identity_operator(frame.spec, n)
    if (t_op.compose(t_op.adjoint()) - ident).norm() > 1e-9:
        raise PreconditionError("T is not a co-isometry")
    comm = (k_op.compose(t_op) - t_op.compose(k_op)).norm()
    if comm > 1e-9 * max(1.0, k_op.norm() * t_op.norm()):
        raise PreconditionError("K and T do not commute")
    lam0, mu0 = optimal_scalar_bounds(frame, k_op)
    lam1, mu1 = optimal_scalar_bounds(transform_frame(frame, t_op), k_op)
    dev = max(abs(lam0 - lam1) / max(1.0, abs(lam0)), abs(mu0 - mu1) / max(1.0, mu0))
    status = CERTIFIED if dev <= tol else FALSIFIED
    return Certificate(
        status,
        "coisometry-bound-invariance",
        {"lambda": lam0, "lambda_moved": lam1, "mu": mu0, "mu_moved": mu1,
         "max_relative_deviation": dev},
        {"tol": tol},
    )


def transform_kframe_audit(
    frame: FrameSeq,
    l_op: ModuleOperator,
    k_op: ModuleOperator,
    a: AlgElement,
    b: AlgElement,
    tol: float = DEFAULT_TOL,
) -> Certificate:
    """If {f_j} certifies as a K-frame with (A, B), then {L f_j} certifies
    as an LK-frame with bounds (A, ||L|| B)."""
    base = certify_kframe(frame, k_op, a, b, tol)
    base.require("base K-frame certification")
    moved = transform_frame(frame, l_op)
    lk = l_op.compose(k_op)
    scaled_b = l_op.norm() * b
    cert = certify_kframe(moved, lk, a, scaled_b, tol)
    return Certificate(
        cert.status,
        "transform-kframe",
        {"base": base.status, "transformed": cert.status, "l_norm": l_op.norm()},
        {"tol": tol},
        witness_vector=cert.witness_vector,
    )


def ks_inverse_frame(
    frame: FrameSeq,
    k_op: ModuleOperator,
    tol: float = DEFAULT_TOL,
    bessel_bound: Optional[AlgElement] = None,
    samples: int = 50,
    seed: int = 0,
) -> tuple[FrameSeq, Certificate]:
    """The family {K S^{-1} f_j} with its reconstruction and Bessel audits.

    Reconstruction: K f = sum_j <f, f_j> (K S^{-1} f_j) holds exactly, and
    the family is Bessel with bound ||S^{-1}|| ||K|| B.
    """
    s_op = frame.frame_op
    if s_op.min_herm_eig() <= tol:
        raise PreconditionError("frame operator not invertible")
    s_inv = s_op.inverse()
    mover = k_op.compose(s_inv)
    new_frame = transform_frame(frame, mover)
    rng = stream(seed, 0x55)
    worst = 0.0
    for _ in range(samples):
        f = random_vector(frame.spec, frame.rank, rng)
        recon = new_frame.synthesis(frame.analysis(f))
        worst = max(worst, (k_op.apply(f) - recon).norm() / max(1e-30, f.norm()))
    if bessel_bound is None:
        bessel_bound = (frame.synthesis_op.norm() * (1.0 + 1e-9)) * frame.spec.unit()
    scaled = (s_inv.norm() * k_op.norm()) * bessel_bound
    bessel = certify_star_bessel(new_frame, scaled, tol)
    recon_ok = worst <= 1e-10
    status = CERTIFIED if recon_ok and bessel.ok else (
        FALSIFIED if not recon_ok or bessel.status == FALSIFIED else INCONCLUSIVE
    )
    cert = Certificate(
        status,
        "ks-inverse-frame",
        {
            "max_reconstruction_residual": worst,
            "bessel_status": bessel.status,
            "s_inv_norm": s_inv.norm(),
        },
        {"tol": tol, "reconstruction_tol": 1e-10},
        samples,
        seed,
    )
    return new_frame, cert
