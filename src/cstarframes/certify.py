"""Certificates for operator inequalities and theorem audits.

A certificate records the outcome of one claim check: certified,
falsified (with an explicit witness vector when the claim is an
inequality), or inconclusive for near-boundary cases.

Every operator inequality of the library ends in `psd_certificate`,
the one rule that decides positivity for a verdict.  It takes per block
of the gap one values-only eigensolve, and eigenvectors (one block's)
only when it falsifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .hilbmod import ModuleOperator, ModuleVector

CERTIFIED = "certified"
FALSIFIED = "falsified"
INCONCLUSIVE = "inconclusive"

# Margin separating a clear violation from roundoff at the boundary.
BOUNDARY_FACTOR = 10.0


@dataclass
class Certificate:
    status: str
    claim: str
    witness: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    witness_vector: Optional[ModuleVector] = None

    @property
    def ok(self) -> bool:
        return self.status == CERTIFIED

    def require(self, context: str = "") -> "Certificate":
        from .errors import PreconditionError

        if not self.ok:
            raise PreconditionError(
                f"{context or self.claim}: expected certified, got {self.status}"
            )
        return self


def psd_certificate(
    gap: ModuleOperator,
    tol: float,
    claim: str,
    scale: Optional[float] = None,
) -> Certificate:
    """Certify that a Hermitian gap operator is positive semidefinite.

    certified:    min eigenvalue >= -tol * scale
    falsified:    min eigenvalue < -BOUNDARY_FACTOR * tol * scale, with an
                  eigenvector witness mapped back to a module vector
    inconclusive: in between (near-boundary exemption)

    The gap is Hermitian by construction, so its anti-Hermitian part is
    rounding only and is not measured: `frames` forms U U* - T T* and
    M_B M_B* - U U*, for local atoms compressed by a checked projection P,
    and at a rank-one witness the algebra-valued gap on A^1; `douglas`
    forms S S* - mu T T*; `perturb` sum_i c_i^2 M_i M_i* / w_i - D D*.
    One values-only `eigvalsh` per block of the Hermitian part
    (`herm_block_eigs`) gives the eigenvalues.  scale defaults to
    max(1, max |eigenvalue|) = max(1, ||gap||); a caller whose gap is a
    difference of larger terms passes their size, since rounding follows
    them.  Only a falsified certificate takes eigenvectors: one `eigh` of
    the block attaining the minimum, through `negative_witness`.
    """
    eigs = gap.herm_block_eigs()
    min_eig = min(float(w[0]) for w in eigs)
    if scale is None:
        scale = max(1.0, *(max(-float(w[0]), float(w[-1])) for w in eigs))
    witness = {"min_eig": min_eig, "scale": scale}
    tolerances = {"tol": tol}
    if min_eig < -BOUNDARY_FACTOR * tol * scale:
        _, witness_vec = gap.negative_witness(eigs)
        return Certificate(
            FALSIFIED, claim, witness, tolerances, witness_vector=witness_vec
        )
    if min_eig >= -tol * scale:
        return Certificate(CERTIFIED, claim, witness, tolerances)
    return Certificate(INCONCLUSIVE, claim, witness, tolerances)


def combine(claim: str, parts: list[Certificate], extra: Optional[dict] = None) -> Certificate:
    """All-of combination: falsified dominates, then inconclusive.  The
    witness holds `extra`, the status of part i under `part{i}:{claim}`,
    and the witness of every part, in order, under `parts`."""
    status = CERTIFIED
    witness = dict(extra or {})
    tolerances: dict = {}
    witness_vector = None
    for i, c in enumerate(parts):
        witness[f"part{i}:{c.claim}"] = c.status
        tolerances.update(c.tolerances)
        if c.status == FALSIFIED and status != FALSIFIED:
            status = FALSIFIED
            witness_vector = c.witness_vector
        elif c.status == INCONCLUSIVE and status == CERTIFIED:
            status = INCONCLUSIVE
    witness["parts"] = [c.witness for c in parts]
    return Certificate(status, claim, witness, tolerances, witness_vector=witness_vector)
