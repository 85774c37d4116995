"""Certificates for operator inequalities and theorem audits.

A certificate records the outcome of one claim check: certified,
falsified (with an explicit witness vector when the claim is an
inequality), or inconclusive for near-boundary and sampled-only cases.
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
    samples: Optional[int] = None
    seed: Optional[int] = None
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
    gap: ModuleOperator, tol: float, claim: str, extra: Optional[dict] = None
) -> Certificate:
    """Certify that a Hermitian gap operator is positive semidefinite.

    certified:    min eigenvalue >= -tol * scale
    falsified:    min eigenvalue < -BOUNDARY_FACTOR * tol * scale, with an
                  eigenvector witness mapped back to a module vector
    inconclusive: in between (near-boundary exemption)
    """
    scale = max(1.0, gap.norm())
    herm_resid = (gap - gap.adjoint()).norm()
    min_eig, witness_vec = gap.negative_witness()
    witness = {
        "min_eig": min_eig,
        "herm_residual": herm_resid,
        "scale": scale,
    }
    if extra:
        witness.update(extra)
    tolerances = {"tol": tol}
    if herm_resid > BOUNDARY_FACTOR * tol * scale:
        return Certificate(
            FALSIFIED, claim, witness, tolerances, witness_vector=witness_vec
        )
    if min_eig >= -tol * scale:
        return Certificate(CERTIFIED, claim, witness, tolerances)
    if min_eig < -BOUNDARY_FACTOR * tol * scale:
        return Certificate(
            FALSIFIED, claim, witness, tolerances, witness_vector=witness_vec
        )
    return Certificate(INCONCLUSIVE, claim, witness, tolerances)


def combine(claim: str, parts: list[Certificate], extra: Optional[dict] = None) -> Certificate:
    """All-of combination: falsified dominates, then inconclusive."""
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
    return Certificate(status, claim, witness, tolerances, witness_vector=witness_vector)
