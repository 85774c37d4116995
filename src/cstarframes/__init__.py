"""Frames, K-frames and atomic systems on finite-dimensional Hilbert
C*-modules, with exact-at-tolerance certification of the governing
operator inequalities."""

from ._version import __version__
from .algebra import DEFAULT_TOL, AlgebraSpec, AlgElement
from .certify import CERTIFIED, Certificate, FALSIFIED, INCONCLUSIVE
from .douglas import equivalence_audit, pencil_lower_bound, pseudo_inverse
from .errors import AtomicSystemError, InputError, PreconditionError
from .frames import (
    FrameSeq,
    atomic_coefficients,
    certify_kframe,
    certify_star_bessel,
    coisometry_invariance_audit,
    conjugation_audit,
    coordinate_frame,
    dual_atoms,
    dual_atoms_audit,
    local_atoms_check,
    optimal_scalar_bounds,
    transform_frame,
)
from .harness import PROFILES, SUITES, random_instance, run_suite
from .hilbmod import (
    ModuleOperator,
    ModuleVector,
    central_mult,
    identity_operator,
)
from .perturb import exact_branch_M, pertur1_audit, pertur2_audit
from .serialize import (
    Instance,
    instance_digest,
    load_instance,
    parse_instance,
    report_payload_bytes,
    save_instance,
    write_report,
)
from .tensor import (
    TensorWitness,
    tensor_frame,
    tensor_frame_audit,
    tensor_witness,
)

__all__ = [
    "__version__",
    "DEFAULT_TOL",
    "AlgebraSpec",
    "AlgElement",
    "CERTIFIED",
    "FALSIFIED",
    "INCONCLUSIVE",
    "Certificate",
    "FrameSeq",
    "ModuleOperator",
    "ModuleVector",
    "TensorWitness",
    "Instance",
    "AtomicSystemError",
    "InputError",
    "PreconditionError",
    "atomic_coefficients",
    "central_mult",
    "certify_kframe",
    "certify_star_bessel",
    "coisometry_invariance_audit",
    "conjugation_audit",
    "coordinate_frame",
    "dual_atoms",
    "dual_atoms_audit",
    "equivalence_audit",
    "exact_branch_M",
    "identity_operator",
    "instance_digest",
    "load_instance",
    "local_atoms_check",
    "optimal_scalar_bounds",
    "parse_instance",
    "pencil_lower_bound",
    "pertur1_audit",
    "pertur2_audit",
    "pseudo_inverse",
    "random_instance",
    "report_payload_bytes",
    "run_suite",
    "save_instance",
    "tensor_frame",
    "tensor_frame_audit",
    "tensor_witness",
    "transform_frame",
    "write_report",
    "PROFILES",
    "SUITES",
]
