"""The characterization ladder: the routes that decide whether {f_j} is a
*-K-frame must not contradict each other.

In finite dimension a lower frame bound exists iff R(K) lies inside R(U)
iff K = U Q iff {f_j} is an atomic system for K (Douglas; Gavruta,
"Frames for operators").  So on one instance `bounds`, `check-kframe`
with and without stored bounds, `atomic-system` and `dual-atoms` answer
one question.  The ladder runs them through the claim table on families
whose rank the Douglas cut decides at every tol:

- spec (1,), U = c diag(1, sigma) (members c e_1 and c sigma e_2),
  K = I with stored A = c sigma / 2, or K = diag(1, 0) with A = c / 2;
- spec (2,1), a random 3-member family of A^2 with its last coordinate
  direction scaled by sigma, U' = D_sigma U, with K = I and
  A = sigma s_min(U) / 2, or the planted K = U' Q0 with A = 1 / (2 ||Q0||);

each with B = 1.1 ||U||, over sigma = 1 ... 1e-16, tol in {0, 1e-12,
1e-9, 1e-6} and overall size c in {2^-20, 1, 2^20}.  Every stored bound
is valid, so a `falsified` verdict states that the routes' shared rank
decision dropped sigma.

The contract: no route is `certified` while another is `falsified`, no
report certifies while it prints lambda* = 0, and no `falsified` result
comes without a witness vector.  `douglas` (T = K, S a copy of U) is
held to the witness rule only.  A bound the input check rejects as not
strictly nonzero at tol is an input error, neither verdict.
"""

import numpy as np
import pytest

from cstarframes import AlgebraSpec, InputError
from cstarframes.frames import _family
from cstarframes.harness import CLAIMS
from cstarframes.hilbmod import ModuleOperator
from cstarframes.sampling import random_operator, stream
from cstarframes.serialize import Instance

RUNS = {c.command: c.run for c in CLAIMS if c.command}
# (command, whether the instance stores A and B)
ROUTES = (("bounds", True), ("check-kframe", True), ("check-kframe", False),
          ("atomic-system", True), ("dual-atoms", True))
SIGMAS = [10.0**-e for e in range(17)]
TOLS = (0.0, 1e-12, 1e-9, 1e-6)
SIZES = (2.0**-20, 1.0, 2.0**20)


def _operator(spec, in_rank, out_rank, mats):
    return ModuleOperator(spec, in_rank, out_rank, [np.asarray(m, dtype=complex) for m in mats])


def _diagonal_rungs():
    """(label, U blocks, K blocks, a) of the spec (1,) family at size 1."""
    for sigma in SIGMAS:
        u = [np.diag([1.0, sigma])]
        yield f"diag sigma={sigma:g} K=I", u, [np.eye(2)], sigma / 2
        yield f"diag sigma={sigma:g} K=P", u, [np.diag([1.0, 0.0])], 0.5


def _generic_rungs():
    """(label, U blocks, K blocks, a) of the spec (2,1) family at size 1."""
    spec = AlgebraSpec((2, 1))
    rng = stream(37, 18)
    u = random_operator(spec, 3, 2, rng).block_matrices()
    q0 = random_operator(spec, 2, 3, rng).block_matrices()
    s_min = min(np.linalg.svd(m, compute_uv=False).min() for m in u)
    q_norm = max(np.linalg.norm(m, 2) for m in q0)
    for sigma in SIGMAS:
        scaled = [np.diag([1.0] * (len(m) - 1) + [sigma]) @ m for m in u]
        yield (f"generic sigma={sigma:g} K=I", scaled, [np.eye(len(m)) for m in u],
               sigma * s_min / 2)
        yield (f"generic sigma={sigma:g} K=UQ", scaled, [m @ q for m, q in zip(scaled, q0)],
               1 / (2 * q_norm))


FAMILIES = {"diagonal": (AlgebraSpec((1,)), _diagonal_rungs),
            "generic": (AlgebraSpec((2, 1)), _generic_rungs)}


def _instance(spec, u, k, c, a, stored):
    """The rung at overall size c: members c U, K, L a copy of c U, and
    bounds c a, 1.1 ||c U|| where stored."""
    rank = len(u[0]) // spec.block_dims[0]
    members = len(u[0][0]) // spec.block_dims[0]
    cu = [c * m for m in u]
    bounds = {}
    if stored:
        b = 1.1 * c * max(np.linalg.norm(m, 2) for m in u)
        bounds = {"A": spec.central([c * a] * spec.n_blocks),
                  "B": spec.central([b] * spec.n_blocks)}
    return Instance(spec=spec, rank=rank, members=_family(_operator(spec, members, rank, cu)),
                    operators={"K": _operator(spec, rank, rank, k),
                               "L": _operator(spec, members, rank, cu)},
                    bounds=bounds)


def _outcome(command, inst, tol):
    """(status, lambda* where the values hold it, whether a witness vector is attached)."""
    try:
        status, values, certs = RUNS[command](inst, tol, 0, None)
    except InputError:
        return "error", None, False
    return status, values.get("lambda_star"), any(c.witness_vector is not None for c in certs)


def _breaks(results):
    """The contract clauses that one rung's results break."""
    statuses = {status for (command, _), (status, _, _) in results.items() if command != "douglas"}
    found = ["certified beside falsified"] if {"certified", "falsified"} <= statuses else []
    for (command, stored), (status, lam, has_witness) in results.items():
        route = command if stored else f"{command} (derived bounds)"
        if status == "certified" and lam == 0.0:
            found.append(f"{route} certifies at lambda*=0")
        if status == "falsified" and not has_witness:
            found.append(f"{route} falsified without a witness")
    return found


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("family", FAMILIES)
def test_equivalent_characterizations_never_contradict(family, tol):
    spec, rungs = FAMILIES[family]
    broken, decided = [], set()
    for label, u, k, a in rungs():
        for c in SIZES:
            results = {(command, stored): _outcome(command, _instance(spec, u, k, c, a, stored),
                                                   tol)
                       for command, stored in (*ROUTES, ("douglas", True))}
            decided.update(status for status, _, _ in results.values())
            broken += [f"{label} c={c:g}: {clause}" for clause in _breaks(results)]
    assert not broken, broken
    # the ladder reaches both verdicts, so the contract is not vacuous
    assert {"certified", "falsified"} <= decided
