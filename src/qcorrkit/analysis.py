"""Schmidt-spectrum analysis and structural certificates for strategies.

Four mechanisms live here:

* Schmidt decomposition of bipartite vectors (SVD of the coefficient matrix),
  with multiset utilities for tolerance-aware spectrum comparison.
* Block decomposition of a strategy whose induced correlation is a direct
  sum: recovers per-block sub-states, subspaces, and restricted strategies,
  verifying along the way that the answer-block projectors act on the state
  independently of the question asked.
* The operator relations tied to Bob's question 4 (it duplicates Alice's
  question 0, and the shifted-pair question 2 refines the same split).
* Descent chains: maximal sequences of Schmidt coefficients, each a factor
  alpha below the previous.  For the truncated ideal strategy the longest
  chain has length exactly 2m, so its unbounded growth with m is the
  finite-dimension witness at desk scale.

:func:`certify_truncation` runs all of these on a truncated pairing
strategy in one pass, and :func:`certify_strategy` those any strategy gets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import separating, strategy
from .correlation import BlockSpec, Correlation, block_structure_check, distance, restrict
from .strategy import Strategy, _frozen, induce, projected_substate

__all__ = [
    "SchmidtSpectrum",
    "SchmidtResult",
    "BlockDecomposition",
    "DescentChain",
    "Y4Report",
    "SchmidtPartition",
    "BijectionReport",
    "AnalysisError",
    "BlockDecompositionError",
    "schmidt",
    "strategy_block_decompose",
    "verify_y4_relations",
    "schmidt_partition",
    "descent_chain",
    "verify_schmidt_bijections",
    "certify_strategy",
    "certify_truncation",
    "multiset_equal",
    "multiset_subtract",
    "MULTISET_REL_TOL",
]

MULTISET_REL_TOL = 1e-8


class AnalysisError(ValueError):
    """An analysis precondition or certified identity failed."""


class BlockDecompositionError(AnalysisError):
    """The strategy does not decompose over the requested answer blocks."""


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Nonzero Schmidt coefficients in descending order.

    ``cutoff`` records the value the coefficients were cut at: singular values
    at or below it were discarded.  The stored values are strictly positive,
    sorted descending, and their squares sum to at most 1 (subnormalized
    spectra come from projected, unnormalized vectors).
    """

    coefficients: tuple[float, ...]
    cutoff: float = 0.0

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        if any(c <= 0.0 for c in coeffs):
            raise AnalysisError("Schmidt coefficients must be strictly positive")
        if any(coeffs[i] < coeffs[i + 1] for i in range(len(coeffs) - 1)):
            raise AnalysisError("Schmidt coefficients must be sorted descending")
        if sum(c * c for c in coeffs) > 1.0 + 1e-10:
            raise AnalysisError("squared Schmidt coefficients exceed unit total")
        object.__setattr__(self, "coefficients", coeffs)

    def __len__(self) -> int:
        return len(self.coefficients)

    def __iter__(self):
        return iter(self.coefficients)

    def as_list(self) -> list[float]:
        return list(self.coefficients)


@dataclass(frozen=True, eq=False)
class SchmidtResult:
    """The Schmidt spectrum of a bipartite vector."""

    spectrum: SchmidtSpectrum


def _svd_spectrum(mat: np.ndarray, cutoff: float | None = None) -> SchmidtSpectrum:
    """Singular values of ``mat`` above ``cutoff``, by default numpy ``matrix_rank``'s
    tolerance sigma_max * max(shape) * eps: what the SVD itself resolves."""
    sing = np.linalg.svd(mat, compute_uv=False)  # values only: nothing reads the vectors
    if cutoff is None:
        cutoff = float(sing.max(initial=0.0)) * max(mat.shape) * np.finfo(float).eps
    return SchmidtSpectrum(tuple(sing[sing > cutoff].tolist()), cutoff)


def _clipped(spectrum: SchmidtSpectrum, dim: int) -> str | None:
    """Why ``spectrum`` cannot stand for a truncation's D = ``dim`` coefficients, or None."""
    if len(spectrum) < dim:
        return (f"the state spectrum holds {len(spectrum)} of D = {dim} coefficients "
                f"above its cutoff {spectrum.cutoff:.3e}")
    return None


def schmidt(state: np.ndarray, dA: int, dB: int) -> SchmidtResult:
    """Schmidt decomposition of a normalized bipartite vector.

    Singular values at or below sigma_max * max(dA, dB) * eps, which the SVD
    does not resolve, are dropped; the spectrum records that cutoff.
    """
    vec = np.asarray(state).reshape(-1)
    if vec.size != dA * dB:
        raise AnalysisError(f"vector length {vec.size} != dA*dB = {dA * dB}")
    if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
        raise AnalysisError("schmidt expects a unit-norm state")
    return SchmidtResult(spectrum=_svd_spectrum(vec.reshape(dA, dB)))


def multiset_equal(
    a: Sequence[float], b: Sequence[float], rel_tol: float = MULTISET_REL_TOL
) -> bool:
    """Whether two positive multisets pair up within relative tolerance.

    Sorting both descending makes the largest-first pairing canonical.
    """
    if len(a) != len(b):
        return False
    return all(
        abs(va - vb) <= rel_tol * max(abs(va), abs(vb))
        for va, vb in zip(sorted(a, reverse=True), sorted(b, reverse=True))
    )


def multiset_subtract(
    a: Sequence[float], b: Sequence[float], rel_tol: float = MULTISET_REL_TOL
) -> list[float]:
    """Remove one matching occurrence of every element of ``b`` from ``a``."""
    remaining = sorted(a, reverse=True)
    for vb in b:
        for i, va in enumerate(remaining):
            if abs(va - vb) <= rel_tol * max(abs(va), abs(vb)):
                remaining.pop(i)
                break
        else:
            raise AnalysisError(f"element {vb!r} has no match to subtract")
    return remaining


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """Per-block data recovered from a direct-sum strategy.

    ``sub_states`` keep the full-space coordinates and their natural
    (unnormalized) scale: the squared norm of block i is its weight.
    ``restricted`` holds the strategies on the block subspaces (None for
    weight-zero blocks).  ``residuals`` collects the worst deviation seen in
    each verified identity.
    """

    weights: tuple[float, ...]
    sub_states: tuple[np.ndarray, ...]
    alice_bases: tuple[np.ndarray, ...]
    bob_bases: tuple[np.ndarray, ...]
    restricted: tuple[Strategy | None, ...]
    blocks: tuple[Correlation | None, ...]
    residuals: dict[str, float]

    def as_dict(self) -> dict:
        return {
            "weights": list(self.weights),
            "block_dims": [
                [int(ba.shape[1]), int(bb.shape[1])]
                for ba, bb in zip(self.alice_bases, self.bob_bases)
            ],
            "residuals": dict(self.residuals),
        }


def strategy_block_decompose(
    s: Strategy,
    alice_partition: Sequence[Sequence[int]],
    bob_partition: Sequence[Sequence[int]],
    tol: float = 1e-9,
) -> BlockDecomposition:
    """Decompose a strategy along answer blocks of its induced correlation.

    Requires the induced correlation to pass :func:`block_structure_check`
    for the same partitions.  For each block the summed answer projector must
    act on the state identically for every question on either side; that
    common image is the block sub-state, its squared norm the block weight.
    The block subspaces are spanned by the eigenvectors of the reduced
    densities that ``eigh`` resolves; restricted measurement elements must
    stay projections and the normalized restricted strategy must induce the
    block's sub-correlation.
    """
    spec = BlockSpec(tuple(tuple(c) for c in alice_partition), tuple(tuple(c) for c in bob_partition))
    return _decompose(s, induce(s), spec, tol)


def _decompose(s: Strategy, p: Correlation, spec: BlockSpec, tol: float) -> BlockDecomposition:
    """:func:`strategy_block_decompose` of the valid ``s``, given the correlation ``p`` it induces."""
    chk = block_structure_check(p, spec, tol)
    if not chk.ok:
        raise BlockDecompositionError(
            f"induced correlation is not a direct sum: {chk.failure.detail}"
        )
    assert chk.weights is not None and chk.blocks is not None

    num_blocks = spec.num_blocks
    residuals = {
        "question_independence": 0.0,
        "side_agreement": 0.0,
        "weight_consistency": 0.0,
        "substate_orthogonality": 0.0,
        "restricted_idempotence": 0.0,
        "subspace_leakage": 0.0,
        "induced_block_mismatch": 0.0,
    }

    sub_states: list[np.ndarray] = []
    for i in range(num_blocks):
        a_vecs = [projected_substate(s, "A", x, spec.alice_partition[i]) for x in range(s.m)]
        b_vecs = [projected_substate(s, "B", y, spec.bob_partition[i]) for y in range(s.n)]
        ref = a_vecs[0]
        worst_q = max(
            [float(np.linalg.norm(v - ref)) for v in a_vecs[1:]]
            + [float(np.linalg.norm(v - b_vecs[0])) for v in b_vecs[1:]],
            default=0.0,
        )
        side_gap = float(np.linalg.norm(ref - b_vecs[0]))
        residuals["question_independence"] = max(residuals["question_independence"], worst_q)
        residuals["side_agreement"] = max(residuals["side_agreement"], side_gap)
        if worst_q > tol or side_gap > tol:
            raise BlockDecompositionError(
                f"block {i} projector image depends on the question "
                f"(residual {max(worst_q, side_gap):.3e} > tol {tol:.1e})"
            )
        sub_states.append(ref)

    weights = [float(np.linalg.norm(v) ** 2) for v in sub_states]
    for i, (w, w_corr) in enumerate(zip(weights, chk.weights)):
        gap = abs(w - w_corr)
        residuals["weight_consistency"] = max(residuals["weight_consistency"], gap)
        if gap > tol:
            raise BlockDecompositionError(
                f"block {i} state mass {w!r} disagrees with correlation weight "
                f"{w_corr!r} beyond tol"
            )
    for i in range(num_blocks):
        for j in range(i + 1, num_blocks):
            ov = abs(complex(np.vdot(sub_states[i], sub_states[j])))
            residuals["substate_orthogonality"] = max(
                residuals["substate_orthogonality"], ov
            )

    alice_bases: list[np.ndarray] = []
    bob_bases: list[np.ndarray] = []
    restricted: list[Strategy | None] = []
    for i in range(num_blocks):
        psi_i = sub_states[i].reshape(s.dA, s.dB)
        if weights[i] <= tol:
            alice_bases.append(np.zeros((s.dA, 0), dtype=psi_i.dtype))
            bob_bases.append(np.zeros((s.dB, 0), dtype=psi_i.dtype))
            restricted.append(None)
            continue
        basis_a, restricted_alice = _restrict_side(
            s.alice_meas, spec.alice_partition[i], psi_i @ psi_i.conj().T, "A", i, residuals, tol
        )
        basis_b, restricted_bob = _restrict_side(
            s.bob_meas, spec.bob_partition[i], psi_i.T @ psi_i.conj(), "B", i, residuals, tol
        )
        alice_bases.append(basis_a)
        bob_bases.append(basis_b)

        block_state = basis_a.conj().T @ psi_i @ basis_b.conj()
        block_state = block_state / np.linalg.norm(block_state)
        sub_strategy = Strategy(
            dA=basis_a.shape[1],
            dB=basis_b.shape[1],
            state=block_state.reshape(-1),
            alice_meas=restricted_alice,
            bob_meas=restricted_bob,
        )
        restricted.append(sub_strategy)

        expected = chk.blocks[i]
        assert expected is not None
        got = induce(sub_strategy, check=False)
        gap = distance(got, expected, "max_tv")
        residuals["induced_block_mismatch"] = max(residuals["induced_block_mismatch"], gap)
        if gap > tol:
            raise BlockDecompositionError(
                f"block {i} restricted strategy induces the wrong sub-correlation "
                f"(max_tv {gap:.3e} > tol {tol:.1e})"
            )

    return BlockDecomposition(
        weights=tuple(weights),
        sub_states=tuple(sub_states),
        alice_bases=tuple(alice_bases),
        bob_bases=tuple(bob_bases),
        restricted=tuple(restricted),
        blocks=chk.blocks,
        residuals=residuals,
    )


def _restrict_side(
    meas: np.ndarray,
    answers: Sequence[int],
    rho: np.ndarray,
    side: str,
    block: int,
    residuals: dict[str, float],
    tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Block subspace of one side and that side's ``answers`` compressed onto it.

    The subspace is spanned by the eigenvectors of the reduced density ``rho``
    above lambda_max * n * eps, the resolution of ``eigh``.  Works one
    question at a time; every compressed element must stay a projection, and
    its leakage out of the subspace is recorded.
    """
    evals, evecs = np.linalg.eigh(rho)
    threshold = float(evals.max(initial=0.0)) * len(rho) * np.finfo(float).eps
    basis = evecs[:, evals > threshold]
    answers = list(answers)
    out = np.empty((len(meas), len(answers), basis.shape[1], basis.shape[1]),
                   dtype=np.result_type(basis, meas))
    for x, question in enumerate(meas):
        elements = question[answers]
        out[x] = basis.conj().T @ elements @ basis
        leak = np.linalg.norm(elements @ basis - basis @ out[x], axis=(-2, -1))
        idem = np.linalg.norm(out[x] @ out[x] - out[x], axis=(-2, -1))
        residuals["subspace_leakage"] = max(residuals["subspace_leakage"], float(leak.max()))
        residuals["restricted_idempotence"] = max(
            residuals["restricted_idempotence"], float(idem.max())
        )
        if idem.max() > tol:
            k = int(np.argmax(idem > tol))
            q, a = ("x", "a") if side == "A" else ("y", "b")
            raise BlockDecompositionError(
                f"restricted element ({side}, {q}={x}, {a}={answers[k]}) of block {block} "
                f"is not a projection: residual {idem[k]:.3e} (kept rank {basis.shape[1]} "
                f"of {len(rho)}, eigenvalues above {threshold:.3e})"
            )
    return basis, _frozen(out)


_Y4_SHAPE = (4, 5, 3, 3)


@dataclass(frozen=True)
class Y4Report:
    """Residual norms of the operator identities hinging on Bob's question 4."""

    residuals: dict[str, float]
    tol: float

    @property
    def passed(self) -> bool:
        return all(v <= self.tol for v in self.residuals.values())

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    def worst(self) -> tuple[str, float]:
        name = max(self.residuals, key=self.residuals.get)  # type: ignore[arg-type]
        return name, self.residuals[name]


def verify_y4_relations(s: Strategy, tol: float = 1e-12) -> Y4Report:
    """Check the three state identities relating questions 0, 2, and Bob's 4.

    (i) answer 0 of Alice's question 0, answer 0 of Bob's question 4, and
    answers {0, 2} of Alice's question 2 all project the state to the same
    vector; (ii) same for answer 1 against answer 1; (iii) the two diagonal
    double projections reassemble the state.
    """
    return _y4_relations(s, tol)[0]


def _y4_relations(s: Strategy, tol: float) -> tuple[Y4Report, np.ndarray, np.ndarray]:
    """:func:`verify_y4_relations` plus its two diagonal double projections."""
    if (s.m, s.n, s.r, s.s) != _Y4_SHAPE:
        raise AnalysisError(
            f"expected a 4x5-question, 3-answer strategy, got ({s.m},{s.n},{s.r},{s.s})"
        )
    a0_0 = projected_substate(s, "A", 0, (0,))
    a0_1 = projected_substate(s, "A", 0, (1,))
    b4_0 = projected_substate(s, "B", 4, (0,))
    b4_1 = projected_substate(s, "B", 4, (1,))
    a2_02 = projected_substate(s, "A", 2, (0, 2))
    a2_1 = projected_substate(s, "A", 2, (1,))

    psi = s.state_matrix()
    # the double projections (A_0^a psi) B_4^a^T reuse the substates A_0^a psi
    vec0 = a0_0.reshape(s.dA, s.dB) @ s.bob_meas[4][0].T
    vec1 = a0_1.reshape(s.dA, s.dB) @ s.bob_meas[4][1].T
    residuals = {
        "a0_answer0_vs_b4": float(np.linalg.norm(a0_0 - b4_0)),
        "a0_answer0_vs_a2_kernel_plus": float(np.linalg.norm(a0_0 - a2_02)),
        "a0_answer1_vs_b4": float(np.linalg.norm(a0_1 - b4_1)),
        "a0_answer1_vs_a2": float(np.linalg.norm(a0_1 - a2_1)),
        # vec0 + vec1 - psi negates psi - (vec0 + vec1) exactly; numpy reuses
        # the sum's buffer for it, so no fourth D x D array is live here
        "state_reconstruction": float(np.linalg.norm(vec0 + vec1 - psi)),
    }
    return Y4Report(residuals=residuals, tol=tol), vec0, vec1


@dataclass(frozen=True, eq=False)
class SchmidtPartition:
    """The state spectrum split by the question-0 answer, plus the point block.

    ``s0``/``s1`` come from the doubly projected vectors (answer 0 with Bob's
    question-4 answer 0, answer 1 with answer 1), kept at their original,
    unnormalized scale; ``s2`` from the answer-2 double projection of the
    shifted-pair questions.  ``s`` equals the disjoint union of ``s0`` and
    ``s1`` and contains ``s2``.
    """

    s: SchmidtSpectrum
    s0: SchmidtSpectrum
    s1: SchmidtSpectrum
    s2: SchmidtSpectrum


def schmidt_partition(s: Strategy, tol: float = 1e-9) -> SchmidtPartition:
    """Split the state spectrum along the question-0 answers and certify it.

    Requires :func:`verify_y4_relations` to pass at ``tol``; that licenses
    computing the split spectra from the doubly projected vectors, whose
    bipartite reshape is unambiguous.  Verifies the multiset identity
    S = S0 u S1 and the containment S2 <= S0 at relative tolerance ``tol``.
    """
    y4, vec0, vec1 = _y4_relations(s, tol)
    return _partition(s, y4, vec0, vec1, schmidt(s.state, s.dA, s.dB).spectrum, tol)


def _partition(
    s: Strategy, y4: Y4Report, vec0: np.ndarray, vec1: np.ndarray,
    spec_s: SchmidtSpectrum, tol: float,
) -> SchmidtPartition:
    """:func:`schmidt_partition` from a question-4 pass and the state spectrum."""
    if not all(v <= tol for v in y4.residuals.values()):
        name, value = y4.worst()
        raise AnalysisError(
            f"question-4 relations fail ({name} residual {value:.3e} > {tol:.1e}); "
            f"the Schmidt split is not licensed"
        )
    vec2 = s.alice_meas[2][2] @ s.state_matrix() @ s.bob_meas[2][2].T
    # pieces of the same vector: cut where the state spectrum was cut
    s0, s1, s2 = (_svd_spectrum(v, spec_s.cutoff) for v in (vec0, vec1, vec2))

    merged = sorted(list(s0) + list(s1), reverse=True)
    if not multiset_equal(spec_s.as_list(), merged, tol):
        raise AnalysisError(
            "spectrum does not split as S = S0 u S1; the two projected parts "
            "are not orthogonal on both subsystems at the working tolerance"
        )
    try:
        multiset_subtract(s0.as_list(), s2.as_list(), tol)
    except AnalysisError as exc:
        raise AnalysisError(f"S2 is not contained in S0: {exc}") from exc
    return SchmidtPartition(s=spec_s, s0=s0, s1=s1, s2=s2)


@dataclass(frozen=True)
class DescentChain:
    """Maximal coefficient chains with successive ratio ~ alpha.

    ``chains`` hold coefficient values largest-first; ``index_chains`` index
    into the descending input spectrum.  A finite ``max_length`` certifies a
    strategy dimension of at least that size; for the truncated ideal state
    it equals the truncation dimension exactly, growing without bound as the
    truncation is refined.
    """

    ratio: float
    rel_tol: float
    chains: tuple[tuple[float, ...], ...]
    index_chains: tuple[tuple[int, ...], ...]
    max_length: int


def descent_chain(
    spectrum: SchmidtSpectrum, ratio: float, rel_tol: float = 1e-6
) -> DescentChain:
    """Greedily link coefficients lam -> lam' with lam'/lam within rel_tol of ratio.

    Chains start at the largest unused coefficient and always extend to the
    largest admissible successor, so degenerate groups are consumed one
    member at a time.  ``rel_tol`` must stay below (1 - ratio)/2 or chain
    membership would be ambiguous.
    """
    if not (0.0 < ratio < 1.0):
        raise AnalysisError(f"ratio must lie in (0, 1), got {ratio!r}")
    if rel_tol >= (1.0 - ratio) / 2.0:
        raise AnalysisError(
            f"rel_tol {rel_tol!r} too large for ratio {ratio!r}: chains would overlap"
        )
    values = list(spectrum.coefficients)
    used = [False] * len(values)
    chains: list[tuple[float, ...]] = []
    index_chains: list[tuple[int, ...]] = []
    lo, hi = ratio * (1.0 - rel_tol), ratio * (1.0 + rel_tol)
    for start in range(len(values)):
        if used[start]:
            continue
        chain = [start]
        used[start] = True
        current = values[start]
        while True:
            successor = None
            for j in range(len(values)):
                if used[j]:
                    continue
                if lo * current <= values[j] <= hi * current:
                    successor = j  # descending order: first hit is the largest
                    break
            if successor is None:
                break
            used[successor] = True
            chain.append(successor)
            current = values[successor]
        chains.append(tuple(values[i] for i in chain))
        index_chains.append(tuple(chain))
    return DescentChain(
        ratio=ratio,
        rel_tol=rel_tol,
        chains=tuple(chains),
        index_chains=tuple(index_chains),
        max_length=max((len(c) for c in chains), default=0),
    )


@dataclass(frozen=True)
class BijectionReport:
    """The two scaled correspondences between the split spectra.

    First: S1 = alpha * S0 exactly (coefficient count included).  Second:
    S0 \\ S2 = alpha * S1 after excluding the single truncation-boundary
    coefficient, which is the smallest member of S1 (the infinite-dimensional
    identity cannot survive a finite cut unmodified, so the excluded value is
    surfaced rather than hidden).
    """

    ok_first: bool
    ok_second: bool
    s2_size: int
    boundary_coefficient: float
    max_pair_deviation: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.ok_first and self.ok_second and self.s2_size == 1


def _max_pair_deviation(a: Sequence[float], b: Sequence[float]) -> float:
    if len(a) != len(b) or not a:
        return float("inf") if a or b else 0.0
    sa = sorted(a, reverse=True)
    sb = sorted(b, reverse=True)
    return max(abs(x - y) / max(x, y) for x, y in zip(sa, sb))


def verify_schmidt_bijections(
    s: Strategy, alpha: float, tol: float = 1e-9
) -> BijectionReport:
    """Check the alpha-scaling correspondences on the partitioned spectrum;
    a spectrum clipped below the ``s.dA`` coefficients raises, naming its cutoff."""
    y4, vec0, vec1 = _y4_relations(s, tol)
    return _bijections(s, y4, vec0, vec1, schmidt(s.state, s.dA, s.dB).spectrum, alpha, tol)


def _bijections(
    s: Strategy, y4: Y4Report, vec0: np.ndarray, vec1: np.ndarray,
    spectrum: SchmidtSpectrum, alpha: float, tol: float,
) -> BijectionReport:
    """:func:`verify_schmidt_bijections` from a question-4 pass and the state spectrum."""
    clipped = _clipped(spectrum, s.dA)
    if clipped is not None:
        raise AnalysisError(clipped)
    part = _partition(s, y4, vec0, vec1, spectrum, tol)
    dev_first = _max_pair_deviation(part.s1.as_list(), [alpha * c for c in part.s0])

    boundary = min(part.s1) if len(part.s1) else float("nan")
    rem0 = multiset_subtract(part.s0.as_list(), part.s2.as_list(), tol)
    s1_trimmed = multiset_subtract(part.s1.as_list(), [boundary], tol) if len(part.s1) else []
    dev_second = _max_pair_deviation(rem0, [alpha * c for c in s1_trimmed])

    return BijectionReport(
        ok_first=dev_first <= tol,
        ok_second=dev_second <= tol,
        s2_size=len(part.s2),
        boundary_coefficient=float(boundary),
        max_pair_deviation=float(max(dev_first, dev_second)),
        tol=tol,
    )


def _row(name: str, residual: float, limit: float, detail: str | None = None) -> dict:
    row = {"name": name, "residual": residual, "tolerance": limit, "pass": residual <= limit}
    if detail is not None:
        row["detail"] = detail
    return row


def _validity_row(s: Strategy) -> dict:
    report = strategy.validate(s)
    row = _row("strategy_valid", report.max_residual, 1e-10, None if report.ok else report.summary())
    # validate holds the state norm to 1e-12, under this row's limit
    row["pass"] = report.ok
    return row


def _y4_rows(y4: Y4Report) -> list[dict]:
    return [_row(f"y4_{name}", value, y4.tol) for name, value in y4.residuals.items()]


def certify_strategy(s: Strategy, tol: float) -> list[dict]:
    """A ``strategy_valid`` row naming every broken invariant, and on 4x5 questions
    with 3x3 answers one ``y4_*`` row per question-4 relation at ``tol``."""
    rows = [_validity_row(s)]
    if (s.m, s.n, s.r, s.s) == _Y4_SHAPE:
        rows += _y4_rows(verify_y4_relations(s, tol))
    return rows


def certify_truncation(s: Strategy, alpha: float, tol: float) -> list[dict]:
    """Every certificate on a truncated pairing strategy, as ordered check rows.

    Each row is ``{"name", "residual", "tolerance", "pass"}``, plus a
    ``detail`` where a certificate names why it failed.  The dimension D = 2m is read from
    ``s``.  Every ingredient is computed once: one validation, one induced
    table, one block decomposition of the shifted-pair questions, one
    question-4 pass (its residuals give the ``y4_*`` rows at ``tol``, its
    double projections the Schmidt split at 1e-9), and one state spectrum,
    shared by the split and the descent chain; if it holds fewer than D
    coefficients, their rows fail and name the count and the cutoff.
    """
    dim = s.dA
    tail = alpha ** (2 * dim)
    rows = [_validity_row(s)]

    exact = separating.exact_pstar(alpha)
    worst_printed = 0.0
    for x, y in separating.PRINTED_PAIRS:
        printed = separating.printed_table(alpha, x, y).entries
        worst_printed = max(worst_printed, float(np.abs(exact.table[x, y] - printed).max()))
    rows.append(_row("tables_printed_match", worst_printed, 1e-12))

    # the cut block reassigned by the dangling-vector policy carries mass
    # ~alpha^(2(D-1)), which dominates the tail for small alpha
    table = induce(s, check=False)
    rows.append(_row(
        "truncation_bound",
        distance(exact, table, "max_tv"),
        max(4.0 * tail, 2.0 * alpha ** (2 * (dim - 1))) + 1e-13,
    ))

    block_tol = max(tol, 1e-9)
    sub = strategy.restrict_questions(s, [2, 3], [2, 3])
    try:
        deco = _decompose(sub, restrict(table, [2, 3], [2, 3]),
                          BlockSpec(((0, 1), (2,)), ((0, 1), (2,))), block_tol)
        c = 1.0 / (1.0 - alpha**2)
        weight_gap = max(abs(deco.weights[0] - (c - 1.0) / c), abs(deco.weights[1] - 1.0 / c))
        rows.append(_row("block_weights", weight_gap, max(1e-8, 8.0 * tail)))
        rows.append(_row("block_idempotence", deco.residuals["restricted_idempotence"], 1e-9))
        assert deco.restricted[0] is not None
        block_corr = induce(deco.restricted[0], check=False)
        worst_block = 0.0
        for x in range(2):
            for y in range(2):
                ref = separating.printed_table(alpha, x + 2, y + 2).entries[:2, :2] * c / (c - 1.0)
                worst_block = max(worst_block, float(np.abs(block_corr.table[x, y] - ref).max()))
        rows.append(_row("block_chsh_match", worst_block, max(1e-8, 8.0 * alpha ** (2 * dim - 2))))
    except BlockDecompositionError as exc:
        rows.append(_row("block_decomposition", float("inf"), block_tol, str(exc)))

    y4, vec0, vec1 = _y4_relations(s, tol)
    rows += _y4_rows(y4)

    spectrum = schmidt(s.state, s.dA, s.dB).spectrum
    try:
        bij = _bijections(s, y4, vec0, vec1, spectrum, alpha, 1e-9)
        rows.append(_row("schmidt_partition_bijections", bij.max_pair_deviation, 1e-9))
        rows.append(_row("schmidt_point_block_single", float(abs(bij.s2_size - 1)), 0.0))
    except AnalysisError as exc:
        rows.append(_row("schmidt_partition", float("inf"), 1e-9, str(exc)))

    chains = descent_chain(spectrum, alpha)
    rows.append(_row("descent_chain_length", float(abs(chains.max_length - dim)), 0.0,
                     _clipped(spectrum, dim)))
    return rows
