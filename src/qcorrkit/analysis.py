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

:func:`certify_banded_truncation` runs all of these on the bands of a truncated
pairing strategy in one pass, and :func:`certify_strategy` those any strategy gets.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

from . import separating, strategy
from .correlation import (
    INDUCED_NORM_TOL, BlockCheckResult, BlockSpec, Correlation, block_structure_check, distance, restrict,
)
from .separating import SHIFTED_QUESTIONS, SHIFTED_SPLIT
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
    "certify_banded_truncation",
    "log_descent_chain_length",
    "multiset_equal",
]

MULTISET_REL_TOL = 1e-8
CHAIN_REL_TOL = 1e-6  # the descent chains' default relative window around alpha


class AnalysisError(ValueError):
    """An analysis precondition or certified identity failed."""


class BlockDecompositionError(AnalysisError):
    """The strategy does not decompose over the requested answer blocks."""


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Nonzero Schmidt coefficients in descending order.

    ``cutoff`` records the value the coefficients were cut at: singular values
    at or below it were discarded.  The stored values are positive normal
    doubles (none prints as 0), sorted descending, and their squares sum to at
    most 1 (subnormalized spectra come from projected, unnormalized vectors).
    """

    coefficients: tuple[float, ...]
    cutoff: float = 0.0

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        low = [i for i, c in enumerate(coeffs) if not c >= sys.float_info.min]  # NaN, <= 0 or subnormal
        if low:
            raise AnalysisError(f"Schmidt coefficients must be strictly positive normal doubles; "
                                f"coefficient {low[0]} of {len(coeffs)} is {coeffs[low[0]]!r}")
        if any(not coeffs[i] >= coeffs[i + 1] for i in range(len(coeffs) - 1)):
            raise AnalysisError("Schmidt coefficients must be sorted descending")
        if not sum(c * c for c in coeffs) <= 1.0 + 1e-10:
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


def _rank_cutoff(values: np.ndarray, n: int) -> float:
    """max(values) * n * eps, numpy ``matrix_rank``'s tolerance: what an order-n solver resolves."""
    return float(values.max(initial=0.0)) * n * np.finfo(float).eps


def _svd_spectrum(mat: np.ndarray, cutoff: float | None = None) -> SchmidtSpectrum:
    """Singular values of ``mat`` above ``cutoff``, by default the :func:`_rank_cutoff`
    sigma_max * max(shape) * eps: what the SVD itself resolves."""
    sing = np.linalg.svd(mat, compute_uv=False)  # values only: nothing reads the vectors
    if cutoff is None:
        cutoff = _rank_cutoff(sing, max(mat.shape))
    return SchmidtSpectrum(tuple(sing[sing > cutoff].tolist()), cutoff)


def schmidt(state: np.ndarray, dA: int, dB: int) -> SchmidtResult:
    """Schmidt decomposition of a normalized bipartite vector.

    Singular values at or below sigma_max * max(dA, dB) * eps, which the SVD
    does not resolve, are dropped; the spectrum records that cutoff.
    """
    vec = np.asarray(state).reshape(-1)
    if vec.size != dA * dB:
        raise AnalysisError(f"vector length {vec.size} != dA*dB = {dA * dB}")
    if not abs(np.linalg.norm(vec) - 1.0) <= 1e-10:
        raise AnalysisError("schmidt expects a unit-norm state")
    return SchmidtResult(spectrum=_svd_spectrum(vec.reshape(dA, dB)))


def multiset_equal(
    a: Sequence[float], b: Sequence[float], rel_tol: float = MULTISET_REL_TOL
) -> bool:
    """Whether two positive multisets have equal sizes and pair up within relative
    tolerance: the :func:`_log_deviation` of their logs is at most ``rel_tol``."""
    return len(a) == len(b) and _log_deviation(*_logs(a, b)) <= rel_tol


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


_BLOCK_RESIDUALS = ("question_independence", "side_agreement", "weight_consistency",
                    "substate_orthogonality", "restricted_idempotence", "subspace_leakage",
                    "induced_block_mismatch")


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
    chk = _direct_sum(induce(s), spec, tol)

    num_blocks = spec.num_blocks
    residuals = dict.fromkeys(_BLOCK_RESIDUALS, 0.0)

    sub_states: list[np.ndarray] = []
    for i in range(num_blocks):
        a_vecs = [projected_substate(s, "A", x, spec.alice_partition[i]) for x in range(s.m)]
        b_vecs = [projected_substate(s, "B", y, spec.bob_partition[i]) for y in range(s.n)]
        _question_dependence(i, a_vecs, b_vecs, lambda v: float(np.linalg.norm(v)), residuals, tol)
        sub_states.append(a_vecs[0])

    weights = [float(np.linalg.norm(v) ** 2) for v in sub_states]
    _weight_consistency(weights, chk.weights, residuals, tol)
    _orthogonality(sub_states, lambda u, v: complex(np.vdot(u, v)), residuals)

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

        _induced_block(i, induce(sub_strategy, check=False), chk.blocks[i], residuals, tol)

    return BlockDecomposition(
        weights=tuple(weights),
        sub_states=tuple(sub_states),
        alice_bases=tuple(alice_bases),
        bob_bases=tuple(bob_bases),
        restricted=tuple(restricted),
        blocks=chk.blocks,
        residuals=residuals,
    )


def _direct_sum(p: Correlation, spec: BlockSpec, tol: float) -> BlockCheckResult:
    """:func:`block_structure_check` of ``p``, raising where it is no direct sum."""
    chk = block_structure_check(p, spec, tol)
    if not chk.ok:
        raise BlockDecompositionError(
            f"induced correlation is not a direct sum: {chk.failure.detail}"
        )
    assert chk.weights is not None and chk.blocks is not None
    return chk


def _question_dependence(i: int, a_imgs: Sequence, b_imgs: Sequence, norm: Callable,
                         residuals: dict[str, float], tol: float) -> None:
    """Record how far block ``i``'s projector images move with the question and the side,
    and raise past ``tol``; ``norm`` measures a difference of two images."""
    worst_q = max([norm(v - a_imgs[0]) for v in a_imgs[1:]] + [norm(v - b_imgs[0]) for v in b_imgs[1:]],
                  default=0.0)
    side_gap = norm(a_imgs[0] - b_imgs[0])
    residuals["question_independence"] = max(residuals["question_independence"], worst_q)
    residuals["side_agreement"] = max(residuals["side_agreement"], side_gap)
    if not (worst_q <= tol and side_gap <= tol):
        raise BlockDecompositionError(
            f"block {i} projector image depends on the question "
            f"(residual {max(worst_q, side_gap):.3e} > tol {tol:.1e})"
        )


def _weight_consistency(weights: Sequence[float], expected: Sequence[float],
                        residuals: dict[str, float], tol: float) -> None:
    """Record how far each block's state mass is from its correlation weight; raise past ``tol``."""
    for i, (w, w_corr) in enumerate(zip(weights, expected)):
        gap = abs(w - w_corr)
        residuals["weight_consistency"] = max(residuals["weight_consistency"], gap)
        if not gap <= tol:
            raise BlockDecompositionError(
                f"block {i} state mass {w!r} disagrees with correlation weight "
                f"{w_corr!r} beyond tol"
            )


def _orthogonality(sub_states: Sequence, inner: Callable, residuals: dict[str, float]) -> None:
    """Record the largest overlap |``inner``(u, v)| of two block sub-states."""
    residuals["substate_orthogonality"] = max([0.0] + [abs(inner(u, v)) for u, v in combinations(sub_states, 2)])


def _projections(idem: np.ndarray, leak: np.ndarray, side: str, x: int, answers: Sequence[int], block: int,
                 residuals: dict[str, float], tol: float, limit: str) -> None:
    """Record question ``x``'s restricted idempotence residuals and leakages out of the subspace,
    one per answer; past ``tol``, an idempotence raises naming the element and the ``limit`` of its subspace."""
    residuals["subspace_leakage"] = max(residuals["subspace_leakage"], float(leak.max()))
    residuals["restricted_idempotence"] = max(residuals["restricted_idempotence"], float(idem.max()))
    if not idem.max() <= tol:
        k = int(np.argmax(~(idem <= tol)))
        q, a = ("x", "a") if side == "A" else ("y", "b")
        raise BlockDecompositionError(
            f"restricted element ({side}, {q}={x}, {a}={answers[k]}) of block {block} "
            f"is not a projection: residual {idem[k]:.3e} ({limit})"
        )


def _induced_block(i: int, got: Correlation, expected: Correlation | None,
                   residuals: dict[str, float], tol: float) -> None:
    """Record how far block ``i``'s restricted strategy induces from its sub-correlation; raise past ``tol``."""
    if expected is None:
        raise BlockDecompositionError(f"block {i} has no sub-correlation: weight at or below tol {tol:.1e}")
    gap = distance(got, expected, "max_tv")
    residuals["induced_block_mismatch"] = max(residuals["induced_block_mismatch"], gap)
    if not gap <= tol:
        raise BlockDecompositionError(
            f"block {i} restricted strategy induces the wrong sub-correlation "
            f"(max_tv {gap:.3e} > tol {tol:.1e})"
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

    The subspace is spanned by the eigenvectors of the reduced density ``rho`` above
    the :func:`_rank_cutoff` lambda_max * n * eps, the resolution of ``eigh``.  Works
    one question at a time; every compressed element must stay a projection, and
    its leakage out of the subspace is recorded.
    """
    evals, evecs = np.linalg.eigh(rho)
    threshold = _rank_cutoff(evals, len(rho))
    basis = evecs[:, evals > threshold]
    answers = list(answers)
    out = np.empty((len(meas), len(answers), basis.shape[1], basis.shape[1]),
                   dtype=np.result_type(basis, meas))
    for x, question in enumerate(meas):
        elements = question[answers]
        out[x] = basis.conj().T @ elements @ basis
        leak = np.linalg.norm(elements @ basis - basis @ out[x], axis=(-2, -1))
        idem = np.linalg.norm(out[x] @ out[x] - out[x], axis=(-2, -1))
        _projections(idem, leak, side, x, answers, block, residuals, tol,
                     f"kept rank {basis.shape[1]} of {len(rho)}, eigenvalues above {threshold:.3e}")
    return basis, _frozen(out)


_Y4_SHAPE = (separating.NUM_ALICE_QUESTIONS, separating.NUM_BOB_QUESTIONS) + 2 * (separating.NUM_ANSWERS,)


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
        return float(np.max(list(self.residuals.values())))

    def worst(self) -> tuple[str, float]:
        """The largest residual, or the first NaN one: ``argmax`` ranks NaN highest."""
        name = list(self.residuals)[int(np.argmax(list(self.residuals.values())))]
        return name, self.residuals[name]


def verify_y4_relations(s: Strategy, tol: float = 1e-12) -> Y4Report:
    """Check the three state identities relating questions 0, 2, and Bob's 4.

    (i) answer 0 of Alice's question 0, answer 0 of Bob's question 4, and
    answers {0, 2} of Alice's question 2 all project the state to the same
    vector; (ii) same for answer 1 against answer 1; (iii) the two diagonal
    double projections reassemble the state.
    """
    return _y4_relations(s, tol)[0]


# the question-4 relations (name, left, right): two projections (side, question, answers) whose
# images of the state agree; "state_reconstruction" then sums the double projections to the state.
# Bob's question 4 repeats Alice's question 0; its answer a is CHSH answer a of question 2, plus the point if a = 0.
_X0, _Y4 = separating.REPEATED_PAIR
(_CHSH0, _CHSH1), _POINT_ANSWERS = SHIFTED_SPLIT.alice_partition
_Y4_RELATIONS = (
    ("a0_answer0_vs_b4", ("A", _X0, (0,)), ("B", _Y4, (0,))),
    ("a0_answer0_vs_a2_kernel_plus", ("A", _X0, (0,)), ("A", SHIFTED_QUESTIONS[0], (_CHSH0, *_POINT_ANSWERS))),
    ("a0_answer1_vs_b4", ("A", _X0, (1,)), ("B", _Y4, (1,))),
    ("a0_answer1_vs_a2", ("A", _X0, (1,)), ("A", SHIFTED_QUESTIONS[0], (_CHSH1,))),
)
# (question, answers) of the point block's double projection, the same on both sides
_POINT = (SHIFTED_QUESTIONS[0], _POINT_ANSWERS)


def _y4_pass(project: Callable, norm: Callable, times_b4: Callable, psi, tol: float) -> tuple:
    """The :data:`_Y4_RELATIONS` residuals at ``tol`` and the two double projections, given a
    path's ``project(side, x, answers)`` image of the state ``psi``, the ``norm`` of a
    difference of images, and ``times_b4(v, a)``, the image v times B_4^a^T.  Each
    projection is formed once; the double projections reuse the images A_0^a psi."""
    images = {key: project(*key) for key in dict.fromkeys(k for _, *pair in _Y4_RELATIONS for k in pair)}
    residuals = {name: norm(images[left] - images[right]) for name, left, right in _Y4_RELATIONS}
    vec0, vec1 = (times_b4(images["A", _X0, (a,)], a) for a in range(2))
    # vec0 + vec1 - psi negates psi - (vec0 + vec1) exactly; numpy reuses
    # the sum's buffer for it, so no fourth D x D array is live here
    residuals["state_reconstruction"] = norm(vec0 + vec1 - psi)
    return Y4Report(residuals=residuals, tol=tol), vec0, vec1


def _y4_relations(s: Strategy, tol: float) -> tuple[Y4Report, np.ndarray, np.ndarray]:
    """:func:`verify_y4_relations` plus its two diagonal double projections."""
    if (s.m, s.n, s.r, s.s) != _Y4_SHAPE:
        raise AnalysisError(
            f"expected a {_Y4_SHAPE[0]}x{_Y4_SHAPE[1]}-question, {_Y4_SHAPE[2]}-answer strategy, "
            f"got ({s.m},{s.n},{s.r},{s.s})"
        )
    return _y4_pass(lambda side, x, answers: projected_substate(s, side, x, answers),
                    lambda v: float(np.linalg.norm(v)),
                    lambda v, a: v.reshape(s.dA, s.dB) @ s.bob_meas[_Y4][a].T, s.state_matrix(), tol)


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
    return _partition(s, y4, vec0, vec1, schmidt(s.state, s.dA, s.dB).spectrum, tol)[0]


def _partition(
    s: Strategy, y4: Y4Report, vec0: np.ndarray, vec1: np.ndarray,
    spec_s: SchmidtSpectrum, tol: float,
) -> tuple[SchmidtPartition, list[np.ndarray]]:
    """:func:`schmidt_partition` and the logs of S, S0, S1 and S2, from a question-4 pass and the state spectrum."""
    _licensed(y4, tol)
    x, point = _POINT
    vec2 = s.alice_meas[x, point].sum(0) @ s.state_matrix() @ s.bob_meas[x, point].sum(0).T
    # pieces of the same vector: cut where the state spectrum was cut
    s0, s1, s2 = (_svd_spectrum(v, spec_s.cutoff) for v in (vec0, vec1, vec2))
    logs = _logs(spec_s, s0, s1, s2)
    _split(*logs, tol)
    return SchmidtPartition(s=spec_s, s0=s0, s1=s1, s2=s2), logs


def _licensed(y4: Y4Report, tol: float) -> None:
    """Raise unless the question-4 relations hold at ``tol``: they license the Schmidt split."""
    if not all(v <= tol for v in y4.residuals.values()):
        name, value = y4.worst()
        raise AnalysisError(
            f"question-4 relations fail ({name} residual {value:.3e} > {tol:.1e}); "
            f"the Schmidt split is not licensed"
        )


def _logs(*multisets: Iterable[float]) -> list[np.ndarray]:
    with np.errstate(divide="ignore"):  # log 0 is -inf, which _log_deviation pairs only with itself
        return [np.log(np.fromiter(v, dtype=float)) for v in multisets]


def _split(s: np.ndarray, s0: np.ndarray, s1: np.ndarray, s2: np.ndarray, tol: float) -> None:
    """Certify S = S0 u S1 and S2 <= S0 at relative ``tol``, given the spectra's logs."""
    deviation = _log_deviation(s, np.concatenate([s0, s1]))
    if not deviation <= tol:
        if len(s0) + len(s1) != len(s):
            why = f"S holds {len(s)} coefficients, S0 and S1 {len(s0)} + {len(s1)}"
        else:
            why = f"worst relative pair deviation {deviation:.3e} > {tol:.1e}"
        raise AnalysisError(
            f"spectrum does not split as S = S0 u S1 ({why}); the two projected parts "
            "are not orthogonal on both subsystems at the working tolerance"
        )
    try:
        _log_subtract(s0, s2, tol)
    except AnalysisError as exc:
        raise AnalysisError(f"S2 is not contained in S0: {exc}") from exc


def _log_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |x - y| / max(x, y) = 1 - exp(-|a_k - b_k|) over x = exp(a), y = exp(b) paired largest-first,
    from the logs so nothing underflows: 0 for equal members; inf for unequal sizes, NaN for a NaN member."""
    if len(a) != len(b) or not len(a):
        return float("inf") if len(a) or len(b) else 0.0
    sa, sb = np.sort(a)[::-1], np.sort(b)[::-1]
    gap = np.subtract(sa, sb, out=np.zeros_like(sa), where=sa != sb)
    return float(np.max(-np.expm1(-np.abs(gap))))


def _log_subtract(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """``a`` descending, less one match of each member of ``b``: the first left whose
    exponential is within relative ``tol`` of its exponential, as :func:`_log_deviation` reads it."""
    rest = np.sort(a)[::-1]
    for vb in b:
        hit = np.flatnonzero(-np.expm1(-np.abs(rest - vb)) <= tol)
        if not hit.size:
            raise AnalysisError(f"element exp({vb!r}) has no match to subtract")
        rest = np.delete(rest, hit[0])
    return rest


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
    spectrum: SchmidtSpectrum, ratio: float, rel_tol: float = CHAIN_REL_TOL
) -> DescentChain:
    """Greedily link coefficients lam -> lam' with lam'/lam within rel_tol of ratio.

    One pass, largest coefficient first: each continues the oldest chain whose
    tail admits it, or else opens a new chain.  A chain is offered the values
    in descending order, so the first it takes is its largest admissible
    successor, and degenerate groups are consumed one member at a time.  The
    cost is O(D x chains).  ``rel_tol`` must stay below (1 - ratio)/2 or chain
    membership would be ambiguous; a negative or NaN one admits no successor.
    """
    lo, hi = _chain_window(ratio, rel_tol)
    values = list(spectrum.coefficients)
    chains = _link(values, lambda tail, value: lo * tail <= value <= hi * tail)
    return DescentChain(
        ratio=ratio,
        rel_tol=rel_tol,
        chains=tuple(tuple(values[i] for i in chain) for chain in chains),
        index_chains=tuple(tuple(chain) for chain in chains),
        max_length=max((len(c) for c in chains), default=0),
    )


def log_descent_chain_length(
    log_values: Sequence[float], ratio: float, rel_tol: float = CHAIN_REL_TOL
) -> int:
    """:func:`descent_chain`'s ``max_length`` for the coefficients exp(``log_values``), linked
    in the log domain, so a spectrum spanning more than a double's range keeps every member."""
    lo, hi = (math.log(v) for v in _chain_window(ratio, rel_tol))
    chains = _link(sorted(map(float, log_values), reverse=True),
                   lambda tail, value: lo + tail <= value <= hi + tail)
    return max((len(c) for c in chains), default=0)


def _chain_window(ratio: float, rel_tol: float) -> tuple[float, float]:
    """The successor window [ratio (1 - rel_tol), ratio (1 + rel_tol)], refused where ambiguous."""
    if not (0.0 < ratio < 1.0):
        raise AnalysisError(f"ratio must lie in (0, 1), got {ratio!r}")
    if not (0.0 <= rel_tol < (1.0 - ratio) / 2.0):
        raise AnalysisError(
            f"rel_tol {rel_tol!r} must lie in [0, (1 - ratio)/2) for ratio {ratio!r}: "
            "a negative or nan one admits no successor, one too large lets chains overlap"
        )
    return ratio * (1.0 - rel_tol), ratio * (1.0 + rel_tol)


def _link(values: Sequence[float], admits: Callable[[float, float], bool]) -> list[list[int]]:
    """Index chains of one pass over descending ``values``: each continues the oldest
    chain whose tail ``admits`` it, or else opens a new chain."""
    chains: list[list[int]] = []
    for j, value in enumerate(values):
        for chain in chains:
            if admits(values[chain[-1]], value):
                chain.append(j)
                break
        else:
            chains.append([j])
    return chains


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


def verify_schmidt_bijections(
    s: Strategy, alpha: float, tol: float = 1e-9
) -> BijectionReport:
    """Check the alpha-scaling correspondences on the partitioned spectrum;
    a spectrum clipped below the ``s.dA`` coefficients raises, naming its cutoff."""
    y4, vec0, vec1 = _y4_relations(s, tol)
    spectrum = schmidt(s.state, s.dA, s.dB).spectrum
    if len(spectrum) < s.dA:
        raise AnalysisError(f"the state spectrum holds {len(spectrum)} of D = {s.dA} coefficients "
                            f"above its cutoff {spectrum.cutoff:.3e}")
    return _log_bijections(*_partition(s, y4, vec0, vec1, spectrum, tol)[1][1:], alpha, tol)


def _log_bijections(s0: np.ndarray, s1: np.ndarray, s2: np.ndarray, alpha: float, tol: float) -> BijectionReport:
    """Both alpha-scaling correspondences, given the logs of a certified split."""
    log_alpha = math.log(alpha)
    dev_first = _log_deviation(s1, s0 + log_alpha)
    boundary = float(s1.min()) if len(s1) else float("nan")
    rem0 = _log_subtract(s0, s2, tol)
    s1_trimmed = _log_subtract(s1, [boundary], tol) if len(s1) else s1
    dev_second = _log_deviation(rem0, s1_trimmed + log_alpha)
    return BijectionReport(
        ok_first=dev_first <= tol,
        ok_second=dev_second <= tol,
        s2_size=len(s2),
        boundary_coefficient=math.exp(boundary),
        max_pair_deviation=float(max(dev_first, dev_second)),
        tol=tol,
    )


def _row(name: str, residual: float, limit: float, detail: str | None = None) -> dict:
    """One check row; a failing one without its own ``detail`` names its residual and limit."""
    row = {"name": name, "residual": residual, "tolerance": limit, "pass": residual <= limit}
    if detail is None and not row["pass"]:
        detail = f"residual {residual:.3e} > tolerance {limit:.3e}"
    if detail is not None:
        row["detail"] = detail
    return row


def _raised(name: str, limit: float, exc: Exception) -> dict:
    """The row of a step that raised: it fails whatever its limit, and names the reason."""
    return {**_row(name, float("inf"), limit, str(exc)), "pass": False}


def _validity_row(report: strategy.ValidationReport) -> dict:
    row = _row("strategy_valid", report.max_residual, 1e-10, None if report.ok else report.summary())
    # validate holds the state norm to 1e-12, under this row's limit
    row["pass"] = report.ok
    return row


def _y4_rows(y4: Y4Report) -> list[dict]:
    return [_row(f"y4_{name}", value, y4.tol) for name, value in y4.residuals.items()]


def certify_strategy(s: Strategy, tol: float) -> list[dict]:
    """A ``strategy_valid`` row naming every broken invariant, and on 4x5 questions
    with 3x3 answers one ``y4_*`` row per question-4 relation at ``tol``."""
    rows = [_validity_row(strategy.validate(s))]
    if (s.m, s.n, s.r, s.s) == _Y4_SHAPE:
        rows += _y4_rows(verify_y4_relations(s, tol))
    return rows


# ---------------------------------------------------------------------------
# The ideal truncation by its bands.  Every element is real, symmetric and
# tridiagonal, and the state is the diagonal c_i = exp(log c_i), so every
# certificate on the truncation follows from O(D) arithmetic on bands.
# ---------------------------------------------------------------------------


def _shift(v: np.ndarray, p: int) -> np.ndarray:
    """w[..., i] = v[..., i + p], zero where i + p falls outside."""
    if not p:
        return v
    out = np.zeros_like(v)
    n = v.shape[-1]
    if p >= 0:
        out[..., : n - p] = v[..., p:]
    else:
        out[..., -p:] = v[..., : n + p]
    return out


class _Banded(dict):
    """A real matrix by its diagonals {offset: v}, v[..., i] = M[i, i + offset] (zero
    where i + offset falls outside); leading axes of v stack matrices.

    A vector on the diagonal state c is kept row-scaled: its entry [i, j] is
    c_i * v[j - i][i], so no band underflows where c_i does.  Multiplying it
    on the right by a matrix keeps the row scale; the state itself is the
    identity, and diag(c) @ B^T is B^T.
    """

    @classmethod
    def of(cls, bands: np.ndarray) -> "_Banded":
        """The symmetric tridiagonal elements stored as (..., 2, D) diagonal and off-diagonal."""
        diag, off = bands[..., 0, :], bands[..., 1, :]
        return cls({-1: _shift(off, -1), 0: diag, 1: off})

    def __add__(self, other: "_Banded") -> "_Banded":
        out = _Banded(self)
        for o, v in other.items():
            out[o] = out[o] + v if o in out else v
        return out

    def __sub__(self, other: "_Banded") -> "_Banded":
        return self + _Banded({o: -v for o, v in other.items()})

    def __matmul__(self, other: "_Banded") -> "_Banded":
        out = _Banded()
        for p, u in self.items():
            for q, v in other.items():
                out += _Banded({p + q: u * _shift(v, p)})
        return out

    def on_state(self, ratios: dict[int, np.ndarray]) -> "_Banded":
        """self @ diag(c), row-scaled, for a tridiagonal self and the :func:`_row_ratios` of c."""
        return _Banded({p: ratios[p] * u for p, u in self.items()})

    @property
    def T(self) -> "_Banded":
        return _Banded({-p: _shift(v, -p) for p, v in self.items()})

    def diagonal(self) -> bool:
        return not any(v.any() for o, v in self.items() if o != 0)

    def at(self, index) -> "_Banded":
        return _Banded({o: v[index] for o, v in self.items()})

    def norm(self, scale: np.ndarray | float = 1.0) -> np.ndarray:
        """Frobenius norms, of the row-scaled matrix when ``scale`` holds c."""
        return np.sqrt(sum(((scale * v) ** 2).sum(-1) for v in self.values()))


def _row_ratios(log_coeffs: np.ndarray) -> dict[int, np.ndarray]:
    """c_(i+p) / c_i for p = -1, 0, 1, from the logs; 1 where i + p falls outside."""
    step = np.append(np.diff(log_coeffs), 0.0)
    return {-1: np.exp(-_shift(step, -1)), 0: np.ones_like(step), 1: np.exp(step)}


def _band_validity(alice: _Banded, bob: _Banded, coeffs: np.ndarray) -> strategy.ValidationReport:
    """:func:`strategy.validate` of the elements ``alice`` and ``bob`` and the state ``coeffs``."""
    sides = []
    for side, elems in (("A", alice), ("B", bob)):
        # answer pairs in itertools.combinations order, as validate lists them
        first, second = np.triu_indices(elems[0].shape[1], 1)
        complete = _Banded({o: v.sum(1) for o, v in elems.items()}) - _Banded({0: np.ones(coeffs.shape)})
        pairs = elems.at((slice(None), first)) @ elems.at((slice(None), second))
        sides.append((side, (elems - elems.T).norm(), (elems @ elems - elems).norm(),
                      complete.norm(), pairs.norm()))
    return strategy._report(abs(float(np.linalg.norm(coeffs)) - 1.0), sides)


def _band_blocks(bands: separating.TruncationBands, table: Correlation, tol: float) -> tuple[dict, np.ndarray]:
    """:meth:`BlockDecomposition.as_dict` of the shifted-pair questions, as :func:`strategy_block_decompose` finds
    it, and the CHSH block's table.  Block subspaces are coordinate sets: ``block_dims`` are support sizes, the
    leakage is the couplings leaving a support, and a sub-state that is not diagonal raises, as does a weightless
    block."""
    dim, ratios, coeffs = bands.spec.dim, _row_ratios(bands.log_coeffs), np.exp(bands.log_coeffs)
    chk = _direct_sum(restrict(table, SHIFTED_QUESTIONS, SHIFTED_QUESTIONS), SHIFTED_SPLIT, tol)
    residuals = dict.fromkeys(_BLOCK_RESIDUALS, 0.0)
    sides = (("A", bands.alice[list(SHIFTED_QUESTIONS)], SHIFTED_SPLIT.alice_partition),
             ("B", bands.bob[list(SHIFTED_QUESTIONS)], SHIFTED_SPLIT.bob_partition))
    sub_states = []
    for i in range(SHIFTED_SPLIT.num_blocks):
        a_proj, b_proj = (_Banded.of(side[:, list(part[i])].sum(1)) for _, side, part in sides)
        a_imgs, b_imgs = a_proj.on_state(ratios), b_proj.T
        _question_dependence(i, [a_imgs.at(x) for x in range(2)], [b_imgs.at(y) for y in range(2)],
                             lambda v: float(v.norm(coeffs)), residuals, tol)
        sub_states.append(a_imgs.at(0))
    weights = [float(v.norm(coeffs) ** 2) for v in sub_states]
    _weight_consistency(weights, chk.weights, residuals, tol)

    blocks = []  # (table, support size) per block
    for i, sub in enumerate(sub_states):
        if not sub.diagonal():
            raise BlockDecompositionError(f"block {i} sub-state is not diagonal: its subspace is no coordinate set")
        support = np.flatnonzero(inside := sub[0] != 0)
        restricted = []
        for side, elems, part in sides:
            leak = np.linalg.norm(elems[:, list(part[i]), 1, :-1] * (inside[:-1] != inside[1:]), axis=-1)
            kept = elems[:, list(part[i])][..., support]
            kept[..., 1, :] *= np.append(np.diff(support) == 1, False)  # couplings inside the support
            proj = _Banded.of(kept)
            for x, idem in enumerate((proj @ proj - proj).norm()):
                _projections(idem, leak[x], side, x, part[i], i, residuals, tol,
                             f"support {len(support)} of {dim} coordinates")
            restricted.append(kept)
        sub_coeffs = coeffs[support] / np.linalg.norm(coeffs[support])
        got = Correlation(separating._band_table(*restricted, sub_coeffs), norm_tol=INDUCED_NORM_TOL)
        _induced_block(i, got, chk.blocks[i], residuals, tol)
        blocks.append((got.table, len(support)))
    _orthogonality(sub_states, lambda u, v: float(np.sum(coeffs**2 * u[0] * v[0])), residuals)  # all diagonal
    return {"weights": weights, "block_dims": [[n, n] for _, n in blocks], "residuals": residuals}, blocks[0][0]


def _band_spectrum(vec: _Banded, log_coeffs: np.ndarray) -> np.ndarray:
    """Logs of the Schmidt coefficients of a row-scaled, diagonal vector on the state."""
    if not vec.diagonal():
        raise AnalysisError("a double projection is not diagonal: its Schmidt basis is no coordinate set")
    nonzero = np.flatnonzero(vec[0])
    return log_coeffs[nonzero] + np.log(np.abs(vec[0][nonzero]))


def certify_banded_truncation(bands: separating.TruncationBands, tol: float) -> list[dict]:
    """Every certificate on the ideal truncation, as ordered check rows, read off its bands in O(D).

    Each row is ``{"name", "residual", "tolerance", "pass"}``, plus a
    ``detail`` where it fails; a step that raises fails its one row, at any
    limit, and says why.  Each ingredient is computed once, by band
    arithmetic in place of D x D products, ``eigh`` and SVDs: one validation,
    the banded table, one block decomposition of the shifted-pair questions
    on coordinate subspaces, and one question-4 pass.  Its residuals give the
    ``y4_*`` rows at ``tol``; its double projections give the Schmidt spectra
    S, S0, S1 and S2, which with both bijections and the descent chain are
    read from the log coefficients, so nothing underflows or is clipped.
    """
    alpha, dim = bands.spec.alpha, bands.spec.dim
    split_tol = 1e-9  # relative, on the Schmidt split; it also floors the block tolerance
    block_tol = max(tol, split_tol)
    tail = alpha ** (2 * dim)
    coeffs = np.exp(bands.log_coeffs)
    table = bands.induced()
    rows = [_validity_row(_band_validity(_Banded.of(bands.alice), _Banded.of(bands.bob), coeffs))]

    exact, printed, c = separating._closed_forms(alpha)
    rows.append(_row("tables_printed_match", max(
        float(np.abs(exact.table[xy] - entries).max()) for xy, entries in printed.items()), 1e-12))

    # the cut block reassigned by the dangling-vector policy carries mass
    # ~alpha^(2(D-1)), which dominates the tail for small alpha
    rows.append(_row(
        "truncation_bound",
        distance(exact, table, "max_tv"),
        max(4.0 * tail, 2.0 * alpha ** (2 * (dim - 1))) + 1e-13,
    ))

    try:
        summary, block_table = _band_blocks(bands, table, block_tol)
    except BlockDecompositionError as exc:
        rows.append(_raised("block_decomposition", block_tol, exc))
    else:
        weight_gap = max(abs(summary["weights"][0] - (c - 1.0) / c), abs(summary["weights"][1] - 1.0 / c))
        rows.append(_row("block_weights", weight_gap, max(1e-8, 8.0 * tail)))
        rows.append(_row("block_idempotence", summary["residuals"]["restricted_idempotence"], 1e-9))
        worst_block = max(
            float(np.abs(block_table[x, y] - printed[sx, sy][:2, :2] * c / (c - 1.0)).max())
            for x, sx in enumerate(SHIFTED_QUESTIONS) for y, sy in enumerate(SHIFTED_QUESTIONS))
        rows.append(_row("block_chsh_match", worst_block, max(1e-8, 8.0 * alpha ** (2 * dim - 2))))

    psi, ratios = _Banded({0: np.ones(dim)}), _row_ratios(bands.log_coeffs)

    def project(side: str, x: int, answers: tuple[int, ...]) -> _Banded:
        # the state is the identity row-scaled: A psi is A on it, psi B^T is B^T
        proj = _Banded.of((bands.alice if side == "A" else bands.bob)[x, list(answers)].sum(0))
        return proj.on_state(ratios) if side == "A" else proj.T

    y4, vec0, vec1 = _y4_pass(project, lambda v: float(v.norm(coeffs)),
                              lambda v, a: v @ project("B", _Y4, (a,)), psi, tol)
    rows += _y4_rows(y4)

    try:
        _licensed(y4, split_tol)
        vec2 = project("A", *_POINT) @ project("B", *_POINT)
        logs = [_band_spectrum(v, bands.log_coeffs) for v in (psi, vec0, vec1, vec2)]
        _split(*logs, split_tol)
        split = _log_bijections(*logs[1:], alpha, split_tol)
    except AnalysisError as exc:
        rows.append(_raised("schmidt_partition", split_tol, exc))
    else:
        broken = [name for ok, name in ((split.ok_first, "S1 = alpha S0"),
                                        (split.ok_second, "S0 \\ S2 = alpha S1")) if not ok]
        rows.append(_row("schmidt_partition_bijections", split.max_pair_deviation, split_tol,
                         f"worst relative pair deviation {split.max_pair_deviation:.3e} > {split_tol:.1e} "
                         f"(broken: {', '.join(broken)})" if broken else None))
        rows.append(_row("schmidt_point_block_single", float(abs(split.s2_size - 1)), 0.0))

    chain_length = log_descent_chain_length(bands.log_coeffs, alpha)
    rows.append(_row("descent_chain_length", float(abs(chain_length - dim)), 0.0,
                     f"longest chain {chain_length} of D = {dim} at ratio {alpha!r}, rel_tol {CHAIN_REL_TOL:.1e}"
                     if chain_length != dim else None))
    return rows
