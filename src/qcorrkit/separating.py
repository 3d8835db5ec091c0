"""The separating correlation: its exact tables and finite truncations.

The target correlation lives on 4 x 5 questions and 3 x 3 answers.  Its ideal
realization pairs the standard basis of a square-summable sequence space two
ways: questions 0/1 (and Bob's 0/1/4) act on the pairs (2m, 2m+1), questions
2/3 act on the shifted pairs (2m+1, 2m+2) with the leftover basis vector |0>
routed to answer 2.  On each pair the parties play tilted CHSH for ratio
alpha, Bob with the mu-tilted observables; Bob's question 4 repeats Alice's
question 0 (:data:`REPEATED_PAIR`).  The shared state is the normalized
geometric diagonal sqrt(1 - alpha^2) * sum_i alpha^i |ii>.

This module produces both sides of that picture at double precision:

* ``ideal_truncated_strategy`` cuts everything to dimension D = 2M and
  repairs the cut with the dangling-vector policy described below
  (``ideal_truncation_bands`` and its ``induced`` table keep it in O(D)), and
* ``exact_pstar`` sums the full geometric series in closed form, which is
  possible because every measurement element is 2-periodic and banded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import DEFAULT_NORM_TOL, INDUCED_NORM_TOL, BlockSpec, Correlation, CorrelationTable, distance
from .correlation import _clean_probabilities
from .strategy import Strategy, _frozen
from .tilted_chsh import (
    SIGMA_X,
    SIGMA_Z,
    TiltedChshParams,
    _ideal_entries,
    _pm_projectors,
    params_from_alpha,
    tilted_sigma_x,
    tilted_sigma_z,
)

__all__ = [
    "TruncationSpec",
    "TruncationBands",
    "SeparatingError",
    "ideal_truncated_strategy",
    "ideal_truncation_bands",
    "exact_pstar",
    "printed_table",
    "truncation_distance",
    "PRINTED_PAIRS",
    "NUM_ALICE_QUESTIONS",
    "NUM_BOB_QUESTIONS",
    "SHIFTED_QUESTIONS",
    "SHIFTED_SPLIT",
    "REPEATED_PAIR",
]

NUM_ALICE_QUESTIONS = 4
NUM_BOB_QUESTIONS = 5
NUM_ANSWERS = 3
# the shifted-pair questions, either side, and their answers' split: CHSH block {0, 1}, point block {2}
SHIFTED_QUESTIONS = (2, 3)
SHIFTED_SPLIT = BlockSpec(((0, 1), (2,)), ((0, 1), (2,)))
REPEATED_PAIR = (0, 4)  # the question pair (x, y) where Bob's question y plays Alice's question x

# Question pairs whose closed-form tables are available via printed_table.
PRINTED_PAIRS: tuple[tuple[int, int], ...] = (
    (0, 0), (0, 1), (1, 0), (1, 1),
    (2, 2), (2, 3), (3, 2), (3, 3),
    (0, 4), (2, 4),
)


class SeparatingError(ValueError):
    """Invalid truncation parameters or an unavailable closed-form table."""


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise SeparatingError(f"alpha must lie in (0, 1), got {alpha!r}")


@dataclass(frozen=True)
class TruncationSpec:
    """Truncation to ``m`` two-dimensional pairing blocks (dimension 2m).

    The dimension is kept even so the aligned pairs (2k, 2k+1) tile it
    exactly; the shifted pairs then leave |0> and the dangling |2m-1>.
    ``m >= 2`` guarantees at least one complete shifted pair.
    """

    alpha: float
    m: int

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        if int(self.m) != self.m or self.m < 2:
            raise SeparatingError(f"m must be an integer >= 2, got {self.m!r}")

    @property
    def dim(self) -> int:
        return 2 * int(self.m)

    def log_coeffs(self) -> np.ndarray:
        """log c_i of the truncated state: log N + i log alpha, N^2 = (1 - a^2) / (1 - a^(2D))."""
        log_alpha = math.log(self.alpha)
        log_norm = 0.5 * (math.log1p(-self.alpha**2) - math.log1p(-math.exp(2 * self.dim * log_alpha)))
        return log_norm + log_alpha * np.arange(self.dim)


def _question_layout(params: TiltedChshParams) -> tuple[list[tuple[int, np.ndarray]], ...]:
    """(shift, observable) per question on each side: the one layout table.

    Shift 0 plays the 2x2 observable on the aligned pairs (2k, 2k+1), answering
    +1 -> 0 and -1 -> 1 with answer 2 unused.  Shift 1 (:data:`SHIFTED_QUESTIONS`) plays
    it on the shifted pairs (2k+1, 2k+2), answering -1 -> 0 and +1 -> 1, with |0><0| -> 2.
    """
    tz, tx = tilted_sigma_z(params.mu), tilted_sigma_x(params.mu)
    alice = [(0, SIGMA_Z), (0, SIGMA_X), (1, SIGMA_Z), (1, SIGMA_X)]
    bob = [(0, tz), (0, tx), (1, tz), (1, tx), alice[REPEATED_PAIR[0]]]
    return alice, bob


def _side_bands(questions: list[tuple[int, np.ndarray]], num_blocks: int) -> np.ndarray:
    """One side's (questions, 3, 2, D) bands: each element's diagonal, then its first
    off-diagonal (entry i is element[i, i+1] = element[i+1, i]; entry D-1 is 0).

    Every element is real, symmetric and tridiagonal, written pair by pair with
    strided assignments.  Only the shifted pairs (2k+1, 2k+2) with 2k+2 < D
    fit; the dangling vector |D-1> (the would-be first leg of the cut pair,
    i.e. the +1 slot of its pairing) is assigned to answer 1 so that the
    measurement stays complete and the answer-1 element equals the full
    odd-index projector when the observable is diagonal.
    """
    dim = 2 * num_blocks
    out = np.zeros((len(questions), NUM_ANSWERS, 2, dim))
    for x, (shift, obs) in enumerate(questions):
        first = 2 * np.arange(num_blocks - shift) + shift
        for a, op in zip((shift, 1 - shift), _pm_projectors(obs)):
            diag, off = out[x, a]
            diag[first] = op[0, 0]
            diag[first + 1] = op[1, 1]
            off[first] = op[0, 1]  # the 2x2 projectors are symmetric
        if shift:
            out[x, 1, 0, dim - 1] += 1.0
            out[x, 2, 0, 0] = 1.0
    return out


def _scatter(bands: np.ndarray) -> np.ndarray:
    """One side's (questions, 3, D, D) elements from its :func:`_side_bands`."""
    dim = bands.shape[-1]
    out = np.zeros(bands.shape[:2] + (dim, dim))
    i = np.arange(dim)
    out[:, :, i, i] = bands[:, :, 0]
    out[:, :, i[:-1], i[1:]] = out[:, :, i[1:], i[:-1]] = bands[:, :, 1, :-1]
    return _frozen(out)


@dataclass(frozen=True, eq=False)
class TruncationBands:
    """The dimension-2m cut of the ideal strategy without a D x D array.

    ``alice`` and ``bob`` hold each side's :func:`_side_bands`, shape
    (questions, 3, 2, D); ``log_coeffs`` holds the diagonal state's
    :meth:`TruncationSpec.log_coeffs`, so no coefficient underflows at any m.
    :func:`ideal_truncated_strategy` scatters the same bands into its arrays.
    """

    spec: TruncationSpec
    alice: np.ndarray
    bob: np.ndarray
    log_coeffs: np.ndarray

    def induced(self) -> Correlation:
        """The correlation the truncation induces, by :func:`_band_table`, at ``INDUCED_NORM_TOL``."""
        return Correlation(_band_table(self.alice, self.bob, np.exp(self.log_coeffs)), norm_tol=INDUCED_NORM_TOL)


def _band_table(alice: np.ndarray, bob: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """(questions, questions, answers, answers) table of tridiagonal elements, as :func:`_side_bands`
    stores them, on the diagonal state ``coeffs``: sum_i c_i^2 A_ii B_ii + 2 sum_i c_i c_(i+1) A_i,i+1 B_i,i+1."""
    (m, r), (n, t) = alice.shape[:2], bob.shape[:2]
    weight = np.stack([coeffs**2, 2.0 * coeffs * np.append(coeffs[1:], 0.0)])  # (2, D)
    table = sum((alice[:, :, k] * weight[k]).reshape(m * r, -1) @ bob[:, :, k].reshape(n * t, -1).T
                for k in range(2))
    return table.reshape(m, r, n, t).transpose(0, 2, 1, 3)


def ideal_truncation_bands(spec: TruncationSpec) -> TruncationBands:
    """The bands and log-coefficients of :func:`ideal_truncated_strategy`, in O(D) memory."""
    alice, bob = _question_layout(params_from_alpha(spec.alpha))
    return TruncationBands(
        spec=spec,
        alice=_frozen(_side_bands(alice, int(spec.m))),
        bob=_frozen(_side_bands(bob, int(spec.m))),
        log_coeffs=_frozen(spec.log_coeffs()),
    )


def ideal_truncated_strategy(spec: TruncationSpec) -> Strategy:
    """Dimension-2m cut of the ideal strategy (4 x 5 questions, 3 answers).

    The state is the geometric diagonal renormalized to unit norm by
    sqrt((1 - alpha^2) / (1 - alpha^(2D))).  Aligned-pair questions tile the
    truncated space completely, so their tables match the untruncated ones
    exactly; all truncation error enters through the shifted-pair questions.
    The elements are :func:`ideal_truncation_bands` scattered.  Every array
    is real and written as float64, which the strategy keeps without a copy.
    """
    dim, alpha, bands = spec.dim, spec.alpha, ideal_truncation_bands(spec)
    norm = math.sqrt((1.0 - alpha**2) / (1.0 - alpha ** (2 * dim)))
    state = np.zeros(dim * dim)
    state[np.arange(dim) * (dim + 1)] = norm * alpha ** np.arange(dim)
    return Strategy(dA=dim, dB=dim, state=_frozen(state),
                    alice_meas=_scatter(bands.alice), bob_meas=_scatter(bands.bob))


# ---------------------------------------------------------------------------
# Exact correlation via closed-form geometric sums.
#
# Every ideal measurement element P is banded (P[i][j] = 0 for |i - j| > 1)
# and 2-periodic away from the origin, so six numbers, read off the D = 4 bands
# of _side_bands, determine it: the (0,0) entry, the diagonal at 2 (even
# indices >= 2) and at 1 (odd), the parity s of the pair starts, and the
# couplings (s, s+1) and (s+1, s); the dangling |3> touches none.  The series
# (1 - a^2) * sum_{i,j} a^(i+j) P[i][j] Q[i][j] then collapses to a handful
# of geometric sums with ratio a^4.
# ---------------------------------------------------------------------------


def _descriptors(questions: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """Banded descriptors, shape (6, questions, answers), in the order above; answer 2 of
    a shifted question reads parity 1 with zero couplings, so its coupling term adds +0.0."""
    diag, off = _side_bands(questions, 2).transpose(2, 0, 1, 3)
    shift = np.array([s for s, _ in questions])
    x = np.arange(len(questions))
    parity = np.broadcast_to(shift[:, None], diag.shape[:2])
    coupling = off[x, :, shift]
    return np.stack([diag[:, :, 0], diag[:, :, 2], diag[:, :, 1], parity, coupling, coupling])


def exact_pstar(alpha: float) -> Correlation:
    """The separating correlation itself, exact up to float rounding.

    The geometric series over the infinite-dimensional state is summed in
    closed form per question pair (one period of the banded measurement
    elements times 1/(1 - alpha^4), boundary terms added separately), so no
    truncation is involved.
    """
    _check_alpha(alpha)
    return _exact_table(alpha, params_from_alpha(alpha))


def printed_table(alpha: float, x: int, y: int) -> CorrelationTable:
    """Closed-form table for the question pairs that have one.

    Evaluates the direct-sum picture, tilted CHSH blocks carrying weights
    (C-1)/C and 1/C with C = 1/(1 - alpha^2), independently of the series
    summation in :func:`exact_pstar`, so the two routes cross-validate each
    other.  Shifted-pair questions carry the CHSH block with the 0/1 answer
    labels flipped.
    """
    _check_alpha(alpha)
    tables, _ = _printed_tables(alpha, params_from_alpha(alpha))
    if (x, y) not in tables:
        raise SeparatingError(f"no closed-form table for question pair ({x},{y})")
    return CorrelationTable(x=x, y=y, entries=tables[x, y])


def _closed_forms(alpha: float) -> tuple[Correlation, dict[tuple[int, int], np.ndarray], float]:
    """:func:`exact_pstar`, every :func:`printed_table`'s entries by pair, and C, from one params_from_alpha."""
    _check_alpha(alpha)
    params = params_from_alpha(alpha)
    return (_exact_table(alpha, params), *_printed_tables(alpha, params))


def _exact_table(alpha: float, params: TiltedChshParams) -> Correlation:
    """:func:`exact_pstar` from the tilt parameters of ``alpha``."""
    alice, bob = _question_layout(params)
    p00a, evena, odda, shifta, upa, lowa = _descriptors(alice)[:, :, None, :, None]
    p00b, evenb, oddb, shiftb, upb, lowb = _descriptors(bob)[:, None, :, None, :]
    geo = 1.0 / (1.0 - alpha**4)
    val = p00a * p00b
    val = val + alpha**2 * geo * odda * oddb
    val = val + alpha**4 * geo * evena * evenb
    # couplings pair up only between questions on the same pair parity
    coupled = val + np.where(shifta == 1, alpha**3, alpha) * geo * (upa * upb + lowa * lowb)
    return Correlation((1.0 - alpha**2) * np.where(shifta == shiftb, coupled, val))


def _printed_tables(alpha: float, params: TiltedChshParams) -> tuple[dict[tuple[int, int], np.ndarray], float]:
    """Every :func:`printed_table`'s entries by pair, and C; the four CHSH tables are one
    batched product, cleaned as a :class:`CorrelationTable` cleans them."""
    c = 1.0 / (1.0 - alpha**2)
    chsh = _clean_probabilities(_ideal_entries(params), DEFAULT_NORM_TOL, "ideal CHSH tables")
    tables = dict(zip(PRINTED_PAIRS, np.zeros((len(PRINTED_PAIRS), NUM_ANSWERS, NUM_ANSWERS))))
    for x, y in np.ndindex(chsh.shape[:2]):
        tables[x, y][:2, :2] = chsh[x, y]
        shifted = tables[SHIFTED_QUESTIONS[x], SHIFTED_QUESTIONS[y]]
        shifted[:2, :2] = (c - 1.0) / c * chsh[x, y, ::-1, ::-1]
        shifted[2, 2] = 1.0 / c
    tables[0, 4][0, 0] = (1.0 / c) / (1.0 - alpha**4)
    tables[0, 4][1, 1] = tables[2, 4][1, 1] = (1.0 / c) * alpha**2 / (1.0 - alpha**4)
    tables[2, 4][0, 0] = (1.0 / c) * (1.0 / (1.0 - alpha**4) - 1.0)
    tables[2, 4][2, 0] = 1.0 / c
    return tables, c


def truncation_distance(alpha: float, m: int, metric: str = "max_tv") -> float:
    """Distance between the exact correlation and its dimension-2m truncation, read off its bands in O(D)."""
    truncated = ideal_truncation_bands(TruncationSpec(alpha=alpha, m=m)).induced()
    return distance(exact_pstar(alpha), truncated, metric)  # type: ignore[arg-type]
