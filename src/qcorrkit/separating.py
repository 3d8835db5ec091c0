"""The separating correlation: its exact tables and finite truncations.

The target correlation lives on 4 x 5 questions and 3 x 3 answers.  Its ideal
realization pairs the standard basis of a square-summable sequence space two
ways: questions 0/1 (and Bob's 0/1/4) act on the pairs (2m, 2m+1), questions
2/3 act on the shifted pairs (2m+1, 2m+2) with the leftover basis vector |0>
routed to answer 2.  On each pair the parties play tilted CHSH for ratio
alpha, Bob with the mu-tilted observables; Bob's question 4 repeats Alice's
question 0.  The shared state is the normalized geometric diagonal
sqrt(1 - alpha^2) * sum_i alpha^i |ii>.

This module produces both sides of that picture at double precision:

* ``ideal_truncated_strategy`` cuts everything to dimension D = 2M and
  repairs the cut with the dangling-vector policy described below, and
* ``exact_pstar`` sums the full geometric series in closed form, which is
  possible because every measurement element is 2-periodic and banded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import Correlation, CorrelationTable, distance
from .strategy import Strategy, induce
from .tilted_chsh import (
    SIGMA_X,
    SIGMA_Z,
    ideal_table,
    params_from_alpha,
    tilted_sigma_x,
    tilted_sigma_z,
)

__all__ = [
    "TruncationSpec",
    "SeparatingError",
    "ideal_truncated_strategy",
    "exact_pstar",
    "printed_table",
    "truncation_distance",
    "PRINTED_PAIRS",
    "NUM_ALICE_QUESTIONS",
    "NUM_BOB_QUESTIONS",
    "NUM_ANSWERS",
]

NUM_ALICE_QUESTIONS = 4
NUM_BOB_QUESTIONS = 5
NUM_ANSWERS = 3

# Question pairs whose closed-form tables are available via printed_table.
PRINTED_PAIRS: tuple[tuple[int, int], ...] = (
    (0, 0), (0, 1), (1, 0), (1, 1),
    (2, 2), (2, 3), (3, 2), (3, 3),
    (0, 4), (2, 4),
)


class SeparatingError(ValueError):
    """Invalid truncation parameters or an unavailable closed-form table."""


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
        if not (0.0 < self.alpha < 1.0):
            raise SeparatingError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if int(self.m) != self.m or self.m < 2:
            raise SeparatingError(f"m must be an integer >= 2, got {self.m!r}")

    @property
    def dim(self) -> int:
        return 2 * int(self.m)


def _pm(obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (I +/- O)/2; exact projectors because the 2x2 observables square to I
    eye = np.eye(2)
    return (eye + obs) / 2.0, (eye - obs) / 2.0


def _pairs(op: np.ndarray, first: np.ndarray, dim: int) -> np.ndarray:
    """The 2x2 ``op`` placed on every pair (i, i+1) with i in ``first``."""
    out = np.zeros((dim, dim), dtype=complex)
    out[first, first] = op[0, 0]
    out[first, first + 1] = op[0, 1]
    out[first + 1, first] = op[1, 0]
    out[first + 1, first + 1] = op[1, 1]
    return out


def _aligned_measurement(obs: np.ndarray, num_blocks: int, dim: int) -> list[np.ndarray]:
    """Three elements for an aligned-pair question: (+1 -> 0, -1 -> 1, zero)."""
    plus, minus = _pm(obs)
    first = 2 * np.arange(num_blocks)
    zero = np.zeros((dim, dim), dtype=complex)
    return [_pairs(plus, first, dim), _pairs(minus, first, dim), zero]


def _shifted_measurement(obs: np.ndarray, num_blocks: int, dim: int) -> list[np.ndarray]:
    """Three elements for a shifted-pair question: (-1 -> 0, +1 -> 1, |0><0| -> 2).

    Only the blocks (2k+1, 2k+2) with 2k+2 < dim fit; the dangling vector
    |dim-1> (the would-be first leg of the cut block, i.e. the +1 slot of its
    pairing) is assigned to answer 1 so that the measurement stays complete
    and the answer-1 element equals the full odd-index projector when
    ``obs`` is diagonal.
    """
    plus, minus = _pm(obs)
    first = 2 * np.arange(num_blocks - 1) + 1
    p_plus = _pairs(plus, first, dim)
    p_plus[dim - 1, dim - 1] += 1.0
    p_kernel = np.zeros((dim, dim), dtype=complex)
    p_kernel[0, 0] = 1.0
    return [_pairs(minus, first, dim), p_plus, p_kernel]


def ideal_truncated_strategy(spec: TruncationSpec) -> Strategy:
    """Dimension-2m cut of the ideal strategy (4 x 5 questions, 3 answers).

    The state is the geometric diagonal renormalized to unit norm by
    sqrt((1 - alpha^2) / (1 - alpha^(2D))).  Aligned-pair questions tile the
    truncated space completely, so their tables match the untruncated ones
    exactly; all truncation error enters through the shifted-pair questions.
    """
    dim = spec.dim
    num_blocks = int(spec.m)
    alpha = spec.alpha
    mu = params_from_alpha(alpha).mu

    alice = [
        _aligned_measurement(SIGMA_Z, num_blocks, dim),
        _aligned_measurement(SIGMA_X, num_blocks, dim),
        _shifted_measurement(SIGMA_Z, num_blocks, dim),
        _shifted_measurement(SIGMA_X, num_blocks, dim),
    ]
    bob = [
        _aligned_measurement(tilted_sigma_z(mu), num_blocks, dim),
        _aligned_measurement(tilted_sigma_x(mu), num_blocks, dim),
        _shifted_measurement(tilted_sigma_z(mu), num_blocks, dim),
        _shifted_measurement(tilted_sigma_x(mu), num_blocks, dim),
        _aligned_measurement(SIGMA_Z, num_blocks, dim),
    ]

    norm = math.sqrt((1.0 - alpha**2) / (1.0 - alpha ** (2 * dim)))
    coeffs = norm * alpha ** np.arange(dim)
    state = np.zeros(dim * dim, dtype=complex)
    state[np.arange(dim) * dim + np.arange(dim)] = coeffs
    return Strategy(dA=dim, dB=dim, state=state, alice_meas=alice, bob_meas=bob)


# ---------------------------------------------------------------------------
# Exact correlation via closed-form geometric sums.
#
# Every ideal measurement element P is banded (P[i][j] = 0 for |i - j| > 1)
# and 2-periodic away from the origin, so it is determined by six numbers:
# the (0,0) entry, the diagonal values on odd and on even >= 2 indices, and
# the two coupling entries on the pair offset it follows.  The series
# (1 - a^2) * sum_{i,j} a^(i+j) P[i][j] Q[i][j] then collapses to a handful
# of geometric sums with ratio a^4.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Banded:
    p00: float
    diag_even: float  # entries (i, i), i even >= 2
    diag_odd: float  # entries (i, i), i odd >= 1
    off_offset: int  # couplings live at (i, i+1) with i = off_offset mod 2
    off_upper: float
    off_lower: float


_ZERO_DESC = _Banded(0.0, 0.0, 0.0, 0, 0.0, 0.0)
_POINT00_DESC = _Banded(1.0, 0.0, 0.0, 0, 0.0, 0.0)


def _aligned_desc(block: np.ndarray) -> _Banded:
    return _Banded(
        p00=float(block[0, 0]),
        diag_even=float(block[0, 0]),
        diag_odd=float(block[1, 1]),
        off_offset=0,
        off_upper=float(block[0, 1]),
        off_lower=float(block[1, 0]),
    )


def _shifted_desc(block: np.ndarray) -> _Banded:
    return _Banded(
        p00=0.0,
        diag_even=float(block[1, 1]),
        diag_odd=float(block[0, 0]),
        off_offset=1,
        off_upper=float(block[0, 1]),
        off_lower=float(block[1, 0]),
    )


def _aligned_descs(obs: np.ndarray) -> list[_Banded]:
    plus, minus = _pm(obs)
    return [_aligned_desc(plus), _aligned_desc(minus), _ZERO_DESC]


def _shifted_descs(obs: np.ndarray) -> list[_Banded]:
    plus, minus = _pm(obs)
    return [_shifted_desc(minus), _shifted_desc(plus), _POINT00_DESC]


def _series_value(da: _Banded, db: _Banded, alpha: float) -> float:
    geo = 1.0 / (1.0 - alpha**4)
    val = da.p00 * db.p00
    val += alpha**2 * geo * da.diag_odd * db.diag_odd
    val += alpha**4 * geo * da.diag_even * db.diag_even
    if da.off_offset == db.off_offset:
        val += (
            alpha ** (2 * da.off_offset + 1)
            * geo
            * (da.off_upper * db.off_upper + da.off_lower * db.off_lower)
        )
    return (1.0 - alpha**2) * val


def exact_pstar(alpha: float, tol: float = 1e-12) -> Correlation:
    """The separating correlation itself, exact up to float rounding.

    The geometric series over the infinite-dimensional state is summed in
    closed form per question pair (one period of the banded measurement
    elements times 1/(1 - alpha^4), boundary terms added separately), so no
    truncation is involved; ``tol`` only bounds the accepted normalization
    defect of the assembled tables.
    """
    if not (0.0 < alpha < 1.0):
        raise SeparatingError(f"alpha must lie in (0, 1), got {alpha!r}")
    if tol <= 0.0:
        raise SeparatingError(f"tol must be positive, got {tol!r}")
    mu = params_from_alpha(alpha).mu
    alice = [
        _aligned_descs(SIGMA_Z),
        _aligned_descs(SIGMA_X),
        _shifted_descs(SIGMA_Z),
        _shifted_descs(SIGMA_X),
    ]
    bob = [
        _aligned_descs(tilted_sigma_z(mu)),
        _aligned_descs(tilted_sigma_x(mu)),
        _shifted_descs(tilted_sigma_z(mu)),
        _shifted_descs(tilted_sigma_x(mu)),
        _aligned_descs(SIGMA_Z),
    ]
    table = np.empty((NUM_ALICE_QUESTIONS, NUM_BOB_QUESTIONS, NUM_ANSWERS, NUM_ANSWERS))
    for x in range(NUM_ALICE_QUESTIONS):
        for y in range(NUM_BOB_QUESTIONS):
            for a in range(NUM_ANSWERS):
                for b in range(NUM_ANSWERS):
                    table[x, y, a, b] = _series_value(alice[x][a], bob[y][b], alpha)
    return Correlation(table, norm_tol=max(tol, 1e-12))


def printed_table(alpha: float, x: int, y: int) -> CorrelationTable:
    """Closed-form table for the question pairs that have one.

    Evaluates the direct-sum picture, tilted CHSH blocks carrying weights
    (C-1)/C and 1/C with C = 1/(1 - alpha^2), independently of the series
    summation in :func:`exact_pstar`, so the two routes cross-validate each
    other.  Shifted-pair questions carry the CHSH block with the 0/1 answer
    labels flipped.
    """
    if not (0.0 < alpha < 1.0):
        raise SeparatingError(f"alpha must lie in (0, 1), got {alpha!r}")
    if (x, y) not in PRINTED_PAIRS:
        raise SeparatingError(f"no closed-form table for question pair ({x},{y})")
    params = params_from_alpha(alpha)
    c = 1.0 / (1.0 - alpha**2)
    entries = np.zeros((NUM_ANSWERS, NUM_ANSWERS))
    if x in (0, 1) and y in (0, 1):
        chsh = ideal_table(params, x, y).entries
        entries[:2, :2] = chsh
    elif x in (2, 3) and y in (2, 3):
        chsh = ideal_table(params, x % 2, y % 2).entries
        w1 = (c - 1.0) / c
        for a in range(2):
            for b in range(2):
                entries[a, b] = w1 * chsh[1 - a, 1 - b]
        entries[2, 2] = 1.0 / c
    elif (x, y) == (0, 4):
        entries[0, 0] = (1.0 / c) / (1.0 - alpha**4)
        entries[1, 1] = (1.0 / c) * alpha**2 / (1.0 - alpha**4)
    elif (x, y) == (2, 4):
        entries[0, 0] = (1.0 / c) * (1.0 / (1.0 - alpha**4) - 1.0)
        entries[1, 1] = (1.0 / c) * alpha**2 / (1.0 - alpha**4)
        entries[2, 0] = 1.0 / c
    return CorrelationTable(x=x, y=y, entries=entries)


def truncation_distance(alpha: float, m: int, metric: str = "max_tv") -> float:
    """Distance between the exact correlation and its dimension-2m truncation."""
    exact = exact_pstar(alpha)
    truncated = induce(ideal_truncated_strategy(TruncationSpec(alpha=alpha, m=m)))
    return distance(exact, truncated, metric)  # type: ignore[arg-type]
