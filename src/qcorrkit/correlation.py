"""Bipartite correlation tables and operations that build, split, and compare them.

The central object is :class:`Correlation`: the full conditional probability
table p(a, b | x, y) over finite question sets (sizes ``m``, ``n``) and answer
sets (sizes ``r``, ``s``).  Correlations are checked for a weighted block
structure over disjoint answer blocks, restrict to question subsets, and
compare under a max-total-variation or Euclidean metric.  Values are
immutable after construction and all operations are pure, so they are safe
to share across threads.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

__all__ = [
    "Correlation",
    "CorrelationTable",
    "BlockSpec",
    "BlockCheckFailure",
    "BlockCheckResult",
    "CorrelationError",
    "block_structure_check",
    "restrict",
    "distance",
]

# Entries slightly below zero are float noise from inner products; anything
# worse than this is treated as a genuine invariant violation.
NEGATIVE_CLAMP = 1e-14
DEFAULT_NORM_TOL = 1e-12
# what strategy.validate allows a valid strategy: induce builds to it, files are read at it
INDUCED_NORM_TOL = 1e-10

Metric = Literal["max_tv", "l2"]


class CorrelationError(ValueError):
    """A probability table violates a correlation invariant."""


def _clean_probabilities(arr: np.ndarray, norm_tol: float, what: str) -> np.ndarray:
    """Refuse non-finite entries, clamp tiny negatives to zero and check per-table normalization."""
    finite = np.isfinite(arr)
    if not finite.all():
        idx = tuple(map(int, np.unravel_index(int(np.argmin(finite)), arr.shape)))
        raise CorrelationError(f"{what} has non-finite entry {float(arr[idx])!r} at index {idx}")
    if np.any(arr < -NEGATIVE_CLAMP):
        idx = tuple(map(int, np.unravel_index(int(np.argmin(arr)), arr.shape)))
        raise CorrelationError(f"{what} has negative entry {arr[idx]:.3e} at index {idx}")
    arr = np.where(arr < 0.0, 0.0, arr)
    sums = arr.sum(axis=(-2, -1))
    worst = float(np.max(np.abs(sums - 1.0)))
    if not worst <= norm_tol:
        raise CorrelationError(
            f"{what} is not normalized: max |sum - 1| = {worst:.3e} > {norm_tol:.1e}"
        )
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Correlation:
    """Conditional distribution p(a, b | x, y) stored as an (m, n, r, s) array.

    Each (x, y) slice is a probability table over answer pairs: entries are
    nonnegative (values within ``NEGATIVE_CLAMP`` of zero are clamped at
    construction) and sum to one within ``norm_tol``.
    """

    table: np.ndarray
    norm_tol: float = DEFAULT_NORM_TOL

    def __post_init__(self) -> None:
        arr = np.array(self.table, dtype=float)
        if arr.ndim != 4:
            raise CorrelationError(
                f"correlation table must be 4-dimensional, got shape {arr.shape}"
            )
        if min(arr.shape) < 1:
            raise CorrelationError(f"empty question or answer axis: {arr.shape}")
        arr = _clean_probabilities(arr, self.norm_tol, "correlation table")
        object.__setattr__(self, "table", arr)

    @property
    def m(self) -> int:
        return self.table.shape[0]

    @property
    def n(self) -> int:
        return self.table.shape[1]

    @property
    def r(self) -> int:
        return self.table.shape[2]

    @property
    def s(self) -> int:
        return self.table.shape[3]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.table.shape  # type: ignore[return-value]

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "r": self.r,
            "s": self.s,
            "table": self.table.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Correlation":
        """Read what :meth:`to_dict` writes, normalized to ``INDUCED_NORM_TOL``; malformed data,
        a header that is not a JSON integer or an entry that is not a number, raises :class:`CorrelationError`."""
        try:
            table = np.asarray(data["table"], dtype=object)
            expected = (data["m"], data["n"], data["r"], data["s"])
            if any(type(k) is not int for k in expected) or any(
                    type(v) is bool or not isinstance(v, (int, float)) for v in table.flat):
                raise TypeError("m, n, r and s must be JSON integers and the entries JSON numbers")
            arr = table.astype(float)
        except (LookupError, TypeError, ValueError, OverflowError) as exc:
            raise CorrelationError(f"not a correlation: missing or malformed field ({exc!r})") from None
        if arr.shape != expected:
            raise CorrelationError(
                f"table shape {arr.shape} disagrees with header {expected}"
            )
        return cls(arr, norm_tol=INDUCED_NORM_TOL)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Correlation":
        return cls.from_dict(json.loads(text))

    def to_csv(self) -> str:
        """One row per (x, y, a, b, value), header included."""
        rows = ([*index, repr(float(value))] for index, value in np.ndenumerate(self.table))
        return _csv(["x", "y", "a", "b", "p"], rows)


def _csv(header: list[str], rows: Iterable[list]) -> str:
    """The CSV text of ``header`` and ``rows``, each line ending in a bare newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """A single r x s probability table attached to a question pair."""

    x: int
    y: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2:
            raise CorrelationError(f"table entries must be a matrix, got {arr.shape}")
        arr = _clean_probabilities(arr, DEFAULT_NORM_TOL, f"table ({self.x},{self.y})")
        object.__setattr__(self, "entries", arr)


def _normalize_partition(partition: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    classes = []
    seen: set[int] = set()
    for cls in partition:
        members = tuple(sorted(int(a) for a in cls))
        if not members:
            raise CorrelationError("partition classes must be nonempty")
        if len(set(members)) != len(members) or seen & set(members):
            raise CorrelationError("partition classes must be disjoint")
        seen.update(members)
        classes.append(members)
    return tuple(classes)


@dataclass(frozen=True)
class BlockSpec:
    """Answer-set partitions for a direct sum.

    The partitions must have the same number of classes on both sides; whether
    they cover the answer sets of a particular correlation is checked at the
    point of use.
    """

    alice_partition: tuple[tuple[int, ...], ...]
    bob_partition: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        ap = _normalize_partition(self.alice_partition)
        bp = _normalize_partition(self.bob_partition)
        if len(ap) != len(bp):
            raise CorrelationError(
                f"partitions must have the same block count: {len(ap)} != {len(bp)}"
            )
        object.__setattr__(self, "alice_partition", ap)
        object.__setattr__(self, "bob_partition", bp)

    @property
    def num_blocks(self) -> int:
        return len(self.alice_partition)


def _check_partition_covers(partition: tuple[tuple[int, ...], ...], size: int, side: str) -> None:
    flat = sorted(a for cls in partition for a in cls)
    if flat != list(range(size)):
        raise CorrelationError(
            f"{side} partition {partition} is not a partition of range({size})"
        )


@dataclass(frozen=True)
class BlockCheckFailure:
    """The first entry or weight that breaks the block structure, named in ``detail``."""

    kind: str  # "cross_block_mass" | "weight_variation"
    value: float
    detail: str


@dataclass(frozen=True, eq=False)
class BlockCheckResult:
    ok: bool
    weights: tuple[float, ...] | None
    blocks: tuple[Correlation | None, ...] | None
    failure: BlockCheckFailure | None


def block_structure_check(p: Correlation, spec: BlockSpec, tol: float = 1e-9) -> BlockCheckResult:
    """Test whether ``p`` is a direct sum over the given answer partitions.

    On success, recovers the block weights (the in-block mass, which must be
    constant over question pairs within ``tol``) and the normalized
    sub-correlations.  Blocks with weight <= tol carry no sub-correlation.
    On failure, returns the offending entry instead.
    """
    _check_partition_covers(spec.alice_partition, p.r, "alice")
    _check_partition_covers(spec.bob_partition, p.s, "bob")
    # cells[i][j]: Alice's answer block i against Bob's block j, for every question pair
    cells = [[p.table[:, :, list(a_cls)][:, :, :, list(b_cls)] for b_cls in spec.bob_partition]
             for a_cls in spec.alice_partition]

    for i, a_cls in enumerate(spec.alice_partition):
        for j, b_cls in enumerate(spec.bob_partition):
            if i == j:
                continue
            sub = cells[i][j]
            worst = float(sub.max(initial=0.0))
            if not worst <= tol:
                x, y, ia, ib = np.unravel_index(int(np.argmax(sub)), sub.shape)
                fail = BlockCheckFailure(
                    kind="cross_block_mass",
                    value=worst,
                    detail=(
                        f"cross-block entry p({a_cls[ia]},{b_cls[ib]}|{x},{y}) = "
                        f"{worst!r} exceeds tol {tol!r}"
                    ),
                )
                return BlockCheckResult(False, None, None, fail)

    masses = np.array([row[i].sum(axis=(2, 3)) for i, row in enumerate(cells)])
    weights = masses.mean(axis=(1, 2))
    dev = np.abs(masses - weights[:, None, None])
    if not float(dev.max()) <= tol:
        i, x, y = np.unravel_index(int(np.argmax(dev)), dev.shape)
        value = float(masses[i, x, y])
        fail = BlockCheckFailure(
            kind="weight_variation",
            value=value,
            detail=(
                f"block {i} weight {value!r} at questions ({x},{y}) "
                f"deviates from mean {float(weights[i])!r} beyond tol {tol!r}"
            ),
        )
        return BlockCheckResult(False, None, None, fail)

    blocks: list[Correlation | None] = []
    for i, w in enumerate(weights):
        if w <= tol:
            blocks.append(None)
            continue
        # Per-table mass may differ from the mean weight by up to tol.
        sub_tol = max(DEFAULT_NORM_TOL, 4.0 * tol / w)
        blocks.append(Correlation(cells[i][i] / w, norm_tol=sub_tol))
    return BlockCheckResult(True, tuple(float(w) for w in weights), tuple(blocks), None)


def _check_question_subset(subset: Sequence[int], size: int, side: str) -> list[int]:
    xs = [int(v) for v in subset]
    if not xs:
        raise CorrelationError(f"{side} question subset must be nonempty")
    if len(set(xs)) != len(xs):
        raise CorrelationError(f"{side} question subset has duplicates: {xs}")
    if any(not (0 <= v < size) for v in xs):
        raise CorrelationError(f"{side} question subset {xs} out of range({size})")
    return xs


def restrict(p: Correlation, xs: Sequence[int], ys: Sequence[int]) -> Correlation:
    """Keep only the given questions on each side; answer sets are unchanged."""
    xs = _check_question_subset(xs, p.m, "alice")
    ys = _check_question_subset(ys, p.n, "bob")
    return Correlation(p.table[np.ix_(xs, ys)], norm_tol=p.norm_tol)


def distance(p: Correlation, q: Correlation, metric: Metric = "max_tv") -> float:
    """Distance between two correlations of identical shape.

    ``max_tv``: the largest total-variation distance over question pairs.
    ``l2``: the Euclidean norm of the entrywise difference across all tables.
    """
    if p.shape != q.shape:
        raise CorrelationError(f"shape mismatch: {p.shape} != {q.shape}")
    diff = p.table - q.table
    if metric == "max_tv":
        return float(0.5 * np.abs(diff).sum(axis=(2, 3)).max())
    if metric == "l2":
        return float(np.sqrt((diff**2).sum()))
    raise CorrelationError(f"unknown metric {metric!r}")

