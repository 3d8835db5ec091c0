"""Finite-dimensional bipartite quantum strategies and their induced correlations.

A :class:`Strategy` is a shared pure state together with one projective
measurement per question on each side.  The joint state lives on
C^dA (x) C^dB with the Alice-major index layout ``i * dB + j``, and each
side's measurements are one array of layout (questions, answers, d, d);
every reshape in this package relies on these two conventions.  Mixed
states are excluded: purify before constructing a strategy.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .correlation import INDUCED_NORM_TOL, Correlation, _check_indices, _check_question_subset

__all__ = [
    "Strategy",
    "ValidationIssue",
    "ValidationReport",
    "StrategyError",
    "InvalidStrategyError",
    "induce",
    "validate",
    "projected_substate",
    "restrict_questions",
    "haar_unitary",
]

STATE_NORM_TOL = 1e-12
PROJECTOR_TOL = 1e-10


class StrategyError(ValueError):
    """Malformed strategy data or an operation on incompatible shapes."""


class InvalidStrategyError(StrategyError):
    """A strategy failed validation where a valid one is required."""

    def __init__(self, report: "ValidationReport"):
        super().__init__(f"invalid strategy: {report.summary()}")
        self.report = report


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _stored(values) -> np.ndarray:
    """``values`` as the read-only array a :class:`Strategy` holds.

    An array whose imaginary parts are all zero is stored as float64, any
    other as complex128.  A read-only array already in that form is kept as
    it is; anything else is copied.
    """
    arr = np.asarray(values)
    if arr.dtype.kind == "c" and not arr.imag.any():
        # a copy: the real part of a complex array is a strided view of it
        return _frozen(np.array(arr.real, dtype=float))
    dtype = complex if arr.dtype.kind == "c" else float
    if arr.dtype != dtype or arr.flags.writeable:
        arr = _frozen(np.array(arr, dtype=dtype))
    return arr


def _as_measurements(meas, dim: int, side: str) -> np.ndarray:
    """One side's elements as a read-only (questions, answers, dim, dim) array.

    Stored as :func:`_stored` says: float64 when every imaginary part is
    zero, complex128 otherwise.
    """
    if len(meas) == 0:
        raise StrategyError(f"{side} needs at least one question")
    if not isinstance(meas, np.ndarray):
        counts = sorted({len(q) for q in meas})
        if len(counts) != 1:
            raise StrategyError(f"{side} questions disagree on answer count: {counts}")
    try:
        meas = _stored(meas)
    except ValueError as exc:
        raise StrategyError(f"{side} measurement elements differ in shape") from exc
    if meas.ndim != 4 or meas.shape[2:] != (dim, dim):
        raise StrategyError(
            f"{side} measurements have shape {meas.shape}, "
            f"expected (questions, answers, {dim}, {dim})"
        )
    if meas.shape[1] == 0:
        raise StrategyError(f"{side} questions need at least one answer")
    return meas


@dataclass(frozen=True, eq=False)
class Strategy:
    """Pure state plus per-question projective measurements for both parties.

    The constructor checks shapes only; the numeric invariants (unit norm,
    Hermitian idempotent elements, completeness) are the job of
    :func:`validate`, so that deliberately broken strategies can be built and
    flagged.  ``state`` is read-only of length dA*dB; ``alice_meas`` and
    ``bob_meas`` are read-only arrays of shape (m, r, dA, dA) and
    (n, s, dB, dB); nested sequences are accepted.  Each array is float64
    when its imaginary parts are all zero and complex128 otherwise, so a
    real strategy runs on real BLAS and LAPACK through the same code.
    """

    dA: int
    dB: int
    state: np.ndarray
    alice_meas: np.ndarray
    bob_meas: np.ndarray

    def __post_init__(self) -> None:
        if self.dA < 1 or self.dB < 1:
            raise StrategyError(f"dimensions must be positive: ({self.dA},{self.dB})")
        state = _frozen(_stored(self.state).reshape(-1))
        if state.size != self.dA * self.dB:
            raise StrategyError(
                f"state length {state.size} != dA*dB = {self.dA * self.dB}"
            )
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "alice_meas", _as_measurements(self.alice_meas, self.dA, "alice"))
        object.__setattr__(self, "bob_meas", _as_measurements(self.bob_meas, self.dB, "bob"))

    @property
    def m(self) -> int:
        return self.alice_meas.shape[0]

    @property
    def n(self) -> int:
        return self.bob_meas.shape[0]

    @property
    def r(self) -> int:
        return self.alice_meas.shape[1]

    @property
    def s(self) -> int:
        return self.bob_meas.shape[1]

    def state_matrix(self) -> np.ndarray:
        """State as a dA x dB coefficient matrix (Alice-major layout)."""
        return self.state.reshape(self.dA, self.dB)

    def to_json(self) -> str:
        """What ``json.dumps(..., sort_keys=True)`` writes for ``dA``, ``dB`` and each array
        as nested [re, im] pairs, built without a tree of Python floats (:func:`_spliced`)."""
        return "".join(_json_chunks(self))

    @classmethod
    def from_json(cls, text: str) -> "Strategy":
        """Read what :meth:`to_json` writes, or any JSON object with the same fields.

        ``json`` parses the object around the arrays, :func:`_read_array` each
        array, so every array must be a regular array of numbers, and ``dA``
        and ``dB`` must be JSON integers.  Malformed input raises
        :class:`StrategyError`, a ``ValueError``.
        """
        head, spans = _split_arrays(text)
        try:
            data = json.loads(head)
        except json.JSONDecodeError as exc:
            raise StrategyError(f"strategy file is not JSON: {exc.msg}") from None
        if spans is None:
            raise StrategyError("strategy arrays must hold numbers only")
        raw = text.encode("ascii", "replace")  # a byte per character, so the spans hold
        arrays = [_read_array(raw[start:end]) for start, end in spans]
        try:
            dA, dB = data["dA"], data["dB"]
            fields = [arrays[data[key][0]] for key in ("state", "alice_meas", "bob_meas")]
        except (LookupError, TypeError) as exc:
            raise StrategyError(f"not a strategy file: missing or malformed field ({exc!r})") from None
        if type(dA) is not int or type(dB) is not int:
            raise StrategyError(f"not a strategy file: dA and dB must be JSON integers, not {dA!r}, {dB!r}")
        state, alice, bob = map(_pairs_to_complex, fields)
        return cls(dA=dA, dB=dB, state=state, alice_meas=alice, bob_meas=bob)


# what json writes for the floats whose repr it does not use
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_ZERO_PAIR = "[0.0, 0.0]"
_ZERO_WORDS = np.ndarray(2, dtype="<u8", buffer=_ZERO_PAIR.encode(), strides=(2,))  # its bytes 0-7 and 2-9
_JOINED = 1 << 12  # pieces per string the writer yields
_SAMPLE = 1 << 16  # bytes of an array the reader looks at to choose its path


def _json_chunks(s: Strategy) -> Iterator[str]:
    """The text of :meth:`Strategy.to_json` in pieces, keys in ``sort_keys`` order; the CLI writes them as they come."""
    yield '{"alice_meas": '
    yield from _spliced(s.alice_meas)
    yield ', "bob_meas": '
    yield from _spliced(s.bob_meas)
    yield f', "dA": {json.dumps(s.dA)}, "dB": {json.dumps(s.dB)}, "state": '
    yield from _spliced(s.state)
    yield "}"


def _spellings(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """json's spelling of each distinct float64 bit pattern in ``values`` (so -0.0 keeps its own), and each entry's index into it."""
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    distinct = bits.view(float)
    spelled = list(map(repr, distinct.tolist()))
    for k in np.flatnonzero(~np.isfinite(distinct)).tolist():
        spelled[k] = _JSON_NONFINITE[spelled[k]]
    return spelled, inverse


def _spliced(arr: np.ndarray) -> Iterator[str]:
    """``arr`` as ``json.dumps`` writes its nested [re, im] pairs.

    That is the text of an all-+0.0 array of its shape, with json's spelling
    put in at the offset of each pair whose parts are not both bitwise +0.0.
    Each distinct part is spelled once.  A gap between adjacent pairs is the
    ``"]" * k + ", " + "[" * k`` of its length; the others are slices of the
    zeros.  Pieces are yielded ``_JOINED`` at a time.
    """
    zeros, steps = _ZERO_PAIR, []
    for dim in reversed(arr.shape):
        steps.insert(0, len(zeros) + 2)  # from one sub-array to the next
        zeros = f"[{', '.join([zeros] * dim)}]"
    flat = arr.reshape(-1)
    nonzero = np.flatnonzero(flat.real.view(np.uint64) | flat.imag.view(np.uint64))
    offsets = sum(index * step + 1 for index, step in zip(np.unravel_index(nonzero, arr.shape), steps))
    # gap k runs from the "]" of the pair before pair k (or the start) to the "[" of pair k (or the end)
    starts = np.concatenate(([0], offsets + len(_ZERO_PAIR) - 1))
    ends = np.concatenate((offsets + 1, [len(zeros)]))
    seps = np.array(["]" * k + ", " + "[" * k for k in range(len(arr.shape) + 1)], dtype=object)
    gaps = seps[np.minimum((ends - starts - 2) // 2, len(arr.shape))].tolist()
    for k in np.flatnonzero(np.diff(nonzero, prepend=-2, append=-2) != 1).tolist():
        gaps[k] = zeros[starts[k] : ends[k]]
    parts = flat[nonzero]
    real, real_at = _spellings(parts.real)
    imag, imag_at = _spellings(parts.imag)
    pieces: list[str] = [""] * (3 * len(nonzero) + 1)
    pieces[::3] = gaps
    pieces[1::3] = np.array(real, dtype=object)[real_at].tolist()
    pieces[2::3] = np.array([", " + x for x in imag], dtype=object)[imag_at].tolist()
    for start in range(0, len(pieces), _JOINED):
        yield "".join(pieces[start : start + _JOINED])


_NEXT_TOKEN = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|\[', re.DOTALL)
_OPENING = re.compile(rb"\[*")
_IRREGULAR = "strategy data must be uniform nested [re, im] pairs of numbers in float range"
# the bytes of JSON's numbers, brackets, commas and whitespace
_ARRAY_BYTES = b"0123456789.eE+-NaInfity[], \t\n\r"


def _split_arrays(text: str) -> tuple[str, list[tuple[int, int]] | None]:
    """``text`` with its k-th array replaced by ``[k]``, and the arrays' spans.

    Strings are skipped whole.  An array of numbers holds no string or
    object, so it runs from its ``[`` to the last ``]`` before the next
    ``"``, ``{`` or ``}``.  Spans are None when an array holds anything else;
    the text is then left for ``json`` to judge from that array on.
    """
    pieces, spans, pos, done = [], [], 0, 0
    while (match := _NEXT_TOKEN.search(text, pos)) is not None:
        pos = match.end()
        if match.group() != "[":
            continue
        start = pos - 1
        stop = min((i for i in (text.find(c, start) for c in '"{}') if i >= 0), default=len(text))
        end = text.rfind("]", start, stop) + 1
        if end == 0:
            return "".join(pieces) + text[done:], None
        pieces += [text[done:start], f"[{len(spans)}]"]
        spans.append((start, end))
        pos = done = end
    return "".join(pieces) + text[done:], spans


def _read_array(raw: bytes) -> np.ndarray:
    """One array of a strategy file as [re, im] pairs, bitwise as ``np.asarray(json.loads(raw), dtype=float)``.

    :func:`_written_pairs` reads what :func:`_spliced` writes, and its pairs
    are taken only when the writer's text for them is ``raw`` byte for byte:
    the writer writes ``json.dumps``'s bytes, so ``json`` reads ``raw`` the
    same.  :func:`_json_array` reads any other text.
    """
    pairs = _written_pairs(raw)
    if pairs is not None and "".join(_spliced(pairs.view(complex)[..., 0])).encode() == raw:
        return pairs
    return _json_array(raw)


def _written_pairs(raw: bytes) -> np.ndarray | None:
    """The pairs of ``raw`` if it is laid out as :func:`_spliced` writes them, mostly ``[0.0, 0.0]``; unchecked.

    The shape below the top comes from the first runs of closing brackets,
    the top from the count of innermost lists, and ``json`` reads, in one
    call, only the innermost lists not spelled exactly ``[0.0, 0.0]``.  None
    where the layout is another, where the text is shorter than the zeros of
    its shape, or where zeros fill less than half its first ``_SAMPLE``
    bytes or half its pairs: ``json`` reads that faster whole.
    """
    depth = _OPENING.match(raw).end()
    zero = _ZERO_PAIR.encode()
    if not 2 <= depth <= 64 or 2 * len(zero) * raw.count(zero, 0, _SAMPLE) < min(len(raw), _SAMPLE):
        return None
    shape: list[int] = []
    for closed in range(2, depth):
        # the first sub-array with this many levels ends at the first run of as many "]"
        end = raw.find(b"]" * closed)
        if end < 0:
            return None
        shape.insert(0, raw.count(b"]" * (closed - 1) + b", ", depth - closed, end) + 1)
    text = np.frombuffer(raw, dtype=np.uint8)
    starts = np.flatnonzero(text == ord("["))
    if starts[-1] + len(zero) > len(raw):
        return None
    starts = starts[text[starts + 1] != ord("[")]
    top, rest = divmod(len(starts), math.prod(shape))
    length = len(zero)  # of the zeros of shape (top, *shape), which the check builds
    for dim in (top, *shape)[::-1]:
        length = dim * (length + 2)
    if rest or length > len(raw):
        return None
    words = np.ndarray(len(raw) - 7, dtype="<u8", buffer=raw, strides=(1,))  # eight bytes from each offset
    nonzero = np.flatnonzero((words[starts] != _ZERO_WORDS[0]) | (words[starts + 2] != _ZERO_WORDS[1]))
    if 2 * len(nonzero) > len(starts):
        return None
    picked = b", ".join([raw[k : raw.find(b"]", k) + 1] for k in starts[nonzero].tolist()])
    pairs = np.zeros((len(starts), 2))
    try:
        pairs[nonzero] = json.loads(b"[%b]" % picked)
    except (TypeError, ValueError, OverflowError, RecursionError):
        return None
    return pairs.reshape(top, *shape, 2)


def _json_array(raw: bytes) -> np.ndarray:
    """``raw`` as ``np.asarray(json.loads(raw), dtype=float)`` reads it, a quarter faster, or :class:`StrategyError`.

    Bytes other than JSON's numbers, brackets, commas and whitespace are
    refused first: ``np.asarray`` would read ``true`` or ``"0.5"`` as a
    number.  The lists are then checked and flattened level by level.
    """
    if raw.translate(None, _ARRAY_BYTES):
        raise StrategyError("strategy arrays must hold numbers only")
    collecting = gc.isenabled()
    gc.disable()  # json builds no cycles; collections over a dense array's lists took a fifth of its read
    try:
        shape, level = [], [json.loads(raw)]
        while level and type(level[0]) is list:
            lengths = set(map(len, level))
            shape.append(lengths.pop())
            if lengths:
                raise StrategyError(_IRREGULAR)
            level = list(itertools.chain.from_iterable(level))
        return np.array(level, dtype=float).reshape(shape)
    except json.JSONDecodeError as exc:
        raise StrategyError(f"strategy array is not JSON: {exc.msg}") from None
    except (TypeError, ValueError, OverflowError, RecursionError):
        raise StrategyError(_IRREGULAR) from None
    finally:
        if collecting:
            gc.enable()


def _pairs_to_complex(arr: np.ndarray) -> np.ndarray:
    # read-only, so the constructor keeps the array, or stores a real copy
    # of it when every imaginary part is zero
    if arr.ndim < 2 or arr.shape[-1] != 2:
        raise StrategyError(_IRREGULAR)
    return _frozen(arr.view(complex)[..., 0])


@dataclass(frozen=True)
class ValidationIssue:
    kind: str  # state_norm | hermitian | idempotent | completeness | orthogonality
    side: str | None
    question: int | None
    answers: tuple[int, ...] | None
    residual: float

    def describe(self) -> str:
        where = ""
        if self.side is not None:
            where = f" [{self.side} x={self.question}"
            if self.answers is not None:
                where += f" a={','.join(map(str, self.answers))}"
            where += "]"
        return f"{self.kind}{where}: residual {self.residual:.3e}"


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    @property
    def max_residual(self) -> float:
        # np.max, unlike max, returns NaN whenever a residual is NaN
        return float(np.max([i.residual for i in self.issues], initial=0.0))

    def summary(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(issue.describe() for issue in self.issues)


def validate(s: Strategy) -> ValidationReport:
    """Report every broken strategy invariant with its Frobenius residual.

    An empty report means the strategy is valid: unit-norm state, Hermitian
    idempotent measurement elements, per-question completeness, and mutual
    orthogonality of elements belonging to the same question, at
    ``STATE_NORM_TOL`` and ``PROJECTOR_TOL``.  A residual that is not
    ``<=`` its tolerance is an issue, so a NaN residual is one.

    From dimension ``_BLOCKED_FROM`` on, a question whose elements share more
    than one diagonal block (:func:`_diagonal_blocks`, read from the exact
    nonzero pattern) and whose entries are all finite is checked block by
    block: every product and difference is exactly zero off the blocks, so
    each squared residual is the sum of its blocks' squared residuals, equal
    to the full one up to rounding.  Every other question takes the products
    of its full elements, bit for bit as before; so does one holding a NaN or
    an infinity, whose inf * 0 = nan reaches past its blocks.
    """
    sides = []
    for side, meas in (("A", s.alice_meas), ("B", s.bob_meas)):
        questions, answers, dim = meas.shape[:3]
        pairs = list(itertools.combinations(range(answers), 2))
        herm, idem = np.empty((questions, answers)), np.empty((questions, answers))
        complete, ortho = np.empty(questions), np.empty((questions, len(pairs)))
        eye = np.eye(dim)
        for x, elements in enumerate(meas):
            blocked = _block_residuals(elements, pairs) if dim >= _BLOCKED_FROM else None
            if blocked is not None:
                herm[x], idem[x], complete[x], ortho[x] = blocked
                continue
            # products element by element: the stacked forms (a transpose over the
            # stack, fancy-indexed pairs) copy more and measured slower at D = 256
            for a, proj in enumerate(elements):
                herm[x, a] = np.linalg.norm(proj - proj.conj().T)
                idem[x, a] = np.linalg.norm(proj @ proj - proj)
            complete[x] = np.linalg.norm(elements.sum(axis=0) - eye)
            for k, (a, a2) in enumerate(pairs):
                ortho[x, k] = np.linalg.norm(elements[a] @ elements[a2])
        sides.append((side, herm, idem, complete, ortho))
    return _report(abs(float(np.linalg.norm(s.state)) - 1.0), sides)


# the dimension from which validate multiplies inside diagonal blocks; below
# it the full products cost less than finding the blocks (BENCH_42.json
# `percall`: the truncation's 4 x 5 questions gain from D = 64, its 2 x 2 from 72)
_BLOCKED_FROM = 80

# On the truncation at D = 256, _diagonal_blocks and _block_residuals make no
# array under 1 KiB whose length grows with D or with the block count: numpy
# keeps such freed buffers for reuse, and one first taken high on the heap can
# keep the heap from shrinking (perfbench certify-ladder's peak RSS read
# 116 MB, not 101 MB).


def _diagonal_blocks(elements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The contiguous diagonal blocks of one question's elements, as start and size arrays.

    A block is a shortest run of indices that no nonzero entry of any element
    links to an index outside it.  Entries are compared with 0 exactly, so a
    NaN or a 1e-300 links its row and column, and each element is zero
    outside the blocks.
    """
    dim = elements.shape[-1]
    linked = (elements != 0).any(axis=0)
    np.fill_diagonal(linked, True)
    first = np.argmax(linked, axis=1)
    last = dim - 1 - np.argmax(linked[:, ::-1], axis=1)
    # links over the cut after i: from a row up to i past i, or from a row after i back to i or before
    over = np.maximum.accumulate(last) - np.arange(dim)
    over[:-1] += np.arange(1, dim) - np.minimum.accumulate(first[::-1])[-2::-1]
    stop = np.flatnonzero(np.equal(over, 0, out=linked[0])) + 1  # into a row of linked, not a new mask
    start = np.concatenate(([0], stop[:-1]))
    return start, stop - start


def _block_residuals(elements: np.ndarray, pairs: list[tuple[int, int]]) -> tuple | None:
    """One question's Hermitian, idempotent, completeness and orthogonality residuals,
    in :func:`validate`'s layout, from the products inside its diagonal blocks.

    None when the question has one block, or when a block holds a NaN or an
    infinity.  Blocks of one size are gathered into one (answers, blocks,
    size, size) stack.
    """
    start, size = _diagonal_blocks(elements)
    if len(start) == 1:
        return None
    answers = len(elements)
    herm, idem, complete, ortho = np.zeros(answers), np.zeros(answers), 0.0, np.zeros(len(pairs))
    first, second = np.array(pairs, dtype=int).reshape(-1, 2).T
    start = start[np.argsort(size, kind="stable")]
    done = 0
    for k, count in sorted(Counter(size.tolist()).items()):
        at = start[done : done + count, None] + np.arange(k)
        done += count
        blocks = elements[:, at[:, :, None], at[:, None, :]]
        if not np.isfinite(blocks).all():
            return None
        herm += _squared(blocks - blocks.conj().swapaxes(-1, -2))
        idem += _squared(blocks @ blocks - blocks)
        complete += _squared(blocks.sum(axis=0) - np.eye(k))
        ortho += _squared(blocks[first] @ blocks[second])
    return np.sqrt(herm), np.sqrt(idem), np.sqrt(complete), np.sqrt(ortho)


def _squared(stack: np.ndarray) -> np.ndarray:
    """The squared Frobenius norm summed over the last three axes, (..., blocks, size, size)."""
    return (stack * stack.conj()).real.sum(axis=(-3, -2, -1))


def _report(state_norm: float, sides) -> ValidationReport:
    """The issues among the residuals :func:`validate` measures, in its order.

    ``sides`` holds (side, hermitian, idempotent, completeness, orthogonality)
    per party: residuals per (question, answer), per question, and per
    (question, answer pair in ``itertools.combinations`` order).
    """
    issues: list[ValidationIssue] = []

    def check(kind, side, x, answers, residual, tol=PROJECTOR_TOL):
        if not residual <= tol:
            issues.append(ValidationIssue(kind, side, x, answers, float(residual)))

    check("state_norm", None, None, None, state_norm, STATE_NORM_TOL)
    for side, herm, idem, complete, ortho in sides:
        pairs = list(itertools.combinations(range(herm.shape[1]), 2))
        for x in range(len(herm)):
            for a in range(herm.shape[1]):
                check("hermitian", side, x, (a,), herm[x, a])
                check("idempotent", side, x, (a,), idem[x, a])
            check("completeness", side, x, None, complete[x])
            for k, pair in enumerate(pairs):
                check("orthogonality", side, x, pair, ortho[x, k])
    return ValidationReport(tuple(issues))


def _atom_image(vecs: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    # <v| A_x^a (x) B_y^b |v> in (x, a, y, b) order, for a (batch, k, d*e)
    # stack of vectors, each against its batch row's (questions, answers, d, d)
    # measurements: with V = v as d x e, p = sum_lj (V^+ A_x^a V)[l,j] (B_y^b)[l,j]
    (num, k), d, e = vecs.shape[:2], alice.shape[-1], bob.shape[-1]
    mat = vecs.reshape(num, k, 1, d, e)
    local = mat.conj().swapaxes(-1, -2) @ alice.reshape(num, 1, -1, d, d) @ mat
    probs = local.reshape(num, -1, e * e) @ bob.reshape(num, -1, e * e).swapaxes(1, 2)
    return probs.reshape(num, k, -1)


def induce(s: Strategy, check: bool = True) -> Correlation:
    """Correlation induced by a strategy: p(a,b|x,y) = <psi| A_x^a (x) B_y^b |psi>.

    Computed by :func:`_atom_image` one Alice question at a time, so no
    temporary outgrows one question's stack.

    The strategy must pass :func:`validate`.  Imaginary parts of the inner
    products are asserted below 1e-10 and discarded.
    """
    if check:
        report = validate(s)
        if not report.ok:
            raise InvalidStrategyError(report)
    table = np.stack([_atom_image(s.state[None, None], q[None, None], s.bob_meas[None])[0, 0]
                      for q in s.alice_meas])
    worst_imag = float(np.abs(table.imag).max())
    if worst_imag > 1e-10:
        raise StrategyError(
            f"induced probabilities have imaginary part {worst_imag:.3e} > 1e-10"
        )
    table = table.real.reshape(s.m, s.r, s.n, s.s).transpose(0, 2, 1, 3)
    return Correlation(table, norm_tol=INDUCED_NORM_TOL)


def projected_substate(
    s: Strategy, side: str, question: int, answers: Iterable[int]
) -> np.ndarray:
    """Apply the summed answer projector on one side: (sum_a Pi^a (x) I)|psi>.

    The result is unnormalized; its squared norm is the probability mass the
    given answers carry on that question.  The question and the answers are
    integers (numpy's pass, floats raise) and the answers distinct, else
    :class:`StrategyError`.
    """
    if side not in ("A", "B"):
        raise StrategyError(f"side must be 'A' or 'B', got {side!r}")
    meas = s.alice_meas if side == "A" else s.bob_meas
    (question,) = _check_indices([question], len(meas), "question", StrategyError)
    answers = _check_indices(answers, meas.shape[1], "answers", StrategyError)
    proj = meas[question, answers].sum(axis=0)
    psi = s.state_matrix()
    out = proj @ psi if side == "A" else psi @ proj.T
    return out.reshape(-1)


def restrict_questions(s: Strategy, xs: Sequence[int], ys: Sequence[int]) -> Strategy:
    """Keep only the given distinct questions on each side (state and answers unchanged).

    Questions are checked as :func:`correlation.restrict` checks them, but raise :class:`StrategyError`.
    """
    xs = _check_question_subset(xs, s.m, "alice", StrategyError)
    ys = _check_question_subset(ys, s.n, "bob", StrategyError)
    return Strategy(
        dA=s.dA,
        dB=s.dB,
        state=s.state,
        alice_meas=_frozen(s.alice_meas[xs]),
        bob_meas=_frozen(s.bob_meas[ys]),
    )


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def _random_measurements(
    rng: np.random.Generator, dim: int, questions: int, answers: int
) -> np.ndarray:
    """Haar-random projective measurements, (questions, answers, dim, dim).

    Eigenspace dimensions are split as evenly as possible over the answers;
    when there are more answers than dimensions the trailing answers get zero
    projectors (still a valid projective measurement).
    """
    sizes = [dim // answers + (1 if i < dim % answers else 0) for i in range(answers)]
    out = np.empty((questions, answers, dim, dim), dtype=complex)
    for x in range(questions):
        u = haar_unitary(rng, dim)
        col = 0
        for a, size in enumerate(sizes):
            block = u[:, col : col + size]
            out[x, a] = block @ block.conj().T
            col += size
    return out
