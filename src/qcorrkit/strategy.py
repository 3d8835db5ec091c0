"""Finite-dimensional bipartite quantum strategies and their induced correlations.

A :class:`Strategy` is a shared pure state together with one projective
measurement per question on each side.  The joint state lives on
C^dA (x) C^dB with the Alice-major index layout ``i * dB + j``, and each
side's measurements are one array of layout (questions, answers, d, d);
every reshape in this package relies on these two conventions.  Mixed
states are excluded: purify before constructing a strategy.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .correlation import Correlation

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
    "direct_sum_strategies",
    "random_strategy",
    "haar_unitary",
    "STATE_NORM_TOL",
    "PROJECTOR_TOL",
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
        as nested [re, im] pairs, built without a tree of Python floats."""
        return "".join(_json_chunks(self))

    @classmethod
    def from_json(cls, text: str) -> "Strategy":
        """Read what :meth:`to_json` writes, or any JSON object with the same fields.

        The object around the arrays is parsed by ``json``; each array's
        shape is read from its skeleton and its numbers by ``json`` into one
        float array (:func:`_parse_array`), so every array in the text must be
        a regular array of numbers.  Malformed input, an integer beyond float
        range included, raises :class:`StrategyError`, a ``ValueError``.
        """
        head, spans = _split_arrays(text)
        try:
            data = json.loads(head)
        except json.JSONDecodeError as exc:
            raise StrategyError(f"strategy file is not JSON: {exc.msg}") from None
        if spans is None:
            raise StrategyError("strategy arrays must hold numbers only")
        arrays = [_parse_array(text[start:end].encode("ascii", "replace")) for start, end in spans]
        try:
            dA, dB = int(data["dA"]), int(data["dB"])
            fields = [arrays[data[key][0]] for key in ("state", "alice_meas", "bob_meas")]
        except (LookupError, TypeError, ValueError, OverflowError) as exc:
            raise StrategyError(f"not a strategy file: missing or malformed field ({exc!r})") from None
        state, alice, bob = map(_pairs_to_complex, fields)
        return cls(dA=dA, dB=dB, state=state, alice_meas=alice, bob_meas=bob)


# what json writes for the floats whose repr it does not use
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_BLOCK = 1 << 12  # entries the writer takes at once: 32 KiB per float64 temporary


def _json_chunks(s: Strategy) -> Iterator[str]:
    """The text of :meth:`Strategy.to_json` in pieces of at most one row of pairs.

    Keys come in ``sort_keys`` order.  The CLI writes the pieces as they come,
    so the whole text is never held at once.
    """
    yield '{"alice_meas": '
    yield from _array_chunks(s.alice_meas)
    yield ', "bob_meas": '
    yield from _array_chunks(s.bob_meas)
    yield f', "dA": {json.dumps(s.dA)}, "dB": {json.dumps(s.dB)}, "state": '
    yield from _array_chunks(s.state)
    yield "}"


def _spellings(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """json's spelling of each distinct float64 bit pattern in ``values``, and each entry's index into it.

    Bits, not values, are compared, so that -0.0 keeps its own spelling.
    """
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    distinct = bits.view(float)
    spelled = list(map(repr, distinct.tolist()))
    for k in np.flatnonzero(~np.isfinite(distinct)).tolist():
        spelled[k] = _JSON_NONFINITE[spelled[k]]
    return spelled, inverse


def _pair_spellings(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Each distinct [re, im] pair of ``values`` as json spells it, and each entry's index into them."""
    real, index = _spellings(values.real.reshape(-1))
    if values.dtype.kind == "f":  # every imaginary part is +0.0
        return [f"[{x}, 0.0]" for x in real], index
    imag, index_im = _spellings(values.imag.reshape(-1))
    codes, index = np.unique(index * len(imag) + index_im, return_inverse=True)
    which_re, which_im = np.divmod(codes, len(imag))
    return [f"[{real[a]}, {imag[b]}]" for a, b in zip(which_re.tolist(), which_im.tolist())], index


def _array_chunks(arr: np.ndarray) -> Iterator[str]:
    """``arr`` as ``json.dumps`` writes its nested [re, im] pairs, one row of pairs per piece.

    Rows are taken about ``_BLOCK`` entries at a time, so every temporary
    stays small.  Within a block each distinct pair is spelled once, and the
    rows are joined from those spellings, with the brackets and ", " that
    ``json`` puts between rows.  Every axis is nonempty, as the constructor
    requires.
    """
    outer, width = arr.shape[:-1], arr.shape[-1]
    # rows per sub-array at each depth below the top, innermost first
    spans = np.cumprod(outer[::-1], dtype=int)[:-1].tolist()
    seps = ["]" * depth + ", " + "[" * depth for depth in range(len(outer))]
    rows = arr.reshape(-1, width)
    step = max(1, _BLOCK // width)
    for start in range(0, len(rows), step):
        pairs, index = _pair_spellings(rows[start : start + step])
        for k, row in enumerate(np.array(pairs, dtype=object)[index.reshape(-1, width)], start):
            lead = seps[sum(k % span == 0 for span in spans)] if k else "[" * len(outer)
            yield f"{lead}[{', '.join(row)}]"
    yield "]" * len(outer)


# A strategy array holds numbers, brackets, commas and JSON whitespace; its
# skeleton is what remains once number characters and whitespace are dropped.
# Once the skeleton is regular, json reads the rest as flat lists of numbers.
_SKELETON_DROP = b"0123456789.eE+-NaInfity \t\n\r"
_BLANK_BRACKETS = bytes.maketrans(b"[]", b"  ")
_NEXT_TOKEN = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|\[', re.DOTALL)
_IRREGULAR = "strategy data must be uniform nested [re, im] pairs"
_NOT_ONE_NUMBER = "strategy arrays must hold one JSON number per entry"
_PIECE = 1 << 15  # bytes per json.loads: each list stays under glibc's mmap threshold


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


def _first_path_shape(skeleton: bytes) -> tuple[int, ...]:
    """Shape of a regular array with this skeleton, read along its first path."""
    depth = len(skeleton) - len(skeleton.lstrip(b"["))
    if depth > 64:
        raise StrategyError("strategy arrays nest deeper than 64 levels")
    shape = []
    for closed in range(1, depth + 1):
        end = skeleton.find(b"]" * closed)
        shape.append(skeleton.count(b"]" * (closed - 1) + b",", depth - closed, max(end, 0)) + 1)
    return tuple(shape[::-1])


def _is_regular(skeleton: bytes, shape: tuple[int, ...]) -> bool:
    """Whether ``skeleton`` is that of a regular array of this shape, built by repetition."""
    regular = b""
    for dim in shape[::-1]:
        if dim * (len(regular) + 1) + 1 > len(skeleton):
            return False
        regular = b"[" + b",".join([regular] * dim) + b"]"
    return regular == skeleton


def _parse_array(raw: bytes) -> np.ndarray:
    """A JSON array of numbers, regular at every depth, as a float array.

    The shape comes from the first path through the array and is proved by
    comparing skeletons.  ``json`` reads the text with its brackets blanked,
    in pieces cut at commas, into one preallocated array; the entries filled
    are counted, since a trailing comma on a cut leaves an empty piece.
    Values are bitwise those of ``np.asarray(json.loads(raw), dtype=float)``.
    """
    skeleton = raw.translate(None, _SKELETON_DROP)
    shape = _first_path_shape(skeleton)
    if not _is_regular(skeleton, shape):
        raise StrategyError(_IRREGULAR)
    flat = raw.translate(_BLANK_BRACKETS)
    values = np.empty(int(np.prod(shape)))
    filled = start = 0
    try:
        while start <= len(flat):
            cut = flat.find(b",", start + _PIECE)
            cut = len(flat) if cut < 0 else cut
            piece = json.loads(b"[%b]" % flat[start:cut])
            values[filled : filled + len(piece)] = piece
            filled += len(piece)
            start = cut + 1
    except ValueError:
        raise StrategyError(_NOT_ONE_NUMBER) from None
    except OverflowError:
        raise StrategyError("strategy arrays hold an integer beyond float range") from None
    if filled != values.size:
        raise StrategyError(_NOT_ONE_NUMBER)
    return values.reshape(shape)


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
    """
    issues: list[ValidationIssue] = []

    def check(kind, side, x, answers, residual, tol=PROJECTOR_TOL):
        if not residual <= tol:
            issues.append(ValidationIssue(kind, side, x, answers, residual))

    check("state_norm", None, None, None, abs(float(np.linalg.norm(s.state)) - 1.0), STATE_NORM_TOL)
    for side, meas in (("A", s.alice_meas), ("B", s.bob_meas)):
        eye = np.eye(meas.shape[-1])
        # products element by element: the stacked forms (a transpose over the
        # stack, fancy-indexed pairs) copy more and measured slower at D = 256
        for x, elements in enumerate(meas):
            for a, proj in enumerate(elements):
                check("hermitian", side, x, (a,), float(np.linalg.norm(proj - proj.conj().T)))
                check("idempotent", side, x, (a,), float(np.linalg.norm(proj @ proj - proj)))
            check("completeness", side, x, None, float(np.linalg.norm(elements.sum(axis=0) - eye)))
            for a, a2 in itertools.combinations(range(len(elements)), 2):
                ortho = float(np.linalg.norm(elements[a] @ elements[a2]))
                check("orthogonality", side, x, (a, a2), ortho)
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
    return Correlation(table, norm_tol=1e-10)


def projected_substate(
    s: Strategy, side: str, question: int, answers: Iterable[int]
) -> np.ndarray:
    """Apply the summed answer projector on one side: (sum_a Pi^a (x) I)|psi>.

    The result is unnormalized; its squared norm is the probability mass the
    given answers carry on that question.
    """
    if side not in ("A", "B"):
        raise StrategyError(f"side must be 'A' or 'B', got {side!r}")
    meas = s.alice_meas if side == "A" else s.bob_meas
    if not (0 <= question < len(meas)):
        raise StrategyError(f"question {question} out of range({len(meas)})")
    answers = [int(a) for a in answers]
    if any(not (0 <= a < meas.shape[1]) for a in answers):
        raise StrategyError(f"answers {answers} out of range({meas.shape[1]})")
    proj = meas[question, answers].sum(axis=0)
    psi = s.state_matrix()
    out = proj @ psi if side == "A" else psi @ proj.T
    return out.reshape(-1)


def restrict_questions(s: Strategy, xs: Sequence[int], ys: Sequence[int]) -> Strategy:
    """Keep only the given questions on each side (state and answers unchanged)."""
    xs = [int(x) for x in xs]
    ys = [int(y) for y in ys]
    if not xs or not ys:
        raise StrategyError("question subsets must be nonempty")
    if any(not (0 <= x < s.m) for x in xs) or any(not (0 <= y < s.n) for y in ys):
        raise StrategyError(f"question subsets ({xs},{ys}) out of range")
    return Strategy(
        dA=s.dA,
        dB=s.dB,
        state=s.state,
        alice_meas=_frozen(s.alice_meas[xs]),
        bob_meas=_frozen(s.bob_meas[ys]),
    )


def direct_sum_strategies(blocks: Sequence[tuple[float, Strategy]]) -> Strategy:
    """Embed strategies block-diagonally with contiguous answer ranges.

    The combined state is the weighted orthogonal sum of the block states
    (weight w contributes amplitude sqrt(w)); each block's answers keep their
    declaration order.  Inducing the result gives the direct sum of the
    induced block correlations with the same weights.
    """
    if not blocks:
        raise StrategyError("direct_sum_strategies requires at least one block")
    weights = [float(w) for w, _ in blocks]
    parts = [s for _, s in blocks]
    if any(w < 0.0 for w in weights):
        raise StrategyError("weights must be nonnegative")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise StrategyError(f"weights must sum to 1, got {sum(weights)!r}")
    if any((s.m, s.n) != (parts[0].m, parts[0].n) for s in parts):
        raise StrategyError("blocks must share question counts")
    psi = np.zeros((sum(s.dA for s in parts), sum(s.dB for s in parts)),
                   dtype=np.result_type(*(s.state for s in parts)))
    oa = ob = 0
    for w, s in zip(weights, parts):
        psi[oa : oa + s.dA, ob : ob + s.dB] = np.sqrt(w) * s.state_matrix()
        oa += s.dA
        ob += s.dB
    return Strategy(
        dA=oa,
        dB=ob,
        state=psi.reshape(-1),
        alice_meas=_block_embed([s.alice_meas for s in parts]),
        bob_meas=_block_embed([s.bob_meas for s in parts]),
    )


def _block_embed(sides: Sequence[np.ndarray]) -> np.ndarray:
    """Block-diagonal embedding of one side's elements, answer ranges contiguous."""
    dim = sum(meas.shape[-1] for meas in sides)
    answers = sum(meas.shape[1] for meas in sides)
    out = np.zeros((sides[0].shape[0], answers, dim, dim), dtype=np.result_type(*sides))
    a0 = o = 0
    for meas in sides:
        r, d = meas.shape[1:3]
        out[:, a0 : a0 + r, o : o + d, o : o + d] = meas
        a0 += r
        o += d
    return _frozen(out)


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

    Eigenspace dimensions are split over the answers as in :func:`random_strategy`.
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


def random_strategy(
    rng: np.random.Generator,
    dA: int = 2,
    dB: int = 2,
    m: int = 2,
    n: int = 2,
    r: int = 2,
    s: int = 2,
) -> Strategy:
    """Haar-random pure state with random projective measurements.

    Eigenspace dimensions are split as evenly as possible over the answers;
    when there are more answers than dimensions the trailing answers get zero
    projectors (still a valid projective measurement).
    """
    state = rng.normal(size=dA * dB) + 1j * rng.normal(size=dA * dB)
    state /= np.linalg.norm(state)
    return Strategy(
        dA=dA,
        dB=dB,
        state=state,
        alice_meas=_random_measurements(rng, dA, m, r),
        bob_meas=_random_measurements(rng, dB, n, s),
    )
