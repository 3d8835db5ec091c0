"""Strategies: validation, induced correlations, projectors, substates, serialization."""

import functools
import itertools
import json
import re
from typing import Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qcorrkit import strategy
from qcorrkit.correlation import CorrelationError, distance, restrict
from qcorrkit.separating import TruncationSpec, exact_pstar, ideal_truncated_strategy
from qcorrkit.strategy import (
    PROJECTOR_TOL,
    InvalidStrategyError,
    Strategy,
    StrategyError,
    haar_unitary,
    induce,
    projected_substate,
    _read_array,
    _split_arrays,
    restrict_questions,
    validate,
)
from qcorrkit.tilted_chsh import ideal_strategy, params_from_alpha, params_from_beta

from conftest import direct_sum_strategies, kron_induce, random_strategy

seeds = st.integers(0, 2**32 - 1)


@st.composite
def unequal_dims(draw):
    """(dA, dB) from 1..4 with dA != dB."""
    dA = draw(st.integers(1, 4))
    return dA, (dA - 1 + draw(st.integers(1, 3))) % 4 + 1


def reference_json(s: Strategy) -> str:
    """Serialize element by element, entry by entry, as [re, im] pairs."""

    def pairs(values):
        return [[float(v.real), float(v.imag)] for v in values]

    def side(meas):
        return [[[pairs(row) for row in elem] for elem in question] for question in meas]

    data = {
        "dA": s.dA,
        "dB": s.dB,
        "state": pairs(s.state),
        "alice_meas": side(s.alice_meas),
        "bob_meas": side(s.bob_meas),
    }
    return json.dumps(data, sort_keys=True)


# floats whose JSON spelling or bits are easy to get wrong
EDGE_FLOATS = [
    0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -2.5e-310,
    2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e22, 1e-5, 0.1, 0.5,
]
FIELDS = ("state", "alice_meas", "bob_meas")


@st.composite
def extreme_strategies(draw):
    """Strategies whose entries are arbitrary float64 bits, edge values favoured."""
    dA, dB = draw(unequal_dims())
    m, n, r, s = (draw(st.integers(1, 2)) for _ in range(4))
    floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(width=64))

    def entries(shape):
        out = np.empty(shape, dtype=complex)
        out.real = draw(arrays(np.float64, shape, elements=floats))
        out.imag = draw(arrays(np.float64, shape, elements=floats))
        return out

    return Strategy(dA, dB, entries(dA * dB), entries((m, r, dA, dA)), entries((n, s, dB, dB)))


# valid JSON numbers that Strategy.to_json never writes, next to ones it does
NUMBER_SPELLINGS = st.one_of(
    st.sampled_from([
        "1", "-0", "0", "-12", "1e-5", "-1E+2", "2.5e0", "1e05", "-3.0e-05", "-0.0", "-0e0", "0.0",
        "123456789012345678901", "NaN", "Infinity", "-Infinity", "1e400", "-1e-400", "4.9e-324",
    ]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map("{:.17e}".format),
)


# what a truncated strategy's file mostly holds, json's other spellings of zero, and 0.0 in whitespace
ZERO_SPELLINGS = st.sampled_from(
    ["0.0"] * 6 + ["-0.0", "0", "-0", "0.00", "0e0", " 0.0 ", "\t0.0", "0.0\n", "\r\n 0.0\t"]
)


@st.composite
def strategy_texts(draw):
    """Strategy JSON in layouts, key orders and number spellings to_json never writes.

    Half the texts are sparse: about two entries in three are zeros from
    ``ZERO_SPELLINGS``, and an array may hold nothing else.
    """
    sparse = draw(st.booleans())
    dA, dB = draw(unequal_dims())
    m, n, r, s = (draw(st.integers(1, 2)) for _ in range(4))
    spellings: list[str] = []
    numbers = st.one_of(ZERO_SPELLINGS, ZERO_SPELLINGS, NUMBER_SPELLINGS) if sparse else NUMBER_SPELLINGS

    def entries(shape):
        size = int(np.prod(shape)) * 2
        spellings.extend(draw(st.lists(numbers, min_size=size, max_size=size)))
        marks = [f"@{k}@" for k in range(len(spellings) - size, len(spellings))]
        return np.array(marks, dtype=object).reshape(shape + (2,)).tolist()

    fields = {"dA": dA, "dB": dB, "state": entries((dA * dB,)),
              "alice_meas": entries((m, r, dA, dA)), "bob_meas": entries((n, s, dB, dB))}
    order = draw(st.permutations(list(fields)))
    layout = draw(st.sampled_from([
        {}, {"indent": 2}, {"separators": (",", ":")}, {"indent": "\t", "separators": (" ,", " : ")},
    ]))
    text = json.dumps({key: fields[key] for key in order}, **layout)
    return re.sub(r'"@(\d+)@"', lambda mark: spellings[int(mark[1])], text)


def json_oracle(text: str) -> list[np.ndarray]:
    """The arrays of a strategy file as json + numpy read them: [re, im] as a last axis."""
    data = json.loads(text)
    return [np.asarray(data[key], dtype=float) for key in FIELDS]


def reader_arrays(text: str) -> list[np.ndarray]:
    """The arrays of a strategy file as the reader parses them, by field, before a strategy keeps them.

    A strategy stores an array whose imaginary parts are all zero as real, so
    a signed zero there is compared only here.
    """
    head, spans = _split_arrays(text)
    arrays = [_read_array(text[start:end].encode("ascii")) for start, end in spans]
    return [arrays[json.loads(head)[key][0]] for key in FIELDS]


def as_pairs(arr: np.ndarray) -> np.ndarray:
    return np.stack([arr.real, arr.imag], axis=-1)


def assert_bitwise(got: np.ndarray, want: np.ndarray, nan_bits: bool = True) -> None:
    """Equal shapes and bits; with ``nan_bits=False`` any NaN matches any NaN."""
    assert got.shape == want.shape
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    if not nan_bits:
        assert np.array_equal(np.isnan(got), np.isnan(want))
        got, want = got[~np.isnan(got)], want[~np.isnan(want)]
    assert got.tobytes() == want.tobytes()


def base_text() -> str:
    return random_strategy(np.random.default_rng(3), dA=2, dB=3, m=2, n=2, r=2, s=2).to_json()


_NUMBER = r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?"


def _edit(pattern: str, replacement: str):
    def mutate(text: str, k: int) -> str:
        spots = list(re.finditer(pattern, text))
        spot = spots[k % len(spots)]
        return text[: spot.start()] + replacement + text[spot.end() :]

    return mutate


MUTATIONS = {
    "drop [": _edit(r"\[", ""),
    "drop ]": _edit(r"\]", ""),
    "extra [": _edit(r"\[", "[["),
    "extra ]": _edit(r"\]", "]]"),
    "doubled comma": _edit(",", ",,"),
    "trailing comma": _edit(r"\]", ", ]"),
    "missing comma": _edit(", ", " "),
    "empty list": _edit(r"\[[^\[\]]*\]", "[]"),
    "missing number": _edit(_NUMBER, ""),
    "two numbers": _edit(_NUMBER, "0.5 0.5"),
    "string entry": _edit(_NUMBER, '"0.5"'),
    "true entry": _edit(_NUMBER, "true"),
    **{f"number {bad}": _edit(_NUMBER, bad) for bad in (
        "1.", ".5", "+1", "01", "-01", "1.e5", "nan", "inf", "-inf", "infinity", "Inf", "NAN",
        "-NaN", "+Infinity", "--1", "1e", "1e+", "0x10", "1-2",
    )},
}


# bytes between the commas the "at cuts" tests edit next to, so that the edits spread
# through a long array
CUT_SPACING = 1 << 15


@functools.lru_cache(maxsize=None)
def cut_text() -> str:
    """A strategy file whose measurement arrays each span four ``CUT_SPACING`` cuts."""
    return random_strategy(np.random.default_rng(3), dA=24, dB=24).to_json()


@functools.lru_cache(maxsize=None)
def zeros_text(m: int = 2) -> str:
    """A truncated strategy's file, mostly ``0.0``; at m = 12 each measurement array spans three cuts or more."""
    return ideal_truncated_strategy(TruncationSpec(0.9, m)).to_json()


def expect_as_json(text: str) -> type[Exception]:
    """What the reader must raise on a mutated ``text``: ValueError where json refuses it, else StrategyError."""
    try:
        json.loads(text)
    except ValueError:
        return ValueError
    return StrategyError


def cut_commas(text: str) -> list[list[int]]:
    """For each array of ``text``, the first comma at least ``CUT_SPACING`` on from the last, from its start."""
    cuts = []
    for start, end in _split_arrays(text)[1]:
        cuts.append([])
        while (comma := text.find(",", start + CUT_SPACING, end)) >= 0:
            cuts[-1].append(comma)
            start = comma + 1
    return cuts


def mutate_near(mutate, text: str, comma: int, place: str) -> str:
    """``text`` with one ``mutate`` edit at ``comma``, or the one just before or after it.

    An edit is placed by the first character it changes, and "at" is the
    edit closest to the comma.  Edits are made in the whole entries from
    four commas before to four after, so no pattern matches part of a number.
    """
    lo = hi = comma
    for _ in range(4):
        lo, hi = text.rfind(",", 0, lo), text.find(",", hi + 1)
    lo += 1
    window = text[lo:hi]
    edits = {}
    for k in range(len(window)):
        edited = mutate(window, k)
        at = next((i for i, (c, e) in enumerate(zip(window, edited)) if c != e), len(window))
        edits.setdefault(lo + at, edited)
    at = min(edits, key=lambda i: abs(i - comma))
    if place == "before":
        at = max(i for i in edits if i < at)
    elif place == "after":
        at = min(i for i in edits if i > at)
    return text[:lo] + edits[at] + text[hi:]


@st.composite
def cut_strategy_texts(draw):
    """Strategy JSON with dA = dB = 24 whose measurement arrays span at least three cuts.

    Three entries in four keep their to_json spelling, which keeps those
    arrays long enough; the rest take spellings from a small drawn pool.
    """
    rng = np.random.default_rng(draw(seeds))
    pool = draw(st.lists(NUMBER_SPELLINGS, min_size=1, max_size=6))
    layout = draw(st.sampled_from([{}, {"indent": 2}, {"separators": (",", ":")}]))
    s = random_strategy(rng, dA=24, dB=24)
    pairs = [as_pairs(getattr(s, key)) for key in FIELDS]
    values = np.concatenate([arr.ravel() for arr in pairs])
    keep = rng.random(values.size) < 0.75
    picks = rng.integers(len(pool), size=values.size)
    spellings = [repr(v) if k else pool[i] for v, k, i in zip(values.tolist(), keep, picks)]
    marks = np.array([f"@{k}@" for k in range(values.size)], dtype=object)
    parts = np.split(marks, np.cumsum([arr.size for arr in pairs])[:-1])
    fields = {key: part.reshape(arr.shape).tolist() for key, part, arr in zip(FIELDS, parts, pairs)}
    text = json.dumps({"dA": 24, "dB": 24, **fields}, **layout)
    return re.sub(r'"@(\d+)@"', lambda mark: spellings[int(mark[1])], text)


def product_deterministic_strategy(m=2, n=2, r=2, s=2):
    eye1 = [np.eye(1, dtype=complex)]
    alice = [[np.eye(1, dtype=complex) if a == 0 else np.zeros((1, 1), complex) for a in range(r)] for _ in range(m)]
    bob = [[np.eye(1, dtype=complex) if b == 0 else np.zeros((1, 1), complex) for b in range(s)] for _ in range(n)]
    return Strategy(dA=1, dB=1, state=np.array([1.0 + 0j]), alice_meas=alice, bob_meas=bob)


class TestConstruction:
    def test_layout(self, rng):
        s = random_strategy(rng, dA=2, dB=3, m=2, n=4, r=3, s=2)
        assert s.alice_meas.shape == (2, 3, 2, 2) and s.bob_meas.shape == (4, 2, 3, 3)
        assert s.alice_meas.dtype == complex and not s.alice_meas.flags.writeable
        assert s.state.dtype == s.bob_meas.dtype == np.complex128
        assert (s.m, s.n, s.r, s.s) == (2, 4, 3, 2)

    def test_ragged_answer_counts_rejected(self):
        eye, zero = np.eye(2), np.zeros((2, 2))
        with pytest.raises(StrategyError, match="disagree on answer count"):
            Strategy(2, 2, [1, 0, 0, 0], [[eye, zero], [eye]], [[eye]])

    def test_ragged_json_rejected(self):
        data = json.loads(ideal_strategy(params_from_beta(0.5)).to_json())
        del data["bob_meas"][1][0]
        with pytest.raises(StrategyError):
            Strategy.from_json(json.dumps(data))

    def test_element_shapes_checked(self):
        with pytest.raises(StrategyError, match="differ in shape"):
            Strategy(2, 2, [1, 0, 0, 0], [[np.eye(2), np.eye(3)]], [[np.eye(2)]])
        with pytest.raises(StrategyError, match="expected"):
            Strategy(2, 2, [1, 0, 0, 0], [[np.eye(3)]], [[np.eye(2)]])
        with pytest.raises(StrategyError, match="at least one question"):
            Strategy(2, 2, [1, 0, 0, 0], [], [[np.eye(2)]])

    def test_question_without_answers_rejected(self):
        # its file would hold "alice_meas": [[]], which from_json cannot read back
        with pytest.raises(StrategyError, match="alice questions need at least one answer"):
            Strategy(2, 2, np.ones(4) / 2, np.zeros((1, 0, 2, 2)), np.zeros((1, 1, 2, 2)))
        with pytest.raises(StrategyError, match="bob questions need at least one answer"):
            Strategy(2, 2, np.ones(4) / 2, np.zeros((1, 1, 2, 2)), np.zeros((2, 0, 2, 2)))

    def test_writeable_input_copied_not_frozen(self, rng):
        s = random_strategy(rng, dA=2, dB=2)
        alice = np.array(s.alice_meas)
        t = Strategy(2, 2, s.state, alice, s.bob_meas)
        assert alice.flags.writeable
        assert not np.shares_memory(t.alice_meas, alice)
        alice[0, 0] = 0.0
        assert np.array_equal(t.alice_meas, s.alice_meas)

    def test_read_only_complex_input_kept(self, rng):
        s = random_strategy(rng, dA=2, dB=2)
        t = Strategy(2, 2, s.state, s.alice_meas, s.bob_meas)
        assert t.alice_meas is s.alice_meas and t.bob_meas is s.bob_meas

    def test_exactly_real_arrays_stored_as_float(self):
        s = ideal_strategy(params_from_beta(0.5))
        assert s.state.dtype == s.alice_meas.dtype == s.bob_meas.dtype == np.float64
        t = Strategy(2, 2, s.state, s.alice_meas, s.bob_meas)
        assert np.shares_memory(t.state, s.state)
        assert t.alice_meas is s.alice_meas and t.bob_meas is s.bob_meas
        # a complex array whose imaginary parts are all +-0 is stored real, by copy
        alice = np.array(s.alice_meas, dtype=complex)
        alice.imag = -0.0
        alice.setflags(write=False)
        u = Strategy(2, 2, s.state.astype(complex), alice, s.bob_meas)
        assert u.state.dtype == u.alice_meas.dtype == np.float64
        assert u.alice_meas.flags.c_contiguous and not u.alice_meas.flags.writeable
        assert u.alice_meas.tobytes() == s.alice_meas.tobytes()
        alice = np.array(alice)
        alice[0, 0, 0, 1] = 1e-300j
        assert Strategy(2, 2, s.state, alice, s.bob_meas).alice_meas.dtype == np.complex128


class TestValidate:
    def test_ideal_strategy_clean(self):
        report = validate(ideal_strategy(params_from_beta(0.7)))
        assert report.ok
        assert report.summary() == "valid"

    def test_scaled_projector_flagged(self):
        s = ideal_strategy(params_from_beta(0.0))
        alice = [list(q) for q in s.alice_meas]
        alice[0][0] = 1.01 * alice[0][0]
        broken = Strategy(2, 2, s.state, alice, s.bob_meas)
        report = validate(broken)
        kinds = {i.kind for i in report.issues}
        assert "idempotent" in kinds and "completeness" in kinds
        idem = [i for i in report.issues if i.kind == "idempotent"][0]
        assert idem.residual == pytest.approx(
            0.01 * np.linalg.norm(s.alice_meas[0][0]), rel=0.05
        )

    def test_dropped_element_flagged(self):
        s = ideal_strategy(params_from_beta(0.0))
        bob = [list(q) for q in s.bob_meas]
        missing = bob[1][1]
        bob[1][1] = np.zeros((2, 2), complex)
        report = validate(Strategy(2, 2, s.state, s.alice_meas, bob))
        comp = [i for i in report.issues if i.kind == "completeness"]
        assert len(comp) == 1
        assert comp[0].residual == pytest.approx(np.linalg.norm(missing))

    def test_denormalized_state_flagged(self):
        s = ideal_strategy(params_from_beta(0.0))
        report = validate(Strategy(2, 2, 1.05 * s.state, s.alice_meas, s.bob_meas))
        assert [i.kind for i in report.issues] == ["state_norm"]

    def test_overlapping_projectors_flagged(self):
        proj = np.array([[1, 0], [0, 0]], dtype=complex)
        meas = [[proj, proj + np.array([[0, 0], [0, 1]], complex)]]
        report = validate(Strategy(2, 2, [1, 0, 0, 0], meas * 1, meas * 1))
        assert "orthogonality" in {i.kind for i in report.issues}

    def test_nan_state_flagged(self):
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=2))
        report = validate(Strategy(s.dA, s.dB, np.full(s.state.shape, np.nan), s.alice_meas, s.bob_meas))
        assert [i.kind for i in report.issues] == ["state_norm"]
        assert not report.ok and np.isnan(report.max_residual)

    def test_nan_projector_entries_flagged(self):
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=2))
        alice = np.where(s.alice_meas == 1.0, np.nan, s.alice_meas)
        report = validate(Strategy(s.dA, s.dB, s.state, alice, s.bob_meas))
        assert not report.ok and np.isnan(report.max_residual)
        assert {i.side for i in report.issues} == {"A"}
        assert {"hermitian", "idempotent", "completeness"} <= {i.kind for i in report.issues}

    def test_random_strategies_valid(self, rng):
        for _ in range(20):
            dims = rng.integers(1, 5, size=2)
            s = random_strategy(
                rng, dA=int(dims[0]), dB=int(dims[1]), m=2, n=3, r=3, s=2
            )
            assert validate(s).ok


BLOCKED_FROM = strategy._BLOCKED_FROM
# |blocked - full| <= BLOCK_RTOL * |full| + BLOCK_ATOL per residual: the two
# paths form the same in-block entries, up to the order BLAS adds them in
BLOCK_RTOL, BLOCK_ATOL = 1e-13, 1e-14


def per_element_residuals(s: Strategy) -> list:
    """``validate``'s residual arrays as it computed them before blocking: every product on the full elements."""
    sides = []
    for side, meas in (("A", s.alice_meas), ("B", s.bob_meas)):
        eye = np.eye(meas.shape[-1])
        pairs = list(itertools.combinations(range(meas.shape[1]), 2))
        herm, idem = np.empty(meas.shape[:2]), np.empty(meas.shape[:2])
        complete, ortho = np.empty(len(meas)), np.empty((len(meas), len(pairs)))
        for x, elements in enumerate(meas):
            for a, proj in enumerate(elements):
                herm[x, a] = np.linalg.norm(proj - proj.conj().T)
                idem[x, a] = np.linalg.norm(proj @ proj - proj)
            complete[x] = np.linalg.norm(elements.sum(axis=0) - eye)
            for k, (a, a2) in enumerate(pairs):
                ortho[x, k] = np.linalg.norm(elements[a] @ elements[a2])
        sides.append((side, herm, idem, complete, ortho))
    return sides


def validated_residuals(s: Strategy) -> tuple[list, strategy.ValidationReport]:
    """The residual arrays ``validate`` hands to its report, and the report."""
    seen, report = [], strategy._report

    def record(state_norm, sides):
        seen.extend(sides)
        return report(state_norm, sides)

    with mock.patch.object(strategy, "_report", record):
        return seen, validate(s)


def issue_keys(report) -> list:
    return [(i.kind, i.side, i.question, i.answers) for i in report.issues]


def assert_same_as_per_element(s: Strategy, exact: bool) -> None:
    """``validate`` reports the issues the per-element products give, in their order, with
    their residuals bit for bit (``exact``) or within the blocking bound."""
    expected = per_element_residuals(s)
    got, report = validated_residuals(s)
    want = strategy._report(abs(float(np.linalg.norm(s.state)) - 1.0), expected)
    assert issue_keys(report) == issue_keys(want)
    for (side, *arrays), (side_want, *arrays_want) in zip(got, expected, strict=True):
        assert side == side_want
        for arr, ref in zip(arrays, arrays_want, strict=True):
            if exact:
                np.testing.assert_array_equal(arr, ref)
            else:
                np.testing.assert_allclose(arr, ref, rtol=BLOCK_RTOL, atol=BLOCK_ATOL)


def block_diagonal_measurements(rng, dim: int, questions: int, answers: int, sizes: Sequence[int],
                                real: bool) -> np.ndarray:
    """Projective measurements whose questions are contiguous block-diagonal stacks.

    Each question cuts 0..dim into runs of lengths drawn from ``sizes`` (the
    last one cut short at dim); on each run a random orthogonal or unitary
    basis is shared out among the answers.
    """
    out = np.zeros((questions, answers, dim, dim), dtype=float if real else complex)
    for x in range(questions):
        start = 0
        while start < dim:
            k = min(int(rng.choice(sizes)), dim - start)
            basis = np.linalg.qr(rng.normal(size=(k, k)))[0] if real else haar_unitary(rng, k)
            owner = rng.integers(0, answers, size=k)
            for a in range(answers):
                cols = basis[:, owner == a]
                out[x, a, start : start + k, start : start + k] = cols @ cols.conj().T
            start += k
    return out


def perturbed(meas: np.ndarray, how: str, x: int, a: int) -> np.ndarray:
    """``meas`` with element (x, a) scaled, dropped, or added onto the next answer's, as in ``TestValidate``."""
    meas = meas.copy()
    if how == "scaled":
        meas[x, a] *= 1.001
    elif how == "dropped":
        meas[x, a] = 0
    elif how == "overlapping" and meas.shape[1] > 1:
        meas[x, (a + 1) % meas.shape[1]] += meas[x, a]
    return meas


def random_state(rng, size: int) -> np.ndarray:
    state = rng.normal(size=size)
    return state / np.linalg.norm(state)


class TestBlockedValidate:
    @given(seeds, st.sampled_from([(1, 12), (BLOCKED_FROM, BLOCKED_FROM + 12)]),
           st.sampled_from([(1, 12), (BLOCKED_FROM, BLOCKED_FROM + 12)]),
           st.booleans(), st.integers(1, 4), st.integers(1, 3),
           st.sampled_from(["valid", "scaled", "dropped", "overlapping"]))
    def test_matches_per_element_products(self, seed, alice_dims, bob_dims, real, max_block, answers, how):
        rng = np.random.default_rng(seed)
        dA, dB = int(rng.integers(*alice_dims, endpoint=True)), int(rng.integers(*bob_dims, endpoint=True))
        alice = block_diagonal_measurements(rng, dA, 2, answers, range(1, max_block + 1), real)
        bob = block_diagonal_measurements(rng, dB, 3, answers, range(1, max_block + 1), real)
        alice = perturbed(alice, how, int(rng.integers(2)), int(rng.integers(answers)))
        bob = perturbed(bob, how, int(rng.integers(3)), int(rng.integers(answers)))
        s = Strategy(dA, dB, random_state(rng, dA * dB), alice, bob)
        assert_same_as_per_element(s, exact=max(dA, dB) < BLOCKED_FROM)

    @pytest.mark.parametrize("layout", ["one block", "below the rule", "permuted"])
    @pytest.mark.parametrize("real", [True, False])
    def test_full_path_is_bit_for_bit(self, layout, real):
        rng = np.random.default_rng(7)
        dim = BLOCKED_FROM - 1 if layout == "below the rule" else BLOCKED_FROM + 4
        if layout == "one block":
            meas = strategy._random_measurements(rng, dim, 3, 3)
            meas = meas.real.copy() if real else meas
        else:
            meas = block_diagonal_measurements(rng, dim, 3, 3, (2, 4) if layout == "permuted" else (1, 2, 3, 4), real)
        if layout == "permuted":
            # even indices first, then odd: every block has both, so each stack joins into one
            perm = np.r_[0:dim:2, 1:dim:2]
            meas = meas[:, :, perm][:, :, :, perm]
            assert all(len(strategy._diagonal_blocks(elements)[0]) == 1 for elements in meas)
        meas = perturbed(meas, "scaled", 1, 2)
        s = Strategy(dim, dim, random_state(rng, dim * dim), meas, meas)
        assert not validate(s).ok
        assert_same_as_per_element(s, exact=True)

    def test_ideal_truncation_blocked(self):
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.95, m=BLOCKED_FROM // 2))
        for elements in s.alice_meas:
            start, size = strategy._diagonal_blocks(elements)
            assert set(size.tolist()) <= {1, 2} and len(start) > 1
        assert validate(s).ok
        assert_same_as_per_element(s, exact=False)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_takes_full_products(self, value):
        rng = np.random.default_rng(3)
        dim = BLOCKED_FROM
        meas = block_diagonal_measurements(rng, dim, 3, 3, (1, 2), real=True)
        meas[1, 0, 5, 5] = value
        s = Strategy(dim, dim, random_state(rng, dim * dim), meas, meas)
        with np.errstate(invalid="ignore"):  # inf - inf, as the per-element products meet it
            report = validate(s)
            assert not report.ok and not np.isfinite(report.max_residual)
            assert {(i.side, i.question) for i in report.issues} == {("A", 1), ("B", 1)}
            got, _ = validated_residuals(s)
            for (_, *arrays), (_, *arrays_want) in zip(got, per_element_residuals(s)):
                for arr, ref in zip(arrays, arrays_want):
                    np.testing.assert_array_equal(arr[1], ref[1])
            assert_same_as_per_element(s, exact=False)

    @pytest.mark.parametrize("entry, blocks", [
        ((1, 4), [(0, 6), (6, 2)]),
        ((5, 2), [(0, 2), (2, 4), (6, 2)]),
        ((7, 0), [(0, 8)]),
    ])
    def test_tiny_off_block_entry_merges_blocks(self, entry, blocks):
        elements = np.zeros((2, 8, 8))
        for start in range(0, 8, 2):
            elements[0, start : start + 2, start : start + 2] = 0.5
        elements[1] = np.eye(8) - elements[0]
        assert list(zip(*strategy._diagonal_blocks(elements))) == [(k, 2) for k in range(0, 8, 2)]
        elements[1][entry] = 1e-300
        start, size = strategy._diagonal_blocks(elements)
        assert list(zip(start.tolist(), size.tolist())) == blocks

    @pytest.mark.parametrize("value", [1e-300, 1e-6])
    def test_off_block_entry_is_checked(self, value):
        rng = np.random.default_rng(5)
        dim = BLOCKED_FROM + 2
        meas = block_diagonal_measurements(rng, dim, 2, 3, (1, 2), real=False)
        meas[0, 1, 3, dim - 4] = value
        s = Strategy(dim, dim, random_state(rng, dim * dim), meas, meas)
        assert validate(s).ok == (value < PROJECTOR_TOL)
        assert_same_as_per_element(s, exact=False)

    def test_one_answer_has_no_orthogonality_pairs(self):
        dim = BLOCKED_FROM
        meas = np.eye(dim)[None, None].repeat(2, axis=0)
        s = Strategy(dim, dim, random_state(np.random.default_rng(1), dim * dim), meas, meas)
        got, report = validated_residuals(s)
        assert report.ok and all(ortho.shape == (2, 0) for *_, ortho in got)
        broken = Strategy(dim, dim, s.state, perturbed(meas, "scaled", 1, 0), meas)
        assert {i.kind for i in validate(broken).issues} == {"idempotent", "completeness"}
        assert_same_as_per_element(broken, exact=False)


class TestInduce:
    def test_product_deterministic(self):
        p = induce(product_deterministic_strategy())
        assert np.all(p.table[:, :, 0, 0] == pytest.approx(1.0))

    def test_matches_kron_oracle(self, rng):
        for _ in range(5):
            s = random_strategy(rng, dA=3, dB=2, m=2, n=2, r=2, s=2)
            np.testing.assert_allclose(induce(s).table, kron_induce(s), atol=1e-12)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(1, 3),
    )
    def test_matches_kron_oracle_property(self, seed, dA, dB, m, n, r, s):
        strat = random_strategy(np.random.default_rng(seed), dA=dA, dB=dB, m=m, n=n, r=r, s=s)
        np.testing.assert_allclose(induce(strat).table, kron_induce(strat), atol=1e-12)

    def test_imaginary_part_guarded(self):
        # an element with an anti-Hermitian part gives <00|A (x) B|00> = 1j
        tilted = np.array([[1j, 0], [0, 1]])
        eye = np.eye(2)
        s = Strategy(2, 2, [1, 0, 0, 0], [[tilted]], [[eye]])
        with pytest.raises(StrategyError, match="imaginary part"):
            induce(s, check=False)

    def test_ideal_untilted_values(self):
        # diagonal (2+sqrt(2))/8, off-diagonal (2-sqrt(2))/8 on questions (0,0)
        p = induce(ideal_strategy(params_from_beta(0.0)))
        diag = (2.0 + np.sqrt(2.0)) / 8.0
        off = (2.0 - np.sqrt(2.0)) / 8.0
        np.testing.assert_allclose(p.table[0, 0], [[diag, off], [off, diag]], atol=1e-12)
        assert diag == pytest.approx(0.4267767, abs=1e-7)
        assert off == pytest.approx(0.0732233, abs=1e-7)

    def test_truncated_tracks_exact(self):
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=8))
        gap = distance(exact_pstar(0.5), induce(s), "max_tv")
        assert gap <= 1e-8

    def test_invalid_strategy_rejected(self):
        s = ideal_strategy(params_from_beta(0.0))
        broken = Strategy(2, 2, 1.05 * s.state, s.alice_meas, s.bob_meas)
        with pytest.raises(InvalidStrategyError):
            induce(broken)

    def test_local_unitary_invariance(self, rng):
        s = random_strategy(rng, dA=3, dB=3, m=2, n=2, r=3, s=3)
        base = induce(s)
        ua = haar_unitary(rng, 3)
        ub = haar_unitary(rng, 3)
        psi = ua @ s.state_matrix() @ ub.T
        alice = [[ua @ p @ ua.conj().T for p in q] for q in s.alice_meas]
        bob = [[ub @ p @ ub.conj().T for p in q] for q in s.bob_meas]
        rotated = induce(Strategy(3, 3, psi.reshape(-1), alice, bob))
        np.testing.assert_allclose(rotated.table, base.table, atol=1e-10)

    @given(seeds, unequal_dims(), st.integers(1, 3), st.integers(1, 3))
    def test_local_unitary_invariance_property(self, seed, dims, questions, answers):
        rng = np.random.default_rng(seed)
        dA, dB = dims
        s = random_strategy(rng, dA=dA, dB=dB, m=questions, n=answers, r=answers, s=questions)
        ua, ub = haar_unitary(rng, dA), haar_unitary(rng, dB)
        rotated = Strategy(
            dA,
            dB,
            (ua @ s.state_matrix() @ ub.T).reshape(-1),
            ua @ s.alice_meas @ ua.conj().T,
            ub @ s.bob_meas @ ub.conj().T,
        )
        np.testing.assert_allclose(induce(rotated).table, induce(s).table, atol=1e-12)

    def test_ancilla_padding_invariance(self, rng):
        s = random_strategy(rng, dA=2, dB=2, m=2, n=2, r=2, s=2)
        anc = rng.normal(size=3) + 1j * rng.normal(size=3)
        anc /= np.linalg.norm(anc)
        psi = np.kron(s.state_matrix(), anc.reshape(1, 3))  # ancilla on Bob
        eye3 = np.eye(3)
        bob = [[np.kron(p, eye3) for p in q] for q in s.bob_meas]
        padded = Strategy(2, 6, psi.reshape(-1), s.alice_meas, bob)
        np.testing.assert_allclose(induce(padded).table, induce(s).table, atol=1e-12)


class TestProjectedSubstate:
    def test_full_answer_set_is_identity(self, rng):
        s = random_strategy(rng, dA=2, dB=3, m=2, n=2, r=2, s=3)
        out = projected_substate(s, "A", 0, range(s.r))
        np.testing.assert_allclose(out, s.state, atol=1e-12)

    def test_point_block_mass(self):
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=8))
        v = projected_substate(s, "A", 2, (2,))
        assert np.linalg.norm(v) ** 2 == pytest.approx(0.75, abs=1e-9)

    def test_shifted_matches_aligned_split(self):
        # answers {0,2} of question 2 project exactly like answer 0 of question 0
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=8))
        a = projected_substate(s, "A", 0, (0,))
        b = projected_substate(s, "A", 2, (0, 2))
        assert np.linalg.norm(a - b) <= 1e-10

    def test_partition_reconstructs_state(self, rng):
        s = random_strategy(rng, dA=3, dB=2, m=2, n=2, r=3, s=2)
        total = sum(projected_substate(s, "A", 1, (a,)) for a in range(s.r))
        np.testing.assert_allclose(total, s.state, atol=1e-12)

    def test_squared_norm_is_answer_mass(self, rng):
        s = random_strategy(rng, dA=3, dB=3, m=2, n=2, r=3, s=3)
        p = induce(s)
        for side, question, answers in (("A", 0, (0, 2)), ("B", 1, (1,))):
            v = projected_substate(s, side, question, answers)
            if side == "A":
                mass = p.table[question, 0][list(answers), :].sum()
            else:
                mass = p.table[0, question][:, list(answers)].sum()
            assert np.linalg.norm(v) ** 2 == pytest.approx(mass, abs=1e-10)

    def test_errors(self, rng):
        s = random_strategy(rng)
        with pytest.raises(StrategyError, match="side"):
            projected_substate(s, "C", 0, (0,))
        with pytest.raises(StrategyError, match="question"):
            projected_substate(s, "A", 5, (0,))
        with pytest.raises(StrategyError, match="answers"):
            projected_substate(s, "A", 0, (7,))

    @pytest.mark.parametrize("question, answers, message", [
        (0, [0, 0], r"answers has duplicates: \[0, 0\]"),
        (0, [0.7], r"answers \[0.7\] must be integers"),
        (0.5, [0], r"question \[0.5\] must be integers"),
    ])
    def test_answers_are_distinct_integers(self, question, answers, message):
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=2))
        with pytest.raises(StrategyError, match=message):
            projected_substate(s, "A", question, answers)
        mass = np.linalg.norm(projected_substate(s, "A", np.int64(0), [np.int64(0)])) ** 2
        assert mass == pytest.approx(0.8)


class TestCombinators:
    def test_restrict_questions(self, rng):
        s = random_strategy(rng, m=3, n=3)
        sub = restrict_questions(s, [2, 0], [1])
        assert (sub.m, sub.n) == (2, 1)
        np.testing.assert_allclose(
            induce(sub).table, induce(s).table[[2, 0]][:, [1]], atol=1e-14
        )

    @pytest.mark.parametrize("xs, ys, message", [
        ([2, 2], [1], "alice question subset has duplicates"),
        ([0], [], "bob question subset must be nonempty"),
        ([0], [3], r"bob question subset \[3\] out of range\(3\)"),
    ])
    def test_restrict_questions_checks_as_restrict(self, rng, xs, ys, message):
        s = random_strategy(rng, m=3, n=3)
        with pytest.raises(StrategyError, match=message):
            restrict_questions(s, xs, ys)
        with pytest.raises(CorrelationError, match=message):
            restrict(induce(s), xs, ys)

    @pytest.mark.parametrize("xs, ys, message", [
        ([0.7, 2.9], [1.2], r"alice question subset \[0.7, 2.9\] must be integers"),
        ([0.5], [3.99], r"alice question subset \[0.5\] must be integers"),
        ([0], [3.99], r"bob question subset \[3.99\] must be integers"),
        ([0], ["1"], "bob question subset .* must be integers"),
    ])
    def test_question_subsets_refuse_non_integers(self, rng, xs, ys, message):
        s = random_strategy(rng, m=3, n=4)
        with pytest.raises(StrategyError, match=message):
            restrict_questions(s, xs, ys)
        with pytest.raises(CorrelationError, match=message):
            restrict(induce(s), xs, ys)

    def test_question_subsets_take_numpy_integers(self, rng):
        s = random_strategy(rng, m=3, n=3)
        sub = restrict_questions(s, np.array([2, 0]), [np.int64(1)])
        np.testing.assert_array_equal(sub.alice_meas, s.alice_meas[[2, 0]])
        np.testing.assert_array_equal(restrict(induce(s), np.array([2, 0]), [np.int32(1)]).table,
                                      induce(s).table[[2, 0]][:, [1]])

    def test_direct_sum_strategies_induces_block_diagonal(self, rng):
        s1 = ideal_strategy(params_from_alpha(0.5))
        s2 = ideal_strategy(params_from_alpha(0.8))
        combined = direct_sum_strategies([(0.3, s1), (0.7, s2)])
        assert validate(combined).ok
        p = induce(combined)
        np.testing.assert_allclose(p.table[:, :, :2, :2], 0.3 * induce(s1).table, atol=1e-12)
        np.testing.assert_allclose(p.table[:, :, 2:, 2:], 0.7 * induce(s2).table, atol=1e-12)
        np.testing.assert_allclose(p.table[:, :, :2, 2:], 0.0, atol=1e-12)

    def test_direct_sum_strategies_weight_check(self):
        s1 = ideal_strategy(params_from_alpha(0.5))
        with pytest.raises(StrategyError, match="sum to 1"):
            direct_sum_strategies([(0.5, s1), (0.6, s1)])


class TestSerialization:
    def test_json_roundtrip(self, rng):
        s = random_strategy(rng, dA=2, dB=3, m=2, n=2, r=2, s=3)
        t = Strategy.from_json(s.to_json())
        np.testing.assert_allclose(t.state, s.state, atol=0)
        for q1, q2 in zip(s.alice_meas, t.alice_meas):
            for p1, p2 in zip(q1, q2):
                np.testing.assert_allclose(p1, p2, atol=0)
        assert (t.dA, t.dB) == (s.dA, s.dB)

    @given(seeds, unequal_dims(), st.integers(1, 3), st.integers(1, 3))
    def test_json_matches_reference_and_roundtrips_bitwise(self, seed, dims, questions, answers):
        dA, dB = dims
        s = random_strategy(
            np.random.default_rng(seed), dA=dA, dB=dB, m=questions, n=2, r=answers, s=2
        )
        text = s.to_json()
        assert text == reference_json(s)
        t = Strategy.from_json(text)
        for got, want in ((t.state, s.state), (t.alice_meas, s.alice_meas), (t.bob_meas, s.bob_meas)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert t.to_json() == text

    def test_signed_zeros_roundtrip(self):
        proj = np.array([[complex(1.0, -0.0), complex(-0.0, -0.0)], [0.0, complex(0.0, -0.0)]])
        s = Strategy(2, 2, [1, 0, 0, complex(0.0, -0.0)], [[proj, np.eye(2) - proj]], [[np.eye(2)]])
        t = Strategy.from_json(s.to_json())
        assert t.alice_meas.tobytes() == s.alice_meas.tobytes()
        assert t.state.tobytes() == s.state.tobytes()

    def test_complex_parts_preserved(self):
        proj_plus = 0.5 * np.array([[1.0, -1j], [1j, 1.0]])
        proj_minus = np.eye(2) - proj_plus
        s = Strategy(2, 2, [1, 0, 0, 0], [[proj_plus, proj_minus]], [[proj_plus, proj_minus]])
        t = Strategy.from_json(s.to_json())
        np.testing.assert_allclose(t.alice_meas[0][0], proj_plus, atol=0)

    @given(extreme_strategies())
    def test_json_matches_json_dumps_on_edge_values(self, s):
        text = s.to_json()
        assert text == reference_json(s)
        t = Strategy.from_json(text)
        assert t.to_json() == text
        for field in FIELDS:
            # NaN payloads are not in the text; every other value comes back bitwise
            assert_bitwise(getattr(t, field), getattr(s, field), nan_bits=False)

    @given(st.data())
    def test_writer_matches_json_dumps_on_real_and_complex(self, data):
        def entries(shape, real):
            part = st.one_of(
                st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e16, 0.1]),
                st.floats(width=64),
            )
            out = np.empty(shape, dtype=float if real else complex)
            out.real = data.draw(arrays(np.float64, shape, elements=part))
            if not real:
                out.imag = data.draw(arrays(np.float64, shape, elements=part))
            return out

        dA, dB, m, n, r, s = (data.draw(st.integers(1, 3)) for _ in range(6))
        real = data.draw(st.lists(st.booleans(), min_size=3, max_size=3))
        strat = Strategy(dA, dB, entries((dA * dB,), real[0]),
                         entries((m, r, dA, dA), real[1]), entries((n, s, dB, dB), real[2]))
        assert strat.to_json() == reference_json(strat)

    def test_writer_matches_json_dumps_across_blocks(self, rng):
        # 70-entry rows: the writer's joined batches of pieces end inside rows, elements and questions
        s = random_strategy(rng, dA=70, dB=3, m=2, n=2, r=2, s=2)
        alice = np.array(s.alice_meas)
        alice[0, 1, 5:9, 3] = [-0.0, np.nan, np.inf, 5e-324]
        t = Strategy(s.dA, s.dB, s.state, alice, s.bob_meas)
        assert t.to_json() == reference_json(t)

    @given(strategy_texts())
    def test_reader_matches_json_oracle(self, text):
        for got, want in zip(reader_arrays(text), json_oracle(text)):
            assert_bitwise(got, want)
        t = Strategy.from_json(text)
        for field, want in zip(FIELDS, json_oracle(text)):
            np.testing.assert_array_equal(as_pairs(getattr(t, field)), want)

    def test_integer_minus_zero_reads_as_zero(self):
        # json reads the integer -0 as 0; -0.0 and an exponent's -0 are not integers
        text = base_text()
        data = json.loads(text)
        data["state"][0] = ["@a@", "@b@"]
        data["state"][1] = ["@c@", "@d@"]
        spelled = {"a": "-0", "b": "-0.0", "c": "-0e0", "d": "1e-0"}
        text = re.sub(r'"@(\w)@"', lambda mark: spelled[mark[1]], json.dumps(data))
        got = as_pairs(Strategy.from_json(text).state[:2]).reshape(-1)
        assert_bitwise(got, np.array([0.0, -0.0, -0.0, 1.0]))
        assert_bitwise(got, json_oracle(text)[0][:2].reshape(-1))

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    @given(k=st.integers(0, 10**6))
    def test_reader_rejects_mutations(self, name, k):
        text = MUTATIONS[name](base_text(), k)
        try:
            json.loads(text)
        except ValueError:
            expected = ValueError
        else:
            expected = StrategyError
        with pytest.raises(expected):
            Strategy.from_json(text)

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    @given(k=st.integers(0, 10**6))
    def test_reader_rejects_mutations_of_zeros(self, name, k):
        text = MUTATIONS[name](zeros_text(), k)
        with pytest.raises(expect_as_json(text)):
            Strategy.from_json(text)

    @pytest.mark.parametrize("bad", ["0 .0", "0. 0", "0.0 0.0", "0\t.0", "0.\n0", "0 0", "0.0-0"])
    @pytest.mark.parametrize("where", [0.0, 0.5, 1.0])
    def test_reader_rejects_split_zeros(self, bad, where):
        # deleting the whitespace, or reading only what looks like 0.0, would accept these
        text = zeros_text()
        spots = [spot.start() for spot in re.finditer(r"(?<= )0\.0(?=[,\]])", text)]
        spot = spots[round(where * (len(spots) - 1))]
        text = text[:spot] + bad + text[spot + 3 :]
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)
        with pytest.raises(StrategyError):
            Strategy.from_json(text)

    def test_json_reads_only_what_is_not_spelled_zero(self, monkeypatch):
        s = ideal_truncated_strategy(TruncationSpec(0.95, 64))
        text, loads, read = s.to_json(), json.loads, []

        def counted(doc, *args, **kwargs):
            read.append(len(doc))
            return loads(doc, *args, **kwargs)

        monkeypatch.setattr(strategy.json, "loads", counted)
        t = Strategy.from_json(text)
        assert sum(read) < 0.02 * len(text)
        for field in FIELDS:
            assert_bitwise(getattr(t, field), getattr(s, field))

    @pytest.mark.parametrize("place", ["before", "at", "after"])
    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_reader_rejects_mutations_of_zeros_at_cuts(self, name, place):
        cuts = [comma for commas in cut_commas(zeros_text(12)) for comma in commas]
        comma = cuts[sorted(MUTATIONS).index(name) % len(cuts)]
        text = mutate_near(MUTATIONS[name], zeros_text(12), comma, place)
        with pytest.raises(expect_as_json(text)):
            Strategy.from_json(text)

    @given(cut_strategy_texts())
    def test_reader_matches_json_oracle_across_cuts(self, text):
        assert sorted(map(len, cut_commas(text)))[-2] >= 2
        for got, want in zip(reader_arrays(text), json_oracle(text)):
            assert_bitwise(got, want)

    @pytest.mark.parametrize("place", ["before", "at", "after"])
    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_reader_rejects_mutations_at_cuts(self, name, place):
        cuts = [comma for commas in cut_commas(cut_text()) for comma in commas]
        comma = cuts[sorted(MUTATIONS).index(name) % len(cuts)]
        text = mutate_near(MUTATIONS[name], cut_text(), comma, place)
        try:
            json.loads(text)
        except ValueError:
            expected = ValueError
        else:
            expected = StrategyError
        with pytest.raises(expected):
            Strategy.from_json(text)

    def test_trailing_comma_on_last_cut_rejected(self):
        # the entries after the last cut are dropped, leaving a trailing comma
        # and an array short of entries, which json refuses
        text = cut_text()
        (start, end), cuts = _split_arrays(text)[1][0], cut_commas(text)[0]
        last = text.rfind(",", start, end)
        pad = max(0, max([start - 1] + [c for c in cuts if c < last]) + 1 + CUT_SPACING - last)
        text = text[:last] + " " * pad + "," + re.sub(_NUMBER, "", text[last + 1 : end]) + text[end:]
        assert cut_commas(text)[0][-1] == last + pad
        with pytest.raises(StrategyError):
            Strategy.from_json(text)

    def test_written_path_reads_edge_values_bitwise(self, monkeypatch):
        # a truncation with a few nonzero slots set to values whose spelling or bits
        # are easy to get wrong: the writer still writes json.dumps's bytes, and the
        # reader takes every array by its nonzero pairs, never by json whole
        s = ideal_truncated_strategy(TruncationSpec(0.9, 8))
        state, alice, bob = (np.array(getattr(s, key), dtype=complex) for key in FIELDS)
        state[3] = complex(-0.0, 0.25)
        alice[0, 1, 2, 3] = complex(0.5, -0.0)
        alice[3, 2, 15, 0] = complex(np.nan, 1e16)
        bob[1, 0, 4, 9] = complex(np.inf, -np.inf)
        bob[4, 2, 0, 0] = complex(5e-324, 0.0)
        t = Strategy(s.dA, s.dB, state, alice, bob)
        text = t.to_json()
        assert text == reference_json(t)

        def json_whole(raw):
            raise AssertionError("read by json whole")

        monkeypatch.setattr(strategy, "_json_array", json_whole)
        for got, want in zip(reader_arrays(text), json_oracle(text)):
            assert_bitwise(got, want)
        u = Strategy.from_json(text)
        for field in FIELDS:
            assert_bitwise(getattr(u, field), getattr(t, field), nan_bits=False)

    @pytest.mark.parametrize("old, new", [
        ("[0.0, 0.0]", "[0, 0.0]"), ("[0.0, 0.0]", "[0.0,0.0]"), ("[0.5, 0.0]", "[5e-1, 0.0]"),
    ])
    @pytest.mark.parametrize("where", [0.0, 0.5, 1.0])
    def test_respelled_pair_reads_as_json(self, old, new, where):
        # an equal value spelled another way is not what the writer writes, so json reads the array
        text = zeros_text(8)
        spots = [spot.start() for spot in re.finditer(re.escape(old), text)]
        spot = spots[round(where * (len(spots) - 1))]
        text = text[:spot] + new + text[spot + len(old) :]
        for got, want in zip(reader_arrays(text), json_oracle(text)):
            assert_bitwise(got, want)
        t = Strategy.from_json(text)
        for field, want in zip(FIELDS, json_oracle(text)):
            assert_bitwise(as_pairs(getattr(t, field)), want)

    @pytest.mark.parametrize("old, new", [
        ("[0.0, 0.0]", "[0.0 0.0]"), ("0.0]", "0.0"), ("[0.0, 0.0]", "[0.0, ]0.0"),
    ], ids=["missing comma", "dropped ]", "] moved over a number"])
    @pytest.mark.parametrize("where", [0.0, 0.5, 1.0])
    def test_json_refused_edit_in_zeros_rejected(self, old, new, where):
        # the last case keeps the brackets and commas of the unedited text:
        # only where the ] stands tells it from a valid file
        text = zeros_text(8)
        spots = [spot.start() for spot in re.finditer(re.escape(old), text)]
        spot = spots[round(where * (len(spots) - 1))]
        text = text[:spot] + new + text[spot + len(old) :]
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)
        with pytest.raises(StrategyError):
            Strategy.from_json(text)

    @pytest.mark.parametrize("field", FIELDS)
    def test_deep_nesting_rejected(self, field):
        data = json.loads(base_text())
        data[field] = "@deep@"
        text = json.dumps(data).replace('"@deep@"', "[" * 10**5 + "]" * 10**5)
        with pytest.raises(RecursionError):
            json.loads(text)
        with pytest.raises(StrategyError):
            Strategy.from_json(text)

    @pytest.mark.parametrize("key, value", [("dA", '"2"'), ("dB", "3.0"), ("dB", "2.9"), ("dA", "true")])
    def test_dimensions_must_be_json_integers(self, key, value):
        # int() would read "2" as 2 and 2.9 as 2, and True is an int to Python
        data = json.loads(base_text())
        data[key] = "@dim@"
        with pytest.raises(StrategyError, match="JSON integers"):
            Strategy.from_json(json.dumps(data).replace('"@dim@"', value))

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_beyond_float_range_rejected(self, sign):
        # json + numpy raise OverflowError here; the reader does not read it as inf
        data = json.loads(base_text())
        data["alice_meas"][0][1][0][1][0] = "@big@"
        text = json.dumps(data).replace('"@big@"', sign + "1" + "0" * 400)
        with pytest.raises(OverflowError):
            json_oracle(text)
        with pytest.raises(StrategyError):
            Strategy.from_json(text)

    @pytest.mark.parametrize("bad", ["1.5.3", "1e", "1e+", "1e5e5", "1e5.5", "1NaN", "NaN1", "Infinity5", "1.", "01"])
    @pytest.mark.parametrize("field", FIELDS)
    def test_reader_rejects_bad_last_number(self, field, bad):
        # a number reader told how many numbers to read stops after the last
        # one, so what follows its valid prefix is checked separately
        data = json.loads(base_text())
        leaf = data[field]
        while isinstance(leaf[-1], list):
            leaf = leaf[-1]
        leaf[-1] = "@bad@"
        with pytest.raises(StrategyError):
            Strategy.from_json(json.dumps(data).replace('"@bad@"', bad))

    @given(st.data())
    def test_reader_rejects_truncation(self, data):
        text = base_text()
        cut = data.draw(st.integers(0, len(text) - 1))
        with pytest.raises(ValueError):
            Strategy.from_json(text[:cut])

    @pytest.mark.parametrize("edit", ["drop", "extra", "scalar"])
    @pytest.mark.parametrize(
        "field, depth",
        [("state", 1)] + [(field, depth) for field in ("alice_meas", "bob_meas") for depth in (1, 2, 3, 4)],
    )
    def test_ragged_json_rejected_at_every_depth(self, field, depth, edit):
        data = json.loads(base_text())
        node = data[field]
        for _ in range(depth):
            node = node[0]
        if edit == "drop":
            node.pop()
        elif edit == "extra":
            node.append(node[-1])
        else:
            node[0] = 0.5 if isinstance(node[0], list) else [0.5, 0.5]
        with pytest.raises(StrategyError):
            Strategy.from_json(json.dumps(data))

    @pytest.mark.parametrize(
        "text",
        ["", "[]", "{}", "null", '{"dA": 2, "dB": 2}', '"strategy"', '{"dA": [1], "dB": 1, "state": [[1, 0]], '
         '"alice_meas": [[[[[1, 0]]]]], "bob_meas": [[[[[1, 0]]]]]}', "[" * 100 + "]" * 100],
    )
    def test_reader_rejects_non_strategies(self, text):
        with pytest.raises(ValueError):
            Strategy.from_json(text)
