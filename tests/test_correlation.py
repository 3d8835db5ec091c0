"""Correlation tables: construction, direct sums, restriction, distances, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from qcorrkit.correlation import (
    BlockSpec,
    Correlation,
    CorrelationError,
    block_structure_check,
    distance,
    restrict,
)
from qcorrkit.separating import exact_pstar, printed_table, truncation_distance
from qcorrkit.tilted_chsh import ideal_table, params_from_alpha

from conftest import direct_sum, random_correlation


def deterministic(m, n, r, s, a=0, b=0):
    table = np.zeros((m, n, r, s))
    table[:, :, a, b] = 1.0
    return Correlation(table)


class TestConstruction:
    def test_clamps_float_noise(self):
        table = np.zeros((1, 1, 2, 2))
        table[0, 0] = [[1.0 + 5e-15, -5e-15], [0.0, 0.0]]
        p = Correlation(table)
        assert p.table[0, 0, 0, 1] == 0.0

    def test_rejects_genuine_negative(self):
        table = np.zeros((1, 1, 2, 2))
        table[0, 0] = [[1.001, -1e-3], [0.0, 0.0]]
        with pytest.raises(CorrelationError, match=r"negative entry .* at index \(0, 0, 0, 1\)$"):
            Correlation(table)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, bad):
        table = np.full((1, 1, 2, 2), 0.25)
        table[0, 0, 1, 0] = bad
        with pytest.raises(CorrelationError, match=r"non-finite entry .* at index \(0, 0, 1, 0\)"):
            Correlation(table)
        with pytest.raises(CorrelationError, match="non-finite"):
            Correlation([[[[float("nan"), float("nan")]]]])

    def test_rejects_unnormalized(self):
        table = np.full((1, 1, 2, 2), 0.3)
        with pytest.raises(CorrelationError, match="normalized"):
            Correlation(table)

    def test_norm_tol_configurable(self):
        table = np.full((1, 1, 2, 2), 0.25)
        table[0, 0, 0, 0] += 1e-11
        with pytest.raises(CorrelationError):
            Correlation(table)
        Correlation(table, norm_tol=1e-9)

    def test_nan_norm_tol_checks_nothing_away(self):
        with pytest.raises(CorrelationError, match=r"max \|sum - 1\| = 2\.600e\+00 > nan"):
            Correlation(np.full((1, 1, 2, 2), 0.9), norm_tol=float("nan"))

    def test_immutable(self):
        p = deterministic(1, 1, 2, 2)
        with pytest.raises(ValueError):
            p.table[0, 0, 0, 0] = 0.5


class TestDirectSum:
    def test_single_block_identity(self, rng):
        q = random_correlation(rng, 2, 2, 2, 3)
        p = direct_sum([(1.0, q)])
        np.testing.assert_allclose(p.table, q.table, atol=0)

    def test_deterministic_blocks(self):
        p = deterministic(1, 1, 1, 1)
        q = deterministic(1, 1, 1, 1)
        out = direct_sum([(0.5, p), (0.5, q)])
        expected = np.zeros((1, 1, 2, 2))
        expected[0, 0, 0, 0] = 0.5
        expected[0, 0, 1, 1] = 0.5
        np.testing.assert_allclose(out.table, expected, atol=0)

    def test_matches_separating_restriction(self):
        # weighted tilted-CHSH block with flipped labels plus a point mass
        # reproduces the shifted-pair questions of the separating correlation
        alpha = 0.5
        params = params_from_alpha(alpha)
        flipped = np.empty((2, 2, 2, 2))
        for x in range(2):
            for y in range(2):
                chsh = ideal_table(params, x, y).entries
                for a in range(2):
                    for b in range(2):
                        flipped[x, y, a, b] = chsh[1 - a, 1 - b]
        block1 = Correlation(flipped)
        block2 = deterministic(2, 2, 1, 1)
        got = direct_sum([(0.25, block1), (0.75, block2)])
        expected = restrict(exact_pstar(alpha), [2, 3], [2, 3])
        np.testing.assert_allclose(got.table, expected.table, atol=1e-12)

    def test_question_count_mismatch(self, rng):
        a = random_correlation(rng, 2, 2, 2, 2)
        b = random_correlation(rng, 2, 3, 2, 2)
        with pytest.raises(CorrelationError, match="question counts"):
            direct_sum([(0.5, a), (0.5, b)])

    def test_weights_must_sum_to_one(self, rng):
        a = random_correlation(rng, 2, 2, 2, 2)
        with pytest.raises(CorrelationError, match="sum to 1"):
            direct_sum([(0.5, a), (0.6, a)])


class TestBlockStructureCheck:
    def test_separating_shifted_questions(self):
        p = restrict(exact_pstar(0.5), [2, 3], [2, 3])
        spec = BlockSpec(((0, 1), (2,)), ((0, 1), (2,)))
        result = block_structure_check(p, spec, tol=1e-9)
        assert result.ok
        np.testing.assert_allclose(result.weights, (0.25, 0.75), atol=1e-12)
        assert result.blocks[0] is not None and result.blocks[1] is not None

    def test_separating_aligned_questions_zero_block(self):
        p = restrict(exact_pstar(0.5), [0, 1], [0, 1])
        spec = BlockSpec(((0, 1), (2,)), ((0, 1), (2,)))
        result = block_structure_check(p, spec, tol=1e-9)
        assert result.ok
        np.testing.assert_allclose(result.weights, (1.0, 0.0), atol=1e-12)
        assert result.blocks[1] is None  # zero-mass block has no sub-correlation

    def test_uniform_has_no_block_structure(self):
        p = Correlation(np.full((1, 1, 2, 2), 0.25))
        spec = BlockSpec(((0,), (1,)), ((0,), (1,)))
        result = block_structure_check(p, spec, tol=1e-9)
        assert not result.ok
        assert result.failure.kind == "cross_block_mass"
        assert result.failure.value == pytest.approx(0.25)

    def test_block_mass_varying_with_questions_fails(self):
        # block 0 holds mass 1/4, 1/4 and 1 at question pairs (0,0), (0,1) and (0,2)
        table = np.zeros((1, 3, 2, 2))
        table[0, :2] = np.diag([0.25, 0.75])
        table[0, 2] = np.diag([1.0, 0.0])
        spec = BlockSpec(((0,), (1,)), ((0,), (1,)))
        result = block_structure_check(Correlation(table), spec, tol=1e-9)
        assert not result.ok and result.weights is None and result.blocks is None
        assert result.failure.kind == "weight_variation"
        assert result.failure.value == 1.0
        assert result.failure.detail == (
            "block 0 weight 1.0 at questions (0,2) deviates from mean 0.5 beyond tol 1e-09"
        )

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),
        st.integers(1, 3),
        st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 3)),
                 min_size=1, max_size=4).filter(lambda blocks: any(w for *_, w in blocks)),
    )
    def test_roundtrip_recovers_weights_and_blocks(self, seed, m, n, shapes):
        # integer weights 0..3, normalized: a zero draws a block with no mass
        rng = np.random.default_rng(seed)
        blocks = [random_correlation(rng, m, n, r, s) for r, s, _ in shapes]
        weights = np.array([w for *_, w in shapes], dtype=float)
        weights /= weights.sum()
        p = direct_sum(list(zip(weights, blocks)))
        bounds_a = np.cumsum([0] + [r for r, _, _ in shapes])
        bounds_b = np.cumsum([0] + [s for _, s, _ in shapes])
        spec = BlockSpec(
            tuple(tuple(range(lo, hi)) for lo, hi in zip(bounds_a, bounds_a[1:])),
            tuple(tuple(range(lo, hi)) for lo, hi in zip(bounds_b, bounds_b[1:])),
        )
        result = block_structure_check(p, spec, tol=1e-12)
        assert result.ok
        np.testing.assert_allclose(result.weights, weights, atol=1e-12)
        for w, got, want in zip(weights, result.blocks, blocks):
            if w == 0.0:
                assert got is None
            else:
                np.testing.assert_allclose(got.table, want.table, atol=1e-10)

    def test_partition_must_cover(self):
        p = deterministic(1, 1, 3, 3)
        spec = BlockSpec(((0, 1),), ((0, 1),))
        with pytest.raises(CorrelationError, match="not a partition"):
            block_structure_check(p, spec)


class TestRestrict:
    def test_identity(self, rng):
        p = random_correlation(rng, 3, 2, 2, 2)
        np.testing.assert_allclose(restrict(p, [0, 1, 2], [0, 1]).table, p.table, atol=0)

    def test_separating_aligned_block_equals_printed(self):
        p = restrict(exact_pstar(0.5), [0, 1], [0, 1])
        for x in range(2):
            for y in range(2):
                want = printed_table(0.5, x, y).entries
                np.testing.assert_allclose(p.table[x, y], want, atol=1e-12)

    def test_single_pair_table(self):
        p = restrict(exact_pstar(0.5), [0], [4])
        np.testing.assert_allclose(
            p.table[0, 0], [[0.8, 0, 0], [0, 0.2, 0], [0, 0, 0]], atol=1e-12
        )

    def test_errors(self, rng):
        p = random_correlation(rng, 2, 2, 2, 2)
        with pytest.raises(CorrelationError, match="nonempty"):
            restrict(p, [], [0])
        with pytest.raises(CorrelationError, match="out of range"):
            restrict(p, [0, 2], [0])
        with pytest.raises(CorrelationError, match="duplicates"):
            restrict(p, [0, 0], [0])

    def test_commutes_with_direct_sum(self, rng):
        blocks = [random_correlation(rng, 3, 3, 2, 2) for _ in range(2)]
        weights = (0.4, 0.6)
        xs, ys = [0, 2], [1, 2]
        summed_then_restricted = restrict(
            direct_sum(list(zip(weights, blocks))), xs, ys
        )
        restricted_then_summed = direct_sum(
            [(w, restrict(b, xs, ys)) for w, b in zip(weights, blocks)]
        )
        np.testing.assert_allclose(
            summed_then_restricted.table, restricted_then_summed.table, atol=0
        )


class TestDistance:
    def test_zero_on_equal(self, rng):
        p = random_correlation(rng, 2, 2, 2, 2)
        assert distance(p, p, "max_tv") == 0.0
        assert distance(p, p, "l2") == 0.0

    def test_disjoint_deterministic_tables(self):
        p = deterministic(1, 1, 2, 2, a=0, b=0)
        q = deterministic(1, 1, 2, 2, a=1, b=1)
        assert distance(p, q, "max_tv") == pytest.approx(1.0)

    def test_truncation_gap_scale(self):
        # tail mass of the dimension-8 cut sits just above 2 * alpha^(2D)
        val = truncation_distance(0.5, 4, "max_tv")
        assert 0.0 < val <= 4.0 * 0.5**16

    def test_symmetry_and_triangle(self, rng):
        for _ in range(30):
            p = random_correlation(rng, 2, 2, 2, 2)
            q = random_correlation(rng, 2, 2, 2, 2)
            w = random_correlation(rng, 2, 2, 2, 2)
            for metric in ("max_tv", "l2"):
                dpq = distance(p, q, metric)
                assert dpq == pytest.approx(distance(q, p, metric), abs=0)
                assert dpq <= distance(p, w, metric) + distance(w, q, metric) + 1e-12

    def test_shape_mismatch(self, rng):
        p = random_correlation(rng, 2, 2, 2, 2)
        q = random_correlation(rng, 2, 2, 3, 2)
        with pytest.raises(CorrelationError, match="shape"):
            distance(p, q, "max_tv")


class TestSerialization:
    def test_json_roundtrip(self, rng):
        p = random_correlation(rng, 2, 3, 3, 2)
        q = Correlation.from_json(p.to_json())
        np.testing.assert_allclose(q.table, p.table, atol=0)
        data = json.loads(p.to_json())
        assert (data["m"], data["n"], data["r"], data["s"]) == (2, 3, 3, 2)

    @given(arrays(np.float64, array_shapes(min_dims=4, max_dims=4, max_side=3), elements=st.floats(0.0, 1.0)))
    def test_json_roundtrip_bitwise(self, weights):
        sums = weights.sum(axis=(2, 3), keepdims=True)
        p = Correlation(np.where(sums > 0, weights / np.where(sums > 0, sums, 1.0), 1.0 / weights[0, 0].size))
        q = Correlation.from_json(p.to_json())
        assert q.shape == p.shape and q.table.tobytes() == p.table.tobytes()

    def test_header_shape_mismatch_rejected(self, rng):
        p = random_correlation(rng, 2, 2, 2, 2)
        data = p.to_dict()
        data["m"] = 3
        with pytest.raises(CorrelationError, match="disagrees"):
            Correlation.from_dict(data)

    @pytest.mark.parametrize("key, value", [("m", 2.0), ("s", "2"), ("r", True)])
    def test_header_must_be_json_integers(self, rng, key, value):
        data = random_correlation(rng, 2, 2, 2, 2).to_dict()
        data[key] = value
        with pytest.raises(CorrelationError, match="JSON integers"):
            Correlation.from_dict(data)

    @pytest.mark.parametrize("entry", ["0.71", True, None, [0.5]])
    def test_entries_must_be_json_numbers(self, entry):
        data = json.loads(deterministic(1, 1, 2, 2).to_json())
        data["table"][0][0][1][1] = entry
        with pytest.raises(CorrelationError, match="JSON numbers"):
            Correlation.from_dict(data)

    def test_csv_layout(self):
        p = deterministic(1, 2, 2, 2)
        lines = p.to_csv().strip().split("\n")
        assert lines[0] == "x,y,a,b,p"
        assert len(lines) == 1 + 1 * 2 * 2 * 2
        assert lines[1] == "0,0,0,0,1.0"
