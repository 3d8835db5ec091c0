"""Schmidt machinery, block decomposition, question-4 relations, descent chains."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcorrkit import analysis
from qcorrkit.analysis import (
    AnalysisError,
    BlockDecompositionError,
    SchmidtSpectrum,
    Y4Report,
    certify_banded_truncation,
    descent_chain,
    log_descent_chain_length,
    multiset_equal,
    schmidt,
    schmidt_partition,
    strategy_block_decompose,
    verify_schmidt_bijections,
    verify_y4_relations,
)
from qcorrkit.correlation import distance
from qcorrkit.separating import (
    PRINTED_PAIRS,
    SHIFTED_QUESTIONS,
    SHIFTED_SPLIT,
    TruncationSpec,
    exact_pstar,
    ideal_truncated_strategy,
    ideal_truncation_bands,
    printed_table,
)
from qcorrkit.strategy import (
    Strategy,
    haar_unitary,
    induce,
    restrict_questions,
    validate,
)
from qcorrkit.tilted_chsh import ideal_strategy, ideal_table, params_from_alpha

from conftest import direct_sum_strategies, random_strategy, rotated_strategy


EPR = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)


def geometric_spectrum(alpha: float, dim: int) -> np.ndarray:
    coeffs = alpha ** np.arange(dim)
    return coeffs / np.linalg.norm(coeffs)


def shifted_block_decompose(s: Strategy, tol: float = 1e-9):
    """:func:`strategy_block_decompose` of ``s`` on the shifted-pair questions along their split."""
    sub = restrict_questions(s, SHIFTED_QUESTIONS, SHIFTED_QUESTIONS)
    return strategy_block_decompose(sub, SHIFTED_SPLIT.alice_partition, SHIFTED_SPLIT.bob_partition, tol=tol)


def dense_residuals(s: Strategy, alpha: float, tol: float = 1e-12) -> dict[str, float]:
    """The residual of each row of :func:`certify_banded_truncation`, in its order, computed
    by the dense primitives on ``s``.  A step that raises, or a CHSH block left without a
    restricted strategy, gives its one row, named as the banded path names it, the residual inf."""
    exact, c = exact_pstar(alpha), 1.0 / (1.0 - alpha**2)
    printed = {xy: printed_table(alpha, *xy).entries for xy in PRINTED_PAIRS}
    rows = {
        "strategy_valid": validate(s).max_residual,
        "tables_printed_match": max(float(np.abs(exact.table[xy] - t).max()) for xy, t in printed.items()),
        "truncation_bound": distance(exact, induce(s), "max_tv"),
    }
    try:
        deco = shifted_block_decompose(s, max(tol, 1e-9))
    except BlockDecompositionError:
        deco = None
    if deco is None or deco.restricted[0] is None:
        rows["block_decomposition"] = math.inf
    else:
        block = induce(deco.restricted[0], check=False).table
        rows["block_weights"] = max(abs(w - want) for w, want in zip(deco.weights, ((c - 1.0) / c, 1.0 / c)))
        rows["block_idempotence"] = deco.residuals["restricted_idempotence"]
        rows["block_chsh_match"] = max(
            float(np.abs(block[x, y] - printed[sx, sy][:2, :2] * c / (c - 1.0)).max())
            for x, sx in enumerate(SHIFTED_QUESTIONS) for y, sy in enumerate(SHIFTED_QUESTIONS))
    rows.update((f"y4_{name}", value) for name, value in verify_y4_relations(s, tol).residuals.items())
    try:
        bijections = verify_schmidt_bijections(s, alpha, tol=1e-9)
    except AnalysisError:
        rows["schmidt_partition"] = math.inf
    else:
        rows["schmidt_partition_bijections"] = bijections.max_pair_deviation
        rows["schmidt_point_block_single"] = float(abs(bijections.s2_size - 1))
    chain = descent_chain(schmidt(s.state, s.dA, s.dB).spectrum, alpha)
    rows["descent_chain_length"] = float(abs(chain.max_length - s.dA))
    return rows


def failing(residuals: dict[str, float], rows: list[dict]) -> list[str]:
    """The names of ``residuals`` past the tolerance of the banded row of that name; inf fails at any."""
    limits = {row["name"]: row["tolerance"] for row in rows}
    return [name for name, value in residuals.items() if not (value < math.inf and value <= limits[name])]


def deterministic_answer0_strategy():
    """4x5-question, 3-answer product strategy answering 0 everywhere."""
    eye = np.eye(1, dtype=complex)
    zero = np.zeros((1, 1), dtype=complex)
    alice = [[eye, zero, zero] for _ in range(4)]
    bob = [[eye, zero, zero] for _ in range(5)]
    return Strategy(1, 1, np.array([1.0 + 0j]), alice, bob)


class TestSchmidt:
    def test_epr_pair(self):
        result = schmidt(EPR, 2, 2)
        np.testing.assert_allclose(
            result.spectrum.coefficients, [1 / math.sqrt(2)] * 2, atol=1e-12
        )

    def test_product_state(self):
        result = schmidt(np.array([0, 1, 0, 0], dtype=complex), 2, 2)
        assert result.spectrum.coefficients == (pytest.approx(1.0, abs=1e-12),)

    def test_geometric_state(self):
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=2))
        result = schmidt(s.state, 4, 4)
        np.testing.assert_allclose(
            result.spectrum.coefficients, geometric_spectrum(0.5, 4), atol=1e-12
        )
        assert result.spectrum.coefficients[0] == pytest.approx(0.8677218, abs=1e-7)

    def test_coefficients_are_singular_values(self, rng):
        vec = rng.normal(size=6) + 1j * rng.normal(size=6)
        vec /= np.linalg.norm(vec)
        result = schmidt(vec, 2, 3)
        sing = np.linalg.svd(vec.reshape(2, 3), compute_uv=False)
        np.testing.assert_allclose(result.spectrum.coefficients, sing, atol=1e-12)

    def test_local_unitary_invariance(self, rng):
        vec = rng.normal(size=9) + 1j * rng.normal(size=9)
        vec /= np.linalg.norm(vec)
        base = schmidt(vec, 3, 3).spectrum.coefficients
        ua, ub = haar_unitary(rng, 3), haar_unitary(rng, 3)
        rotated = (ua @ vec.reshape(3, 3) @ ub.T).reshape(-1)
        got = schmidt(rotated, 3, 3).spectrum.coefficients
        np.testing.assert_allclose(got, base, atol=1e-10)

    def test_requires_unit_norm(self):
        with pytest.raises(AnalysisError, match="unit-norm"):
            schmidt(2.0 * EPR, 2, 2)

    def test_nan_state_refused_as_not_unit_norm(self):
        state = EPR.copy()
        state[1] = float("nan")
        with pytest.raises(AnalysisError, match="unit-norm"):
            schmidt(state, 2, 2)

    def test_requires_matching_dims(self):
        with pytest.raises(AnalysisError, match="length"):
            schmidt(EPR, 2, 3)

    def test_spectrum_invariants(self):
        with pytest.raises(AnalysisError):
            SchmidtSpectrum((0.5, 0.7))  # not descending
        with pytest.raises(AnalysisError):
            SchmidtSpectrum((0.9, 0.9))  # exceeds unit square mass

    @pytest.mark.parametrize("coeffs", [(float("nan"), 0.5), (0.5, float("nan")), (float("nan"),)])
    def test_nan_coefficients_refused(self, coeffs):
        with pytest.raises(AnalysisError, match="strictly positive"):
            SchmidtSpectrum(coeffs)


class TestMultisets:
    def test_equal_up_to_reorder(self):
        assert multiset_equal([0.5, 0.1, 0.3], [0.1, 0.3, 0.5])

    def test_tolerance_relative(self):
        assert multiset_equal([1.0, 1e-6], [1.0 + 1e-9, 1e-6 * (1 + 1e-9)], rel_tol=1e-8)
        assert not multiset_equal([1.0, 1e-6], [1.0, 2e-6], rel_tol=1e-8)

    def test_cardinality_matters(self):
        assert not multiset_equal([0.5, 0.5], [0.5])

    def test_zeros_pair_and_nan_does_not(self):
        assert multiset_equal([0.0, 1.0], [1.0, 0.0])
        assert not multiset_equal([0.0, 1.0], [1e-300, 1.0])
        assert not multiset_equal([1.0, float("nan")], [1.0, 0.5])

    def test_log_subtract(self):
        rest = analysis._log_subtract(np.log([0.3, 0.5, 0.3]), np.log([0.3 * (1 + 1e-10)]), 1e-8)
        np.testing.assert_allclose(np.exp(rest), [0.5, 0.3], rtol=1e-14)
        with pytest.raises(AnalysisError, match="no match"):
            analysis._log_subtract(np.log([0.5]), np.log([0.4]), 1e-8)


class TestBlockDecompose:
    def test_separating_shifted_questions(self):
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=8))
        sub = restrict_questions(s, [2, 3], [2, 3])
        deco = strategy_block_decompose(sub, ((0, 1), (2,)), ((0, 1), (2,)), tol=1e-8)
        np.testing.assert_allclose(deco.weights, (0.25, 0.75), atol=1e-8)
        assert deco.residuals["restricted_idempotence"] <= 1e-9
        # point block carries exactly the |00> component
        point = deco.sub_states[1].reshape(16, 16)
        assert abs(point[0, 0]) == pytest.approx(math.sqrt(0.75), abs=1e-9)
        assert np.linalg.norm(point) == pytest.approx(math.sqrt(0.75), abs=1e-9)
        # tilted-CHSH block reappears with flipped answers
        block = induce(deco.restricted[0], check=False)
        params = params_from_alpha(0.5)
        for x in range(2):
            for y in range(2):
                chsh = ideal_table(params, x, y).entries
                expected = chsh[::-1, ::-1]
                np.testing.assert_allclose(block.table[x, y], expected, atol=1e-8)

    def test_constructed_block_diagonal(self):
        s1 = ideal_strategy(params_from_alpha(0.5))
        s2 = ideal_strategy(params_from_alpha(0.8))
        combined = direct_sum_strategies([(0.3, s1), (0.7, s2)])
        deco = strategy_block_decompose(combined, ((0, 1), (2, 3)), ((0, 1), (2, 3)), tol=1e-9)
        np.testing.assert_allclose(deco.weights, (0.3, 0.7), atol=1e-12)
        assert max(deco.residuals.values()) <= 1e-12
        for restricted, original in zip(deco.restricted, (s1, s2)):
            np.testing.assert_allclose(
                induce(restricted, check=False).table, induce(original).table, atol=1e-10
            )

    def test_single_block_is_whole_strategy(self, rng):
        s = random_strategy(rng, dA=2, dB=2, m=2, n=2, r=2, s=2)
        deco = strategy_block_decompose(s, ((0, 1),), ((0, 1),), tol=1e-8)
        assert deco.weights == (pytest.approx(1.0, abs=1e-12),)
        np.testing.assert_allclose(deco.sub_states[0], s.state, atol=1e-12)
        np.testing.assert_allclose(
            induce(deco.restricted[0], check=False).table, induce(s).table, atol=1e-9
        )

    def test_reassembly_roundtrip(self):
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=8))
        sub = restrict_questions(s, [2, 3], [2, 3])
        deco = strategy_block_decompose(sub, ((0, 1), (2,)), ((0, 1), (2,)), tol=1e-8)
        rebuilt = direct_sum_strategies(
            [(w, st) for w, st in zip(deco.weights, deco.restricted)]
        )
        np.testing.assert_allclose(
            induce(rebuilt, check=False).table, induce(sub).table, atol=1e-9
        )

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(
            st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 3), st.integers(1, 3)),
            min_size=2,
            max_size=3,
        ),
        st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3),
    )
    def test_recovers_direct_sum_property(self, seed, shapes, raw_weights):
        # block i: a d x d random strategy with Bob padded by a k-dim ancilla,
        # so dA = d and dB = d * k differ, and the state has full support on
        # Bob's padded block subspace
        rng = np.random.default_rng(seed)
        blocks = []
        for d, k, r, s_ in shapes:
            base = random_strategy(rng, dA=d, dB=d, m=2, n=2, r=r, s=s_)
            anc = rng.normal(size=k) + 1j * rng.normal(size=k)
            anc /= np.linalg.norm(anc)
            psi = np.kron(base.state_matrix(), anc.reshape(1, k))
            bob = [[np.kron(p, np.eye(k)) for p in q] for q in base.bob_meas]
            blocks.append(Strategy(d, d * k, psi.reshape(-1), base.alice_meas, bob))
        weights = np.array(raw_weights[: len(blocks)]) / sum(raw_weights[: len(blocks)])
        combined = direct_sum_strategies(list(zip(weights, blocks)))
        bounds_a = np.cumsum([0] + [b.r for b in blocks])
        bounds_b = np.cumsum([0] + [b.s for b in blocks])
        deco = strategy_block_decompose(
            combined,
            [tuple(range(lo, hi)) for lo, hi in zip(bounds_a, bounds_a[1:])],
            [tuple(range(lo, hi)) for lo, hi in zip(bounds_b, bounds_b[1:])],
            tol=1e-8,
        )
        np.testing.assert_allclose(deco.weights, weights, atol=1e-12)
        for block, table, restricted in zip(blocks, deco.blocks, deco.restricted):
            want = induce(block).table
            np.testing.assert_allclose(table.table, want, atol=1e-10)
            np.testing.assert_allclose(induce(restricted, check=False).table, want, atol=1e-9)

    def test_rejects_non_block_correlation(self, rng):
        s = random_strategy(rng, dA=2, dB=2, m=2, n=2, r=2, s=2)
        with pytest.raises(BlockDecompositionError, match="direct sum"):
            strategy_block_decompose(s, ((0,), (1,)), ((0,), (1,)), tol=1e-9)


class TestY4Relations:
    def test_truncated_strategy_exact(self):
        for m in (4, 8):
            s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=m))
            report = verify_y4_relations(s, tol=1e-12)
            assert report.passed
            assert report.max_residual <= 1e-12

    def test_wrong_question4_detected(self):
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=8))
        bob = [list(q) for q in s.bob_meas]
        bob[4] = list(s.bob_meas[1])  # aligned sigma_x style instead of sigma_z
        broken = Strategy(s.dA, s.dB, s.state, s.alice_meas, bob)
        report = verify_y4_relations(broken, tol=1e-12)
        assert not report.passed
        assert report.residuals["a0_answer0_vs_b4"] > 0.1

    def test_deterministic_product_passes_trivially(self):
        report = verify_y4_relations(deterministic_answer0_strategy(), tol=1e-12)
        assert report.passed
        assert report.residuals["a0_answer1_vs_b4"] == 0.0

    def test_shape_enforced(self, rng):
        s = random_strategy(rng, m=2, n=2, r=2, s=2)
        with pytest.raises(AnalysisError, match="4x5"):
            verify_y4_relations(s)

    def test_nan_residual_is_the_worst(self):
        report = Y4Report(residuals={"a": 1.0, "b": float("nan"), "c": 2.0}, tol=1e-12)
        assert not report.passed
        assert math.isnan(report.max_residual)
        name, value = report.worst()
        assert name == "b" and math.isnan(value)
        assert Y4Report(residuals={"a": 1.0, "b": 3.0, "c": 3.0}, tol=1e-12).worst() == ("b", 3.0)


class TestSchmidtPartition:
    def test_small_cut_split(self):
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=2))
        part = schmidt_partition(s, tol=1e-9)
        full = geometric_spectrum(0.5, 4)
        np.testing.assert_allclose(part.s.coefficients, full, atol=1e-12)
        np.testing.assert_allclose(part.s0.coefficients, full[[0, 2]], atol=1e-12)
        np.testing.assert_allclose(part.s1.coefficients, full[[1, 3]], atol=1e-12)
        np.testing.assert_allclose(part.s2.coefficients, full[[0]], atol=1e-12)

    def test_cardinality_identity(self):
        for m in (2, 4, 6):
            s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=m))
            part = schmidt_partition(s, tol=1e-9)
            assert len(part.s0) + len(part.s1) == len(part.s)

    def test_deterministic_product_degenerates(self):
        part = schmidt_partition(deterministic_answer0_strategy(), tol=1e-12)
        assert len(part.s1) == 0
        assert part.s0.coefficients == part.s.coefficients

    def test_scaling_bijection(self):
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=6))
        part = schmidt_partition(s, tol=1e-9)
        scaled = [0.5 * c for c in part.s0]
        assert multiset_equal(part.s1.as_list(), scaled, rel_tol=1e-10)

    def test_requires_relations(self):
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=4))
        bob = [list(q) for q in s.bob_meas]
        bob[4] = list(s.bob_meas[1])
        broken = Strategy(s.dA, s.dB, s.state, s.alice_meas, bob)
        with pytest.raises(AnalysisError, match="not licensed"):
            schmidt_partition(broken, tol=1e-9)


class TestBijections:
    def test_truncated_ideal(self):
        for m in (2, 5, 8):
            s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=m))
            report = verify_schmidt_bijections(s, 0.5, tol=1e-9)
            assert report.ok
            assert report.s2_size == 1
            # the excluded coefficient is the smallest of the odd split
            full = geometric_spectrum(0.5, 2 * m)
            assert report.boundary_coefficient == pytest.approx(full[-1], abs=1e-12)
            assert report.max_pair_deviation <= 1e-10

    def test_wrong_ratio_fails_both(self):
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=4))
        report = verify_schmidt_bijections(s, 0.5 * (1 + 1e-6), tol=1e-9)
        assert not report.ok_first and not report.ok_second and not report.ok
        assert report.max_pair_deviation == pytest.approx(1e-6, rel=1e-3)

    def test_clipped_spectrum_raises_naming_the_cutoff(self):
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=32))
        with pytest.raises(AnalysisError, match=r"holds \d+ of D = 64 coefficients above its cutoff"):
            verify_schmidt_bijections(s, 0.5, tol=1e-9)


class TestDerivedCutoff:
    def test_cutoff_is_the_svd_resolution(self):
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=16))
        spectrum = schmidt(s.state, s.dA, s.dB).spectrum
        assert len(spectrum) == 32
        assert spectrum.cutoff == spectrum.coefficients[0] * 32 * np.finfo(float).eps
        assert descent_chain(spectrum, 0.5).max_length == 32

    @given(st.floats(0.05, 0.95), st.integers(2, 40))
    def test_spectrum_rows_certify_2m_or_name_the_cutoff(self, alpha, m):
        s = ideal_truncated_strategy(TruncationSpec(alpha=alpha, m=m))
        spectrum = schmidt(s.state, s.dA, s.dB).spectrum
        held, chain = len(spectrum), descent_chain(spectrum, alpha).max_length
        if held == 2 * m:
            assert chain == 2 * m and verify_schmidt_bijections(s, alpha, tol=1e-9).ok
        else:
            assert chain < 2 * m
            with pytest.raises(AnalysisError, match=f"holds {held} of D = {2 * m} coefficients above its cutoff"):
                verify_schmidt_bijections(s, alpha, tol=1e-9)


class TestRotatedBasis:
    # the points where the ideal truncation passes and one Haar-random basis fails: the rows
    # whose dense primitive fails there
    FAILING = {
        (0.3, 8): ["block_decomposition", "schmidt_partition_bijections"],
        (0.3, 12): ["block_decomposition", "schmidt_partition", "descent_chain_length"],
        (0.5, 12): ["block_decomposition"],
        (0.5, 16): ["block_decomposition", "schmidt_partition"],
        (0.7, 24): ["block_decomposition"],
    }

    @pytest.mark.parametrize("alpha, m", sorted(FAILING))
    def test_failing_rows_name_their_numbers(self, alpha, m):
        spec = TruncationSpec(alpha=alpha, m=m)
        s = rotated_strategy(ideal_truncated_strategy(spec))
        banded = certify_banded_truncation(ideal_truncation_bands(spec), 1e-9)
        assert all(row["pass"] for row in banded)
        assert failing(dense_residuals(s, alpha, 1e-9), banded) == self.FAILING[alpha, m]
        # every rotated point fails the dense block decomposition first, naming the element,
        # its residual and the rank cut of its subspace
        with pytest.raises(BlockDecompositionError, match=r"is not a projection: residual \d\.\d{3}e-\d+ "
                                                          r"\(kept rank \d+ of \d+, eigenvalues above \d\.\d{3}e-\d+\)"):
            shifted_block_decompose(s)

    def test_chain_and_split_rows_name_their_limits(self):
        s = rotated_strategy(ideal_truncated_strategy(TruncationSpec(alpha=0.3, m=12)))
        assert descent_chain(schmidt(s.state, s.dA, s.dB).spectrum, 0.3).max_length == 23
        with pytest.raises(AnalysisError, match=r"worst relative pair deviation \d\.\d{3}e-\d+ > 1\.0e-09"):
            verify_schmidt_bijections(s, 0.3, tol=1e-9)


def reference_descent_chain(values, ratio, rel_tol):
    """Index chains of the rescanning greedy: each chain starts at the largest unused
    coefficient and extends to the largest unused admissible successor, rescanning
    the whole spectrum for every link."""
    used = [False] * len(values)
    index_chains = []
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
                if not used[j] and lo * current <= values[j] <= hi * current:
                    successor = j
                    break
            if successor is None:
                break
            used[successor] = True
            chain.append(successor)
            current = values[successor]
        index_chains.append(tuple(chain))
    return tuple(index_chains)


@st.composite
def chain_spectra(draw):
    """Descending spectra woven from up to six alpha-chains: each link repeats its value
    one to three times (a degenerate group) and steps to the window's lower or upper
    edge, inside it, or anywhere below the current value."""
    ratio = draw(st.sampled_from([0.3, 0.5, 0.95]))
    rel_tol = draw(st.floats(0.0, (1.0 - ratio) / 2.0, exclude_max=True))
    lo, hi = ratio * (1.0 - rel_tol), ratio * (1.0 + rel_tol)
    values = []
    for _ in range(draw(st.integers(1, 6))):
        value = draw(st.floats(0.01, 0.08))  # at most 144 values: squares sum below 1
        for _ in range(draw(st.integers(1, 8))):
            values += [value] * draw(st.integers(1, 3))
            value *= draw(st.one_of(st.just(lo), st.just(hi), st.floats(lo, hi), st.floats(0.1, 0.99)))
    return ratio, rel_tol, tuple(sorted(values, reverse=True))


class TestDescentChain:
    @settings(max_examples=200)
    @given(chain_spectra())
    def test_one_pass_matches_rescanning_greedy(self, case):
        ratio, rel_tol, values = case
        result = descent_chain(SchmidtSpectrum(values), ratio, rel_tol)
        want = reference_descent_chain(values, ratio, rel_tol)
        assert result.index_chains == want
        assert result.chains == tuple(tuple(values[i] for i in chain) for chain in want)
        assert result.max_length == max(len(chain) for chain in want)

    def test_ideal_spectrum_at_d2000_is_one_chain(self):
        result = descent_chain(SchmidtSpectrum(tuple(geometric_spectrum(0.95, 2000))), 0.95)
        assert result.max_length == 2000
        assert result.index_chains == (tuple(range(2000)),)

    def test_small_cut_single_chain(self):
        spectrum = SchmidtSpectrum(tuple(geometric_spectrum(0.5, 4)))
        result = descent_chain(spectrum, 0.5)
        assert result.max_length == 4
        assert len(result.chains) == 1
        assert result.index_chains[0] == (0, 1, 2, 3)

    def test_epr_has_no_links(self):
        spectrum = SchmidtSpectrum((1 / math.sqrt(2), 1 / math.sqrt(2)))
        result = descent_chain(spectrum, 0.5)
        assert result.max_length == 1
        assert len(result.chains) == 2

    def test_length_tracks_cut_dimension(self):
        lengths = []
        for m in range(2, 9):
            s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=m))
            spectrum = schmidt(s.state, s.dA, s.dB).spectrum
            lengths.append(descent_chain(spectrum, 0.5).max_length)
        assert lengths == [2 * m for m in range(2, 9)]
        assert all(b - a == 2 for a, b in zip(lengths, lengths[1:]))

    def test_degenerate_groups_consumed_once_each(self):
        spectrum = SchmidtSpectrum((0.6, 0.6, 0.3, 0.3))
        result = descent_chain(spectrum, 0.5)
        assert result.max_length == 2
        assert len(result.chains) == 2

    def test_rel_tol_guard(self):
        spectrum = SchmidtSpectrum((1.0,))
        with pytest.raises(AnalysisError, match="too large"):
            descent_chain(spectrum, 0.5, rel_tol=0.3)

    @pytest.mark.parametrize("rel_tol", [float("nan"), -0.1])
    def test_rel_tol_without_window_refused(self, rel_tol):
        with pytest.raises(AnalysisError, match=r"must lie in \[0, \(1 - ratio\)/2\)"):
            descent_chain(SchmidtSpectrum((0.8, 0.4)), 0.5, rel_tol=rel_tol)

    def test_ratio_range(self):
        spectrum = SchmidtSpectrum((1.0,))
        with pytest.raises(AnalysisError, match="ratio"):
            descent_chain(spectrum, 1.5)


def phase_twin(s: Strategy, rng: np.random.Generator) -> Strategy:
    """``s`` conjugated by random diagonal phase unitaries U_A (x) U_B.

    The twin's state and off-diagonal measurement entries are complex, and
    it induces the same correlation with the same Schmidt spectrum.
    """
    ua = np.exp(2j * np.pi * rng.random(s.dA))
    ub = np.exp(2j * np.pi * rng.random(s.dB))
    state = ua[:, None] * s.state_matrix() * ub
    alice = ua[:, None] * s.alice_meas * ua.conj()
    bob = ub[:, None] * s.bob_meas * ub.conj()
    return Strategy(s.dA, s.dB, state.reshape(-1), alice, bob)


class TestRealAndComplexAgree:
    @given(st.floats(0.05, 0.95), st.integers(2, 24), st.integers(0, 2**32 - 1))
    def test_phase_twin_gives_the_same_answers(self, alpha, m, seed):
        real = ideal_truncated_strategy(TruncationSpec(alpha=alpha, m=m))
        twin = phase_twin(real, np.random.default_rng(seed))
        assert real.state.dtype == real.alice_meas.dtype == real.bob_meas.dtype == np.float64
        assert twin.state.dtype == twin.alice_meas.dtype == twin.bob_meas.dtype == np.complex128
        back = Strategy.from_json(real.to_json())
        assert back.state.dtype == back.alice_meas.dtype == back.bob_meas.dtype == np.float64

        np.testing.assert_allclose(induce(twin).table, induce(real).table, rtol=0, atol=1e-14)
        spectra = [schmidt(t.state, t.dA, t.dB).spectrum.coefficients for t in (real, twin)]
        np.testing.assert_allclose(spectra[1], spectra[0], rtol=0, atol=1e-14)
        assert validate(twin).ok == validate(real).ok

        residuals = [dense_residuals(t, alpha) for t in (real, twin)]
        assert list(residuals[1]) == list(residuals[0])
        np.testing.assert_allclose(list(residuals[1].values()), list(residuals[0].values()), rtol=0, atol=1e-12)
        banded = certify_banded_truncation(ideal_truncation_bands(TruncationSpec(alpha=alpha, m=m)), 1e-12)
        assert failing(residuals[1], banded) == failing(residuals[0], banded)


class TestBandedRows:
    @given(st.sampled_from([0.1, 0.3, 0.5, 0.9, 0.95, 0.99999]), st.integers(2, 20))
    def test_rows_equal_the_dense_rows(self, alpha, m):
        spec = TruncationSpec(alpha=alpha, m=m)
        s = ideal_truncated_strategy(spec)
        # where the dense spectrum is clipped, the dense Schmidt rows fail and the banded ones do not
        assume(len(schmidt(s.state, s.dA, s.dB).spectrum) == 2 * m)
        dense = dense_residuals(s, alpha)
        banded = certify_banded_truncation(ideal_truncation_bands(spec), 1e-12)
        assert [r["name"] for r in banded] == list(dense)
        np.testing.assert_allclose([r["residual"] for r in banded], list(dense.values()), rtol=0, atol=1e-13)
        assert failing(dense, banded) == [r["name"] for r in banded if not r["pass"]]

    @pytest.mark.parametrize("alpha", [1e-5, 3e-5])
    def test_weightless_chsh_block_fails_both_paths_alike(self, alpha):
        # the CHSH block's weight alpha^2 is below the 1e-9 block tolerance: a row, not a crash
        spec = TruncationSpec(alpha=alpha, m=2)
        s = ideal_truncated_strategy(spec)
        deco = shifted_block_decompose(s)
        assert deco.weights[0] <= 1e-9 and deco.restricted[0] is None and deco.blocks[0] is None
        banded = certify_banded_truncation(ideal_truncation_bands(spec), 1e-12)
        assert [(r["name"], r["detail"]) for r in banded if not r["pass"]] == [
            ("block_decomposition", "block 0 has no sub-correlation: weight at or below tol 1.0e-09")]
        assert failing(dense_residuals(s, alpha), banded) == ["block_decomposition"]

    def test_bands_scatter_to_the_dense_arrays(self):
        spec = TruncationSpec(alpha=0.3, m=5)
        bands, s = ideal_truncation_bands(spec), ideal_truncated_strategy(spec)
        for side, meas in ((bands.alice, s.alice_meas), (bands.bob, s.bob_meas)):
            np.testing.assert_array_equal(np.diagonal(meas, axis1=2, axis2=3), side[:, :, 0])
            np.testing.assert_array_equal(np.diagonal(meas, 1, 2, 3), side[:, :, 1, :-1])
            np.testing.assert_array_equal(np.diagonal(meas, -1, 2, 3), side[:, :, 1, :-1])
        np.testing.assert_allclose(np.exp(bands.log_coeffs), np.diag(s.state_matrix()), rtol=1e-14, atol=0)

    def test_broken_state_fails_the_spectrum_rows(self):
        bands = ideal_truncation_bands(TruncationSpec(alpha=0.5, m=6))
        # one coefficient scaled by 1 + 1e-5, then the state renormalized
        log_coeffs = bands.log_coeffs.copy()
        log_coeffs[5] += math.log1p(1e-5)
        log_coeffs -= 0.5 * math.log(np.exp(2.0 * log_coeffs).sum())
        broken = type(bands)(bands.spec, bands.alice, bands.bob, log_coeffs)
        rows = {r["name"]: r for r in certify_banded_truncation(broken, 1e-12)}
        assert not rows["schmidt_partition_bijections"]["pass"]
        assert "broken: S1 = alpha S0" in rows["schmidt_partition_bijections"]["detail"]
        assert rows["descent_chain_length"]["detail"].startswith("longest chain 6 of D = 12 at ratio 0.5")


class TestLogDescentChain:
    def test_underflowing_spectrum_is_one_chain(self):
        log_coeffs = TruncationSpec(alpha=0.5, m=10**4).log_coeffs()
        assert np.exp(log_coeffs[-1]) == 0.0
        assert log_descent_chain_length(log_coeffs, 0.5) == 2 * 10**4

    @pytest.mark.parametrize("values, length", [
        ((0.6, 0.6, 0.3, 0.3), 2), ((1 / math.sqrt(2), 1 / math.sqrt(2)), 1),
        (tuple(0.5 ** (k + 1) for k in range(7)), 7), ((0.8, 0.4, 0.18, 0.09), 2),
    ])
    def test_matches_the_linear_chain(self, values, length):
        assert descent_chain(SchmidtSpectrum(values), 0.5).max_length == length
        assert log_descent_chain_length(np.log(values), 0.5) == length

    @pytest.mark.parametrize("rel_tol", [float("nan"), -0.1, 0.3])
    def test_window_refused_as_in_the_linear_chain(self, rel_tol):
        with pytest.raises(AnalysisError, match="rel_tol"):
            log_descent_chain_length([0.0, math.log(0.5)], 0.5, rel_tol)
