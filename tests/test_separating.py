"""The separating correlation: truncations, exact tables, printed forms, convergence."""

import math

import numpy as np
import pytest

from qcorrkit import separating
from qcorrkit.correlation import CorrelationTable, distance, restrict
from qcorrkit.separating import (
    PRINTED_PAIRS,
    SeparatingError,
    TruncationSpec,
    exact_pstar,
    ideal_truncated_strategy,
    printed_table,
    truncation_distance,
)
from qcorrkit.strategy import induce, validate
from qcorrkit.tilted_chsh import (
    SIGMA_X,
    SIGMA_Z,
    _expectation,
    ideal_strategy,
    ideal_table,
    params_from_alpha,
    tilted_sigma_x,
    tilted_sigma_z,
)


class TestTruncationSpec:
    def test_dimension(self):
        assert TruncationSpec(alpha=0.5, m=8).dim == 16

    def test_alpha_open_interval(self):
        with pytest.raises(SeparatingError):
            TruncationSpec(alpha=0.0, m=4)
        with pytest.raises(SeparatingError):
            TruncationSpec(alpha=1.0, m=4)

    def test_min_blocks(self):
        with pytest.raises(SeparatingError):
            TruncationSpec(alpha=0.5, m=1)


class TestTruncatedStrategy:
    @pytest.mark.parametrize("m", [2, 3, 5, 16])
    def test_elements_match_per_pair_reference(self, m):
        # reference: each 2x2 block added into its own zero matrix, one pair
        # at a time, aligned pairs at (2k, 2k+1) and shifted ones at (2k+1, 2k+2)
        alpha, dim = 0.7, 2 * m
        mu = params_from_alpha(alpha).mu

        def paired(obs, offset, count):
            eye = np.eye(2)
            out = [np.zeros((dim, dim), dtype=complex) for _ in range(2)]
            for k in range(count):
                i, j = 2 * k + offset, 2 * k + offset + 1
                for elem, block in zip(out, ((eye + obs) / 2.0, (eye - obs) / 2.0)):
                    pushed = np.zeros((dim, dim), dtype=complex)
                    pushed[np.ix_([i, j], [i, j])] = block
                    elem += pushed
            return out

        def aligned(obs):
            plus, minus = paired(obs, 0, m)
            return [plus, minus, np.zeros((dim, dim), dtype=complex)]

        def shifted(obs):
            plus, minus = paired(obs, 1, m - 1)
            plus[dim - 1, dim - 1] += 1.0
            kernel = np.zeros((dim, dim), dtype=complex)
            kernel[0, 0] = 1.0
            return [minus, plus, kernel]

        alice = [aligned(SIGMA_Z), aligned(SIGMA_X), shifted(SIGMA_Z), shifted(SIGMA_X)]
        bob = [
            aligned(tilted_sigma_z(mu)),
            aligned(tilted_sigma_x(mu)),
            shifted(tilted_sigma_z(mu)),
            shifted(tilted_sigma_x(mu)),
            aligned(SIGMA_Z),
        ]
        s = ideal_truncated_strategy(TruncationSpec(alpha=alpha, m=m))
        for got, want in ((s.alice_meas, alice), (s.bob_meas, bob)):
            assert len(got) == len(want)
            for got_q, want_q in zip(got, want):
                for got_e, want_e in zip(got_q, want_q):
                    assert np.array_equal(got_e, want_e)
        assert validate(s).ok

    def test_shape_and_validity(self):
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=4))
        assert (s.m, s.n, s.r, s.s) == (4, 5, 3, 3)
        assert s.dA == s.dB == 8
        assert validate(s).ok

    def test_layout_constants_name_the_shifted_questions(self):
        # the point-block answer is |0><0| on exactly the SHIFTED_QUESTIONS, on either side
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=3))
        (point,) = separating.SHIFTED_SPLIT.alice_partition[1]
        assert separating.SHIFTED_SPLIT.bob_partition == separating.SHIFTED_SPLIT.alice_partition
        kernel = np.zeros((s.dA, s.dA))
        kernel[0, 0] = 1.0
        for meas in (s.alice_meas, s.bob_meas):
            assert [x for x, q in enumerate(meas) if q[point].any()] == list(separating.SHIFTED_QUESTIONS)
            for x in separating.SHIFTED_QUESTIONS:
                assert np.array_equal(meas[x][point], kernel)

    def test_aligned_questions_reproduce_two_qubit_tables(self):
        # the aligned pairs tile the cut space completely, so no truncation
        # error enters these tables at all
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=8))
        p = restrict(induce(s), [0, 1], [0, 1])
        params = params_from_alpha(0.5)
        for x in range(2):
            for y in range(2):
                np.testing.assert_allclose(
                    p.table[x, y, :2, :2], ideal_table(params, x, y).entries, atol=1e-12
                )

    def test_point_block_weight_renormalized(self):
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=8))
        value = induce(s).table[2, 2, 2, 2]
        assert value == pytest.approx(0.75 / (1.0 - 0.5**32), abs=1e-14)
        assert value == pytest.approx(0.7500000002, abs=1e-10)

    def test_small_cut_state(self):
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=2))
        assert s.dA == 4
        norm = math.sqrt(1.0 / (1.0 + 0.25 + 0.0625 + 0.015625))
        psi = s.state_matrix()
        np.testing.assert_allclose(
            np.diagonal(psi), norm * 0.5 ** np.arange(4), atol=1e-14
        )
        np.testing.assert_allclose(psi - np.diag(np.diagonal(psi)), 0.0, atol=0)

    def test_measurements_complete_exactly(self):
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.3, m=5))
        for meas, dim in ((s.alice_meas, s.dA), (s.bob_meas, s.dB)):
            for question in meas:
                total = sum(question)
                np.testing.assert_allclose(total, np.eye(dim), atol=1e-14)


class TestExactTables:
    def test_spot_values_alpha_half(self):
        p = exact_pstar(0.5)
        assert p.table[0, 4, 0, 0] == pytest.approx(0.8, abs=1e-14)
        assert p.table[0, 4, 1, 1] == pytest.approx(0.2, abs=1e-14)
        assert p.table[2, 4, 2, 0] == pytest.approx(0.75, abs=1e-14)
        assert p.table[2, 4, 0, 0] == pytest.approx(0.05, abs=1e-14)
        assert p.table[2, 4, 1, 1] == pytest.approx(0.2, abs=1e-14)

    def test_answer_two_unused_on_aligned_questions(self):
        for alpha in (0.3, 0.5, 0.7):
            p = exact_pstar(alpha)
            for x in range(2):
                for y in range(2):
                    assert np.all(p.table[x, y, 2, :] == 0.0)
                    assert np.all(p.table[x, y, :, 2] == 0.0)

    def test_agrees_with_printed_tables(self):
        for alpha in (0.3, 0.5, 0.7):
            p = exact_pstar(alpha)
            for x, y in PRINTED_PAIRS:
                np.testing.assert_allclose(
                    p.table[x, y], printed_table(alpha, x, y).entries, atol=1e-12
                )

    def test_agrees_with_fine_truncation(self):
        # independent route: the dimension-20 cut reproduces the closed forms
        # (the analytic tail can sit below accumulated rounding, hence the floor)
        for alpha in (0.4, 0.6):
            gap = truncation_distance(alpha, 10, "max_tv")
            assert gap <= 4.0 * alpha**40 + 1e-14

    def test_alpha_range(self):
        with pytest.raises(SeparatingError):
            exact_pstar(0.0)
        with pytest.raises(SeparatingError):
            exact_pstar(1.0)


class TestPrintedTables:
    def test_aligned_block_pair(self):
        t = printed_table(0.5, 0, 4)
        np.testing.assert_allclose(
            t.entries, [[0.8, 0, 0], [0, 0.2, 0], [0, 0, 0]], atol=1e-14
        )

    def test_shifted_cross_pair(self):
        t = printed_table(0.5, 2, 4)
        np.testing.assert_allclose(
            t.entries, [[0.05, 0, 0], [0, 0.2, 0], [0.75, 0, 0]], atol=1e-14
        )

    def test_shifted_pair_structure(self):
        alpha = 0.5
        t = printed_table(alpha, 2, 3)
        chsh = ideal_table(params_from_alpha(alpha), 0, 1).entries
        for a in range(2):
            for b in range(2):
                assert t.entries[a, b] == pytest.approx(0.25 * chsh[1 - a, 1 - b], abs=1e-14)
        assert t.entries[2, 2] == pytest.approx(0.75, abs=1e-14)

    def test_one_pass_gives_the_public_tables(self):
        for alpha in (1e-5, 0.3, 0.95, 1 - 1e-5):
            _, printed, c = separating._closed_forms(alpha)
            assert list(printed) == list(PRINTED_PAIRS)
            for (x, y), entries in printed.items():
                assert entries.tobytes() == printed_table(alpha, x, y).entries.tobytes()
            assert c == 1.0 / (1.0 - alpha**2)
        with pytest.raises(SeparatingError, match="alpha"):
            separating._closed_forms(1.0)

    def test_each_public_form_computes_only_its_half(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the other half of the closed forms was computed")

        monkeypatch.setattr(separating, "_printed_tables", refuse)
        exact_pstar(0.95)
        monkeypatch.undo()
        monkeypatch.setattr(separating, "_exact_table", refuse)
        printed_table(0.95, 2, 3)

    def test_unprinted_pair_rejected(self):
        with pytest.raises(SeparatingError, match="closed-form"):
            printed_table(0.5, 0, 2)

    def test_chsh_entries_bitwise_per_entry_form(self):
        # the batched tables equal <psi, A_x^a psi B_y^b^T> taken entry by entry on ideal_strategy,
        # as a CorrelationTable cleans them
        for alpha in np.linspace(1e-5, 1 - 1e-5, 201).tolist():
            params = params_from_alpha(alpha)
            s = ideal_strategy(params)
            psi, c = s.state_matrix(), 1.0 / (1.0 - alpha**2)
            for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
                chsh = CorrelationTable(x, y, [[_expectation(psi, s.alice_meas[x][a], s.bob_meas[y][b])
                                                for b in range(2)] for a in range(2)]).entries
                assert ideal_table(params, x, y).entries.tobytes() == chsh.tobytes()
                assert printed_table(alpha, x, y).entries[:2, :2].tobytes() == chsh.tobytes()
                shifted = printed_table(alpha, x + 2, y + 2).entries[:2, :2]
                assert shifted.tobytes() == ((c - 1.0) / c * chsh[::-1, ::-1]).tobytes()


class TestTruncationDistance:
    def test_acceptance_scale_bound(self):
        for m in range(3, 9):
            assert truncation_distance(0.5, m, "max_tv") <= 4.0 * 0.5 ** (4 * m)

    def test_monotone_decrease(self):
        values = [truncation_distance(0.5, m, "max_tv") for m in range(3, 9)]
        assert all(values[i + 1] < values[i] for i in range(len(values) - 1))

    def test_geometric_decay_rate(self):
        values = [truncation_distance(0.5, m, "max_tv") for m in range(4, 10)]
        for i in range(len(values) - 1):
            ratio = values[i] / values[i + 1]
            assert 0.5**-4 / 2.0 <= ratio <= 2.0 * 0.5**-4

    def test_l2_metric_supported(self):
        assert truncation_distance(0.5, 4, "l2") > truncation_distance(0.5, 4, "max_tv") / 1.5
