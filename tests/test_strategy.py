"""Strategies: validation, induced correlations, projectors, substates, serialization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcorrkit.correlation import distance
from qcorrkit.separating import TruncationSpec, exact_pstar, ideal_truncated_strategy
from qcorrkit.strategy import (
    InvalidStrategyError,
    Observable,
    Strategy,
    StrategyError,
    direct_sum_strategies,
    haar_unitary,
    induce,
    observable_to_projectors,
    projected_substate,
    random_strategy,
    restrict_questions,
    validate,
)
from qcorrkit.tilted_chsh import ideal_strategy, params_from_alpha, params_from_beta

from conftest import kron_induce


def product_deterministic_strategy(m=2, n=2, r=2, s=2):
    eye1 = [np.eye(1, dtype=complex)]
    alice = [[np.eye(1, dtype=complex) if a == 0 else np.zeros((1, 1), complex) for a in range(r)] for _ in range(m)]
    bob = [[np.eye(1, dtype=complex) if b == 0 else np.zeros((1, 1), complex) for b in range(s)] for _ in range(n)]
    return Strategy(dA=1, dB=1, state=np.array([1.0 + 0j]), alice_meas=alice, bob_meas=bob)


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

    def test_random_strategies_valid(self, rng):
        for _ in range(20):
            dims = rng.integers(1, 5, size=2)
            s = random_strategy(
                rng, dA=int(dims[0]), dB=int(dims[1]), m=2, n=3, r=3, s=2
            )
            assert validate(s).ok


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

    def test_ancilla_padding_invariance(self, rng):
        s = random_strategy(rng, dA=2, dB=2, m=2, n=2, r=2, s=2)
        anc = rng.normal(size=3) + 1j * rng.normal(size=3)
        anc /= np.linalg.norm(anc)
        psi = np.kron(s.state_matrix(), anc.reshape(1, 3))  # ancilla on Bob
        eye3 = np.eye(3)
        bob = [[np.kron(p, eye3) for p in q] for q in s.bob_meas]
        padded = Strategy(2, 6, psi.reshape(-1), s.alice_meas, bob)
        np.testing.assert_allclose(induce(padded).table, induce(s).table, atol=1e-12)


class TestObservableToProjectors:
    def test_sigma_z(self):
        sz = np.diag([1.0, -1.0])
        projs = observable_to_projectors(sz, plus_answer=0, minus_answer=1)
        assert len(projs) == 2
        np.testing.assert_allclose(projs[0], np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(projs[1], np.diag([0.0, 1.0]), atol=1e-12)

    def test_shifted_pairs_on_odd_dimension(self):
        # shifted sigma_z pairs tile dimension 5 fully; |0> is the kernel
        obs = np.zeros((5, 5))
        for k in (1, 3):
            obs[k, k] = 1.0
            obs[k + 1, k + 1] = -1.0
        projs = observable_to_projectors(obs, plus_answer=1, minus_answer=0, kernel_answer=2)
        assert len(projs) == 3
        kernel = np.zeros((5, 5))
        kernel[0, 0] = 1.0
        np.testing.assert_allclose(projs[2], kernel, atol=1e-12)
        np.testing.assert_allclose(sum(projs), np.eye(5), atol=1e-12)

    def test_zero_observable(self):
        projs = observable_to_projectors(np.zeros((3, 3)), kernel_answer=2)
        assert len(projs) == 3
        np.testing.assert_allclose(projs[2], np.eye(3), atol=0)
        np.testing.assert_allclose(projs[0], 0.0, atol=0)

    def test_eigenvalue_band_enforced(self):
        with pytest.raises(StrategyError, match="band|spectrum"):
            observable_to_projectors(np.diag([0.5, -0.5]))

    def test_kernel_requires_answer(self):
        with pytest.raises(StrategyError, match="kernel"):
            observable_to_projectors(np.diag([1.0, 0.0]))

    def test_colliding_answers_rejected(self):
        with pytest.raises(StrategyError, match="collide"):
            observable_to_projectors(np.diag([1.0, -1.0]), plus_answer=0, minus_answer=0)


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


class TestCombinators:
    def test_restrict_questions(self, rng):
        s = random_strategy(rng, m=3, n=3)
        sub = restrict_questions(s, [2, 0], [1])
        assert (sub.m, sub.n) == (2, 1)
        np.testing.assert_allclose(
            induce(sub).table, induce(s).table[[2, 0]][:, [1]], atol=1e-14
        )

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


class TestObservableType:
    def test_accepts_pm_one_spectrum(self):
        Observable(np.diag([1.0, -1.0, 0.0]))

    def test_rejects_other_spectrum(self):
        with pytest.raises(StrategyError, match="spectrum"):
            Observable(np.diag([1.0, 0.5]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(StrategyError, match="Hermitian"):
            Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSerialization:
    def test_json_roundtrip(self, rng):
        s = random_strategy(rng, dA=2, dB=3, m=2, n=2, r=2, s=3)
        t = Strategy.from_json(s.to_json())
        np.testing.assert_allclose(t.state, s.state, atol=0)
        for q1, q2 in zip(s.alice_meas, t.alice_meas):
            for p1, p2 in zip(q1, q2):
                np.testing.assert_allclose(p1, p2, atol=0)
        assert (t.dA, t.dB) == (s.dA, s.dB)

    def test_complex_parts_preserved(self):
        proj_plus = 0.5 * np.array([[1.0, -1j], [1j, 1.0]])
        proj_minus = np.eye(2) - proj_plus
        s = Strategy(2, 2, [1, 0, 0, 0], [[proj_plus, proj_minus]], [[proj_plus, proj_minus]])
        t = Strategy.from_json(s.to_json())
        np.testing.assert_allclose(t.alice_meas[0][0], proj_plus, atol=0)
