"""See-saw search: convergence, determinism, monotonicity, rounding, bounds."""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    greedy_vertex_reference,
    kron_induce,
    povm_vertex_reference,
    random_correlation,
)
from qcorrkit import seesaw
from qcorrkit.correlation import Correlation, distance, restrict
from qcorrkit.separating import exact_pstar, truncation_distance
from qcorrkit.seesaw import (
    SeesawConfig,
    SeesawError,
    _all_probs,
    _min_eigvec,
    _pairwise_fw,
    _povm_block,
    _povm_vertex,
    _realign,
    _reduced,
    _state_block,
    _state_grad,
    optimize,
)
from qcorrkit.strategy import _atom_image, _random_measurements, induce, random_strategy, validate

seeds = st.integers(0, 2**32 - 1)
small = st.integers(1, 3)


def chsh_target(alpha=0.5):
    return restrict(exact_pstar(alpha), [0, 1], [0, 1])


class TestConfig:
    def test_validation(self):
        with pytest.raises(SeesawError):
            SeesawConfig(local_dim=0)
        with pytest.raises(TypeError):
            SeesawConfig(local_dim=2, metric="max_tv")
        with pytest.raises(SeesawError):
            SeesawConfig(local_dim=2, rounding="snap")
        with pytest.raises(SeesawError):
            SeesawConfig(local_dim=2, restarts=0)
        with pytest.raises(SeesawError, match="nan"):
            SeesawConfig(local_dim=2, convergence_tol=float("nan"))


class TestOptimize:
    def test_feasible_target_recovered(self, rng):
        # statistical recoverability, not a guarantee: a correlation produced
        # by a random dimension-2 strategy is matched at the same dimension
        target = induce(random_strategy(np.random.default_rng(42)))
        cfg = SeesawConfig(
            local_dim=2, restarts=20, max_outer_iters=15, polish_iters=250,
            seed=1, convergence_tol=1e-13, state_steps=60, meas_steps=30,
        )
        result = optimize(target, cfg)
        assert result.distance <= 1e-4

    def test_traces_non_increasing(self):
        cfg = SeesawConfig(local_dim=2, restarts=4, max_outer_iters=25, seed=3)
        result = optimize(chsh_target(), cfg)
        for trace in result.traces:
            diffs = np.diff(trace.objectives)
            assert np.all(diffs <= 1e-12)

    def test_deterministic_given_seed(self):
        cfg = SeesawConfig(local_dim=2, restarts=3, max_outer_iters=12, seed=21)
        a = optimize(chsh_target(), cfg)
        b = optimize(chsh_target(), cfg)
        assert a.distance == b.distance
        for ta, tb in zip(a.traces, b.traces):
            assert ta.objectives == tb.objectives

    def test_polish_extends_best_trace(self):
        base = SeesawConfig(local_dim=2, restarts=2, max_outer_iters=8, seed=5)
        polished = SeesawConfig(
            local_dim=2, restarts=2, max_outer_iters=8, polish_iters=20, seed=5
        )
        a = optimize(chsh_target(), base)
        b = optimize(chsh_target(), polished)
        assert b.distance <= a.distance
        assert max(len(t.objectives) for t in b.traces) > max(
            len(t.objectives) for t in a.traces
        )

    def test_lockstep_restarts_stop_on_their_own(self, monkeypatch):
        # at this tolerance the restarts converge after 7, 10 and 6 outer
        # iterations, and the best one (7) stops while another runs on
        cfg = SeesawConfig(
            local_dim=2, restarts=3, max_outer_iters=20, seed=9,
            convergence_tol=1e-3, state_steps=10, meas_steps=5,
        )
        batches = []
        state_block = seesaw._state_block

        def spy(rho, *args):
            batches.append(len(rho))
            return state_block(rho, *args)

        monkeypatch.setattr(seesaw, "_state_block", spy)
        result = optimize(chsh_target(), cfg)
        iters = [t.iterations for t in result.traces]
        best = int(np.argmin([t.objectives[-1] for t in result.traces]))
        assert len(set(iters)) > 1 and iters[best] < max(iters)
        for trace in result.traces:
            assert trace.converged and len(trace.objectives) == trace.iterations + 1
            drops = -np.diff(trace.objectives)
            assert drops[-1] < cfg.convergence_tol <= drops[:-1].min(initial=np.inf)
        # outer iteration i runs exactly the restarts that have not converged
        assert batches == [sum(n >= i for n in iters) for i in range(1, max(iters) + 1)]
        assert result.distance == result.traces[best].objectives[-1]
        # so the returned iterate is the one whose objective was recorded last
        probs = _all_probs(result.rho[None], result.alice_povms[None], result.bob_povms[None])
        table = chsh_target().table.transpose(0, 2, 1, 3).reshape(probs.shape)
        assert np.sqrt(((probs - table) ** 2).sum()) == pytest.approx(result.distance, abs=1e-12)

        plain_batches = list(batches)
        batches.clear()
        polished = optimize(chsh_target(), dataclasses.replace(cfg, polish_iters=3))
        extra = polished.traces[best].iterations - iters[best]
        assert batches == plain_batches + [1] * extra
        for k, (plain, longer) in enumerate(zip(result.traces, polished.traces)):
            if k == best:
                assert longer.objectives[: len(plain.objectives)] == plain.objectives
                assert len(longer.objectives) > len(plain.objectives)
            else:
                assert longer.objectives == plain.objectives
        assert polished.distance == polished.traces[best].objectives[-1]

    def test_dimension_one_is_product_search(self):
        # pure dimension-1 strategies are deterministic; enumerate them all
        target = exact_pstar(0.5)
        best = np.inf
        for answers_a in itertools.product(range(3), repeat=4):
            table_a = np.zeros((4, 3))
            table_a[np.arange(4), answers_a] = 1.0
            for answers_b in itertools.product(range(3), repeat=5):
                table_b = np.zeros((5, 3))
                table_b[np.arange(5), answers_b] = 1.0
                model = np.einsum("xa,yb->xyab", table_a, table_b)
                best = min(best, float(np.sqrt(((model - target.table) ** 2).sum())))
        assert best > 0.05

        cfg = SeesawConfig(local_dim=1, restarts=4, max_outer_iters=25, seed=2)
        result = optimize(target, cfg)
        assert result.distance > 0.05

    @pytest.mark.parametrize("dim", [1, 2])
    def test_attained_target_survives_a_zero_gradient(self, dim):
        # p(a, b | x, y) = [a = 0][b = 0] is attained; with no convergence stop the
        # state blocks run on at the optimum, where at d = 1 the gradient is exactly 0
        table = np.zeros((4, 5, 3, 3))
        table[:, :, 0, 0] = 1.0
        cfg = SeesawConfig(
            local_dim=dim, restarts=2, max_outer_iters=10, seed=0, convergence_tol=0.0
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = optimize(Correlation(table), cfg)
        assert result.distance <= 1e-12

    def test_trace_csv_layout(self):
        cfg = SeesawConfig(local_dim=1, restarts=2, max_outer_iters=3, seed=0)
        result = optimize(chsh_target(), cfg)
        lines = result.trace_csv().strip().split("\n")
        assert lines[0] == "restart,iter,objective"
        assert all(line.split(",")[0] in ("0", "1") for line in lines[1:])


class TestProjectiveRounding:
    def test_dilated_strategy_reproduces_relaxed_iterate(self):
        cfg = SeesawConfig(
            local_dim=2, restarts=3, max_outer_iters=20, seed=5, rounding="projective"
        )
        result = optimize(chsh_target(), cfg)
        assert result.strategy is not None
        assert result.strategy.dA > cfg.local_dim  # reported separately
        assert result.summary_dict()["dilated_dims"] == [result.strategy.dA, result.strategy.dB]
        assert validate(result.strategy).ok
        rounded = induce(result.strategy)
        assert distance(rounded, chsh_target(), "l2") == pytest.approx(
            result.distance, abs=1e-10
        )


class TestUpperBound:
    """A truncation is a feasible model: its distance bounds the see-saw's optimum."""

    def test_deep_cut_scale(self):
        assert truncation_distance(0.5, 8, "max_tv") <= 4.0 * 0.5**32

    def test_shallow_cut_scale(self):
        value = truncation_distance(0.5, 2, "max_tv")
        assert 0.5**8 / 4.0 < value < 4.0 * 0.5**8

    def test_metrics_comparable(self):
        tv = truncation_distance(0.5, 4, "max_tv")
        l2 = truncation_distance(0.5, 4, "l2")
        # per-table total variation is at most 1.5x the Euclidean norm on 3x3 tables
        assert l2 >= tv / 1.5
        assert tv > 0 and l2 > 0


def _random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _assert_hermitian_psd(ops, tol=1e-10):
    assert np.abs(ops - ops.conj().swapaxes(-1, -2)).max() < tol
    assert np.linalg.eigvalsh(ops).min() > -tol


def _assert_povm(elements, tol=1e-10):
    _assert_hermitian_psd(elements, tol)
    assert np.abs(elements.sum(axis=0) - np.eye(elements.shape[-1])).max() < tol


def _assert_projective_povm(elements, tol=1e-10):
    _assert_povm(elements, tol)
    for a, b in itertools.product(range(len(elements)), repeat=2):
        want = elements[a] if a == b else 0.0
        assert np.abs(elements[a] @ elements[b] - want).max() < tol


def _random_gradients(rng, batch, answers, dim):
    shape = (batch, answers, dim, dim)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return g + g.conj().swapaxes(-1, -2)


def _kron_products(alice, bob):
    # explicit A_x^a (x) B_y^b, indexed [(x, a), (y, b)]
    a_ops = alice.reshape(-1, *alice.shape[2:])
    b_ops = bob.reshape(-1, *bob.shape[2:])
    return np.array([[np.kron(a_op, b_op) for b_op in b_ops] for a_op in a_ops])


def _random_model(seed, dA, dB, m, n, r, s):
    rng = np.random.default_rng(seed)
    strat = random_strategy(rng, dA=dA, dB=dB, m=m, n=n, r=r, s=s)
    rho = _random_density(rng, dA * dB)
    return rng, strat, np.array(strat.alice_meas), np.array(strat.bob_meas), rho


class TestBlockProperties:
    @given(seeds, small, small, small, small, small, small)
    def test_probabilities_match_kron_oracle(self, seed, dA, dB, m, n, r, s):
        _, strat, alice, bob, rho = _random_model(seed, dA, dB, m, n, r, s)
        psi = np.asarray(strat.state)
        oracle = kron_induce(strat).transpose(0, 2, 1, 3).reshape(m * r, n * s)
        # a batch of two restarts: the pure state and the mixed rho
        pair = np.array([np.outer(psi, psi.conj()), rho])
        probs = _all_probs(pair, np.array([alice, alice]), np.array([bob, bob]))
        np.testing.assert_allclose(probs[0], oracle, atol=1e-12)
        images = _atom_image(np.array([[psi, psi]]), alice[None], bob[None])
        np.testing.assert_allclose(images[0], [oracle.reshape(-1)] * 2, atol=1e-12)
        kron = np.real(np.einsum("uvij,ji->uv", _kron_products(alice, bob), rho))
        np.testing.assert_allclose(probs[1], kron, atol=1e-12)

    @given(seeds, small, small, small, small, small, small)
    def test_state_gradient_matches_kron_sum(self, seed, dA, dB, m, n, r, s):
        rng, strat, alice, bob, _ = _random_model(seed, dA, dB, m, n, r, s)
        res = rng.normal(size=m * r * n * s)
        grad = _state_grad(res[None], alice[None], bob[None])[0]
        kron = np.einsum("uv,uvij->ij", res.reshape(m * r, n * s), _kron_products(alice, bob))
        np.testing.assert_allclose(grad, kron, atol=1e-12)
        # <psi|grad|psi> pairs the residual with the table psi induces
        psi = np.asarray(strat.state)
        oracle = kron_induce(strat).transpose(0, 2, 1, 3).reshape(-1)
        assert np.real(psi.conj() @ grad @ psi) == pytest.approx(res @ oracle, abs=1e-12)

    @given(seeds, small, small, small, small, small, small)
    def test_partial_traces_match_kron(self, seed, dA, dB, m, n, r, s):
        _, _, alice, bob, rho = _random_model(seed, dA, dB, m, n, r, s)
        realigned = _realign(rho[None], dA, dB)
        # rows of _reduced are the transposed partial traces
        traced_a = _reduced(alice[None], realigned)[0].reshape(m * r, dB, dB).swapaxes(1, 2)
        traced_b = _reduced(bob[None], realigned.swapaxes(1, 2))[0].reshape(n * s, dA, dA)
        traced_b = traced_b.swapaxes(1, 2)
        for k, op in enumerate(alice.reshape(m * r, dA, dA)):
            prod = (rho @ np.kron(op, np.eye(dB))).reshape(dA, dB, dA, dB)
            np.testing.assert_allclose(traced_a[k], np.einsum("ijil->jl", prod), atol=1e-12)
        for k, op in enumerate(bob.reshape(n * s, dB, dB)):
            prod = (rho @ np.kron(np.eye(dA), op)).reshape(dA, dB, dA, dB)
            np.testing.assert_allclose(traced_b[k], np.einsum("ijkj->ik", prod), atol=1e-12)

    @given(seeds, st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))
    def test_povm_vertex_is_projective_and_beats_random(self, seed, dim, answers, batch):
        rng = np.random.default_rng(seed)
        grads = _random_gradients(rng, batch, answers, dim)
        vertices = _povm_vertex(grads)
        assert vertices.shape == (batch, answers, dim, dim)
        for grad, vertex in zip(grads, vertices):
            _assert_projective_povm(vertex)
            value = np.real(np.einsum("aij,aji->", grad, vertex))
            for povm in _random_measurements(rng, dim, 20, answers):
                assert value <= np.real(np.einsum("aij,aji->", grad, np.array(povm))) + 1e-10

    @given(seeds, st.integers(1, 8), st.integers(2, 4), st.integers(1, 5))
    def test_povm_vertex_matches_per_question_reference(self, seed, dim, answers, batch):
        rng = np.random.default_rng(seed)
        grads = _random_gradients(rng, batch, answers, dim)
        for grad, vertex in zip(grads, _povm_vertex(grads)):
            want = povm_vertex_reference(grad)
            assert np.abs(vertex - want).max() < 1e-12
            _assert_projective_povm(vertex)
            value = np.real(np.einsum("aij,aji->", grad, vertex))
            assert value <= np.real(np.einsum("aij,aji->", grad, want)) + 1e-12

    @given(seeds, st.sampled_from([3, 4, 8]), st.integers(3, 4), st.integers(2, 10))
    def test_povm_vertex_rows_match_single_calls_bitwise(self, seed, dim, answers, batch):
        # the second exchange sweep runs on a compressed batch of the rows that moved
        grads = _random_gradients(np.random.default_rng(seed), batch, answers, dim)
        vertices = _povm_vertex(grads)
        for i in range(batch):
            np.testing.assert_array_equal(vertices[i], _povm_vertex(grads[i : i + 1])[0])

    @given(seeds, st.integers(1, 2), st.integers(1, 6), st.booleans(), st.integers(1, 3))
    def test_povm_vertex_no_worse_than_greedy_where_exact(self, seed, few, many, swap, batch):
        # with min(r, d) <= 2 the best Helstrom split is the projective optimum
        dim, answers = (few, many) if swap else (many, few)
        grads = _random_gradients(np.random.default_rng(seed), batch, answers, dim)
        for grad, vertex in zip(grads, _povm_vertex(grads)):
            value = np.real(np.einsum("aij,aji->", grad, vertex))
            greedy = greedy_vertex_reference(grad)
            assert value <= np.real(np.einsum("aij,aji->", grad, greedy)) + 1e-12

    @given(seeds, st.integers(1, 6), st.integers(1, 3))
    def test_two_outcome_vertex_beats_random_povms(self, seed, dim, batch):
        # for r = 2 the Helstrom split is optimal over all POVMs, not only projective ones
        rng = np.random.default_rng(seed)
        grads = _random_gradients(rng, batch, 2, dim)
        for grad, vertex in zip(grads, _povm_vertex(grads)):
            value = np.real(np.einsum("aij,aji->", grad, vertex))
            for _ in range(20):
                g = rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim, dim))
                parts = g @ g.conj().swapaxes(1, 2)
                evals, evecs = np.linalg.eigh(parts.sum(0))
                root = (evecs / np.sqrt(evals)) @ evecs.conj().T
                povm = root @ parts @ root
                _assert_povm(povm)
                assert value <= np.real(np.einsum("aij,aji->", grad, povm)) + 1e-12

    @given(
        seeds, st.sampled_from([1, 4, 9, 16, 64]), st.integers(1, 3),
        st.sampled_from(["random", "zero", "identity", "degenerate"]),
    )
    def test_min_eigvec_reaches_the_smallest_eigenvalue(self, seed, n, batch, kind):
        rng = np.random.default_rng(seed)
        shape = (batch, n, n)
        if kind == "zero":
            grads = np.zeros(shape, dtype=complex)
        elif kind == "identity":
            grads = rng.normal(size=(batch, 1, 1)) * np.eye(n) + 0j
        else:
            # U diag(lam) U^+ with a random scale; "degenerate" repeats the bottom eigenvalue
            lam = np.sort(rng.normal(size=(batch, n)), axis=1) * 10.0 ** rng.uniform(-6, 6)
            if kind == "degenerate" and n > 1:
                lam[:, 1] = lam[:, 0]
            unitary = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))[0]
            grads = (unitary * lam[:, None]) @ unitary.conj().swapaxes(1, 2)
            grads = 0.5 * (grads + grads.conj().swapaxes(1, 2))
        probe = rng.normal(size=n) + 1j * rng.normal(size=n)
        vecs = _min_eigvec(grads, probe)
        evals = np.linalg.eigh(grads)[0]
        assert np.isfinite(vecs).all()
        np.testing.assert_allclose(np.linalg.norm(vecs, axis=1), 1.0, atol=1e-12)
        # any unit vector of a degenerate bottom eigenspace attains lambda_min
        rayleigh = np.einsum("ki,kij,kj->k", vecs.conj(), grads, vecs).real
        spread, scale = evals[:, -1] - evals[:, 0], np.abs(evals).max(1)
        assert (rayleigh - evals[:, 0] <= 1e-10 * spread + 1e-13 * scale).all()

    def test_away_tie_goes_to_oldest_atom(self):
        # with target 0 the residual is the iterate's image, about (1, 0), so
        # atoms 0 and 1 tie up to rounding and the newer one scores 2 ulp higher
        images = np.array([[[1.0, 1.0], [1.0 + 4.5e-16, -1.0]]])
        weights = np.array([[0.5, 0.5]])
        res = (weights[:, None] @ images)[:, 0]
        assert images[0, 1] @ res[0] > images[0, 0] @ res[0]
        vertex = (np.array([2]), np.array([[-1.0, 1.0]]))
        atoms, weights, _ = _pairwise_fw(
            np.array([[0, 1]]), weights, images, res, lambda _: vertex, 1
        )
        # the pairwise step drains the oldest atom onto the vertex; atom 1 keeps its weight
        np.testing.assert_array_equal(atoms, [[0, 1, 2]])
        np.testing.assert_allclose(weights, [[0.0, 0.5, 0.5]], atol=1e-15)

    @given(seeds, st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
    def test_state_block_feasible_and_non_increasing(self, seed, dA, dB, questions, answers):
        # two restarts, each with its own measurements and density, in one batch
        rng = np.random.default_rng(seed)
        alice = np.array([_random_measurements(rng, dA, questions, answers) for _ in range(2)])
        bob = np.array([_random_measurements(rng, dB, questions, answers) for _ in range(2)])
        table = random_correlation(rng, questions, questions, answers, answers).table
        target = table.transpose(0, 2, 1, 3).reshape(-1)
        rho = np.array([_random_density(rng, dA * dB) for _ in range(2)])
        res = _all_probs(rho, alice, bob).reshape(2, -1) - target
        rho_out, res_out = _state_block(rho, res, alice, bob, 10)
        recomputed = _all_probs(rho_out, alice, bob).reshape(2, -1) - target
        for k in range(2):
            _assert_hermitian_psd(rho_out[k])
            assert np.trace(rho_out[k]).real == pytest.approx(1.0, abs=1e-10)
            np.testing.assert_allclose(res_out[k], recomputed[k], atol=1e-10)
            assert recomputed[k] @ recomputed[k] <= res[k] @ res[k] + 1e-12

    @given(seeds, st.integers(1, 4), st.integers(1, 4), st.integers(1, 6))
    def test_povm_block_feasible_and_non_increasing(self, seed, dim, answers, num_red):
        # two restarts of two questions each; a restart's questions share its reduced operators
        rng = np.random.default_rng(seed)
        povms = np.array([_random_measurements(rng, dim, 2, answers) for _ in range(2)])
        reduced = np.array([[_random_density(rng, dim) for _ in range(num_red)] for _ in range(2)])
        targets = rng.random((2, answers, num_red))

        def objective(elements, k, x):
            res = np.real(np.einsum("aij,kji->ak", elements[k, x], reduced[k])) - targets[x]
            return float((res**2).sum())

        out = _povm_block(povms, reduced, targets, 10)
        for k, x in itertools.product(range(2), range(2)):
            _assert_povm(out[k, x])
            assert objective(out, k, x) <= objective(povms, k, x) + 1e-12
