"""Shared oracles, test-input builders and fixtures for the test suite."""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pytest
from hypothesis import settings

from qcorrkit.correlation import Correlation, CorrelationError
from qcorrkit.strategy import Strategy, StrategyError, _random_measurements, haar_unitary

# Property tests draw the same examples on every run and stay bounded in time.
settings.register_profile("qcorrkit", derandomize=True, deadline=None, max_examples=25, database=None)
settings.load_profile("qcorrkit")


def kron_induce(s: Strategy) -> np.ndarray:
    """Brute-force induced table via dense tensor products.

    Independent of the package's matrix-contraction route: builds the full
    (dA*dB) x (dA*dB) operators with np.kron and takes raw inner products.
    """
    psi = np.asarray(s.state)
    table = np.empty((s.m, s.n, s.r, s.s))
    for x in range(s.m):
        for y in range(s.n):
            for a in range(s.r):
                for b in range(s.s):
                    op = np.kron(s.alice_meas[x][a], s.bob_meas[y][b])
                    val = psi.conj() @ (op @ psi)
                    assert abs(val.imag) < 1e-10
                    table[x, y, a, b] = val.real
    return table


def povm_vertex_reference(grads: np.ndarray, sweeps: int = 2) -> np.ndarray:
    """Per-question POVM oracle for (r, d, d) Hermitian gradients, pair by pair.

    The reference for the batched oracle: the best Helstrom split over outcome
    pairs (E_a the negative eigenspace of G_a - G_b, E_b its complement),
    returned as it is when min(r, d) <= 2, else polished by exchanges.
    """
    num_out, dim = grads.shape[:2]
    if num_out == 1:
        return np.eye(dim, dtype=complex)[None]
    best = np.inf
    for a in range(num_out):
        for b in range(a + 1, num_out):
            evals, evecs = np.linalg.eigh(grads[a] - grads[b])
            value = np.trace(grads[b]).real + evals[evals < 0.0].sum()
            if value < best:
                best, start = value, (a, b, evecs[:, evals < 0.0], evecs[:, evals >= 0.0])
    a, b, low, high = start
    owners = [np.zeros((dim, 0), dtype=complex) for _ in range(num_out)]
    owners[a], owners[b] = low, high
    if min(num_out, dim) > 2:
        _exchange(grads, owners, sweeps)
    return np.array([o @ o.conj().T for o in owners])


def greedy_vertex_reference(grads: np.ndarray, sweeps: int = 2) -> np.ndarray:
    """The see-saw's earlier POVM oracle, per question, for (r, d, d) Hermitian gradients.

    A greedy orthonormal basis (each eigen-direction given full weight on its
    minimizing outcome), then exact two-outcome exchanges on the span each
    outcome pair owns, until a sweep moves no column.  Kept as the baseline
    the Helstrom start must not lose to where it is exact.
    """
    num_out, dim = grads.shape[:2]
    basis = np.eye(dim, dtype=complex)
    cols: list[list[np.ndarray]] = [[] for _ in range(num_out)]
    while basis.shape[1] > 0:
        restricted = basis.conj().T @ grads @ basis
        evals, evecs = np.linalg.eigh(0.5 * (restricted + restricted.conj().swapaxes(-1, -2)))
        a = int(np.argmin(evals[:, 0]))
        cols[a].append(basis @ evecs[a, :, 0])
        basis = basis @ evecs[a, :, 1:]
    owners = [np.array(c, dtype=complex).reshape(-1, dim).T for c in cols]
    _exchange(grads, owners, sweeps)
    return np.array([o @ o.conj().T for o in owners])


def _exchange(grads: np.ndarray, owners: list[np.ndarray], sweeps: int) -> None:
    """Exact two-outcome exchanges on the span each outcome pair owns, in place.

    Stops after a sweep that moves no column.
    """
    num_out = len(owners)
    for _ in range(sweeps):
        improved = False
        for a in range(num_out):
            for b in range(a + 1, num_out):
                span = np.hstack([owners[a], owners[b]])
                if span.shape[1] == 0:
                    continue
                diff = span.conj().T @ (grads[a] - grads[b]) @ span
                evals, evecs = np.linalg.eigh(0.5 * (diff + diff.conj().T))
                neg = evals < 0.0
                if np.count_nonzero(neg) != owners[a].shape[1]:
                    improved = True
                owners[a], owners[b] = span @ evecs[:, neg], span @ evecs[:, ~neg]
        if not improved:
            break


def direct_sum(blocks: Sequence[tuple[float, Correlation]]) -> Correlation:
    """Assemble a correlation whose answer sets split into weighted diagonal blocks.

    All blocks must share the question counts (m, n).  Block answers occupy
    contiguous index ranges in declaration order; the result satisfies
    p(a, b | x, y) = w_i * p_i(a, b | x, y) when (a, b) lie in block i and is
    zero across blocks.
    """
    if not blocks:
        raise CorrelationError("direct_sum requires at least one block")
    weights = np.array([w for w, _ in blocks], dtype=float)
    parts = [q for _, q in blocks]
    if np.any(weights < 0.0):
        raise CorrelationError("block weights must be nonnegative")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise CorrelationError(f"block weights must sum to 1, got {weights.sum()!r}")
    m, n = parts[0].m, parts[0].n
    for q in parts[1:]:
        if (q.m, q.n) != (m, n):
            raise CorrelationError(
                f"blocks must share question counts: ({q.m},{q.n}) != ({m},{n})"
            )
    table = np.zeros((m, n, sum(q.r for q in parts), sum(q.s for q in parts)))
    ra = sa = 0
    for w, q in zip(weights, parts):
        table[:, :, ra : ra + q.r, sa : sa + q.s] = w * q.table
        ra += q.r
        sa += q.s
    return Correlation(table)


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
    """Haar-random pure state with Haar-random projective measurements."""
    state = rng.normal(size=dA * dB) + 1j * rng.normal(size=dA * dB)
    state /= np.linalg.norm(state)
    return Strategy(
        dA=dA,
        dB=dB,
        state=state,
        alice_meas=_random_measurements(rng, dA, m, r),
        bob_meas=_random_measurements(rng, dB, n, s),
    )


def rotated_strategy(s: Strategy, seed: int = 0) -> Strategy:
    """``s`` conjugated by one Haar-random U_A (x) U_B, drawn from ``default_rng(seed)``, A then B.

    The same strategy in another local basis: its correlation, Schmidt
    coefficients and operator relations are unchanged.
    """
    rng = np.random.default_rng(seed)
    ua, ub = haar_unitary(rng, s.dA), haar_unitary(rng, s.dB)
    return Strategy(
        s.dA,
        s.dB,
        (ua @ s.state_matrix() @ ub.T).reshape(-1),
        ua @ s.alice_meas @ ua.conj().T,
        ub @ s.bob_meas @ ub.conj().T,
    )


def random_correlation(rng: np.random.Generator, m: int, n: int, r: int, s: int) -> Correlation:
    table = rng.random((m, n, r, s))
    table /= table.sum(axis=(2, 3), keepdims=True)
    return Correlation(table)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
