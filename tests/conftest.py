"""Shared oracles and fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from qcorrkit.correlation import Correlation
from qcorrkit.strategy import Strategy

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


def random_correlation(rng: np.random.Generator, m: int, n: int, r: int, s: int) -> Correlation:
    table = rng.random((m, n, r, s))
    table /= table.sum(axis=(2, 3), keepdims=True)
    return Correlation(table)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
