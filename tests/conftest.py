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
    """Per-question POVM oracle for (r, d, d) Hermitian gradients, column by column.

    The see-saw's first vertex oracle, kept as the reference for the batched
    one: a greedy orthonormal basis (each eigen-direction given full weight on
    its minimizing outcome), then exact two-outcome exchanges on the span each
    outcome pair owns, until a sweep moves no column.
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
    return np.array([o @ o.conj().T for o in owners])


def random_correlation(rng: np.random.Generator, m: int, n: int, r: int, s: int) -> Correlation:
    table = rng.random((m, n, r, s))
    table /= table.sum(axis=(2, 3), keepdims=True)
    return Correlation(table)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
