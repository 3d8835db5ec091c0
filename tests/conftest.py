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


def random_correlation(rng: np.random.Generator, m: int, n: int, r: int, s: int) -> Correlation:
    table = rng.random((m, n, r, s))
    table /= table.sum(axis=(2, 3), keepdims=True)
    return Correlation(table)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
