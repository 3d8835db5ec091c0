"""Tilted CHSH: parameter relations, the ideal two-qubit strategy, and the Bell value.

The tilted CHSH expression beta*A0 + A0B0 + A0B1 + A1B0 - A1B1 has quantum
maximum sqrt(8 + 2 beta^2), attained by a partially entangled two-qubit state
whose amplitude ratio alpha = tan(theta) shrinks as the tilt beta grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationTable
from .strategy import Strategy, StrategyError

__all__ = [
    "TiltedChshParams",
    "params_from_beta",
    "params_from_alpha",
    "ideal_strategy",
    "bell_value",
    "ideal_table",
    "tilted_sigma_z",
    "tilted_sigma_x",
    "SIGMA_Z",
    "SIGMA_X",
]

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])

PARAM_TOL = 1e-12


def tilted_sigma_z(mu: float) -> np.ndarray:
    """cos(mu) sigma_z + sin(mu) sigma_x."""
    return math.cos(mu) * SIGMA_Z + math.sin(mu) * SIGMA_X


def tilted_sigma_x(mu: float) -> np.ndarray:
    """cos(mu) sigma_z - sin(mu) sigma_x."""
    return math.cos(mu) * SIGMA_Z - math.sin(mu) * SIGMA_X


@dataclass(frozen=True)
class TiltedChshParams:
    """The (beta, theta, mu, alpha) tuple tied together by the tilt relations.

    Invariants (checked at construction, all in radians):
      sin(2 theta) = sqrt((4 - beta^2) / (4 + beta^2)),
      mu = arctan(sin(2 theta)),  alpha = tan(theta).
    """

    beta: float
    theta: float
    mu: float
    alpha: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.beta <= 2.0):
            raise ValueError(f"beta must lie in [0, 2], got {self.beta!r}")
        if not (0.0 <= self.theta <= math.pi / 4 + PARAM_TOL):
            raise ValueError(f"theta must lie in [0, pi/4], got {self.theta!r}")
        sin2t = math.sqrt((4.0 - self.beta**2) / (4.0 + self.beta**2))
        if abs(math.sin(2.0 * self.theta) - sin2t) > PARAM_TOL:
            raise ValueError("theta is inconsistent with beta")
        if abs(self.mu - math.atan(sin2t)) > PARAM_TOL:
            raise ValueError("mu is inconsistent with beta")
        if abs(self.alpha - math.tan(self.theta)) > PARAM_TOL:
            raise ValueError("alpha is inconsistent with theta")


def params_from_beta(beta: float) -> TiltedChshParams:
    """Parameters for a given tilt beta in [0, 2]."""
    beta = float(beta)
    if not (0.0 <= beta <= 2.0):
        raise ValueError(f"beta must lie in [0, 2], got {beta!r}")
    sin2t = math.sqrt((4.0 - beta**2) / (4.0 + beta**2))
    theta = math.asin(sin2t) / 2.0
    return TiltedChshParams(
        beta=beta, theta=theta, mu=math.atan(sin2t), alpha=math.tan(theta)
    )


def params_from_alpha(alpha: float) -> TiltedChshParams:
    """Parameters for a given state ratio alpha in [0, 1].

    Inverts the beta -> alpha map through the closed form
    beta = 2 (1 - alpha^2) / sqrt(1 + 6 alpha^2 + alpha^4); the round trip
    through :func:`params_from_beta` reproduces alpha to 1e-10.
    """
    alpha = float(alpha)
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    beta = 2.0 * (1.0 - alpha**2) / math.sqrt(1.0 + 6.0 * alpha**2 + alpha**4)
    return params_from_beta(beta)


def _pm_projectors(obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # valid for any involution (obs @ obs = identity)
    eye = np.eye(obs.shape[0])
    return (eye + obs) / 2.0, (eye - obs) / 2.0


def _ideal_arrays(params: TiltedChshParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`ideal_strategy`'s 2x2 state matrix and (question, answer, 2, 2) projectors."""
    cos_t, mu = math.cos(params.theta), params.mu
    psi = np.array([[cos_t, 0.0], [0.0, cos_t * params.alpha]])
    alice = np.array([_pm_projectors(o) for o in (SIGMA_Z, SIGMA_X)])
    bob = np.array([_pm_projectors(o) for o in (tilted_sigma_z(mu), tilted_sigma_x(mu))])
    return psi, alice, bob


def ideal_strategy(params: TiltedChshParams) -> Strategy:
    """The optimal two-qubit strategy for the given tilt.

    State cos(theta)(|00> + alpha |11>); Alice measures sigma_z / sigma_x,
    Bob the mu-tilted versions.  The +1 eigenspace answers 0, the -1
    eigenspace answers 1.
    """
    psi, alice, bob = _ideal_arrays(params)
    return Strategy(dA=2, dB=2, state=psi.reshape(-1), alice_meas=alice, bob_meas=bob)


def _expectation(psi: np.ndarray, op_a: np.ndarray, op_b: np.ndarray) -> float:
    val = complex(np.sum(psi.conj() * (op_a @ psi @ op_b.T)))
    return val.real


def bell_value(s: Strategy, beta: float) -> float:
    """Value of beta*A0 + A0B0 + A0B1 + A1B0 - A1B1 on the strategy.

    A_x and B_y are the answer-0-minus-answer-1 observables of questions 0
    and 1; extra questions or answers are ignored.
    """
    if s.m < 2 or s.n < 2 or s.r < 2 or s.s < 2:
        raise StrategyError(
            f"bell_value needs >= 2 questions and 2 answers per side, got "
            f"({s.m},{s.n},{s.r},{s.s})"
        )
    a_obs = s.alice_meas[:2, 0] - s.alice_meas[:2, 1]
    b_obs = s.bob_meas[:2, 0] - s.bob_meas[:2, 1]
    psi = s.state_matrix()
    eye_b = np.eye(s.dB)
    return (
        beta * _expectation(psi, a_obs[0], eye_b)
        + _expectation(psi, a_obs[0], b_obs[0])
        + _expectation(psi, a_obs[0], b_obs[1])
        + _expectation(psi, a_obs[1], b_obs[0])
        - _expectation(psi, a_obs[1], b_obs[1])
    )


def _ideal_entries(params: TiltedChshParams) -> np.ndarray:
    """(x, y, a, b) entries <psi, A_x^a psi B_y^b^T> of the ideal strategy, in one batched product."""
    psi, alice, bob = _ideal_arrays(params)
    return (psi * (alice[:, None, :, None] @ psi @ bob.swapaxes(-1, -2)[None, :, None])).sum(axis=(-2, -1))


def ideal_table(params: TiltedChshParams, x: int, y: int) -> CorrelationTable:
    """The 2x2 probability table of the ideal strategy on question pair (x, y)."""
    if x not in (0, 1) or y not in (0, 1):
        raise ValueError(f"ideal tables exist for x, y in {{0, 1}}, got ({x},{y})")
    return CorrelationTable(x=x, y=y, entries=_ideal_entries(params)[x, y])
