"""Reference checks for the benchmark, written apart from qcorrkit.

Every function here takes plain arrays, numbers or files and returns a list
of problems (empty when the output is right).  Nothing is imported from
qcorrkit: correlations are recomputed with numpy einsums, and the ideal
truncation is compared against its closed forms.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

STATE_TOL = 1e-10
TABLE_TOL = 1e-12


def model_table(rho: np.ndarray, alice, bob) -> np.ndarray:
    """p(a,b|x,y) = Re tr[rho (A_x^a (x) B_y^b)] for a relaxed model on C^d (x) C^d."""
    d = math.isqrt(rho.shape[0])
    r4 = np.asarray(rho).reshape(d, d, d, d)
    return np.einsum("ijkl,xaki,yblj->xyab", r4, np.asarray(alice), np.asarray(bob)).real


def strategy_table(state: np.ndarray, d_a: int, d_b: int, alice, bob) -> np.ndarray:
    """p(a,b|x,y) = <psi| A_x^a (x) B_y^b |psi> via psi^H A psi, contracted with B."""
    psi = np.asarray(state).reshape(d_a, d_b)
    left = psi.conj().T @ np.asarray(alice) @ psi  # (m, r, dB, dB)
    table = np.einsum("xajl,ybjl->xyab", left, np.asarray(bob))
    if np.abs(table.imag).max() > STATE_TOL:
        raise ValueError("induced table has an imaginary part")
    return table.real


def max_tv(p: np.ndarray, q: np.ndarray) -> float:
    return float(0.5 * np.abs(p - q).sum(axis=(2, 3)).max())


def l2(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.sqrt(((p - q) ** 2).sum()))


def schmidt_reference(alpha: float, m: int) -> np.ndarray:
    """Schmidt coefficients of the dimension-2m truncation, largest first."""
    dim = 2 * m
    c0 = math.sqrt((1.0 - alpha**2) / (1.0 - alpha ** (2 * dim)))
    return c0 * alpha ** np.arange(dim)


def check_pstar_entries(table: np.ndarray, alpha: float, tol: float = TABLE_TOL) -> list[str]:
    """Closed-form entries of p* and the normalization of every question pair."""
    problems = []
    want = {
        (0, 4, 0, 0): 1.0 / (1.0 + alpha**2),
        (0, 4, 1, 1): alpha**2 / (1.0 + alpha**2),
        (2, 4, 2, 0): 1.0 - alpha**2,
    }
    for (x, y, a, b), value in want.items():
        if abs(table[x, y, a, b] - value) > tol:
            problems.append(f"p({a},{b}|{x},{y}) = {table[x, y, a, b]!r}, expected {value!r}")
    norm = float(np.abs(table.sum(axis=(2, 3)) - 1.0).max())
    if norm > tol or table.min() < -tol:
        problems.append(f"p* tables are not distributions (norm defect {norm:.3e})")
    return problems


def check_relaxed_model(rho: np.ndarray, povm_sets) -> list[str]:
    """rho is a density operator and every question's elements form a POVM."""
    problems = []
    if np.abs(rho - rho.conj().T).max() > 1e-12:
        problems.append("rho is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > STATE_TOL:
        problems.append(f"tr rho = {np.trace(rho).real!r}")
    if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -STATE_TOL:
        problems.append("rho has a negative eigenvalue")
    for side, povms in povm_sets:
        for x, elements in enumerate(povms):
            eye = np.eye(elements[0].shape[0])
            if np.abs(sum(elements) - eye).max() > STATE_TOL:
                problems.append(f"{side} question {x}: elements do not sum to the identity")
            for a, e in enumerate(elements):
                if np.abs(e - e.conj().T).max() > 1e-12:
                    problems.append(f"{side} ({x},{a}) is not Hermitian")
                elif np.linalg.eigvalsh(e).min() < -STATE_TOL:
                    problems.append(f"{side} ({x},{a}) is not PSD")
    return problems


def check_projective_strategy(state, d_a: int, d_b: int, alice, bob, tol: float = 1e-9) -> list[str]:
    """Unit state; Hermitian, idempotent, complete, mutually orthogonal elements."""
    problems = []
    if abs(np.linalg.norm(state) - 1.0) > STATE_TOL:
        problems.append("state is not unit norm")
    for side, dim, meas in (("A", d_a, alice), ("B", d_b, bob)):
        meas = np.asarray(meas)
        if meas.shape[2:] != (dim, dim):
            problems.append(f"{side} elements have shape {meas.shape[2:]}, expected {(dim, dim)}")
            continue
        if np.abs(meas - meas.conj().swapaxes(-1, -2)).max() > tol:
            problems.append(f"{side} has a non-Hermitian element")
        if np.abs(meas.sum(axis=1) - np.eye(dim)).max() > tol:
            problems.append(f"{side} has an incomplete question")
        prods = meas[:, :, None] @ meas[:, None, :]  # (m, r, r, dim, dim)
        for a in range(meas.shape[1]):
            for b in range(meas.shape[1]):
                want = meas[:, a] if a == b else 0.0
                if np.abs(prods[:, a, b] - want).max() > tol:
                    problems.append(f"{side} elements {a},{b} break P_a P_b = delta_ab P_a")
    return problems


def check_seesaw(target: np.ndarray, out: dict) -> list[str]:
    """One see-saw call: its distance, its iterate, its traces, its rounding.

    ``out`` holds ``distance``, ``rho``, ``alice``, ``bob`` (lists of POVMs),
    ``objectives`` (one list per restart) and, under rounding, ``rounded``:
    a dict with ``state``, ``dA``, ``dB``, ``alice``, ``bob``.
    """
    rho = out["rho"]
    problems = check_relaxed_model(rho, (("A", out["alice"]), ("B", out["bob"])))
    relaxed = model_table(rho, out["alice"], out["bob"])
    dist = l2(relaxed, target)
    if abs(dist - out["distance"]) > TABLE_TOL:
        problems.append(f"distance {out['distance']!r} != recomputed l2 {dist!r}")
    for k, objs in enumerate(out["objectives"]):
        rise = float(np.diff(objs).max(initial=0.0))
        if rise > TABLE_TOL:
            problems.append(f"restart {k} objective rises by {rise:.3e}")
        if out["distance"] > objs[-1] + 1e-15:
            problems.append(f"distance exceeds restart {k}'s final objective")
    rounded = out.get("rounded")
    if rounded is not None:
        args = (rounded["state"], rounded["dA"], rounded["dB"], rounded["alice"], rounded["bob"])
        bad = check_projective_strategy(*args)
        problems += [f"rounded strategy: {p}" for p in bad]
        if not bad:
            gap = float(np.abs(strategy_table(*args) - relaxed).max())
            if gap > STATE_TOL:
                problems.append(f"rounded correlation differs from the relaxed one by {gap:.3e}")
    return problems


def check_certificate(alpha: float, m: int, out: dict) -> list[str]:
    """One certified truncation point; see the README for the list of claims."""
    dim = 2 * m
    problems = []
    strat = out["strategy"]
    args = (strat["state"], strat["dA"], strat["dB"], strat["alice"], strat["bob"])
    bad = check_projective_strategy(*args)
    problems += [f"strategy: {p}" for p in bad]
    if not bad and not out["valid"]:
        problems.append("validate rejects a valid strategy")
    if bad and out["valid"]:
        problems.append("validate accepts an invalid strategy")

    induced = out["induced"]
    gap = float(np.abs(strategy_table(*args) - induced).max())
    if gap > TABLE_TOL:
        problems.append(f"induced table differs from the reference einsum by {gap:.3e}")
    exact = out["exact"]
    problems += check_pstar_entries(exact, alpha)
    bound = max(4.0 * alpha ** (4 * m), 2.0 * alpha ** (2 * (dim - 1))) + 1e-13
    tv = max_tv(induced, exact)
    if tv > bound:
        problems.append(f"max-TV to p* is {tv:.3e} > {bound:.3e}")
    if abs(out["distance"] - tv) > TABLE_TOL:
        problems.append(f"distance {out['distance']!r} != recomputed max-TV {tv!r}")

    c0sq = (1.0 - alpha**2) / (1.0 - alpha ** (2 * dim))
    for name in ("block_weights", "decomposition_weights"):
        weights = out[name]
        if weights is None or len(weights) != 2 or max(
            abs(weights[0] - (1.0 - c0sq)), abs(weights[1] - c0sq)
        ) > 1e-10:
            problems.append(f"{name} {weights} != ({1.0 - c0sq!r}, {c0sq!r})")

    coeffs = np.asarray(out["schmidt"])
    ref = schmidt_reference(alpha, m)
    if coeffs.shape != ref.shape:
        problems.append(f"{coeffs.size} Schmidt coefficients, expected {dim}")
    elif np.abs(coeffs - ref).max() > TABLE_TOL:
        problems.append("Schmidt coefficients differ from the closed form")
    if out["chain"] != dim:
        problems.append(f"descent chain has length {out['chain']}, expected {dim}")
    if max(out["y4"]) > TABLE_TOL:
        problems.append(f"y4 residual {max(out['y4']):.3e} > 1e-12")
    if not out["bijections"]:
        problems.append("Schmidt bijections do not hold")
    return problems


def load_strategy_file(path: Path) -> dict:
    """Parse a strategy JSON file with plain json into numpy arrays."""
    data = json.loads(path.read_text(encoding="utf-8"))

    def cplx(pairs):
        arr = np.asarray(pairs, dtype=float)
        return arr[..., 0] + 1j * arr[..., 1]

    return {
        "dA": int(data["dA"]),
        "dB": int(data["dB"]),
        "state": cplx(data["state"]),
        "alice": cplx(data["alice_meas"]),
        "bob": cplx(data["bob_meas"]),
    }


def load_correlation_file(path: Path) -> np.ndarray:
    data = json.loads(path.read_text(encoding="utf-8"))
    table = np.asarray(data["table"], dtype=float)
    if table.shape != (data["m"], data["n"], data["r"], data["s"]):
        raise ValueError(f"{path.name}: table shape disagrees with its header")
    return table


def load_correlation_csv(path: Path) -> np.ndarray:
    """Parse a 4x5-question, 3-answer correlation CSV (x, y, a, b, p rows)."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    table = np.zeros((4, 5, 3, 3))
    for row in rows:
        table[int(row["x"]), int(row["y"]), int(row["a"]), int(row["b"])] = float(row["p"])
    if len(rows) != table.size:
        raise ValueError(f"{path.name}: {len(rows)} rows, expected {table.size}")
    return table


def check_truncation_state(strat: dict, alpha: float, m: int) -> list[str]:
    """The stored state is the renormalized geometric diagonal, nothing else."""
    dim = 2 * m
    if (strat["dA"], strat["dB"]) != (dim, dim):
        return [f"strategy has dimensions {(strat['dA'], strat['dB'])}, expected {(dim, dim)}"]
    psi = strat["state"].reshape(dim, dim)
    gap = float(np.abs(psi - np.diag(schmidt_reference(alpha, m))).max())
    return [] if gap <= TABLE_TOL else [f"state differs from the closed form by {gap:.3e}"]
