"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts the criterion, including its runtime budget where one is stated.
"""

import math
import time

import numpy as np
import pytest

from qcorrkit.analysis import (
    descent_chain,
    multiset_equal,
    schmidt,
    schmidt_partition,
    strategy_block_decompose,
    verify_schmidt_bijections,
    verify_y4_relations,
)
from qcorrkit.correlation import distance, restrict
from qcorrkit.separating import (
    PRINTED_PAIRS,
    TruncationSpec,
    exact_pstar,
    ideal_truncated_strategy,
    printed_table,
    truncation_distance,
)
from qcorrkit.seesaw import SeesawConfig, optimize
from qcorrkit.strategy import (
    Strategy,
    induce,
    restrict_questions,
    validate,
)
from qcorrkit.tilted_chsh import (
    bell_value,
    ideal_strategy,
    ideal_table,
    params_from_alpha,
    params_from_beta,
)

from conftest import random_strategy


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} [{status}] {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_tilted_chsh_bound():
    start = time.perf_counter()
    worst = 0.0
    for beta in (0.0, 0.5, 1.0, 1.5, 2.0):
        value = bell_value(ideal_strategy(params_from_beta(beta)), beta)
        worst = max(worst, abs(value - math.sqrt(8.0 + 2.0 * beta**2)))
    untilted = bell_value(ideal_strategy(params_from_beta(0.0)), 0.0)
    worst = max(worst, abs(untilted - 2.0 * math.sqrt(2.0)))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-9 and elapsed < 1.0,
        f"max |bell - sqrt(8+2b^2)| = {worst:.2e} (tol 1e-9), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_table_reproduction():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (0.3, 0.5, 0.7):
        exact = exact_pstar(alpha)
        for x, y in PRINTED_PAIRS:
            gap = np.abs(exact.table[x, y] - printed_table(alpha, x, y).entries).max()
            worst = max(worst, float(gap))
    p = exact_pstar(0.5)
    spots = (
        abs(p.table[0, 4, 0, 0] - 0.8),
        abs(p.table[0, 4, 1, 1] - 0.2),
        abs(p.table[2, 4, 2, 0] - 0.75),
        abs(p.table[2, 4, 0, 0] - 0.05),
    )
    worst = max(worst, *spots)
    elapsed = time.perf_counter() - start
    report(
        2,
        worst <= 1e-12 and elapsed < 1.0,
        f"max printed-table deviation = {worst:.2e} (tol 1e-12), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_3_truncation_convergence():
    start = time.perf_counter()
    values = [truncation_distance(0.5, m, "max_tv") for m in range(3, 11)]
    bounds_ok = all(v <= 4.0 * 0.5 ** (4 * m) for m, v in zip(range(3, 11), values))
    lo, hi = 0.5**-4 / 2.0, 2.0 * 0.5**-4
    ratios = [values[i] / values[i + 1] for i in range(len(values) - 1)]
    ratios_ok = all(lo <= r <= hi for r in ratios)
    elapsed = time.perf_counter() - start
    report(
        3,
        bounds_ok and ratios_ok and elapsed < 5.0,
        f"max_tv <= 4*0.5^(4M) for M=3..10: {bounds_ok}; ratios in [{lo},{hi}]: "
        f"{ratios_ok} (range {min(ratios):.2f}..{max(ratios):.2f}), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_4_block_decomposition():
    s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=8))
    sub = restrict_questions(s, [2, 3], [2, 3])
    deco = strategy_block_decompose(sub, ((0, 1), (2,)), ((0, 1), (2,)), tol=1e-8)
    weight_gap = max(abs(deco.weights[0] - 0.25), abs(deco.weights[1] - 0.75))
    idem = deco.residuals["restricted_idempotence"]
    block = induce(deco.restricted[0], check=False)
    params = params_from_alpha(0.5)
    chsh_gap = 0.0
    for x in range(2):
        for y in range(2):
            flipped = ideal_table(params, x, y).entries[::-1, ::-1]
            chsh_gap = max(chsh_gap, float(np.abs(block.table[x, y] - flipped).max()))
    report(
        4,
        weight_gap <= 1e-8 and idem <= 1e-9 and chsh_gap <= 1e-8,
        f"weights off by {weight_gap:.2e} (tol 1e-8), idempotence {idem:.2e} "
        f"(tol 1e-9), block tables off by {chsh_gap:.2e} (tol 1e-8)",
    )


def test_criterion_5_question4_relations():
    worst = 0.0
    for m in (4, 8):
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=m))
        worst = max(worst, verify_y4_relations(s, tol=1e-12).max_residual)
    report(5, worst <= 1e-12, f"max relation residual = {worst:.2e} (tol 1e-12)")


def test_criterion_6_schmidt_partition_and_bijections():
    s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=8))
    part = schmidt_partition(s, tol=1e-9)  # raises if S != S0 u S1 at 1e-9
    merged = sorted(list(part.s0) + list(part.s1), reverse=True)
    union_ok = multiset_equal(part.s.as_list(), merged, rel_tol=1e-9)
    bij = verify_schmidt_bijections(s, 0.5, tol=1e-9)
    report(
        6,
        union_ok and bij.ok_first and bij.ok_second and bij.s2_size == 1,
        f"S = S0 u S1: {union_ok}; S1 = a*S0: {bij.ok_first}; S0\\S2 = a*S1 after "
        f"excluding boundary {bij.boundary_coefficient:.3e}: {bij.ok_second}; "
        f"|S2| = {bij.s2_size} (tol 1e-9)",
    )


def test_criterion_7_descent_chain_growth():
    start = time.perf_counter()
    lengths = []
    for m in range(2, 9):
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=m))
        spectrum = schmidt(s.state, s.dA, s.dB).spectrum
        lengths.append(descent_chain(spectrum, 0.5).max_length)
    exact_ok = lengths == [2 * m for m in range(2, 9)]
    increasing_ok = all(b > a for a, b in zip(lengths, lengths[1:]))
    elapsed = time.perf_counter() - start
    report(
        7,
        exact_ok and increasing_ok and elapsed < 5.0,
        f"max chain lengths {lengths} == 2M, strictly increasing, {elapsed:.2f}s (< 5s)",
    )


def test_criterion_8_seesaw_sanity():
    start = time.perf_counter()
    chsh = restrict(exact_pstar(0.5), [0, 1], [0, 1])
    cfg_chsh = SeesawConfig(
        local_dim=2, restarts=20, max_outer_iters=12, polish_iters=350,
        seed=7, convergence_tol=1e-12, state_steps=60, meas_steps=30,
    )
    chsh_result = optimize(chsh, cfg_chsh)

    target = exact_pstar(0.5)
    cfg_d2 = SeesawConfig(
        local_dim=2, restarts=8, max_outer_iters=30, polish_iters=60,
        seed=11, convergence_tol=1e-12, state_steps=40, meas_steps=20,
    )
    d2_result = optimize(target, cfg_d2)
    cfg_d8 = SeesawConfig(
        local_dim=8, restarts=2, max_outer_iters=10, polish_iters=8,
        seed=13, convergence_tol=1e-12, state_steps=25, meas_steps=10,
    )
    d8_result = optimize(target, cfg_d8)
    elapsed = time.perf_counter() - start
    report(
        8,
        chsh_result.distance <= 1e-6
        and d8_result.distance <= d2_result.distance
        and d2_result.distance > 0.0
        and d8_result.distance > 0.0
        and elapsed < 60.0,
        f"chsh@d=2 {chsh_result.distance:.2e} (tol 1e-6); separating target "
        f"d=2 {d2_result.distance:.3e} >= d=8 {d8_result.distance:.3e}, both > 0 "
        f"(reported, no reference value exists), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_9_validators():
    rng = np.random.default_rng(2718)
    shapes = [(2, 2, 2, 2, 2, 2), (3, 2, 2, 3, 3, 3), (2, 3, 4, 5, 2, 3), (4, 4, 2, 2, 3, 2)]
    valid_ok = 0
    for i in range(100):
        dA, dB, m, n, r, s = shapes[i % len(shapes)]
        strat = random_strategy(rng, dA=dA, dB=dB, m=m, n=n, r=r, s=s)
        if validate(strat).ok:
            valid_ok += 1

    flagged = 0
    for i in range(100):
        dA, dB, m, n, r, s = shapes[i % len(shapes)]
        strat = random_strategy(rng, dA=dA, dB=dB, m=m, n=n, r=r, s=s)
        kind = i % 3
        alice = [list(q) for q in strat.alice_meas]
        state = strat.state
        if kind == 0:  # scaled projector
            alice[0][0] = 1.01 * alice[0][0]
        elif kind == 1:  # dropped element
            alice[i % m] = list(alice[i % m])
            alice[i % m][0] = np.zeros((dA, dA), dtype=complex)
        else:  # denormalized state
            state = 1.05 * state
        broken = Strategy(dA, dB, state, alice, strat.bob_meas)
        if not validate(broken).ok:
            flagged += 1

    report(
        9,
        valid_ok == 100 and flagged == 100,
        f"{valid_ok}/100 random strategies valid, {flagged}/100 corruptions flagged",
    )
