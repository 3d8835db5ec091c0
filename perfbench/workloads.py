"""The four workloads: lists of operations on qcorrkit, each with its check.

A workload is a fixed list of operations made from the seed; the runner
repeats the list a fixed number of whole rounds.  Every operation calls
qcorrkit through module attributes at call time, so the traced run sees the
calls it wraps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
from qcorrkit import analysis as an
from qcorrkit import cli
from qcorrkit import correlation as co
from qcorrkit import seesaw as ss
from qcorrkit import separating as sep
from qcorrkit import strategy as st


@dataclass
class Op:
    """One timed call into the program; ``check`` and ``quality`` run untimed."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    quality: Callable[[Any], float | None] = field(default=lambda out: None)


@dataclass
class Workload:
    """``round_s``: nominal seconds per round, checks included, on a 2-vCPU Xeon VM."""

    ops: list[Op]
    warmup: Op
    round_s: float


# --- see-saw ----------------------------------------------------------------

SEESAW_ALPHA = 0.5
# convergence_tol 0 leaves the budget (restarts * max_outer_iters +
# polish_iters outer iterations) as what stops a call, so work per call is
# fixed.  d = 8 is not rounded: Bob's dilation has dimension 3 * d * rank(rho),
# up to 1536, which would put hundreds of MB of dense elements in one call.
SEESAW = {
    "seesaw-d2": dict(calls=8, rounded_every=4, local_dim=2, restarts=3,
                      max_outer_iters=2, polish_iters=2, state_steps=40, meas_steps=20),
    "seesaw-d8": dict(calls=12, rounded_every=0, local_dim=8, restarts=2,
                      max_outer_iters=2, polish_iters=1, state_steps=25, meas_steps=10),
}
SEESAW_ROUND_S = {"seesaw-d2": 8.0, "seesaw-d8": 24.0}


def _strategy_arrays(s) -> dict:
    return {"state": np.asarray(s.state), "dA": s.dA, "dB": s.dB,
            "alice": np.asarray(s.alice_meas), "bob": np.asarray(s.bob_meas)}


def seesaw_output(res) -> dict:
    """The parts of a SeesawResult that checks.check_seesaw reads."""
    return {
        "distance": res.distance,
        "rho": res.rho,
        "alice": res.alice_povms,
        "bob": res.bob_povms,
        "objectives": [t.objectives for t in res.traces],
        "rounded": None if res.strategy is None else _strategy_arrays(res.strategy),
    }


def _check_seesaw(target: np.ndarray, res) -> list[str]:
    if (res.config.rounding == "projective") != (res.strategy is not None):
        return ["rounded strategy missing or unasked for"]
    return checks.check_seesaw(target, seesaw_output(res))


def seesaw_workload(name: str, seed: int, workdir: Path) -> Workload:
    spec = dict(SEESAW[name])
    calls, every = spec.pop("calls"), spec.pop("rounded_every")
    rng = np.random.default_rng(seed)
    target = sep.exact_pstar(SEESAW_ALPHA)
    table = np.array(target.table)
    ops = []
    for i in range(calls):
        rounding = "projective" if every and i % every == 0 else "none"
        cfg = ss.SeesawConfig(seed=int(rng.integers(2**63)), convergence_tol=0.0,
                              rounding=rounding, **spec)
        ops.append(Op(f"optimize[{i}]", lambda cfg=cfg: ss.optimize(target, cfg),
                      lambda res: _check_seesaw(table, res), lambda res: res.distance))
    return Workload(ops, warmup=ops[0], round_s=SEESAW_ROUND_S[name])


# --- certificates on the truncation ladder ----------------------------------

# alpha = 0.95 holds every certificate up to m = 128 (D = 256).  The
# alpha = 0.5 points fail on every run: strategy_block_decompose raises
# (see the README), so they count as failed operations.  The ladder takes
# nothing from the seed: its truncation error, and so seesaw_l2, moves as
# alpha^(4m), and a shuffled order moved peak memory and the small points'
# times from run to run.
LADDER = [(0.95, m) for m in (2, 4, 8, 16, 32, 64, 128)] + [(0.5, 16), (0.5, 32)]
WARMUP_POINT = (0.95, 32)
SPLIT = (((0, 1), (2,)), ((0, 1), (2,)))


def certify(alpha: float, m: int) -> dict:
    s = sep.ideal_truncated_strategy(sep.TruncationSpec(alpha=alpha, m=m))
    valid = st.validate(s).ok
    induced = st.induce(s)
    exact = sep.exact_pstar(alpha)
    dist = co.distance(exact, induced)
    blocks = co.block_structure_check(co.restrict(induced, [2, 3], [2, 3]), co.BlockSpec(*SPLIT))
    spectrum = an.schmidt(s.state, s.dA, s.dB).spectrum
    chain = an.descent_chain(spectrum, alpha)
    y4 = an.verify_y4_relations(s)
    bij = an.verify_schmidt_bijections(s, alpha)
    deco = an.strategy_block_decompose(st.restrict_questions(s, [2, 3], [2, 3]), *SPLIT)
    return {
        "strategy": s, "valid": valid, "induced": induced.table, "exact": exact.table,
        "distance": dist, "block_weights": blocks.weights if blocks.ok else None,
        "decomposition_weights": deco.weights, "schmidt": spectrum.as_list(),
        "chain": chain.max_length, "y4": list(y4.residuals.values()), "bijections": bij.ok,
    }


def certificate_output(out: dict) -> dict:
    """``certify``'s output with the strategy as plain arrays."""
    return {**out, "strategy": _strategy_arrays(out["strategy"])}


def _certify_op(alpha: float, m: int) -> Op:
    def check(out: dict) -> list[str]:
        return checks.check_certificate(alpha, m, certificate_output(out))

    return Op(f"certify[{alpha},{m}]", lambda: certify(alpha, m), check,
              lambda out: checks.l2(out["induced"], out["exact"]))


def certify_workload(name: str, seed: int, workdir: Path) -> Workload:
    return Workload([_certify_op(*point) for point in LADDER], warmup=_certify_op(*WARMUP_POINT),
                    round_s=4.0)


# --- CLI with files ---------------------------------------------------------

# alpha is fixed for the reason given at LADDER; the seed picks the small
# truncation that `distance` compares against and the range `chain` covers.
CLI_ALPHA = 0.95
CLI_M = 64  # D = 128: the strategy file is about 5.5 MB of JSON


def _cli(argv: list[str]) -> int:
    code = cli.run(argv)
    if code != 0:
        raise RuntimeError(f"qcorrkit {argv[0]} exited with {code}")
    return code


def cli_workload(name: str, seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    alpha, a = CLI_ALPHA, repr(CLI_ALPHA)
    small_m, chain_m_max = int(rng.integers(4, 13)), int(rng.integers(16, 25))
    f = {key: workdir / key for key in (
        "strategy.json", "induced.json", "schmidt.json", "verify_file.json", "verify.json",
        "chain.json", "pstar.csv", "induced_small.json", "distance.json")}

    def load(key: str):
        return json.loads(f[key].read_text(encoding="utf-8"))

    def check_truncate(_):
        strat = checks.load_strategy_file(f["strategy.json"])
        return checks.check_truncation_state(strat, alpha, CLI_M) + checks.check_projective_strategy(
            strat["state"], strat["dA"], strat["dB"], strat["alice"], strat["bob"])

    def check_induce(_):
        strat = checks.load_strategy_file(f["strategy.json"])
        ref = checks.strategy_table(strat["state"], strat["dA"], strat["dB"], strat["alice"], strat["bob"])
        gap = float(np.abs(checks.load_correlation_file(f["induced.json"]) - ref).max())
        return [] if gap <= checks.TABLE_TOL else [f"induce differs from the reference by {gap:.3e}"]

    def check_schmidt(_):
        coeffs = np.asarray(load("schmidt.json")["coefficients"])
        ref = checks.schmidt_reference(alpha, CLI_M)
        if coeffs.shape != ref.shape:
            return [f"{coeffs.size} Schmidt coefficients, expected {ref.size}"]
        ok = np.abs(coeffs - ref).max() <= checks.TABLE_TOL
        return [] if ok else ["Schmidt coefficients differ from the closed form"]

    def check_verify(key):
        def check(_):
            payload = load(key)
            rows = payload["checks"] if isinstance(payload["checks"], list) else []
            failing = [c["name"] for c in rows if c["pass"] is not True]
            if payload.get("passed") is not True or failing:
                return [f"{key}: verification did not pass {failing}"]
            return []
        return check

    def check_chain(_):
        rows = load("chain.json")
        bad = [r for r in rows if r["max_chain_length"] != 2 * r["m"]]
        if [r["m"] for r in rows] != list(range(2, chain_m_max + 1)) or bad:
            return [f"chain lengths differ from 2m: {bad[:3]}"]
        return []

    def check_tables(_):
        return checks.check_pstar_entries(checks.load_correlation_csv(f["pstar.csv"]), alpha)

    def tables_l2(_):
        exact = checks.load_correlation_csv(f["pstar.csv"])
        return checks.l2(checks.load_correlation_file(f["induced.json"]), exact)

    def check_small(_):
        exact = checks.load_correlation_csv(f["pstar.csv"])
        tv = checks.max_tv(checks.load_correlation_file(f["induced_small.json"]), exact)
        bound = max(4.0 * alpha ** (4 * small_m), 2.0 * alpha ** (2 * (2 * small_m - 1))) + 1e-13
        return [] if tv <= bound else [f"m={small_m} truncation is {tv:.3e} from p*"]

    def check_distance(_):
        ref = checks.max_tv(checks.load_correlation_file(f["induced.json"]),
                            checks.load_correlation_file(f["induced_small.json"]))
        value = load("distance.json")["value"]
        return [] if abs(value - ref) <= checks.TABLE_TOL else [f"distance {value!r} != {ref!r}"]

    def op(name, argv, check, quality=lambda out: None):
        return Op(name, lambda: _cli([str(v) for v in argv]), check, quality)

    ops = [
        op("truncate", ["truncate", "--alpha", a, "--m", CLI_M, "--out", f["strategy.json"]], check_truncate),
        op("induce", ["induce", "--strategy", f["strategy.json"], "--out", f["induced.json"]], check_induce),
        op("schmidt", ["schmidt", "--strategy", f["strategy.json"], "--out", f["schmidt.json"]], check_schmidt),
        op("verify-file", ["verify", "--strategy", f["strategy.json"], "--out", f["verify_file.json"]],
           check_verify("verify_file.json")),
        op("verify", ["verify", "--alpha", a, "--m", CLI_M, "--out", f["verify.json"]], check_verify("verify.json")),
        op("chain", ["chain", "--alpha", a, "--m-min", 2, "--m-max", chain_m_max, "--format", "json",
                     "--out", f["chain.json"]], check_chain),
        op("tables", ["tables", "--alpha", a, "--format", "csv", "--out", f["pstar.csv"]], check_tables, tables_l2),
        op("induce-small", ["induce", "--alpha", a, "--m", small_m, "--out", f["induced_small.json"]],
           check_small),
        op("distance", ["distance", "--p", f["induced.json"], "--q", f["induced_small.json"],
                        "--out", f["distance.json"]], check_distance),
    ]
    return Workload(ops, warmup=ops[0], round_s=6.0)


WORKLOADS = {
    "seesaw-d2": seesaw_workload,
    "seesaw-d8": seesaw_workload,
    "certify-ladder": certify_workload,
    "cli-files": cli_workload,
}
