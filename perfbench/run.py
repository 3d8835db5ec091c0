"""Benchmark of qcorrkit: see-saw search, truncation certificates and the CLI.

    python3 perfbench/run.py                        # all four workloads
    python3 perfbench/run.py --workload seesaw-d2 --seed 3 --seconds 20 --trace 0

Each workload runs in a process of its own, one operation at a time, in
whole rounds of a fixed list of operations made from ``--seed``.  The number
of rounds is ``--seconds`` over the workload's nominal round length, at least
one, so every run of a workload attempts the same operations.  Every operation's output is
checked (see checks.py).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics of the traced
run with ``--trace 1``.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

T_START = perf_counter()

# One BLAS thread, so a run uses one core; numpy reads these when it is
# first imported, which happens below this point.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("seesaw-d2", "seesaw-d8", "certify-ladder", "cli-files")
PREPARE_REPEATS = 3


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace) -> tuple[dict, list[str]]:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from qcorrkit import analysis, cli, correlation, seesaw, separating, strategy
    from tracing import Tracer

    import_s = perf_counter() - T_START
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    tracer = Tracer() if args.trace else None
    try:
        prepare = []
        for _ in range(PREPARE_REPEATS):
            t0 = perf_counter()
            wl = workloads.WORKLOADS[args.workload](args.workload, args.seed, workdir)
            prepare.append(perf_counter() - t0)
        if tracer is not None:
            tracer.install({"seesaw": seesaw, "separating": separating, "strategy": strategy,
                            "correlation": correlation, "analysis": analysis, "cli": cli})
        t0 = perf_counter()
        out = wl.warmup.run()
        warmup_s = perf_counter() - t0
        problems = [f"warm-up {wl.warmup.name}: {p}" for p in wl.warmup.check(out)]
        setup_s = import_s + statistics.median(prepare) + warmup_s

        op_times: list[list[float]] = [[] for _ in wl.ops]
        rounds = max(1, round(args.seconds / wl.round_s))
        errors: dict[str, str] = {}
        quality: dict[int, float] = {}
        failed = 0
        for r in range(rounds):
            for i, op in enumerate(wl.ops):
                if tracer is not None:
                    tracer.op = f"{r}:{i}"
                t0 = perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # counted, reported, and the run goes on
                    op_times[i].append(perf_counter() - t0)
                    failed += 1
                    errors.setdefault(op.name, f"{type(exc).__name__}: {exc}")
                    continue
                op_times[i].append(perf_counter() - t0)
                problems += [f"{op.name}: {p}" for p in op.check(out)]
                q = op.quality(out)
                if q is not None and quality.setdefault(i, q) != q:
                    problems.append(f"{op.name}: repeat gave {q!r}, first round {quality[i]!r}")
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    # the median round: each operation's median time over the rounds, summed
    median_round = sum(statistics.median(times) for times in op_times)
    all_times = [t for times in op_times for t in times]
    if not quality:
        problems.append("no operation produced a distance for seesaw_l2")
    if args.trace:
        metrics = tracer.layer_metrics(rounds)
        metrics["traced.wall_s"] = (median_round, "s")
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"workload": args.workload, "seed": args.seed, "spans": tracer.spans}))
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (median_round, "s"),
            "op_s_p50": (statistics.median(all_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
            "seesaw_l2": (math.exp(statistics.fmean(math.log(q) for q in quality.values()))
                          if quality else float("nan"), "1"),
        }
    result = {
        "correct": not problems,
        "attempted": len(all_times),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    notes = [f"{args.workload}: {rounds} rounds of {len(wl.ops)} operations"]
    notes += [f"failed {name}: {msg}" for name, msg in errors.items()]
    notes += [f"WRONG {p}" for p in problems[:20]]
    return result, notes


def run_all(args: argparse.Namespace) -> int:
    results, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            code = 1
            if not lines:
                continue
        results[name] = result = json.loads(lines[-1])
        code = code or (0 if result["correct"] else 1)
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"    {metric:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                      "workloads": results}))
    return code


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qcorrkit" / "__init__.py").is_file():
        print(f"no qcorrkit sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, notes = run_one(args)
    for note in notes:
        print(note, file=sys.stderr)
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
