"""Command-line surface: generators, verifiers, and the see-saw optimizer.

Subcommands emit JSON on stdout (canonical key order, shortest round-trip
float formatting, null for a non-finite number); ``tables``, ``induce``,
``schmidt`` and ``chain`` also write CSV with ``--format csv``, the default
for ``chain``.  ``--out`` writes to a file instead.  Exit codes: 0 success,
1 usage error, 2 verification failure (the failing residual, and its reason
where one is known, is named on stderr).  ``schmidt`` prints the cutoff its
SVD resolves; ``chain`` exits 2 naming it rather than print a length it
clipped.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Iterable

from . import analysis, correlation, seesaw, separating, strategy

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qcorrkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # None, so that _truncation_flags tells a given --alpha or --m from its default
    def common(p, formats=False, m=True):
        p.add_argument("--alpha", type=float, default=None, help="state ratio in (0,1) (default 0.5)")
        if m:
            p.add_argument("--m", type=int, default=None, help="number of pairing blocks (default 8)")
        p.add_argument("--out", type=str, default=None, help="write output to this path")
        if formats:
            p.add_argument("--format", choices=["json", "csv"], default="json", help="output format")

    p = sub.add_parser("tables", help="closed-form or exact correlation tables")
    common(p, formats=True, m=False)
    p.add_argument("--pair", type=int, nargs=2, metavar=("X", "Y"), default=None)
    p.add_argument("--source", choices=["printed", "exact"], default="printed")

    p = sub.add_parser("truncate", help="emit the truncated ideal strategy as JSON")
    common(p)

    p = sub.add_parser("induce", help="correlation induced by a strategy")
    common(p, formats=True)
    p.add_argument("--strategy", type=str, default=None, help="strategy JSON file")

    p = sub.add_parser("distance", help="distance between correlations")
    common(p)
    p.add_argument("--metric", choices=["max_tv", "l2"], default="max_tv")
    p.add_argument("--p", dest="p_file", type=str, default=None, help="correlation JSON file")
    p.add_argument("--q", dest="q_file", type=str, default=None, help="correlation JSON file")

    p = sub.add_parser("schmidt", help="Schmidt spectrum of a strategy's state")
    common(p, formats=True)
    p.add_argument("--strategy", type=str, default=None)

    p = sub.add_parser("blocks", help="block decomposition of the truncated strategy")
    common(p)
    p.add_argument("--xs", type=int, nargs="+", default=[2, 3])
    p.add_argument("--ys", type=int, nargs="+", default=[2, 3])
    p.add_argument("--alice-partition", type=str, default="0,1|2")
    p.add_argument("--bob-partition", type=str, default="0,1|2")
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("chain", help="descent-chain lengths across truncations")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--m-min", type=int, default=2)
    p.add_argument("--m-max", type=int, default=8)
    p.add_argument("--rel-tol", type=float, default=1e-6)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="csv")

    p = sub.add_parser("seesaw", help="see-saw search for a fixed-dimension fit")
    p.add_argument("--target", choices=["pstar", "chsh"], default="pstar")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--iters", type=int, default=80)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--rounding", choices=["none", "projective"], default="none")
    p.add_argument("--trace-out", type=str, default=None, help="write the iteration trace CSV here")
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("verify", help="check rows of the reference construction or a strategy file")
    common(p)
    p.add_argument("--strategy", type=str, default=None, help="check this strategy file instead")
    p.add_argument("--tol", type=float, default=1e-12)

    return parser


def _finite(obj):
    """``obj`` with every non-finite float (a failed check's residual) as None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return obj


def _dump_json(obj) -> str:
    # strict JSON: NaN and inf are not numbers there, so they are written as null
    return json.dumps(_finite(obj), sort_keys=True, allow_nan=False)


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write ``text``, whole or in pieces, and a newline when it does not end in one.

    A strategy file comes in pieces, so no copy of its 5.5 MB text is held.
    """
    pieces = [text] if isinstance(text, str) else text
    last = ""
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as stream:
        for piece in pieces:
            stream.write(piece)
            last = piece[-1:] or last
        if last != "\n":
            stream.write("\n")


def _csv_rows(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _strategy_from_args(args) -> strategy.Strategy:
    if getattr(args, "strategy", None):
        return strategy.Strategy.from_json(Path(args.strategy).read_text(encoding="utf-8"))
    spec = separating.TruncationSpec(alpha=args.alpha, m=args.m)
    return separating.ideal_truncated_strategy(spec)


def _truncation_flags(args) -> None:
    """Default ``--alpha`` and ``--m``, or refuse them next to a file they would not describe."""
    from_file = getattr(args, "strategy", None) or getattr(args, "p_file", None)
    for dest, default in (("alpha", 0.5), ("m", 8)):
        if getattr(args, dest, default) is None:
            setattr(args, dest, default)
        elif from_file:
            raise UsageError(f"--{dest} has no effect next to an input file")


def _cmd_tables(args) -> int:
    if args.pair is None:
        corr = separating.exact_pstar(args.alpha)
        if args.format == "csv":
            _emit(corr.to_csv(), args.out)
        else:
            payload = {"alpha": args.alpha, "correlation": corr.to_dict()}
            _emit(_dump_json(payload), args.out)
        return EXIT_OK
    x, y = args.pair
    if not (0 <= x < separating.NUM_ALICE_QUESTIONS and 0 <= y < separating.NUM_BOB_QUESTIONS):
        raise UsageError(
            f"--pair ({x},{y}) outside the {separating.NUM_ALICE_QUESTIONS}x"
            f"{separating.NUM_BOB_QUESTIONS} questions"
        )
    if args.source == "printed":
        table = separating.printed_table(args.alpha, x, y)
        entries = table.entries
    else:
        corr = separating.exact_pstar(args.alpha)
        entries = corr.table[x, y]
    if args.format == "csv":
        rows = [[a, b, repr(float(p))] for a, row in enumerate(entries) for b, p in enumerate(row)]
        _emit(_csv_rows(["a", "b", "p"], rows), args.out)
    else:
        payload = {
            "alpha": args.alpha,
            "x": x,
            "y": y,
            "source": args.source,
            "entries": entries.tolist(),
        }
        _emit(_dump_json(payload), args.out)
    return EXIT_OK


def _cmd_truncate(args) -> int:
    _emit(strategy._json_chunks(_strategy_from_args(args)), args.out)
    return EXIT_OK


def _cmd_induce(args) -> int:
    corr = strategy.induce(_strategy_from_args(args))
    if args.format == "csv":
        _emit(corr.to_csv(), args.out)
    else:
        _emit(corr.to_json(), args.out)
    return EXIT_OK


def _cmd_distance(args) -> int:
    if (args.p_file is None) != (args.q_file is None):
        raise UsageError("--p and --q must be given together")
    if args.p_file:
        p = correlation.Correlation.from_json(Path(args.p_file).read_text(encoding="utf-8"))
        q = correlation.Correlation.from_json(Path(args.q_file).read_text(encoding="utf-8"))
        value = correlation.distance(p, q, args.metric)
        payload = {"metric": args.metric, "value": value}
    else:
        value = separating.truncation_distance(args.alpha, args.m, args.metric)
        payload = {
            "alpha": args.alpha,
            "m": args.m,
            "metric": args.metric,
            "value": value,
        }
    _emit(_dump_json(payload), args.out)
    return EXIT_OK


def _cmd_schmidt(args) -> int:
    s = _strategy_from_args(args)
    spectrum = analysis.schmidt(s.state, s.dA, s.dB).spectrum
    coeffs = spectrum.as_list()
    if args.format == "csv":
        rows = [[i, repr(float(c))] for i, c in enumerate(coeffs)]
        _emit(_csv_rows(["index", "coefficient"], rows), args.out)
    else:
        _emit(_dump_json({"coefficients": coeffs, "cutoff": spectrum.cutoff}), args.out)
    return EXIT_OK


def _parse_partition(text: str) -> tuple[tuple[int, ...], ...]:
    try:
        return tuple(
            tuple(int(v) for v in cls.split(",") if v != "") for cls in text.split("|")
        )
    except ValueError as exc:
        raise UsageError(f"bad partition syntax {text!r}: {exc}") from exc


def _cmd_blocks(args) -> int:
    s = _strategy_from_args(args)
    sub = strategy.restrict_questions(s, args.xs, args.ys)
    try:
        deco = analysis.strategy_block_decompose(
            sub,
            _parse_partition(args.alice_partition),
            _parse_partition(args.bob_partition),
            tol=args.tol,
        )
    except analysis.BlockDecompositionError as exc:
        sys.stderr.write(f"block decomposition failed: {exc}\n")
        return EXIT_VERIFY
    _emit(_dump_json(deco.as_dict()), args.out)
    return EXIT_OK


def _cmd_chain(args) -> int:
    if args.m_min < 2 or args.m_max < args.m_min:
        raise UsageError("need 2 <= m-min <= m-max")
    rows = []
    for m in range(args.m_min, args.m_max + 1):
        s = separating.ideal_truncated_strategy(
            separating.TruncationSpec(alpha=args.alpha, m=m)
        )
        spectrum = analysis.schmidt(s.state, s.dA, s.dB).spectrum
        clipped = analysis._clipped(spectrum, s.dA)
        if clipped is not None:
            sys.stderr.write(f"chain failed at m={m}: {clipped}\n")
            return EXIT_VERIFY
        chains = analysis.descent_chain(spectrum, args.alpha, rel_tol=args.rel_tol)
        rows.append((m, chains.max_length))
    if args.format == "json":
        payload = [{"m": m, "max_chain_length": L} for m, L in rows]
        _emit(_dump_json(payload), args.out)
    else:
        _emit(_csv_rows(["m", "max_chain_length"], [[m, L] for m, L in rows]), args.out)
    return EXIT_OK


def _cmd_seesaw(args) -> int:
    if args.target == "pstar":
        target = separating.exact_pstar(args.alpha)
    else:
        target = correlation.restrict(separating.exact_pstar(args.alpha), [0, 1], [0, 1])
    cfg = seesaw.SeesawConfig(
        local_dim=args.dim,
        max_outer_iters=args.iters,
        restarts=args.restarts,
        seed=args.seed,
        convergence_tol=args.tol,
        rounding=args.rounding,
    )
    result = seesaw.optimize(target, cfg)
    if args.trace_out:
        Path(args.trace_out).write_text(result.trace_csv(), encoding="utf-8")
    payload = {
        "target": args.target,
        "alpha": args.alpha,
        "seed": args.seed,
        **result.summary_dict(),
    }
    if result.strategy is None:
        _emit(_dump_json(payload), args.out)
    else:
        head, tail = _dump_json({**payload, "strategy": None}).split('"strategy": null')
        chunks = strategy._json_chunks(result.strategy)
        _emit(itertools.chain([head, '"strategy": '], chunks, [tail]), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    s = _strategy_from_args(args)
    if args.strategy:
        head, checks = {}, analysis.certify_strategy(s, args.tol)
    else:
        head = {"alpha": args.alpha, "m": args.m}
        checks = analysis.certify_truncation(s, args.alpha, args.tol)
    passed = all(c["pass"] for c in checks)
    _emit(_dump_json({**head, "checks": checks, "passed": passed}), args.out)
    if not passed:
        first = next(c for c in checks if not c["pass"])
        detail = f": {first['detail']}" if "detail" in first else ""
        sys.stderr.write(
            f"verification failed: {first['name']} residual {first['residual']!r} "
            f"> {first['tolerance']!r}{detail}\n"
        )
        return EXIT_VERIFY
    return EXIT_OK


_HANDLERS = {
    "tables": _cmd_tables,
    "truncate": _cmd_truncate,
    "induce": _cmd_induce,
    "distance": _cmd_distance,
    "schmidt": _cmd_schmidt,
    "blocks": _cmd_blocks,
    "chain": _cmd_chain,
    "seesaw": _cmd_seesaw,
    "verify": _cmd_verify,
}


def run(argv: list[str]) -> int:
    """Parse and execute one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _truncation_flags(args)
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
