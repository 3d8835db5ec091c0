"""Command-line surface: generators, verifiers, and the see-saw optimizer.

Subcommands emit JSON on stdout (canonical key order, shortest round-trip
float formatting, null for a non-finite number); ``tables``, ``induce``,
``schmidt`` and ``chain`` also write CSV with ``--format csv``, the default
for ``chain``.  ``--out`` writes to a file instead.  Exit codes: 0 success,
1 usage error, 2 verification failure (the failing residual, and its reason
where one is known, is named on stderr).  Every ``--alpha`` subcommand but
``truncate`` reads the truncation off its bands and log-coefficients, in O(D)
at any m; ``--strategy`` files take the dense path.  ``schmidt`` prints the
cutoff its SVD resolves, or 0.0 for ``--alpha``, whose coefficients are exact
(exit 1 names the first one below the smallest normal double).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
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
_DEFAULTS = {"alpha": 0.5, "m": 8}  # of --alpha and --m wherever a command takes them


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process, built on first use; each subcommand binds its handler."""
    parser = _Parser(prog="qcorrkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    # default None, so that _truncation_flags tells a given --alpha or --m from its default
    def common(p, formats=False, m=True):
        p.add_argument("--alpha", type=float, help=f"state ratio in (0,1) (default {_DEFAULTS['alpha']})")
        if m:
            p.add_argument("--m", type=int, help=f"number of pairing blocks (default {_DEFAULTS['m']})")
        p.add_argument("--out", type=str, default=None, help="write output to this path")
        if formats:
            p.add_argument("--format", choices=["json", "csv"], default="json", help="output format")

    p = command("tables", _cmd_tables, help="closed-form or exact correlation tables")
    common(p, formats=True, m=False)
    p.add_argument("--pair", type=int, nargs=2, metavar=("X", "Y"), default=None)
    p.add_argument("--source", choices=["printed", "exact"], default="printed")

    p = command("truncate", _cmd_truncate, help="emit the truncated ideal strategy as JSON")
    common(p)

    p = command("induce", _cmd_induce, help="correlation induced by a strategy")
    common(p, formats=True)
    p.add_argument("--strategy", type=str, default=None, help="strategy JSON file")

    p = command("distance", _cmd_distance, help="distance between correlations")
    common(p)
    p.add_argument("--metric", choices=["max_tv", "l2"], default="max_tv")
    p.add_argument("--p", dest="p_file", type=str, default=None, help="correlation JSON file")
    p.add_argument("--q", dest="q_file", type=str, default=None, help="correlation JSON file")

    p = command("schmidt", _cmd_schmidt, help="Schmidt spectrum of a strategy's state")
    common(p, formats=True)
    p.add_argument("--strategy", type=str, default=None)

    p = command("blocks", _cmd_blocks, help="block decomposition of the truncation's shifted-pair questions")
    common(p)
    p.add_argument("--tol", type=float, default=1e-9)

    p = command("chain", _cmd_chain, help="descent-chain lengths across truncations")
    p.add_argument("--alpha", type=float, default=_DEFAULTS["alpha"])
    p.add_argument("--m-min", type=int, default=2)
    p.add_argument("--m-max", type=int, default=_DEFAULTS["m"])
    p.add_argument("--rel-tol", type=float, default=analysis.CHAIN_REL_TOL)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="csv")

    p = command("seesaw", _cmd_seesaw, help="see-saw search for a fixed-dimension fit")
    p.add_argument("--target", choices=["pstar", "chsh"], default="pstar")
    p.add_argument("--alpha", type=float, default=_DEFAULTS["alpha"])
    config = seesaw.SeesawConfig(local_dim=2)  # the defaults, at d = 2
    p.add_argument("--dim", type=int, default=config.local_dim)
    p.add_argument("--restarts", type=int, default=config.restarts)
    p.add_argument("--iters", type=int, default=config.max_outer_iters)
    p.add_argument("--seed", type=int, default=config.seed)
    p.add_argument("--tol", type=float, default=config.convergence_tol)
    p.add_argument("--rounding", choices=seesaw._ROUNDINGS, default=config.rounding)
    p.add_argument("--trace-out", type=str, default=None, help="write the iteration trace CSV here")
    p.add_argument("--out", type=str, default=None)

    p = command("verify", _cmd_verify, help="check rows of the reference construction or a strategy file")
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


def _strategy_file(args) -> strategy.Strategy:
    return strategy.Strategy.from_json(Path(args.strategy).read_text(encoding="utf-8"))


def _bands(args) -> separating.TruncationBands:
    return separating.ideal_truncation_bands(separating.TruncationSpec(alpha=args.alpha, m=args.m))


def _truncation_flags(args) -> None:
    """Default ``--alpha`` and ``--m``, or refuse them next to a file they would not describe."""
    from_file = getattr(args, "strategy", None) or getattr(args, "p_file", None)
    for dest, default in _DEFAULTS.items():
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
        _emit(correlation._csv(["a", "b", "p"], rows), args.out)
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
    s = separating.ideal_truncated_strategy(separating.TruncationSpec(alpha=args.alpha, m=args.m))
    _emit(strategy._json_chunks(s), args.out)
    return EXIT_OK


def _cmd_induce(args) -> int:
    corr = strategy.induce(_strategy_file(args)) if args.strategy else _bands(args).induced()
    _emit(corr.to_csv() if args.format == "csv" else corr.to_json(), args.out)
    return EXIT_OK


def _cmd_distance(args) -> int:
    if (args.p_file is None) != (args.q_file is None):
        raise UsageError("--p and --q must be given together")
    if args.p_file:
        p, q = (correlation.Correlation.from_json(Path(path).read_text(encoding="utf-8"))
                for path in (args.p_file, args.q_file))
        head, value = {}, correlation.distance(p, q, args.metric)
    else:
        head = {"alpha": args.alpha, "m": args.m}
        value = separating.truncation_distance(args.alpha, args.m, args.metric)
    _emit(_dump_json({**head, "metric": args.metric, "value": value}), args.out)
    return EXIT_OK


def _cmd_schmidt(args) -> int:
    if args.strategy:
        s = _strategy_file(args)
        spectrum = analysis.schmidt(s.state, s.dA, s.dB).spectrum
    else:
        spectrum = analysis.SchmidtSpectrum(tuple(map(math.exp, _bands(args).log_coeffs.tolist())))
    coeffs = spectrum.as_list()
    if args.format == "csv":
        rows = [[i, repr(float(c))] for i, c in enumerate(coeffs)]
        _emit(correlation._csv(["index", "coefficient"], rows), args.out)
    else:
        _emit(_dump_json({"coefficients": coeffs, "cutoff": spectrum.cutoff}), args.out)
    return EXIT_OK


def _cmd_blocks(args) -> int:
    bands = _bands(args)
    try:
        summary = analysis._band_blocks(bands, bands.induced(), args.tol)[0]
    except analysis.BlockDecompositionError as exc:
        sys.stderr.write(f"block decomposition failed: {exc}\n")
        return EXIT_VERIFY
    _emit(_dump_json(summary), args.out)
    return EXIT_OK


def _cmd_chain(args) -> int:
    if args.m_min < 2 or args.m_max < args.m_min:
        raise UsageError("need 2 <= m-min <= m-max")
    rows = []
    for m in range(args.m_min, args.m_max + 1):
        log_coeffs = separating.TruncationSpec(alpha=args.alpha, m=m).log_coeffs()
        rows.append((m, analysis.log_descent_chain_length(log_coeffs, args.alpha, args.rel_tol)))
    if args.format == "json":
        payload = [{"m": m, "max_chain_length": L} for m, L in rows]
        _emit(_dump_json(payload), args.out)
    else:
        _emit(correlation._csv(["m", "max_chain_length"], [[m, L] for m, L in rows]), args.out)
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
    if args.strategy:
        head, checks = {}, analysis.certify_strategy(_strategy_file(args), args.tol)
    else:
        head = {"alpha": args.alpha, "m": args.m}
        checks = analysis.certify_banded_truncation(_bands(args), args.tol)
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


def run(argv: list[str]) -> int:
    """Parse and execute one subcommand; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        _truncation_flags(args)
        return args.handler(args)
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
