"""CLI surface: subcommands, formats, exit codes, reproducibility."""

import hashlib
import importlib
import json
import re
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qcorrkit import analysis, separating, strategy, tilted_chsh
from qcorrkit.cli import _build_parser, run
from qcorrkit.correlation import Correlation, distance, restrict
from qcorrkit.seesaw import SeesawConfig, optimize
from qcorrkit.separating import TruncationSpec, ideal_truncated_strategy
from qcorrkit.strategy import Strategy, induce
from qcorrkit.tilted_chsh import ideal_strategy, params_from_beta


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_loads(text):
    """Parse JSON, refusing the NaN, Infinity and -Infinity tokens."""

    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def pairs_tree(s):
    """A strategy file's fields, each array as nested [re, im] pairs of its complex128 copy."""
    tree = {"dA": s.dA, "dB": s.dB}
    for name in ("state", "alice_meas", "bob_meas"):
        arr = np.array(getattr(s, name), dtype=np.complex128)
        tree[name] = np.stack([arr.real, arr.imag], axis=-1).tolist()
    return tree


def wrong_q4_file(tmp_path):
    """The alpha = 0.5, m = 2 truncation with Bob's question 4 replaced by his question 1."""
    s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=2))
    bob = [list(q) for q in s.bob_meas]
    bob[4] = list(s.bob_meas[1])
    path = tmp_path / "wrong_q4.json"
    path.write_text(Strategy(s.dA, s.dB, s.state, s.alice_meas, bob).to_json())
    return path


class TestTables:
    def test_printed_pair_json(self, capsys):
        code, out, _ = run_capture(capsys, ["tables", "--alpha", "0.5", "--pair", "0", "4"])
        assert code == 0
        payload = json.loads(out)
        assert payload["entries"] == [[0.8, 0.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, 0.0]]

    def test_exact_source(self, capsys):
        code, out, _ = run_capture(
            capsys, ["tables", "--alpha", "0.5", "--pair", "2", "4", "--source", "exact"]
        )
        assert code == 0
        entries = np.asarray(json.loads(out)["entries"])
        np.testing.assert_allclose(
            entries, [[0.05, 0, 0], [0, 0.2, 0], [0.75, 0, 0]], atol=1e-12
        )

    def test_full_correlation(self, capsys):
        code, out, _ = run_capture(capsys, ["tables", "--alpha", "0.5"])
        assert code == 0
        corr = Correlation.from_dict(json.loads(out)["correlation"])
        assert corr.shape == (4, 5, 3, 3)

    def test_csv_format(self, capsys):
        code, out, _ = run_capture(
            capsys, ["tables", "--alpha", "0.5", "--pair", "0", "4", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "a,b,p"
        assert len(lines) == 10

    # sha256 of `tables --alpha 0.95 --format csv`, the full exact table as CSV
    CSV_SHA256 = "b4d7c50e8f6c4d3308c87d4e72cdf6f024893788e2bc7735026ec29900eaaea1"

    def test_full_csv_bytes_pinned(self, capsys):
        code, out, _ = run_capture(capsys, ["tables", "--alpha", "0.95", "--format", "csv"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.CSV_SHA256

    @pytest.mark.parametrize("source", ["printed", "exact"])
    @pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (4, 0), (9, 0), (0, 5)])
    def test_pair_outside_questions_is_usage_error(self, capsys, pair, source):
        code, out, err = run_capture(capsys, ["tables", "--pair", *map(str, pair), "--source", source])
        assert code == 1
        assert err.startswith("usage error: ") and "--pair" in err
        assert out == ""


class TestStrategyPipeline:
    def test_truncate_then_induce(self, capsys, tmp_path):
        path = tmp_path / "strategy.json"
        code = run(["truncate", "--alpha", "0.5", "--m", "3", "--out", str(path)])
        assert code == 0
        capsys.readouterr()
        loaded = Strategy.from_json(path.read_text())
        assert loaded.dA == 6

        code, out, _ = run_capture(capsys, ["induce", "--strategy", str(path)])
        assert code == 0
        corr = Correlation.from_json(out)
        expected = induce(ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=3)))
        np.testing.assert_allclose(corr.table, expected.table, atol=1e-12)

    def test_distance_between_files(self, capsys, tmp_path):
        p_path = tmp_path / "p.json"
        q_path = tmp_path / "q.json"
        table = np.zeros((1, 1, 2, 2))
        table[0, 0, 0, 0] = 1.0
        p_path.write_text(Correlation(table).to_json())
        table2 = np.zeros((1, 1, 2, 2))
        table2[0, 0, 1, 1] = 1.0
        q_path.write_text(Correlation(table2).to_json())
        code, out, _ = run_capture(
            capsys,
            ["distance", "--p", str(p_path), "--q", str(q_path), "--metric", "max_tv"],
        )
        assert code == 0
        assert json.loads(out)["value"] == 1.0

    def test_distance_reads_what_induce_wrote(self, capsys, tmp_path):
        # a state norm off by 9e-13 is valid, and its induced sums stray past 1e-12
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=2))
        path = tmp_path / "strategy.json"
        path.write_text(Strategy(s.dA, s.dB, s.state * (1 + 9e-13), s.alice_meas, s.bob_meas).to_json())
        table = tmp_path / "table.json"
        assert run_capture(capsys, ["verify", "--strategy", str(path)])[0] == 0
        assert run_capture(capsys, ["induce", "--strategy", str(path), "--out", str(table)])[0] == 0
        code, out, err = run_capture(capsys, ["distance", "--p", str(table), "--q", str(table)])
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == 0.0

    def test_truncation_distance_default(self, capsys):
        code, out, _ = run_capture(
            capsys, ["distance", "--alpha", "0.5", "--m", "4", "--metric", "max_tv"]
        )
        assert code == 0
        assert 0 < json.loads(out)["value"] <= 4 * 0.5**16

    def test_schmidt_command(self, capsys):
        code, out, _ = run_capture(capsys, ["schmidt", "--alpha", "0.5", "--m", "2"])
        assert code == 0
        coeffs = json.loads(out)["coefficients"]
        assert len(coeffs) == 4
        assert coeffs[0] == pytest.approx(0.8677218312746246, abs=1e-12)

    def test_schmidt_cutoff_is_derived_not_set(self, capsys, tmp_path):
        path = tmp_path / "strategy.json"
        assert run(["truncate", "--alpha", "0.5", "--m", "16", "--out", str(path)]) == 0
        code, out, _ = run_capture(capsys, ["schmidt", "--strategy", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["coefficients"]) == 32
        # numpy matrix_rank's tolerance on the 32 x 32 state matrix
        assert payload["cutoff"] == payload["coefficients"][0] * 32 * np.finfo(float).eps
        # the truncation's own coefficients are exp(log c_i): nothing is cut
        code, out, _ = run_capture(capsys, ["schmidt", "--alpha", "0.5", "--m", "16"])
        assert code == 0 and json.loads(out)["cutoff"] == 0.0
        code, out, err = run_capture(capsys, ["schmidt", "--cutoff", "1e-9"])
        assert code == 1
        assert err.startswith("usage error: ") and "--cutoff" in err and out == ""


class TestVerifiers:
    def test_blocks_reports_weights(self, capsys):
        code, out, _ = run_capture(capsys, ["blocks", "--alpha", "0.5", "--m", "6"])
        assert code == 0
        payload = json.loads(out)
        np.testing.assert_allclose(payload["weights"], [0.25, 0.75], atol=1e-6)

    def test_blocks_nan_tol_fails(self, capsys):
        code, out, err = run_capture(capsys, ["blocks", "--alpha", "0.5", "--m", "4", "--tol", "nan"])
        assert (code, out) == (2, "")
        assert err.startswith("block decomposition failed: ") and "exceeds tol nan" in err

    @pytest.mark.parametrize("rel_tol", ["nan", "-0.1"])
    def test_chain_refuses_a_rel_tol_without_window(self, capsys, rel_tol):
        code, out, err = run_capture(
            capsys, ["chain", "--alpha", "0.5", "--m-min", "2", "--m-max", "4", "--rel-tol", rel_tol]
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: rel_tol {float(rel_tol)!r} must lie in [0, (1 - ratio)/2)")

    def test_chain_csv_rows(self, capsys):
        code, out, _ = run_capture(
            capsys, ["chain", "--alpha", "0.5", "--m-min", "2", "--m-max", "6"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "m,max_chain_length"
        assert lines[1:] == ["2,4", "3,6", "4,8", "5,10", "6,12"]

    def test_chain_grows_past_the_old_fixed_cutoff(self, capsys):
        code, out, _ = run_capture(
            capsys, ["chain", "--alpha", "0.5", "--m-min", "15", "--m-max", "17"]
        )
        assert code == 0
        assert out.strip().split("\n")[1:] == ["15,30", "16,32", "17,34"]

    def test_chain_resolves_past_the_dense_cutoff(self, capsys):
        # the dense spectrum held 63 of D = 64 coefficients here, and chain exited 2
        code, out, err = run_capture(
            capsys, ["chain", "--alpha", "0.5", "--m-min", "32", "--m-max", "32"]
        )
        assert (code, err) == (0, "")
        assert out.strip().split("\n")[1:] == ["32,64"]

    @pytest.mark.parametrize("alpha, m", [(0.5, 16), (0.05, 4)])
    def test_verify_passes_where_the_old_cutoff_failed(self, capsys, alpha, m):
        code, out, err = run_capture(capsys, ["verify", "--alpha", str(alpha), "--m", str(m)])
        assert code == 0 and err == ""
        assert json.loads(out)["passed"] is True

    def test_verify_names_the_rank_threshold(self):
        # the dense primitives on the m = 32 truncation that verify --alpha reads off its bands
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=32))
        split = separating.SHIFTED_SPLIT
        sub = strategy.restrict_questions(s, separating.SHIFTED_QUESTIONS, separating.SHIFTED_QUESTIONS)
        with pytest.raises(analysis.BlockDecompositionError, match="not a projection") as raised:
            analysis.strategy_block_decompose(sub, split.alice_partition, split.bob_partition)
        assert re.search(r"kept rank \d+ of 64, eigenvalues above \d\.\d{3}e-\d+", str(raised.value))
        with pytest.raises(analysis.AnalysisError, match=r"holds \d+ of D = 64 coefficients above its cutoff"):
            analysis.verify_schmidt_bijections(s, 0.5)
        assert analysis.descent_chain(analysis.schmidt(s.state, s.dA, s.dB).spectrum, 0.5).max_length < 64

    def test_verify_reference_passes(self, capsys):
        code, out, _ = run_capture(capsys, ["verify", "--alpha", "0.5", "--m", "4"])
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(check["pass"] for check in payload["checks"])

    def test_verify_rejects_broken_strategy_file(self, capsys, tmp_path):
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=2))
        broken = Strategy(s.dA, s.dB, 1.05 * s.state, s.alice_meas, s.bob_meas)
        path = tmp_path / "broken.json"
        path.write_text(broken.to_json())
        code, out, err = run_capture(capsys, ["verify", "--strategy", str(path)])
        assert code == 2
        assert "state_norm" in err

    def test_verify_fails_a_state_norm_under_the_row_limit(self, capsys, tmp_path):
        # 5e-11 breaks validate's 1e-12 state-norm tolerance, not the row's 1e-10 limit
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=2))
        path = tmp_path / "off_norm.json"
        path.write_text(Strategy(s.dA, s.dB, (1 + 5e-11) * s.state, s.alice_meas, s.bob_meas).to_json())
        code, out, err = run_capture(capsys, ["verify", "--strategy", str(path)])
        assert code == 2 and "state_norm" in err
        row = strict_loads(out)["checks"][0]
        assert row["residual"] <= row["tolerance"] and row["pass"] is False

    def test_verify_accepts_valid_strategy_file(self, capsys, tmp_path):
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=2))
        path = tmp_path / "ok.json"
        path.write_text(s.to_json())
        code, _, _ = run_capture(capsys, ["verify", "--strategy", str(path)])
        assert code == 0

    def test_verify_names_the_reason_on_stderr(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise analysis.BlockDecompositionError("marker")

        monkeypatch.setattr(analysis, "_band_blocks", fail)
        code, out, err = run_capture(capsys, ["verify", "--alpha", "0.5", "--m", "4"])
        assert code == 2
        assert "block_decomposition" in err and "marker" in err
        marked = {"name": "block_decomposition", "residual": None, "tolerance": 1e-9,
                  "pass": False, "detail": "marker"}
        assert [c for c in strict_loads(out)["checks"] if not c["pass"]] == [marked]

    def test_step_that_raised_fails_at_any_tol(self, capsys):
        # at tol inf every block is below tol, so the decomposition raises: its row fails even
        # though its residual, inf, is within the inf limit
        code, out, err = run_capture(capsys, ["verify", "--alpha", "0.5", "--m", "4", "--tol", "inf"])
        assert code == 2
        failed = [c for c in strict_loads(out)["checks"] if not c["pass"]]
        assert failed == [{"name": "block_decomposition", "residual": None, "tolerance": None, "pass": False,
                           "detail": "block 0 has no sub-correlation: weight at or below tol inf"}]
        assert err == ("verification failed: block_decomposition residual inf > inf: "
                       "block 0 has no sub-correlation: weight at or below tol inf\n")

    def test_verify_runs_one_question4_pass(self, capsys, monkeypatch):
        passes, projections = [], []
        y4_pass = analysis._y4_pass

        def counted_pass(project, *args, **kwargs):
            passes.append(1)

            def counted_project(*key):
                projections.append(key)
                return project(*key)

            return y4_pass(counted_project, *args, **kwargs)

        monkeypatch.setattr(analysis, "_y4_pass", counted_pass)
        assert run_capture(capsys, ["verify", "--alpha", "0.5", "--m", "4"])[0] == 0
        # one pass, which forms each of its six projections of the state once
        assert len(passes) == 1
        assert len(projections) == len(set(projections)) == 6

    def test_verify_derives_the_tilt_parameters_twice(self, capsys, monkeypatch):
        calls = 0
        params_from_beta = tilted_chsh.params_from_beta

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return params_from_beta(*args, **kwargs)

        monkeypatch.setattr(tilted_chsh, "params_from_beta", counted)
        assert run_capture(capsys, ["verify", "--alpha", "0.95", "--m", "8"])[0] == 0
        # once for the bands, once for the exact table and the ten printed tables together
        assert calls == 2

    def test_verify_and_chain_build_no_dense_strategy(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a dense strategy or decomposition was built")

        for owner, name in ((separating, "ideal_truncated_strategy"), (np.linalg, "svd"),
                            (np.linalg, "eigh"), (strategy, "validate"), (analysis, "induce"),
                            (strategy, "induce"), (strategy, "restrict_questions"),
                            (analysis, "strategy_block_decompose")):
            monkeypatch.setattr(owner, name, refuse)
        assert run_capture(capsys, ["verify", "--alpha", "0.5", "--m", "8"])[0] == 0
        code, out, _ = run_capture(capsys, ["chain", "--alpha", "0.5", "--m-min", "2", "--m-max", "4"])
        assert code == 0 and out.split() == ["m,max_chain_length", "2,4", "3,6", "4,8"]
        for command in ("induce", "schmidt", "blocks", "distance"):
            code, out, err = run_capture(capsys, [command, "--alpha", "0.5", "--m", "8"])
            assert (code, err) == (0, ""), command

    @pytest.mark.parametrize("m", [16, 64, 1024, 10**4])
    @pytest.mark.parametrize("alpha", [0.5, 0.9, 0.95])
    def test_structured_path_certifies_any_m(self, capsys, alpha, m):
        flags = ["--alpha", str(alpha)]
        start = perf_counter()
        code, out, err = run_capture(capsys, ["verify", *flags, "--m", str(m)])
        elapsed = perf_counter() - start
        assert (code, err) == (0, "")
        rows = {c["name"]: c for c in strict_loads(out)["checks"]}
        assert rows["schmidt_partition_bijections"]["pass"] and rows["descent_chain_length"]["residual"] == 0.0
        if (alpha, m) == (0.5, 10**4):
            assert elapsed < 1.0
        code, out, _ = run_capture(capsys, ["chain", *flags, "--m-min", str(m), "--m-max", str(m)])
        assert code == 0 and out.split()[1:] == [f"{m},{2 * m}"]

        def timed(command):
            start = perf_counter()
            code, out, err = run_capture(capsys, [command, *flags, "--m", str(m)])
            assert perf_counter() - start < 1.0, command
            return code, out, err

        code, out, err = timed("induce")
        assert (code, err) == (0, "") and Correlation.from_json(out).shape == (4, 5, 3, 3)
        code, out, err = timed("distance")
        # the truncation_bound row's limit
        bound = max(4.0 * alpha ** (4 * m), 2.0 * alpha ** (2 * (2 * m - 1))) + 1e-13
        assert (code, err) == (0, "") and 0.0 <= strict_loads(out)["value"] <= bound
        code, out, err = timed("blocks")
        assert (code, err) == (0, "")
        assert strict_loads(out)["block_dims"] == [[2 * m - 1, 2 * m - 1], [1, 1]]
        # every coefficient, or a failure naming the first one a double cannot hold as a normal number
        code, out, err = timed("schmidt")
        coeffs = np.exp(TruncationSpec(alpha=alpha, m=m).log_coeffs())
        small = np.flatnonzero(coeffs < np.finfo(float).tiny)
        if small.size:
            assert (code, out) == (1, "")
            assert err.startswith("error: Schmidt coefficients must be strictly positive normal doubles; "
                                  f"coefficient {small[0]} of {2 * m} is ")
        else:
            assert (code, err) == (0, "") and len(strict_loads(out)["coefficients"]) == 2 * m

    # the two alpha-edge rows that fail the ideal truncation (their bounds are still envelopes)
    @pytest.mark.parametrize("alpha, name, numbers", [
        ("0.1", "block_chsh_match", "residual 5.140e-05 > tolerance 8.000e-06"),
        ("0.99999", "tables_printed_match", "residual 2.597e-12 > tolerance 1.000e-12"),
    ])
    def test_failing_row_names_its_numbers(self, capsys, alpha, name, numbers):
        code, out, err = run_capture(capsys, ["verify", "--alpha", alpha, "--m", "2"])
        assert code == 2
        failed = [c for c in strict_loads(out)["checks"] if not c["pass"]]
        assert [(c["name"], c["detail"]) for c in failed] == [(name, numbers)]
        assert err.startswith(f"verification failed: {name} residual ") and err.endswith(f": {numbers}\n")

    @given(st.floats(0.2, 0.95), st.integers(2, 12))
    @example(0.5, 3)
    @example(0.5, 4)
    @example(0.5, 6)
    def test_banded_outputs_match_the_dense_path(self, tmp_path_factory, alpha, m):
        # the dense strategy is the reference; the examples are the points whose output bytes are pinned
        work = tmp_path_factory.mktemp("banded")

        def banded(command, *flags):
            path = work / f"{command}.json"
            assert run([command, "--alpha", repr(alpha), "--m", str(m), *flags, "--out", str(path)]) == 0
            return path.read_text()

        s = ideal_truncated_strategy(TruncationSpec(alpha=alpha, m=m))
        dense = induce(s)
        np.testing.assert_allclose(Correlation.from_json(banded("induce")).table, dense.table, rtol=0, atol=1e-14)
        for metric in ("max_tv", "l2"):
            got = strict_loads(banded("distance", "--metric", metric))["value"]
            assert abs(got - distance(separating.exact_pstar(alpha), dense, metric)) <= 1e-14

        spectrum = analysis.schmidt(s.state, s.dA, s.dB).spectrum
        coeffs = strict_loads(banded("schmidt"))["coefficients"]
        assert len(coeffs) == 2 * m
        # the SVD keeps a prefix: what it cuts lies at or below its cutoff
        np.testing.assert_allclose(coeffs[: len(spectrum)], spectrum.coefficients, rtol=0, atol=1e-14)
        assert max(coeffs[len(spectrum):], default=0.0) <= spectrum.cutoff + 1e-14

        summary = strict_loads(banded("blocks"))
        assert summary["block_dims"] == [[2 * m - 1, 2 * m - 1], [1, 1]]
        split = separating.SHIFTED_SPLIT
        sub = strategy.restrict_questions(s, separating.SHIFTED_QUESTIONS, separating.SHIFTED_QUESTIONS)
        # eigh resolves block 0's reduced density, eigenvalues c_1^2 down to c_(D-1)^2, above
        # lambda_max * D * eps; with a margin of 2 either way, the dense result is right or clipped
        resolution = alpha ** (4 * m - 4) / (2 * m * np.finfo(float).eps)
        try:
            deco = analysis.strategy_block_decompose(sub, split.alice_partition, split.bob_partition)
        except analysis.BlockDecompositionError:
            assert resolution < 2
            return
        np.testing.assert_allclose(summary["weights"], deco.weights, rtol=0, atol=1e-14)
        if resolution > 2:
            assert deco.as_dict()["block_dims"] == summary["block_dims"]
        elif resolution < 0.5:
            assert deco.as_dict()["block_dims"][0][0] < 2 * m - 1

    def test_y4_fails_on_corrupted_file(self, capsys, tmp_path):
        code, out, err = run_capture(capsys, ["verify", "--strategy", str(wrong_q4_file(tmp_path))])
        assert code == 2
        assert re.match(r"verification failed: y4_\w+ residual ", err)
        rows = strict_loads(out)["checks"]
        assert rows[0]["name"] == "strategy_valid" and rows[0]["pass"]

    def test_file_rows_read_tol(self, capsys, tmp_path):
        path = str(wrong_q4_file(tmp_path))
        code, out, err = run_capture(capsys, ["verify", "--strategy", path, "--tol", "10"])
        assert code == 0 and err == ""
        rows = strict_loads(out)["checks"]
        assert [r["tolerance"] for r in rows[1:]] == [10.0] * 5
        code, _, _ = run_capture(capsys, ["verify", "--strategy", path])
        assert code == 2

    def test_two_by_two_file_gets_one_row(self, capsys, tmp_path):
        path = tmp_path / "chsh.json"
        path.write_text(ideal_strategy(params_from_beta(0.5)).to_json())
        code, out, err = run_capture(capsys, ["verify", "--strategy", str(path)])
        assert code == 0 and err == ""
        assert strict_loads(out) == {
            "checks": [{"name": "strategy_valid", "residual": 0.0, "tolerance": 1e-10, "pass": True}],
            "passed": True,
        }

    @given(st.floats(0.05, 0.95, exclude_min=True, exclude_max=True), st.integers(2, 12))
    def test_file_rows_equal_the_truncation_rows(self, tmp_path_factory, alpha, m):
        work = tmp_path_factory.mktemp("rows")
        strategy_file, file_rows = work / "strategy.json", work / "file_rows.json"
        truncation_rows = work / "truncation_rows.json"
        flags = ["--alpha", repr(alpha), "--m", str(m)]
        assert run(["truncate", *flags, "--out", str(strategy_file)]) == 0
        assert run(["verify", "--strategy", str(strategy_file), "--out", str(file_rows)]) == 0
        run(["verify", *flags, "--out", str(truncation_rows)])
        rows = strict_loads(file_rows.read_text())["checks"]
        names = [r["name"] for r in rows]
        assert names[0] == "strategy_valid" and len(names) == 6
        assert all(name.startswith("y4_") for name in names[1:])
        reference = {r["name"]: r for r in strict_loads(truncation_rows.read_text())["checks"]}
        # each float is written as its shortest repr, so equal text is equal bits
        assert json.dumps(rows) == json.dumps([reference[name] for name in names])


class TestSeesawCommand:
    def test_small_run_with_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code, out, _ = run_capture(
            capsys,
            [
                "seesaw", "--target", "chsh", "--dim", "1", "--restarts", "2",
                "--iters", "4", "--seed", "9", "--trace-out", str(trace_path),
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["distance"] > 0
        lines = trace_path.read_text().strip().split("\n")
        assert lines[0] == "restart,iter,objective"

    def test_projective_payload_is_json_dumps(self, capsys):
        code, out, _ = run_capture(capsys, [
            "seesaw", "--target", "chsh", "--dim", "2", "--restarts", "2", "--iters", "5",
            "--seed", "3", "--rounding", "projective",
        ])
        assert code == 0
        cfg = SeesawConfig(local_dim=2, restarts=2, max_outer_iters=5, seed=3, rounding="projective")
        result = optimize(restrict(separating.exact_pstar(0.5), [0, 1], [0, 1]), cfg)
        payload = {"target": "chsh", "alpha": 0.5, "seed": 3, **result.summary_dict(),
                   "strategy": pairs_tree(result.strategy)}
        assert out == json.dumps(payload, sort_keys=True) + "\n"


class TestCliContract:
    def test_usage_error_exit_code(self, capsys):
        assert run(["no-such-command"]) == 1
        capsys.readouterr()
        assert run(["tables", "--alpha", "not-a-number"]) == 1
        capsys.readouterr()
        assert run(["distance", "--p", "only-one.json"]) == 1
        capsys.readouterr()

    def test_console_script_resolves_to_main(self, capsys, monkeypatch):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        entry = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["qcorrkit"]
        assert entry == "qcorrkit.cli:main"
        module, attr = entry.split(":")
        monkeypatch.setattr(sys, "argv", ["qcorrkit", "verify", "--alpha", "0.95", "--m", "8"])
        with pytest.raises(SystemExit) as exit_info:
            getattr(importlib.import_module(module), attr)()
        assert exit_info.value.code == 0
        assert strict_loads(capsys.readouterr().out)["passed"]

    def test_defaults_are_the_library_defaults(self):
        parse = _build_parser().parse_args
        config, chain, seesaw = SeesawConfig(local_dim=2), parse(["chain"]), parse(["seesaw"])
        assert chain.rel_tol == analysis.CHAIN_REL_TOL
        assert (seesaw.restarts, seesaw.iters, seesaw.seed, seesaw.tol, seesaw.rounding) == (
            config.restarts, config.max_outer_iters, config.seed, config.convergence_tol, config.rounding)

    @pytest.mark.parametrize("flag", [["--alpha", "0.9"], ["--m", "99"]], ids=lambda f: f[0])
    @pytest.mark.parametrize(
        "argv",
        [
            ["induce", "--strategy", "{strategy}"],
            ["schmidt", "--strategy", "{strategy}"],
            ["verify", "--strategy", "{strategy}"],
            ["distance", "--p", "{table}", "--q", "{table}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_truncation_flags_refused_next_to_a_file(self, capsys, tmp_path, argv, flag):
        files = {"strategy": tmp_path / "strategy.json", "table": tmp_path / "table.json"}
        assert run(["truncate", "--alpha", "0.5", "--m", "2", "--out", str(files["strategy"])]) == 0
        assert run(["induce", "--strategy", str(files["strategy"]), "--out", str(files["table"])]) == 0
        argv = [arg.format(**files) for arg in argv]
        assert run_capture(capsys, argv)[0] == 0
        code, out, err = run_capture(capsys, argv + flag)
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and flag[0] in err

    def test_byte_reproducible_json(self, capsys):
        _, out1, _ = run_capture(capsys, ["tables", "--alpha", "0.5", "--pair", "2", "4"])
        _, out2, _ = run_capture(capsys, ["tables", "--alpha", "0.5", "--pair", "2", "4"])
        assert out1 == out2
        _, s1, _ = run_capture(
            capsys,
            ["seesaw", "--target", "chsh", "--dim", "1", "--restarts", "2", "--iters", "3", "--seed", "4"],
        )
        _, s2, _ = run_capture(
            capsys,
            ["seesaw", "--target", "chsh", "--dim", "1", "--restarts", "2", "--iters", "3", "--seed", "4"],
        )
        assert s1 == s2

    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code = run(["tables", "--alpha", "0.5", "--pair", "0", "4", "--out", str(path)])
        assert code == 0
        capsys.readouterr()
        assert json.loads(path.read_text())["x"] == 0


class TestParserReuse:
    """One parser serves every ``run`` of a process, so no call may leave state in it."""

    def test_parser_built_once(self, capsys):
        _build_parser.cache_clear()
        for argv in (["tables", "--alpha", "0.5"], ["chain", "--m-max", "3"], ["no-such-command"],
                     ["verify", "--alpha", "0.5", "--m", "2"], ["blocks", "--m", "2"]):
            run(argv)
        capsys.readouterr()
        assert (_build_parser.cache_info().misses, _build_parser.cache_info().hits) == (1, 4)

    def test_pinned_commands_repeat_in_one_process(self, capsys):
        pins = TestStrategyFiles.STDOUT_SHA256
        for command in [*sorted(pins), *sorted(pins, reverse=True)]:
            code, out, _ = run_capture(capsys, command.split())
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == pins[command], command

    def test_truncation_flag_defaults_survive_a_run(self, capsys, tmp_path):
        path = tmp_path / "strategy.json"
        assert run(["truncate", "--alpha", "0.5", "--m", "2", "--out", str(path)]) == 0
        assert run_capture(capsys, ["verify", "--alpha", "0.9", "--m", "4"])[0] == 0
        # a default --alpha or --m set by that run would be taken as given next to the file
        assert run_capture(capsys, ["verify", "--strategy", str(path), "--alpha", "0.9"])[0] == 1
        assert run_capture(capsys, ["verify", "--strategy", str(path)])[0] == 0


class TestFormatFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ["blocks", "--format", "csv"],
            ["verify", "--format", "csv"],
            ["distance", "--format", "csv"],
            ["truncate", "--format", "csv"],
            ["seesaw", "--target", "chsh", "--dim", "1", "--restarts", "1", "--iters", "1",
             "--format", "csv"],
            # tables reads no truncation, so --m would change nothing
            ["tables", "--alpha", "0.5", "--m", "99"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_refused_where_output_is_json_only(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 1
        assert err.startswith("usage error: ") and argv[-2] in err
        assert out == ""


class TestStrategyFiles:
    def test_truncate_writes_json_dumps_bytes(self, capsys):
        code, out, _ = run_capture(capsys, ["truncate", "--alpha", "0.95", "--m", "8"])
        assert code == 0
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.95, m=8))
        # a real strategy writes the pairs its complex128 copy would, imaginary parts 0.0
        assert out == json.dumps(pairs_tree(s), sort_keys=True) + "\n"

    # sha256 of `truncate --alpha 0.95 --m 64` as json.dumps of its [re, im] pairs writes it
    M64_SHA256 = "6a715155e114ed1a74cc100bb6979fcb92e03f86879dfc86b12a921300f8835a"

    def test_truncate_m64_bytes_pinned(self, capsys, tmp_path):
        argv = ["truncate", "--alpha", "0.95", "--m", "64"]
        code, out, _ = run_capture(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.M64_SHA256
        path = tmp_path / "strategy.json"
        code, out, _ = run_capture(capsys, argv + ["--out", str(path)])
        assert code == 0 and out == ""
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.M64_SHA256

    # sha256 of each command's stdout; together they cover the pairing layout, the alpha
    # check, the CSV writer, the closed forms and every banded --alpha path.  The dense
    # strategy stays the reference for induce, schmidt and blocks at these points, in
    # TestVerifiers.test_banded_outputs_match_the_dense_path
    STDOUT_SHA256 = {
        "tables --alpha 0.5":
            "bb640245140aee816eeb64f47066120d6549aa3826b11273036c2b2ef2c07052",
        "tables --alpha 0.3 --pair 2 4 --source exact --format csv":
            "66619cacc52b528694a7c5b9994dab6ef0f38929127aeef33ee293e971c68411",
        "induce --alpha 0.5 --m 4 --format csv":
            "0407f2d30627546d8c554acd0ba1a0c6b69c57a99c0a22e5eb709fe02a37e546",
        "schmidt --alpha 0.5 --m 3 --format csv":
            "4882dad1c1dd84266afc9f16ee1a1013aab9e1102df34a8a3751d016338b9160",
        "chain --alpha 0.5 --m-min 2 --m-max 6":
            "71cbaf486e27635998131c1082aeb267e227754eda3808ab078b679433ed93cb",
        "blocks --alpha 0.5 --m 6":
            "1011cc917c5bd2598b73d490f2658f3e9e2dc70bad1ff1d8064d9d0977269388",
        "verify --alpha 0.95 --m 8":
            "332a75c1b2c47cf3ca33b751d54a500ad40f6d4dd83d806175a2190e5d1b0464",
    }

    @pytest.mark.parametrize("command", sorted(STDOUT_SHA256))
    def test_stdout_bytes_pinned(self, capsys, command):
        code, out, _ = run_capture(capsys, command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.STDOUT_SHA256[command]

    # exit code, sha256 of stdout and the stderr text of `verify --alpha` where a row fails
    # (the three alpha edges) and at the first m whose dense spectrum the SVD clips
    VERIFY_PINS = {
        "verify --alpha 0.1 --m 2": (
            2, "699662c6fd174dd24960e74bdda61c5d18b6abb223ae562eb659812640787951",
            "verification failed: block_chsh_match residual 5.140424964755752e-05 > 8.000000000000003e-06: "
            "residual 5.140e-05 > tolerance 8.000e-06\n"),
        "verify --alpha 0.00001 --m 2": (
            2, "315431911921476d7e6042e326e9563e2624c9d3d274e5dc92b43f45cc6668ea",
            "verification failed: block_decomposition residual inf > 1e-09: "
            "block 0 has no sub-correlation: weight at or below tol 1.0e-09\n"),
        "verify --alpha 0.99999 --m 2": (
            2, "5fecbbcd1b9672ece065c26b48b4d30c5a49b872f1ac618ac24c2414db2553e0",
            "verification failed: tables_printed_match residual 2.596811654598241e-12 > 1e-12: "
            "residual 2.597e-12 > tolerance 1.000e-12\n"),
        "verify --alpha 0.5 --m 32": (
            0, "374e557601ff083bf18ded0b243c90f18cb8987d13f6c74763226f90ab72faca", ""),
    }

    @pytest.mark.parametrize("command", sorted(VERIFY_PINS))
    def test_verify_output_pinned(self, capsys, command):
        code, out, err = run_capture(capsys, command.split())
        assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == self.VERIFY_PINS[command]

    # sha256 of the restart trace CSV that `seesaw --trace-out` writes
    TRACE_SHA256 = "6b5d8d8f4763558be9ec38874fbcdafb95f15cb8e2c0691e7ac1be8a2d18b91f"

    def test_seesaw_trace_bytes_pinned(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        code, _, _ = run_capture(capsys, [
            "seesaw", "--target", "chsh", "--dim", "2", "--restarts", "2", "--iters", "5",
            "--seed", "3", "--trace-out", str(path),
        ])
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.TRACE_SHA256

    @pytest.mark.parametrize("command", ["verify", "induce"])
    @pytest.mark.parametrize("damage", ["NaN state", "NaN projector entries"])
    def test_nan_strategy_refused(self, capsys, tmp_path, command, damage):
        s = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=2))
        state, alice = s.state, s.alice_meas
        if damage == "NaN state":
            state = np.full(state.shape, np.nan)
        else:
            alice = np.where(alice == 1.0, np.nan, alice)
        path = tmp_path / "strategy.json"
        path.write_text(Strategy(s.dA, s.dB, state, alice, s.bob_meas).to_json())
        code, out, err = run_capture(capsys, [command, "--strategy", str(path)])
        if command == "verify":
            assert code == 2
            # the NaN residual is written as null, so the payload is strict JSON
            payload = strict_loads(out)
            assert payload["passed"] is False
            row = payload["checks"][0]
            assert row["name"] == "strategy_valid" and row["residual"] is None and not row["pass"]
            kind = "state_norm" if damage == "NaN state" else "hermitian [A x=0 a=0]"
            assert f"{kind}: residual nan" in row["detail"]
            assert err.startswith("verification failed: strategy_valid residual nan ")
        else:
            assert code == 1
            assert err.startswith("error: invalid strategy") and "Traceback" not in err
            assert out == ""

    @pytest.mark.parametrize("damage", ["truncated", "ragged", "not JSON"])
    @pytest.mark.parametrize("command", ["induce", "schmidt", "verify"])
    def test_malformed_file_exits_1(self, capsys, tmp_path, command, damage):
        text = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=2)).to_json()
        if damage == "truncated":
            text = text[: len(text) // 2]
        elif damage == "ragged":
            data = json.loads(text)
            del data["alice_meas"][0][1][0]
            text = json.dumps(data)
        else:
            text = "alpha = 0.5\n"
        path = tmp_path / "strategy.json"
        path.write_text(text)
        code, out, err = run_capture(capsys, [command, "--strategy", str(path)])
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""

    def test_dimension_not_an_integer_exits_1(self, capsys, tmp_path):
        # int() would read "dA": "4" as 4, and verify would pass the file
        text = ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=2)).to_json()
        path = tmp_path / "strategy.json"
        path.write_text(text.replace('"dA": 4', '"dA": "4"'))
        code, out, err = run_capture(capsys, ["verify", "--strategy", str(path)])
        assert code == 1
        assert err.startswith("error: ") and "JSON integers" in err and "Traceback" not in err
        assert out == ""

    def test_integer_beyond_float_range_exits_1(self, capsys, tmp_path):
        data = json.loads(ideal_truncated_strategy(TruncationSpec(alpha=0.5, m=2)).to_json())
        data["state"][0][0] = "@big@"
        path = tmp_path / "strategy.json"
        path.write_text(json.dumps(data).replace('"@big@"', "1" + "0" * 400))
        code, out, err = run_capture(capsys, ["induce", "--strategy", str(path)])
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""


class TestCorrelationFiles:
    HEADER = '"m": 1, "n": 1, "r": 1, "s": 1'

    def test_nan_table_exits_1(self, capsys, tmp_path):
        ok, bad = tmp_path / "ok.json", tmp_path / "bad.json"
        ok.write_text('{"m": 1, "n": 1, "r": 1, "s": 2, "table": [[[[0.5, 0.5]]]]}')
        bad.write_text('{"m": 1, "n": 1, "r": 1, "s": 2, "table": [[[[NaN, NaN]]]]}')
        code, out, err = run_capture(capsys, ["distance", "--p", str(bad), "--q", str(ok)])
        assert code == 1
        assert err.startswith("error: ") and "non-finite" in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize(
        "text",
        [
            "{" + HEADER + "}",
            "[1, 2]",
            "null",
            "{" + HEADER + ', "table": "uniform"}',
            "{" + HEADER + ', "table": [[[[1' + "0" * 400 + "]]]]}",
            "{" + HEADER + ', "table": [[[["1.0"]]]]}',
        ],
        ids=["no table", "list", "null", "string table", "400-digit integer", "string entry"],
    )
    def test_malformed_file_exits_1(self, capsys, tmp_path, text):
        ok, bad = tmp_path / "ok.json", tmp_path / "bad.json"
        ok.write_text("{" + self.HEADER + ', "table": [[[[1.0]]]]}')
        bad.write_text(text)
        code, out, err = run_capture(capsys, ["distance", "--p", str(bad), "--q", str(ok)])
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""


class TestReadmeExamples:
    """The CLI examples in README.md print the values the README shows."""

    README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

    def shown(self, command, after=True):
        """The "# -> ..." line after ``command``, or else the comment block above it."""
        lines = self.README.split("\n")
        at = lines.index(f"qcorrkit {command}")
        if after:
            return lines[at + 1]
        start = at
        while lines[start - 1].startswith("#"):
            start -= 1
        return " ".join(lines[start:at])

    def test_every_command_parses(self):
        lines = [line for line in self.README.split("\n") if line.startswith("qcorrkit ")]
        assert lines
        parser = _build_parser()
        for line in lines:
            parser.parse_args(line.split()[1:])

    def test_tables_pair(self, capsys):
        shown = self.shown("tables --alpha 0.5 --pair 0 4")
        code, out, _ = run_capture(capsys, ["tables", "--alpha", "0.5", "--pair", "0", "4"])
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == float(re.search(r'"alpha": ([0-9.]+)', shown).group(1))
        assert payload["entries"] == json.loads(re.search(r'"entries": (\[\[.*?\]\])', shown).group(1))

    def test_schmidt(self, capsys):
        shown = self.shown("schmidt --alpha 0.5 --m 2")
        code, out, _ = run_capture(capsys, ["schmidt", "--alpha", "0.5", "--m", "2"])
        assert code == 0
        payload = json.loads(out)
        prefixes = re.search(r'"coefficients": \[(.*?)\]', shown).group(1).split(", ")
        assert len(payload["coefficients"]) == len(prefixes)
        for value, prefix in zip(payload["coefficients"], prefixes):
            assert repr(value).startswith(prefix.removesuffix("..."))
        cutoff = re.search(r'"cutoff": ([0-9.e+-]+)', shown).group(1)
        assert payload["cutoff"] == float(cutoff)

    def test_chain(self, capsys):
        shown = self.shown("chain --alpha 0.5 --m-min 2 --m-max 6", after=False)
        code, out, _ = run_capture(capsys, ["chain", "--alpha", "0.5", "--m-min", "2", "--m-max", "6"])
        assert code == 0
        # "2, 3, ..., 6 blocks -> 4, 6, ..., 12": each m's chain has length 2m
        blocks, lengths = (re.findall(r"\d+", side) for side in shown.split(";")[0].split("->"))
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [rows[0][0], rows[1][0], rows[-1][0]] == blocks
        assert [rows[0][1], rows[1][1], rows[-1][1]] == lengths
        assert all(int(n) == 2 * int(m) for m, n in rows)
