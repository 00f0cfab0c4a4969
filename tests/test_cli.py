import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from dirmono import (
    CopulaSpec,
    Notion,
    RunConfig,
    ScanReport,
    TOOL_VERSION,
    exit_code,
    format_report,
)
from dirmono import checker, cli
from dirmono.checker import (
    DirectionVerdict,
    GridSpec,
    PASS_AT_RESOLUTION,
    REFUTED,
    UNSUPPORTED,
    scan_all_directions,
)
from dirmono.cli import UsageError, main, parse_config
from dirmono.core import make_direction
from helpers import BAD_ARGVS, BAD_CONFIGS

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"


def invoke(capsys, *args):
    """``cli.main(args)`` in this process: its exit code, stdout and stderr."""
    code = main(list(args))
    captured = capsys.readouterr()
    return SimpleNamespace(returncode=code, stdout=captured.out, stderr=captured.err)


def spawn(*args):
    """``python -m dirmono args`` in a fresh process."""
    return subprocess.run(
        [sys.executable, "-m", "dirmono", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
    )


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(
            ["check", "--family", "fgm", "--dim", "2", "--lambda", "0.5",
             "--grid", "21", "--method", "both"]
        )
        assert cfg.spec == CopulaSpec("fgm", 2, {"lambda": 0.5})
        assert cfg.directions is None  # all
        assert cfg.grid == 21
        assert cfg.method == "both"
        assert cfg.notion is Notion.INCREASING
        assert cfg.tol == 1e-9
        assert cfg.eps_den == 1e-12
        assert cfg.fmt == "text"

    def test_default_grid_depends_on_dim(self):
        cfg = parse_config(["check", "--family", "product", "--dim", "3"])
        assert cfg.grid == 9
        cfg = parse_config(["check", "--family", "product", "--dim", "4"])
        assert cfg.grid == 6

    def test_direction_tokens(self):
        cfg = parse_config(
            ["check", "--family", "product", "--dim", "2",
             "--direction", "+,-", "--direction=-,+"]
        )
        assert [d.signs for d in cfg.directions] == [(1, -1), (-1, 1)]

    def test_survival_family_token(self):
        cfg = parse_config(
            ["check", "--family", "survival-of:fgm", "--dim", "2", "--lambda", "0.25"]
        )
        assert cfg.spec.family == "survival"
        assert cfg.spec.inner == CopulaSpec("fgm", 2, {"lambda": 0.25})

    @pytest.mark.parametrize("argv", BAD_ARGVS)
    def test_usage_errors(self, capsys, argv):
        # all but the last raise the library's own ValueErrors, the last a UsageError
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("dirmono: error:") and "Traceback" not in captured.err

    def test_missing_family_is_refused_while_parsing(self):
        with pytest.raises(UsageError, match="--family is required"):
            parse_config(["check", "--dim", "2"])

    @pytest.mark.parametrize(
        "args",
        [
            ["check", "--family", "product", "--dim", "2", "--method", "fast"],
            ["check", "--family", "product", "--dim", "2", "--grid", "abc"],
            ["check", "--family", "product", "--dim", "2", "--tol", "abc"],
            ["check", "--family", "product", "--dim", "2", "--frobnicate"],
            [],
        ],
        ids=["method-fast", "grid-abc", "tol-abc", "unknown-flag", "no-subcommand"],
    )
    def test_flag_errors_print_one_message(self, capsys, args):
        result = invoke(capsys, *args)
        assert result.returncode == 2
        assert result.stderr.startswith("dirmono: error:")
        assert "Traceback" not in result.stderr

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(
            json.dumps({"family": "fgm", "dim": 2, "lambda": 0.5, "grid": 9,
                        "method": "oracle", "format": "csv"})
        )
        cfg = parse_config(["check", "--config", str(cfg_file), "--grid", "5"])
        assert cfg.spec.params["lambda"] == 0.5
        assert cfg.grid == 5        # flag wins
        assert cfg.method == "oracle"
        assert cfg.fmt == "csv"

    def test_missing_config_file(self):
        with pytest.raises(UsageError):
            parse_config(["check", "--config", "/definitely/not/here.json"])

    @pytest.mark.parametrize(
        "text, message",
        [('{"family": "fgm",', "is not valid json"), ('["fgm", 2]', "must hold a json object")],
        ids=["not-json", "list"],
    )
    def test_config_file_that_is_no_json_object_exits_two(self, tmp_path, capsys, text, message):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(text)
        result = invoke(capsys, "check", "--config", str(cfg_file))
        assert result.returncode == 2 and result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith(f"dirmono: error: config file {cfg_file} ") and message in line

    # 10**400 has 401 digits, too many for a test id
    @pytest.mark.parametrize(
        "bad", BAD_CONFIGS, ids=lambda bad: str(bad).replace(str(10**400), "10**400")
    )
    def test_malformed_config_value_exits_two(self, tmp_path, capsys, bad):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps({"family": "fgm", "dim": 2, "lambda": 0.5, **bad}))
        result = invoke(capsys, "check", "--config", str(cfg_file))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("dirmono: error:")

    @pytest.mark.parametrize("bad", [{"family": 5}, {"method": 1}], ids=str)
    def test_wrong_json_type_is_a_type_error(self, tmp_path, bad):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps({"family": "fgm", "dim": 2, "lambda": 0.5, **bad}))
        with pytest.raises(UsageError, match="must be a string"):
            parse_config(["check", "--config", str(cfg_file)])

    @pytest.mark.parametrize(
        "config, flags, signs",
        [
            ({"all_directions": True}, ["--direction=-,+"], [(-1, 1)]),
            ({"direction": ["+,+", "+,-"]}, ["--direction=-,+"], [(-1, 1)]),
            ({"direction": "+,-"}, ["--all-directions"], None),
        ],
        ids=["all-then-token", "tokens-then-token", "token-then-all"],
    )
    def test_direction_flags_replace_config_directions(self, tmp_path, config, flags, signs):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"family": "product", "dim": 2, **config}))
        cfg = parse_config(["check", "--config", str(cfg_file), *flags])
        if signs is None:
            assert cfg.directions is None
        else:
            assert [d.signs for d in cfg.directions] == signs

    @pytest.mark.parametrize(
        "fixture",
        sorted(p.name for p in FIXTURES.glob("*.json") if p.name != "amh_invalid_dim.json"),
    )
    def test_config_and_flags_give_the_same_config(self, fixture):
        path = FIXTURES / fixture
        argv = ["check"]
        for key, value in json.loads(path.read_text()).items():
            flag = "--" + key.replace("_", "-")
            if value is True:
                argv.append(flag)
            elif key == "direction":
                argv += [f"{flag}={token}" for token in value]
            else:
                argv += [flag, str(value)]
        assert parse_config(["check", "--config", str(path)]) == parse_config(argv)

    def test_unknown_config_key(self, tmp_path):
        cfg_file = tmp_path / "typo.json"
        cfg_file.write_text(json.dumps({"family": "product", "dim": 2, "lamda": 0.5}))
        with pytest.raises(UsageError, match="lamda"):
            parse_config(["check", "--config", str(cfg_file)])

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_conjectural_pure_setting_is_gone(self, tmp_path, capsys, how):
        argv = ["check", "--family", "fgm", "--dim", "4", "--lambda", "0.5", "--grid", "2"]
        if how == "flag":
            argv.append("--allow-conjectural-pure")
        else:
            cfg_file = tmp_path / "run.json"
            cfg_file.write_text(json.dumps({"allow_conjectural_pure": True}))
            argv += ["--config", str(cfg_file)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("dirmono: error:") and "conjectural" in line

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_eps_den_below_the_smallest_normal_exits_two(self, tmp_path, capsys, how):
        # 5e-324 is the smallest subnormal double; below the floor a
        # quotient of the oracle could overflow
        argv = ["check", "--family", "fgm", "--dim", "2", "--lambda", "0.5", "--grid", "3"]
        if how == "flag":
            argv += ["--eps-den", "5e-324"]
        else:
            cfg_file = tmp_path / "run.json"
            cfg_file.write_text(json.dumps({"eps_den": 5e-324}))
            argv += ["--config", str(cfg_file)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("dirmono: error:") and "eps_den" in line.replace("-", "_")

    def test_eps_den_at_the_smallest_normal_is_accepted(self):
        cfg = parse_config(["check", "--family", "product", "--dim", "2",
                            "--eps-den", "2.2250738585072014e-308"])
        assert cfg.eps_den == checker.MIN_EPS_DEN


class TestExitCodes:
    def test_python_m_dirmono_exits_with_mains_code(self, capsys):
        # the one exit code read from a fresh process; the other tests call main here
        argv = ["check", "--config", str(FIXTURES / "fgm2_mixed_refuted.json")]
        assert spawn(*argv).returncode == main(argv) == 1
        capsys.readouterr()

    def test_pass_run(self, capsys):
        result = invoke(capsys, "check", "--config", str(FIXTURES / "pi3_all.json"))
        assert result.returncode == 0

    def test_refuted_run_reports_counterexample(self, capsys):
        result = invoke(capsys, "check", "--config", str(FIXTURES / "fgm2_mixed_refuted.json"))
        assert result.returncode == 1
        data = json.loads(result.stdout)
        (verdict,) = data["verdicts"]
        cex = verdict["counterexample"]
        assert cex is not None
        for key in ("u_low", "u_high", "lhs", "rhs", "violation"):
            assert key in cex
        assert cex["violation"] > 1e-9

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_direction_of_another_dim_exits_two(self, capsys, tmp_path, source):
        # the library refuses it before building anything, with one message
        if source == "flag":
            argv = ["check", "--family", "product", "--dim", "3", "--direction", "+,-"]
        else:
            path = tmp_path / "run.json"
            path.write_text(json.dumps({"family": "product", "dim": 3, "direction": ["+,-"]}))
            argv = ["check", "--config", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "dirmono: error: direction dim 2 does not match copula dim 3\n"

    def test_repeated_direction_exits_two(self, capsys):
        argv = ["check", "--family", "fgm", "--dim", "2", "--lambda", "0.5", "--grid", "5",
                "--direction", "+,-", "--direction", "+,+", "--direction", "+,-"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "dirmono: error: direction +,- is requested more than once\n"

    def test_config_error_run(self, capsys):
        result = invoke(capsys, "check", "--config", str(FIXTURES / "amh_invalid_dim.json"))
        assert result.returncode == 2
        assert "n=2" in result.stderr

    def test_pure_directions_dim_four(self, capsys):
        result = invoke(capsys, "check", "--config", str(FIXTURES / "m4_pure.json"))
        assert result.returncode == 0

    def test_unsupported_inequality_only_is_not_a_pass(self, capsys):
        result = invoke(
            capsys, "check", "--family", "m", "--dim", "4", "--direction", "+,+,+,+",
            "--method", "inequality", "--grid", "4", "--format", "json",
        )
        assert result.returncode == 1
        data = json.loads(result.stdout)
        assert data["verdicts"][0]["outcome"] == "unsupported"

    def test_disagreement_maps_to_exit_three(self):
        # synthetic report: the runner cannot produce one with a healthy build
        cfg = RunConfig(
            spec=CopulaSpec("product", 2),
            directions=None,
            grid=5,
            method="both",
            notion=Notion.INCREASING,
            tol=1e-9,
            eps_den=1e-12,
        )
        verdict = DirectionVerdict(
            direction=make_direction([1, -1]),
            method="both",
            outcome=REFUTED,
            pairs_tested=10,
            max_slack=0.1,
            counterexample=None,
            inequality_outcome=PASS_AT_RESOLUTION,
            oracle_outcome=REFUTED,
            methods_agree=False,
        )
        report = ScanReport(cfg, (verdict,), 0.0)
        assert report.disagreements == ("+,-",)
        assert exit_code(report) == 3

    def test_oracle_without_comparisons_is_not_a_pass(self, capsys):
        argv = ["check", "--family", "product", "--dim", "2", "--eps-den", "1", "--format", "json"]
        assert main(argv + ["--method", "oracle"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert {v["outcome"] for v in data["verdicts"]} == {UNSUPPORTED}
        assert main(argv + ["--method", "both"]) == 0

    def test_unconfirmed_counterexample_exits_three(self, monkeypatch, capsys):
        monkeypatch.setattr(checker, "recheck_counterexample", lambda *a, **k: False)
        assert main(["check", "--config", str(FIXTURES / "fgm2_mixed_refuted.json")]) == 3
        capsys.readouterr()

    def test_out_of_memory_exits_two(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 149. GiB")

        monkeypatch.setattr(cli, "scan_all_directions", exhausted)
        argv = ["check", "--family", "product", "--dim", "2", "--grid", "100000",
                "--method", "inequality", "--direction=+,-"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("dirmono: error:")
        assert "grid 100000" in err and "dim 2" in err
        assert "Traceback" not in err

    def test_an_os_error_before_the_write_is_not_a_write_failure(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise OSError("device gone")

        monkeypatch.setattr(cli, "scan_all_directions", broken)
        with pytest.raises(OSError, match="device gone"):
            main(["check", "--family", "product", "--dim", "2", "--grid", "3"])
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "dim, grid, shown",
        [
            ("100000000000000000000", "3", "64 axes"),
            ("70", "3", "64 axes"),
            ("30", "3", "4^30 points"),
            ("24", "2", "3^24 points"),
            ("16", "2", "3^16 points"),
            ("3", "40", "820^3 pairs"),
        ],
        ids=["100000000000000000000", "70", "30", "24", "16", "3"],
    )
    def test_lattice_no_table_can_hold_exits_two(self, monkeypatch, capsys, dim, grid, shown):
        # refused before any direction or lattice point is built, on a
        # machine of 768 MiB: numpy arrays have at most 64 axes, 10^20
        # overflows itertools, 2^30 directions of 3^30 lattice points each
        # would never finish, and the copula table, with 1.0 appended to
        # both grid points of each axis, has 3^24 points (the 2^24 lattice
        # points alone would be fewer).  The copula table of 3^16
        # points alone takes 328 MiB, but a scan's tables are charged 72
        # bytes per point, 2.9 GiB; the inequality route's 820^3 pairs at
        # (3,40) would take over 17 GiB, from a copula table of 1.6 MiB
        def built(*args, **kwargs):
            raise AssertionError("built before the lattice was checked")

        monkeypatch.setattr(checker, "_MEMORY", 768 << 20)
        monkeypatch.setattr(checker, "all_directions", built)
        monkeypatch.setattr(checker, "_cdf_axes", built)
        assert main(["check", "--family", "product", "--dim", dim, "--grid", grid]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dirmono: error:") and f"dim {dim}" in err
        assert shown in err and "Traceback" not in err

    @pytest.mark.xfail(
        reason="under D the oracle's conditional rises to 1 once the condition "
        "passes the target, so it refutes directions the inequality passes "
        "(ROADMAP item 2)"
    )
    def test_decreasing_notion_routes_agree(self, capsys):
        argv = ["check", "--family", "product", "--dim", "2", "--grid", "5",
                "--notion", "D", "--method", "both"]
        code = main(argv)
        capsys.readouterr()
        assert code != 3


class TestReportFormats:
    def test_text_rows(self, capsys):
        result = invoke(
            capsys, "check", "--family", "fgm", "--dim", "2", "--lambda", "0.5", "--grid", "9"
        )
        assert "PASS@g=9" in result.stdout
        assert "REFUTED@g=9" in result.stdout
        assert "slack=" in result.stdout
        assert "counterexample" in result.stdout

    def test_text_names_the_decreasing_notion(self, capsys):
        # D reverses the comparisons of both routes; nothing is derived in
        # text, while json's config keeps its schema key
        argv = ["check", "--family", "fgm", "--dim", "2", "--lambda", "0.5", "--grid", "5",
                "--notion", "D"]
        main(argv)
        out = capsys.readouterr().out
        assert "# decreasing notion: every comparison of both routes is reversed\n" in out
        assert "duality" not in out
        main(argv + ["--format", "json"])
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["notion"], config["derived_by_duality"]) == ("D", True)

    def test_text_labels_an_unsupported_verdict(self, capsys):
        result = invoke(
            capsys, "check", "--family", "m", "--dim", "4", "--direction", "+,+,+,+",
            "--method", "inequality", "--grid", "4",
        )
        assert result.returncode == 1
        [row] = [line for line in result.stdout.splitlines() if not line.startswith("#")]
        assert row.split()[1] == "UNSUPPORTED"

    def test_csv_rows(self, capsys):
        result = invoke(
            capsys, "check", "--family", "fgm", "--dim", "2", "--lambda", "0.5",
            "--grid", "9", "--format", "csv",
        )
        lines = result.stdout.strip().splitlines()
        assert len(lines) == 5  # header + 4 directions
        assert lines[0].startswith("direction,outcome,method")

    def test_json_schema_and_round_trip(self, tmp_path):
        # every double is written with repr, so json.loads gives back the
        # in-process verdicts' doubles bit for bit, for both counterexample kinds
        spec, grid = CopulaSpec("fgm", 2, {"lambda": 0.5}), GridSpec(9)
        for method, kind in (("both", "pair"), ("oracle", "step")):
            out = tmp_path / f"{method}.json"
            code = main(["check", "--family", "fgm", "--dim", "2", "--lambda", "0.5",
                         "--grid", "9", "--method", method, "--format", "json",
                         "--out", str(out)])
            assert code == 1
            data = json.loads(out.read_text())
            assert data["schema_version"] == 1
            assert data["tool_version"] == TOOL_VERSION
            assert data["config"]["family"]["family"] == "fgm"
            verdicts = scan_all_directions(spec, grid, method=method)
            written = data["verdicts"]
            assert [v["direction"] for v in written] == [v.direction.token() for v in verdicts]
            kinds = set()
            for row, verdict in zip(written, verdicts):
                assert row["max_slack"] == verdict.max_slack
                cex = verdict.counterexample
                if cex is None:
                    assert row["counterexample"] is None
                    continue
                kinds.add(cex.kind)
                for key in ("lhs", "rhs", "violation"):
                    assert row["counterexample"][key] == getattr(cex, key)
                for key in ("u_low", "u_high", "target"):
                    value = getattr(cex, key)
                    assert row["counterexample"][key] == (None if value is None else list(value))
            assert kinds == {kind}

    def test_json_determinism_modulo_timing(self, tmp_path):
        args = (
            "check", "--family", "fgm", "--dim", "2", "--lambda", "0.5",
            "--grid", "9", "--format", "json",
        )
        first = json.loads(spawn(*args).stdout)
        second = json.loads(spawn(*args).stdout)
        first.pop("timing")
        second.pop("timing")
        assert json.dumps(first) == json.dumps(second)

    def test_unwritable_output_path(self, capsys):
        result = invoke(
            capsys, "check", "--family", "product", "--dim", "2", "--grid", "3",
            "--out", "/nonexistent-dir/report.txt",
        )
        assert result.returncode == 2
        [line] = result.stderr.splitlines()
        assert line.startswith("dirmono: error: cannot write")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_closed_stdout_is_one_error_line(self, fmt):
        # a reader gone before the report is written, as `| head -c1` may be
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "dirmono", "check", "--family", "fgm", "--dim", "2",
                 "--lambda", "0.5", "--grid", "9", "--format", fmt],
                stdout=write, stderr=subprocess.PIPE, text=True, cwd=REPO,
            )
        finally:
            os.close(write)
        assert result.returncode == 2
        # one line: no traceback, and no "Exception ignored" from the flush at exit
        [line] = result.stderr.splitlines()
        assert line.startswith("dirmono: error: cannot write the report to stdout:")

    def test_main_writes_csv_to_stdout(self, capsys):
        code = main(["check", "--family", "w", "--dim", "2", "--grid", "9", "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 1  # pure directions refuted
        assert captured.out.startswith("direction,outcome")

    def test_the_tool_version_is_the_package_version(self):
        # every json report carries TOOL_VERSION as its tool_version; the
        # one version line of pyproject.toml is [project]'s (no tomllib on 3.10)
        [version] = re.findall(r'^version = "(.*)"$', (REPO / "pyproject.toml").read_text(), re.M)
        assert TOOL_VERSION == version

    def test_format_report_rejects_unknown(self):
        cfg = RunConfig(
            spec=CopulaSpec("product", 2), directions=None, grid=5,
            method="both", notion=Notion.INCREASING, tol=1e-9, eps_den=1e-12,
        )
        verdict = DirectionVerdict(
            direction=make_direction([1, 1]), method="oracle",
            outcome=UNSUPPORTED, pairs_tested=0, max_slack=None, counterexample=None,
        )
        report = ScanReport(cfg, (verdict,), 0.0)
        with pytest.raises(ValueError):
            format_report(report, "yaml")

    def test_an_empty_report_in_every_format(self):
        # no direction, as a library caller may ask; csv keeps its header
        cfg = RunConfig(
            spec=CopulaSpec("product", 2), directions=(), grid=5,
            method="both", notion=Notion.INCREASING, tol=1e-9, eps_den=1e-12,
        )
        verdicts = scan_all_directions(cfg.spec, GridSpec(cfg.grid), directions=[])
        report = ScanReport(cfg, tuple(verdicts), 0.25)
        assert exit_code(report) == 1  # nothing was checked, so nothing passed
        assert format_report(report, "text") == (
            "# dirmono scan report (schema 1, tool 0.1.0)\n"
            "# copula: product(n=2)  grid: g=5  method: both  notion: I  tol: 1e-09"
            "  eps_den: 1e-12\n"
            "# elapsed: 0.250 s\n"
        )
        assert format_report(report, "csv") == (
            "direction,outcome,method,pairs_tested,max_slack,inequality_outcome,"
            "oracle_outcome,methods_agree,cex_kind,cex_u_low,cex_u_high,cex_lhs,cex_rhs,"
            "cex_violation,cex_target,cex_axis\n"
        )
        family = {"family": "product", "dim": 2, "params": {}, "inner": None}
        assert format_report(report, "json") == json.dumps({
            "schema_version": 1,
            "tool_version": "0.1.0",
            "config": {
                "family": family, "directions": [], "grid": 5, "method": "both",
                "notion": "I", "derived_by_duality": False, "tol": 1e-9, "eps_den": 1e-12,
                "format": "text", "out": None,
            },
            "verdicts": [],
            "disagreements": [],
            "timing": {"elapsed_seconds": 0.25, "minor_faults": None},
        }, indent=2) + "\n"


class TestAllocator:
    """The CLI raises glibc's trim and mmap thresholds before its scan."""

    ARGV = ["check", "--family", "fgm", "--dim", "3", "--lambda", "0.5", "--grid", "5",
            "--all-directions", "--format", "json"]

    @staticmethod
    def _libc(monkeypatch, result=1):
        """A C library whose mallopt records its calls and returns ``result``."""
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return result

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        return calls

    def _report(self, capsys):
        code = main(self.ARGV)
        return code, json.loads(capsys.readouterr().out)

    def test_sets_both_thresholds(self, monkeypatch):
        calls = self._libc(monkeypatch)
        assert cli._keep_freed_memory() is True
        # M_TRIM_THRESHOLD to 256 MiB, M_MMAP_THRESHOLD to 32 MiB
        assert calls == [(-1, 256 << 20), (-3, 32 << 20)]

    def test_a_refused_setting_is_reported(self, monkeypatch):
        calls = self._libc(monkeypatch, result=0)
        assert cli._keep_freed_memory() is False
        assert len(calls) == 2

    @pytest.mark.skipif(not GLIBC, reason="mallopt is glibc's")
    def test_glibc_takes_both_settings(self):
        assert cli._keep_freed_memory() is True

    @pytest.mark.parametrize("missing", ["library", "mallopt"])
    def test_without_mallopt_the_report_is_unchanged(self, monkeypatch, capsys, missing):
        code, expected = self._report(capsys)

        def no_library(name):
            raise OSError("no C library")

        monkeypatch.setattr(cli.ctypes, "CDLL", no_library if missing == "library"
                            else lambda name: object())
        assert cli._keep_freed_memory() is False
        got_code, got = self._report(capsys)
        assert got_code == code
        assert got["timing"].keys() == expected.pop("timing").keys()
        got.pop("timing")
        assert got == expected

    def test_timing_counts_the_scans_faults(self, monkeypatch, capsys):
        faults = self._report(capsys)[1]["timing"]["minor_faults"]
        assert isinstance(faults, int) and faults >= 0
        monkeypatch.setattr(cli, "resource", None)
        assert self._report(capsys)[1]["timing"]["minor_faults"] is None

    @pytest.mark.skipif(not GLIBC, reason="mallopt is glibc's")
    def test_the_scan_keeps_its_pages(self):
        # under glibc's default thresholds this scan took about 22,000 minor
        # faults; with its freed memory kept mapped, about 3,300 on 2 CPUs
        result = spawn("check", "--family", "fgm", "--dim", "5", "--lambda", "0.5",
                        "--grid", "4", "--all-directions", "--format", "json")
        assert result.returncode == 1, result.stderr  # the odd directions are refuted
        assert json.loads(result.stdout)["timing"]["minor_faults"] < 10000
