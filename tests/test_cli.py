import io
import os
import shutil
import subprocess
import sys
from dataclasses import fields

import pytest

import arcfdr
from arcfdr import oracles
from arcfdr.cli import COMMANDS, CSV_COLUMNS, _merge, _parse_grid, build_parser, main
from arcfdr.simulate import GaussianSetupConfig


def run_cli(argv, stdin_text=None):
    """Run the CLI in-process, capturing stdout/stderr and the exit status."""
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr, sys.stdin
    try:
        sys.stdout, sys.stderr = out, err
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        status = main(argv)
    finally:
        sys.stdout, sys.stderr, sys.stdin = old
    return status, out.getvalue(), err.getvalue()


class TestParseGrid:
    def test_single_value(self):
        assert _parse_grid("0.3") == [0.3]

    def test_range(self):
        assert _parse_grid("0.1:0.5:0.2") == [0.1, 0.3, 0.5]

    def test_inclusive_stop(self):
        got = _parse_grid("0.1:0.9:0.1")
        assert len(got) == 9 and got[-1] == 0.9

    def test_bad_step(self):
        with pytest.raises(ValueError, match="^grid step must be positive$"):
            _parse_grid("0.1:0.9:0")

    @pytest.mark.parametrize("spec, message", [
        ("0.1:0.3:nan", "start, stop and step must be finite"),
        ("nan:0.3:0.1", "start, stop and step must be finite"),
        ("0.1:inf:0.1", "start, stop and step must be finite"),
        ("0.1:0.3:1e-13", "step below 1e-12"),
        ("0.1:1e300:0.1", "more than a million points"),
        ("0.3:0.1:0.1", "has no points"),
    ])
    def test_unbounded_or_empty_grid_exits_2(self, spec, message):
        status, out, err = run_cli(["simulate", "--pi-a", spec, "--n", "20", "--m", "2"])
        assert status == 2 and out == ""
        assert err.startswith(f"error: grid {spec!r}") and message in err

    def test_smallest_step_reaches_the_stop_slack(self):
        # the stop admits 1e-9 of slack: 1000 steps of 1e-12 past it
        got = _parse_grid("0.1:0.1000000001:1e-12")
        assert len(got) == 1101 and got[0] == 0.1 and got[-1] == 0.1000000011

    def test_bad_grid_exits_2(self):
        status, out, err = run_cli(["simulate", "--pi-a", "0.1:0.9"])
        assert status == 2 and out == ""
        assert err == "error: grid must be value or start:stop:step, got '0.1:0.9'\n"

    @pytest.mark.parametrize("spec, part", [("abc", "abc"), ("0.1:x:0.1", "x")])
    def test_non_numeric_grid_names_the_grid(self, spec, part):
        status, out, err = run_cli(["simulate", "--pi-a", spec, "--n", "20", "--m", "2"])
        assert status == 2 and out == ""
        assert err == f"error: grid {spec!r}: {part!r} is not a number\n"

    def test_non_numeric_grid_in_a_file_names_its_line(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n = 20\npi_a = abc\n")
        status, out, err = run_cli(["simulate", "--config", str(cfg)])
        assert status == 2 and out == ""
        assert err == (f"error: {cfg}:2: config key 'pi_a': "
                       "grid 'abc': 'abc' is not a number\n")


class TestStream:
    def test_arc_demo(self):
        # E = (20, 5, 31), alpha = 0.1, uniform weights over 3
        status, out, err = run_cli(
            ["stream", "--kind", "e", "--alpha", "0.1", "--gamma", "uniform:3"],
            stdin_text="20\n5\n31\n")
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t=1 k*=0 rejected={} new={}"
        assert lines[1] == "t=2 k*=0 rejected={} new={}"
        assert lines[2] == "t=3 k*=2 rejected={1,3} new={1,3}"

    def test_pvalue_stream(self):
        status, out, _ = run_cli(
            ["stream", "--kind", "p", "--alpha", "0.3", "--gamma", "uniform:3"],
            stdin_text="0.05\n0.5\n0.09\n")
        assert status == 0
        assert out.strip().splitlines()[-1] == "t=3 k*=2 rejected={1,3} new={3}"

    def test_comments_and_blanks_skipped(self):
        status, out, _ = run_cli(
            ["stream", "--kind", "e", "--alpha", "0.1", "--gamma", "uniform:2"],
            stdin_text="# header\n\n20 # inline\n")
        assert status == 0
        assert len(out.strip().splitlines()) == 1

    def test_malformed_line_aborts(self):
        status, out, err = run_cli(
            ["stream", "--kind", "e", "--alpha", "0.1", "--gamma", "uniform:3"],
            stdin_text="20\nbogus\n31\n")
        assert status == 1
        assert "line 2" in err
        assert len(out.strip().splitlines()) == 1  # nothing after the abort

    def test_invalid_score_value_aborts(self):
        status, _, err = run_cli(
            ["stream", "--kind", "p", "--alpha", "0.1", "--gamma", "uniform:3"],
            stdin_text="1.5\n")
        assert status == 1 and "line 1" in err

    def test_empty_input(self):
        status, out, _ = run_cli(
            ["stream", "--kind", "e", "--alpha", "0.1", "--gamma", "geometric:0.9"],
            stdin_text="")
        assert status == 0 and out == ""

    def test_bad_gamma_spec(self):
        status, out, err = run_cli(["stream", "--gamma", "harmonic:3"], stdin_text="")
        assert status == 2 and out == ""
        assert err == ("error: gamma must be uniform:K or geometric:q, "
                       "got 'harmonic:3'\n")

    @pytest.mark.parametrize("spec", ["uniform:abc", "uniform:2.5", "geometric:x", "uniform"])
    def test_bad_gamma_parameter(self, spec):
        status, out, err = run_cli(["stream", "--gamma", spec], stdin_text="")
        assert status == 2 and out == ""
        assert err == f"error: gamma must be uniform:K or geometric:q, got {spec!r}\n"


class TestBoostFactor:
    def test_preset_table(self):
        status, out, _ = run_cli(["boost-factor", "--preset", "example"])
        assert status == 0
        lines = out.strip().splitlines()
        assert len(lines) == 9  # header + 8 rows
        values = [float(line.split()[3]) for line in lines[1:]]
        golden = [1.165, 1.174, 3.071, 1.730, 1.265, 1.541, 1.940, 2.639]
        for got, want, tol in zip(values, golden,
                                  [0.005, 0.005] + [0.01] * 6):
            assert abs(got - want) <= tol
        # every printed residual within the solver tolerance
        for line in lines[1:]:
            assert abs(float(line.split()[4])) <= 1e-6

    def test_single_case(self):
        status, out, _ = run_cli(["boost-factor", "--variant", "minus",
                                  "--s", "10", "--alpha", "0.05",
                                  "--gamma", "0.01", "--delta", "3"])
        assert status == 0
        b = float(out.strip().splitlines()[1].split()[3])
        assert abs(b - 3.071) <= 0.01

    def test_unknown_preset(self):
        status, out, err = run_cli(["boost-factor", "--preset", "nope"])
        assert status == 2 and out == ""
        assert err == "error: unknown preset 'nope'\n"

    def test_lag_on_non_local_variant_fails(self):
        status, out, err = run_cli(["boost-factor", "--variant", "minus",
                                    "--s", "10", "--lag", "2"])
        assert status == 1
        assert len(out.strip().splitlines()) == 1  # the header only
        assert "lag_kstar" in err

    def test_nan_gamma_fails(self):
        status, out, err = run_cli(["boost-factor", "--variant", "minus",
                                    "--s", "10", "--gamma", "nan"])
        assert status == 1
        assert len(out.strip().splitlines()) == 1  # the header only
        assert "gamma=nan" in err

    def test_residual_against_reference_gates_status(self, monkeypatch):
        monkeypatch.setattr(oracles, "expected_truncated_reference",
                            lambda model, spec, b: 1.1)
        status, out, err = run_cli(["boost-factor", "--preset", "example"])
        assert status == 1
        lines = out.strip().splitlines()
        assert len(lines) == 9  # every row is still printed
        assert all(float(line.split()[4]) == pytest.approx(0.1) for line in lines[1:])
        assert err.count("residual against the reference exceeds") == 8


class TestSimulateCsv:
    ARGS = ["simulate", "--procedures", "lond,obh", "--n", "100", "--m", "3",
            "--batch-size", "20", "--pi-a", "0.2", "--seed", "7"]

    def test_stdout_schema(self):
        status, out, _ = run_cli(self.ARGS)
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2 * 3  # 2 procedures x 3 metrics
        for line in lines[1:]:
            assert len(line.split(",")) == len(CSV_COLUMNS)

    def test_deterministic(self):
        a = run_cli(self.ARGS)[1]
        b = run_cli(self.ARGS)[1]
        assert a == b

    def test_output_file_atomic(self, tmp_path):
        target = tmp_path / "out.csv"
        status, _, _ = run_cli(self.ARGS + ["--output", str(target)])
        assert status == 0
        assert target.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []

    def test_output_onto_a_directory_exits_2_without_leftovers(self, tmp_path):
        # the rename onto the directory fails after the temp file is written
        target = tmp_path / "out"
        target.mkdir()
        status, out, err = run_cli(self.ARGS + ["--output", str(target)])
        assert status == 2 and out == "" and err.startswith("error: ")
        assert sorted(os.listdir(tmp_path)) == ["out"] and os.listdir(target) == []

    def test_pi_grid(self):
        status, out, _ = run_cli(["simulate", "--procedures", "lond", "--n",
                                  "100", "--m", "2", "--batch-size", "20",
                                  "--pi-a", "0.2:0.4:0.2"])
        assert status == 0
        assert len(out.strip().splitlines()) == 1 + 2 * 3

    def test_solver_error_exits_1_without_a_traceback(self):
        status, out, err = run_cli(["simulate", "--procedures", "oe-bh-boost-minus",
                                    "--n", "4000", "--m", "2"])
        assert status == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_unknown_procedure_fails(self):
        status, _, err = run_cli(["simulate", "--procedures", "nope",
                                  "--n", "100", "--m", "2"])
        assert status == 2 and "error" in err


class TestConfigFile:
    def test_precedence_flags_over_file(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("# comment\nn = 100\nm = 2\nbatch-size = 20\nseed = 3\n")
        # the flag value for m must win over the file's
        status, out, _ = run_cli(["simulate", "--config", str(cfg),
                                  "--procedures", "lond", "--m", "4"])
        assert status == 0
        assert out.strip().splitlines()[1].split(",")[9] == "4"  # m column

    def test_file_over_defaults(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n=100\nm=2\nbatch-size=20\nalpha=0.2\n")
        status, out, _ = run_cli(["simulate", "--config", str(cfg),
                                  "--procedures", "lond"])
        assert status == 0
        assert out.strip().splitlines()[1].split(",")[4] == "0.2"  # alpha column

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("bogus=1\n")
        status, out, err = run_cli(["simulate", "--config", str(cfg)])
        assert status == 2 and out == ""
        assert err == f"error: {cfg}:1: config key 'bogus' is unknown\n"

    @pytest.mark.parametrize("first, again", [("n", "n"), ("batch-size", "batch_size")])
    def test_repeated_key_rejected(self, tmp_path, first, again):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"{first}=20\nm=2\n{again}=40\n")
        status, out, err = run_cli(["simulate", "--config", str(cfg)])
        assert status == 2 and out == ""
        key = again.replace("-", "_")
        assert err == f"error: {cfg}:3: config key {key!r} repeats line 1\n"

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("just a line\n")
        status, out, err = run_cli(["simulate", "--config", str(cfg)])
        assert status == 2 and out == ""
        assert err == f"error: {cfg}:1: expected key=value, got 'just a line\\n'\n"

    @pytest.mark.parametrize("text, flag", [("false", False), ("False", False), ("0", False),
                                            ("true", True), ("TRUE", True), ("1", True)])
    def test_boolean_values(self, tmp_path, monkeypatch, text, flag):
        seen = []
        monkeypatch.setattr("arcfdr.simulate.run_experiment",
                            lambda cfg, *args, **kwargs: seen.append(cfg) or [])
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"n=100\nm=2\nbatch-size=20\np_from_z = {text}\n")
        status, _, _ = run_cli(["simulate", "--config", str(cfg)])
        assert status == 0
        assert seen[0].p_from_z is flag

    def test_bad_boolean_names_key(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("p_from_z = no\n")
        status, out, err = run_cli(["simulate", "--config", str(cfg)])
        assert status == 2 and out == ""
        assert err == (f"error: {cfg}:1: config key 'p_from_z' must be true, "
                       "false, 1 or 0, got 'no'\n")

    def test_bad_number_names_key_line_and_type(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("# sizes\nm = 2\nn = 1e3\n")
        status, _, err = run_cli(["simulate", "--config", str(cfg)])
        assert status == 2
        assert err == f"error: {cfg}:3: config key 'n' expects int, got '1e3'\n"

    def test_kind_keeps_to_the_flag_choices(self, tmp_path):
        cfg = tmp_path / "stream.cfg"
        cfg.write_text("alpha = 0.1\nkind = E\n")
        status, out, err = run_cli(["stream", "--config", str(cfg)], stdin_text="20\n")
        assert status == 2 and out == ""
        assert err == f"error: {cfg}:2: config key 'kind' must be p or e, got 'E'\n"
        cfg.write_text("alpha = 0.3\ngamma = uniform:3\nkind = p\n")
        status, out, _ = run_cli(["stream", "--config", str(cfg)], stdin_text="0.05\n")
        assert status == 0 and out == "t=1 k*=1 rejected={1} new={1}\n"


def subparsers():
    return build_parser()._subparsers._group_actions[0].choices


class TestOptionTables:
    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_flags_are_the_config_keys(self, name):
        dests = {a.dest for a in subparsers()[name]._actions} - {"help", "config"}
        assert dests == set(COMMANDS[name][2])

    def test_simulate_options_are_the_setup_fields(self):
        options = COMMANDS["simulate"][2]
        assert set(options) - {"procedures", "output"} == {
            f.name for f in fields(GaussianSetupConfig)}
        for f in fields(GaussianSetupConfig):
            if f.name != "pi_a":
                assert options[f.name].default == f.default
                assert options[f.name].type is type(f.default)

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_defaults_in_a_file_merge_as_no_file(self, name, tmp_path):
        options = COMMANDS[name][2]
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("".join(f"{key.replace('_', '-')} = {opt.default}\n"
                               for key, opt in options.items() if opt.default is not None))
        parser = build_parser()
        bare = _merge(parser.parse_args([name]), options)
        from_file = _merge(parser.parse_args([name, "--config", str(cfg)]), options)
        assert from_file == bare
        assert [type(v) for v in from_file.values()] == [type(v) for v in bare.values()]

    @pytest.mark.parametrize("argv, text, key, typename", [
        (["boost-factor"], "lag = abc\n", "lag", "int"),
        (["adversarial", "--k0", "5"], "k = 1e3\n", "k", "int"),
        (["oracle-check"], "alpha = tenth\n", "alpha", "float"),
    ])
    def test_bad_value_without_default_names_key_and_line(self, tmp_path, argv, text,
                                                          key, typename):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        status, out, err = run_cli(argv + ["--config", str(cfg)])
        value = text.split("=")[1].strip()
        assert status == 2 and out == ""
        assert err == f"error: {cfg}:1: config key {key!r} expects {typename}, got {value!r}\n"

    def test_variant_keeps_to_the_flag_choices(self, tmp_path):
        cfg = tmp_path / "boost.cfg"
        cfg.write_text("s = 10\nvariant = foo\n")
        status, out, err = run_cli(["boost-factor", "--config", str(cfg)])
        assert status == 2 and out == ""
        assert err == (f"error: {cfg}:2: config key 'variant' must be plus or minus or "
                       "local_plus or local_minus or prds, got 'foo'\n")

    def test_typed_file_values_reach_the_command(self, tmp_path):
        cfg = tmp_path / "boost.cfg"
        cfg.write_text("variant = minus\ns = 10\ndelta = 3\n")
        status, out, _ = run_cli(["boost-factor", "--config", str(cfg)])
        assert status == 0
        assert abs(float(out.strip().splitlines()[1].split()[3]) - 3.071) <= 0.01


class TestOracleCheck:
    def test_agreement(self):
        status, out, _ = run_cli(["oracle-check", "--k", "20",
                                  "--instances", "50", "--seed", "1"])
        assert status == 0
        assert "mismatches=0" in out


class TestAdversarialCmd:
    def test_small_run(self):
        status, out, _ = run_cli(["adversarial", "--k0", "50", "--alpha", "0.1",
                                  "--m", "20", "--seed", "2"])
        assert status == 0
        assert "mean_fdp=" in out and "infeasible=" in out


class TestEntryPoint:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_installed_script(self):
        script = shutil.which("arcfdr")
        if script is not None:
            launcher, env = [script], None
        else:
            # No console script on PATH (package not installed): run the CLI
            # as ``python -m arcfdr`` from the tree this process imports.
            src = os.path.dirname(os.path.dirname(os.path.abspath(arcfdr.__file__)))
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src, env.get("PYTHONPATH")]))
            launcher = [sys.executable, "-m", "arcfdr"]
        proc = subprocess.run(launcher + ["boost-factor", "--variant", "plus",
                                          "--s", "10"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "plus" in proc.stdout
        # A CLI error's exit status gets through the launcher unchanged.
        proc = subprocess.run(launcher + ["stream", "--kind", "p", "--alpha", "0.1",
                                          "--gamma", "uniform:3"],
                              input="1.5\n", capture_output=True, text=True, env=env)
        assert proc.returncode == 1 and "line 1" in proc.stderr
        if script is None:
            # ``-m`` bypasses the console-script mapping, so check it here:
            # the script target and ``arcfdr.__main__`` run the same main.
            try:
                import tomllib
            except ModuleNotFoundError:  # Python 3.10
                tomllib = pytest.importorskip("tomli")
            pyproject = os.path.join(os.path.dirname(__file__), os.pardir,
                                     "pyproject.toml")
            with open(pyproject, "rb") as fh:
                target = tomllib.load(fh)["project"]["scripts"]["arcfdr"]
            assert target == "arcfdr.cli:main"
            from arcfdr import __main__ as entry
            assert entry.main is main
