"""Command-line interface tests: ingestion, the four subcommands, exit
codes, and determinism."""

import json
import math
import subprocess
import sys
import time
import warnings
from importlib import resources

import numpy as np
import pytest

from circkde import simulate
from circkde.errors import BracketingError, FitError, ToleranceError
from circkde.cli import (
    AngleFormat,
    CliError,
    IngestSpec,
    _build_parser,
    angle_to_clock,
    cmd_density,
    cmd_modes,
    cmd_select,
    cmd_simulate,
    main,
    read_angles,
)
from circkde.estimators import CircularSample, default_grid, kde_values
from circkde.kernels import KernelFamily, KernelSpec
from circkde.selectors import SELECTORS, SelectorConfig, SelectorMethod

CRASH_CSV = str(resources.files("circkde") / "data" / "crash_times.csv")

MODE_2025 = 2.0 * np.pi * 1225 / 1440 - np.pi
ANTI_1329 = 2.0 * np.pi * 809 / 1440 - np.pi
FIVE_MIN = 5.0 * 2.0 * np.pi / 1440


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def radians_file(tmp_path, angles, name="angles.txt"):
    return write_lines(tmp_path / name, [repr(float(a)) for a in angles])


def balanced_angles(n=100):
    # equally spaced angles have zero resultant, forcing the uniform fallback
    return np.linspace(-np.pi, np.pi, n, endpoint=False)


def vm_angles(seed, n=200, mu=0.0, kappa=2.0):
    return np.random.default_rng(seed).vonmises(mu, kappa, n)


class TestIngestion:
    def test_radians_passthrough_and_wrap(self, tmp_path):
        path = radians_file(tmp_path, [0.5, -1.0, 4.0])
        out = read_angles(IngestSpec(path, AngleFormat.RADIANS))
        assert out[0] == 0.5 and out[1] == -1.0
        assert out[2] == pytest.approx(4.0 - 2.0 * np.pi, abs=1e-12)

    def test_degrees_map(self, tmp_path):
        path = write_lines(tmp_path / "deg.txt", ["90", "180", "-45"])
        out = read_angles(IngestSpec(path, AngleFormat.DEGREES))
        assert out[0] == pytest.approx(np.pi / 2, abs=1e-12)
        assert out[1] == pytest.approx(-np.pi, abs=1e-12)  # wraps to the low end
        assert out[2] == pytest.approx(-np.pi / 4, abs=1e-12)

    def test_hhmm_map(self, tmp_path):
        path = write_lines(tmp_path / "t.txt", ["00:00", "12:00", "20:25"])
        out = read_angles(IngestSpec(path, AngleFormat.HHMM))
        assert out[0] == pytest.approx(-np.pi, abs=1e-12)
        assert out[1] == pytest.approx(0.0, abs=1e-12)
        assert out[2] == pytest.approx(MODE_2025, abs=1e-12)

    def test_minutes_map(self, tmp_path):
        path = write_lines(tmp_path / "m.txt", ["0", "720", "1225.0"])
        out = read_angles(IngestSpec(path, AngleFormat.MINUTES))
        assert out[1] == pytest.approx(0.0, abs=1e-12)
        assert out[2] == pytest.approx(MODE_2025, abs=1e-12)

    def test_clock_round_trip_every_minute(self):
        for t in range(1440):
            theta = 2.0 * np.pi * t / 1440.0 - np.pi
            assert angle_to_clock(theta) == f"{t // 60:02d}:{t % 60:02d}"

    def test_column_by_name_skips_header(self, tmp_path):
        path = write_lines(tmp_path / "c.csv", ["id,when", "1,0.5", "2,1.5"])
        out = read_angles(IngestSpec(path, AngleFormat.RADIANS, column="when"))
        assert list(out) == [0.5, 1.5]

    def test_column_by_index(self, tmp_path):
        path = write_lines(tmp_path / "c.csv", ["0.5,9", "1.5,9"])
        out = read_angles(IngestSpec(path, AngleFormat.RADIANS, column="0"))
        assert list(out) == [0.5, 1.5]

    @pytest.mark.parametrize("column", ["-1", "-5"])
    def test_negative_column_index_is_a_usage_error(self, tmp_path, capsys, column):
        path = write_lines(tmp_path / "c.csv", ["0.5,9", "1.5,9"])
        assert main(["select", path, "--column", column]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "usage"
        assert column in err["message"]

    def test_missing_column_name(self, tmp_path):
        path = write_lines(tmp_path / "c.csv", ["id,when", "1,0.5"])
        with pytest.raises(CliError) as err:
            read_angles(IngestSpec(path, AngleFormat.RADIANS, column="nope"))
        assert err.value.line == 1

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        path = write_lines(tmp_path / "b.txt", ["# header comment", "", "0.1", "  ", "0.2"])
        out = read_angles(IngestSpec(path, AngleFormat.RADIANS))
        assert len(out) == 2

    def test_parse_error_carries_line_number(self, tmp_path):
        path = write_lines(tmp_path / "bad.txt", ["0.1", "banana", "0.3"])
        with pytest.raises(CliError) as err:
            read_angles(IngestSpec(path, AngleFormat.RADIANS))
        assert err.value.line == 2

    @pytest.mark.parametrize("token", ["25:00", "12:60", "ab:cd", "1230"])
    def test_bad_clock_tokens(self, tmp_path, token):
        path = write_lines(tmp_path / "bad.txt", ["10:00", token])
        with pytest.raises(CliError):
            read_angles(IngestSpec(path, AngleFormat.HHMM))

    def test_too_few_observations(self, tmp_path):
        path = write_lines(tmp_path / "one.txt", ["0.5"])
        with pytest.raises(CliError):
            read_angles(IngestSpec(path, AngleFormat.RADIANS))


class TestSelectCommand:
    def test_uniform_data_rule_of_thumb_falls_back(self, tmp_path):
        path = radians_file(tmp_path, balanced_angles())
        sel = cmd_select(IngestSpec(path, AngleFormat.RADIANS), SelectorConfig(), "rt")
        assert sel.fallback_uniform and sel.nu == 0.0

    def test_crash_data_dpi_unimodal_kde(self):
        ing = IngestSpec(CRASH_CSV, AngleFormat.HHMM, column="time")
        sel = cmd_select(ing, SelectorConfig(r=0, M_max=1), "dpi")
        assert not sel.fallback_uniform and 0.0 < sel.nu < 1.0
        spec = KernelSpec.from_nu(KernelFamily.VONMISES, sel.nu)
        sample = CircularSample.from_data(read_angles(ing))
        deriv = kde_values(sample, spec, default_grid(2880), deriv_order=1)
        signs = np.sign(deriv)
        flips = int(np.sum(signs != np.roll(signs, -1)))
        assert flips == 2

    def test_crash_data_ste_differs_from_dpi(self):
        ing = IngestSpec(CRASH_CSV, AngleFormat.HHMM, column="time")
        dpi = cmd_select(ing, SelectorConfig(), "dpi")
        ste = cmd_select(ing, SelectorConfig(), "ste")
        assert 0.0 < dpi.nu < 1.0 and 0.0 < ste.nu < 1.0
        assert ste.nu != dpi.nu

    def test_unknown_method_rejected(self, tmp_path):
        path = radians_file(tmp_path, vm_angles(0))
        with pytest.raises(CliError):
            cmd_select(IngestSpec(path, AngleFormat.RADIANS), SelectorConfig(), "bogus")

    def test_main_prints_parseable_json(self, tmp_path, capsys):
        path = radians_file(tmp_path, vm_angles(1))
        code = main(["select", path, "--method", "rt"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "rt"
        assert 0.0 < payload["nu"] < 1.0

    def test_fallback_still_exits_zero(self, tmp_path, capsys):
        path = radians_file(tmp_path, balanced_angles())
        code = main(["select", path, "--method", "rt"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["fallback_uniform"] is True

    def test_deterministic_under_seed(self, tmp_path, capsys):
        path = radians_file(tmp_path, vm_angles(4))
        main(["select", path, "--method", "dpi", "--seed", "3"])
        first = capsys.readouterr().out
        main(["select", path, "--method", "dpi", "--seed", "3"])
        assert capsys.readouterr().out == first


class TestDensityCommand:
    def test_density_integrates_to_one(self, tmp_path):
        path = radians_file(tmp_path, vm_angles(2))
        text = cmd_density(IngestSpec(path, AngleFormat.RADIANS), SelectorConfig(), "dpi")
        rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")][1:]
        assert len(rows) == 512
        values = np.array([float(v) for _, v in rows])
        integral = values.mean() * 2.0 * np.pi  # equispaced periodic trapezoid
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_derivative_integrates_to_zero(self, tmp_path):
        path = radians_file(tmp_path, vm_angles(2))
        text = cmd_density(
            IngestSpec(path, AngleFormat.RADIANS), SelectorConfig(r=1), "dpi", deriv_order=1
        )
        rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")][1:]
        values = np.array([float(v) for _, v in rows])
        assert values.mean() * 2.0 * np.pi == pytest.approx(0.0, abs=1e-3)

    def test_forced_uniform_constant_column(self, tmp_path):
        path = radians_file(tmp_path, vm_angles(3))
        text = cmd_density(
            IngestSpec(path, AngleFormat.RADIANS), SelectorConfig(), "dpi", grid_size=16, nu=0.0
        )
        rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")][1:]
        for _, v in rows:
            assert float(v) == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-8)

    def test_header_metadata(self, tmp_path):
        path = radians_file(tmp_path, vm_angles(2))
        text = cmd_density(
            IngestSpec(path, AngleFormat.RADIANS), SelectorConfig(), "rt", grid_size=8
        )
        assert "# method: rt" in text
        assert "# n: 200" in text
        assert any(line.startswith("# nu: ") for line in text.splitlines())

    def test_nine_significant_digits(self, tmp_path):
        path = radians_file(tmp_path, vm_angles(2))
        text = cmd_density(
            IngestSpec(path, AngleFormat.RADIANS), SelectorConfig(), "rt", grid_size=8
        )
        data_line = [ln for ln in text.splitlines() if not ln.startswith("#")][2]
        theta_str, value_str = data_line.split(",")
        assert f"{float(theta_str):.9g}" == theta_str
        assert f"{float(value_str):.9g}" == value_str

    def test_writes_file(self, tmp_path):
        path = radians_file(tmp_path, vm_angles(2))
        out = tmp_path / "dens.csv"
        cmd_density(
            IngestSpec(path, AngleFormat.RADIANS),
            SelectorConfig(),
            "rt",
            grid_size=8,
            out_path=str(out),
        )
        assert out.read_text().startswith("# circkde density estimate")

    def test_unwritable_path(self, tmp_path):
        path = radians_file(tmp_path, vm_angles(2))
        with pytest.raises(CliError) as err:
            cmd_density(
                IngestSpec(path, AngleFormat.RADIANS),
                SelectorConfig(),
                "rt",
                grid_size=8,
                out_path=str(tmp_path / "no" / "such" / "dir.csv"),
            )
        assert err.value.kind == "io"

    def test_bad_forced_nu(self, tmp_path):
        path = radians_file(tmp_path, vm_angles(2))
        with pytest.raises(CliError):
            cmd_density(IngestSpec(path, AngleFormat.RADIANS), SelectorConfig(), "dpi", nu=1.5)

    @pytest.mark.parametrize("family", ["cardioid", "wrappedcauchy"])
    def test_forced_nu_needs_no_selector_constants(self, capsys, family):
        # neither family has the asymptotic constants a selector needs, and
        # a forced nu runs no selector
        argv = ["density", CRASH_CSV, "--format", "hhmm", "--column", "time"]
        assert main(argv + ["--kernel", family, "--nu", "0.3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"# kernel: {family}" in lines
        values = np.array([float(ln.split(",")[1]) for ln in lines if ln[:1] not in ("#", "t")])
        sample = CircularSample.from_data(
            read_angles(IngestSpec(CRASH_CSV, AngleFormat.HHMM, "time"))
        )
        spec = KernelSpec.from_nu(KernelFamily(family), 0.3)
        expected = kde_values(sample, spec, default_grid(512))
        np.testing.assert_allclose(values, expected, rtol=1e-8, atol=0)

    def test_forced_nu_unknown_kernel_is_a_usage_error(self, capsys):
        argv = ["density", CRASH_CSV, "--format", "hhmm", "--column", "time"]
        assert main(argv + ["--kernel", "bogus", "--nu", "0.3"]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "usage"

    @pytest.mark.parametrize(
        "kernel",
        [
            ["--kernel", "wrappedcauchy", "--nu", "0.9999999999", "--deriv-order", "1"],
            ["--kernel", "wrappednormal", "--nu", "0.999999999999999"],
            ["--kernel", "vonmises", "--nu", "0.99999999999999", "--deriv-order", "1"],
        ],
        ids=["wrappedcauchy", "wrappednormal", "vonmises"],
    )
    def test_forced_nu_too_near_one_is_a_quick_json_error(self, capsys, kernel):
        # these series would run past 2^20 terms (a wrapped Cauchy at
        # nu = 1 - 1e-10 to about 1e12): they raise at the memory guard
        argv = ["density", CRASH_CSV, "--format", "hhmm", "--column", "time"]
        start = time.perf_counter()
        assert main(argv + kernel) == 1
        assert time.perf_counter() - start < 5.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == "ToleranceError"


class TestModesCommand:
    def test_crash_data_mode_and_antimode(self):
        report = cmd_modes(
            IngestSpec(CRASH_CSV, AngleFormat.HHMM, column="time"),
            SelectorConfig(M_max=1),
            "dpi",
        )
        assert not report.uniform
        assert len(report.modes) == 1 and len(report.antimodes) == 1
        mode_angle, mode_clock = report.modes[0]
        anti_angle, anti_clock = report.antimodes[0]
        assert abs(mode_angle - MODE_2025) < FIVE_MIN
        assert abs(anti_angle - ANTI_1329) < FIVE_MIN
        assert mode_clock is not None and anti_clock is not None

    def test_tight_cluster_mode_location(self, tmp_path):
        theta0 = 1.0
        rng = np.random.default_rng(11)
        path = radians_file(tmp_path, theta0 + rng.normal(0.0, 0.005, 100))
        report = cmd_modes(IngestSpec(path, AngleFormat.RADIANS), SelectorConfig(), "dpi")
        assert len(report.modes) == 1
        assert abs(report.modes[0][0] - theta0) < 2.0 * (2.0 * np.pi / 2880.0)

    def test_uniform_fallback_empty_report(self, tmp_path):
        path = radians_file(tmp_path, balanced_angles())
        report = cmd_modes(IngestSpec(path, AngleFormat.RADIANS), SelectorConfig(), "dpi")
        assert report.uniform
        assert report.modes == () and report.antimodes == ()

    def test_alternation_and_equal_counts(self, tmp_path):
        rng = np.random.default_rng(6)
        heavy = rng.vonmises(0.0, 8.0, 260)
        light = rng.vonmises(2.6, 8.0, 140)
        path = radians_file(tmp_path, np.concatenate([heavy, light]))
        report = cmd_modes(
            IngestSpec(path, AngleFormat.RADIANS), SelectorConfig(M_max=1), "dpi"
        )
        assert len(report.modes) == len(report.antimodes) == 2
        merged = sorted(
            [(a, "mode") for a, _ in report.modes]
            + [(a, "anti") for a, _ in report.antimodes]
        )
        labels = [kind for _, kind in merged]
        for here, after in zip(labels, labels[1:] + labels[:1]):
            assert here != after

    def test_refined_roots_zero_derivative(self):
        ing = IngestSpec(CRASH_CSV, AngleFormat.HHMM, column="time")
        report = cmd_modes(ing, SelectorConfig(M_max=1), "dpi")
        grid = report.deriv_grid
        sample = grid.sample
        spec = grid.kernel
        for angle, _ in report.modes + report.antimodes:
            val = kde_values(sample, spec, np.array([angle]), deriv_order=1)[0]
            scale = np.max(np.abs(grid.values))
            assert abs(val) < 1e-4 * scale

    def test_radians_input_has_no_clock_strings(self, tmp_path):
        path = radians_file(tmp_path, vm_angles(1, n=300, kappa=4.0))
        report = cmd_modes(IngestSpec(path, AngleFormat.RADIANS), SelectorConfig(), "dpi")
        assert report.modes and report.modes[0][1] is None

    def test_kernel_without_first_derivative_constants_is_a_usage_error(self, capsys):
        # modes smooths for r = 1, so it rejects the kernel as select does
        # with --deriv-order 1
        data = [CRASH_CSV, "--format", "hhmm", "--column", "time"]
        kernel = ["--kernel", "wrappedepanechnikov"]
        errors = []
        for argv in (["modes", *data, *kernel], ["select", *data, *kernel, "--deriv-order", "1"]):
            assert main(argv) == 2
            errors.append(json.loads(capsys.readouterr().err)["error"])
        assert errors[0] == errors[1]
        assert errors[0]["type"] == "usage"

    def test_main_emits_json(self, capsys):
        code = main(
            ["modes", CRASH_CSV, "--format", "hhmm", "--column", "time", "--method", "dpi"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["modes"][0]["clock"] == "20:26"
        assert payload["antimodes"][0]["clock"] == "13:29"


class TestSimulateCommand:
    def test_uniform_rule_of_thumb_small_ise(self):
        csv_text, md_text = cmd_simulate(["U"], ["rt"], [50], 100, seed=0)
        header, row = csv_text.strip().splitlines()
        assert header.split(",")[:2] == ["model", "rt"]
        rt_cell = row.split(",")[1]
        mean = float(rt_cell.split(" ")[0])
        assert 0.0 <= mean < 0.5

    def test_two_selectors_two_columns(self):
        csv_text, _ = cmd_simulate(["U"], ["rt", "lcv"], [30], 2, seed=1)
        header = csv_text.strip().splitlines()[0].split(",")
        assert "rt" in header and "lcv" in header

    def test_same_seed_byte_identical(self, tmp_path):
        a = cmd_simulate(["U"], ["rt"], [30], 3, seed=9, out_prefix=str(tmp_path / "a"))
        b = cmd_simulate(["U"], ["rt"], [30], 3, seed=9, out_prefix=str(tmp_path / "b"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert a == b

    def test_multiple_n_labelled_rows(self):
        csv_text, _ = cmd_simulate(["U"], ["rt"], [20, 40], 2, seed=2)
        rows = csv_text.strip().splitlines()
        assert rows[1].startswith("U (n=20),")
        assert rows[2].startswith("U (n=40),")

    def test_unknown_model(self):
        with pytest.raises(CliError):
            cmd_simulate(["NOPE"], ["rt"], [30], 2)

    def test_unknown_selector_usage_error(self, capsys):
        with pytest.raises(CliError) as info:
            cmd_simulate(["U"], ["rt", "bogus"], [20], 1)
        assert info.value.exit_code == 2
        assert info.value.payload()["error"]["type"] == "usage"
        argv = ["simulate", "--models", "U", "--selectors", "bogus", "--replicates", "1", "--n", "20"]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "usage" and "bogus" in err["message"]

    def test_gold_standard_selector_allowed(self):
        csv_text, _ = cmd_simulate(["U"], ["gs"], [20], 1, seed=4)
        assert csv_text.splitlines()[0].split(",")[:2] == ["model", "gs"]

    def test_writes_csv_and_markdown(self, tmp_path):
        cmd_simulate(["U"], ["rt"], [30], 2, seed=3, out_prefix=str(tmp_path / "sim"))
        assert (tmp_path / "sim.csv").exists()
        md = (tmp_path / "sim.md").read_text()
        assert md.startswith("| model |")


class TestExitCodes:
    def test_parse_error_exit_two(self, tmp_path, capsys):
        path = write_lines(tmp_path / "bad.txt", ["0.1", "oops"])
        code = main(["select", str(path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "parse"
        assert err["error"]["line"] == 2

    def test_undecodable_input_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"\xff\xfe")
        code = main(["select", str(path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "parse"
        assert "UTF-8" in err["message"]

    def test_missing_file_nonzero(self, capsys):
        code = main(["select", "/definitely/missing.txt"])
        assert code != 0
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "io"

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["select", "{path}", "--method", "bogus"], "invalid choice"),
            (["select", "{path}", "--no-such-flag"], "unrecognized arguments"),
            (["select"], "required"),
            (["density", "{path}", "--grid-size", "many"], "invalid int value"),
            ([], "required"),
            # flags registered only where they are read: modes always smooths
            # for the first derivative, simulate runs --selectors
            (["modes", "{path}", "--deriv-order", "3"], "unrecognized arguments: --deriv-order 3"),
            (["simulate", "--method", "lcv"], "unrecognized arguments: --method lcv"),
            # counts out of range are usage errors like malformed ones
            (["density", "{path}", "--grid-size", "1"], "--grid-size: must be at least 2"),
            (["density", "{path}", "--grid-size", "0"], "--grid-size: must be at least 2"),
            (["density", "{path}", "--nu", "0.5", "--deriv-order", "-1"], "--deriv-order: must be"),
            (["select", "{path}", "--deriv-order", "-1"], "--deriv-order: must be at least 0"),
            (["simulate", "--replicates", "0"], "--replicates: must be at least 1"),
            (["simulate", "--n", "abc"], "--n: invalid int value: 'abc'"),
            (["simulate", "--n", "0"], "--n: must be at least 1"),
            (["simulate", "--n", "20,0"], "--n: must be at least 1"),
        ],
    )
    def test_usage_errors_are_json(self, tmp_path, capsys, argv, needle):
        path = radians_file(tmp_path, vm_angles(0, n=20))
        with pytest.raises(SystemExit) as info:
            main([a.format(path=path) for a in argv])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "usage"
        assert needle in err["message"]

    @pytest.mark.parametrize("command", ["select", "simulate"])
    def test_negative_seed_is_a_usage_error(self, capsys, command):
        inputs = [CRASH_CSV, "--format", "hhmm", "--column", "time"] if command == "select" else []
        assert main([command, *inputs, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "usage"
        assert "seed" in err["message"]

    def test_derivative_order_past_the_float_range_is_a_usage_error(self, tmp_path, capsys):
        # the kernel's constants at r = 86 need (2r)!, past the float range
        path = radians_file(tmp_path, vm_angles(0, n=20))
        assert main(["select", str(path), "--deriv-order", "86"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "usage"
        assert "float range" in err["message"]

    def test_overflowing_functional_falls_back_without_a_warning(self, capsys):
        # at r = 85 the reference fit's harmonic series j^178 (a_j^2 + b_j^2)
        # passes the float range: DPI falls back instead of summing inf terms
        argv = ["select", CRASH_CSV, "--format", "hhmm", "--column", "time"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--deriv-order", "85"]) == 0
        sel = json.loads(capsys.readouterr().out)
        assert sel["fallback_uniform"]
        assert sel["trace"][-1]["label"] == "fallback:cascade-error"

    def test_console_script_runs(self, tmp_path):
        path = radians_file(tmp_path, vm_angles(0, n=50))
        proc = subprocess.run(
            [sys.executable, "-m", "circkde.cli", "select", str(path), "--method", "rt"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["method"] == "rt"


class TestSelectorTable:
    """The CLI, the Monte-Carlo harness and the selector module share one
    table of selector names."""

    @staticmethod
    def method_choices(command):
        parser = _build_parser()
        sub = next(a for a in parser._actions if a.dest == "command").choices[command]
        return set(next(a for a in sub._actions if a.dest == "method").choices)

    @pytest.mark.parametrize("command", ["select", "density", "modes"])
    def test_method_choices_are_the_table(self, command):
        assert self.method_choices(command) == set(SELECTORS)
        assert set(SELECTORS) == {m.value for m in SelectorMethod} - {"gs"}

    def test_simulate_uses_the_same_table(self):
        assert simulate._SELECTOR_FNS is SELECTORS

    def test_unknown_method_usage_error(self, tmp_path, capsys):
        path = radians_file(tmp_path, vm_angles(0))
        ingest = IngestSpec(path, AngleFormat.RADIANS)
        for run in (
            lambda: cmd_select(ingest, SelectorConfig(), "bogus"),
            lambda: cmd_density(ingest, SelectorConfig(), "bogus"),
            lambda: cmd_modes(ingest, SelectorConfig(), "bogus"),
        ):
            with pytest.raises(CliError) as info:
                run()
            assert info.value.exit_code == 2
            assert info.value.payload()["error"]["type"] == "usage"
        # argparse turns the name away before any command runs
        with pytest.raises(SystemExit) as info:
            main(["select", path, "--method", "bogus"])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestModeRefinement:
    """Each reported crossing is a root of the derivative estimate to within
    the solver's 1e-6 rad: the derivative is positive just before a mode
    and negative just after it, and the reverse at an antimode."""

    @staticmethod
    def assert_sign_flips(report):
        grid = report.deriv_grid
        assert report.modes and report.antimodes
        for crossings, before_sign in ((report.modes, 1.0), (report.antimodes, -1.0)):
            for angle, _ in crossings:
                around = np.array([angle - 1e-6, angle + 1e-6])
                before, after = kde_values(grid.sample, grid.kernel, around, deriv_order=1)
                assert np.sign(before) == before_sign and np.sign(after) == -before_sign

    @pytest.mark.parametrize("method", ["dpi", "ste", "lcv"])
    def test_crash_data(self, method):
        ingest = IngestSpec(CRASH_CSV, AngleFormat.HHMM, column="time")
        self.assert_sign_flips(cmd_modes(ingest, SelectorConfig(), method))

    def test_two_mode_sample(self, tmp_path):
        rng = np.random.default_rng(6)
        angles = np.concatenate([rng.vonmises(0.0, 8.0, 260), rng.vonmises(2.6, 8.0, 140)])
        path = radians_file(tmp_path, angles)
        report = cmd_modes(IngestSpec(path, AngleFormat.RADIANS), SelectorConfig(M_max=1), "dpi")
        self.assert_sign_flips(report)


class TestMainErrorHandling:
    """main reports numeric failures as the JSON error object with exit 1;
    any other exception is a bug and propagates."""

    @staticmethod
    def _raising(monkeypatch, exc):
        def broken(sample, cfg):
            raise exc

        monkeypatch.setitem(SELECTORS, "rt", broken)

    @pytest.mark.parametrize(
        "exc",
        [
            ValueError("bad value"),
            BracketingError("no sign change"),
            FloatingPointError("overflow"),
            ZeroDivisionError("division by zero"),
            ToleranceError("no convergence"),
            FitError("all restarts degenerated"),
        ],
        ids=lambda e: type(e).__name__,
    )
    def test_numeric_failures_are_json_exit_one(self, tmp_path, capsys, monkeypatch, exc):
        self._raising(monkeypatch, exc)
        path = radians_file(tmp_path, vm_angles(0, n=30))
        assert main(["select", path, "--method", "rt"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        expected = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        assert json.loads(captured.err) == expected

    @pytest.mark.parametrize(
        "exc",
        [TypeError("bug"), KeyError("bug"), AttributeError("bug"), RuntimeError("bug")],
        ids=lambda e: type(e).__name__,
    )
    def test_other_exceptions_propagate(self, tmp_path, capsys, monkeypatch, exc):
        self._raising(monkeypatch, exc)
        path = radians_file(tmp_path, vm_angles(0, n=30))
        with pytest.raises(type(exc)):
            main(["select", path, "--method", "rt"])
        assert capsys.readouterr().err == ""


class TestSmallInputs:
    """The CLI at one and two observations and on identical angles."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["select", "--method", "rt"],
            ["select", "--method", "lcv"],
            ["density", "--method", "dpi"],
            ["modes", "--method", "ste"],
        ],
    )
    def test_one_observation_is_an_input_error(self, tmp_path, capsys, argv):
        path = radians_file(tmp_path, [0.3])
        assert main([argv[0], path, *argv[1:]]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "input", "message": "need at least 2 observations, got 1"}

    @pytest.mark.parametrize("method", ["rt", "dpi", "ste", "lcv"])
    @pytest.mark.parametrize(
        "angles",
        [[0.3, 1.1], [0.3, 0.3], [0.3] * 10],
        ids=["two", "two-identical", "ten-identical"],
    )
    def test_select_prints_the_selector_result(self, tmp_path, capsys, method, angles):
        path = radians_file(tmp_path, angles)
        assert main(["select", path, "--method", method]) == 0
        expected = SELECTORS[method](CircularSample.from_data(angles), SelectorConfig())
        assert capsys.readouterr().out == expected.to_json() + "\n"

    @pytest.mark.parametrize(
        "method, reason",
        [("rt", "reference-fit"), ("dpi", "cascade-error"), ("ste", "numeric-error")],
    )
    def test_identical_angles_fall_back(self, tmp_path, capsys, method, reason):
        path = radians_file(tmp_path, [0.3] * 10)
        assert main(["select", path, "--method", method]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["fallback_uniform"] and out["nu"] == 0.0 and out["kappa_or_lambda"] is None
        assert out["trace"][-1]["label"] == f"fallback:{reason}"
        assert main(["modes", path, "--method", method]) == 0
        empty = {"modes": [], "antimodes": [], "uniform": True}
        assert json.loads(capsys.readouterr().out) == empty
        assert main(["density", path, "--method", method, "--grid-size", "8"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
        assert rows[1:] == [f"{t:.9g},{1.0 / (2.0 * np.pi):.9g}" for t in default_grid(8)]

    def test_uniform_pick_reports_its_flat_derivative(self, tmp_path):
        path = radians_file(tmp_path, [0.3] * 10)
        report = cmd_modes(IngestSpec(path), SelectorConfig(), "rt")
        assert report.uniform and report.modes == () and report.antimodes == ()
        assert report.deriv_grid.kernel == KernelSpec.from_nu(KernelFamily.VONMISES, 0.0)
        assert report.deriv_grid.deriv_order == 1
        assert np.all(report.deriv_grid.values == 0.0)

    def test_identical_angles_lcv_takes_the_narrowest_kernel(self, tmp_path, capsys):
        path = radians_file(tmp_path, [0.3] * 10)
        assert main(["select", path, "--method", "lcv"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert not out["fallback_uniform"]
        assert out["nu"] == pytest.approx(0.999949998749875, rel=1e-9)
        assert main(["modes", path, "--method", "lcv"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [m["angle"] for m in report["modes"]] == [pytest.approx(0.3, abs=1e-6)]
        assert len(report["antimodes"]) == 1
