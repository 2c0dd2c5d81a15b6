"""Tests for the Monte-Carlo benchmarking harness."""

import csv
import io
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0

from circkde.estimators import CircularSample, ise, kde
from circkde.kernels import KernelFamily, KernelSpec
from circkde import simulate
from circkde.selectors import SelectorConfig, default_gold_grid, select_gold, select_rt
from circkde.simulate import (
    ModelSpec,
    SimResult,
    builtin_models,
    emit_table,
    realized_ise,
    run_monte_carlo,
)

VM = KernelFamily.VONMISES
WE = KernelFamily.WRAPPEDEPANECHNIKOV


def model_by_name(name):
    return next(m for m in builtin_models() if m.name == name)


def _frozen_vm_mixture(weights, mus, kappas):
    """The zoo's former closure density and sampler, with their own np.i0
    normalisers: the reference for the zoo built from MixtureModel."""
    weights = np.asarray(weights, dtype=float)
    mus = np.asarray(mus, dtype=float)
    kappas = np.asarray(kappas, dtype=float)
    norms = 2.0 * np.pi * np.i0(kappas)

    def density(theta):
        th = np.asarray(theta, dtype=float)
        acc = np.zeros(th.shape)
        for w, mu, kap, z in zip(weights, mus, kappas, norms):
            acc += w * np.exp(kap * np.cos(th - mu)) / z
        return acc

    def sampler(rng, n):
        comp = rng.choice(len(weights), size=n, p=weights)
        out = np.empty(n)
        for m in range(len(weights)):
            mask = comp == m
            k = int(mask.sum())
            if k:
                out[mask] = rng.vonmises(mus[m], kappas[m], k)
        return CircularSample.from_data(out)

    return density, sampler


def _frozen_uniform():
    def density(theta):
        return np.full(np.shape(theta), 1.0 / (2.0 * np.pi))

    def sampler(rng, n):
        return CircularSample.from_data(rng.uniform(-np.pi, np.pi, n))

    return density, sampler


_TWO_THIRDS = 2.0 * np.pi / 3.0
FROZEN_ZOO = {
    "U": _frozen_uniform(),
    "VM2": _frozen_vm_mixture([1.0], [0.0], [2.0]),
    "VM-MIX2": _frozen_vm_mixture([0.5, 0.5], [0.0, np.pi], [8.0, 8.0]),
    "VM-MIX3": _frozen_vm_mixture(
        [1 / 3, 1 / 3, 1 / 3], [0.0, _TWO_THIRDS, -_TWO_THIRDS], [10.0, 10.0, 10.0]
    ),
    "SKEW": _frozen_vm_mixture([0.75, 0.25], [0.0, 1.5], [1.0, 6.0]),
}


class TestZooUnchanged:
    @pytest.mark.parametrize("name", list(FROZEN_ZOO))
    def test_samplers_draw_identical_angles(self, name):
        model = model_by_name(name)
        _, frozen = FROZEN_ZOO[name]
        for seed in range(3):
            for n in (1, 100, 2000):
                got = model.sampler(np.random.default_rng(seed), n)
                expect = frozen(np.random.default_rng(seed), n)
                assert np.array_equal(got.angles, expect.angles), (seed, n)

    @pytest.mark.parametrize("name", list(FROZEN_ZOO))
    def test_densities_agree(self, name):
        frozen, _ = FROZEN_ZOO[name]
        t = np.linspace(-np.pi, np.pi, 257)
        np.testing.assert_allclose(model_by_name(name).density(t), frozen(t), rtol=1e-14, atol=0)


class TestBuiltinModels:
    def test_names(self):
        assert [m.name for m in builtin_models()] == [
            "U",
            "VM2",
            "VM-MIX2",
            "VM-MIX3",
            "SKEW",
        ]

    def test_uniform_density_is_constant(self):
        m = model_by_name("U")
        t = np.linspace(-np.pi, np.pi, 17)
        assert np.allclose(m.density(t), 1.0 / (2 * np.pi), rtol=0, atol=0)

    def test_densities_integrate_to_one(self):
        for m in builtin_models():
            total, err = quad(lambda t: float(m.density(t)), -np.pi, np.pi, limit=200)
            assert total == pytest.approx(1.0, abs=1e-8), m.name

    def test_vm2_matches_closed_form(self):
        m = model_by_name("VM2")
        t = np.linspace(-np.pi, np.pi, 9)
        expect = np.exp(2.0 * np.cos(t)) / (2 * np.pi * i0(2.0))
        assert np.allclose(m.density(t), expect, rtol=1e-14)

    def test_mix2_antipodal_symmetry(self):
        m = model_by_name("VM-MIX2")
        t = np.linspace(-np.pi, np.pi, 101)
        assert np.allclose(m.density(t), m.density(t - np.pi), atol=1e-12)

    def test_mix3_threefold_symmetry(self):
        m = model_by_name("VM-MIX3")
        t = np.linspace(-np.pi, np.pi, 101)
        shifted = np.angle(np.exp(1j * (t + 2 * np.pi / 3)))
        assert np.allclose(m.density(t), m.density(shifted), atol=1e-12)

    def test_skew_density_is_asymmetric(self):
        m = model_by_name("SKEW")
        t = np.linspace(0.1, 3.0, 40)
        assert np.max(np.abs(m.density(t) - m.density(-t))) > 1e-3

    def test_samplers_deterministic_and_in_range(self):
        for m in builtin_models():
            a = m.sampler(np.random.default_rng(7), 100)
            b = m.sampler(np.random.default_rng(7), 100)
            assert isinstance(a, CircularSample)
            assert np.array_equal(a.angles, b.angles)
            assert np.all(a.angles >= -np.pi) and np.all(a.angles < np.pi)

    def test_sampler_matches_density_histogram(self):
        # crude goodness check: bin frequencies track the density
        m = model_by_name("VM-MIX2")
        s = m.sampler(np.random.default_rng(0), 20000)
        hist, edges = np.histogram(s.angles, bins=24, range=(-np.pi, np.pi))
        centers = 0.5 * (edges[:-1] + edges[1:])
        expect = m.density(centers) * (2 * np.pi / 24) * 20000
        assert np.max(np.abs(hist - expect) / np.sqrt(np.maximum(expect, 1))) < 5.0


class TestRealizedIse:
    def test_matches_quadrature_ise(self):
        m = model_by_name("VM2")
        s = m.sampler(np.random.default_rng(3), 80)
        spec = KernelSpec.vonmises(kappa=5.0)
        fast = realized_ise(s, VM, spec.nu, m.density)
        slow = ise(kde(s, spec), m.density)
        assert fast == pytest.approx(slow, rel=1e-6)

    def test_uniform_estimate_against_uniform_truth_is_zero(self):
        m = model_by_name("U")
        s = m.sampler(np.random.default_rng(0), 50)
        assert realized_ise(s, VM, 0.0, m.density) == 0.0

    def test_nonnegative(self):
        m = model_by_name("SKEW")
        s = m.sampler(np.random.default_rng(1), 60)
        for nu in (0.0, 0.4, 0.9):
            assert realized_ise(s, VM, nu, m.density) >= 0.0


class TestRunMonteCarlo:
    def test_result_shape_and_gold_always_present(self):
        m = model_by_name("VM2")
        results = run_monte_carlo(m, ["rt", "dpi"], n=50, replicates=3, seed=1)
        assert [r.selector for r in results] == ["rt", "dpi", "gs"]
        for r in results:
            assert r.model == "VM2"
            assert r.n == 50
            assert r.replicates == 3
            assert r.seed == 1
            assert r.mean_ise >= 0.0
            assert r.mc_stderr == pytest.approx(r.sd_ise / math.sqrt(3), rel=1e-12)
            assert r.error_count == 0

    def test_matches_manual_replicate_loop(self):
        m = model_by_name("VM2")
        cfg = SelectorConfig()
        results = run_monte_carlo(m, ["rt"], n=60, replicates=3, seed=9)
        rt = next(r for r in results if r.selector == "rt")
        gs = next(r for r in results if r.selector == "gs")

        vals_rt, vals_gs = [], []
        for rep in range(3):
            rng = np.random.default_rng(np.random.SeedSequence([9, rep]))
            s = m.sampler(rng, 60)
            vals_rt.append(realized_ise(s, VM, select_rt(s, cfg).nu, m.density))
            vals_gs.append(
                realized_ise(s, VM, select_gold(s, m.density, cfg).nu, m.density)
            )
        assert rt.mean_ise == float(np.mean(vals_rt))
        assert rt.sd_ise == float(np.std(vals_rt, ddof=1))
        assert gs.mean_ise == float(np.mean(vals_gs))

    def test_reproducible_to_twelve_digits(self):
        m = model_by_name("SKEW")
        a = run_monte_carlo(m, ["dpi"], n=40, replicates=4, seed=5)
        b = run_monte_carlo(m, ["dpi"], n=40, replicates=4, seed=5)
        assert a == b
        for ra, rb in zip(a, b):
            assert f"{ra.mean_ise:.12g}" == f"{rb.mean_ise:.12g}"
            assert f"{ra.sd_ise:.12g}" == f"{rb.sd_ise:.12g}"

    def test_gold_standard_leads_within_stderr(self):
        m = model_by_name("VM2")
        results = run_monte_carlo(m, ["rt", "dpi"], n=50, replicates=10, seed=0)
        gs = next(r for r in results if r.selector == "gs")
        for r in results:
            if r.selector != "gs":
                assert gs.mean_ise <= r.mean_ise + r.mc_stderr

    def test_uniform_model_rt_small_ise(self):
        m = model_by_name("U")
        results = run_monte_carlo(m, ["rt"], n=50, replicates=100, seed=0)
        rt = next(r for r in results if r.selector == "rt")
        assert 100.0 * rt.mean_ise < 0.5

    def test_uniform_model_counts_fallbacks(self):
        m = model_by_name("U")
        results = run_monte_carlo(m, ["dpi"], n=100, replicates=20, seed=0)
        dpi = next(r for r in results if r.selector == "dpi")
        assert 1 <= dpi.fallback_count <= 20

    def test_custom_gold_grid(self):
        m = model_by_name("VM2")
        cfg = SelectorConfig()
        results = run_monte_carlo(
            m, [], n=40, replicates=2, seed=3, nu_grid=[0.55]
        )
        gs = results[0]
        vals = []
        for rep in range(2):
            rng = np.random.default_rng(np.random.SeedSequence([3, rep]))
            s = m.sampler(rng, 40)
            vals.append(realized_ise(s, VM, 0.55, m.density))
        assert gs.selector == "gs"
        assert gs.mean_ise == float(np.mean(vals))

    def test_wrapped_epanechnikov_gold_is_brute_force_argmin(self):
        # the kernel's coefficient series never converges; the oracle must
        # score its candidates by direct grid sums instead of failing
        m = model_by_name("VM2")
        cfg = SelectorConfig(kernel_family=WE)
        grid = default_gold_grid(WE)[::8]
        results = run_monte_carlo(m, ["rt"], n=40, replicates=1, seed=2, nu_grid=grid, cfg=cfg)
        gs = next(r for r in results if r.selector == "gs")
        assert [r.error_count for r in results] == [0, 0]
        rng = np.random.default_rng(np.random.SeedSequence([2, 0]))
        s = m.sampler(rng, 40)
        brute = [realized_ise(s, WE, float(nu), m.density) for nu in grid]
        assert gs.mean_ise == min(brute)
        sel = select_gold(s, m.density, cfg, grid=grid)
        assert sel.nu == pytest.approx(grid[int(np.argmin(brute))], rel=1e-12)

    def test_wrapped_epanechnikov_default_gold_grid(self):
        m = model_by_name("VM2")
        s = m.sampler(np.random.default_rng(4), 30)
        sel = select_gold(s, m.density, SelectorConfig(kernel_family=WE))
        grid = default_gold_grid(WE)
        brute = [realized_ise(s, WE, float(nu), m.density) for nu in grid]
        assert sel.nu == pytest.approx(grid[int(np.argmin(brute))], rel=1e-12)
        assert sel.trace[0].psi == min(brute)

    def test_density_errors_propagate(self):
        m = model_by_name("VM2")

        def broken(theta):
            raise RuntimeError("density bug")

        model = ModelSpec(name="BROKEN", density=broken, sampler=m.sampler)
        with pytest.raises(RuntimeError):
            run_monte_carlo(model, ["rt"], n=30, replicates=1)

    def test_selector_bugs_propagate_numeric_errors_counted(self, monkeypatch):
        m = model_by_name("VM2")

        def buggy(sample, cfg):
            raise TypeError("selector bug")

        def degenerate(sample, cfg):
            raise ValueError("bad numbers")

        monkeypatch.setitem(simulate._SELECTOR_FNS, "rt", buggy)
        with pytest.raises(TypeError):
            run_monte_carlo(m, ["rt"], n=30, replicates=1)
        monkeypatch.setitem(simulate._SELECTOR_FNS, "rt", degenerate)
        results = run_monte_carlo(m, ["rt"], n=30, replicates=2)
        rt = next(r for r in results if r.selector == "rt")
        assert rt.error_count == 2 and math.isnan(rt.mean_ise)

    def test_single_replicate_has_zero_sd(self):
        m = model_by_name("VM2")
        results = run_monte_carlo(m, ["rt"], n=30, replicates=1, seed=0)
        for r in results:
            assert r.sd_ise == 0.0
            assert r.mc_stderr == 0.0

    def test_rejects_bad_input(self):
        m = model_by_name("U")
        with pytest.raises(ValueError):
            run_monte_carlo(m, ["nope"], n=30, replicates=2)
        with pytest.raises(ValueError):
            run_monte_carlo(m, ["rt"], n=30, replicates=0)


def fake_result(model, selector, mean, sd=0.0, reps=10):
    return SimResult(
        model=model,
        selector=selector,
        n=50,
        replicates=reps,
        mean_ise=mean,
        sd_ise=sd,
        mc_stderr=sd / math.sqrt(reps),
        seed=0,
    )


class TestEmitTable:
    def test_markdown_structure_and_bold_minimum(self):
        results = [
            fake_result("A", "rt", 0.002, 0.001),
            fake_result("A", "dpi", 0.001, 0.0005),
            fake_result("B", "rt", 0.00064, 0.00176),
            fake_result("B", "dpi", 0.004, 0.002),
        ]
        text = emit_table(results, "markdown")
        lines = text.strip().split("\n")
        assert lines[0] == "| model | rt | dpi |"
        assert lines[2] == "| A | 0.200 (0.100) | **0.100 (0.050)** |"
        assert lines[3] == "| B | **0.064 (0.176)** | 0.400 (0.200) |"

    @pytest.mark.parametrize("order", [1, -1])
    def test_markdown_bolds_the_best_finite_mean(self, order):
        # a selector that errored on every replicate has a NaN mean
        results = [fake_result("A", "rt", math.nan), fake_result("A", "gs", 0.001)][::order]
        row = emit_table(results, "markdown").strip().split("\n")[2]
        assert "**0.100 (0.000)**" in row
        assert row.count("**") == 2

    def test_single_result_single_cell(self):
        text = emit_table([fake_result("U", "rt", 0.00123, 0.0004)], "markdown")
        assert "**0.123 (0.040)**" in text
        assert text.count("|") == 9  # header, separator, one data row

    def test_missing_cells_left_blank(self):
        results = [fake_result("A", "rt", 0.001), fake_result("B", "dpi", 0.002)]
        text = emit_table(results, "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["model", "rt", "dpi"]
        assert rows[1] == ["A", "0.100 (0.000)", ""]
        assert rows[2] == ["B", "", "0.200 (0.000)"]

    def test_csv_round_trips(self):
        m = model_by_name("VM2")
        results = run_monte_carlo(m, ["rt"], n=30, replicates=2, seed=0)
        text = emit_table(results, "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["model", "rt", "gs"]
        assert len(rows) == 2
        assert all(len(r) == 3 for r in rows)

    def test_json_preserves_numbers(self):
        results = [fake_result("A", "rt", 0.00123456789, 0.0004)]
        data = json.loads(emit_table(results, "json"))
        assert data[0]["mean_ise"] == 0.00123456789
        assert data[0]["selector"] == "rt"
        assert set(data[0]) == {
            "model",
            "selector",
            "n",
            "replicates",
            "mean_ise",
            "sd_ise",
            "mc_stderr",
            "seed",
            "fallback_count",
            "error_count",
        }

    def test_rejects_empty_and_unknown_format(self):
        with pytest.raises(ValueError):
            emit_table([], "markdown")
        with pytest.raises(ValueError):
            emit_table([fake_result("A", "rt", 0.001)], "html")
