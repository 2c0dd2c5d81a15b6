"""Time every layer of circkde on two source trees and compare their
outputs; write BENCH_layers.json (or the ``--out`` path).

    python3 scripts/bench_layers.py --before OLD/src --after src [--out FILE]

Every measurement runs in a fresh interpreter that imports circkde from
one tree, with BLAS pinned to one thread.  The trees alternate for ROUNDS
rounds, and the tree that goes first alternates from round to round.  In
each round each tree times these rows, REPEATS[n] calls each:

* ``special``: ``bessel_ratios`` over the first span of the ratio table
  and ``bessel_ratio(kappa, 1)`` at each kappa in KAPPAS, and
  ``inv_bessel_ratio`` at 64 nu from 0.01 to 1 - 1e-9;
* ``kernels``: ``derivative_weights`` of a von Mises pilot kernel at each
  kappa in KAPPAS, for the pilot orders 4, 6 and 8;
* ``moments``: ``trig_moments`` of 16, 30 and 960 orders in turn;
* ``mixture``: ``select_aic`` at ``M_max`` 1, and at ``M_max`` 3 with
  MIXTURE_REPEATS calls (its EM takes 0.3 to 2.5 s a call);
* ``estimators``: ``kde`` and ``kde_deriv`` (r = 1) on the 512-point grid
  at the sample's DPI concentration, and select_lcv's 64-row
  leave-one-out table (``estimators._kde_rows``);
* ``selectors``: rt, dpi, ste, lcv and gs;
* ``simulate``: one ``mc-zoo`` replicate (``run_monte_carlo`` with rt,
  dpi, ste and lcv, gs added, ``replicates=1``, the five zoo models in
  turn);
* with the wrapped Epanechnikov, one n = 100 VM2 replicate and
  ``select_lcv`` on an n = 1000 VM-MIX2 sample, WE_REPEATS calls each;
* ``cli``: fresh interpreters timed from spawn to exit: ``python -c
  pass``, the numpy, scipy.special, circkde and circkde.cli imports, the
  four ``cli-crash`` commands on the tree's bundled crash data, and
  ``select --method dpi`` on a von Mises(0, 2) sample of each size.

The moment, mixture, estimator, selector and replicate rows run at each n
in SIZES, on one VM-MIX2 sample per n (``SeedSequence([20221, n])``), on
which no selector falls back to the uniform density.  Every row also
counts the exact ``psi_hat`` calls and the minor page faults of each call.
Before each timed call the per-sample caches are cleared
(``kernels._series_weights`` and ``special._ratio_prefix``), and the call
gets a fresh ``CircularSample``, so it builds its own moments, fits and
sorted view.  The per-family tables (``selectors._lcv_table``,
``_gold_table`` and ``default_gold_grid``, ``estimators._es_transform``)
are built once per interpreter, by one untimed call of every row before
the timed ones.

Once per tree, rt, dpi, ste, lcv and gs run on the pool samples of the
benchmark (``bench/workloads.py``): every ``mc-zoo`` pool sample (n = 100,
drawn as ``run_monte_carlo`` draws them), a ``we`` pool of the first
WE_POOL of those selected with the wrapped Epanechnikov, and rt, dpi and
ste, then ``kde`` and ``kde_deriv`` at the DPI concentration, on every
``large-n`` pool sample.

The report's ``layers`` give per row and case, for each tree, the median
ms, the median minor faults and the mean ``psi_hat`` calls per call, and
the worst relative deviation between the trees of the row's output in the
first round.  ``pools`` give per pool the selections whose ``to_json``
differs, the worst relative deviation of each selector's nu, of its
realized ISE and of the ``large-n`` grids, and the mean ``psi_hat`` calls
per ``select_ste``.  A deviation is the largest difference of two outputs
relative to their largest magnitude, over at most MAX_OUTPUT evenly
strided entries; outputs of different lengths deviate by infinity.
"""

import argparse
import importlib.util
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_layers.json"


def _load_workloads():
    # by path, so that importing this script leaves sys.path alone
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()

SIZES = (100, 1000, 10000, 100000)
KAPPAS = (10.0, 1e3, 1e5, 1e7)
ROUNDS = 10
# timed calls per row and round, by n; the rows without an n take REPEATS[100]
REPEATS = {100: 40, 1000: 20, 10000: 8, 100000: 3}
WE_REPEATS = 3
MIXTURE_REPEATS = 2
WE_POOL = 200
PLAN = {
    "sizes": SIZES,
    "rounds": ROUNDS,
    "repeats": REPEATS,
    "we_repeats": WE_REPEATS,
    "mixture_repeats": MIXTURE_REPEATS,
    "pools": {
        "mc-zoo": workloads.MC_POOL * len(workloads.MC_MODELS),
        "we": WE_POOL,
        "large-n": workloads.LARGE_POOL,
    },
}
SELECTORS = ("rt", "dpi", "ste", "lcv")
MAX_OUTPUT = 4096
CACHES = {
    "cleared_before_each_timed_call": ["kernels._series_weights", "special._ratio_prefix"],
    "fresh_in_each_timed_call": "the CircularSample, so its moments, fits and sorted view",
    "built_once_per_interpreter_before_timing": [
        "selectors._lcv_table",
        "selectors._gold_table",
        "selectors.default_gold_grid",
        "estimators._es_transform",
    ],
    "how": "one untimed call of every row before the timed calls",
    "cli": "every call is a fresh interpreter",
    "pools": "not timed; caches stay warm",
}


def _counted_psi_hat(sel):
    """Count the exact psi_hat calls the selectors make; returns the counter."""
    calls = [0]
    psi_hat = sel.psi_hat

    def counted(*args, **kwargs):
        calls[0] += 1
        return psi_hat(*args, **kwargs)

    sel.psi_hat = counted
    return calls


def _strided(values):
    flat = np.ravel(np.asarray(values, dtype=float))
    return flat[:: max(1, math.ceil(flat.size / MAX_OUTPUT))].tolist()


def _rows(plan):
    """(row, case, calls, fn) of every row timed in-process on the circkde
    this interpreter imports; fn(k) runs call k and returns its output."""
    # circkde is imported only in the benchmark interpreters, each from its tree
    import circkde.estimators as est
    import circkde.kernels as kern
    import circkde.mixture as mix
    import circkde.selectors as sel
    import circkde.simulate as sim
    import circkde.special as spe

    repeats = {int(n): count for n, count in plan["repeats"].items()}
    cfg = sel.SelectorConfig()
    we = sel.SelectorConfig(kernel_family="wrappedepanechnikov")
    models = {m.name: m for m in sim.builtin_models()}
    lcv_specs, lcv_weights = sel._lcv_table(cfg.kernel_family, cfg.exact_inversion)[1:3]
    truth = est.truth_on_ise_grid(models["VM-MIX2"].density)

    def angles(model, n):
        rng = np.random.default_rng(np.random.SeedSequence([20221, n]))
        return models[model].sampler(rng, n).angles

    def picked(s):
        return [s.nu, s.h]

    def replicate(model, n, seed, c=cfg):
        results = sim.run_monte_carlo(models[model], SELECTORS, n=n, replicates=1, seed=seed, cfg=c)
        return [[r.mean_ise, r.fallback_count, r.error_count] for r in results]

    def per_kappa(kappa):
        span = spe.bessel_ratio_span(kappa)
        pilot = kern.KernelSpec.vonmises(kappa=kappa)
        case, calls = f"kappa={kappa:g}", repeats[100]
        return [
            ("special.bessel_ratios", case, calls, lambda k: spe.bessel_ratios(kappa, span).ratios),
            ("special.bessel_ratio", case, calls, lambda k: [spe.bessel_ratio(kappa, 1)]),
            (
                "kernels.derivative_weights",
                case,
                calls,
                lambda k: np.concatenate([kern.derivative_weights(pilot, s) for s in (4, 6, 8)]),
            ),
        ]

    def per_n(n):
        data = angles("VM-MIX2", n)

        def fresh():
            return est.CircularSample(data)

        spec = kern.KernelSpec.from_nu(cfg.kernel_family, sel.select_dpi(fresh(), cfg).nu)

        def chain():
            sample = fresh()
            for order in (16, 30, 960):
                moments = sample.trig_moments(order)
            return moments

        def lcv_table():
            sample = fresh()
            return est._kde_rows(sample, lcv_specs, sample.angles, lcv_weights)

        def aic(m_max):
            report = mix.select_aic(fresh(), m_max)
            model = report.model
            return [*model.mus, *np.ravel(model.kappa), *model.weights, report.loglik]

        case, calls = f"n={n}", repeats[n]
        rows = [
            ("moments.chain_16_30_960", case, calls, lambda k: chain()),
            ("mixture.select_aic", f"{case} M_max=1", calls, lambda k: aic(1)),
            ("mixture.select_aic", f"{case} M_max=3", plan["mixture_repeats"], lambda k: aic(3)),
            ("estimators.kde", case, calls, lambda k: est.kde(fresh(), spec).values),
            ("estimators.kde_deriv", case, calls, lambda k: est.kde_deriv(fresh(), spec, 1).values),
            ("estimators.lcv_table", case, calls, lambda k: lcv_table()),
        ]
        def select(fn):
            return lambda k: picked(fn(fresh(), cfg))

        for m in SELECTORS:
            rows.append((f"selectors.select_{m}", case, calls, select(sel.SELECTORS[m])))
        gold = select(lambda sample, c: sel.select_gold(sample, truth, c))
        rows.append(("selectors.select_gold", case, calls, gold))
        mc = workloads.MC_MODELS
        rows.append(("simulate.replicate", case, calls, lambda k: replicate(mc[k % len(mc)], n, k)))
        return rows

    nus = 1.0 - np.geomspace(1e-9, 0.99, 64)

    def inverses(k):
        return [spe.inv_bessel_ratio(nu) for nu in nus]

    rows = [("special.inv_bessel_ratio", "64 nu", repeats[100], inverses)]
    for kappa in KAPPAS:
        rows += per_kappa(kappa)
    for n in plan["sizes"]:
        rows += per_n(n)
    we_data = angles("VM-MIX2", 1000)
    calls = plan["we_repeats"]
    return rows + [
        ("simulate.replicate_we", "VM2 n=100", calls, lambda k: replicate("VM2", 100, k, we)),
        (
            "selectors.select_lcv_we",
            "VM-MIX2 n=1000",
            calls,
            lambda k: picked(sel.select_lcv(est.CircularSample(we_data), we)),
        ),
    ]


def time_layers(plan):
    """Time every in-process row: for each row and case the seconds, minor
    faults and psi_hat calls of every timed call, and the output of the
    first."""
    import circkde.kernels as kern
    import circkde.selectors as sel
    import circkde.special as spe

    rows = _rows(plan)
    psi_hat_calls = _counted_psi_hat(sel)
    for _, _, _, fn in rows:
        fn(0)  # builds the per-family tables and transforms
    out = {}
    for name, case, calls, fn in rows:
        cell = {"s": [], "faults": [], "psi_hat": []}
        for k in range(calls):
            kern._series_weights.cache_clear()
            spe._ratio_prefix.cache_clear()
            psi_hat_calls[0] = 0
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            value = fn(k)
            cell["s"].append(time.perf_counter() - t0)
            cell["faults"].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
            cell["psi_hat"].append(psi_hat_calls[0])
            if k == 0:
                cell["out"] = _strided(value)
        out.setdefault(name, {})[case] = cell
    return {"numpy": np.__version__, "rows": out}


def pool_outputs(plan):
    """Selections, realized ISEs and grids on the benchmark's pool samples."""
    import circkde.estimators as est
    import circkde.selectors as sel
    import circkde.simulate as sim
    from circkde.kernels import KernelSpec

    psi_hat_calls = _counted_psi_hat(sel)
    ste_calls = {}

    def pick(pool, m, sample, cfg):
        psi_hat_calls[0] = 0
        s = sel.SELECTORS[m](sample, cfg)
        if m == "ste":
            ste_calls.setdefault(pool, []).append(psi_hat_calls[0])
        return s

    models = sim.builtin_models()
    cfg = sel.SelectorConfig()
    we = sel.SelectorConfig(kernel_family="wrappedepanechnikov")
    rows = {}
    for pool, c in (("mc-zoo", cfg), ("we", we)):
        for i in range(plan["pools"][pool]):
            model = models[i % len(models)]
            rng = np.random.default_rng(np.random.SeedSequence([i // len(models), 0]))
            sample = model.sampler(rng, workloads.MC_N)
            picks = {m: pick(pool, m, sample, c) for m in SELECTORS}
            picks["gs"] = sel.select_gold(sample, model.density, c)
            out = {}
            for m, s in picks.items():
                out[f"{m}.nu"] = [s.nu]
                out[f"{m}.ise"] = [sim.realized_ise(sample, c.kernel_family, s.nu, model.density)]
            texts = {m: s.to_json() for m, s in picks.items()}
            rows.setdefault(pool, []).append({"json": texts, "out": out})
    for k in range(plan["pools"]["large-n"]):
        sample = est.CircularSample.from_data(workloads.large_angles(k))
        picks = {m: pick("large-n", m, sample, cfg) for m in ("rt", "dpi", "ste")}
        spec = KernelSpec.from_nu(cfg.kernel_family, picks["dpi"].nu)
        out = {f"{m}.nu": [s.nu] for m, s in picks.items()}
        out["kde"] = est.kde(sample, spec).values.tolist()
        out["kde_deriv"] = est.kde_deriv(sample, spec, 1).values.tolist()
        texts = {m: s.to_json() for m, s in picks.items()}
        rows.setdefault("large-n", []).append({"json": texts, "out": out})
    ste_means = {pool: statistics.fmean(c) for pool, c in ste_calls.items()}
    return {"rows": rows, "ste_psi_hat_calls": ste_means}


def child(kind, plan_json):
    """Entry point of a benchmark interpreter: print the JSON of
    time_layers or pool_outputs."""
    plan = json.loads(plan_json)
    json.dump(time_layers(plan) if kind == "layers" else pool_outputs(plan), sys.stdout)


def _env(src):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(src, kind, plan):
    code = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
        "import bench_layers; bench_layers.child(sys.argv[1], sys.argv[2])"
    )
    # the repository root holds no circkde package, so the tree's is imported
    proc = subprocess.run(
        [sys.executable, "-c", code, kind, json.dumps(plan)],
        env=_env(src),
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode:
        raise RuntimeError(f"{kind} child failed on {src}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _cli_children(src, data_dir, sizes):
    """(row, case) -> argv of every cold interpreter, for the tree at src."""
    crash = os.path.join(src, "circkde", "data", "crash_times.csv")
    children = {("cli.interpreter", "python -c pass"): ["-c", "pass"]}
    for module in ("numpy", "scipy.special", "circkde", "circkde.cli"):
        children[("cli.import", module)] = ["-c", f"import {module}"]
    for name, (sub, *options) in workloads.CLI_COMMANDS.items():
        argv = [sub, crash, *workloads.CLI_INPUT, *options]
        children[("cli.crash", name)] = ["-c", workloads.CLI_ENTRY, *argv]
    for n in sizes:
        path = os.path.join(data_dir, f"vm_{n}.txt")
        argv = ["select", path, "--method", "dpi"]
        children[("cli.select_dpi", f"n={n}")] = ["-c", workloads.CLI_ENTRY, *argv]
    return children


def _write_samples(data_dir, sizes):
    for n in sizes:
        rng = random.Random(20221 + n)
        with open(os.path.join(data_dir, f"vm_{n}.txt"), "w") as fh:
            fh.writelines(f"{rng.vonmisesvariate(0.0, 2.0)!r}\n" for _ in range(n))


def _cold(src, argv):
    """Wall seconds from spawn to exit and stdout of one fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], env=_env(src), cwd=ROOT, capture_output=True, text=True
    )
    wall = time.perf_counter() - t0
    if proc.returncode:
        raise RuntimeError(f"{argv} failed on {src}:\n{proc.stderr}")
    return wall, proc.stdout


def deviation(a, b):
    """Largest |a_i - b_i| relative to the largest |entry| of a and b; 0.0
    when they are equal and infinity when their lengths differ."""
    if a == b:
        return 0.0
    if len(a) != len(b):
        return math.inf
    scale = max(abs(x) for x in a + b)
    return max(abs(x - y) for x, y in zip(a, b)) / scale


_NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def _text_deviation(a, b):
    # the deviation of the numbers in two outputs; infinity if the rest differs
    if _NUMBER.split(a) != _NUMBER.split(b):
        return math.inf
    return deviation(*([float(x) for x in _NUMBER.findall(text)] for text in (a, b)))


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _compare_pools(before, after):
    out = {}
    for pool, rows in after["rows"].items():
        differ, worst = {}, {}
        for old, new in zip(before["rows"][pool], rows):
            for m, text in new["json"].items():
                differ[m] = differ.get(m, 0) + (text != old["json"][m])
            for key, values in new["out"].items():
                worst[key] = max(worst.get(key, 0.0), deviation(old["out"][key], values))
        out[pool] = {
            "samples": len(rows),
            "selections_that_differ": differ,
            "worst_rel_deviation": worst,
            "ste_psi_hat_calls": {
                "before": before["ste_psi_hat_calls"][pool],
                "after": after["ste_psi_hat_calls"][pool],
            },
        }
    return out


def measure(before, after, plan=PLAN):
    """Run every row on both trees in alternating rounds, and the pools
    once per tree; return the report."""
    start = time.perf_counter()
    trees = {"before": before, "after": after}
    runs = {side: [] for side in trees}
    cold = {side: {} for side in trees}
    with tempfile.TemporaryDirectory() as data_dir:
        _write_samples(data_dir, plan["sizes"])
        children = {side: _cli_children(trees[side], data_dir, plan["sizes"]) for side in trees}
        for k in range(plan["rounds"]):
            order = list(trees) if k % 2 == 0 else list(reversed(trees))
            for side in order:
                runs[side].append(_run_child(trees[side], "layers", plan))
            for key in children["after"]:
                for side in order:
                    cold[side].setdefault(key, []).append(_cold(trees[side], children[side][key]))
    pools = {side: _run_child(src, "pools", plan) for side, src in trees.items()}

    layers = {}
    for name, cases in runs["after"][0]["rows"].items():
        for case, first in cases.items():
            cell = {}
            for side in trees:
                calls = [run["rows"][name][case] for run in runs[side]]
                cell[side] = {
                    "ms": 1e3 * statistics.median(t for c in calls for t in c["s"]),
                    "minor_faults": statistics.median(f for c in calls for f in c["faults"]),
                    "psi_hat_calls": statistics.fmean(p for c in calls for p in c["psi_hat"]),
                }
            old = runs["before"][0]["rows"][name][case]["out"]
            cell["worst_rel_deviation"] = deviation(old, first["out"])
            layers.setdefault(name, {})[case] = cell
    for (name, case), children in cold["after"].items():
        cell = {
            side: {"ms": 1e3 * statistics.median(wall for wall, _ in cold[side][(name, case)])}
            for side in trees
        }
        old = cold["before"][(name, case)][0][1]
        cell["worst_rel_deviation"] = _text_deviation(old, children[0][1])
        layers.setdefault(name, {})[case] = cell
    return {
        "what": __doc__.split("\n\n")[0].replace("\n", " "),
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": runs["after"][0]["numpy"],
            "blas_threads": 1,
        },
        "plan": plan,
        "caches": CACHES,
        "layers": layers,
        "pools": _compare_pools(pools["before"], pools["after"]),
        "wall_s": time.perf_counter() - start,
        "date": time.strftime("%Y-%m-%d"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="src directory of the old code")
    ap.add_argument("--after", required=True, help="src directory of the new code")
    ap.add_argument("--out", default=str(OUT), help="report path (default: BENCH_layers.json)")
    opts = ap.parse_args(argv)
    report = measure(opts.before, opts.after)
    with open(opts.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
