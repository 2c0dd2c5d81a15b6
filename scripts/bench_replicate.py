"""Time one Monte-Carlo replicate layer by layer on two source trees and
write BENCH_replicate.json (or the ``--out`` path).

    python3 scripts/bench_replicate.py --before OLD/src --after src [--rounds 3]

Each tree is imported in its own interpreter with BLAS pinned to one
thread, and the two trees alternate for ``--rounds`` rounds.  One op is
one replicate as the ``mc-zoo`` benchmark runs it: ``run_monte_carlo``
with rt, dpi, ste and lcv (the gold standard added by the harness),
``replicates=1``, cycling through the five zoo models.  For each n in
SIZES the report gives the median over ops of

* the milliseconds spent in each selector (rt, dpi, ste, lcv, gs) and in
  the five ``realized_ise`` calls, and the whole op;
* the minor page faults of the op (``getrusage`` ``ru_minflt``), after
  warm-up ops.

With the wrapped Epanechnikov kernel it also gives the median
milliseconds of one n = 100 VM2 replicate (the same selectors) and of
``select_lcv`` on a fresh n = 1000 VM-MIX2 sample, over WE_OPS ops per
round.

For each n in STE_SIZES it gives the median milliseconds of ``select_ste``
(default config) on a fresh VM-MIX3 sample with fresh caches (the pilot
series and Bessel-ratio caches cleared before each call) and the mean
number of exact ``psi_hat`` calls it makes.

Then both trees run on every ``mc-zoo`` pool sample (five zoo models,
replicate seeds 0-255, n = 100, drawn as run_monte_carlo draws them),
every ``large-n`` pool sample (128 samples, n = 10 000, drawn by
``bench/workloads.py``) and a ``we`` pool: the first WE_POOL replicate
seeds of each zoo model at n = 100, selected with the wrapped
Epanechnikov.  The report counts the rt, dpi and ste selections (nu, h
and trace) that differ between the trees, the mean number of exact
``psi_hat`` calls per ``select_ste`` on each pool, and gives the worst relative
deviation of every selector's nu (rt, dpi and ste on every pool, lcv and
gs on the mc-zoo and we pools), of their realized ISE, and of ``kde`` and
``kde_deriv`` (r = 1) on the 512-point grid at the DPI concentration of
the large-n samples.
"""

import argparse
import json
import os
import platform
import statistics
import time

from bench_lcv import cpu_model, rel, run_child

# n -> (warm-up ops, timed ops) per round
SIZES = {100: (25, 200), 1000: (5, 30), 10000: (1, 5)}
# n -> select_ste calls per round
STE_SIZES = {100: 200, 1000: 50, 10000: 20, 100000: 5}
SELECTORS = ("rt", "dpi", "ste", "lcv")
LAYERS = SELECTORS + ("gs", "realized_ise")
# wrapped Epanechnikov ops per round (replicates, then LCV calls) and pool
# samples per zoo model
WE_OPS = 5
WE_POOL = 40
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_replicate.json")

_TIMING = r"""
import json, resource, statistics, sys, time
import numpy as np
from circkde import simulate as sim
from circkde.estimators import CircularSample
from circkde.selectors import SelectorConfig, select_lcv

args = json.loads(sys.argv[1])
models = sim.builtin_models()
spent = {}


def timed(label, fn):
    def wrapper(*a, **k):
        t0 = time.perf_counter()
        try:
            return fn(*a, **k)
        finally:
            spent[label] = spent.get(label, 0.0) + time.perf_counter() - t0

    return wrapper


for name in list(sim._SELECTOR_FNS):
    sim._SELECTOR_FNS[name] = timed(name, sim._SELECTOR_FNS[name])
sim.select_gold = timed("gs", sim.select_gold)
sim.realized_ise = timed("realized_ise", sim.realized_ise)


def op(n, k):
    sim.run_monte_carlo(models[k % len(models)], args["selectors"], n=n, replicates=1, seed=k)


out = {"numpy": np.__version__, "ops": {}}
for n, (warm, count) in args["sizes"].items():
    for k in range(warm):
        op(int(n), 10_000 + k)
    rows = []
    for k in range(count):
        spent.clear()
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        op(int(n), k)
        wall = time.perf_counter() - t0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
        rows.append({"op": wall, "faults": faults, **spent})
    out["ops"][n] = rows
by_name = {m.name: m for m in models}
we = SelectorConfig(kernel_family="wrappedepanechnikov")
times = {"replicate_n100": [], "lcv_n1000": []}
for k in range(args["we_ops"]):
    t0 = time.perf_counter()
    sim.run_monte_carlo(by_name["VM2"], args["selectors"], n=100, replicates=1, seed=k, cfg=we)
    times["replicate_n100"].append(time.perf_counter() - t0)
for k in range(args["we_ops"]):
    rng = np.random.default_rng(np.random.SeedSequence([k, 1]))
    sample = CircularSample.from_data(by_name["VM-MIX2"].sampler(rng, 1000).angles)
    t0 = time.perf_counter()
    select_lcv(sample, we)
    times["lcv_n1000"].append(time.perf_counter() - t0)
out["we"] = times
print(json.dumps(out))
"""

_STE = r"""
import json, sys, time
import numpy as np
from circkde import kernels, special
from circkde import selectors as sel
from circkde.estimators import CircularSample
from circkde.simulate import builtin_models

args = json.loads(sys.argv[1])
calls = [0]
psi_hat = sel.psi_hat


def counted_psi_hat(*a, **k):
    calls[0] += 1
    return psi_hat(*a, **k)


sel.psi_hat = counted_psi_hat
model = {m.name: m for m in builtin_models()}["VM-MIX3"]
cfg = sel.SelectorConfig()
out = {}
for n, count in args["ste_sizes"].items():
    rows = []
    for k in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([k, 2]))
        sample = CircularSample.from_data(model.sampler(rng, int(n)).angles)
        kernels._series_weights.cache_clear()
        special._ratio_prefix.cache_clear()
        calls[0] = 0
        t0 = time.perf_counter()
        sel.select_ste(sample, cfg)
        rows.append({"s": time.perf_counter() - t0, "psi_hat_calls": calls[0]})
    out[n] = rows
print(json.dumps(out))
"""

_POOLS = r"""
import json, sys
import numpy as np
from circkde import selectors as sel
from circkde.estimators import CircularSample, kde, kde_deriv
from circkde.kernels import KernelSpec
from circkde.simulate import builtin_models, realized_ise

args = json.loads(sys.argv[1])
sys.path.insert(0, args["bench"])
import workloads

calls = [0]
psi_hat = sel.psi_hat


def counted_psi_hat(*a, **k):
    calls[0] += 1
    return psi_hat(*a, **k)


sel.psi_hat = counted_psi_hat
ste_calls = {"mc-zoo": [], "large-n": [], "we": []}


def pick(pool, m, sample, cfg):
    calls[0] = 0
    s = sel.SELECTORS[m](sample, cfg)
    if m == "ste":
        ste_calls[pool].append(calls[0])
    return s


out = {"mc-zoo": [], "large-n": [], "we": []}
pools = (("mc-zoo", sel.SelectorConfig(), workloads.MC_POOL),
         ("we", sel.SelectorConfig(kernel_family="wrappedepanechnikov"), args["we_pool"]))
for pool, cfg, size in pools:
    for model in builtin_models():
        for seed in range(size):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
            sample = model.sampler(rng, workloads.MC_N)
            picks = {m: pick(pool, m, sample, cfg) for m in args["selectors"]}
            picks["gs"] = sel.select_gold(sample, model.density, cfg)
            out[pool].append({
                m: {"json": s.to_json(), "nu": s.nu,
                    "ise": realized_ise(sample, cfg.kernel_family, s.nu, model.density)}
                for m, s in picks.items()
            })
cfg = sel.SelectorConfig()
for k in range(workloads.LARGE_POOL):
    sample = CircularSample.from_data(workloads.large_angles(k))
    picks = {m: pick("large-n", m, sample, cfg) for m in ("rt", "dpi", "ste")}
    spec = KernelSpec.from_nu(cfg.kernel_family, picks["dpi"].nu)
    row = {m: {"json": s.to_json(), "nu": s.nu} for m, s in picks.items()}
    row["kde"] = kde(sample, spec).values.tolist()
    row["kde_deriv"] = kde_deriv(sample, spec, 1).values.tolist()
    out["large-n"].append(row)
out["ste_psi_hat_calls"] = {pool: sum(c) / len(c) for pool, c in ste_calls.items()}
print(json.dumps(out))
"""


def _timing(src):
    args = {
        "sizes": {str(n): v for n, v in SIZES.items()},
        "selectors": list(SELECTORS),
        "we_ops": WE_OPS,
    }
    return run_child(src, _TIMING, args)


def _ste(src):
    return run_child(src, _STE, {"ste_sizes": {str(n): v for n, v in STE_SIZES.items()}})


def _ste_summary(runs):
    """Median ms and mean exact psi_hat calls of select_ste, per n."""
    out = {}
    for n in map(str, STE_SIZES):
        rows = [row for run in runs for row in run[n]]
        out[n] = {
            "select_ste_ms": 1e3 * statistics.median(r["s"] for r in rows),
            "psi_hat_calls": statistics.fmean(r["psi_hat_calls"] for r in rows),
            "calls": len(rows),
        }
    return out


def _summary(runs):
    """Medians over every timed op of every round, in ms, per n."""
    out = {}
    for n in map(str, SIZES):
        rows = [row for run in runs for row in run["ops"][n]]
        cell = {f"{k}_ms": 1e3 * statistics.median(r.get(k, 0.0) for r in rows) for k in LAYERS}
        cell["op_ms"] = 1e3 * statistics.median(r["op"] for r in rows)
        cell["faults_per_op"] = statistics.median(r["faults"] for r in rows)
        cell["faults_per_op_mean"] = statistics.fmean(r["faults"] for r in rows)
        cell["ops"] = len(rows)
        out[n] = cell
    out["wrappedepanechnikov"] = {
        f"{k}_ms": 1e3 * statistics.median(t for run in runs for t in run["we"][k])
        for k in ("replicate_n100", "lcv_n1000")
    }
    return out


def _array_dev(a, b):
    scale = max(max(map(abs, a)), 1e-300)
    return max(abs(x - y) for x, y in zip(a, b)) / scale


def _compare(before, after):
    differ = {}
    worst = {}
    for pool in ("mc-zoo", "large-n", "we"):
        for old, new in zip(before[pool], after[pool]):
            for m in ("rt", "dpi", "ste"):
                key = f"{pool}.{m}"
                differ[key] = differ.get(key, 0) + (old[m]["json"] != new[m]["json"])
            for m in (*SELECTORS, "gs"):
                for field in ("nu", "ise"):
                    if field in old.get(m, {}):
                        key = f"{pool}.{m}.{field}"
                        worst[key] = max(worst.get(key, 0.0), rel(old[m][field], new[m][field]))
    for old, new in zip(before["large-n"], after["large-n"]):
        for key in ("kde", "kde_deriv"):
            worst[f"large-n.{key}"] = max(worst.get(f"large-n.{key}", 0.0), _array_dev(old[key], new[key]))
    return differ, worst


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="src directory of the old code")
    ap.add_argument("--after", required=True, help="src directory of the new code")
    ap.add_argument("--rounds", type=int, default=3, help="alternating timing rounds (default 3)")
    ap.add_argument("--out", default=OUT, help="report path (default: BENCH_replicate.json)")
    opts = ap.parse_args(argv)

    runs = {"before": [], "after": []}
    ste_runs = {"before": [], "after": []}
    for _ in range(opts.rounds):
        for side, src in (("before", opts.before), ("after", opts.after)):
            runs[side].append(_timing(src))
            ste_runs[side].append(_ste(src))
    pool_args = {"selectors": list(SELECTORS), "bench": os.path.join(ROOT, "bench"), "we_pool": WE_POOL}
    pools_before = run_child(opts.before, _POOLS, pool_args)
    pools_after = run_child(opts.after, _POOLS, pool_args)
    differ, worst = _compare(pools_before, pools_after)
    before, after = _summary(runs["before"]), _summary(runs["after"])
    ste_before, ste_after = _ste_summary(ste_runs["before"]), _ste_summary(ste_runs["after"])
    report = {
        "what": (
            "one mc-zoo replicate (run_monte_carlo: rt, dpi, ste, lcv and the gold "
            "standard, replicates=1, the five zoo models in turn): median ms per op in "
            "each selector, in the five realized_ise calls and in the whole op, and "
            f"minor page faults per op, over {opts.rounds} alternating rounds; and "
            "with the wrapped Epanechnikov, median ms of one n = 100 VM2 replicate "
            "and of select_lcv on an n = 1000 VM-MIX2 sample"
        ),
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": runs["after"][0]["numpy"],
            "blas_threads": 1,
        },
        "ops_per_round": {str(n): count for n, (_, count) in SIZES.items()},
        "before": before,
        "after": after,
        "speedup_op": {n: before[n]["op_ms"] / after[n]["op_ms"] for n in map(str, SIZES)},
        "select_ste": {
            "what": (
                "select_ste on a fresh VM-MIX3 sample with the pilot series and "
                "Bessel-ratio caches cleared: median ms and mean exact psi_hat calls"
            ),
            "before": ste_before,
            "after": ste_after,
            "speedup": {
                n: ste_before[n]["select_ste_ms"] / ste_after[n]["select_ste_ms"] for n in map(str, STE_SIZES)
            },
        },
        "ste_psi_hat_calls_per_pool_call": {
            "before": pools_before["ste_psi_hat_calls"],
            "after": pools_after["ste_psi_hat_calls"],
        },
        "pool_samples": {pool: len(pools_after[pool]) for pool in ("mc-zoo", "large-n", "we")},
        "selections_that_differ": differ,
        "worst_rel_deviation": worst,
        "date": time.strftime("%Y-%m-%d"),
    }
    with open(opts.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
