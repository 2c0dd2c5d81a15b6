"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this file with BLAS pinned to one thread.  With
``--setup-only`` it imports circkde, runs one untimed warm-up op, prints
its set-up time (from ``--spawn-clock``, the launcher's monotonic clock
reading before it started this process) and exits.  Otherwise
it does the same set-up, measures for ``--seconds`` seconds (untraced, or
the traced run with ``--trace 1``), prints a human-readable report and,
as its last line, one JSON object of results.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from tracing import Tracer
from workloads import ROOT, WORKLOADS

OUT_DIR = Path(__file__).resolve().parent / "out"
SUBPROCESS_TIMEOUT = 60.0
SELF_CHECK_OPS = 8
EXACT_CHECKS = 4  # traced ops re-run untraced and compared bit for bit
START_SAMPLES = 5  # interpreter and import samples in a traced run
MAX_REPORTED_FAILURES = 5

# name each workload's end-to-end numbers carry in the report
REPORT_NAMES = {
    "mc-zoo": ("mc.replicates_per_s", "mc.replicate_ms", 1e3, "ms"),
    "large-n": ("large.analyses_per_s", "large.analysis_s", 1.0, "s"),
    "cli-crash": ("cli.commands_per_s", "cli.command_s", 1.0, "s"),
}


def import_package():
    """Import circkde from the checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    pkg = importlib.import_module("circkde")
    import_s = time.perf_counter() - t0
    if not Path(pkg.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"circkde imported from {pkg.__file__}, not from {src}")
    return pkg, import_s


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def blas_info():
    """BLAS library name and the thread count the loaded library reports."""
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        import ctypes

        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                if hasattr(lib, symbol):
                    fn = getattr(lib, symbol)
                    fn.restype = ctypes.c_int
                    threads = fn()
                    break
    except OSError:
        pass
    return f"{cfg.get('name')} {cfg.get('version')}", threads


def machine_info():
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas, threads = blas_info()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "loadavg_at_start": list(os.getloadavg()),
    }


def cache_infos(pkg):
    """lru_cache state of the kernel coefficient series and the gold grid."""
    out = {}
    for label, module, attr in (
        ("series_weights", pkg.kernels, "_series_weights"),
        ("gold_grid", pkg.selectors, "default_gold_grid"),
    ):
        fn = getattr(module, attr, None)
        out[label] = fn.cache_info()._asdict() if hasattr(fn, "cache_info") else None
    return out


class CacheDelta:
    """Hits and misses of each cache summed over the traced ops."""

    def __init__(self):
        self.totals = {}

    def add(self, before, after):
        for label, info in after.items():
            if info and before.get(label):
                hits, misses = self.totals.get(label, (0, 0))
                self.totals[label] = (
                    hits + info["hits"] - before[label]["hits"],
                    misses + info["misses"] - before[label]["misses"],
                )

    def hit_ratio(self, label):
        hits, misses = self.totals.get(label, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0


class Checker:
    """Counts ops and failed ops.  A failure is an exception, a nonzero exit,
    a problem the workload reports (an MC error count), or a fingerprint
    that does not match the reference."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def problems(self, inp, out, error):
        if error is not None:
            return [error]
        found = self.workload.problems(out)
        return found + workloads.mismatches(self.workload.expected(self.reference, inp), out)

    def check(self, inp, out, error):
        self.attempted += 1
        found = self.problems(inp, out, error)
        if found:
            self.failed += 1
            if len(self.messages) < MAX_REPORTED_FAILURES:
                self.messages.append(f"input {inp!r}: {'; '.join(found[:3])}")


def run_inproc(workload, inp):
    """(fingerprint, error, wall s, cpu s) of one in-process op."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        out, error = workload.run(inp), None
    except Exception as exc:  # a failing op is counted, not fatal
        out, error = None, f"{type(exc).__name__}: {exc}"
    return out, error, time.perf_counter() - t0, time.process_time() - c0


def run_cli_subprocess(command):
    """(fingerprint, error, wall s, child cpu s) of one cold circkde process."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", workloads.CLI_ENTRY, *workloads.cli_argv(command)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=SUBPROCESS_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return None, "timeout", time.perf_counter() - t0, 0.0
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[:200]}", wall, cpu
    try:
        return workloads.cli_fingerprint(command, proc.stdout), None, wall, cpu
    except ValueError as exc:
        return None, f"unparsable output: {exc}", wall, cpu


def run_cli_inproc(cli, command):
    """(fingerprint, error, wall s, cpu s) of circkde.cli.main in this process."""
    buf = io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(workloads.cli_argv(command))
    except Exception as exc:  # a failing op is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}", time.perf_counter() - t0, 0.0
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if code != 0:
        return None, f"exit {code}", wall, cpu
    return workloads.cli_fingerprint(command, buf.getvalue()), None, wall, cpu


def time_subprocess(code):
    """(wall s, stdout) of ``python -c code`` in a fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=SUBPROCESS_TIMEOUT,
        check=True,
    )
    return time.perf_counter() - t0, proc.stdout


def closed_loop(workload, seconds, seed, run_plain, checker, run_traced=None):
    """Run whole cycles of ops back to back until ``seconds`` have passed.

    With ``run_traced``, odd cycles are traced and even cycles are not, so
    both see the same mix of inputs.  Returns (untraced records, traced
    records, elapsed s); a record is (input, output, wall s, cpu s)."""
    plain, traced = [], []
    i = 0
    min_ops = 2 * workload.cycle if run_traced else workload.cycle
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds or i % workload.cycle or i < min_ops:
        inp = workload.input(seed, i)
        use_trace = run_traced is not None and (i // workload.cycle) % 2 == 1
        out, error, wall, cpu = (run_traced if use_trace else run_plain)(i, inp)
        checker.check(inp, out, error)
        (traced if use_trace else plain).append((inp, out, wall, cpu))
        i += 1
    return plain, traced, time.perf_counter() - t_start


def traced_runner(tracer, run, pkg, caches):
    """``run`` executed with the trace wrappers installed; cache hits and
    misses during the op are added to ``caches``."""

    def go(i, inp):
        before = cache_infos(pkg)
        tracer.install()
        tracer.begin_op(i)
        try:
            return run(i, inp)
        finally:
            tracer.end_op()
            tracer.remove()
            caches.add(before, cache_infos(pkg))

    return go


def e2e_metrics(name, records, elapsed, lines, cpu_note=""):
    """ops_per_s and op_ms.p50, reported under the workload's own names."""
    rate_name, prefix, scale, unit = REPORT_NAMES[name]
    walls = [r[2] for r in records]
    cpus = [r[3] for r in records]
    n = len(walls)
    lines.append(f"{rate_name} = {n / elapsed:.6g} 1/s  ({n} ops in {elapsed:.3f} s)")
    lines.append(f"{prefix}.p50 = {scale * percentile(walls, 50):.6g} {unit}  (n={n})")
    beyond = n - int(np.ceil(0.9 * n))
    if beyond >= 10:
        lines.append(
            f"{prefix}.p90 = {scale * percentile(walls, 90):.6g} {unit}  (n={n}, {beyond} beyond)"
        )
    else:
        lines.append(f"{prefix}.p90 not reported: n={n} leaves {beyond} samples beyond it (< 10)")
    lines.append(f"op_cpu_ms.p50 = {1e3 * percentile(cpus, 50):.6g} ms  (n={n}{cpu_note})")
    return {"ops_per_s": n / elapsed, "op_ms.p50": 1e3 * percentile(walls, 50)}


def op_log(records):
    return [[repr(inp), wall, cpu] for inp, _out, wall, cpu in records]


def layer_metrics(summary, caches, cache_end):
    """Per-op layer metrics from a traced run."""
    per_name, counts = summary["per_name"], summary["counts"]

    def get(name, field):
        return per_name.get(name, {}).get(field, 0.0)

    def ratio(hits, calls):
        return counts.get(hits, 0.0) / counts[calls] if counts.get(calls) else 0.0

    m = {
        "special.find_root.calls": get("special.find_root", "calls"),
        "special.inv_bessel_ratio.calls": get("special.inv_bessel_ratio", "calls"),
        "kernels.kernel_value.self_ms": get("kernels.kernel_value", "self_ms"),
        "kernels.kernel_value.evals": counts.get("kernels.kernel_value.evals", 0.0),
        "kernels.derivative_weights.self_ms": get("kernels.derivative_weights", "self_ms"),
        "kernels.derivative_weights.calls": get("kernels.derivative_weights", "calls"),
        "kernels.derivative_weights.J_max": summary["op_max_median"].get(
            "kernels.derivative_weights.J_max", 0.0
        ),
        "kernels.concentration_from_bandwidth.calls": get(
            "kernels.concentration_from_bandwidth", "calls"
        ),
        "kernels.concentration_from_bandwidth.self_ms": get(
            "kernels.concentration_from_bandwidth", "self_ms"
        ),
        "kernels.series_cache.hit_ratio": caches.hit_ratio("series_weights"),
        "kernels.series_cache.entries": (cache_end.get("series_weights") or {}).get("currsize", 0),
        "estimators.trig_moments.self_ms": get("estimators.trig_moments", "self_ms"),
        "estimators.trig_moments.terms": counts.get("estimators.trig_moments.terms", 0.0),
        "estimators.trig_moments.hit_ratio": ratio(
            "estimators.trig_moments.hits", "estimators.trig_moments.calls"
        ),
        "estimators.kde_values.self_ms": get("estimators.kde_values", "self_ms"),
        "estimators.kde_values.calls": get("estimators.kde_values", "calls"),
        "estimators.psi_hat.calls": get("estimators.psi_hat", "calls"),
        "estimators.psi_hat.self_ms": get("estimators.psi_hat", "self_ms"),
        "estimators.kde.self_ms": get("estimators.kde", "self_ms"),
        "estimators.kde_deriv.self_ms": get("estimators.kde_deriv", "self_ms"),
        "mixture.select_aic.calls": get("mixture.select_aic", "calls"),
        "mixture.select_aic.self_ms": get("mixture.select_aic", "self_ms"),
        "mixture.fit_em.calls": get("mixture.fit_em", "calls"),
        "mixture.fit_em.iterations": counts.get("mixture.fit_em.iterations", 0.0),
        "mixture.fit_em.self_ms": get("mixture.fit_em", "self_ms"),
        "mixture.psi_from_model.self_ms": get("mixture.psi_from_model", "self_ms"),
        "selectors.select_gold.self_ms": get("selectors.select_gold", "self_ms"),
        "selectors.select_ste.psi_hat_calls": summary["ste_psi_hat_calls"],
        "selectors.fallback_ratio": ratio("selectors.fallbacks", "selectors.calls"),
        "selectors.gold_grid_cache.hit_ratio": caches.hit_ratio("gold_grid"),
        "simulate.realized_ise.total_ms": get("simulate.realized_ise", "total_ms"),
        "simulate.realized_ise.calls": get("simulate.realized_ise", "calls"),
        "simulate.sampler.self_ms": get("simulate.sampler", "self_ms"),
        "simulate.run_monte_carlo.self_ms": get("simulate.run_monte_carlo", "self_ms"),
        "trace.coverage_pct": 100.0 * summary["coverage"],
    }
    for method in ("rt", "dpi", "ste", "lcv"):
        m[f"selectors.select_{method}.total_ms"] = get(f"selectors.select_{method}", "total_ms")
    for command in workloads.CLI_COMMANDS:
        m[f"cli.{command}_s.p50"] = 0.0
    m["cli.main.inproc_ms"] = 0.0
    return m


def self_time_ranking(summary, lines, top=8):
    total = summary["op_ms_total"] / max(summary["ops"], 1)
    ranked = sorted(summary["per_name"].items(), key=lambda kv: -kv[1]["self_ms"])
    lines.append(f"self time per op (op wall {total:.3f} ms, {summary['ops']} traced ops):")
    for label, entry in ranked[:top]:
        share = 100.0 * entry["self_ms"] / total if total else 0.0
        lines.append(f"  {label:42s} {entry['self_ms']:10.3f} ms  {share:5.1f}%")
    return ranked[0][0] if ranked else None


def start_costs(lines):
    """p50 wall time of a bare interpreter and in-process time of
    ``import circkde``, each from fresh interpreters.  Both are part of
    every cold start: each CLI command and each workload's set-up."""
    interpreter = [time_subprocess("pass")[0] for _ in range(START_SAMPLES)]
    code = "import time; t = time.perf_counter(); import circkde; print(time.perf_counter() - t)"
    imports = [float(time_subprocess(code)[1]) for _ in range(START_SAMPLES)]
    out = {
        "cli.interpreter_s.p50": percentile(interpreter, 50),
        "cli.import_s.p50": percentile(imports, 50),
    }
    lines.append(
        f"start: interpreter {out['cli.interpreter_s.p50']:.4f} s, import circkde "
        f"{out['cli.import_s.p50']:.4f} s (p50 of {START_SAMPLES} fresh interpreters each)"
    )
    return out


def identical(a, b):
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def exact_rerun(run_plain, traced_records):
    """Re-run the first traced inputs untraced; outputs must be identical."""
    same = 0
    for i, (inp, out, _, _) in enumerate(traced_records[:EXACT_CHECKS]):
        same += identical(run_plain(i, inp)[0], out)
    return same, min(len(traced_records), EXACT_CHECKS)


def trace_phase(seconds, seed, pkg, workload, tracer, run_plain, checker, lines):
    """Closed loop alternating untraced and traced cycles.  Returns the
    layer metrics, whether traced outputs equal untraced ones, and the
    untraced op p50 in seconds."""
    caches = CacheDelta()
    run_traced = traced_runner(tracer, run_plain, pkg, caches)
    plain, traced, _ = closed_loop(workload, seconds, seed, run_plain, checker, run_traced)
    cache_end = cache_infos(pkg)
    summary = tracer.summary()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{workload.name}-seed{seed}.npz")
    metrics = layer_metrics(summary, caches, cache_end)
    metrics.update(start_costs(lines))
    p50_plain = percentile([r[2] for r in plain], 50)
    p50_traced = percentile([r[2] for r in traced], 50)
    overhead = 100.0 * (p50_traced - p50_plain) / p50_plain if p50_plain else 0.0
    metrics["trace.overhead_pct"] = overhead
    metrics["op_cpu_ms.p50"] = 1e3 * percentile([r[3] for r in plain], 50)
    same, checked = exact_rerun(run_plain, traced)
    lines.append(
        f"trace: {tracer.site_count} lookup sites wrapped; untraced op p50 {1e3 * p50_plain:.3f} ms "
        f"(n={len(plain)}), traced {1e3 * p50_traced:.3f} ms (n={len(traced)}), "
        f"overhead {overhead:.2f}%; coverage {metrics['trace.coverage_pct']:.2f}% of op time"
    )
    if tracer.missing:
        lines.append(f"trace: functions not found, reported as 0: {', '.join(tracer.missing)}")
    lines.append(f"trace: traced outputs identical to an untraced re-run on {same}/{checked} ops")
    bitwise = sum(identical(out, workload.expected(checker.reference, inp)) for inp, out, _, _ in traced)
    lines.append(f"trace: traced outputs bit-identical to the reference on {bitwise}/{len(traced)} ops")
    lines.append(f"caches at end: {json.dumps(cache_end)}")
    top = self_time_ranking(summary, lines)
    lines.append(f"largest self time: {top}")
    return metrics, same == checked, p50_plain


def inputs_check(workload, seed, lines):
    same, differs = workloads.inputs_reproducible(workload, seed, SELF_CHECK_OPS)
    lines.append(
        f"inputs: seed {seed} twice gives byte-identical inputs: {same}; "
        f"seed {seed + 1} gives different inputs: {differs} (first {SELF_CHECK_OPS} ops)"
    )
    return same and differs


def setup(workload_cls, spawn_clock):
    """Import circkde and run one untimed warm-up op."""
    pkg, import_s = import_package()
    workload = workload_cls(pkg)
    inp = workload.warmup_input()
    out, error, _, _ = run_inproc(workload, inp)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    return pkg, workload, (inp, out, error), {"import_s": import_s, "setup_s": ready - spawn_clock}


def run_inproc_workload(args, lines):
    pkg, workload, warm, timing = setup(WORKLOADS[args.workload], args.spawn_clock)
    if args.setup_only:
        return {"setup_s": timing["setup_s"]}
    cache_setup = cache_infos(pkg)
    checker = Checker(workload, workloads.load_reference(workload.name))
    warm_problems = checker.problems(*warm)
    lines.append(f"set-up: import circkde {timing['import_s']:.4f} s, ready after {timing['setup_s']:.4f} s")
    lines.append(f"caches after set-up: {json.dumps(cache_setup)}")

    def plain(_i, inp):
        return run_inproc(workload, inp)

    result = {
        "setup_s": timing["setup_s"],
        "warmup_ok": not warm_problems,
        "inputs_ok": inputs_check(workload, args.seed, lines),
    }
    if args.trace:
        importlib.import_module("circkde.cli")  # its dispatch table is a lookup site too
        tracer = Tracer(pkg)
        if hasattr(workload, "models"):
            tracer.wrap_models(workload.models)
        metrics, exact, _ = trace_phase(
            args.seconds, args.seed, pkg, workload, tracer, plain, checker, lines
        )
        result.update(metrics=metrics, exact=exact, checker=checker)
    else:
        records, _, elapsed = closed_loop(workload, args.seconds, args.seed, plain, checker)
        metrics = e2e_metrics(workload.name, records, elapsed, lines)
        lines.append(f"caches at end: {json.dumps(cache_infos(pkg))}")
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update(metrics=metrics, exact=True, checker=checker, ops=op_log(records))
    return result


def run_cli_workload(args, lines):
    workload = WORKLOADS[args.workload]()
    checker = Checker(workload, workloads.load_reference(workload.name))

    def cold(_i, command):
        return run_cli_subprocess(command)

    warm = run_cli_subprocess(workload.warmup_input())
    result = {
        "warmup_ok": not checker.problems(workload.warmup_input(), warm[0], warm[1]),
        "inputs_ok": inputs_check(workload, args.seed, lines),
    }
    if not args.trace:
        records, _, elapsed = closed_loop(workload, args.seconds, args.seed, cold, checker)
        metrics = e2e_metrics(workload.name, records, elapsed, lines, ", child process CPU")
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        result.update(metrics=metrics, exact=True, checker=checker, ops=op_log(records))
        return result

    # cold half: the four commands in subprocesses
    records, _, _ = closed_loop(workload, args.seconds / 2, args.seed, cold, checker)
    per_command = {
        f"cli.{c}_s.p50": percentile([r[2] for r in records if r[0] == c], 50)
        for c in workloads.CLI_COMMANDS
    }
    cold_cpu = 1e3 * percentile([r[3] for r in records], 50)

    # warm half: circkde.cli.main in this interpreter, traced and untraced
    pkg, _ = import_package()
    cli = importlib.import_module("circkde.cli")
    run_cli_inproc(cli, workload.warmup_input())

    def warm_run(_i, command):
        return run_cli_inproc(cli, command)

    metrics, exact, p50_warm = trace_phase(
        args.seconds / 2, args.seed, pkg, workload, Tracer(pkg), warm_run, checker, lines
    )
    metrics.update(per_command)
    metrics["cli.main.inproc_ms"] = 1e3 * p50_warm
    metrics["op_cpu_ms.p50"] = cold_cpu
    lines.append("cli: per command " + ", ".join(f"{k} {v:.4f} s" for k, v in per_command.items()))
    result.update(metrics=metrics, exact=exact, checker=checker)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-clock", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if args.setup_only:
        print(json.dumps(run_inproc_workload(args, [])))
        return
    lines = ["machine: " + json.dumps(machine_info())]
    if args.workload == "cli-crash":
        result = run_cli_workload(args, lines)
    else:
        result = run_inproc_workload(args, lines)
    checker = result["checker"]
    correct = (
        checker.failed == 0 and result["warmup_ok"] and result["exact"] and result["inputs_ok"]
    )
    lines.append(
        f"failed_op_ratio = {checker.failed}/{checker.attempted} = "
        f"{checker.failed / max(checker.attempted, 1):.6g}"
    )
    if not result["warmup_ok"]:
        lines.append("FAILED: the warm-up op does not match its reference")
    lines.extend(f"FAILED {message}" for message in checker.messages)

    out = {
        "correct": bool(correct),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": result["metrics"],
        "setup_s": result.get("setup_s"),
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w") as fh:
        json.dump({"report": lines, **out, "ops": result.get("ops", [])}, fh)
    for line in lines:
        print(line)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
