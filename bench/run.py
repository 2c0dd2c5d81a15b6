"""Run one workload of the circkde benchmark and print its metrics.

From the repository root:

    python3 bench/run.py --workload mc-zoo --seed 1 --seconds 25 --trace 0

The workload runs in a fresh interpreter (``worker.py``) with BLAS pinned
to one thread.  ``--trace 0`` measures the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer metrics.  The report goes
to standard output; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
WORKER_GRACE_S = 80.0  # a worker may run this long beyond --seconds
SETUP_TIMEOUT_S = 20.0
# set before numpy loads in any process the benchmark starts
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fail(message, code=1):
    print(f"bench/run.py: {message}", file=sys.stderr)
    raise SystemExit(code)


def pinned_env():
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args, *extra, timeout):
    spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawn-clock", repr(spawn), *extra,
    ]
    # its own session, so that a timeout also stops the circkde processes it started
    with subprocess.Popen(
        cmd, cwd=ROOT, env=pinned_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            fail(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not stdout.strip():
        sys.stderr.write(stderr)
        fail(f"worker exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def setup_samples(args, first):
    """Set-up times of fresh interpreters: import circkde and one warm-up op
    (for cli-crash, ``python -c "import circkde"``)."""
    samples = [] if first is None else [first]
    while len(samples) < SETUP_SAMPLES:
        if args.workload == "cli-crash":
            t0 = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", "import circkde"],
                cwd=ROOT, env=pinned_env(), check=True, timeout=SETUP_TIMEOUT_S,
            )
            samples.append(time.perf_counter() - t0)
        else:
            samples.append(run_worker(args, "--setup-only", timeout=SETUP_TIMEOUT_S)[1]["setup_s"])
    return samples


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "circkde" / "__init__.py").is_file():
        fail(f"no circkde sources under {ROOT / 'src'}", code=2)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}", code=2)

    lines, result = run_worker(args, timeout=args.seconds + WORKER_GRACE_S)
    metrics = result["metrics"]
    if not args.trace:
        samples = setup_samples(args, result["setup_s"])
        metrics["setup_s"] = statistics.median(samples)
        lines.append(
            f"setup_s = {metrics['setup_s']:.6g} s  (median of {len(samples)} fresh interpreters: "
            + ", ".join(f"{s:.4f}" for s in samples) + ")"
        )

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    absent = [m["name"] for m in wanted if m["name"] not in metrics]
    if absent:
        fail(f"worker did not measure {absent}")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
