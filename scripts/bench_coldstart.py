"""Time cold starts of circkde on two source trees and write
BENCH_coldstart.json.

    python3 scripts/bench_coldstart.py --before OLD/src --after src

Every timing is one fresh interpreter, started with BLAS pinned to one
thread and PYTHONPATH set to the tree, and timed from outside as the wall
time from spawn to exit.  Each child's peak resident set comes from
``os.wait4``.  The children are, in order:

* ``python -c pass``, ``import numpy`` and ``import scipy.special``: the
  floor that no change to circkde can move;
* ``import circkde`` and ``import circkde.cli``;
* the four commands of the benchmark's ``cli-crash`` workload on the
  bundled crash data: ``select --method dpi --mmax 3``, ``select --method
  ste``, ``density --method dpi`` and ``modes --method dpi``;
* ``select --method dpi`` on generated von Mises samples of n in SIZES.

The trees alternate child by child, REPEATS rounds, so that a drift of the
machine's speed hits both alike; the report gives the median wall time and
the median peak RSS of each child, and whether the two trees printed the
same bytes.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time

from bench_lcv import cpu_model

SIZES = (100, 1000, 10000, 100000)
REPEATS = 7
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_coldstart.json")
CLI_ENTRY = "import sys; from circkde.cli import main; sys.exit(main())"
CRASH_INPUT = ["--format", "hhmm", "--column", "time"]
CRASH_COMMANDS = {
    "select_dpi_mmax3": ["select", "--method", "dpi", "--mmax", "3"],
    "select_ste": ["select", "--method", "ste"],
    "density": ["density", "--method", "dpi"],
    "modes": ["modes", "--method", "dpi"],
}


def _children(src, data_dir):
    """Name -> argv of every child, for the tree at ``src``."""
    crash = os.path.join(src, "circkde", "data", "crash_times.csv")
    children = {
        "python_pass": ["-c", "pass"],
        "import_numpy": ["-c", "import numpy"],
        "import_scipy_special": ["-c", "import scipy.special"],
        "import_circkde": ["-c", "import circkde"],
        "import_circkde_cli": ["-c", "import circkde.cli"],
    }
    for name, (sub, *options) in CRASH_COMMANDS.items():
        children[f"crash_{name}"] = ["-c", CLI_ENTRY, sub, crash, *CRASH_INPUT, *options]
    for n in SIZES:
        path = os.path.join(data_dir, f"vm_{n}.txt")
        children[f"select_dpi_n{n}"] = ["-c", CLI_ENTRY, "select", path, "--method", "dpi"]
    return children


def _write_samples(data_dir):
    # the standard library's sampler: numpy in this process would be
    # copied into every child at fork and set a floor under its peak RSS
    for n in SIZES:
        rng = random.Random(20221 + n)
        with open(os.path.join(data_dir, f"vm_{n}.txt"), "w") as fh:
            fh.writelines(f"{rng.vonmisesvariate(0.0, 2.0)!r}\n" for _ in range(n))


def _time_child(src, argv):
    """Wall seconds, peak RSS in MB and stdout bytes of one fresh child."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        if proc.returncode:
            raise RuntimeError(f"{argv} failed on {src}:\n{err.read().decode()}")
        # ru_maxrss is in kilobytes on Linux
        return wall, usage.ru_maxrss / 1024.0, out.read()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="src directory of the old code")
    ap.add_argument("--after", required=True, help="src directory of the new code")
    opts = ap.parse_args(argv)

    numpy_version = _time_child(opts.after, ["-c", "import numpy; print(numpy.__version__)"])[2]
    trees = {"before": opts.before, "after": opts.after}
    runs = {tree: {} for tree in trees}
    stdout = {tree: {} for tree in trees}
    with tempfile.TemporaryDirectory() as data_dir:
        _write_samples(data_dir)
        children = {tree: _children(src, data_dir) for tree, src in trees.items()}
        for _ in range(REPEATS):
            for name in children["after"]:
                for tree, src in trees.items():
                    wall, rss, out = _time_child(src, children[tree][name])
                    runs[tree].setdefault(name, []).append((wall, rss))
                    stdout[tree].setdefault(name, out)

    def summary(tree):
        return {
            name: {
                "median_s": statistics.median(w for w, _ in rows),
                "peak_rss_mb": statistics.median(r for _, r in rows),
            }
            for name, rows in runs[tree].items()
        }

    report = {
        "what": (
            f"median over {REPEATS} fresh interpreters of the wall time from spawn to exit "
            "and of the peak RSS (os.wait4; it includes the pages a child shares with this "
            "script at fork, about 16 MB), BLAS 1 thread, trees alternating child by child; "
            "crash_* are the cli-crash commands on the bundled data, select_dpi_n* run "
            "select --method dpi on von Mises(0, 2) samples of size n (angles in [0, 2 pi))"
        ),
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy_version.decode().strip(),
            "blas_threads": 1,
        },
        "before": summary("before"),
        "after": summary("after"),
        "stdout_identical": {
            name: stdout["before"][name] == stdout["after"][name] for name in stdout["after"]
        },
        "date": time.strftime("%Y-%m-%d"),
    }
    with open(OUT, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
