"""Write the reference fingerprints the benchmark checks every op against.

Run from the repository root on the commit whose outputs are the
reference, one workload at a time:

    OPENBLAS_NUM_THREADS=1 python3 bench/make_reference.py --workload mc-zoo

It evaluates every pool entry of the workload (every replicate seed of
every model, every large-n sample, every CLI command) and writes
``bench/reference/<workload>.json``.
"""

import argparse
import json
import subprocess
import sys
import time

import workloads
from worker import import_package, run_cli_subprocess
from workloads import REFERENCE_DIR


def mc_reference(pkg):
    zoo = workloads.McZoo(pkg)
    cells = {}
    for model in workloads.MC_MODELS:
        cells[model] = [zoo.run((model, k)) for k in range(workloads.MC_POOL)]
        errors = sum(c["errors"] for out in cells[model] for c in out.values())
        print(f"{model}: {workloads.MC_POOL} replicates, {errors} selector errors", flush=True)
    return {
        "n": workloads.MC_N,
        "selectors": list(workloads.MC_SELECTORS),
        "pool_size": workloads.MC_POOL,
        "cells": cells,
    }


def large_reference(pkg):
    large = workloads.LargeN(pkg)
    samples = [large.run(k) for k in range(workloads.LARGE_POOL)]
    fallbacks = sum(s["dpi"]["fallback_uniform"] for s in samples)
    print(f"large-n: {len(samples)} samples, DPI fell back to uniform on {fallbacks}")
    return {"n": workloads.LARGE_N, "pool_size": workloads.LARGE_POOL, "samples": samples}


def cli_reference(_pkg):
    commands = {}
    for command in workloads.CLI_COMMANDS:
        out, error, _, _ = run_cli_subprocess(command)
        if error:
            raise SystemExit(f"{command}: {error}")
        commands[command] = out
    return {"commands": commands}


BUILDERS = {"mc-zoo": mc_reference, "large-n": large_reference, "cli-crash": cli_reference}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    args = parser.parse_args()
    pkg, _ = import_package()
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, check=False
    ).stdout.strip()
    t0 = time.perf_counter()
    body = BUILDERS[args.workload](pkg)
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(REFERENCE_DIR / f"{args.workload}.json", "w") as fh:
        json.dump({"workload": args.workload, "commit": commit, **body}, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {args.workload} reference in {time.perf_counter() - t0:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
