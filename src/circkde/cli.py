"""Command-line front end.

Subcommands: select (smoothing selection as JSON), density (KDE grid as
CSV), modes (mode/antimode report from the derivative estimate), and
simulate (Monte-Carlo league tables).  Angles are ingested from text
files in radians, degrees, or clock time; clock time maps 00:00 to -pi
so that noon sits at angle zero.
"""

import argparse
import csv
import dataclasses
import enum
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from .errors import FitError, ToleranceError
from .estimators import CircularSample, DensityGrid, default_grid, kde_values
from .kernels import KernelFamily, KernelSpec, wrap_angle
from .selectors import SELECTORS, SelectorConfig
from .simulate import builtin_models, emit_table, run_monte_carlo
from .special import find_root

__all__ = [
    "AngleFormat",
    "IngestSpec",
    "ModeReport",
    "CliError",
    "read_angles",
    "angle_to_clock",
    "cmd_select",
    "cmd_density",
    "cmd_modes",
    "cmd_simulate",
    "main",
]

_MINUTES_PER_DAY = 1440.0


class AngleFormat(str, enum.Enum):
    RADIANS = "radians"
    DEGREES = "degrees"
    HHMM = "hhmm"
    MINUTES = "minutes"


@dataclass(frozen=True)
class IngestSpec:
    """Where the angles come from and how to read them."""

    path: str
    format: AngleFormat = AngleFormat.RADIANS
    column: str | None = None


@dataclass(frozen=True)
class ModeReport:
    """Sign-change analysis of the density derivative estimate.

    ``modes`` and ``antimodes`` are (angle, clock string) pairs; the
    clock entry is None unless the input was time-based.  An empty
    report with ``uniform`` set means the derivative estimate has no
    sign change, as for the uniform density that a selector picked or
    fell back to.
    """

    modes: tuple
    antimodes: tuple
    deriv_grid: DensityGrid
    uniform: bool = False

    def to_json(self):
        def pairs(items):
            return [{"angle": a, "clock": c} for a, c in items]

        return json.dumps(
            {
                "modes": pairs(self.modes),
                "antimodes": pairs(self.antimodes),
                "uniform": self.uniform,
            }
        )


class CliError(Exception):
    """Structured failure: JSON payload on stderr, nonzero exit."""

    def __init__(self, kind, message, line=None, exit_code=1):
        super().__init__(message)
        self.kind = kind
        self.line = line
        self.exit_code = exit_code

    def payload(self):
        body = {"type": self.kind, "message": str(self)}
        if self.line is not None:
            body["line"] = self.line
        return {"error": body}


def _minutes_to_angle(t):
    return 2.0 * np.pi * t / _MINUTES_PER_DAY - np.pi


def angle_to_clock(theta):
    """Nearest-minute clock string for an angle (00:00 at -pi)."""
    t = int(round((theta + np.pi) * _MINUTES_PER_DAY / (2.0 * np.pi))) % 1440
    return f"{t // 60:02d}:{t % 60:02d}"


def _parse_token(token, fmt, lineno):
    token = token.strip()
    if fmt == AngleFormat.HHMM:
        parts = token.split(":")
        if len(parts) != 2:
            raise CliError("parse", f"expected HH:MM, got {token!r}", line=lineno, exit_code=2)
        try:
            hours, minutes = int(parts[0]), int(parts[1])
        except ValueError:
            raise CliError("parse", f"expected HH:MM, got {token!r}", line=lineno, exit_code=2)
        if not (0 <= hours < 24 and 0 <= minutes < 60):
            raise CliError("parse", f"clock time out of range: {token!r}", line=lineno, exit_code=2)
        return _minutes_to_angle(60.0 * hours + minutes)
    try:
        value = float(token)
    except ValueError:
        raise CliError("parse", f"not a number: {token!r}", line=lineno, exit_code=2)
    if fmt == AngleFormat.DEGREES:
        return np.pi * value / 180.0
    if fmt == AngleFormat.MINUTES:
        return _minutes_to_angle(value)
    return value


def read_angles(ingest):
    """Parse the input file into angles in [-pi, pi).

    Lines that are blank or start with '#' are skipped.  With a named
    column the first row is treated as a header.
    """
    fmt = AngleFormat(ingest.format)
    try:
        with open(ingest.path, newline="") as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise CliError("io", f"cannot read {ingest.path}: {exc}")
    except UnicodeDecodeError as exc:
        raise CliError("parse", f"{ingest.path} is not UTF-8 text: {exc}", exit_code=2)

    col_index = None
    header_pending = False
    if ingest.column is not None:
        try:
            col_index = int(ingest.column)
        except ValueError:
            header_pending = True
        if col_index is not None and col_index < 0:
            raise CliError(
                "usage", f"column index must be nonnegative, got {col_index}", exit_code=2
            )

    angles = []
    for lineno, line in enumerate(raw, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = next(csv.reader([text]))
        if header_pending:
            if ingest.column not in fields:
                raise CliError(
                    "parse",
                    f"column {ingest.column!r} not in header {fields}",
                    line=lineno,
                    exit_code=2,
                )
            col_index = fields.index(ingest.column)
            header_pending = False
            continue
        idx = col_index or 0
        if idx >= len(fields):
            raise CliError("parse", f"line has no column {idx}", line=lineno, exit_code=2)
        angles.append(_parse_token(fields[idx], fmt, lineno))
    if len(angles) < 2:
        raise CliError("input", f"need at least 2 observations, got {len(angles)}", exit_code=2)
    return wrap_angle(np.asarray(angles, dtype=float))


def _load_sample(ingest):
    return CircularSample.from_data(read_angles(ingest))


def _selector(method):
    try:
        return SELECTORS[method]
    except KeyError:
        raise CliError("usage", f"unknown selector {method!r}", exit_code=2) from None


def cmd_select(ingest, cfg, method):
    """Run the named selector on the ingested sample."""
    select = _selector(method)
    return select(_load_sample(ingest), cfg)


def cmd_density(ingest, cfg, method, grid_size=512, deriv_order=0, out_path=None, nu=None):
    """Write the density (or derivative) estimate on an equispaced grid as
    CSV with metadata comments, 9 significant digits.

    With a forced ``nu`` no selector runs, so ``cfg`` may be just the
    KernelFamily of the estimate: every family evaluates, including those
    without the asymptotic constants a SelectorConfig requires.
    """
    sample = _load_sample(ingest)
    if nu is not None:
        if not 0.0 <= nu < 1.0:
            raise CliError("usage", f"nu must be in [0, 1), got {nu}", exit_code=2)
        chosen_nu, method_label, fallback = float(nu), "forced", False
    else:
        sel = _selector(method)(sample, cfg)
        chosen_nu, method_label, fallback = sel.nu, method, sel.fallback_uniform

    family = cfg if isinstance(cfg, KernelFamily) else cfg.kernel_family
    grid = default_grid(grid_size)
    spec = KernelSpec.from_nu(family, chosen_nu)
    values = kde_values(sample, spec, grid, deriv_order=deriv_order)

    buf = io.StringIO()
    buf.write("# circkde density estimate\n")
    buf.write(f"# method: {method_label}\n")
    buf.write(f"# kernel: {family.value}\n")
    buf.write(f"# nu: {chosen_nu:.9g}\n")
    buf.write(f"# n: {sample.n}\n")
    buf.write(f"# deriv_order: {deriv_order}\n")
    buf.write(f"# fallback_uniform: {str(fallback).lower()}\n")
    buf.write("theta,value\n")
    for t, v in zip(grid, values):
        buf.write(f"{t:.9g},{v:.9g}\n")
    text = buf.getvalue()
    if out_path is not None:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError("io", f"cannot write {out_path}: {exc}")
    return text


def cmd_modes(ingest, cfg, method):
    """Locate modes and antimodes from the derivative estimate.

    The smoothing is selected for the first derivative; sign changes of
    the estimate on a 2880-point grid (one per 30 seconds of clock time)
    are refined to 1e-6 rad by find_root from the grid values.
    """
    select = _selector(method)
    cfg = dataclasses.replace(cfg, r=1)
    sample = _load_sample(ingest)
    sel = select(sample, cfg)
    spec = KernelSpec.from_nu(cfg.kernel_family, sel.nu)
    grid = default_grid(2880)
    deriv = kde_values(sample, spec, grid, deriv_order=1)
    dg = DensityGrid(thetas=grid, values=deriv, deriv_order=1, sample=sample, kernel=spec)

    def deriv_at(theta):
        return kde_values(sample, spec, theta, deriv_order=1)

    time_based = AngleFormat(ingest.format) in (AngleFormat.HHMM, AngleFormat.MINUTES)
    scale = float(np.max(np.abs(deriv)))
    if scale == 0.0:  # the uniform density, picked or fallen back to
        return ModeReport(modes=(), antimodes=(), deriv_grid=dg, uniform=True)

    # labelled crossings in circular order; crossings where both sides sit at
    # the numerical noise floor are phantoms from catastrophic cancellation
    floor = 1e-9 * scale
    crossings = []
    m = len(grid)
    step = 2.0 * np.pi / m
    dens = None
    for i in range(m):
        a, b = deriv[i], deriv[(i + 1) % m]
        if a == 0.0 or (a > 0) == (b > 0):
            continue
        if max(abs(a), abs(b)) < floor:
            continue
        lo = grid[i]
        root = float(wrap_angle(find_root(deriv_at, lo, lo + step, tol=1e-6, g_lo=a, g_hi=b)))
        crossings.append((root, "mode" if a > 0 else "anti"))
    if not crossings:
        return ModeReport(modes=(), antimodes=(), deriv_grid=dg, uniform=True)

    crossings.sort()
    # a flat stretch can swallow one side of a pair; restore alternation by
    # placing the missing extremum at the density extremum of the gap
    balanced = []
    k = len(crossings)
    for idx, (root, kind) in enumerate(crossings):
        balanced.append((root, kind))
        nxt_root, nxt_kind = crossings[(idx + 1) % k]
        if kind == nxt_kind:
            if dens is None:
                dens = kde_values(sample, spec, grid)
            lo_i = int(np.searchsorted(grid, root))
            hi_i = int(np.searchsorted(grid, nxt_root)) + (m if idx + 1 == k else 0)
            span = np.arange(lo_i, max(hi_i, lo_i + 1)) % m
            vals = dens[span]
            ties = np.flatnonzero(vals == (vals.min() if kind == "mode" else vals.max()))
            pick = span[ties[len(ties) // 2]]
            balanced.append((float(grid[pick]), "anti" if kind == "mode" else "mode"))
    modes = [r for r, kind in balanced if kind == "mode"]
    antimodes = [r for r, kind in balanced if kind == "anti"]
    clock = angle_to_clock if time_based else (lambda _theta: None)
    return ModeReport(
        modes=tuple((r, clock(r)) for r in sorted(modes)),
        antimodes=tuple((r, clock(r)) for r in sorted(antimodes)),
        deriv_grid=dg,
        uniform=False,
    )


def cmd_simulate(models, selectors, ns, replicates, seed=0, out_prefix=None, cfg=None):
    """Run the Monte-Carlo harness over the chosen models and sample
    sizes; returns (csv text, markdown text) and optionally writes both."""
    zoo = {m.name: m for m in builtin_models()}
    unknown = [name for name in models if name not in zoo]
    if unknown:
        raise CliError("usage", f"unknown models {unknown}; have {sorted(zoo)}", exit_code=2)
    for name in selectors:
        if name != "gs":
            _selector(name)
    results = []
    for name in models:
        for n in ns:
            batch = run_monte_carlo(
                zoo[name], selectors, n=n, replicates=replicates, seed=seed, cfg=cfg
            )
            if len(ns) > 1:
                # one table row per (model, n) pair
                batch = [dataclasses.replace(r, model=f"{name} (n={n})") for r in batch]
            results.extend(batch)
    csv_text = emit_table(results, "csv")
    md_text = emit_table(results, "markdown")
    if out_prefix is not None:
        try:
            with open(f"{out_prefix}.csv", "w") as fh:
                fh.write(csv_text)
            with open(f"{out_prefix}.md", "w") as fh:
                fh.write(md_text)
        except OSError as exc:
            raise CliError("io", f"cannot write {out_prefix}.*: {exc}")
    return csv_text, md_text


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are the CLI's JSON error object
    on stderr, with exit code 2 as argparse's own."""

    def error(self, message):
        sys.stderr.write(json.dumps(CliError("usage", message).payload()) + "\n")
        raise SystemExit(2)


def _count(minimum):
    """argparse type: an integer of at least ``minimum``, so that a count
    out of range is a usage error like a malformed one."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _counts(minimum):
    """argparse type: a comma list of integers of at least ``minimum``."""
    parse = _count(minimum)
    return lambda text: [parse(s) for s in text.split(",") if s]


def _build_parser():
    parser = _Parser(
        prog="circkde",
        description="Circular kernel density estimation with data-driven smoothing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True):
        if with_input:
            p.add_argument("input", help="text/CSV file of angles or clock times")
            p.add_argument(
                "--format",
                choices=[f.value for f in AngleFormat],
                default="radians",
                help="how to interpret the input values",
            )
            p.add_argument("--column", default=None, help="CSV column name or index")
        p.add_argument("--kernel", default="vonmises", help="kernel family for the estimate")
        p.add_argument("--pilot-kernel", default="vonmises", help="pilot kernel family")
        p.add_argument("--nstage", type=int, default=2)
        p.add_argument("--mmax", type=int, default=1)
        p.add_argument("--exact-inversion", action="store_true")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)

    p_select = sub.add_parser("select", help="choose the smoothing parameter")
    add_common(p_select)

    p_density = sub.add_parser("density", help="write a density/derivative grid")
    add_common(p_density)
    p_density.add_argument("--grid-size", type=_count(2), default=512)
    p_density.add_argument("--nu", type=float, default=None, help="skip selection, force this nu")

    p_modes = sub.add_parser("modes", help="report modes and antimodes")
    add_common(p_modes)
    # modes smooths for the first derivative, so its config is checked at r = 1
    p_modes.set_defaults(deriv_order=1)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo selector benchmark")
    add_common(p_sim, with_input=False)
    p_sim.add_argument("--models", default="U,VM2,VM-MIX2,VM-MIX3,SKEW")
    p_sim.add_argument("--selectors", default="rt,dpi,ste")
    p_sim.add_argument("--n", type=_counts(1), default="100")
    p_sim.add_argument("--replicates", type=_count(1), default=100)

    # each flag only where it is read, so that argparse rejects it elsewhere:
    # modes always smooths for the first derivative, simulate runs the
    # selectors named by --selectors
    for p in (p_select, p_density, p_modes):
        p.add_argument("--method", choices=sorted(SELECTORS), default="dpi")
    for p in (p_select, p_density, p_sim):
        p.add_argument("--deriv-order", type=_count(0), default=0)

    return parser


def _config_from_args(args):
    try:
        return SelectorConfig(
            kernel_family=KernelFamily(args.kernel),
            pilot_family=KernelFamily(args.pilot_kernel),
            r=args.deriv_order,
            nstage=args.nstage,
            M_max=args.mmax,
            exact_inversion=args.exact_inversion,
            seed=args.seed,
        )
    except ValueError as exc:
        raise CliError("usage", str(exc), exit_code=2)


def _family_from_args(args):
    try:
        return KernelFamily(args.kernel)
    except ValueError as exc:
        raise CliError("usage", str(exc), exit_code=2)


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError("io", f"cannot write {out_path}: {exc}")


# failures of the numbers, reported as the JSON error object with exit 1;
# any other exception is a bug and propagates with its traceback
_NUMERIC_ERRORS = (ValueError, ArithmeticError, ToleranceError, FitError)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "select":
            ingest = IngestSpec(args.input, AngleFormat(args.format), args.column)
            sel = cmd_select(ingest, _config_from_args(args), args.method)
            _emit(sel.to_json(), args.out)
        elif args.command == "density":
            ingest = IngestSpec(args.input, AngleFormat(args.format), args.column)
            # a forced nu runs no selector, which is what a SelectorConfig checks for
            cfg = _config_from_args(args) if args.nu is None else _family_from_args(args)
            text = cmd_density(
                ingest,
                cfg,
                args.method,
                grid_size=args.grid_size,
                deriv_order=args.deriv_order,
                out_path=args.out,
                nu=args.nu,
            )
            if args.out is None:
                sys.stdout.write(text)
        elif args.command == "modes":
            ingest = IngestSpec(args.input, AngleFormat(args.format), args.column)
            report = cmd_modes(ingest, _config_from_args(args), args.method)
            _emit(report.to_json(), args.out)
        elif args.command == "simulate":
            cfg = _config_from_args(args)
            models = [s for s in args.models.split(",") if s]
            selectors = [s for s in args.selectors.split(",") if s]
            csv_text, md_text = cmd_simulate(
                models,
                selectors,
                args.n,
                args.replicates,
                seed=args.seed,
                out_prefix=args.out,
                cfg=cfg,
            )
            if args.out is None:
                sys.stdout.write(md_text)
    except CliError as exc:
        sys.stderr.write(json.dumps(exc.payload()) + "\n")
        return exc.exit_code
    except _NUMERIC_ERRORS as exc:
        sys.stderr.write(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}) + "\n"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
