"""Monte-Carlo benchmarking of the smoothing selectors.

A small zoo of circular models with exact densities, a replicate runner
that scores every selector against the realized integrated squared
error, and league-table emitters.  Replicate streams are derived from
(seed, replicate index), so results do not depend on execution order.
"""

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .estimators import grid_ise, truth_on_ise_grid
from .kernels import KernelSpec
from .mixture import MixtureModel, mixture_density, mixture_sample
from .selectors import _SOFT_ERRORS, SelectorConfig, select_gold
from .selectors import SELECTORS as _SELECTOR_FNS

__all__ = [
    "ModelSpec",
    "SimResult",
    "builtin_models",
    "realized_ise",
    "run_monte_carlo",
    "emit_table",
]


@dataclass(frozen=True)
class ModelSpec:
    """A named truth: exact density plus a seeded sampler."""

    name: str
    density: object
    sampler: object


@dataclass(frozen=True)
class SimResult:
    model: str
    selector: str
    n: int
    replicates: int
    mean_ise: float
    sd_ise: float
    mc_stderr: float
    seed: int
    fallback_count: int = 0
    error_count: int = 0

    def to_dict(self):
        return asdict(self)


def _mixture_model(name, weights, mus, kappa):
    m = MixtureModel(len(weights), mus, kappa, weights)
    return ModelSpec(
        name=name, density=partial(mixture_density, m), sampler=partial(mixture_sample, m)
    )


def builtin_models():
    """The benchmark zoo: uniform (kappa = 0), one unimodal von Mises, two
    balanced mixtures, and a skewed mixture with one kappa per component."""
    two_thirds = 2.0 * np.pi / 3.0
    return [
        _mixture_model("U", [1.0], [0.0], 0.0),
        _mixture_model("VM2", [1.0], [0.0], 2.0),
        _mixture_model("VM-MIX2", [0.5, 0.5], [0.0, np.pi], 8.0),
        _mixture_model("VM-MIX3", [1 / 3, 1 / 3, 1 / 3], [0.0, two_thirds, -two_thirds], 10.0),
        _mixture_model("SKEW", [0.75, 0.25], [0.0, 1.5], [1.0, 6.0]),
    ]


def realized_ise(sample, family, nu, density):
    """Integrated squared error of the KDE at concentration nu against the
    known density, by the periodic trapezoid rule on grid_ise's 2048-point
    equispaced grid (spectrally accurate for these smooth integrands).
    ``density`` is a callable or its values on that grid.

    One row of grid_ise: computed exactly by discrete Parseval from the
    kernel weights and the sample moments, or by the direct grid sum for
    the wrapped Epanechnikov."""
    return float(grid_ise(sample, [KernelSpec.from_nu(family, nu)], density)[0])


def run_monte_carlo(model, selectors, n, replicates, seed=0, nu_grid=None, cfg=None):
    """Score the named selectors (gold standard always included) on
    ``replicates`` fresh samples of size n from the model.

    Per-replicate RNG streams are seeded by (seed, replicate index).  The
    model density is evaluated once on grid_ise's grid, and the gold
    standard and every realized ISE reuse those values.
    Selector fallbacks are counted; a numeric selector error (a soft error
    or ValueError) is counted and that replicate is excluded from the
    selector's average.  Any other exception propagates.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be positive, got {replicates}")
    cfg = cfg or SelectorConfig()
    labels = list(selectors)
    for name in labels:
        if name not in _SELECTOR_FNS and name != "gs":
            raise ValueError(f"unknown selector {name!r}")
    if "gs" not in labels:
        labels.append("gs")

    ises = {name: [] for name in labels}
    fallbacks = {name: 0 for name in labels}
    errors = {name: 0 for name in labels}
    truth = truth_on_ise_grid(model.density)

    for r in range(replicates):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        sample = model.sampler(rng, n)
        for name in labels:
            try:
                if name == "gs":
                    sel = select_gold(sample, truth, cfg, grid=nu_grid)
                else:
                    sel = _SELECTOR_FNS[name](sample, cfg)
                value = realized_ise(sample, cfg.kernel_family, sel.nu, truth)
            except _SOFT_ERRORS + (ValueError,):
                errors[name] += 1
                continue
            if sel.fallback_uniform:
                fallbacks[name] += 1
            ises[name].append(value)

    out = []
    for name in labels:
        vals = np.asarray(ises[name])
        mean = float(np.mean(vals)) if len(vals) else math.nan
        sd = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        stderr = sd / math.sqrt(len(vals)) if len(vals) else math.nan
        out.append(
            SimResult(
                model=model.name,
                selector=name,
                n=n,
                replicates=replicates,
                mean_ise=mean,
                sd_ise=sd,
                mc_stderr=stderr,
                seed=seed,
                fallback_count=fallbacks[name],
                error_count=errors[name],
            )
        )
    return out


def _table_cells(results):
    """Group results into (model rows, selector columns, cell lookup)."""
    models, selectors = [], []
    cells = {}
    for res in results:
        if res.model not in models:
            models.append(res.model)
        if res.selector not in selectors:
            selectors.append(res.selector)
        cells[(res.model, res.selector)] = res
    return models, selectors, cells


def _format_cell(res):
    return f"{100.0 * res.mean_ise:.3f} ({100.0 * res.sd_ise:.3f})"


def emit_table(results, format="markdown"):
    """League table over (model, selector) cells: mean (sd) of ISE x 100 to
    3 decimals.  Markdown bolds each row's smallest finite mean."""
    results = list(results)
    if not results:
        raise ValueError("no results to tabulate")
    models, selectors, cells = _table_cells(results)

    if format == "json":
        return json.dumps([r.to_dict() for r in results], indent=2)

    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["model"] + selectors)
        for model in models:
            row = [model]
            for sel in selectors:
                res = cells.get((model, sel))
                row.append(_format_cell(res) if res else "")
            writer.writerow(row)
        return buf.getvalue()

    if format == "markdown":
        lines = ["| model | " + " | ".join(selectors) + " |"]
        lines.append("|" + " --- |" * (len(selectors) + 1))
        for model in models:
            means = [cells[(model, s)].mean_ise for s in selectors if (model, s) in cells]
            best = min(filter(math.isfinite, means), default=None)
            row = [model]
            for sel in selectors:
                res = cells.get((model, sel))
                if res is None:
                    row.append("")
                elif res.mean_ise == best:
                    row.append(f"**{_format_cell(res)}**")
                else:
                    row.append(_format_cell(res))
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"

    raise ValueError(f"unknown table format {format!r}")
