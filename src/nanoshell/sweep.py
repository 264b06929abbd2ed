"""Sweep runner: radial and wavelength scans with deterministic CSV output.

Rows are split into at most ``workers`` contiguous blocks in declared order,
no more than one per ``MIN_BLOCK_ENTRIES`` entries of work: (l_max + 1) per
row and ``PREPARE_ROWS`` times that per prepared wavelength, so a
wavelength sweep splits at about a quarter of the rows of a radial one.  A
sweep too small for two such blocks runs in-process, and a process that
runs only such sweeps never imports the pool machinery
(``concurrent.futures``, ``multiprocessing``).
The sphere is built once per sweep, when its config is read: building it is
the check of the ``sphere`` entry.  Every block (a process-pool task when
there are several) receives that sphere and evaluates its rows in runs of
up to ``spectro.batch_size(l_max)`` distinct wavelengths: one prepare over a
run's wavelengths, then all its rows closed against it.  A row's result
does not depend on its block or on the wavelengths prepared with it, and
rows are written in declared order, so output bytes are identical across
runs and across worker counts.
Every point of either sweep kind, an explicit grid point or a wavelength
sweep's ``r_over_rs`` at each of its wavelengths, is checked once before any
row (:func:`model.check_points`), and the first bad one raises; default and
linspace grids are nudged off the interfaces and skip the points no host
can take.  Output is only written once the whole sweep has succeeded; a
failure of a row names the first failing row.
"""

import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import materials, model, spectro, transfer
from .errors import ConfigError, DomainError, NanoshellError, annotate

CSV_COLUMNS = (
    "r_over_rs",
    "wavelength_nm",
    "orientation",
    "shift_norm",
    "wt_norm",
    "wrad_norm",
    "wohm_norm",
    "yield",
    "photostability",
    "l_used",
    "converged",
)

DEFAULT_GRID_POINTS = 401
DEFAULT_GRID_MAX = 2.01
DEFAULT_ORIENTATIONS = (model.RADIAL, model.TANGENTIAL, "average")

# grid points closer than this (times outer radius) to an interface are
# nudged outward by NUDGE_FRACTION
MARGIN_FRACTION = 0.001
NUDGE_FRACTION = 0.005

# a sweep gets one process-pool block per this many (row, l) entries of
# work, at most `workers` of them: starting and joining the pool, each
# block's own prepare and a cold worker cost more than half a smaller sweep
# takes in-process.  On a 2-core box (1 worker against a forced two-block
# pool, alternating pairs), 2 workers lost or tied on the default D and B
# radial grids (24,600 and 22,300 entries at l_max 60) and won steadily on
# D's 800-row grid (48,900), on 8 rows at l_max 4000 (44,000) and on C's
# 200-wavelength sweep (48,800)
MIN_BLOCK_ENTRIES = 15000

# a linspace grid may ask for at most this many points
MAX_GRID_POINTS = 10**6

# a prepared wavelength counts as this many rows of (l_max + 1) entries.
# Within a batched prepare one more wavelength costs 0.15-1.5 closed rows
# (lossless to metal presets, l_max 60 to 4000), and a wavelength sweep's
# blocks share no prepare, so its pool pays from fewer rows than a radial
# one: at 2 workers C's wavelength sweeps tied at 100-135 rows and won
# steadily at 200 at l_max 60, and won from 8 rows at 1000 and 2 at 4000;
# 4 (l_max + 1) entries per row first fill two blocks at 123, 8 and 2 rows
PREPARE_ROWS = 3


@dataclass(frozen=True)
class SweepConfig:
    sphere: model.StratifiedSphere
    sweep: str = "radial"
    wavelength_nm: float = 595.0
    grid: object = "default"
    orientations: tuple = DEFAULT_ORIENTATIONS
    r_over_rs: float | None = None
    wavelengths_nm: tuple = ()
    l_max: int = 60
    interface_margin: float = MARGIN_FRACTION
    out: str | None = None
    format: str = "csv"
    plot_dir: str | None = None
    workers: int = 1


_CONFIG_KEYS = {
    "sphere",
    "sweep",
    "wavelength_nm",
    "grid",
    "orientations",
    "r_over_rs",
    "wavelengths_nm",
    "orientation",
    "l_max",
    "quadrature_rtol",
    "interface_margin",
    "out",
    "format",
    "plot_dir",
    "workers",
}


def config_from_dict(raw):
    """Validate a JSON-shaped dict and build its sphere; unknown keys are
    errors."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    sweep = raw.get("sweep", "radial")
    if sweep not in ("radial", "wavelength"):
        raise ConfigError(f"sweep must be 'radial' or 'wavelength', got {sweep!r}")
    if "sphere" not in raw:
        raise ConfigError("config needs a 'sphere' entry (preset name or shell spec)")
    sphere = sphere_from_spec(raw["sphere"])
    orientations = raw.get("orientations")
    if orientations is None:
        single = raw.get("orientation")
        orientations = (single,) if single else DEFAULT_ORIENTATIONS
    if not isinstance(orientations, (list, tuple)) or not orientations:
        raise ConfigError(f"orientations must be a non-empty list, got {orientations!r}")
    for o in orientations:
        if o not in (*model.ORIENTATIONS, "average"):
            raise ConfigError(f"unknown orientation {o!r}")
    if sweep == "wavelength":
        if raw.get("r_over_rs") is None:
            raise ConfigError("wavelength sweep needs 'r_over_rs'")
        if not raw.get("wavelengths_nm"):
            raise ConfigError("wavelength sweep needs a 'wavelengths_nm' list")
    l_max = raw.get("l_max", 60)
    transfer.check_l_max(l_max)
    workers = raw.get("workers", 1)
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")
    wavelengths = raw.get("wavelengths_nm", ())
    if not isinstance(wavelengths, (list, tuple)):
        raise ConfigError(f"wavelengths_nm must be a list, got {wavelengths!r}")
    wavelength_nm = raw.get("wavelength_nm", 595.0)
    _require_finite("wavelength_nm", wavelength_nm, lo=0.0, strict=True)
    _require_finite("wavelengths_nm", *wavelengths, lo=0.0, strict=True)
    margin = raw.get("interface_margin", MARGIN_FRACTION)
    _require_finite("interface_margin", margin, lo=0.0)
    r_over_rs = raw.get("r_over_rs")
    if r_over_rs is not None:
        _require_finite("r_over_rs", r_over_rs, lo=0.0)
    if "quadrature_rtol" in raw:  # accepted for older configs; the engine has no quadrature
        _require_finite("quadrature_rtol", raw["quadrature_rtol"])
    grid = raw.get("grid", "default")
    if isinstance(grid, dict) and "linspace" in grid:
        _check_linspace(grid["linspace"])
    elif isinstance(grid, (list, tuple)):
        _require_finite("grid", *grid)
    fmt = raw.get("format", "csv")
    if fmt not in ("csv", "plot"):
        raise ConfigError(f"format must be 'csv' or 'plot', got {fmt!r}")
    for key in ("out", "plot_dir"):
        path = raw.get(key)
        if not isinstance(path, (str, type(None))) or "\0" in (path or ""):
            raise ConfigError(f"{key} must be a path string or null, got {path!r}")
    out = raw.get("out")
    out_dir = os.path.dirname(out or "") or "."
    if fmt == "csv" and out and (os.path.isdir(out) or not os.path.isdir(out_dir)):
        raise ConfigError(f"out must be a file path in an existing directory, got {out!r}")
    plot_dir = raw.get("plot_dir")
    plot_out = out if fmt == "plot" and not plot_dir else None  # see write_outputs
    for key, path in (("plot_dir", plot_dir), ("out", plot_out)):
        if path and not _makeable_dir(path):
            raise ConfigError(
                f"{key} must be a directory or a path that can become one, got {path!r}"
            )
    return SweepConfig(
        sphere=sphere,
        sweep=sweep,
        wavelength_nm=float(wavelength_nm),
        grid=grid,
        orientations=tuple(orientations),
        r_over_rs=None if r_over_rs is None else float(r_over_rs),
        wavelengths_nm=tuple(float(w) for w in wavelengths),
        l_max=l_max,
        interface_margin=float(margin),
        out=out,
        format=fmt,
        plot_dir=plot_dir,
        workers=int(workers),
    )


def _makeable_dir(path):
    """Whether ``os.makedirs(path, exist_ok=True)`` can find or make a
    directory there: its nearest existing ancestor, ``path`` itself
    included, must be one."""
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    return os.path.isdir(probe)


def _require_finite(name, *values, lo=None, strict=False):
    """Positions, wavelengths and margins must be finite real numbers (a
    bool is not one), and at least ``lo`` (above it if ``strict``), before
    any row runs."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise ConfigError(f"{name} must be a real number, got {v!r}")
        if isinstance(v, int) and abs(v) > sys.float_info.max:
            raise ConfigError(f"{name} is beyond double-precision range, got {v!r}")
        if not math.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v!r}")
        if lo is not None and (v < lo or (strict and v == lo)):
            raise ConfigError(f"{name} must be {'>' if strict else '>='} {lo:g}, got {v!r}")


def _check_linspace(spec):
    if not isinstance(spec, (list, tuple)) or len(spec) != 3:
        raise ConfigError(f"linspace grid needs [lo, hi, n], got {spec!r}")
    lo, hi, n = spec
    _require_finite("linspace bound", lo, hi, lo=0.0)
    whole = isinstance(n, int) or (isinstance(n, float) and n.is_integer())
    if isinstance(n, bool) or not whole or not 1 <= n <= MAX_GRID_POINTS:
        raise ConfigError(
            f"grid linspace point count must be an integer in 1..{MAX_GRID_POINTS}, got {n!r}"
        )


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(raw)


def _material_from_spec(spec):
    """A material: a name, or {"n": n or [re, im]} or {"table": path}, each
    with an optional "mu"; a relative table path is read from
    $NANOSHELL_MATERIAL_DIR when that is set."""
    if isinstance(spec, str):
        return materials.material_by_name(spec)
    if not (isinstance(spec, dict) and ("n" in spec or "table" in spec)):
        raise ConfigError(f"cannot interpret sphere material spec {spec!r}")
    mu = spec.get("mu", 1.0)
    _require_finite("sphere material mu", mu)
    n = spec.get("n", 0.0)
    parts = n if isinstance(n, (list, tuple)) and len(n) == 2 else [n]
    _require_finite("sphere material n", *parts)
    path = spec.get("table", "")
    if not isinstance(path, str):
        raise ConfigError(f"sphere material table must be a path string, got {spec!r}")
    if "n" in spec:
        return materials.constant_index(complex(*parts), mu=mu)
    base = os.environ.get("NANOSHELL_MATERIAL_DIR")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    return materials.load_index_table(path, mu=mu)


def sphere_from_spec(spec):
    """The sphere of a preset name, or of {"shells": [[radius_nm, material],
    ...], "ambient": material} with materials as :func:`_material_from_spec`
    reads them.  Building it is its check: a malformed entry is a
    ConfigError, and a bad radius, material or table the error its build
    raises."""
    if isinstance(spec, str):
        return model.preset(spec)
    shells = spec.get("shells") if isinstance(spec, dict) else None
    if not isinstance(shells, (list, tuple)) or not all(
        isinstance(shell, (list, tuple)) and len(shell) == 2 for shell in shells
    ):
        raise ConfigError(
            f"sphere must be a preset name or {{'shells': [[radius_nm, material], ...]}}, "
            f"got {spec!r}"
        )
    built = []
    for radius, material in shells:
        _require_finite("sphere shell radius", radius)
        built.append((radius, _material_from_spec(material)))
    return model.build_sphere(built, _material_from_spec(spec.get("ambient", "water")))


def _linspace_grid(sphere, lo, hi, n, margin=MARGIN_FRACTION):
    """``n`` r/r_s values over [lo, hi]; a point closer than ``margin`` r_s
    to an interface moves to NUDGE_FRACTION r_s outside it, the first such
    interface in ascending order."""
    vals = np.linspace(float(lo), float(hi), int(n))
    rs = sphere.outer_radius_nm
    near = model.locate(sphere, vals * rs)[1] < margin * rs
    outside = (np.array(sphere.radii)[np.argmax(near, axis=-1)] + NUDGE_FRACTION * rs) / rs
    return np.where(near.any(axis=-1), outside, vals)


def default_grid(sphere, margin=MARGIN_FRACTION):
    """The default r/r_s grid: DEFAULT_GRID_POINTS values over [0,
    DEFAULT_GRID_MAX], nudged as :func:`_linspace_grid` nudges."""
    return _linspace_grid(sphere, 0.0, DEFAULT_GRID_MAX, DEFAULT_GRID_POINTS, margin).tolist()


def resolve_grid(cfg, sphere):
    """r/r_s values of a radial sweep, checked before any row runs: an
    explicit grid's first bad point raises (:func:`model.check_points`);
    default and linspace grids skip, and count on stderr, the points no host
    region can take at the sweep wavelength (:func:`model.unhosted`), and
    then a kept point on an interface raises.  A grid with no point to
    evaluate, empty or every point skipped, raises."""
    grid = cfg.grid
    rs = sphere.outer_radius_nm
    if isinstance(grid, (list, tuple)):
        if not grid:
            raise ConfigError("grid is empty: a radial sweep needs at least one point")
        vals = [float(v) for v in grid]
        model.check_points(sphere, np.array(vals) * rs, cfg.wavelength_nm,
                           grid=vals, margin=cfg.interface_margin)
        return vals
    if grid == "default" or grid is None:
        grid = {"linspace": [0.0, DEFAULT_GRID_MAX, DEFAULT_GRID_POINTS]}
    if not (isinstance(grid, dict) and "linspace" in grid):
        raise ConfigError(f"cannot interpret grid {grid!r}")
    vals = _linspace_grid(sphere, *grid["linspace"], cfg.interface_margin)
    skip = model.unhosted(sphere, model.locate(sphere, vals * rs)[0], cfg.wavelength_nm)
    cause = (f"host region is absorbing, or lossless with Re eps <= 0, at "
             f"{cfg.wavelength_nm:g} nm")
    if skip.all():
        raise ConfigError(f"no grid point to evaluate: skipped all {len(vals)} grid points, "
                          f"whose {cause}")
    if skip.any():
        print(f"note: skipped {skip.sum()} of {len(vals)} grid points whose {cause}",
              file=sys.stderr)
    vals = vals[~skip].tolist()
    model.check_points(sphere, np.array(vals) * rs, cfg.wavelength_nm, grid=vals)
    return vals


@dataclass(frozen=True)
class ResultRow:
    r_over_rs: float
    wavelength_nm: float
    orientation: str
    result: model.SpectroResult


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)
    config: SweepConfig | None = None

    def to_csv(self):
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            r = row.result
            vals = (
                _fmt(row.r_over_rs),
                _fmt(row.wavelength_nm),
                row.orientation,
                _fmt(r.shift_norm),
                _fmt(r.wt_norm),
                _fmt(r.wrad_norm),
                _fmt(r.wohm_norm),
                _fmt(r.fluorescence_yield),
                _fmt(r.photostability),
                str(r.l_used),
                "true" if r.converged else "false",
            )
            lines.append(",".join(vals))
        return "\n".join(lines) + "\n"


def _fmt(x):
    return f"{x:.12g}"


def _wavelength_batches(rows, size):
    """Contiguous runs of rows (r_nm, wavelength) with at most ``size``
    distinct wavelengths each."""
    batch, seen = [], set()
    for row in rows:
        if row[1] not in seen and len(seen) == size:
            yield batch
            batch, seen = [], set()
        batch.append(row)
        seen.add(row[1])
    if batch:
        yield batch


def _evaluate_block(sphere, rows, orientations, l_max):
    """Results of contiguous rows (r_nm, wavelength), one prepare per
    :func:`spectro.batch_size` distinct wavelengths.  After a failure the
    rows are redone one at a time, each with its own one-wavelength prepare,
    so that the error reported is the first failing row's, naming it."""
    out = []
    for batch in _wavelength_batches(rows, spectro.batch_size(l_max)):
        try:
            prepared = transfer.prepare(sphere, [wl for _, wl in batch], l_max)
            out += spectro.evaluate_rows(prepared, batch, orientations)
        except NanoshellError:
            for r, wl in batch:
                try:
                    prepared = transfer.prepare(sphere, [wl], l_max)
                    spectro.evaluate_rows(prepared, [(r, wl)], orientations)
                except NanoshellError as exc:
                    raise annotate(exc, f"while evaluating row r={r:.6g} nm, lambda={wl:.6g} nm")
            raise
    return out


def _start_pool(n_workers):
    """A process pool of ``n_workers``.  The pool machinery is imported here,
    on the first pooled sweep of a process: it costs a fresh process about
    30 ms, which a sweep that runs in-process never pays."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=n_workers)


def block_cuts(n_rows, n_prepares, l_max, workers):
    """Row indices [0, ..., n_rows] that cut a sweep into contiguous blocks
    of near-equal size: at most ``workers`` of them, and no more than one
    per MIN_BLOCK_ENTRIES entries of work, counting (l_max + 1) per row and
    PREPARE_ROWS times that per prepared wavelength."""
    work = (n_rows + n_prepares * PREPARE_ROWS) * (l_max + 1)
    n_blocks = max(1, min(workers, work // MIN_BLOCK_ENTRIES))
    return [n_rows * b // n_blocks for b in range(n_blocks + 1)]


def run_sweep(cfg):
    """One row per (point, orientation), ordered by point then orientation.
    The points of a radial sweep are its grid at ``wavelength_nm``, those of
    a wavelength sweep its wavelengths at ``r_over_rs``; they are evaluated
    in order, in the contiguous blocks of :func:`block_cuts`."""
    sphere = cfg.sphere
    rs = sphere.outer_radius_nm
    if cfg.sweep == "radial":
        points = [(g, g * rs, cfg.wavelength_nm) for g in resolve_grid(cfg, sphere)]
    else:
        points = [(cfg.r_over_rs, cfg.r_over_rs * rs, wl) for wl in cfg.wavelengths_nm]
        model.check_points(sphere, cfg.r_over_rs * rs, cfg.wavelengths_nm,
                           grid=[cfg.r_over_rs] * len(points), margin=cfg.interface_margin)
    both = "average" in cfg.orientations or set(model.ORIENTATIONS) <= set(cfg.orientations)
    orientations = model.ORIENTATIONS if both else cfg.orientations[:1]
    rows = [(r_nm, wl) for _, r_nm, wl in points]
    cuts = block_cuts(len(rows), len({wl for _, wl in rows}), cfg.l_max, cfg.workers)
    if len(cuts) > 2:
        n = len(cuts) - 1
        blocks = [rows[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
        with _start_pool(n) as pool:
            done = pool.map(_evaluate_block, [sphere] * n, blocks, [orientations] * n,
                            [cfg.l_max] * n)
            evaluated = [res for block in done for res in block]
    else:
        evaluated = _evaluate_block(sphere, rows, orientations, cfg.l_max)
    table = ResultTable(config=cfg)
    for (r_rs, _, wl), res in zip(points, evaluated):
        for orientation in cfg.orientations:
            table.rows.append(ResultRow(r_rs, wl, orientation, res[orientation]))
    return table


def write_outputs(table, cfg):
    """Write CSV and/or per-quantity plot files; all-or-nothing.

    format="plot" routes `out` to a plot directory instead of a CSV file.
    """
    if cfg.format == "plot":
        target = cfg.plot_dir or cfg.out
        if target:
            write_plot_files(table, target)
        return
    if cfg.out:
        text = table.to_csv()
        tmp = cfg.out + ".tmp"
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, cfg.out)
    if cfg.plot_dir:
        write_plot_files(table, cfg.plot_dir)


_PLOT_QUANTITIES = {
    "shift": "shift_norm",
    "wt": "wt_norm",
    "wrad": "wrad_norm",
    "wohm": "wohm_norm",
    "yield": "fluorescence_yield",
    "photostability": "photostability",
}


def write_plot_files(table, plot_dir):
    """Two-column whitespace-separated files per quantity per orientation."""
    os.makedirs(plot_dir, exist_ok=True)
    wavelength_sweep = table.config is not None and table.config.sweep == "wavelength"
    by_orientation = {}
    for row in table.rows:
        by_orientation.setdefault(row.orientation, []).append(row)
    for orientation, rows in by_orientation.items():
        for name, attr in _PLOT_QUANTITIES.items():
            path = os.path.join(plot_dir, f"{name}_{orientation}.dat")
            with open(path, "w", encoding="utf-8") as fh:
                for row in rows:
                    x = row.wavelength_nm if wavelength_sweep else row.r_over_rs
                    fh.write(f"{_fmt(x)} {_fmt(getattr(row.result, attr))}\n")


@dataclass
class ConvergenceReport:
    l_values: list
    wt_partial: list
    wrad_partial: list
    shift_partial: list
    wt_order_8digits: int | None
    wrad_order_8digits: int | None

    def lines(self):
        out = [f"{'l':>4s} {'wt_partial':>18s} {'wrad_partial':>18s} {'shift_partial':>18s}"]
        for l, wt, wr, sh in zip(self.l_values, self.wt_partial, self.wrad_partial,
                                 self.shift_partial):
            out.append(f"{l:4d} {wt:18.10e} {wr:18.10e} {sh:18.10e}")
        out.append(
            f"# wt settles to 8 digits at l = {self.wt_order_8digits}; "
            f"wrad at l = {self.wrad_order_8digits} (None = not by l_max)"
        )
        return out


def _settle_order(partial, tol=1e-8):
    """First order from which every later partial sum stays within tol of
    the final value (None if never)."""
    arr = np.asarray(partial)
    final = arr[-1]
    scale = abs(final)
    if scale == 0.0:
        return 1
    dev = np.abs(arr - final) / scale
    bad = np.nonzero(dev > tol)[0]
    if bad.size == 0:
        return 1
    order = int(bad[-1]) + 2  # first settled l (orders are 1-based)
    return order if order <= len(arr) else None


def convergence_report(sphere, dipole, l_max=60):
    """Per-order partial sums of the normalized rates and shift."""
    closure = transfer.solve_dipole_fields(sphere, dipole, l_max)
    wt, shift, wrad, _ = (x[0, 0] for x in spectro.partial_sums(closure))
    return ConvergenceReport(
        l_values=list(range(1, l_max + 1)),
        wt_partial=[float(v) for v in wt],
        wrad_partial=[float(v) for v in wrad],
        shift_partial=[float(v) for v in shift],
        wt_order_8digits=_settle_order(wt),
        wrad_order_8digits=_settle_order(wrad),
    )
