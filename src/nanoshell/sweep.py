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
run's wavelengths, then its rows closed against it, as many at once as
``spectro.close_size`` allows for the sphere's regions.  A block returns
its outputs as (orientation, row) arrays, and the sweep keeps them as
columns (:class:`ResultTable`): the CSV and plot files are written from
them with one line format per row, and per-row result objects are built
only when a caller reads ``.rows``.  A row's result does not depend on its
block or on the wavelengths prepared with it, and rows are written in
declared order, so output bytes are identical across runs and across
worker counts.
Everything a sweep's rows depend on is read and checked once, before any
row and before a pool starts, walking its distinct wavelengths in declared
order (:func:`_check_points`): at each, every region's material is read,
then the points are checked against that read (:func:`model.check_points`),
then the Riccati arguments of their rows' tables; the first bad input
raises.  Default and linspace grids are nudged off the interfaces and skip
the points no host can take.  So a row can fail only numerically, and then
names the first failing row.  Output is only written once the whole sweep
has succeeded.
"""

import functools
import itertools
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import materials, model, specfun, spectro, transfer
from .errors import ConfigError, DomainError, NanoshellError

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


def _check_points(sphere, ctxs, grid, l_max, margin):
    """Check the points at r/r_s values ``grid`` (a list) at the wavelength
    of each layer context of ``ctxs`` in turn, against that read of every
    region's material (:func:`transfer.layer_context`): at each, the points
    as :func:`model.check_points` checks them with the read's host
    permittivities, then the Riccati arguments of their rows
    (:func:`transfer.table_arguments`).  The first bad one raises."""
    r = np.tile(np.array(grid) * sphere.outer_radius_nm, len(ctxs))
    w = np.repeat(np.arange(len(ctxs)), len(grid))
    z, rho, rejected = transfer.table_arguments(ctxs, l_max, model.locate(sphere, r)[0], r, w)
    first = int(np.argmax(rejected))
    # the points at every wavelength up to the first rejected row's come first
    n = (w[first] + 1) * len(grid) if rejected[first] else len(r)
    eps = np.array([c.eps for c in ctxs])
    wavelengths = np.array([c.wavelength_nm for c in ctxs])
    model.check_points(sphere, r[:n], wavelengths[w[:n]], lambda h: eps[w[:n], h - 1],
                       grid=grid * len(ctxs), margin=margin)
    if rejected[first]:  # the arguments of that row's own tables, with their error
        specfun._validate(l_max, np.append(z[w[first]], rho[first] if r[first] else []))


def resolve_grid(cfg, sphere):
    """r/r_s values of a radial sweep, checked at the sweep wavelength
    (:func:`_check_points`) before any row runs: an explicit grid's first
    bad point raises; default and linspace grids skip, and count on stderr,
    the points no host region can take there (:func:`model.no_host`), and
    then a kept point on an interface raises.  A grid with no point to
    evaluate, empty or every point skipped, raises."""
    grid = cfg.grid
    if isinstance(grid, (list, tuple)):
        if not grid:
            raise ConfigError("grid is empty: a radial sweep needs at least one point")
        vals = [float(v) for v in grid]
        ctx = transfer.layer_context(sphere, cfg.wavelength_nm)
        _check_points(sphere, [ctx], vals, cfg.l_max, cfg.interface_margin)
        return vals
    if grid == "default" or grid is None:
        grid = {"linspace": [0.0, DEFAULT_GRID_MAX, DEFAULT_GRID_POINTS]}
    if not (isinstance(grid, dict) and "linspace" in grid):
        raise ConfigError(f"cannot interpret grid {grid!r}")
    vals = _linspace_grid(sphere, *grid["linspace"], cfg.interface_margin)
    ctx = transfer.layer_context(sphere, cfg.wavelength_nm)
    host = model.locate(sphere, vals * sphere.outer_radius_nm)[0]
    skip = model.no_host(np.array(ctx.eps)[host - 1])
    cause = (f"host region is absorbing, or lossless with Re eps <= 0, at "
             f"{cfg.wavelength_nm:g} nm")
    if skip.all():
        raise ConfigError(f"no grid point to evaluate: skipped all {len(vals)} grid points, "
                          f"whose {cause}")
    if skip.any():
        print(f"note: skipped {skip.sum()} of {len(vals)} grid points whose {cause}",
              file=sys.stderr)
    vals = vals[~skip].tolist()
    _check_points(sphere, [ctx], vals, cfg.l_max, 0.0)
    return vals


@dataclass(frozen=True)
class ResultRow:
    r_over_rs: float
    wavelength_nm: float
    orientation: str
    result: model.SpectroResult


# one CSV line, each number at 12 significant digits, and the result fields
# of its columns from shift_norm to photostability
_CSV_LINE = "%.12g,%.12g,%s,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%d,%s\n"
_CSV_FIELDS = ("shift_norm", "wt_norm", "wrad_norm", "wohm_norm", "fluorescence_yield",
               "photostability")


@dataclass(eq=False)
class ResultTable:
    """A sweep's results as columns: its points (r/r_s, wavelength [nm]) in
    order, the orientation names closed and per :class:`model.SpectroResult`
    field an (orientation, point) array (:func:`spectro.observe_rows`).  Its
    rows are the points in order, each in the config's orientations."""

    config: SweepConfig
    points: list
    names: tuple
    columns: dict

    @property
    def n_rows(self):
        """The number of rows, counted without building them."""
        return len(self.points) * len(self.config.orientations)

    @functools.cached_property
    def rows(self):
        """The rows as :class:`ResultRow` objects, built on first use."""
        results = spectro.as_results(self.names, self.columns, self.config.l_max)
        return [ResultRow(r, wl, o, res[o]) for (r, wl), res in zip(self.points, results)
                for o in self.config.orientations]

    def _by_row(self, name):
        """One field's values in row order."""
        pick = [self.names.index(o) for o in self.config.orientations]
        return self.columns[name][pick].T.ravel().tolist()

    def to_csv(self):
        cfg = self.config
        r, wl = zip(*[point for point in self.points for _ in cfg.orientations])
        rows = zip(r, wl, cfg.orientations * len(self.points), *map(self._by_row, _CSV_FIELDS),
                   itertools.repeat(cfg.l_max),
                   [("false", "true")[c] for c in self._by_row("converged")])
        return ",".join(CSV_COLUMNS) + "\n" + "".join([_CSV_LINE % row for row in rows])


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


def _evaluate_block(sphere, rows, orientations, l_max, contexts):
    """The outputs of contiguous rows (r_nm, wavelength), each checked
    before any row (:func:`run_sweep`), as :func:`spectro.observe_rows`
    gives them, one prepare per :func:`spectro.batch_size` distinct
    wavelengths, with their layer ``contexts`` (wavelength -> context) when
    given.  What can still fail is numerical, and names its first failing row."""
    parts = []
    for batch in _wavelength_batches(rows, spectro.batch_size(l_max)):
        # the previous prepare is freed only once this one is built, as in
        # spectro.observe_rows
        prepared = transfer.prepare(sphere, [wl for _, wl in batch], l_max, contexts)
        parts.append(spectro.observe_rows(prepared, batch, orientations))
    return spectro.join_columns(parts)


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
    a wavelength sweep its wavelengths at ``r_over_rs``; every point is
    checked at each distinct wavelength in declared order
    (:func:`_check_points`), and then they are evaluated in order, in the
    contiguous blocks of :func:`block_cuts`."""
    sphere = cfg.sphere
    rs = sphere.outer_radius_nm
    contexts = None  # a radial sweep's one prepare reads its wavelength again
    if cfg.sweep == "radial":
        points = [(g, g * rs, cfg.wavelength_nm) for g in resolve_grid(cfg, sphere)]
    else:
        ctxs, failure = [], None
        for wl in dict.fromkeys(cfg.wavelengths_nm):
            try:
                ctxs.append(transfer.layer_context(sphere, wl))
            except NanoshellError as exc:  # raised once the wavelengths read are checked
                failure = exc
                break
        if ctxs:
            _check_points(sphere, ctxs, [cfg.r_over_rs], cfg.l_max, cfg.interface_margin)
        if failure:
            raise failure
        points = [(cfg.r_over_rs, cfg.r_over_rs * rs, wl) for wl in cfg.wavelengths_nm]
        contexts = {c.wavelength_nm: c for c in ctxs}
    both = "average" in cfg.orientations or set(model.ORIENTATIONS) <= set(cfg.orientations)
    orientations = model.ORIENTATIONS if both else cfg.orientations[:1]
    rows = [(r_nm, wl) for _, r_nm, wl in points]
    cuts = block_cuts(len(rows), len({wl for _, wl in rows}), cfg.l_max, cfg.workers)
    if len(cuts) > 2:
        n = len(cuts) - 1
        blocks = [rows[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
        with _start_pool(n) as pool:
            done = pool.map(_evaluate_block, [sphere] * n, blocks, [orientations] * n,
                            [cfg.l_max] * n, [contexts] * n)
            names, columns = spectro.join_columns(list(done))
    else:
        names, columns = _evaluate_block(sphere, rows, orientations, cfg.l_max, contexts)
    return ResultTable(cfg, [(r_rs, wl) for r_rs, _, wl in points], names, columns)


def write_outputs(table, cfg):
    """Write CSV and/or per-quantity plot files; all-or-nothing.  Returns
    the path the rows went to: the CSV file, else the plot directory, None
    when neither is written.

    format="plot" routes `out` to a plot directory instead of a CSV file.
    """
    if cfg.format == "plot":
        target = cfg.plot_dir or cfg.out
        if target:
            write_plot_files(table, target)
        return target
    if cfg.out:
        text = table.to_csv()
        tmp = cfg.out + ".tmp"
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, cfg.out)
    if cfg.plot_dir:
        write_plot_files(table, cfg.plot_dir)
    return cfg.out or cfg.plot_dir


_PLOT_QUANTITIES = {
    "shift": "shift_norm",
    "wt": "wt_norm",
    "wrad": "wrad_norm",
    "wohm": "wohm_norm",
    "yield": "fluorescence_yield",
    "photostability": "photostability",
}


def write_plot_files(table, plot_dir):
    """Two-column whitespace-separated files per quantity per orientation,
    written from the table's columns; an orientation the config lists twice
    has each of its rows twice, as in the CSV."""
    os.makedirs(plot_dir, exist_ok=True)
    cfg = table.config
    x = [wl if cfg.sweep == "wavelength" else r for r, wl in table.points]
    for orientation in dict.fromkeys(cfg.orientations):
        times = cfg.orientations.count(orientation)
        for name, field in _PLOT_QUANTITIES.items():
            y = table.columns[field][table.names.index(orientation)].tolist()
            path = os.path.join(plot_dir, f"{name}_{orientation}.dat")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(("%.12g %.12g\n" % xy) * times for xy in zip(x, y)))


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
