"""Sweep runner: radial and wavelength scans with deterministic CSV output.

A config is checked when it is read: key by key against
:data:`CONFIG_SCHEMA`, which holds each key's rule, default and meaning,
then by the rules across keys; building its sphere is the check of the
``sphere`` entry.  A sweep then reads every region's material once over
all its wavelengths (:func:`transfer.layer_context`) and checks everything
its rows depend on against that read, before any row and before a pool
starts (see :func:`run_sweep`); its prepares take their columns of the
same read.  So a row can fail only numerically, and then names the first
failing row.
Rows are evaluated in the contiguous blocks of :func:`block_cuts`, on at
most as many processes as the machine has CPUs, or in-process when there
is one block; a process that runs only such sweeps never imports the pool
machinery.  A block returns its outputs as (orientation, row) arrays,
which the sweep keeps as columns (:class:`ResultTable`).  A row's result
does not depend on its block or on the wavelengths prepared with it, and
rows are written in declared order, so output bytes are identical across
runs and worker counts.  Output is only written once the whole sweep has
succeeded.
"""

import functools
import itertools
import json
import math
import numbers
import os
import sys
from dataclasses import MISSING, dataclass, make_dataclass
from typing import NamedTuple

import numpy as np

from . import materials, model, specfun, spectro, transfer
from .errors import ConfigError, DomainError, NanoshellError

DEFAULT_GRID_POINTS = 401
DEFAULT_GRID_MAX = 2.01

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


class Number(NamedTuple):
    """A finite real number, not a bool, at least ``lo`` (above it if ``strict``)."""
    lo: float | None = None
    strict: bool = False

    def __str__(self):
        bound = "" if self.lo is None else f" {'>' if self.strict else '>='} {self.lo:g}"
        return "a real number" + bound

    def check(self, key, value):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"{key} must be {self}, got {value!r}")
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ConfigError(f"{key} is beyond double-precision range, got {value!r}")
        if not math.isfinite(value):
            raise DomainError(f"{key} must be finite, got {value!r}")
        if self.lo is not None and (value < self.lo or (self.strict and value == self.lo)):
            raise ConfigError(f"{key} must be {self}, got {value!r}")
        return float(value)


class Choice(NamedTuple):
    """One of the strings ``options``."""
    options: tuple

    def __str__(self):
        *rest, last = map(repr, self.options)
        return f"{', '.join(rest)} or {last}"

    def check(self, key, value):
        if value not in self.options:
            raise ConfigError(f"{key} must be {self}, got {value!r}")
        return value


class ListOf(NamedTuple):
    """A list, non-empty if ``nonempty``, each entry as ``item`` checks it."""
    item: object
    nonempty: bool = False

    def __str__(self):
        return f"a {'non-empty ' * self.nonempty}list, each {self.item}"

    def check(self, key, value):
        if not isinstance(value, (list, tuple)) or (self.nonempty and not value):
            raise ConfigError(f"{key} must be {self}, got {value!r}")
        return tuple(self.item.check(key, v) for v in value)


class Key(NamedTuple):
    rule: object  # a str where config_from_dict checks the key by its own code
    default: object  # MISSING where the key is required
    meaning: str


_ORIENTATION = Choice((*model.ORIENTATIONS, "average"))
_OWN = " (own rule, below)"

# every key a sweep config may hold, in README's order: README's key table
# is this table rendered (a test compares them)
CONFIG_SCHEMA = {
    "sphere": Key("a preset name or a shell spec" + _OWN, MISSING, "the stratified sphere"),
    "sweep": Key(Choice(("radial", "wavelength")), "radial", "what varies along the sweep"),
    "wavelength_nm": Key(Number(0.0, strict=True), 595.0, "a radial sweep's wavelength [nm]"),
    "grid": Key('"default", a list of real numbers or {"linspace": [lo, hi, n]}' + _OWN,
                "default", "a radial sweep's points, r/r_s"),
    "orientations": Key(ListOf(_ORIENTATION, nonempty=True), _ORIENTATION.options,
                        "dipole orientations: a row each per point"),
    "orientation": Key(_ORIENTATION, None, "short for a one-entry `orientations`"),
    "r_over_rs": Key(Number(0.0), None, "a wavelength sweep's point, r/r_s"),
    "wavelengths_nm": Key(ListOf(Number(0.0, strict=True)), (),
                          "a wavelength sweep's wavelengths [nm]"),
    "l_max": Key(transfer.L_MAX, 60, "the highest multipole order"),
    "interface_margin": Key(Number(0.0), MARGIN_FRACTION,
                            "least distance from a point to an interface [r_s]"),
    "workers": Key(model.Integer(1), 1, "the most process-pool blocks a sweep is cut into"),
    "quadrature_rtol": Key(Number(), None, "accepted for older configs, unused"),
    "out": Key("a non-empty path string" + _OWN, None, "the CSV file"),
    "format": Key(Choice(("csv", "plot")), "csv", "`plot`: plot files instead of a CSV file"),
    "plot_dir": Key("a non-empty path string" + _OWN, None, "directory for plot files"),
}


SweepConfig = make_dataclass(
    "SweepConfig", [k for k in CONFIG_SCHEMA if k not in ("orientation", "quadrature_rtol")],
    frozen=True, namespace={"__module__": __name__, "__doc__": (
        "A checked config: CONFIG_SCHEMA's keys with ``sphere`` built, but "
        "``orientation``, folded into ``orientations``, and the unused ``quadrature_rtol``.")})


def config_from_dict(raw):
    """Check a JSON-shaped dict key by key against CONFIG_SCHEMA, then by
    the rules across keys, and build its sphere; unknown keys are errors."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - set(CONFIG_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "sphere" not in raw:
        raise ConfigError("config needs a 'sphere' entry (preset name or shell spec)")
    values = {}
    for key, row in CONFIG_SCHEMA.items():
        value = raw.get(key, row.default)
        # a key whose default is null may be given as null
        checked = not isinstance(row.rule, str) and (value is not None or row.default is not None)
        values[key] = row.rule.check(key, value) if checked else value
    values["sphere"] = sphere_from_spec(values["sphere"])
    del values["quadrature_rtol"]  # the engine has no quadrature to tune
    single = values.pop("orientation")
    if single is not None:
        if "orientations" in raw:
            raise ConfigError("orientation and orientations cannot both be given")
        values["orientations"] = (single,)
    if values["sweep"] == "wavelength":
        if values["r_over_rs"] is None:
            raise ConfigError("wavelength sweep needs 'r_over_rs'")
        if not values["wavelengths_nm"]:
            raise ConfigError("wavelength sweep needs a 'wavelengths_nm' list")
    grid = values["grid"]
    if isinstance(grid, dict) and "linspace" in grid:
        _check_linspace(grid["linspace"])
    elif isinstance(grid, (list, tuple)):
        ListOf(Number()).check("grid", grid)
    elif grid != "default":
        raise ConfigError(f"cannot interpret grid {grid!r}")
    out, fmt, plot_dir = values["out"], values["format"], values["plot_dir"]
    for key, path in (("out", out), ("plot_dir", plot_dir)):
        if not (path is None or isinstance(path, str) and path and "\0" not in path):
            raise ConfigError(f"{key} must be a non-empty path string or null, got {path!r}")
    out_dir = os.path.dirname(out or "") or "."
    csv_out = fmt == "csv" and out and os.path.abspath(out)
    if csv_out and (os.path.isdir(out) or not os.path.isdir(out_dir)):
        raise ConfigError(f"out must be a file path in an existing directory, got {out!r}")
    if fmt == "plot" and not (out or plot_dir):
        raise ConfigError("format 'plot' needs out or plot_dir, a directory for its plot files")
    plot_out = out if fmt == "plot" and not plot_dir else None  # see write_outputs
    for key, path in (("plot_dir", plot_dir), ("out", plot_out)):
        if path and not _makeable_dir(path):
            raise ConfigError(f"{key} must be a directory or a path that can become one, "
                              f"got {path!r}")
    plot_path = plot_dir and os.path.abspath(plot_dir)
    if csv_out and plot_path and os.path.commonpath([csv_out, plot_path]) == csv_out:
        raise ConfigError(f"plot_dir must not be out or lie under it, got out {out!r} and "
                          f"plot_dir {plot_dir!r}")
    return SweepConfig(**values)


def _makeable_dir(path):
    """Whether ``os.makedirs(path, exist_ok=True)`` can find or make a
    directory there: its nearest existing ancestor, ``path`` itself
    included, must be one."""
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    return os.path.isdir(probe)


def _check_linspace(spec):
    if not isinstance(spec, (list, tuple)) or len(spec) != 3:
        raise ConfigError(f"linspace grid needs [lo, hi, n], got {spec!r}")
    lo, hi, n = spec
    ListOf(Number(0.0)).check("linspace bound", [lo, hi])
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
    Number().check("sphere material mu", mu)
    n = spec.get("n", 0.0)
    parts = n if isinstance(n, (list, tuple)) and len(n) == 2 else [n]
    ListOf(Number()).check("sphere material n", parts)
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
        Number().check("sphere shell radius", radius)
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


def _check_points(sphere, layers, grid, l_max, margin):
    """Check the points at r/r_s values ``grid`` (a list) at each wavelength
    of ``layers`` (:func:`transfer.layer_context`) in turn, against that
    read of every region's material: at each, the points as
    :func:`model.check_points` checks them with the read's host
    permittivities, then the Riccati arguments of their rows
    (:func:`transfer.table_arguments`).  The first bad one raises."""
    n_wl = len(layers.wavelengths)
    r = np.tile(np.array(grid) * sphere.outer_radius_nm, n_wl)
    w = np.repeat(np.arange(n_wl), len(grid))
    z, rho, rejected = transfer.table_arguments(sphere.radii, layers.k, l_max,
                                                model.locate(sphere, r)[0], r, w)
    first = int(np.argmax(rejected))
    # the points at every wavelength up to the first rejected row's come first
    n = (w[first] + 1) * len(grid) if rejected[first] else len(r)
    model.check_points(sphere, r[:n], np.array(layers.wavelengths)[w[:n]],
                       lambda h: layers.eps[h - 1, w[:n]], grid=grid * n_wl, margin=margin)
    if rejected[first]:  # the arguments of that row's own tables, with their error
        specfun._validate(l_max, np.append(z[w[first]], rho[first] if r[first] else []))


def resolve_grid(cfg, sphere):
    """r/r_s values of a radial sweep, as :func:`_radial_grid` checks them."""
    return _radial_grid(cfg, sphere)[0]


def _radial_grid(cfg, sphere):
    """r/r_s values of a radial sweep, and the read of every region's
    material at the sweep wavelength (:func:`transfer.layer_context`) that
    checks them before any row runs (:func:`_check_points`): an explicit
    grid's first bad point raises; default and linspace grids skip, and
    count on stderr, the points no host region can take there
    (:func:`model.no_host`), and then a kept point on an interface raises.
    A grid with no point to evaluate, empty or every point skipped,
    raises."""
    grid, margin = cfg.grid, cfg.interface_margin
    explicit = isinstance(grid, (list, tuple))
    if explicit and not grid:
        raise ConfigError("grid is empty: a radial sweep needs at least one point")
    layers = transfer.layer_context(sphere, [cfg.wavelength_nm])
    if explicit:
        vals = [float(v) for v in grid]
    else:
        default = (0.0, DEFAULT_GRID_MAX, DEFAULT_GRID_POINTS)
        spec = grid["linspace"] if isinstance(grid, dict) else default
        vals = _linspace_grid(sphere, *spec, margin)
        host = model.locate(sphere, vals * sphere.outer_radius_nm)[0]
        skip = model.no_host(layers.eps[host - 1, 0])
        cause = (f"host region is absorbing, or lossless with Re eps <= 0, at "
                 f"{cfg.wavelength_nm:g} nm")
        if skip.all():
            raise ConfigError(f"no grid point to evaluate: skipped all {len(vals)} grid points, "
                              f"whose {cause}")
        if skip.any():
            print(f"note: skipped {skip.sum()} of {len(vals)} grid points whose {cause}",
                  file=sys.stderr)
        vals, margin = vals[~skip].tolist(), 0.0
    _check_points(sphere, layers, vals, cfg.l_max, margin)
    return vals, layers


@dataclass(frozen=True)
class ResultRow:
    r_over_rs: float
    wavelength_nm: float
    orientation: str
    result: model.SpectroResult


# a CSV line holds the "point" and "csv" outputs, in table order, each in
# its format (model.OUTPUTS)
_CSV = [o for o in model.OUTPUTS if o.kind in ("point", "csv")]
CSV_COLUMNS = tuple(o.csv for o in _CSV)
_CSV_LINE = ",".join("%s" if o.fmt == model.BOOL else o.fmt for o in _CSV) + "\n"


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

    def _by_row(self, output):
        """One output's values in row order, a bool as its word."""
        pick = [self.names.index(o) for o in self.config.orientations]
        values = self.columns[output.field][pick].T.ravel().tolist()
        return [("false", "true")[v] for v in values] if output.fmt == model.BOOL else values

    def to_csv(self):
        cfg = self.config
        r, wl = zip(*[point for point in self.points for _ in cfg.orientations])
        given = {"r_over_rs": r, "wavelength_nm": wl, "l_used": itertools.repeat(cfg.l_max),
                 "orientation": cfg.orientations * len(self.points)}
        rows = zip(*[given[o.csv] if o.csv in given else self._by_row(o) for o in _CSV])
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


def _evaluate_block(sphere, rows, orientations, l_max, layers):
    """The outputs of contiguous rows (r_nm, wavelength), each checked
    before any row (:func:`run_sweep`), as :func:`spectro.observe_rows`
    gives them, one prepare per :func:`spectro.batch_size` distinct
    wavelengths on their columns of the sweep's read ``layers``.  What can
    still fail is numerical, and names its first failing row."""
    parts = []
    for batch in _wavelength_batches(rows, spectro.batch_size(l_max)):
        # the previous prepare is freed only once this one is built, as in
        # spectro.observe_rows
        prepared = transfer.prepare(sphere, [wl for _, wl in batch], l_max, layers)
        parts.append(spectro.observe_rows(prepared, batch, orientations))
    return spectro.join_columns(parts)


def _start_pool(n_blocks):
    """A pool for ``n_blocks`` blocks of at most one process per CPU: under
    the fork start method it starts them all at its first task.  The pool
    machinery is imported here, on the first pooled sweep of a process: it
    costs a fresh process ~30 ms, which a sweep run in-process never pays."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=min(n_blocks, os.cpu_count() or 1))


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
    a wavelength sweep its wavelengths at ``r_over_rs``.  Every region's
    material is read once over the distinct wavelengths
    (:func:`transfer.layer_context`), and every point checked against that
    read at each wavelength in declared order (:func:`_check_points`).
    Where a wavelength fails to read, the first that does raises what its
    read alone raises, once the points at the wavelengths before it are
    checked together: it is found by bisecting on joint reads of prefixes,
    and the longest prefix that reads is the one checked.  Then the points are
    evaluated in order, in the contiguous blocks of :func:`block_cuts`,
    whose prepares take their columns of that read."""
    sphere = cfg.sphere
    rs = sphere.outer_radius_nm
    if cfg.sweep == "radial":
        grid, layers = _radial_grid(cfg, sphere)
        points = [(g, g * rs, cfg.wavelength_nm) for g in grid]
    else:
        wavelengths = list(dict.fromkeys(cfg.wavelengths_nm))
        check = functools.partial(_check_points, sphere, grid=[cfg.r_over_rs], l_max=cfg.l_max,
                                  margin=cfg.interface_margin)
        try:
            layers = transfer.layer_context(sphere, wavelengths)
        except NanoshellError:
            # bisect on prefixes, which fail to read exactly when one of
            # their wavelengths does: the first n read, the first bad fail
            n, bad, passed = 0, len(wavelengths), None
            while bad - n > 1:
                mid = (n + bad) // 2
                try:
                    passed, n = transfer.layer_context(sphere, wavelengths[:mid]), mid
                except NanoshellError:
                    bad = mid
            if passed is not None:
                check(passed)
            transfer.layer_context(sphere, [wavelengths[bad - 1]])  # raises its own error
            raise
        check(layers)
        points = [(cfg.r_over_rs, cfg.r_over_rs * rs, wl) for wl in cfg.wavelengths_nm]
    both = "average" in cfg.orientations or set(model.ORIENTATIONS) <= set(cfg.orientations)
    orientations = model.ORIENTATIONS if both else cfg.orientations[:1]
    rows = [(r_nm, wl) for _, r_nm, wl in points]
    cuts = block_cuts(len(rows), len({wl for _, wl in rows}), cfg.l_max, cfg.workers)
    if len(cuts) > 2:
        n = len(cuts) - 1
        blocks = [rows[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
        with _start_pool(n) as pool:
            done = pool.map(_evaluate_block, [sphere] * n, blocks, [orientations] * n,
                            [cfg.l_max] * n, [layers] * n)
            names, columns = spectro.join_columns(list(done))
    else:
        names, columns = _evaluate_block(sphere, rows, orientations, cfg.l_max, layers)
    return ResultTable(cfg, [(r_rs, wl) for r_rs, _, wl in points], names, columns)


def write_outputs(table, cfg):
    """Write CSV and/or per-quantity plot files; all-or-nothing.  Returns
    the path the rows went to: the CSV file, else the plot directory, None
    when neither is written.

    format="plot" routes `out` to a plot directory instead of a CSV file.
    """
    if cfg.format == "plot":
        write_plot_files(table, cfg.plot_dir or cfg.out)
        return cfg.plot_dir or cfg.out
    if cfg.out:
        text = table.to_csv()
        tmp = cfg.out + ".tmp"
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, cfg.out)
    if cfg.plot_dir:
        write_plot_files(table, cfg.plot_dir)
    return cfg.out or cfg.plot_dir


def write_plot_files(table, plot_dir):
    """Two-column whitespace-separated files per quantity per orientation,
    written from the table's columns; an orientation the config lists twice
    has each of its rows twice, as in the CSV."""
    os.makedirs(plot_dir, exist_ok=True)
    cfg = table.config
    x = [wl if cfg.sweep == "wavelength" else r for r, wl in table.points]
    for orientation in dict.fromkeys(cfg.orientations):
        times = cfg.orientations.count(orientation)
        for name, field in model.QUANTITIES.items():
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
