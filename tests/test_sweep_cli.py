import contextlib
import dataclasses
import importlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nanoshell import cli, model, spectro, sweep, transfer
from nanoshell.errors import (
    ConfigError,
    DegenerateSystemError,
    DomainError,
    GeometryError,
    MaterialRangeError,
    NanoshellError,
    RangeError,
)

LAM = 595.0
D_GRID = [0.0, 0.497562, 0.995075, 1.005025, 1.860746, 2.01]


def _cfg(**kw):
    base = {"sphere": "D", "sweep": "radial", "wavelength_nm": LAM, "grid": D_GRID}
    base.update(kw)
    return sweep.config_from_dict(base)


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        sweep.config_from_dict({"sphere": "D", "sweeep": "radial"})


def test_quadrature_rtol_still_accepted_but_numeric():
    # older configs (PAPER.md's example among them) still set it
    sweep.config_from_dict({"sphere": "D", "quadrature_rtol": 1e-7})
    with pytest.raises(ConfigError):
        sweep.config_from_dict({"sphere": "D", "quadrature_rtol": "tight"})


def test_wavelength_sweep_requires_fields():
    with pytest.raises(ConfigError):
        sweep.config_from_dict({"sphere": "A", "sweep": "wavelength"})
    with pytest.raises(ConfigError):
        sweep.config_from_dict(
            {"sphere": "A", "sweep": "wavelength", "r_over_rs": 1.2}
        )


def test_bad_orientation_rejected():
    with pytest.raises(ConfigError):
        sweep.config_from_dict({"sphere": "D", "orientations": ["diagonal"]})


def test_default_grid_respects_margin():
    sph = model.preset("A")
    grid = sweep.default_grid(sph)
    assert len(grid) == 401
    rs = sph.outer_radius_nm
    for g in grid:
        margin = min(abs(g * rs - R) for R in sph.radii)
        assert margin >= 0.001 * rs - 1e-9


def _nudged_one_at_a_time(vals, sphere, margin):
    """The nudge rule point by point: a point within margin r_s of an
    interface moves to NUDGE_FRACTION r_s outside the first such interface
    in ascending order."""
    rs = sphere.outer_radius_nm
    out = []
    for g in vals:
        for R in sphere.radii:
            if abs(g * rs - R) < margin * rs:
                g = (R + sweep.NUDGE_FRACTION * rs) / rs
                break
        out.append(float(g))
    return out


@pytest.mark.parametrize("margin", [0.0, 0.001, 0.01, 0.03])
def test_default_grid_nudges_as_the_point_by_point_rule(margin):
    # the shells of the custom sphere are thinner than the nudge, so a
    # nudged point can land near the next interface
    thin = {"shells": [[100.0, "silica"], [100.4, "gold"], [101.0, "silica"], [150.0, "gold"]]}
    for sphere in [*map(model.preset, model.preset_names()), sweep.sphere_from_spec(thin)]:
        vals = np.linspace(0.0, sweep.DEFAULT_GRID_MAX, sweep.DEFAULT_GRID_POINTS)
        assert sweep.default_grid(sphere, margin) == _nudged_one_at_a_time(vals, sphere, margin)


def test_explicit_grid_margin_violation():
    cfg = _cfg(grid=[1.0000005])
    with pytest.raises(ConfigError, match="interface-exclusion"):
        sweep.resolve_grid(cfg, model.preset("D"))


def test_radial_sweep_reference_rows():
    cfg = _cfg(orientations=["radial", "tangential"])
    table = sweep.run_sweep(cfg)
    assert len(table.rows) == 2 * len(D_GRID)
    by_key = {(round(r.r_over_rs, 6), r.orientation): r.result for r in table.rows}
    assert by_key[(1.860746, "tangential")].wt_norm == pytest.approx(1.00414, rel=5e-4)
    assert by_key[(1.005025, "radial")].wt_norm == pytest.approx(1.27798, rel=2e-3)
    # rows ordered by radius then orientation
    keys = [(r.r_over_rs, r.orientation) for r in table.rows]
    assert keys == sorted(keys, key=lambda t: (t[0], t[1] != "radial"))


@pytest.mark.parametrize("raw", [
    {"sphere": "A", "grid": {"linspace": [0.0, 2.0, 60]}},
    {"sphere": "D", "grid": {"linspace": [0.0, 2.0, 100]},
     "orientations": ["tangential", "average", "radial"]},
    {"sphere": "C", "sweep": "wavelength", "r_over_rs": 0.45,
     "wavelengths_nm": [450.0 + 10.0 * i for i in range(61)]},
])
def test_table_rows_are_built_on_demand_from_its_columns(raw, tmp_path, monkeypatch, capsys):
    # a sweep's table keeps its results as columns and writes its CSV from
    # them; its rows, built when first read, equal the library API's results
    # field for field.  Each sweep closes more rows than one close takes,
    # and the wavelength sweep prepares its wavelengths in two runs
    cfg = sweep.config_from_dict(raw)
    table = sweep.run_sweep(cfg)
    table.to_csv()
    assert "rows" not in vars(table)
    sphere, rs = cfg.sphere, cfg.sphere.outer_radius_nm
    rows = [(g * rs, wl) for g, wl in table.points]
    assert len(rows) > spectro.close_size(cfg.l_max, sphere.n_regions)
    wavelengths = [wl for _, wl in rows]
    prepared = transfer.prepare(sphere, wavelengths, cfg.l_max)
    results = spectro.evaluate_rows(prepared, rows, model.ORIENTATIONS)
    assert [(row.r_over_rs, row.wavelength_nm, row.orientation, dataclasses.astuple(row.result))
            for row in table.rows] == [
        (g, wl, o, dataclasses.astuple(res[o]))
        for (g, wl), res in zip(table.points, results) for o in cfg.orientations
    ]
    # `nanoshell run`, which counts rows without building them, prints the
    # same count and writes the same CSV
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(dict(raw, out="res.csv")))
    assert cli.main(["run", "cfg.json"]) == 0
    assert capsys.readouterr().out == f"wrote {len(table.rows)} rows to res.csv\n"
    assert (tmp_path / "res.csv").read_text() == table.to_csv()


def test_center_rows_match_for_both_orientations():
    cfg = sweep.config_from_dict(
        {"sphere": "A", "grid": [0.0], "orientations": ["radial", "tangential"]}
    )
    table = sweep.run_sweep(cfg)
    wt = [r.result.wt_norm for r in table.rows]
    assert wt[0] == pytest.approx(wt[1], rel=1e-12)
    assert wt[0] == pytest.approx(0.8751, rel=5e-3)


def test_a_grid_with_no_point_to_evaluate_exits_2_before_any_row(tmp_path):
    # an empty grid, from a config or from `--grid ,`, and a linspace grid
    # whose every point lies in preset A's outer gold shell
    proc, out = _run_config(tmp_path, grid=[])
    assert proc.returncode == 2 and proc.stderr == (
        "error: grid is empty: a radial sweep needs at least one point\n")
    proc = _run_cli("preset", "D", "--grid", ",", "--out", str(out))
    assert proc.returncode == 2 and "grid is empty" in proc.stderr
    proc, _ = _run_config(tmp_path, sphere="A", grid={"linspace": [0.9, 0.95, 3]})
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: no grid point to evaluate: skipped all 3 grid points")
    assert "absorbing" in proc.stderr and proc.stdout == ""
    assert not out.exists()


def test_csv_format():
    cfg = _cfg(grid=[0.0, 1.2], orientations=["radial"])
    csv = sweep.run_sweep(cfg).to_csv()
    lines = csv.splitlines()
    assert lines[0] == (
        "r_over_rs,wavelength_nm,orientation,shift_norm,wt_norm,wrad_norm,"
        "wohm_norm,yield,photostability,l_used,converged"
    )
    cells = lines[1].split(",")
    assert cells[2] == "radial"
    assert cells[9] == "60"
    assert cells[10] in ("true", "false")
    float(cells[4])


def _record_pools(monkeypatch):
    """Record the worker count of every process pool a sweep starts."""
    pools = []
    start = sweep._start_pool

    def recording_pool(n_workers):
        pools.append(n_workers)
        return start(n_workers)

    monkeypatch.setattr(sweep, "_start_pool", recording_pool)
    return pools


def _one_block_per_entry(monkeypatch):
    """Make every sweep split across its workers, and record the pools."""
    monkeypatch.setattr(sweep, "MIN_BLOCK_ENTRIES", 1)
    return _record_pools(monkeypatch)


def test_csv_determinism_across_runs_and_workers(monkeypatch):
    cfg = _cfg(
        sphere="A",
        grid=[0.0, 0.3, 1.25, 1.9],
        orientations=["radial", "tangential", "average"],
    )
    base = sweep.run_sweep(cfg).to_csv()
    again = sweep.run_sweep(cfg).to_csv()
    assert again == base
    # 2 and 3 workers cut the 4 rows into that many pool blocks
    pools = _one_block_per_entry(monkeypatch)
    for workers in (2, 3):
        cfg_w = sweep.config_from_dict(
            {
                "sphere": "A",
                "grid": [0.0, 0.3, 1.25, 1.9],
                "orientations": ["radial", "tangential", "average"],
                "workers": workers,
            }
        )
        assert sweep.run_sweep(cfg_w).to_csv() == base
    assert pools == [2, 3]


def test_wavelength_sweep_consistent_with_radial():
    wcfg = sweep.config_from_dict(
        {
            "sphere": "A",
            "sweep": "wavelength",
            "r_over_rs": 1.2,
            "wavelengths_nm": [595.0],
            "orientation": "radial",
        }
    )
    wrow = sweep.run_sweep(wcfg).rows[0]
    rcfg = sweep.config_from_dict(
        {"sphere": "A", "grid": [1.2], "orientations": ["radial"]}
    )
    rrow = sweep.run_sweep(rcfg).rows[0]
    assert wrow.result == rrow.result


def test_wavelength_sweep_lossless_yield_is_unity():
    cfg = sweep.config_from_dict(
        {
            "sphere": "D",
            "sweep": "wavelength",
            "r_over_rs": 0.5,
            "wavelengths_nm": [450.0, 595.0, 800.0],
            "orientation": "tangential",
        }
    )
    for row in sweep.run_sweep(cfg).rows:
        assert row.result.fluorescence_yield == pytest.approx(1.0, abs=1e-7)


def test_wavelength_sweep_broad_band_variation():
    cfg = sweep.config_from_dict(
        {
            "sphere": "A",
            "sweep": "wavelength",
            "r_over_rs": 1.2,
            "wavelengths_nm": [float(w) for w in range(500, 1001, 50)],
            "orientation": "radial",
        }
    )
    rows = sweep.run_sweep(cfg).rows
    wts = [r.result.wt_norm for r in rows]
    assert max(wts) / min(wts) > 2.0
    # engine values frozen after the first validated run
    assert wts[0] == pytest.approx(4.944676, rel=1e-5)
    assert wts[7] == pytest.approx(3.024442, rel=1e-5)


def test_wavelength_outside_table_raises_material_error():
    cfg = sweep.config_from_dict(
        {
            "sphere": "A",
            "sweep": "wavelength",
            "r_over_rs": 1.2,
            "wavelengths_nm": [1500.0],
            "orientation": "radial",
        }
    )
    with pytest.raises(MaterialRangeError):
        sweep.run_sweep(cfg)


def test_material_dir_env_resolution(tmp_path, monkeypatch):
    (tmp_path / "nk.txt").write_text("400 1.5 0.0\n1100 1.5 0.0\n")
    monkeypatch.setenv("NANOSHELL_MATERIAL_DIR", str(tmp_path))
    sph = sweep.sphere_from_spec(
        {"shells": [[150.0, {"table": "nk.txt"}]], "ambient": "water"}
    )
    assert sph.n_regions == 2


def test_plot_format_routes_out_to_directory(tmp_path):
    cfg = _cfg(grid=[0.5], orientations=["radial"], format="plot",
               out=str(tmp_path / "curves"))
    table = sweep.run_sweep(cfg)
    sweep.write_outputs(table, cfg)
    assert (tmp_path / "curves" / "shift_radial.dat").exists()
    assert not (tmp_path / "curves.tmp").exists()


def test_plot_files(tmp_path):
    cfg = _cfg(grid=[0.5, 1.5], orientations=["radial"], plot_dir=str(tmp_path / "plots"))
    table = sweep.run_sweep(cfg)
    sweep.write_plot_files(table, cfg.plot_dir)
    path = tmp_path / "plots" / "wt_radial.dat"
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    x, y = lines[0].split()
    assert float(x) == 0.5
    float(y)


def test_convergence_report_small_sphere_origin():
    sph = model.preset("D")
    rep = sweep.convergence_report(sph, model.DipoleSource(0.0, "radial", LAM), 60)
    assert rep.wt_order_8digits is not None and rep.wt_order_8digits <= 5
    assert any("wt" in line for line in rep.lines())


def test_convergence_report_no_contrast_is_flat():
    sph = model.build_sphere([(150.0, "water")], "water")
    rep = sweep.convergence_report(sph, model.DipoleSource(60.0, "radial", LAM), 30)
    assert np.allclose(rep.wt_partial, 1.0, atol=1e-12)
    assert np.allclose(rep.shift_partial, 0.0, atol=1e-12)
    assert rep.wrad_partial[-1] == pytest.approx(1.0, abs=1e-10)
    ext = sweep.convergence_report(sph, model.DipoleSource(220.0, "radial", LAM), 30)
    assert np.allclose(ext.wrad_partial, 1.0, atol=1e-10)


def test_convergence_report_slow_near_interface():
    # just outside the metal surface the partial sums are still moving at l = 40
    sph = model.preset("C")
    rep = sweep.convergence_report(sph, model.DipoleSource(1.01 * 693.0, "radial", LAM), 60)
    assert rep.wt_order_8digits is None or rep.wt_order_8digits > 40


# --- command-line surface ---------------------------------------------------


def _run_python(*args, cwd=None):
    """A fresh interpreter that imports this nanoshell from any working
    directory, with the test's own PYTHONPATH after it."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


def _run_cli(*args, cwd=None):
    """`nanoshell` in a fresh interpreter."""
    return _run_python("-m", "nanoshell.cli", *args, cwd=cwd)


# a `run` of a sweep that runs in-process needs neither the pool machinery,
# nor numpy.ma, which numpy's set routines (np.unique, np.union1d) import,
# nor the benchmark table, which only `regress` reads, nor scaled
# arithmetic, which only the test oracles and the benchmark tracer use
UNUSED_BY_RUN = ("numpy.ma", "concurrent.futures.process", "multiprocessing",
                 "nanoshell.benchmarks", "nanoshell.scaledmath")

# numpy is imported first: what it loads by itself (numpy 1.x imports
# numpy.ma) is not the package's to avoid
_RUN_AND_LIST_NEW_MODULES = """
import json, sys
import numpy
before = set(sys.modules)
from nanoshell import cli
code = cli.main(["run", sys.argv[1]])
print(json.dumps({"code": code,
                  "loaded": [m for m in sys.argv[2:] if m in sys.modules and m not in before]}))
"""


def test_a_run_imports_neither_pool_nor_numpy_ma_nor_benchmark_table(tmp_path):
    # one row outside preset A's gold shells, so the Ohmic step runs too
    out = tmp_path / "a.csv"
    cfg = tmp_path / "a.json"
    cfg.write_text(json.dumps(
        {"sphere": "A", "grid": [1.3], "orientations": ["radial"], "out": str(out)}
    ))
    proc = _run_python("-c", _RUN_AND_LIST_NEW_MODULES, str(cfg), *UNUSED_BY_RUN, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"code": 0, "loaded": []}
    assert len(out.read_text().splitlines()) == 2


@pytest.mark.parametrize(
    "statement",
    [
        "import nanoshell; "
        "assert 'nanoshell.benchmarks' not in sys.modules; "
        "n = len(nanoshell.benchmarks.ENTRIES)",
        "from nanoshell import benchmarks; n = len(benchmarks.ENTRIES)",
    ],
)
def test_benchmark_table_loads_on_first_access(tmp_path, statement):
    from nanoshell import benchmarks

    proc = _run_python("-c", f"import sys; {statement}; print(n)", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == len(benchmarks.ENTRIES) > 0


def test_cli_regress_runs_the_benchmark_table(tmp_path):
    # six entries fail by design (README "Benchmark table"), so exit 1
    proc = _run_cli("regress", cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[-1].endswith("benchmark entries passed")
    assert proc.stderr == ""


def test_cli_preset_writes_csv(tmp_path):
    out = tmp_path / "d.csv"
    proc = _run_cli(
        "preset", "D", "--lambda", "595", "--grid", "0,0.497562",
        "--orientations", "radial,tangential", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("r_over_rs,")


def test_cli_default_grid_skips_absorbing_hosts(tmp_path):
    # README's first example: the default grid crosses both gold shells of A
    out = tmp_path / "a.csv"
    proc = _run_cli("preset", "A", "--grid", "default", "--l-max", "6", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "skipped" in proc.stderr
    sph = model.preset("A")
    gold = [(80.0, 107.0), (135.0, 157.0)]
    rows = out.read_text().splitlines()[1:]
    assert len(rows) > 300
    for line in rows:
        r = float(line.split(",")[0]) * sph.outer_radius_nm
        assert not any(a < r < b for a, b in gold), line
    # an explicit point inside gold is still an error, and nothing is written
    bad = tmp_path / "b.csv"
    proc = _run_cli("preset", "A", "--grid", "0.3,0.6", "--l-max", "6", "--out", str(bad))
    assert proc.returncode == 2
    assert "absorbing" in proc.stderr
    assert not bad.exists()


def test_cli_preset_rejects_a_non_numeric_grid_value(tmp_path):
    out = tmp_path / "d.csv"
    proc = _run_cli("preset", "D", "--grid", "0.1,abc", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "'abc'" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def _unusable_outputs(tmp_path):
    """An output path in a missing directory, and a directory as the path."""
    return [str(tmp_path / "missing" / "x.csv"), str(tmp_path)]


def test_cli_preset_rejects_an_unusable_output_path_before_any_row(tmp_path):
    for out in _unusable_outputs(tmp_path):
        proc = _run_cli("preset", "D", "--grid", "0.5", "--out", out)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and repr(out) in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert os.listdir(tmp_path) == []


def test_cli_run_rejects_an_unusable_output_path_before_any_row(tmp_path):
    for out in _unusable_outputs(tmp_path):
        proc, _ = _run_config(tmp_path, grid=[0.5], out=out)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and repr(out) in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert os.listdir(tmp_path) == ["cfg.json"]


def _unusable_plot_dirs(tmp_path):
    """An existing file as the plot directory, and a path under that file."""
    afile = tmp_path / "afile"
    afile.write_text("")
    return [str(afile), str(afile / "plots")]


def _rejected_before_any_row(proc, key, path):
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: {key} ") and repr(path) in proc.stderr, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stdout == ""


def test_cli_preset_rejects_an_unusable_plot_dir_before_any_row(tmp_path):
    out = tmp_path / "pd.csv"
    for plot_dir in _unusable_plot_dirs(tmp_path):
        proc = _run_cli("preset", "D", "--grid", "0.5", "--out", str(out), "--plot-dir", plot_dir)
        _rejected_before_any_row(proc, "plot_dir", plot_dir)
    assert os.listdir(tmp_path) == ["afile"]


def test_cli_run_rejects_an_unusable_plot_dir_before_any_row(tmp_path):
    for path in _unusable_plot_dirs(tmp_path):
        proc, _ = _run_config(tmp_path, grid=[0.5], plot_dir=path)
        _rejected_before_any_row(proc, "plot_dir", path)
        # format "plot" writes its files to `out` when there is no plot_dir
        proc, _ = _run_config(tmp_path, grid=[0.5], format="plot", out=path)
        _rejected_before_any_row(proc, "out", path)
    assert sorted(os.listdir(tmp_path)) == ["afile", "cfg.json"]
    # a missing directory, however deep, is made on write; with a plot_dir,
    # a plot-format `out` is not written and not checked
    deep = str(tmp_path / "new" / "plots")
    assert _cfg(plot_dir=deep).plot_dir == deep
    assert _cfg(format="plot", out=deep).out == deep
    assert _cfg(format="plot", out=str(tmp_path / "afile"), plot_dir=deep).plot_dir == deep


@pytest.mark.parametrize("out, plot_dir", [("same", "same"), ("sub/a.csv", "sub/a.csv/plots")])
def test_cli_run_rejects_a_plot_dir_at_or_under_the_csv_before_any_row(tmp_path, out, plot_dir):
    # neither path exists yet, so each passes its own check; written, the
    # CSV would stand where the plot directory must be made
    (tmp_path / "sub").mkdir()
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"sphere": "D", "grid": [0.5], "out": out, "plot_dir": plot_dir}))
    proc = _run_cli("run", "cfg.json", cwd=tmp_path)
    _rejected_before_any_row(proc, "plot_dir", plot_dir)
    assert repr(out) in proc.stderr and "Traceback" not in proc.stderr
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "sub"]
    assert os.listdir(tmp_path / "sub") == []


def test_cli_run_names_the_plot_directory_when_it_writes_no_csv(tmp_path, monkeypatch, capsys):
    # a plot-format run writes no CSV, so its message names the directory
    # its plot files went to: plot_dir when given, else `out`; so does a
    # CSV-format run with a plot_dir and no `out`
    monkeypatch.chdir(tmp_path)
    base = {"sphere": "D", "grid": [0.5, 1.5], "orientations": ["radial"], "format": "plot"}
    for extra, target in (({"out": "res.csv", "plot_dir": "plots"}, "plots"),
                          ({"out": "curves"}, "curves"),
                          ({"format": "csv", "plot_dir": "only"}, "only")):
        (tmp_path / "cfg.json").write_text(json.dumps(dict(base, **extra)))
        assert cli.main(["run", "cfg.json"]) == 0
        assert capsys.readouterr().out == f"wrote 2 rows to {target}\n"
        assert (tmp_path / target / "wt_radial.dat").is_file()
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "curves", "only", "plots"]


def test_cli_main_reuses_one_parser_across_calls(tmp_path, monkeypatch, capsys):
    # in one process every call after the first reuses the first call's
    # parser; mixed calls, a usage error among them, each give the exit
    # code, output and files of the same argv in a fresh process
    calls = [
        ["preset", "D", "--l-max", "8", "--grid", "0.3,1.2", "--orientations", "tangential",
         "--out", "a.csv"],
        ["preset", "D"],
        ["converge", "C", "--r", "1.2", "--orientation", "tangential", "--l-max", "20"],
        ["preset", "D", "--l-max", "abc", "--out", "b.csv"],
        ["preset", "C", "--grid", "1.2", "--out", "c.csv"],
    ]
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    fresh.mkdir()
    reused.mkdir()
    monkeypatch.chdir(reused)
    for argv in calls:
        proc = _run_cli(*argv, cwd=fresh)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
        assert (code, capsys.readouterr().out) == (proc.returncode, proc.stdout), argv
    assert cli._build_parser() is cli._build_parser()
    names = sorted(os.listdir(fresh))
    assert names == sorted(os.listdir(reused)) == ["a.csv", "c.csv", "results.csv"]
    for name in names:
        assert (fresh / name).read_bytes() == (reused / name).read_bytes(), name


def test_cli_run_config_roundtrip(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = {
        "sphere": "D",
        "sweep": "radial",
        "wavelength_nm": 595.0,
        "grid": [0.0, 1.2],
        "orientations": ["radial"],
        "out": str(out),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = _run_cli("run", str(cfg_path))
    assert proc.returncode == 0, proc.stderr
    first = out.read_text()
    proc = _run_cli("run", str(cfg_path))
    assert proc.returncode == 0
    assert out.read_text() == first


def test_cli_config_error_exit_code(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"sphere": "D", "mystery": 1}))
    proc = _run_cli("run", str(cfg_path))
    assert proc.returncode == 2
    assert "unknown config keys" in proc.stderr


def test_cli_material_range_exit_code(tmp_path):
    cfg_path = tmp_path / "range.json"
    cfg_path.write_text(
        json.dumps(
            {
                "sphere": "A",
                "sweep": "wavelength",
                "r_over_rs": 1.2,
                "wavelengths_nm": [2000.0],
                "orientation": "radial",
            }
        )
    )
    proc = _run_cli("run", str(cfg_path))
    assert proc.returncode == 3


def _run_config(tmp_path, **overrides):
    out = tmp_path / "out.csv"
    raw = {"sphere": "D", "grid": [0.0, 0.497562], "out": str(out)}
    raw.update(overrides)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    return _run_cli("run", str(cfg_path)), out


@pytest.mark.parametrize("bad", ["600 nan 0", "600 inf 0"])
def test_non_finite_material_table_exits_2_before_any_row(tmp_path, bad):
    table = tmp_path / "nk.txt"
    table.write_text(f"400 1.5 0\n{bad}\n1100 1.5 0\n")
    sphere = {"shells": [[150.0, {"table": str(table)}]], "ambient": "water"}
    proc, out = _run_config(tmp_path, sphere=sphere, grid=[0.5])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: {table}: row 2 (600 nm, n = "), proc.stderr
    assert "is not finite" in proc.stderr and "while evaluating" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("kind", ["missing", "directory", "bad cell"])
def test_unreadable_material_table_exits_2_before_any_row(tmp_path, kind):
    # the sphere is built when the config is read, so a table that cannot be
    # read stops the run there, on one error line that names it
    table = tmp_path / "nk.txt"
    if kind == "directory":
        table.mkdir()
    elif kind == "bad cell":
        table.write_text("400 1.5 0\n700 1.5 x\n1100 1.5 0\n")
    sphere = {"shells": [[150.0, {"table": str(table)}]], "ambient": "water"}
    with pytest.raises(DomainError):
        sweep.config_from_dict({"sphere": sphere, "grid": [1.5]})
    proc, out = _run_config(tmp_path, sphere=sphere, grid=[1.5])
    assert proc.returncode == 2, proc.stderr
    want = f"error: {table}:2: " if kind == "bad cell" else f"error: cannot read material table {table}: "
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(want), proc.stderr
    assert proc.stdout == "" and not out.exists()


@pytest.mark.parametrize("mu", [0, -1])
def test_non_positive_permeability_exits_2_before_any_row(tmp_path, mu):
    # mu = 0 divided by zero in the rates, and mu < 0 made them complex
    sphere = {"shells": [[150.0, {"n": 1.5, "mu": mu}]], "ambient": "water"}
    proc, out = _run_config(tmp_path, sphere=sphere, grid=[1.5])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: permeability must be positive, got mu = {float(mu)!r}\n"
    assert proc.stdout == "" and not out.exists()


def test_weakly_absorbing_core_hosts_no_emitter(tmp_path):
    # Im n = 1e-11 makes Im eps = 3e-11: the core is an absorbing shell for
    # the Ohmic rate, and so no emitter host.  The default grid skips it and
    # an explicit point in it stops the run before any row
    sphere = {"shells": [[100.0, {"n": [1.5, 1e-11]}], [120.0, "gold"]]}
    proc, out = _run_config(tmp_path, sphere=sphere, grid="default", orientations=["radial"])
    assert proc.returncode == 0, proc.stderr
    radii = [float(line.split(",")[0]) * 120.0 for line in out.read_text().splitlines()[1:]]
    assert radii and min(radii) > 100.0
    out.unlink()
    proc, out = _run_config(tmp_path, sphere=sphere, grid=[0.3])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: dipole host region 1 "), proc.stderr
    assert "while evaluating" not in proc.stderr and not out.exists()
    # a lossless core with Re eps < 0 carries no wave and hosts none either
    lossless_metal = {"shells": [[100.0, {"n": [0.0, 2.0]}], [120.0, "silica"]]}
    cfg = _cfg(sphere=lossless_metal, grid=[0.3])
    with pytest.raises(GeometryError, match="host region 1 "):
        sweep.resolve_grid(cfg, cfg.sphere)


def test_nonfinite_wavelength_or_position_rejected_up_front(tmp_path):
    nan, inf = float("nan"), float("inf")
    bad = [
        {"wavelength_nm": nan},
        {"wavelength_nm": inf},
        {"grid": [0.5, nan]},
        {"grid": {"linspace": [0.1, inf, 5]}},
        {"sweep": "wavelength", "r_over_rs": nan, "wavelengths_nm": [600.0]},
        {"sweep": "wavelength", "r_over_rs": 1.2, "wavelengths_nm": [600.0, -inf]},
    ]
    for overrides in bad:
        with pytest.raises(DomainError):
            sweep.config_from_dict({"sphere": "D", **overrides})
    with pytest.raises(DomainError):
        model.DipoleSource(nan, "radial", LAM)
    with pytest.raises(DomainError):
        model.DipoleSource(10.0, "radial", inf)
    proc, out = _run_config(tmp_path, wavelength_nm=nan)
    assert proc.returncode == 2, proc.stderr
    assert "finite" in proc.stderr
    assert not out.exists()


def test_workers_below_one_rejected(tmp_path):
    for workers in (0, -1):
        with pytest.raises(ConfigError, match="workers"):
            sweep.config_from_dict({"sphere": "D", "workers": workers})
    proc, out = _run_config(tmp_path, workers=0)
    assert proc.returncode == 2, proc.stderr
    assert not out.exists()


def test_linspace_without_points_rejected(tmp_path):
    for n in (0, -3, 2.5):
        with pytest.raises(ConfigError, match="linspace"):
            sweep.config_from_dict({"sphere": "D", "grid": {"linspace": [0.1, 0.5, n]}})
    proc, out = _run_config(tmp_path, grid={"linspace": [0.1, 0.5, 0]})
    assert proc.returncode == 2, proc.stderr
    assert not out.exists()


def test_l_max_must_be_a_bounded_integer(tmp_path):
    # each bad value is rejected before any table is built; none is solved
    ceiling = transfer.L_MAX_CEILING
    assert sweep.config_from_dict({"sphere": "D", "l_max": ceiling}).l_max == ceiling
    for l_max in (60.5, True, "60", None, 0, -5, ceiling + 1, 10**9):
        with pytest.raises(ConfigError, match="l_max"):
            sweep.config_from_dict({"sphere": "D", "l_max": l_max})
    proc, out = _run_config(tmp_path, l_max=10**9)
    assert proc.returncode == 2, proc.stderr
    assert "l_max" in proc.stderr
    assert not out.exists()
    dip = model.DipoleSource(60.0, "radial", LAM)
    for l_max in (60.5, 10**9):
        with pytest.raises(ConfigError, match="l_max"):
            transfer.solve_dipole_fields(model.preset("D"), dip, l_max)
    proc = _run_cli("converge", "D", "--r", "0.5", "--l-max", str(10**9))
    assert proc.returncode == 2
    assert "l_max" in proc.stderr


@pytest.mark.parametrize("args", [
    ("converge", "D", "--r", "0.5", "--lambda", "1e-300"),
    ("converge", "D", "--r", "0.5", "--lambda", "0.01", "--l-max", "5"),
    ("preset", "D", "--grid", "1e6", "--l-max", "5"),
    ("converge", "D", "--r", "1e6", "--lambda", "1e-300", "--l-max", "1"),
    ("preset", "D", "--grid", "1e6"),
    ("preset", "D", "--lambda", "1e-300"),
])
def test_huge_riccati_arguments_exit_2_up_front(tmp_path, args):
    # a tiny wavelength or a far dipole would start the j recurrence at an
    # order of ~|z|; the first table rejects it, naming |z|.  A sweep checks
    # its rows' arguments before any row, so no row is named
    out = tmp_path / "out.csv"
    proc = _run_cli(*args, "--out", str(out)) if args[0] == "preset" else _run_cli(*args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: argument too large: |z| = "), proc.stderr
    assert "Traceback" not in proc.stderr and "while evaluating row" not in proc.stderr
    assert not out.exists()


def test_cli_converge_runs():
    proc = _run_cli("converge", "D", "--r", "0.0", "--orientation", "radial")
    assert proc.returncode == 0
    assert "wt_partial" in proc.stdout


def test_exit_code_mapping():
    assert cli._exit_code(ConfigError("x")) == 2
    assert cli._exit_code(GeometryError("x")) == 2
    assert cli._exit_code(MaterialRangeError("x")) == 3
    assert cli._exit_code(DegenerateSystemError(3, "TM")) == 4


# preset D's grid and the row whose dipole table gets a NaN: 0.7 r_s, a
# middle row of the one in-process batch and of the second of two pool blocks
PLANTED_GRID = [0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.5]
PLANTED_NOTE = "while evaluating row r=105 nm, lambda=595 nm"


def _plant_nan_at(monkeypatch, r_nm):
    """Make the dipole table of every row at radius r_nm in preset D's core
    hold NaN; pool workers inherit it when they fork."""
    dipole_tables = transfer.Prepared.dipole_tables

    def planted(self, rho):
        values, logs = dipole_tables(self, rho)
        hit = np.isclose(rho, self.k[0, 0] * r_nm, rtol=1e-12, atol=0.0)
        values = values.copy()
        values[:, hit] = np.nan
        return values, logs

    monkeypatch.setattr(transfer.Prepared, "dipole_tables", planted)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_planted_non_finite_entry_names_its_row(monkeypatch, workers):
    # every input is checked before any row, so what fails at a row is
    # numerical, found in its batch's arrays and named by its row, in
    # process and through a two-block pool
    pools = _one_block_per_entry(monkeypatch)
    _plant_nan_at(monkeypatch, 105.0)
    cfg = _cfg(grid=PLANTED_GRID, orientations=["radial"], l_max=8, workers=workers)
    with pytest.raises(RangeError, match="^g overflows double precision at order l=1") as err:
        sweep.run_sweep(cfg)
    assert err.value.__notes__ == [PLANTED_NOTE]
    assert pools == [2] * (workers == 2)


def test_failing_row_is_named_on_the_error_line(tmp_path, monkeypatch, capsys):
    # a numerical failure exits 4 on one error line that names its row
    _plant_nan_at(monkeypatch, 105.0)
    out = tmp_path / "out.csv"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sphere": "D", "grid": PLANTED_GRID, "l_max": 8,
                                    "out": str(out)}))
    assert cli.main(["run", str(cfg_path)]) == 4
    assert capsys.readouterr().err == (
        f"error: g overflows double precision at order l=1; {PLANTED_NOTE}\n")
    assert not out.exists()


def test_failing_row_is_named_through_a_pool(tmp_path, monkeypatch, capsys):
    # the 7-row sweep is cut into two pool blocks; the annotated error of
    # the second block crosses back to the parent with its row note
    pools = _one_block_per_entry(monkeypatch)
    _plant_nan_at(monkeypatch, 105.0)
    out = tmp_path / "out.csv"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sphere": "D", "grid": PLANTED_GRID, "l_max": 8,
                                    "workers": 2, "out": str(out)}))
    assert cli.main(["run", str(cfg_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: g overflows") and err.endswith(f"; {PLANTED_NOTE}\n"), err
    assert not out.exists()
    assert pools == [2]


@pytest.mark.parametrize("raw, code, message", [
    # gold's table ends at 1100 nm; the point is in preset A's silica core
    ({"sphere": "A", "grid": [0.3], "wavelength_nm": 1200.0}, 3,
     "error: wavelength 1200.0 nm outside table range"),
    ({"sphere": "C", "sweep": "wavelength", "r_over_rs": 1.5,
      "wavelengths_nm": [595.0, 700.0, 1200.0]}, 3,
     "error: wavelength 1200.0 nm outside table range"),
    # Riccati arguments a table rejects: k r of a dipole 1e-12 r_s from the
    # origin or 1e6 r_s out, and k r of every interface at 1e-300 nm
    ({"sphere": "D", "grid": [0.5, 1e-12]}, 2, "error: argument too close to zero: |z| = "),
    ({"sphere": "D", "grid": [0.5, 1e6]}, 2, "error: argument too large: |z| = "),
    ({"sphere": "D", "grid": [0.5], "wavelength_nm": 1e-300}, 2,
     "error: argument too large: |z| = 1.367e+303 "),
], ids=["A-table", "C-table", "near-origin", "far", "tiny-wavelength"])
def test_bad_input_fails_before_any_row_and_starts_no_pool(tmp_path, monkeypatch, capsys, raw,
                                                          code, message):
    # with every sweep cut into a block per row, the check still stops the
    # run before its pool starts, and names no row
    pools = _one_block_per_entry(monkeypatch)
    out = tmp_path / "out.csv"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**raw, "workers": 2, "out": str(out)}))
    assert cli.main(["run", str(cfg_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and "while evaluating row" not in err, err
    assert not out.exists()
    assert pools == []


@pytest.mark.parametrize("sphere, grid, radius", [
    # linspace's r/r_s = 1 is preset D's surface
    ("D", {"linspace": [0, 2, 3]}, "150.0"),
    # the default grid's 101st point, r/r_s = 100 * 2.01 / 400, is the core's surface
    ({"shells": [[101.0025, {"n": 1.45}], [201.0, {"n": 1.6}]], "ambient": "water"},
     "default", "101.002"),
], ids=["linspace", "default"])
def test_implicit_grid_point_on_an_interface_fails_before_any_row(tmp_path, capsys, sphere,
                                                                  grid, radius):
    out = tmp_path / "out.csv"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sphere": sphere, "grid": grid, "interface_margin": 0,
                                    "l_max": 8, "out": str(out)}))
    assert cli.main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: radius {radius}"), err
    assert "sits on the interface" in err
    assert "while evaluating row" not in err
    assert not out.exists()


@pytest.mark.parametrize("r_over_rs, code, message, raw", [
    # 0.16 nm inside preset A's silica core
    (0.50924, 2, "error: grid point r/r_s = 0.50924 violates the interface-exclusion margin",
     {}),
    # inside the inner gold shell: the point fails at 595 nm, before gold
    # is read at 1200 nm, past its table
    (0.6, 2, "error: dipole host region 2 is absorbing, or lossless with Re eps <= 0, "
             "at 595.0 nm;", {}),
    # the origin is exempt from the margin, and its silica host takes every
    # wavelength; gold's table ends at 1100 nm, so reading it at 1200 nm
    # fails, before any row
    (0.0, 3, "error: wavelength 1200.0 nm outside table range", {}),
    # preset C from the ambient, its wavelengths in another order
    (1.5, 3, "error: wavelength 1200.0 nm outside table range",
     {"sphere": "C", "wavelengths_nm": [595.0, 700.0, 1200.0]}),
], ids=["margin", "in-gold", "origin", "C-ambient"])
def test_wavelength_sweep_checks_its_point_before_any_row(tmp_path, capsys, r_over_rs, code,
                                                          message, raw):
    out = tmp_path / "out.csv"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "sphere": "A", "sweep": "wavelength", "r_over_rs": r_over_rs, "l_max": 8,
        "wavelengths_nm": [595.0, 1200.0, 700.0], "out": str(out), **raw,
    }))
    assert cli.main(["run", str(cfg_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith(message), err
    assert "while evaluating row" not in err, err
    assert not out.exists()


@pytest.mark.parametrize("r_over_rs, code, message", [
    # in the core, which absorbs at 780 nm.  At 520 nm the shell's table
    # fails to read, the first wavelength at which any region fails; that
    # read raises, not the core's, whose table fails only at 850 nm, and
    # before the point is checked at 780 nm
    (0.3, 3, "error: wavelength 520.0 nm outside table range [550.0, 900.0] nm"),
    # 0.05 nm outside the core: the point fails at 600 nm, before the first
    # wavelength that fails to read
    (0.667, 2, "error: grid point r/r_s = 0.667 violates the interface-exclusion margin"),
], ids=["read", "point"])
def test_wavelength_sweep_raises_the_first_wavelength_that_fails_to_read(tmp_path, capsys,
                                                                          r_over_rs, code,
                                                                          message):
    (tmp_path / "core.txt").write_text("500 1.5 0\n760 1.5 0\n800 1.5 0.5\n")
    (tmp_path / "shell.txt").write_text("550 1.6 0\n900 1.6 0\n")
    out = tmp_path / "out.csv"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "sphere": {"shells": [[100.0, {"table": str(tmp_path / "core.txt")}],
                              [150.0, {"table": str(tmp_path / "shell.txt")}]]},
        "sweep": "wavelength", "r_over_rs": r_over_rs, "l_max": 8,
        "wavelengths_nm": [600.0, 520.0, 780.0, 850.0], "out": str(out),
    }))
    assert cli.main(["run", str(cfg_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith(message), err
    assert "while evaluating row" not in err, err
    assert not out.exists()


def _schema_breaking(bound):
    """(key, value) for each key CONFIG_SCHEMA checks by a rule: a value of
    the wrong type, or if ``bound`` one below the rule's lower bound (keys
    whose rule has one).  A list rule's value breaks its one entry."""
    cases = []
    for key, row in sweep.CONFIG_SCHEMA.items():
        item = row.rule.item if isinstance(row.rule, sweep.ListOf) else row.rule
        if bound:
            bad = None if getattr(item, "lo", None) is None else item.lo - 1
        else:
            bad = {sweep.Number: "1", model.Integer: 1.5, sweep.Choice: ""}.get(type(item))
        if bad is not None:
            cases.append((key, bad if item is row.rule else [bad]))
    return cases


def _overrides(key, value):
    """``key`` set to ``value`` in a config of the sweep kind that reads it."""
    if key in ("wavelengths_nm", "r_over_rs"):
        return {"sweep": "wavelength", "r_over_rs": 1.2, "wavelengths_nm": [600.0], key: value}
    return {key: value}


@pytest.mark.parametrize(
    "key, overrides",
    [
        ("wavelength_nm", {"wavelength_nm": -595.0}),
        ("wavelength_nm", {"wavelength_nm": 0.0}),
        ("wavelengths_nm", {"sweep": "wavelength", "r_over_rs": 1.2,
                            "wavelengths_nm": [600.0, -700.0]}),
        ("r_over_rs", {"sweep": "wavelength", "r_over_rs": -0.5, "wavelengths_nm": [600.0]}),
        ("interface_margin", {"interface_margin": -0.1}),
        ("linspace", {"grid": {"linspace": [-1, 2, 5]}}),
        ("orientation", {"orientations": ["radial"], "orientation": "tangential"}),
        *[(key, _overrides(key, bad)) for key, bad in _schema_breaking(bound=True)],
        # plot files with nowhere to go
        ("plot_dir", {"format": "plot", "out": None}),
    ],
)
def test_out_of_range_values_exit_2_before_any_row(tmp_path, key, overrides):
    with pytest.raises(ConfigError, match=key):
        sweep.config_from_dict({"sphere": "D", **overrides})
    proc, out = _run_config(tmp_path, **overrides)
    assert proc.returncode == 2, proc.stderr
    assert key in proc.stderr and "while evaluating row" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "key, bad",
    [
        ("workers", 2.7),
        ("workers", True),
        ("workers", "2"),
        ("wavelength_nm", True),
        ("wavelength_nm", "595"),
        ("wavelengths_nm", [600.0, True]),
        ("r_over_rs", True),
        ("interface_margin", True),
        ("grid", [0.5, True]),
        ("grid", [0.5, "0.7"]),
        ("grid", {"linspace": [0.0, 1.0, 10**12]}),
        ("out", 5),
        ("plot_dir", 3),
        ("sphere", {"shells": 5}),
        ("sphere", {"shells": [[150.0, {"n": "1.45"}]]}),
        ("out", "a\0.csv"),
        ("plot_dir", "a\0b"),
        ("grid", "bogus"),
        ("out", ""),
        ("plot_dir", ""),
        *_schema_breaking(bound=False),
    ],
)
def test_config_values_must_have_exact_types(key, bad):
    raw = {"sphere": "D", key: bad}
    if key in ("wavelengths_nm", "r_over_rs"):
        raw.update(sweep="wavelength", r_over_rs=1.2, wavelengths_nm=[600.0])
        raw[key] = bad
    with pytest.raises(ConfigError, match=key):
        sweep.config_from_dict(raw)


def test_config_type_error_exits_2_before_any_row(tmp_path):
    proc, out = _run_config(tmp_path, wavelength_nm=True)
    assert proc.returncode == 2, proc.stderr
    assert "wavelength_nm" in proc.stderr
    assert not out.exists()
    # an output path that is not a string stops the run before any row,
    # not with a traceback once the sweep is done
    proc, _ = _run_config(tmp_path, out=5)
    assert proc.returncode == 2, proc.stderr
    assert "out" in proc.stderr and "Traceback" not in proc.stderr
    assert not any(os.path.exists(name) for name in ("5", "5.tmp"))


def _schema_as_markdown():
    """CONFIG_SCHEMA rendered as README's key table."""
    lines = ["| key | value | default | meaning |", "|---|---|---|---|"]
    for key, (rule, default, meaning) in sweep.CONFIG_SCHEMA.items():
        shown = "required" if default is dataclasses.MISSING else f"`{json.dumps(default)}`"
        lines.append(f"| `{key}` | {rule} | {shown} | {meaning} |")
    return "\n".join(lines) + "\n"


def test_readme_key_table_is_the_schema_rendered():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    assert _schema_as_markdown() in readme.read_text(encoding="utf-8")


def _outputs_as_markdown():
    """model.OUTPUTS rendered as README's output table."""
    lines = ["| field | CSV column | plot files | format | kind | meaning |",
             "|---|---|---|---|---|---|"]
    for field, csv, plot, fmt, kind, meaning in model.OUTPUTS:
        cells = [f"`{v}`" if v else "-" for v in (field, csv, plot and f"{plot}_<orientation>.dat")]
        lines.append("| " + " | ".join([*cells, f"`{fmt}`", kind, meaning]) + " |")
    return "\n".join(lines) + "\n"


def test_readme_output_table_is_the_outputs_rendered():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    assert _outputs_as_markdown() in readme.read_text(encoding="utf-8")


# JSON values: every type json.load can return, with numbers at and beyond
# double-precision range, plus the words the config keys accept
_NUMBERS = st.one_of(
    st.integers(min_value=-3, max_value=5000),
    st.integers(),
    st.sampled_from([0, -1, 10**309, -(10**309), 2**63]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_WORDS = st.sampled_from(
    ["A", "D", "radial", "tangential", "average", "wavelength", "default", "csv", "plot", ""]
)
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), _NUMBERS, _WORDS, st.text(max_size=6)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["linspace", "shells", "n", "x"]), inner, max_size=3),
    ),
    max_leaves=8,
)
_KEY_VALUES = {
    "sphere": st.one_of(_WORDS, _JSON),
    "sweep": st.one_of(st.sampled_from(["radial", "wavelength"]), _JSON),
    "wavelength_nm": st.one_of(_NUMBERS, _JSON),
    "wavelengths_nm": st.one_of(st.lists(_NUMBERS, max_size=4), _JSON),
    "r_over_rs": st.one_of(_NUMBERS, _JSON),
    "grid": st.one_of(
        st.just("default"),
        st.lists(_NUMBERS, max_size=4),
        st.fixed_dictionaries({"linspace": st.lists(_NUMBERS, min_size=2, max_size=4)}),
        _JSON,
    ),
    "orientations": st.one_of(st.lists(_WORDS, max_size=3), _JSON),
    "orientation": st.one_of(_WORDS, _JSON),
    "l_max": st.one_of(_NUMBERS, _JSON),
    "workers": st.one_of(_NUMBERS, _JSON),
    "interface_margin": st.one_of(_NUMBERS, _JSON),
    "quadrature_rtol": st.one_of(_NUMBERS, _JSON),
    "format": st.one_of(_WORDS, _JSON),
    "out": _JSON,
    "plot_dir": _JSON,
    "typo": _JSON,
}


@st.composite
def _raw_configs(draw):
    """A valid radial or wavelength config with up to three keys redrawn,
    so that most draws get past the first checks."""
    raw = {"sphere": "D"}
    if draw(st.booleans()):
        raw.update(sweep="wavelength", r_over_rs=1.2, wavelengths_nm=[600.0])
    for key in sorted(draw(st.sets(st.sampled_from(sorted(_KEY_VALUES)), max_size=3))):
        raw[key] = draw(_KEY_VALUES[key])
    return raw


@given(raw=st.one_of(_raw_configs(), _JSON))
@settings(max_examples=200, deadline=None)
def test_config_from_dict_accepts_or_fails_with_exit_2(raw):
    # validates and builds the sphere, but runs no row, whatever l_max or
    # workers says
    try:
        cfg = sweep.config_from_dict(raw)
    except NanoshellError as exc:
        assert cli._exit_code(exc) == cli.EXIT_CONFIG, repr(exc)
        return
    assert isinstance(cfg, sweep.SweepConfig)
    assert isinstance(cfg.sphere, model.StratifiedSphere)
    assert not isinstance(cfg.l_max, bool) and 1 <= cfg.l_max <= transfer.L_MAX_CEILING
    assert isinstance(cfg.workers, int) and cfg.workers >= 1
    assert cfg.wavelength_nm > 0 and all(0 < w < math.inf for w in cfg.wavelengths_nm)
    assert cfg.sweep == "radial" or (cfg.wavelengths_nm and cfg.r_over_rs >= 0)
    assert cfg.orientations and set(cfg.orientations) <= {*model.ORIENTATIONS, "average"}
    assert all(isinstance(path, (str, type(None))) for path in (cfg.out, cfg.plot_dir))
    if isinstance(cfg.grid, dict) and "linspace" in cfg.grid:
        assert 1 <= cfg.grid["linspace"][2] <= sweep.MAX_GRID_POINTS


# command-line values for the CLI fuzz: a valid and an odd choice per
# option, the odd ones NaN, inf, negative, zero, huge, tiny or not numbers.
# Every draw that is valid solves small: l_max <= 8, workers <= 2 and at
# most three grid points
_ODD = ["nan", "inf", "-1", "0", "1e300", "abc", ""]
_VALUES = {
    "lambda": (st.sampled_from(["595", "450", "800", "1100"]),
               st.sampled_from(["1e-300", "0.01", "3000", *_ODD])),
    "r": (st.sampled_from(["0", "0.3", "0.7", "1.2", "2"]),
          st.sampled_from(["1e6", "-0.5", *_ODD])),
    "l-max": (st.integers(1, 8).map(str), st.sampled_from(["4001", str(10**20), "2.5", *_ODD])),
    "workers": (st.sampled_from(["1", "2"]), st.sampled_from(["1e9", "2.5", *_ODD])),
}


def _json_value(token):
    """A command-line token as a sweep config would hold it."""
    try:
        return json.loads(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


@st.composite
def _cli_argv(draw, out):
    """argv of a preset, converge or run command with up to two of its
    values odd; a run command's config is written to ``out`` + ".json"."""
    command = draw(st.sampled_from(["preset", "converge", "run"]))
    name = draw(st.sampled_from(model.preset_names()))
    odd = draw(st.sets(st.sampled_from(["lambda", "r", "l-max", "workers"]), max_size=2))

    def value(key):
        return draw(_VALUES[key][key in odd])

    if command == "converge":
        return ["converge", name, *(f"--{key}={value(key)}" for key in ("r", "lambda", "l-max"))]
    grid = [draw(_VALUES["r"][0]) for _ in range(draw(st.integers(0, 3 - ("r" in odd))))]
    if "r" in odd:
        grid.insert(draw(st.integers(0, len(grid))), value("r"))
    lam, l_max, workers = value("lambda"), value("l-max"), value("workers")
    if command == "preset":
        return ["preset", name, f"--lambda={lam}", f"--grid={','.join(grid)}",
                f"--l-max={l_max}", f"--workers={workers}", f"--out={out}"]
    raw = {"sphere": name, "wavelength_nm": _json_value(lam),
           "grid": [_json_value(g) for g in grid], "l_max": _json_value(l_max),
           "workers": _json_value(workers), "out": out}
    with open(out + ".json", "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    return ["run", out + ".json"]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_cli_main_exits_with_its_documented_code(tmp_path_factory, data):
    # every command either succeeds or exits with the code of its error (2
    # config or geometry, 3 material range, 4 numerical) on one "error:" or
    # usage line, without a traceback and without writing its output
    out = str(tmp_path_factory.mktemp("cli") / "out.csv")
    argv = data.draw(_cli_argv(out))
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
    text = stderr.getvalue()
    assert code in (0, 2, 3, 4), (argv, code, text)
    assert "Traceback" not in text, (argv, text)
    if code:
        assert text.startswith(("error: ", "usage: ")), (argv, text)
        assert not os.path.exists(out), argv


def _run_main(config_path, raw):
    """Exit code and output bytes of `nanoshell run` on one config."""
    out = pathlib.Path(raw["out"])
    config_path.write_text(json.dumps(raw))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["run", str(config_path)])
    data = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return code, data


@given(
    name=st.sampled_from(model.preset_names()),
    at=st.one_of(
        st.just(0.0),
        st.floats(0.0, 2.1),
        # an interface of the preset, by index, and an offset from it
        st.tuples(st.integers(0, 3), st.floats(-0.002, 0.002)),
    ),
    wl=st.floats(400.0, 1100.0),
)
@example(name="A", at=0.50924, wl=595.0)
@settings(max_examples=40, deadline=None)
def test_a_point_is_checked_alike_in_both_sweep_kinds(tmp_path_factory, name, at, wl):
    # the same (r/r_s, wavelength) as a one-point radial grid and as a
    # one-wavelength sweep: the same exit code, and the same CSV bytes
    sphere = model.preset(name)
    if isinstance(at, tuple):
        i, offset = at
        at = sphere.radii[i % len(sphere.radii)] / sphere.outer_radius_nm + offset
    work = tmp_path_factory.mktemp("kinds")
    base = {"sphere": name, "l_max": 8, "out": str(work / "out.csv")}
    radial = _run_main(work / "radial.json", {**base, "grid": [at], "wavelength_nm": wl})
    scan = _run_main(work / "scan.json", {**base, "sweep": "wavelength", "r_over_rs": at,
                                          "wavelengths_nm": [wl]})
    assert radial[0] == scan[0], (at, wl, radial[0], scan[0])
    assert radial[1] == scan[1], (at, wl)


def _rows_of(prepared, rows, orientations):
    """Every row's results from one close over all of rows (r_nm, wavelength)."""
    closure = transfer.close(prepared, rows, orientations)
    return [
        {o: dataclasses.astuple(res[o]) for o in orientations}
        for res in spectro.evaluate_from_coefficients(closure)
    ]


# large enough that the dipole arguments start their j recurrences at
# different orders
FOUR_SHELLS = {
    "shells": [[250.0, {"n": 1.45}], [400.0, {"n": 2.1}], [550.0, {"n": 1.6}], [700.0, {"n": 2.4}]],
    "ambient": "water",
}


@pytest.mark.parametrize(
    "spec, orientations",
    [("A", model.ORIENTATIONS), (FOUR_SHELLS, model.ORIENTATIONS), (FOUR_SHELLS, ("tangential",))],
)
def test_block_rows_do_not_depend_on_their_neighbours(spec, orientations):
    # every row of a block, and of the blocks a pool would cut from it, is
    # bit-identical to the same row closed on its own; the rows span
    # several host regions and the center
    sphere = sweep.sphere_from_spec(spec)
    cfg = sweep.config_from_dict({"sphere": spec})
    grid = sweep.resolve_grid(cfg, sphere)
    if spec != "A":
        grid = grid[::25]
    rows = [(g * sphere.outer_radius_nm, LAM) for g in grid]
    prepared = transfer.prepare(sphere, [LAM], 60)
    hosts = {model.validate_dipole(sphere, model.DipoleSource(r, "radial", LAM)) for r, _ in rows}
    assert len(hosts) >= 3 and (0.0, LAM) in rows
    # the reference closes and observes each orientation alone
    alone = [{o: _rows_of(prepared, [row], (o,))[0][o] for o in orientations} for row in rows]
    assert _rows_of(prepared, rows, orientations) == alone
    results = spectro.evaluate_rows(transfer.prepare(sphere, [LAM], 60), rows, orientations)
    assert [{o: dataclasses.astuple(res[o]) for o in orientations} for res in results] == alone
    for n_blocks in (2, 3, 7):
        cuts = [len(rows) * b // n_blocks for b in range(n_blocks + 1)]
        split = []
        for lo, hi in zip(cuts, cuts[1:]):
            split += _rows_of(transfer.prepare(sphere, [LAM], 60), rows[lo:hi], orientations)
        assert split == alone
    # the one-row entry point agrees too
    mid = len(rows) // 2
    one = spectro.evaluate(sphere, model.DipoleSource(rows[mid][0], model.TANGENTIAL, LAM))
    assert dataclasses.astuple(one) == alone[mid][model.TANGENTIAL]


def test_shared_sweeps_do_not_depend_on_first_use():
    # one prepare's two sweeps serve every host region and both
    # polarizations, extended as far as each close needs: closing rows in
    # every host of a five-region sphere, host by host with radial-only,
    # tangential-only and both orientations, in ascending and then in
    # descending host order, gives every row's results bit for bit as a
    # prepare and close of that row alone
    sphere = sweep.sphere_from_spec(FOUR_SHELLS)
    by_host = [[60.0, 200.0], [280.0, 380.0], [420.0, 530.0], [580.0, 680.0], [750.0, 1200.0]]
    for host, radii in enumerate(by_host, start=1):
        for r in radii:
            assert model.validate_dipole(sphere, model.DipoleSource(r, "radial", LAM)) == host
    kinds = ((model.RADIAL,), (model.TANGENTIAL,), model.ORIENTATIONS)
    alone = {
        (r, o): _rows_of(transfer.prepare(sphere, [LAM], 60), [(r, LAM)], o)[0]
        for radii in by_host for r in radii for o in kinds
    }
    for order in (by_host, by_host[::-1]):
        prepared = transfer.prepare(sphere, [LAM], 60)
        for radii in order:
            for orientations in kinds:
                got = _rows_of(prepared, [(r, LAM) for r in radii], orientations)
                assert got == [alone[r, orientations] for r in radii], (radii, orientations)


@pytest.mark.parametrize("spec, r_over_rs", [
    ("A", (0.0, 0.3, 0.8, 1.3)),
    ("C", (0.0, 0.45, 0.8, 1.3)),
    (FOUR_SHELLS, (0.0, 0.2, 0.45, 0.7, 0.9, 1.3)),
])
def test_batched_wavelengths_match_rows_prepared_alone(spec, r_over_rs):
    # every row of a prepare over many wavelengths is bit-identical, in
    # every SpectroResult field, to the same row prepared alone at its
    # wavelength; the rows sit at the center and in several host regions
    sphere = sweep.sphere_from_spec(spec)
    wavelengths = [450.0 + 75.0 * i for i in range(9)]
    rows = [(g * sphere.outer_radius_nm, wl) for wl in wavelengths for g in r_over_rs]
    hosts = {model.validate_dipole(sphere, model.DipoleSource(r, "radial", wl)) for r, wl in rows}
    assert len(hosts) >= 2
    alone = [
        {o: dataclasses.astuple(res[o]) for o in (*model.ORIENTATIONS, "average")}
        for r, wl in rows
        for res in spectro.evaluate_rows(transfer.prepare(sphere, [wl], 60), [(r, wl)],
                                         model.ORIENTATIONS)
    ]
    prepared = transfer.prepare(sphere, wavelengths, 60)
    batched = spectro.evaluate_rows(prepared, rows, model.ORIENTATIONS)
    assert [{o: dataclasses.astuple(res[o]) for o in res} for res in batched] == alone
    # wavelengths in another order, rows interleaved, and closed in one
    # call, against each row and orientation prepared, closed and observed
    # alone
    single = {wl: transfer.prepare(sphere, [wl], 60) for wl in wavelengths}
    one_by_one = [
        {o: _rows_of(single[wl], [(r, wl)], (o,))[0][o] for o in model.ORIENTATIONS}
        for r, wl in rows
    ]
    assert one_by_one == [{o: row[o] for o in model.ORIENTATIONS} for row in alone]
    shuffled = transfer.prepare(sphere, wavelengths[::-1], 60)
    assert _rows_of(shuffled, rows[::-1], model.ORIENTATIONS) == one_by_one[::-1]
    # each wavelength's 1/k, 1/mu and matching determinant are the Python
    # complex arithmetic of a one-wavelength prepare, not numpy's division
    inv_k, inv_mu, det = prepared.scalars()
    for region in range(1, sphere.n_regions + 1):
        for pol, sign in enumerate((-1j, 1j)):  # TM, TE
            for w in range(len(prepared.wavelengths)):
                k, mu = complex(prepared.k[region - 1, w]), prepared.mu[region - 1]
                n = w * prepared.l_max  # order 1 of wavelength w
                got = inv_k[region - 1, n], inv_mu[region - 1, n], det[region - 1, pol, n]
                assert got == (1.0 / k, 1.0 / mu, sign / (k * mu))


def test_csv_bytes_across_one_two_and_three_workers(monkeypatch):
    # rows on both sides of D's surface, in both host regions, in one block
    # and in two and three pool blocks
    pools = _one_block_per_entry(monkeypatch)
    texts = set()
    for workers in (1, 2, 3):
        cfg = sweep.config_from_dict(
            {"sphere": "D", "grid": {"linspace": [0.05, 1.95, 11]}, "workers": workers}
        )
        texts.add(sweep.run_sweep(cfg).to_csv())
    assert len(texts) == 1
    assert pools == [2, 3]


def test_block_cuts_follow_the_work_of_a_sweep():
    # the benchmark's radial sweeps (40 and 18 rows at l_max 60, one
    # prepare) run in-process
    assert sweep.block_cuts(40, 1, 60, 2) == [0, 40]
    assert sweep.block_cuts(18, 1, 60, 2) == [0, 18]
    assert sweep.block_cuts(0, 0, 60, 4) == [0, 0]
    # the default D and B grids run in-process at any worker count, where
    # they are faster than a pool; D's 2,000-point grid (CI compares its
    # CSV bytes against one block) is cut in two at 2 workers
    for preset in ("D", "B"):
        cfg = sweep.config_from_dict({"sphere": preset})
        n = len(sweep.resolve_grid(cfg, model.preset(preset)))
        assert sweep.block_cuts(n, 1, 60, 2) == [0, n]
        assert sweep.block_cuts(n, 1, 60, 8) == [0, n]
    assert sweep.block_cuts(488, 1, 60, 2) == [0, 488]
    assert sweep.block_cuts(489, 1, 60, 2) == [0, 244, 489]
    assert sweep.block_cuts(2000, 1, 60, 2) == [0, 1000, 2000]
    # a wavelength sweep prepares each row's wavelength, three rows' work
    # more: 123 rows fill two blocks at l_max 60, 8 at l_max 1000, and C's
    # 41-row 450-1050 nm sweep runs in-process
    assert sweep.block_cuts(122, 122, 60, 2) == [0, 122]
    assert sweep.block_cuts(123, 123, 60, 2) == [0, 61, 123]
    assert sweep.block_cuts(200, 200, 60, 2) == [0, 100, 200]
    assert sweep.block_cuts(41, 41, 60, 8) == [0, 41]
    assert sweep.block_cuts(7, 7, 1000, 2) == [0, 7]
    assert sweep.block_cuts(8, 8, 1000, 2) == [0, 4, 8]
    # at l_max 4000 a few rows fill a block
    assert sweep.block_cuts(4, 1, 4000, 2) == [0, 4]
    assert sweep.block_cuts(5, 1, 4000, 2) == [0, 2, 5]
    assert sweep.block_cuts(8, 1, 4000, 2) == [0, 4, 8]
    assert sweep.block_cuts(60, 1, 4000, 3) == [0, 20, 40, 60]


def test_wavelength_sweep_counts_one_prepare_per_row(monkeypatch):
    # 135 wavelengths fill two blocks at l_max 60; 135 radii at one
    # wavelength do not
    pools = _record_pools(monkeypatch)
    raw = {
        "sphere": "D",
        "sweep": "wavelength",
        "r_over_rs": 1.3,
        "wavelengths_nm": [450.0 + 4.0 * i for i in range(135)],
        "orientation": "radial",
    }
    texts = {sweep.run_sweep(sweep.config_from_dict({**raw, "workers": w})).to_csv() for w in (1, 2)}
    assert len(texts) == 1
    assert pools == [2]
    radial = {"sphere": "D", "grid": {"linspace": [0.05, 1.95, 135]}, "workers": 2}
    sweep.run_sweep(sweep.config_from_dict(radial))
    assert pools == [2]


def test_a_pool_starts_at_most_one_process_per_cpu(monkeypatch):
    # D's 2,000-point grid at 64 workers is cut into 8 blocks; an executor
    # that maps in-process records the processes a pool would start, so
    # none is started
    import concurrent.futures

    asked = []

    class InProcess:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    pools = _record_pools(monkeypatch)
    raw = {"sphere": "D", "grid": {"linspace": [0, 2, 2000]}, "orientations": ["radial"]}
    texts = {sweep.run_sweep(sweep.config_from_dict({**raw, "workers": w})).to_csv()
             for w in (1, 64)}
    assert len(texts) == 1
    assert pools == [8] and asked == [3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one process
    sweep._start_pool(100000)
    assert asked == [3, 1]


def _record_reads(monkeypatch):
    """The wavelengths of every transfer.layer_context call, in order."""
    reads = []
    read = transfer.layer_context
    monkeypatch.setattr(transfer, "layer_context",
                        lambda s, wls: reads.append(list(wls)) or read(s, wls))
    return reads


def test_a_radial_sweep_reads_its_wavelength_once(monkeypatch):
    # the read that checks the points is the one the prepare takes
    reads = _record_reads(monkeypatch)
    sweep.run_sweep(_cfg(grid="default", orientations=["radial"]))
    assert reads == [[LAM]]


def test_a_wavelength_sweep_reads_its_wavelengths_once(monkeypatch):
    # one read of every distinct wavelength, in declared order, checks the
    # point and is shared by the prepares of the sweep's two wavelength
    # batches (33 wavelengths each at l_max 60)
    reads = _record_reads(monkeypatch)
    wavelengths = [450.0 + 4.0 * i for i in range(40)]
    sweep.run_sweep(sweep.config_from_dict({
        "sphere": "C", "sweep": "wavelength", "r_over_rs": 0.45, "orientations": ["radial"],
        "wavelengths_nm": wavelengths + wavelengths[:3]}))
    assert reads == [wavelengths]


def test_a_failing_wavelength_sweep_reads_up_to_its_bad_wavelength_and_checks_once(monkeypatch):
    # the joint read fails at 1200 nm, past the gold table: the wavelengths
    # are read one at a time up to that one and no further, the ones before
    # it are read together and checked in one call, then 1200 nm raises
    reads = _record_reads(monkeypatch)
    checks = []
    check = sweep._check_points
    monkeypatch.setattr(sweep, "_check_points", lambda s, layers, **kw: (
        checks.append(list(layers.wavelengths)) or check(s, layers, **kw)))
    wavelengths = [450.0 + 4.0 * i for i in range(10)]
    declared = wavelengths + [1200.0, 600.0, 1300.0]
    with pytest.raises(MaterialRangeError, match="^wavelength 1200.0 nm outside table range"):
        sweep.run_sweep(sweep.config_from_dict({
            "sphere": "C", "sweep": "wavelength", "r_over_rs": 0.45, "orientations": ["radial"],
            "wavelengths_nm": declared}))
    assert reads == [declared, *([wl] for wl in wavelengths), [1200.0], wavelengths]
    assert checks == [wavelengths]


def _benchmark_tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("tracing")


def test_benchmark_tracer_patches_names_that_exist_and_restores_them(monkeypatch):
    # perfbench/tracing.py wraps package functions by name for its traced
    # runs; a refactor that removes one of those names fails here, not only
    # in the benchmark's own self-test
    tracing = _benchmark_tracing(monkeypatch)
    modules = [m for m in vars(tracing).values()
               if isinstance(m, types.ModuleType) and m.__name__.startswith("nanoshell.")]
    originals = {(m, name): v for m in modules for name, v in vars(m).items()}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer._undo
        assert all(getattr(m, name) is not v for m, name, v in tracer._undo)
    finally:
        tracer.uninstall()
    assert all(getattr(m, name) is v for (m, name), v in originals.items())


@pytest.mark.xfail(raises=AttributeError, reason=(
    "the benchmark tracer counts len(result.channels) of solve_dipole_fields, "
    "which returns a closure without channels (ROADMAP item 1)"))
def test_benchmark_tracer_survives_a_convergence_report(monkeypatch):
    # nanoshell converge under the benchmark's tracer; this passes once the
    # tracer counts a closure's channels, and the marker comes off then
    tracer = _benchmark_tracing(monkeypatch).Tracer()
    try:
        tracer.install()
        sweep.convergence_report(model.preset("D"), model.DipoleSource(0.0, "radial", LAM), 8)
    finally:
        tracer.uninstall()
    assert tracer.counts["transfer.channels"] > 0
