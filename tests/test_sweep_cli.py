import dataclasses
import json
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from nanoshell import cli, model, spectro, sweep, transfer
from nanoshell.errors import (
    ConfigError,
    DegenerateSystemError,
    DomainError,
    GeometryError,
    MaterialRangeError,
    QuadratureError,
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


def test_explicit_grid_margin_violation():
    cfg = _cfg(grid=[1.0000005])
    with pytest.raises(ConfigError, match="interface-exclusion"):
        sweep.resolve_grid(cfg, model.preset("D"))


def test_radial_sweep_reference_rows():
    cfg = _cfg(orientations=["radial", "tangential"])
    table = sweep.run_radial_sweep(cfg)
    assert len(table.rows) == 2 * len(D_GRID)
    by_key = {(round(r.r_over_rs, 6), r.orientation): r.result for r in table.rows}
    assert by_key[(1.860746, "tangential")].wt_norm == pytest.approx(1.00414, rel=5e-4)
    assert by_key[(1.005025, "radial")].wt_norm == pytest.approx(1.27798, rel=2e-3)
    # rows ordered by radius then orientation
    keys = [(r.r_over_rs, r.orientation) for r in table.rows]
    assert keys == sorted(keys, key=lambda t: (t[0], t[1] != "radial"))


def test_center_rows_match_for_both_orientations():
    cfg = sweep.config_from_dict(
        {"sphere": "A", "grid": [0.0], "orientations": ["radial", "tangential"]}
    )
    table = sweep.run_radial_sweep(cfg)
    wt = [r.result.wt_norm for r in table.rows]
    assert wt[0] == pytest.approx(wt[1], rel=1e-12)
    assert wt[0] == pytest.approx(0.8751, rel=5e-3)


def test_empty_grid_gives_empty_table():
    cfg = _cfg(grid=[])
    table = sweep.run_radial_sweep(cfg)
    assert table.rows == []
    csv = table.to_csv()
    assert csv.splitlines() == [",".join(sweep.CSV_COLUMNS)]


def test_csv_format():
    cfg = _cfg(grid=[0.0, 1.2], orientations=["radial"])
    csv = sweep.run_radial_sweep(cfg).to_csv()
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

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", RecordingPool)
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
    base = sweep.run_radial_sweep(cfg).to_csv()
    again = sweep.run_radial_sweep(cfg).to_csv()
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
        assert sweep.run_radial_sweep(cfg_w).to_csv() == base
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
    wrow = sweep.run_wavelength_sweep(wcfg).rows[0]
    rcfg = sweep.config_from_dict(
        {"sphere": "A", "grid": [1.2], "orientations": ["radial"]}
    )
    rrow = sweep.run_radial_sweep(rcfg).rows[0]
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
    for row in sweep.run_wavelength_sweep(cfg).rows:
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
    rows = sweep.run_wavelength_sweep(cfg).rows
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
        sweep.run_wavelength_sweep(cfg)


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
    table = sweep.run_radial_sweep(cfg)
    sweep.write_outputs(table, cfg)
    assert (tmp_path / "curves" / "shift_radial.dat").exists()
    assert not (tmp_path / "curves.tmp").exists()


def test_plot_files(tmp_path):
    cfg = _cfg(grid=[0.5, 1.5], orientations=["radial"], plot_dir=str(tmp_path / "plots"))
    table = sweep.run_radial_sweep(cfg)
    sweep.write_plot_files(table, cfg.plot_dir)
    path = tmp_path / "plots" / "wt_radial.dat"
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    x, y = lines[0].split()
    assert float(x) == 0.5
    float(y)


def test_convergence_report_small_sphere_center():
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


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "nanoshell.cli", *args],
        capture_output=True,
        text=True,
    )


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


def test_cli_converge_runs():
    proc = _run_cli("converge", "D", "--r", "0.0", "--orientation", "radial")
    assert proc.returncode == 0
    assert "wt_partial" in proc.stdout


def test_exit_code_mapping():
    assert cli._exit_code(ConfigError("x")) == 2
    assert cli._exit_code(GeometryError("x")) == 2
    assert cli._exit_code(MaterialRangeError("x")) == 3
    assert cli._exit_code(DegenerateSystemError(3, "TM")) == 4
    assert cli._exit_code(QuadratureError(2, 1e-3, 1e-7)) == 4


def test_failing_row_is_named_on_the_error_line(tmp_path):
    # gold's table ends at 1100 nm: 1200 nm is the first failing row
    for workers in (1, 2):
        proc, out = _run_config(
            tmp_path,
            sphere="A",
            sweep="wavelength",
            r_over_rs=1.3,
            wavelengths_nm=[600.0, 1200.0, 1300.0],
            orientation="radial",
            workers=workers,
        )
        assert proc.returncode == 3, proc.stderr
        assert "lambda=1200 nm" in proc.stderr, proc.stderr
        assert "lambda=1300" not in proc.stderr
        assert not out.exists()


def test_failing_row_is_named_through_a_pool(tmp_path, monkeypatch, capsys):
    # the 3-row sweep is cut into two pool blocks; the annotated error of
    # the second block crosses back to the parent with its row note
    pools = _one_block_per_entry(monkeypatch)
    raw = {
        "sphere": "A",
        "sweep": "wavelength",
        "r_over_rs": 1.3,
        "wavelengths_nm": [600.0, 1200.0, 1300.0],
        "orientation": "radial",
        "workers": 2,
    }
    with pytest.raises(MaterialRangeError) as err:
        sweep.run_sweep(sweep.config_from_dict(raw))
    notes = " ".join(err.value.__notes__)
    assert "lambda=1200 nm" in notes and "lambda=1300" not in notes
    out = tmp_path / "out.csv"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**raw, "out": str(out)}))
    assert cli.main(["run", str(cfg_path)]) == 3
    assert "lambda=1200 nm" in capsys.readouterr().err
    assert not out.exists()
    assert pools == [2, 2]


@pytest.mark.parametrize(
    "key, overrides",
    [
        ("wavelength_nm", {"wavelength_nm": -595.0}),
        ("wavelength_nm", {"wavelength_nm": 0.0}),
        ("wavelengths_nm", {"sweep": "wavelength", "r_over_rs": 1.2,
                            "wavelengths_nm": [600.0, -700.0]}),
        ("r_over_rs", {"sweep": "wavelength", "r_over_rs": -0.5, "wavelengths_nm": [600.0]}),
        ("interface_margin", {"interface_margin": -0.1}),
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


def _rows_of(prepared, r_nm, orientations):
    """Every row's results from one close over all of r_nm."""
    return [
        {o: dataclasses.astuple(spectro.evaluate_from_coefficients(c)) for o, c in row.items()}
        for row in transfer.close(prepared, r_nm, orientations)
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
    r_nm = [g * sphere.outer_radius_nm for g in grid]
    prepared = transfer.prepare(sphere, LAM, 60)
    hosts = {model.validate_dipole(sphere, model.DipoleSource(r, "radial", LAM)) for r in r_nm}
    assert len(hosts) >= 3 and 0.0 in r_nm
    alone = [_rows_of(prepared, [r], orientations)[0] for r in r_nm]
    assert _rows_of(prepared, r_nm, orientations) == alone
    rows = spectro.evaluate_rows(transfer.prepare(sphere, LAM, 60), r_nm, orientations)
    assert [{o: dataclasses.astuple(row[o]) for o in orientations} for row in rows] == alone
    for n_blocks in (2, 3, 7):
        cuts = [len(r_nm) * b // n_blocks for b in range(n_blocks + 1)]
        split = []
        for lo, hi in zip(cuts, cuts[1:]):
            split += _rows_of(transfer.prepare(sphere, LAM, 60), r_nm[lo:hi], orientations)
        assert split == alone
    # the one-row entry point agrees too
    mid = len(r_nm) // 2
    one = spectro.evaluate(sphere, model.DipoleSource(r_nm[mid], model.TANGENTIAL, LAM))
    assert dataclasses.astuple(one) == alone[mid][model.TANGENTIAL]


def test_csv_bytes_across_one_two_and_three_workers(monkeypatch):
    # rows on both sides of D's surface, in both host regions, in one block
    # and in two and three pool blocks
    pools = _one_block_per_entry(monkeypatch)
    texts = set()
    for workers in (1, 2, 3):
        cfg = sweep.config_from_dict(
            {"sphere": "D", "grid": {"linspace": [0.05, 1.95, 11]}, "workers": workers}
        )
        texts.add(sweep.run_radial_sweep(cfg).to_csv())
    assert len(texts) == 1
    assert pools == [2, 3]


def test_block_cuts_follow_the_work_of_a_sweep():
    # the benchmark's radial sweeps (40 and 18 rows at l_max 60, one
    # prepare) run in-process
    assert sweep.block_cuts(40, 1, 60, 2) == [0, 40]
    assert sweep.block_cuts(18, 1, 60, 2) == [0, 18]
    assert sweep.block_cuts(0, 0, 60, 4) == [0, 0]
    # the default D and B grids are cut in two at 2 workers (CI compares
    # their CSV bytes against one block), and into no more than three
    for preset in ("D", "B"):
        cfg = sweep.config_from_dict({"sphere": preset})
        n = len(sweep.resolve_grid(cfg, model.preset(preset)))
        assert sweep.block_cuts(n, 1, 60, 1) == [0, n]
        assert sweep.block_cuts(n, 1, 60, 2) == [0, n // 2, n]
        assert len(sweep.block_cuts(n, 1, 60, 8)) <= 4
    # a wavelength sweep prepares once per row: 16 rows fill two blocks,
    # C's 41-row 450-1050 nm sweep five
    assert sweep.block_cuts(15, 15, 60, 2) == [0, 15]
    assert sweep.block_cuts(16, 16, 60, 2) == [0, 8, 16]
    assert len(sweep.block_cuts(41, 41, 60, 8)) == 6
    # at l_max 4000 a few rows fill a block
    assert sweep.block_cuts(3, 1, 4000, 2) == [0, 3]
    assert sweep.block_cuts(4, 1, 4000, 2) == [0, 2, 4]
    assert sweep.block_cuts(60, 1, 4000, 3) == [0, 20, 40, 60]


def test_wavelength_sweep_counts_one_prepare_per_row(monkeypatch):
    # 16 wavelengths fill two blocks at l_max 60; 16 radii at one
    # wavelength do not
    pools = _record_pools(monkeypatch)
    raw = {
        "sphere": "D",
        "sweep": "wavelength",
        "r_over_rs": 1.3,
        "wavelengths_nm": [450.0 + 40.0 * i for i in range(16)],
        "orientation": "radial",
    }
    texts = {sweep.run_sweep(sweep.config_from_dict({**raw, "workers": w})).to_csv() for w in (1, 2)}
    assert len(texts) == 1
    assert pools == [2]
    radial = {"sphere": "D", "grid": {"linspace": [0.05, 1.95, 16]}, "workers": 2}
    sweep.run_sweep(sweep.config_from_dict(radial))
    assert pools == [2]
