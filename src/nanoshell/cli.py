"""Command-line runner.

Subcommands:
  run       execute a JSON sweep config
  preset    radial sweep over one of the built-in spheres A..F
  regress   run the built-in benchmark table, one pass/fail line per entry
  converge  per-order partial-sum report for one dipole position

Exit codes: 0 success, 1 benchmark failures, 2 config/geometry error,
3 material-range error, 4 numerical error.

The argument parser is built once per process, on the first call of main.
The benchmark table is imported only by ``regress``, so the other commands
never load it.
"""

import argparse
import functools
import sys

from . import model, sweep
from .errors import (
    ConfigError,
    DegenerateSystemError,
    DomainError,
    GeometryError,
    MaterialRangeError,
    NanoshellError,
    RangeError,
)

EXIT_CONFIG = 2
EXIT_MATERIAL = 3
EXIT_NUMERICAL = 4


def _exit_code(exc):
    if isinstance(exc, (ConfigError, GeometryError, DomainError)):
        return EXIT_CONFIG
    if isinstance(exc, MaterialRangeError):
        return EXIT_MATERIAL
    if isinstance(exc, (DegenerateSystemError, RangeError)):
        return EXIT_NUMERICAL
    return EXIT_CONFIG


@functools.cache
def _build_parser():
    p = argparse.ArgumentParser(
        prog="nanoshell",
        description=(
            "Frequency shifts, decay rates, fluorescence yield and "
            "photostability of a dipole emitter inside or outside a "
            "stratified sphere."
        ),
    )
    sub = p.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="execute a JSON sweep config")
    run_p.add_argument("config", help="path to the sweep config (JSON)")

    pre_p = sub.add_parser("preset", help="radial sweep over a built-in sphere")
    pre_p.add_argument("name", choices=model.preset_names())
    pre_p.add_argument("--lambda", dest="wavelength", type=float, default=595.0,
                       help="vacuum wavelength [nm] (default 595)")
    pre_p.add_argument("--grid", default="default",
                       help="'default' or comma-separated r/r_s values")
    pre_p.add_argument("--out", default="results.csv", help="output CSV path")
    pre_p.add_argument("--orientations", default="radial,tangential,average",
                       help="comma-separated orientation list")
    pre_p.add_argument("--l-max", type=int, default=60)
    pre_p.add_argument("--workers", type=int, default=1)
    pre_p.add_argument("--plot-dir", default=None,
                       help="also write two-column plot files here")

    sub.add_parser("regress", help="run the built-in benchmark table")

    con_p = sub.add_parser("converge", help="per-order convergence report")
    con_p.add_argument("name", choices=model.preset_names())
    con_p.add_argument("--r", type=float, required=True, help="dipole r/r_s")
    con_p.add_argument("--orientation", choices=model.ORIENTATIONS, default="radial")
    con_p.add_argument("--lambda", dest="wavelength", type=float, default=595.0)
    con_p.add_argument("--l-max", type=int, default=60)
    return p


def _cmd_run(args):
    cfg = sweep.load_config(args.config)
    table = sweep.run_sweep(cfg)
    if cfg.out or cfg.plot_dir:
        sweep.write_outputs(table, cfg)
        print(f"wrote {len(table.rows)} rows" + (f" to {cfg.out}" if cfg.out else ""))
    else:
        sys.stdout.write(table.to_csv())
    return 0


def _grid_point(token):
    try:
        return float(token)
    except ValueError:
        raise ConfigError(f"--grid values must be numbers, got {token.strip()!r}") from None


def _cmd_preset(args):
    grid = args.grid
    if grid != "default":
        grid = [_grid_point(v) for v in grid.split(",") if v.strip()]
    cfg = sweep.config_from_dict(
        {
            "sphere": args.name,
            "sweep": "radial",
            "wavelength_nm": args.wavelength,
            "grid": grid,
            "orientations": [o.strip() for o in args.orientations.split(",") if o.strip()],
            "l_max": args.l_max,
            "out": args.out,
            "workers": args.workers,
            "plot_dir": args.plot_dir,
        }
    )
    table = sweep.run_radial_sweep(cfg)
    sweep.write_outputs(table, cfg)
    print(f"wrote {len(table.rows)} rows to {cfg.out}")
    return 0


def _cmd_regress():
    from . import benchmarks

    results = benchmarks.run()
    for line in benchmarks.format_results(results):
        print(line)
    return 0 if all(r.passed for r in results) else 1


def _cmd_converge(args):
    sphere = model.preset(args.name)
    dip = model.DipoleSource(
        args.r * sphere.outer_radius_nm, args.orientation, args.wavelength
    )
    report = sweep.convergence_report(sphere, dip, args.l_max)
    for line in report.lines():
        print(line)
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "regress":
            return _cmd_regress()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "preset":
            return _cmd_preset(args)
        if args.command == "converge":
            return _cmd_converge(args)
        parser.print_help()
        return 0
    except NanoshellError as exc:
        # notes carry the context, such as the sweep row that failed
        print("error: " + "; ".join([str(exc), *getattr(exc, "__notes__", ())]), file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
