"""Compare every result of this tree with another tree's, query by query.

    PYTHONPATH=src python tests/compare_results.py OTHER_SRC

OTHER_SRC is the ``src`` directory of another checkout, for example the
parent commit unpacked with ``git archive``.  Each tree evaluates the same
fixed query set in a subprocess of its own, with this checkout's tests and
benchmark inputs:

* the golden sweeps and ``converge`` reports of ``test_golden.py``;
* the default radial grids of presets A-F;
* preset C's wavelength sweep from 450 to 1050 nm at r/r_s 0.45;
* CI's custom sphere, a {"n": 1.45, "mu": 1.3} core, gold and a lossless
  {"table"} shell, here at mu 1.3, whose permittivity numpy's complex
  quotient would round differently: the default radial grid at 650 nm, and
  a wavelength sweep from 450 to 1050 nm in the table shell;
* seeds 1-3 of every benchmark workload (one worker);
* presets A, C and D at l_max 1000 and 4000 on grids that hold the origin,
  and for A the point of acceptance criterion 8, and on shorter grids at
  l_max 61 and 63, which 4 does not divide (the Riccati recurrences check
  j and h1 at different orders then);
* the single ``spectro.evaluate`` queries of seeds 1-3 of every benchmark
  workload, each seed's in their seeded order, twice over in one process,
  as the benchmark asks them: the second pass meets the prepares the first
  left (``transfer.shared_prepare``); and seed 1's once more at l_max 61
  and at 63.

It prints, per result field of this checkout's ``model.OUTPUTS`` (the
orientation aside, which keys the result), the largest |change| /
max(|value|, wt) against OTHER_SRC's value and the share of values that are
bit-identical, then every golden cell that moved, with its relative change.
Both trees are asked for this checkout's fields by name, so OTHER_SRC needs
no ``OUTPUTS`` of its own.  It exits non-zero only when the two trees return
different rows.  pytest does not collect this file.
"""

import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

TESTS = pathlib.Path(__file__).resolve().parent
# the lossless table shell of CI's custom sphere
NK_TABLE = "400 1.50 0\n1100 1.70 0\n"


def _configs():
    """(name, sweep config) of every query set entry but the golden files
    and the single queries."""
    import inputs

    out = [(f"default_{p}", {"sphere": p}) for p in "ABCDEF"]
    out.append(("wavelength_C_450_1050", {
        "sphere": "C", "sweep": "wavelength", "r_over_rs": 0.45,
        "wavelengths_nm": [450.0 + 2.0 * i for i in range(301)]}))
    # the table is NK_TABLE, read from $NANOSHELL_MATERIAL_DIR (see _run)
    custom = {"shells": [[100, {"n": 1.45, "mu": 1.3}], [130, "gold"],
                         [160, {"table": "nk.txt", "mu": 1.3}]]}
    out.append(("custom_mu_radial", {"sphere": custom, "wavelength_nm": 650.0}))
    out.append(("custom_mu_wavelength", {
        "sphere": custom, "sweep": "wavelength", "r_over_rs": 0.9,
        "wavelengths_nm": [450.0 + 4.0 * i for i in range(151)]}))
    for name in inputs.WORKLOADS:
        for seed in (1, 2, 3):
            for k, s in enumerate(inputs.generate(name, seed).sweeps):
                out.append((f"{name}_seed{seed}_{k}", dict(s.config, workers=1)))
    grids = {"A": [0.0, 0.3, 0.8542, 0.85425, 1.05, 1.5], "C": [0.0, 0.45, 0.8, 1.01, 1.5],
             "D": [0.0, 0.5, 1.2]}
    for l_max in (1000, 4000):
        for p, grid in grids.items():
            out.append((f"{p}_l{l_max}", {"sphere": p, "grid": grid, "l_max": l_max}))
    short = {"A": [0.0, 0.3, 0.8542, 1.5], "C": [0.0, 0.45, 1.01], "D": [0.0, 0.5, 1.2]}
    for l_max in (61, 63):
        for p, grid in short.items():
            out.append((f"{p}_l{l_max}", {"sphere": p, "grid": grid, "l_max": l_max}))
    return out


def _queries():
    """(name, sphere, dipole, l_max) of every benchmark workload's latency
    queries at seeds 1-3, in seeded order, each seed's twice over at l_max
    60, then seed 1's at l_max 61 and 63."""
    import inputs
    from nanoshell import model

    passes = [(seed, f"round{round_}", 60) for seed in (1, 2, 3) for round_ in (1, 2)]
    passes += [(1, f"l{l_max}", l_max) for l_max in (61, 63)]
    out = []
    for name in inputs.WORKLOADS:
        for seed, tag, l_max in passes:
            workload = inputs.generate(name, seed)
            for k, (i, j, o) in enumerate(workload.latency_queries):
                r_nm, wl = workload.sweeps[i].query(j)
                out.append((f"query_{name}_seed{seed}_{k}_{tag}",
                            workload.sweeps[i].sphere, model.DipoleSource(r_nm, o, wl), l_max))
    return out


def dump(fields):
    """Every result, as its values of ``fields``, and golden text of the
    nanoshell on sys.path, as JSON."""
    sys.path[:0] = [str(TESTS), str(TESTS.parent / "perfbench")]
    import test_golden
    from nanoshell import spectro, sweep

    rows = {}
    for name, config in _configs():
        table = sweep.run_sweep(sweep.config_from_dict(config))
        for n, row in enumerate(table.rows):
            rows[f"{name}/{n}/{row.orientation}"] = [getattr(row.result, f) for f in fields]
    for name, sphere, dipole, l_max in _queries():
        result = spectro.evaluate(sphere, dipole, l_max)
        rows[f"{name}/{dipole.orientation}"] = [getattr(result, f) for f in fields]
    golden = {name: test_golden._output(name).decode()
              for name in sorted(test_golden.CASES) + sorted(test_golden.CONVERGE)}
    json.dump({"rows": rows, "golden": golden}, sys.stdout)


def _run(src, fields, tables):
    env = dict(os.environ, PYTHONPATH=str(src), NANOSHELL_MATERIAL_DIR=tables)
    proc = subprocess.run([sys.executable, __file__, "--dump", *fields], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout)


def _relative(new, old, wt):
    if new == old or (isinstance(old, float) and math.isnan(old) and math.isnan(new)):
        return 0.0
    return abs(new - old) / max(abs(old), abs(wt))


def _cells(text):
    return [line.split(",") for line in text.splitlines()]


def main(other_src):
    sys.path.insert(0, str(TESTS.parent / "src"))
    from nanoshell import model

    fields = [o.field for o in model.OUTPUTS if o.field and o.kind != "point"]
    with tempfile.TemporaryDirectory() as tables:
        pathlib.Path(tables, "nk.txt").write_text(NK_TABLE)
        here = _run(TESTS.parent / "src", fields, tables)
        other = _run(pathlib.Path(other_src).resolve(), fields, tables)
    if here["rows"].keys() != other["rows"].keys():
        sys.exit("the two trees return different rows")
    wt = fields.index("wt_norm")
    print(f"{len(here['rows'])} results; per field: largest |change| / max(|value|, wt), "
          "share bit-identical, count beyond 1e-12, the result with the largest change")
    for k, field in enumerate(fields):
        pairs = {key: (new[k], other["rows"][key][k], other["rows"][key][wt])
                 for key, new in here["rows"].items()}
        worst = max(pairs, key=lambda key: _relative(*pairs[key]))
        same = sum(json.dumps(a) == json.dumps(b) for a, b, _ in pairs.values()) / len(pairs)
        beyond = sum(_relative(*p) > 1e-12 for p in pairs.values())
        print(f"  {field:20s} {_relative(*pairs[worst]):.3e}  {same:.4f}  {beyond:4d}  {worst}")
    moved = 0
    for name, text in here["golden"].items():
        old_text = other["golden"][name]
        for line, (new, old) in enumerate(zip(_cells(text), _cells(old_text)), 1):
            for col, (a, b) in enumerate(zip(new, old)):
                if a != b:
                    moved += 1
                    try:
                        change = f"{(float(a) - float(b)) / abs(float(b)):+.3e}"
                    except (ValueError, ZeroDivisionError):
                        change = "n/a"
                    print(f"  moved: {name} line {line} column {col + 1}: {b} -> {a} ({change})")
        if len(text.splitlines()) != len(old_text.splitlines()):
            print(f"  {name}: line count {len(old_text.splitlines())} -> {len(text.splitlines())}")
    print(f"golden cells moved: {moved}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--dump"]:
        dump(sys.argv[2:])
    elif len(sys.argv) == 2:
        main(sys.argv[1])
    else:
        sys.exit(__doc__)
