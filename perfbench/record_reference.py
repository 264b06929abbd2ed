"""Record the reference rows the correctness gate compares against.

    python3 perfbench/record_reference.py [n_seeds]

Evaluates every workload for seeds 0..n_seeds-1 (default 24) through
`sweep.run_sweep`, keeps the picked rows of each to 13 significant digits
with their quadrature error, and stores the benchmark table's pass set.  Run it
only on the commit whose answers are the reference; the file it writes
names that commit's tree state in "recorded_from".
"""

import json
import subprocess
import sys

import env

if not env.use_source_tree():
    sys.exit("nanoshell sources not found")

from nanoshell import sweep  # noqa: E402

import gate  # noqa: E402
import inputs  # noqa: E402


def record_workload(name, seed):
    wl = inputs.generate(name, seed)
    inputs.validate(wl)
    tables = []
    for sw in wl.sweeps:
        table = sweep.run_sweep(sweep.config_from_dict(sw.config))
        errors = gate.check_rows(gate.parse_csv(table.to_csv()), sw)
        if errors:
            raise SystemExit(f"{name} seed {seed}: {errors[:3]}")
        tables.append(table.rows)
    out = []
    for i, j, o in gate.reference_picks(wl):
        res = tables[i][j * len(inputs.ORIENTATIONS) + inputs.ORIENTATIONS.index(o)].result
        values = gate.result_values(res)
        out.append([float(f"{v:.13g}") for v in (*values.values(), res.quad_rel_err)])
    return out


def main(argv):
    n_seeds = int(argv[0]) if argv else 24
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=env.ROOT,
                          capture_output=True, text=True).stdout.strip()
    ref = {
        "recorded_from": head or "unknown",
        "rtol": gate.RTOL,
        "regress_pass": gate.regress_pass_set(),
        "workloads": {},
    }
    for name in inputs.WORKLOADS:
        ref["workloads"][name] = {}
        for seed in range(n_seeds):
            ref["workloads"][name][str(seed)] = record_workload(name, seed)
            print(f"{name} seed {seed} recorded", flush=True)
    with open(gate.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=None, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
