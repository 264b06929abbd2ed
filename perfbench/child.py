"""Fresh-interpreter side of the benchmark; started by run.py, never imported.

    python3 perfbench/child.py first <config.json>
        time to the first result: imports the package, then one
        `nanoshell run` of a one-point config.  Prints the wall-clock time
        at which the result was written.
    python3 perfbench/child.py measure <plan.json>
        alternates one pass of `nanoshell run` over the workload's configs
        with one round of single `spectro.evaluate` calls over its queries,
        until the planned seconds and sample floor are reached; then the
        process's peak memory, then one untimed pass of the same configs at
        another worker count.  Alternating puts both measurements under the
        same conditions of a shared machine.

The last stdout line is a JSON object for run.py.
"""

import contextlib
import io
import json
import resource
import sys
import time

import env


def _run(path):
    from nanoshell import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["run", path])


def _pass(paths):
    t0 = time.perf_counter()
    codes = [_run(p) for p in paths]
    return time.perf_counter() - t0, codes


def _round(queries, samples, errors, check):
    from nanoshell import spectro
    from nanoshell.errors import NanoshellError

    import gate

    failed = 0
    for k, (sphere, dipole) in enumerate(queries):
        t0 = time.perf_counter()
        try:
            res = spectro.evaluate(sphere, dipole)
        except NanoshellError as exc:  # a failed query is counted, not fatal
            failed += 1
            errors.append(f"latency query {k}: {exc!r}")
            continue
        samples.append(time.perf_counter() - t0)
        if check:
            errors += gate.check_result(f"latency query {k}", res)
    return failed


def first(config_path):
    code = _run(config_path)
    return {"t_done": time.time(), "code": code}


def measure(plan):
    from nanoshell import model, sweep

    spheres = [sweep.sphere_from_spec(s) for s in plan["spheres"]]
    queries = [(spheres[i], model.DipoleSource(r_nm, o, wl))
               for i, r_nm, wl, o in plan["queries"]]
    _run(plan["warmup"])
    walls, codes, rounds, errors = [], [], [], []
    failed = 0
    t_end = time.perf_counter() + plan["seconds"]
    while (not walls or time.perf_counter() < t_end
           or sum(map(len, rounds)) < plan["min_samples"]):
        wall, c = _pass(plan["configs"])
        walls.append(wall)
        codes.append(c)
        rounds.append([])
        failed += _round(queries, rounds[-1], errors, check=len(walls) == 1)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    alt_wall, alt_codes = _pass(plan["alt_configs"])
    return {
        "pass_walls": walls,
        "pass_codes": codes,
        "latency_rounds_s": rounds,
        "latency_failed": failed,
        "latency_errors": errors,
        "self_peak_kb": self_kb,
        "worker_peak_kb": worker_kb,
        "alt_wall": alt_wall,
        "alt_codes": alt_codes,
    }


def main(argv):
    if not env.use_source_tree():
        print("nanoshell sources not found", file=sys.stderr)
        return 2
    mode, path = argv
    if mode == "first":
        out = first(path)
    else:
        with open(path, encoding="utf-8") as fh:
            out = measure(json.load(fh))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
