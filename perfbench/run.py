"""nanoshell benchmark: seeded workloads through `nanoshell run` and
`spectro.evaluate`, end-to-end metrics, a correctness gate, and (with
--trace 1) a per-module breakdown.

    python3 perfbench/run.py --workload radial-metal --seed 3 --seconds 45 --trace 0

Run from anywhere; it measures the package under src/ next to this
directory and exits 2 without a result if that is missing.  Every run:

1. generates the workload's inputs from --seed and validates each point;
2. with --trace 0: times fresh-interpreter set-up, then, in one child
   process for --seconds, passes of `nanoshell run` over the workload's
   configs (closed loop, one client) alternating with rounds of single
   `spectro.evaluate` calls over its queries;
   with --trace 1: one untimed pass at one and at two workers, then one pass
   at one worker with the tracing wrappers installed;
3. runs the correctness gate (untimed) and exits 1 if it fails.

The last stdout line is the JSON result; the lines before it say the same
for a reader, with the machine record.  Spans of a traced run are written to
.perfbench_out/ in the checkout.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env

CHILD = env.ROOT / "perfbench" / "child.py"
WORK_ROOT = env.ROOT / ".perfbench_work"
OUT_DIR = env.ROOT / ".perfbench_out"
SETUP_REPEATS = 5
MIN_LATENCY_SAMPLES = 100  # at least ten samples above p90 over the run
CHILD_TIMEOUT_S = 150


def _child(mode, path):
    """Run child.py in its own process group; kill the group on timeout."""
    proc = subprocess.Popen([sys.executable, str(CHILD), mode, str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=env.ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"child {mode} exited {proc.returncode}: {err.strip()[-500:]}")
    return json.loads(out.strip().splitlines()[-1])


class Configs:
    """The workload's `nanoshell run` configs, written into a work dir."""

    def __init__(self, workload, work):
        self.workload = workload
        self.work = work
        other = 2 if workload.workers == 1 else 1
        self.timed = self._write("timed", workload.workers)
        self.alt = self._write("alt", other)
        self.traced = self._write("traced", 1)
        first = dict(workload.sweeps[0].config, workers=1, out=str(work / "first.csv"))
        key = "grid" if first["sweep"] == "radial" else "wavelengths_nm"
        first[key] = first[key][:1]
        self.first = self._dump("first", first)

    def _dump(self, name, cfg):
        path = self.work / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return str(path)

    def _write(self, tag, workers):
        return [self._dump(f"{tag}{i}",
                           dict(s.config, workers=workers, out=str(self.work / f"{tag}{i}.csv")))
                for i, s in enumerate(self.workload.sweeps)]

    @staticmethod
    def csv(paths):
        return [Path(p).with_suffix(".csv") for p in paths]


def _read(paths):
    return [p.read_text(encoding="utf-8") for p in paths]


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup(configs):
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.time()
        res = _child("first", configs.first)
        if res["code"] != 0:
            raise RuntimeError(f"first query exited {res['code']}")
        times.append(res["t_done"] - t0)
    return statistics.median(times), times


def gate_checks(workload, tables_text, reference):
    """Rows of every sweep, reference rows, and the benchmark table."""
    import gate

    tables = [gate.parse_csv(t) for t in tables_text]
    errors = []
    for sw, rows in zip(workload.sweeps, tables):
        errors += gate.check_rows(rows, sw)
    if errors:
        return errors, "skipped after row failures"
    ref_errors, ref_note = gate.check_reference(workload, tables, reference)
    return errors + ref_errors + gate.check_regress(reference), ref_note


def _failed_points(workload, codes):
    """Points of every sweep whose `nanoshell run` exited nonzero."""
    return sum(len(sw.points) for sw, c in zip(workload.sweeps, codes) if c)


def _converged_frac(tables_text):
    import gate

    rows = [r for t in tables_text for r in gate.parse_csv(t)]
    return sum(r["converged"] == "true" for r in rows) / len(rows), len(rows)


def _measure(configs, timed, alt, seconds, queries, min_samples):
    """Run child.py's measure mode; queries are (sweep, point, orientation)."""
    sweeps = configs.workload.sweeps
    plan = {
        "warmup": configs.first, "configs": timed, "alt_configs": alt,
        "seconds": seconds, "min_samples": min_samples,
        "spheres": [s.config["sphere"] for s in sweeps],
        "queries": [[i, *sweeps[i].query(j), o] for i, j, o in queries],
    }
    path = configs.work / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    return _child("measure", path)


def run_timed(workload, configs, seconds, report):
    setup_s, setup_all = measure_setup(configs)
    report(f"setup: {len(setup_all)} fresh interpreters to the first result, "
           f"median {setup_s:.4f} s (all {[round(t, 4) for t in setup_all]})")
    m = _measure(configs, configs.timed, configs.alt, seconds, workload.latency_queries,
                 MIN_LATENCY_SAMPLES)
    n = workload.n_points
    passes = len(m["pass_walls"])
    pps = [n / w for w in m["pass_walls"]]
    failed = sum(_failed_points(workload, c) for c in (*m["pass_codes"], m["alt_codes"]))
    report(f"throughput: {passes} passes of {n} points x {len(configs.timed)} sweeps "
           f"at {workload.workers} worker(s); points/s per pass "
           f"{[round(v, 3) for v in pps]}")
    rounds = [[t * 1e3 for t in r] for r in m["latency_rounds_s"] if len(r) > 1]
    n_samples = sum(map(len, m["latency_rounds_s"]))
    timed_text = _read(configs.csv(configs.timed))
    alt_text = _read(configs.csv(configs.alt))
    errors = list(m["latency_errors"])
    if failed:
        errors.append(f"`nanoshell run` failed on {failed} points")
    if timed_text != alt_text:
        errors.append(f"CSV bytes differ between {workload.workers} and "
                      f"{2 if workload.workers == 1 else 1} workers")
    converged, n_rows = _converged_frac(timed_text)
    peak_kb = m["self_peak_kb"]
    if workload.workers > 1:
        peak_kb += workload.workers * m["worker_peak_kb"]
    # percentiles over the workload's queries within one round, median over
    # rounds: the machine's speed drifts between rounds, not within one
    metrics = {
        "setup_s": (setup_s, "s"),
        "points_per_s": (statistics.median(pps), "1/s"),
        "query_ms_p50": (statistics.median(statistics.median(r) for r in rounds), "ms"),
        "query_ms_p90": (statistics.median(_quantile(r, 90) for r in rounds), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    attempted = n * (passes + 1) + n_samples + m["latency_failed"]
    failed += m["latency_failed"]
    report(f"latency: {n_samples} spectro.evaluate calls in {len(rounds)} rounds, "
           f"one round of {len(workload.latency_queries)} distinct queries after each pass")
    report(f"rows: {n_rows} per pass; unconverged_frac {1 - converged:.4f}; "
           f"failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
    return metrics, attempted, failed, errors, timed_text


def run_traced(workload, configs, report, trace_path, machine):
    from nanoshell import cli

    import tracing

    two_workers = configs.timed if workload.workers > 1 else configs.alt
    untraced = _measure(configs, configs.traced, two_workers, 0, [], 0)
    wall_1, wall_2 = untraced["pass_walls"][0], untraced["alt_wall"]
    for out in configs.csv(configs.traced):
        os.remove(out)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            traced_codes = [cli.main(["run", p]) for p in configs.traced]
    finally:
        tracer.uninstall()
    wall_traced = tracing.traced_wall(tracer)
    metrics = tracing.layer_metrics(tracer)
    metrics["sweep.pool_speedup"] = wall_1 / wall_2
    metrics["trace.overhead_s"] = wall_traced - wall_1
    report(f"untraced pass: {wall_1:.4f} s at 1 worker, {wall_2:.4f} s at 2 workers; "
           f"traced pass at 1 worker: {wall_traced:.4f} s")
    failed = sum(_failed_points(workload, c) for c in
                 (untraced["pass_codes"][0], untraced["alt_codes"], traced_codes))
    errors = []
    if failed:
        errors.append(f"`nanoshell run` failed on {failed} points")
    traced_text = _read(configs.csv(configs.traced))
    if _read(configs.csv(two_workers)) != traced_text:
        errors.append("CSV bytes of the 2-worker run differ from the traced 1-worker run")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(trace_path, {"workload": workload.name, "seed": workload.seed,
                              "machine": machine})
    units = {name: unit for name, unit, _, _ in tracing.PER_LAYER}
    attempted = 3 * workload.n_points
    return ({k: (v, units[k]) for k, v in metrics.items()}, attempted, failed, errors,
            traced_text)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink the point counts (self-test only; timings are not comparable)")
    args = p.parse_args(argv)
    if not env.use_source_tree():
        print(f"error: no nanoshell package under {env.SRC}", file=sys.stderr)
        return 2

    import gate
    import inputs
    import tracing

    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose one of {inputs.WORKLOADS}",
              file=sys.stderr)
        return 2

    machine = env.machine()

    def report(line):
        print(line, flush=True)

    report(f"nanoshell benchmark: workload {args.workload}, seed {args.seed}, "
           f"{args.seconds:g} s, trace {args.trace}")
    report("machine: " + json.dumps(machine))
    workload = inputs.generate(args.workload, args.seed, args.scale)
    inputs.validate(workload)
    report("inputs: " + json.dumps(inputs.properties(workload)))
    reference = gate.load_reference()
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        configs = Configs(workload, work)
        if args.trace:
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, attempted, failed, errors, text = run_traced(
                workload, configs, report, trace_path, machine)
        else:
            metrics, attempted, failed, errors, text = run_timed(
                workload, configs, args.seconds, report)
        gate_errors, ref_note = gate_checks(workload, text, reference)
        errors += gate_errors
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            WORK_ROOT.rmdir()

    if args.trace:
        moves = {name: m for name, _, _, m in tracing.PER_LAYER}
        for name, (value, unit) in metrics.items():
            report(f"  {name:30s} {value:14.6g} {unit:6s} -> {moves[name]}")
        report(f"spans written to {trace_path.relative_to(env.ROOT)}")
    else:
        for name, (value, unit) in metrics.items():
            report(f"  {name:16s} {value:12.6g} {unit}")
    report(f"gate: {'PASS' if not errors else 'FAIL'} (rows, yield, energy balance, "
           f"CSV bytes across worker counts, reference: {ref_note}, benchmark table)")
    for e in errors[:20]:
        report(f"  gate failure: {e}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
