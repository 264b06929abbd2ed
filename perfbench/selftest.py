"""Fast self-test of the benchmark itself (about a minute on two cores).

    python3 perfbench/selftest.py

Checks that the generator is a pure function of the seed and keeps its
per-stratum counts, that the gate rejects a corrupted row and a perturbed
reference value, that BENCHMARK.json names exactly the metrics the code
reports, that a tiny run of every workload passes, that a tiny traced run
repeats its counts exactly, and that a directory without the sources gets
no result.  Exits 1 on the first failed check.
"""

import json
import shutil
import subprocess
import sys

import env

if not env.use_source_tree():
    sys.exit("nanoshell sources not found")

from nanoshell import sweep  # noqa: E402

import gate  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

TINY = ["--seconds", "1", "--scale", "0.25"]


def check(ok, what):
    print(f"[{'ok' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        sys.exit(1)


def _signature(wl):
    return json.dumps([[s.config for s in wl.sweeps], wl.latency_queries])


def test_generator():
    for name in inputs.WORKLOADS:
        a, b, c = (inputs.generate(name, s) for s in (7, 7, 8))
        check(_signature(a) == _signature(b), f"{name}: same seed, same inputs")
        check(_signature(a) != _signature(c), f"{name}: another seed, other inputs")
        pa, pc = inputs.properties(a), inputs.properties(c)
        check(pa["points"] == pc["points"] and pa["share_near_metal"] == pc["share_near_metal"],
              f"{name}: point count and near-metal share do not depend on the seed")
        inputs.validate(c)


def test_gate_rejects_corruption():
    wl = inputs.generate("radial-metal", 0, scale=0.25)
    sw = wl.sweeps[0]
    cfg = dict(sw.config, grid=sw.points[:2])
    sw = inputs.Sweep(sw.label, cfg, sw.points[:2], sw.strata[:2], sw.near_metal[:2])
    rows = gate.parse_csv(sweep.run_sweep(sweep.config_from_dict(cfg)).to_csv())
    check(gate.check_rows(rows, sw) == [], "gate passes clean rows")
    bad = [dict(r) for r in rows]
    bad[1]["wohm_norm"] = repr(float(bad[1]["wohm_norm"]) * 1.5 + 1e-3)
    check(any("wt - wrad - wohm" in e for e in gate.check_rows(bad, sw)),
          "gate rejects a row that breaks energy balance")
    bad = [dict(r) for r in rows]
    bad[2]["yield"] = repr(float(bad[2]["yield"]) * 1.001)
    check(any("yield" in e for e in gate.check_rows(bad, sw)), "gate rejects a wrong yield")
    bad = [dict(r) for r in rows]
    bad[0]["wt_norm"] = "nan"
    check(gate.check_rows(bad, sw) != [], "gate rejects a non-finite row")
    ref = [1.0, 0.9, 0.1, -0.2, 0.9, 0.0]
    near = {k: v * (1 + 1e-9) for k, v in zip(gate.VALUES, ref)}
    far = dict(near, wt_norm=ref[0] * (1 + 1e-4))
    check(gate._compare("x", near, ref) == [], "reference accepts a 1e-9 change")
    check(gate._compare("x", far, ref) != [], "reference rejects a 1e-4 change")


def test_benchmark_json():
    with open(env.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check({w["name"] for w in spec["workloads"]} <= set(inputs.WORKLOADS),
          "BENCHMARK.json lists only workloads the generator knows")
    check([m["name"] for m in spec["per_layer"]] == [m[0] for m in tracing.PER_LAYER],
          "BENCHMARK.json per_layer matches tracing.PER_LAYER")
    return {m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]}


def _run(args, cwd=env.ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{")
                             else None), proc


def test_tiny_runs(e2e, per_layer):
    for name in inputs.WORKLOADS:
        code, res, proc = _run(["--workload", name, "--seed", "5", "--trace", "0", *TINY])
        check(code == 0 and res and res["correct"] and set(res["metrics"]) == e2e,
              f"{name}: tiny run passes and reports every end-to-end metric"
              + ("" if code == 0 else f"\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"))
    counts = []
    for _ in range(2):
        code, res, proc = _run(["--workload", "radial-lossless", "--seed", "5",
                                "--trace", "1", *TINY])
        check(code == 0 and res and set(res["metrics"]) == per_layer,
              "tiny traced run reports every per-layer metric"
              + ("" if code == 0 else f"\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"))
        counts.append({k: v["value"] for k, v in res["metrics"].items() if v["unit"] == "count"})
    check(counts[0] == counts[1], "traced counts repeat exactly for the same seed")


def test_bare_directory():
    """A checkout holding only BENCHMARK.json and perfbench/."""
    work = env.ROOT / ".perfbench_work"
    bare = work / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(env.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(env.ROOT / "BENCHMARK.json", bare)
        code, res, _ = _run(["--workload", "radial-lossless", "--seed", "0", "--seconds",
                             "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(work.iterdir()):
            work.rmdir()
    check(code != 0 and res is None, "without the sources: nonzero exit and no result")


def main():
    test_generator()
    test_gate_rejects_corruption()
    e2e, per_layer = test_benchmark_json()
    test_bare_directory()
    test_tiny_runs(e2e, per_layer)
    print("selftest passed")


if __name__ == "__main__":
    main()
