#!/usr/bin/env python3
"""Reduced-trial smoke checks of the sweep benchmark.

    python3 perfbench/selftest.py

1. Runs every workload end to end on shrunken grids (`run.py --smoke`),
   with tracing off and on, and requires a correct result.
2. Requires each result to carry exactly the metrics BENCHMARK.json names,
   with their units, and BENCHMARK.json to give every metric a better
   direction.
3. Changes one byte of each reference digest in turn and requires the
   output gate, which passes the untouched run, to fail every unit.

Exits nonzero at the first failed check.
"""

import copy
import importlib.util
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Any seed but the reference seed: smoke grids are checked against run_spec.
SEED = 3

_spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def check(ok, what):
    if not ok:
        sys.exit(f"selftest: FAILED: {what}")
    print(f"selftest: ok: {what}", file=sys.stderr)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    declared = {key: {m["name"]: m["unit"] for m in manifest[key]}
                for key in ("end_to_end", "per_layer")}
    check(all(m["better"] in ("lower", "higher")
              for key in declared for m in manifest[key]),
          "BENCHMARK.json gives every metric a better direction")
    workloads = [w["name"] for w in manifest["workloads"]]

    for name in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{name} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--smoke"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            check(proc.returncode == 0, f"{what} exits 0")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{what} is correct")
            units = {n: m["unit"] for n, m in result["metrics"].items()}
            check(units == declared[key], f"{what} emits every {key} metric with its unit")
            check(all(type(m["value"]) in (int, float) for m in result["metrics"].values()),
                  f"{what} emits numbers")

    tools = bench.Tools()
    for name in workloads:
        run_dir = os.path.join(bench.OUT_ROOT, f"{name}-seed{SEED}-smoke")
        wl = bench.Workload(tools, name, SEED, True, run_dir)
        with open(os.path.join(run_dir, "reference.json")) as f:
            ref = json.load(f)
        d = os.path.join(run_dir, "full")
        check(bench.failed_units(wl, d, 0, ref, wl.artifacts) == 0,
              f"{name}: the gate passes the last full-width run")
        for artifact in wl.artifacts:
            bad = copy.deepcopy(ref)
            digest = bad["sha256"][artifact]
            bad["sha256"][artifact] = ("1" if digest[0] == "0" else "0") + digest[1:]
            check(bench.failed_units(wl, d, 0, bad, wl.artifacts) == wl.units,
                  f"{name}: a one-byte change to the {artifact} digest fails every unit")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
