#!/usr/bin/env python3
"""Sweep benchmark for radio-lab: three real sweeps, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload clique-cells --seed 0 --seconds 50 --trace 0

The script builds `radio-lab` and the in-process probe (`perfbench/probe`)
into `$CARGO_TARGET_DIR` (default `.bench_build`), generates the workload's
ScenarioSpec from the seed, and runs the sweep through `radio-lab` at full
width and at width 1, alternating, until `--seconds` have passed. Every
run's printed table, CSV and JSONL record stream must match a reference
byte for byte: the digests in `perfbench/reference.json` at seed 0, an
in-process `run_spec` at any other seed. The last line of stdout is the
JSON result; the runs' artifacts stay in `.bench_out/<workload>-seed<N>/`.

`--trace 0` reports the end-to-end metrics. `--trace 1` repeats the timed
runs, then has the probe replay the sweep on one thread with a span around
every call into a layer, writes the spans to `trace/spans.jsonl` beside the
results, and reports the per-layer metrics. BENCHMARK.json names the
metrics of each list and their units.

    python3 perfbench/run.py --make-reference   # rewrite reference.json
    python3 perfbench/selftest.py                # reduced-trial smoke checks
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
MANIFEST_PATH = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE_SEED = 0

# How each workload reaches radio-lab; the probe replays the same shapes.
WORKLOADS = {
    "clique-cells": {"route": "stream", "records": False},
    "serve-fleet": {"route": "serve", "records": True, "shards": 4, "chunk": 8},
}
# radio-lab's default --chunk: the replay must cut the same windows.
STREAM_CHUNK = 256

ARTIFACTS = ("table.csv", "stdout.txt", "records.jsonl")
MIN_PAIRS = 2  # timed (full width, width 1) pairs per run, at least
RSS_POLL_S = 0.01
PR_SET_CHILD_SUBREAPER = 36


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def metric_names(trace):
    """The metrics a run reports, with their units, as BENCHMARK.json lists
    them: the per-layer list when tracing, else the end-to-end list."""
    try:
        with open(MANIFEST_PATH) as f:
            manifest = json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read BENCHMARK.json: {e}")
    return [(m["name"], m["unit"]) for m in manifest["per_layer" if trace else "end_to_end"]]


def read_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def adopt_orphans():
    """Makes this process the subreaper of everything it starts, so the
    workers of a killed serve fleet are re-parented here and waited for."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_orphans():
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


class Tools:
    """radio-lab and the probe, built from this checkout's sources."""

    def __init__(self):
        if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
            raise BenchError("no radio-lab sources beside perfbench/: run from a checkout")
        target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        env = dict(os.environ, CARGO_TARGET_DIR=target)
        manifest = os.path.join(HERE, "probe", "Cargo.toml")
        for args in (["-p", "radio-bench", "--bin", "radio-lab"], ["--manifest-path", manifest]):
            proc = subprocess.run(
                ["cargo", "build", "--release", "--offline", *args],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            if proc.returncode != 0:
                log(proc.stdout[-4000:])
                raise BenchError("cargo build failed")
        self.lab = os.path.join(target, "release", "radio-lab")
        self.probe_bin = os.path.join(target, "release", "perfbench-probe")

    def probe(self, *args):
        proc = subprocess.run(
            [self.probe_bin, *args], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        if proc.returncode != 0:
            raise BenchError(f"perfbench-probe {args[0]} failed: {proc.stderr.strip()}")


class Workload:
    """One workload at one seed: its generated spec and its radio-lab command."""

    def __init__(self, tools, name, seed, smoke, run_dir):
        self.name = name
        self.cfg = WORKLOADS[name]
        self.serve = self.cfg["route"] == "serve"
        self.spec = os.path.join(run_dir, "spec.json")
        tools.probe("spec", name, str(seed), self.spec, *(["--smoke"] if smoke else []))
        with open(self.spec) as f:
            spec = json.load(f)
        self.units = (len(spec["topologies"]) * len(spec["adversaries"])
                      * len(spec["workloads"]) * spec["trials"])
        self.artifacts = ARTIFACTS if self.cfg["records"] else ARTIFACTS[:2]
        # The stderr line that marks the first unit's start.
        self.marker = "leased shard" if self.serve else "running "

    def command(self, lab, width, d, route=None):
        out = {a: os.path.join(d, a) for a in ("table.csv", "records.jsonl", "report.json")}
        if (route or self.cfg["route"]) == "serve":
            return [lab, "serve", self.spec, "--spool", os.path.join(d, "spool"),
                    "--workers", str(width), "--shards", str(self.cfg["shards"]),
                    "--chunk", str(self.cfg["chunk"]), "--records", out["records.jsonl"],
                    "--csv", out["table.csv"], "--out", out["report.json"]]
        cmd = [lab, self.spec, "--stream", "--threads", str(width),
               "--csv", out["table.csv"], "--out", out["report.json"]]
        if self.cfg["records"]:
            cmd += ["--records", out["records.jsonl"]]
        return cmd


def process_tree(pid):
    """`pid` and its descendants, from /proc/<pid>/task/*/children."""
    pids, i = [pid], 0
    while i < len(pids):
        tasks = f"/proc/{pids[i]}/task"
        i += 1
        try:
            for task in os.listdir(tasks):
                with open(f"{tasks}/{task}/children") as f:
                    pids.extend(int(c) for c in f.read().split())
        except OSError:
            pass  # exited while being listed
    return pids


def vm_hwm_kb(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Launch:
    """One radio-lab process tree watched from outside: launch-to-exit wall
    time, when the first-unit marker reaches stderr, and the peak resident
    memory (VmHWM) of every process in the tree, summed."""

    def __init__(self, cmd, marker, stdout_path):
        self.marker = marker
        self.lines = []
        self.setup_s = None
        self.peaks = {}
        self._done = threading.Event()
        with open(stdout_path, "wb") as out:
            self.t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.PIPE,
                start_new_session=True,
            )
        self._threads = [threading.Thread(target=f, daemon=True) for f in (self._read, self._poll)]
        for t in self._threads:
            t.start()

    def _read(self):
        for raw in self.proc.stderr:
            now = time.perf_counter()
            line = raw.decode("utf-8", "replace")
            if self.setup_s is None and self.marker in line:
                self.setup_s = now - self.t0
            self.lines.append(line)

    def _poll(self):
        while not self._done.is_set():
            for pid in process_tree(self.proc.pid):
                self.peaks[pid] = max(self.peaks.get(pid, 0), vm_hwm_kb(pid))
            self._done.wait(RSS_POLL_S)

    def wait(self):
        try:
            self.code = self.proc.wait()
        except BaseException:
            self.kill()
            raise
        self.wall_s = time.perf_counter() - self.t0
        self.exit_epoch = time.time()
        self._join()
        return self.code

    def kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._join()

    def _join(self):
        self._done.set()
        for t in self._threads:
            t.join()
        reap_orphans()

    @property
    def peak_rss_mb(self):
        return sum(self.peaks.values()) / 1024


def describe(d):
    """Digests of a reference run's artifacts, with its failed-unit count."""
    recs = read_records(os.path.join(d, "records.jsonl"))
    return {
        "sha256": {a: sha256(os.path.join(d, a)) for a in ARTIFACTS},
        "units": len(recs),
        "failed": sum(1 for r in recs if r.get("error") is not None or not r.get("valid")),
    }


def reference(tools, wl, seed, smoke, run_dir):
    """What every run must reproduce: the committed digests at the reference
    seed, else an in-process `run_spec` of the same spec."""
    if seed == REFERENCE_SEED and not smoke:
        with open(REFERENCE_PATH) as f:
            return json.load(f)["workloads"][wl.name]
    d = fresh_dir(os.path.join(run_dir, "reference"))
    tools.probe("reference", wl.spec, d)
    return describe(d)


def failed_units(wl, d, code, ref, artifacts):
    """Failed units of one run. All of them when it exited nonzero or any
    artifact byte differs from the reference; otherwise the records that
    are missing, carry an error, or are invalid."""
    if code != 0:
        return wl.units
    for a in artifacts:
        path = os.path.join(d, a)
        if not os.path.isfile(path) or sha256(path) != ref["sha256"][a]:
            return wl.units
    if "records.jsonl" not in artifacts:
        # Only the table was written, and it matched a reference whose
        # records were checked.
        return ref["failed"]
    recs = read_records(os.path.join(d, "records.jsonl"))
    bad = sum(1 for r in recs if r.get("error") is not None or not r.get("valid"))
    return bad + max(0, wl.units - len(recs))


def serve_ledger(d, run):
    """Shard wall times from the published partials, and lease and takeover
    counts from the fleet's stderr."""
    walls, published = [], 0.0
    for path in glob.glob(os.path.join(d, "spool", "q*", "shards", "s*.partial")):
        with open(path) as f:
            walls.append(json.load(f)["wall_s"])
        published = max(published, os.stat(path).st_mtime)
    if not walls:
        return None
    return {
        "busy_s": sum(walls),
        "imbalance": max(walls) / statistics.mean(walls),
        "finish_lag_s": run.exit_epoch - published,
        "leases": sum("leased shard" in line for line in run.lines),
        "takeovers": sum("taking over shard" in line for line in run.lines),
    }


def measure(tools, wl, ref, run_dir, seconds, min_pairs):
    """Alternates full-width and width-1 runs until `seconds` have passed,
    with at least `min_pairs` of each, and gates every run's output."""
    full, one = [], []
    started = time.perf_counter()
    while True:
        pair_started = time.perf_counter()
        for tag in ("full", "one") if len(full) % 2 == 0 else ("one", "full"):
            d = fresh_dir(os.path.join(run_dir, tag))
            run = Launch(wl.command(tools.lab, nproc() if tag == "full" else 1, d), wl.marker,
                         os.path.join(d, "stdout.txt"))
            run.wait()
            run.failed = failed_units(wl, d, run.code, ref, wl.artifacts)
            if tag == "full":
                run.ledger = serve_ledger(d, run) if wl.serve else None
                full.append(run)
            else:
                one.append(run)
        now = time.perf_counter()
        if len(full) >= min_pairs and now - started + (now - pair_started) > seconds:
            return full, one


def traced(tools, wl, ref, run_dir):
    """The probe's single-thread replay: its summary, and its failed units
    (the replay's artifacts must match the reference byte for byte too)."""
    d = fresh_dir(os.path.join(run_dir, "trace"))
    if wl.serve:
        tools.probe("trace", wl.spec, d, "serve", str(wl.cfg["shards"]), str(wl.cfg["chunk"]))
    else:
        tools.probe("trace", wl.spec, d, "stream", str(STREAM_CHUNK))
    with open(os.path.join(d, "summary.json")) as f:
        summary = json.load(f)
    failed = failed_units(wl, d, 0, ref, ARTIFACTS)
    if summary["checker_disagreements"] or summary["batch_disagreements"]:
        failed = wl.units
    return summary, failed


def end_to_end(wl, full, one):
    wall = statistics.median(r.wall_s for r in full)
    setups = [r.setup_s for r in full if r.setup_s is not None]
    if not setups:
        raise BenchError(f"{wl.name}: no run reported its first unit on stderr")
    return {
        "wall_s": wall,
        "wall_s_1t": statistics.median(r.wall_s for r in one),
        "units_per_s": wl.units / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in full),
    }


def per_layer(full, one, s, error_rate):
    width = nproc()
    wall = statistics.median(r.wall_s for r in full)
    wall_1t = statistics.median(r.wall_s for r in one)
    layer = s["layer_s"]
    runner_s = layer.get("runner", 0.0)
    ledgers = [(r.ledger, r.wall_s) for r in full if r.ledger]

    def ledger(f):
        return statistics.median(f(lg, w) for lg, w in ledgers) if ledgers else 0

    return {
        "topology.build_s": layer.get("topology", 0.0),
        "topology.builds": s["topology_builds"],
        "runner.s": runner_s,
        "engine.node_rounds": s["node_rounds"],
        "engine.broadcasts": s["broadcasts"],
        "engine.deliveries": s["deliveries"],
        "engine.collisions": s["collisions"],
        "engine.node_rounds_per_s": s["node_rounds"] / runner_s if runner_s else 0.0,
        "engine.units_scalar": s["units_scalar"],
        "engine.units_bitset": s["units_bitset"],
        "engine.units_batched": s["units_batched"],
        "engine.batch_speedup_1t": s["batch_speedup_1t"],
        "checker.s": layer.get("checker", 0.0),
        "parallel.efficiency": s["unit_s"] / (wall * width),
        "aggregate.fold_s": s["span_s"].get("aggregate.fold", 0.0),
        "aggregate.snapshot_bytes": s["aggregate_snapshot_bytes"],
        "sink.jsonl_s": layer.get("sink", 0.0),
        "sink.jsonl_bytes": s["sink_jsonl_bytes"],
        "checkpoint.saves": s["checkpoint_saves"],
        "checkpoint.save_s": s["span_s"].get("checkpoint.save", 0.0),
        "checkpoint.bytes": s["checkpoint_bytes"],
        "checkpoint.merge_s": s["span_s"].get("checkpoint.merge", 0.0),
        "serve.busy_frac": ledger(lambda lg, w: lg["busy_s"] / (w * width)),
        "serve.shard_imbalance": ledger(lambda lg, w: lg["imbalance"]),
        "serve.finish_lag_s": ledger(lambda lg, w: lg["finish_lag_s"]),
        "serve.leases": ledger(lambda lg, w: lg["leases"]),
        "serve.takeovers": max((lg["takeovers"] for lg, _ in ledgers), default=0),
        "trace.unattributed_frac": s["unattributed_s"] / s["traced_wall_s"],
        "trace.overhead_frac": s["traced_wall_s"] / wall_1t - 1,
        "error_rate": error_rate,
    }


def run(tools, args):
    names = metric_names(args.trace)
    tag = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    run_dir = fresh_dir(os.path.join(OUT_ROOT, tag))
    wl = Workload(tools, args.workload, args.seed, args.smoke, run_dir)
    ref = reference(tools, wl, args.seed, args.smoke, run_dir)
    with open(os.path.join(run_dir, "reference.json"), "w") as f:
        json.dump(ref, f, indent=2)
    # One untimed launch, so the timed ones find radio-lab and the spec in
    # the page cache.
    d = fresh_dir(os.path.join(run_dir, "warmup"))
    Launch(wl.command(tools.lab, nproc(), d), wl.marker, os.path.join(d, "stdout.txt")).wait()
    full, one = measure(tools, wl, ref, run_dir, args.seconds, 1 if args.smoke else MIN_PAIRS)
    attempted = wl.units * (len(full) + len(one))
    failed = sum(r.failed for r in full + one)
    if wl.serve:
        # The --stream run of the same spec must match the same reference.
        d = fresh_dir(os.path.join(run_dir, "stream"))
        check = Launch(wl.command(tools.lab, nproc(), d, route="stream"), "running ",
                       os.path.join(d, "stdout.txt"))
        attempted += wl.units
        failed += failed_units(wl, d, check.wait(), ref, wl.artifacts)
    if args.trace:
        summary, trace_failed = traced(tools, wl, ref, run_dir)
        attempted += wl.units
        failed += trace_failed
        values = per_layer(full, one, summary, failed / attempted)
    else:
        values = end_to_end(wl, full, one)
    missing = [name for name, _ in names if name not in values]
    if missing:
        raise BenchError(f"BENCHMARK.json names metrics the benchmark does not compute: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump(result, f, indent=2)
    return result


def make_reference(tools):
    """Rewrites reference.json from in-process `run_spec` runs at the
    reference seed."""
    doc = {"seed": REFERENCE_SEED, "workloads": {}}
    for name in WORKLOADS:
        run_dir = fresh_dir(os.path.join(OUT_ROOT, f"reference-{name}"))
        wl = Workload(tools, name, REFERENCE_SEED, False, run_dir)
        d = fresh_dir(os.path.join(run_dir, "reference"))
        tools.probe("reference", wl.spec, d)
        ref = describe(d)
        if ref["failed"] or ref["units"] != wl.units:
            raise BenchError(f"{name}: the reference run itself has failed or missing units")
        doc["workloads"][name] = ref
    with open(REFERENCE_PATH, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced-trial grids (self-test)")
    ap.add_argument("--make-reference", action="store_true", help="rewrite reference.json")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not args.make_reference and args.workload is None:
        ap.error("--workload is required")
    adopt_orphans()
    try:
        tools = Tools()
        if args.make_reference:
            make_reference(tools)
            return 0
        result = run(tools, args)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
