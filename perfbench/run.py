#!/usr/bin/env python3
"""End-to-end benchmark of the `kagen` CLI (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `kagen` and the layer driver `perfbench-layers` from the checkout,
runs the workload's real CLI command repeatedly for --seconds, checks
every output, and prints a human-readable summary followed by one JSON
line: the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). Exits 1 when any output check fails.
"""

import argparse
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
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
# The workloads' parallelism (also fixed inside perfbench-layers).
THREADS = 2
INVOCATION_TIMEOUT_S = 30.0
# Every invocation and check must end within this many seconds of the
# start of measuring, so a hanging program still lets the benchmark exit
# well within 180 s.
RUN_LIMIT_S = 140.0
_deadline = 0.0


def start_clock():
    global _deadline
    _deadline = time.perf_counter() + RUN_LIMIT_S


def time_left():
    """Seconds left before the run's deadline."""
    return _deadline - time.perf_counter()


def timeout():
    """Timeout of the next subprocess, capped by the run's deadline."""
    return max(0.1, min(INVOCATION_TIMEOUT_S, time_left()))


# Set-up reps per run, all before the first workload invocation.
SETUP_REPS = 41
TRACE_CLI_REPS = 3
MIN_SAMPLES = 3

# name -> verb, instance, workload flags, minimal instance, merged edges.
# The minimal instance is the same command at the smallest accepted
# size; its wall time is the invocation's fixed cost (`setup_s`).
WORKLOADS = {
    "rmat-launch": dict(
        verb="launch",
        instance=["rmat", "-n", "4194304", "-m", "16777216"],
        minimal=["rmat", "-n", "4194304", "-m", "0"],
        flags=["--workers", "2", "-t", "1"],
    ),
    "gnm-merge": dict(
        verb="stream",
        instance=["gnm_undirected", "-n", "4194304", "-m", "8388608"],
        minimal=["gnm_undirected", "-n", "4194304", "-m", "0"],
        flags=["-t", "2", "--merge", "external"],
        # G(n,m) holds exactly m distinct undirected edges.
        merged_edges=8388608,
    ),
    "rgg2d-stream": dict(
        verb="stream",
        instance=["rgg2d", "-n", "262144"],
        minimal=["rgg2d", "-n", "1"],
        flags=["-t", "2"],
    ),
    "rdg2d-stream": dict(
        verb="stream",
        instance=["rdg2d", "-n", "32768"],
        minimal=["rdg2d", "-n", "4"],
        flags=["-t", "2"],
    ),
}

END_TO_END_UNITS = {
    "meps": "Medges/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "gen.busy_s": "s",
    "gen.meps": "Medges/s",
    "gen.pe_s.p50": "s",
    "gen.pe_s.p80": "s",
    "gen.batches": "count",
    "geo.recompute_ratio": "ratio",
    "geo.descent_us": "us",
    "encode.busy_s": "s",
    "encode.meps": "Medges/s",
    "encode.bytes_per_edge": "B/edge",
    "write.busy_s": "s",
    "write.mb_s": "MiB/s",
    "runtime.utilization": "ratio",
    "decode.busy_s": "s",
    "decode.meps": "Medges/s",
    "merge.runform_s": "s",
    "merge.kmerge_s": "s",
    "merge.sink_s": "s",
    "merge.runs": "count",
    "merge.passes": "count",
    "merge.dedup_ratio": "ratio",
    "cluster.prepare_s": "s",
    "cluster.rank_s.max": "s",
    "cluster.rank_s.mean": "s",
    "cluster.concurrency": "ratio",
    "cluster.post_s": "s",
    "cluster.attempts": "count",
    "cluster.scaling_eff": "ratio",
    "cluster.w1_spread": "ratio",
    "cluster.w2_spread": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """Set-up failure: the benchmark cannot run here (no result printed)."""


# ---------------------------------------------------------------- build


def target_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Build `kagen` and `perfbench-layers`; return their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} holds no kagen sources to build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for extra in (["--bin", "kagen"], ["--manifest-path", str(BENCH / "Cargo.toml")]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = target_dir() / "release"
    return release / "kagen", release / "perfbench-layers"


# ------------------------------------------------------------ invocations


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def wait_group_gone(pgid, limit_s=5.0):
    """Wait until every process of a killed group has ended."""
    end = time.perf_counter() + limit_s
    while time.perf_counter() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


class Invocation:
    """One CLI invocation, run and measured by `perfbench-layers exec`:
    wall time, and CPU time and peak RSS over the process tree (every
    child the program waited for, e.g. the launch workers)."""

    def __init__(self, layers, argv):
        limit = timeout()
        log_path = WORK / "invocation.log"
        with open(log_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([str(layers), "exec", "--", *argv],
                                    stdout=subprocess.PIPE, stderr=err,
                                    start_new_session=True)
            timer = threading.Timer(limit, kill_group, (proc.pid,))
            timer.start()
            out, _ = proc.communicate()
            timer.cancel()
        self.timed_out = time.perf_counter() - start >= limit
        if self.timed_out:
            wait_group_gone(proc.pid)
        self.stderr = log_path.read_text(errors="replace")[-2000:]
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            report = {"code": proc.returncode, "wall_s": 0.0, "cpu_s": 0.0, "maxrss_kb": 0}
        self.code = report["code"]
        self.wall = report["wall_s"]
        self.cpu = report["cpu_s"]
        self.rss_mb = report["maxrss_kb"] / 1024.0

    def error(self):
        if self.timed_out:
            return "timed out"
        if self.code != 0:
            return f"exit code {self.code}: {self.stderr.strip()}"
        return None


def fingerprint(out_dir, with_merged):
    """Digest of the manifest, every shard it lists and the merged file:
    equal digests mean byte-identical output."""
    manifest_path = out_dir / "manifest.json"
    files = [manifest_path]
    manifest = json.loads(manifest_path.read_text())
    files += [out_dir / s["file"] for s in manifest["shards"]]
    if with_merged:
        files.append(out_dir / "merged.kgc")
    h = hashlib.sha1()
    for f in files:
        h.update(f.name.encode())
        with open(f, "rb") as fh:
            while chunk := fh.read(1 << 22):
                h.update(chunk)
    return h.hexdigest()


class Checker:
    """Checks every invocation's output. The first output of a command
    is fully re-validated by `perfbench-layers check`; later outputs of
    the same instance must be byte-identical to it."""

    def __init__(self, layers):
        self.layers = layers
        self.reference = {}

    def full_check(self, out_dir, merged_edges=None):
        argv = [str(self.layers), "check", "--dir", str(out_dir)]
        if merged_edges is not None:
            argv += ["--merged", str(out_dir / "merged.kgc"),
                     "--merged-edges", str(merged_edges)]
        try:
            res = subprocess.run(argv, capture_output=True, text=True, timeout=timeout())
        except subprocess.TimeoutExpired:
            return ["check timed out"]
        try:
            errors = json.loads(res.stdout.strip().splitlines()[-1])["errors"]
        except (IndexError, KeyError, json.JSONDecodeError):
            return [f"check crashed: {res.stderr.strip()[-500:]}"]
        if res.returncode != 0 and not errors:
            return [f"check exited with {res.returncode}"]
        return errors

    def check(self, key, out_dir, merged_edges=None):
        """Errors of the output in `out_dir` (empty when correct)."""
        try:
            digest = fingerprint(out_dir, merged_edges is not None)
        except (OSError, ValueError, KeyError) as e:
            return [f"unreadable output: {e}"]
        ref = self.reference.get(key)
        if ref is None:
            errors = self.full_check(out_dir, merged_edges)
            if not errors:
                self.reference[key] = digest
            return errors
        if digest != ref:
            return ["output differs from the first, fully validated output"] + \
                self.full_check(out_dir, merged_edges)
        return []


class Run:
    """Failure accounting over every invocation of one benchmark run."""

    def __init__(self, kagen, layers, spec, seed):
        self.kagen, self.layers, self.spec, self.seed = kagen, layers, spec, seed
        self.checker = Checker(layers)
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def invoke(self, verb, instance, flags, out_dir, key, merged_edges=None):
        """Run one CLI invocation into a fresh `out_dir` and check it.
        Returns the Invocation, or None when it failed."""
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [str(self.kagen), verb, *instance, *flags, "-s", str(self.seed),
                "--shard-dir", str(out_dir), "-q"]
        self.attempted += 1
        if time_left() < 1.0:
            self.failed += 1
            self.errors.append(f"{' '.join(argv[1:])}: not started, run out of time")
            return None
        # Flush the dirty pages earlier invocations left behind: pending
        # writeback slows small invocations several-fold, so without this
        # each measurement depends on what ran before it.
        os.sync()
        inv = Invocation(self.layers, argv)
        errors = [inv.error()] if inv.error() else self.checker.check(key, out_dir, merged_edges)
        if errors:
            self.failed += 1
            self.errors.append(f"{' '.join(argv[1:])}: {'; '.join(errors)}")
            return None
        return inv

    def workload(self, out_dir):
        s = self.spec
        return self.invoke(s["verb"], s["instance"], s["flags"], out_dir, "workload",
                           s.get("merged_edges"))

    def launch(self, workers, out_dir):
        """The instance through `kagen launch` (its manifest and shards
        must equal the workload's: launch federates byte-identically)."""
        flags = ["--workers", str(workers), "-t", "1"]
        return self.invoke("launch", self.spec["instance"], flags, out_dir, "launch")

    def setup(self, out_dir):
        s = self.spec
        merged = 0 if s.get("merged_edges") is not None else None
        return self.invoke(s["verb"], s["minimal"], s["flags"], out_dir, "setup", merged)


# ----------------------------------------------------------- self-test


def corruption_self_test(kagen, layers):
    """Flip one byte of a shard and expect the output check to fail.
    Returns an error string when the check misses the corruption."""
    out = WORK / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    argv = [str(kagen), "stream", "rmat", "-n", "4096", "-m", "200000", "-c", "4",
            "-s", "1", "--shard-dir", str(out), "-q"]
    inv = Invocation(layers, argv)
    if inv.error():
        return f"self-test generation failed: {inv.error()}"
    checker = Checker(layers)
    if checker.full_check(out):
        return "self-test: the intact output failed its check"
    shard = out / "shard-00000.kgc"
    data = bytearray(shard.read_bytes())
    data[len(data) // 2] ^= 0x01
    shard.write_bytes(bytes(data))
    errors = checker.full_check(out)
    shutil.rmtree(out, ignore_errors=True)
    if not errors:
        return "self-test: a flipped shard byte went undetected"
    return None


# --------------------------------------------------------- environment


def fs_type(path):
    """Filesystem type of the mount holding `path` (/proc/self/mountinfo)."""
    best, kind = "", "unknown"
    try:
        for line in Path("/proc/self/mountinfo").read_text().splitlines():
            left, _, right = line.partition(" - ")
            mount = left.split()[4]
            if str(path).startswith(mount) and len(mount) > len(best):
                best, kind = mount, right.split()[0]
    except (OSError, IndexError):
        pass
    return kind


def command_output(argv):
    try:
        res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=10)
        return res.stdout.strip() if res.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree of
    its own (a parent directory's repository does not count)."""
    out = command_output(["git", "rev-parse", "--show-toplevel", "HEAD"])
    if not out or len(out.splitlines()) != 2:
        return None
    top, head = out.splitlines()
    return head if Path(top).resolve() == ROOT else None


def l2_bytes(layers):
    """The L2 size the program sizes auto R-MAT levels by."""
    out = command_output([str(layers), "l2"])
    return json.loads(out)["l2_bytes"] if out else None


def environment(seed, manifest_params, layers):
    levels = None
    for kv in (manifest_params or "").split():
        if kv.startswith("levels="):
            levels = int(kv.split("=", 1)[1])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": l2_bytes(layers),
        "rmat_levels": levels,
        "fs_type": fs_type(WORK.resolve()),
        "rustc": command_output(["rustc", "--version"]),
        "git_commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------- stats


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def manifest_params(out_dir):
    try:
        return json.loads((out_dir / "manifest.json").read_text())["params"]
    except (OSError, ValueError, KeyError):
        return None


def output_edges(spec, out_dir):
    """Edges of the final output: the merged list, else the manifest."""
    if "merged_edges" in spec:
        return spec["merged_edges"]
    return json.loads((out_dir / "manifest.json").read_text())["edges"]


# ------------------------------------------------------------ untraced


def untraced(run, seconds):
    """Set-up reps, then the workload until `seconds` have passed.
    The set-up reps run first, before any workload output exists: right
    after a workload invocation the host is still reclaiming its memory
    and page cache, and the small invocations measured that aftermath
    rather than the program."""
    deadline = time.perf_counter() + seconds
    setup_dir = WORK / "setup"
    setups = []
    for _ in range(SETUP_REPS):
        inv = run.setup(setup_dir)
        if inv:
            setups.append(inv.wall)
    shutil.rmtree(setup_dir, ignore_errors=True)

    out = WORK / "out"
    samples = []
    while time.perf_counter() < deadline or len(samples) + run.failed < MIN_SAMPLES:
        inv = run.workload(out)
        if inv:
            samples.append((inv, output_edges(run.spec, out)))
        if run.failed >= MIN_SAMPLES and not samples:
            break
    summary = {"samples": len(samples), "setup_samples": len(setups)}
    if not samples or not setups:
        return {}, summary, manifest_params(out)
    meps = [edges / inv.wall / 1e6 for inv, edges in samples]
    cpu = [inv.cpu for inv, _ in samples]
    rss = [inv.rss_mb for inv, _ in samples]
    metrics = {
        "meps": statistics.median(meps),
        "cpu_s": statistics.median(cpu),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setups),
    }
    summary["spread"] = {"meps": spread(meps), "cpu_s": spread(cpu),
                         "peak_rss_mb": spread(rss), "setup_s": spread(setups)}
    return metrics, summary, manifest_params(out)


# -------------------------------------------------------------- traced


def blocking_path(name, layer):
    """Summed layer self time on the workload's blocking path: per-PE
    stages divided by the parallelism they ran at, serial stages as is."""
    t = (layer["gen.busy_s"] + layer["encode.busy_s"] + layer["write.busy_s"]) / THREADS
    if name == "gnm-merge":
        t += layer["merge.runform_s"] + layer["merge.kmerge_s"] + layer["merge.sink_s"]
    if name == "rmat-launch":
        t += layer["cluster.prepare_s"] + layer["decode.busy_s"] / THREADS
    return t


def traced_wall(name, layer):
    """Wall of the traced re-drive of the workload's own path."""
    if name == "rmat-launch":
        return layer["cluster.wall_s"]
    t = layer["runtime.wall_s"]
    if name == "gnm-merge":
        t += layer["merge.runform_s"] + layer["merge.kmerge_s"] + layer["merge.sink_s"]
    return t


def traced(run, name, seconds):
    spec = run.spec
    out = WORK / "out"
    walls = []
    for _ in range(TRACE_CLI_REPS):
        inv = run.workload(out)
        if inv:
            walls.append(inv.wall)
    if not walls:
        return {}, {"samples": 0}, None
    params = manifest_params(out)
    # Scaling diagnostic: the instance through `kagen launch` at 1 and 2
    # workers, alternating so both sides see the same noise.
    launch_dir = WORK / "launch"
    w1, w2 = [], list(walls) if spec["verb"] == "launch" else []
    deadline = time.perf_counter() + seconds / 2
    while time.perf_counter() < deadline or min(len(w1), len(w2)) < MIN_SAMPLES:
        for workers, side in ((1, w1), (2, w2)):
            inv = run.launch(workers, launch_dir)
            if inv:
                side.append(inv.wall)
        if run.failed >= 2 * MIN_SAMPLES:
            break
    shutil.rmtree(launch_dir, ignore_errors=True)

    argv = [str(run.layers), "trace", "--cli-dir", str(out), "--work", str(WORK / "trace"),
            "--kagen", str(run.kagen)]
    if spec.get("merged_edges") is not None:
        argv += ["--cli-merged", str(out / "merged.kgc")]
    run.attempted += 1
    try:
        res = subprocess.run(argv, capture_output=True, text=True,
                             timeout=max(0.1, time_left()))
        report = json.loads(res.stdout.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        report = {"metrics": {}, "errors": ["trace timed out"]}
    except (IndexError, json.JSONDecodeError):
        report = {"metrics": {}, "errors": [f"trace failed: {res.stderr.strip()[-500:]}"]}
    if report["errors"] or not report["metrics"]:
        run.failed += 1
        run.errors += report["errors"] or ["trace produced no metrics"]
        return {}, {"samples": len(walls)}, params
    layer = report["metrics"]
    untraced_wall = statistics.median(walls)
    metrics = {k: layer[k] for k in PER_LAYER_UNITS if k in layer}
    if w1 and w2:
        metrics["cluster.scaling_eff"] = statistics.median(w1) / (2 * statistics.median(w2))
    metrics["cluster.w1_spread"] = spread(w1)
    metrics["cluster.w2_spread"] = spread(w2)
    metrics["trace.coverage"] = blocking_path(name, layer) / untraced_wall
    metrics["trace.overhead_frac"] = traced_wall(name, layer) / untraced_wall - 1.0
    summary = {"samples": len(walls), "w1_samples": len(w1), "w2_samples": len(w2),
               "untraced_wall_s": untraced_wall}
    return metrics, summary, params


# ---------------------------------------------------------------- main


def fmt_metric(name, value, unit):
    return f"  {name:<22} {value:>14.6g} {unit}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        kagen, layers = build()
        WORK.mkdir(exist_ok=True)
    except (BenchError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    try:
        start_clock()
        self_test = corruption_self_test(kagen, layers)
        return bench(args, args.workload, kagen, layers, self_test)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def bench(args, name, kagen, layers, self_test):
    """Run one workload and print its summary and result line."""
    run = Run(kagen, layers, WORKLOADS[name], args.seed)
    if args.trace:
        metrics, summary, params = traced(run, name, args.seconds)
        units = PER_LAYER_UNITS
    else:
        metrics, summary, params = untraced(run, args.seconds)
        units = END_TO_END_UNITS
    if self_test:
        run.errors.append(self_test)
    correct = not run.errors and set(metrics) == set(units)
    if set(metrics) != set(units) and not run.errors:
        run.errors.append(f"missing metrics: {sorted(set(units) - set(metrics))}")

    env = environment(args.seed, params, layers)
    print(f"workload {name}, seed {args.seed}, trace {args.trace}: "
          f"{summary.get('samples', 0)} measured invocations "
          f"({run.attempted} attempted, {run.failed} failed)")
    for metric, unit in units.items():
        if metric in metrics:
            line = fmt_metric(metric, metrics[metric], unit)
            if metric in summary.get("spread", {}):
                n = summary["setup_samples" if metric == "setup_s" else "samples"]
                line += f"  (median of {n}, IQR/median {summary['spread'][metric]:.3f})"
            print(line)
    print(fmt_metric("failed_frac", run.failed / max(run.attempted, 1), "fraction")
          + f"  ({run.failed}/{run.attempted} invocations)")
    if "untraced_wall_s" in summary:
        print(f"  untraced wall {summary['untraced_wall_s']:.4g} s (median of "
              f"{summary['samples']}); scaling sides: {summary['w1_samples']} runs at "
              f"--workers 1, {summary['w2_samples']} at --workers 2")
    if args.trace and "trace.coverage" in metrics and metrics["trace.coverage"] < 0.5:
        print(f"  WARNING: layers leave {1 - metrics['trace.coverage']:.0%} of "
              f"{name}'s wall time unattributed")
    for err in run.errors:
        print(f"  FAILED: {err}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
