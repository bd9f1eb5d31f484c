"""hessianlab benchmark runner.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. Each repetition runs the
workload's CLI calls one after another, each in a fresh Python process
(closed loop, one client), with BLAS/OpenMP threads pinned to 1 and
PYTHONPATH set to the checkout's src/. Repetitions of the same seeded
inputs continue until --seconds have passed, with at least two, so every
run also checks that the artifacts of a seed repeat byte for byte.

--trace 0 reports the end-to-end metrics: medians over repetitions of
the repetition's wall time and import time, the largest child peak RSS,
the deviation from the closed-form answer, and the share of calls that
passed. --trace 1 alternates untraced and traced repetitions and reports
per-layer busy time, self time, call and work counts from spans recorded
around each layer's public functions (see spans.py), plus the tracing
overhead. The last line of standard output is the result: {"correct",
"attempted", "failed", "metrics"}. README.md defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")

THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
MIN_REPS = 2
RUN_LIMIT_S = 170.0   # a run must end within 180 s: no repetition starts that would
                      # pass this, and a call still running then is killed


class BenchError(Exception):
    """The benchmark cannot run here (no program to build or import)."""


def child_env():
    env = dict(os.environ)
    env.update(THREAD_VARS)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    # import from cached bytecode, as an installed package does, whatever
    # the caller's setting: setup_s then times imports, not compilation
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def warm_up(env):
    """Import the program once untimed: compiles bytecode and fills the
    page cache, which a user's repeated runs find warm."""
    if not os.path.isfile(os.path.join(SRC, "hessianlab", "cli.py")):
        raise BenchError(f"no hessianlab sources under {SRC}")
    proc = subprocess.run(
        [sys.executable, "-c", "import hessianlab.cli"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError("hessianlab does not import:\n" + proc.stderr)


def _digest(out, names):
    h = hashlib.sha256()
    for name in names:
        path = os.path.join(out, name)
        h.update(name.encode())
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_call(call, cdir, trace, env, deadline):
    """One CLI call in a fresh process; returns its measurements."""
    os.makedirs(cdir)
    cfg, out, stamp = (os.path.join(cdir, n) for n in ("config.json", "out", "stamp.json"))
    with open(cfg, "w") as fh:
        json.dump(call.config, fh)
    argv = [sys.executable, LAUNCH, stamp, "1" if trace else "0", "--config", cfg, "--out", out]
    with open(os.path.join(cdir, "log.txt"), "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = time.monotonic()
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    res = {
        "label": call.label,
        "rc": rc,
        "wall_s": t1 - t0,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "problems": [],
        "ref_err": None,
        "spans": [],
        "counts": {},
    }
    if os.path.exists(stamp):
        with open(stamp) as fh:
            st = json.load(fh)
        res["setup_s"] = st["ready"] - t0
        res["spans"] = st.get("spans", [])
        res["counts"] = st.get("counts", {})
    else:
        res["problems"].append("launcher wrote no stamp (import failed or killed)")
    if rc != 0:
        with open(os.path.join(cdir, "log.txt")) as fh:
            tail = fh.read()[-400:]
        res["problems"].append(f"exit code {rc}: {tail.strip()}")
    else:
        try:
            res["ref_err"], problems = call.check(out)
            res["problems"] += problems
        except (OSError, KeyError, ValueError, IndexError) as exc:
            res["problems"].append(f"unreadable artifacts: {exc!r}")
    res["digest"] = _digest(out, call.artifacts)
    res["artifact_bytes"] = sum(
        os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)
    ) if os.path.isdir(out) else 0
    res["report"] = {}
    if os.path.exists(os.path.join(out, "report.json")):
        with open(os.path.join(out, "report.json")) as fh:
            res["report"] = json.load(fh)
    res["calibration"] = None
    if os.path.exists(os.path.join(out, "manifest.json")):
        with open(os.path.join(out, "manifest.json")) as fh:
            res["calibration"] = json.load(fh).get("calibration")
    return res


def run_rep(calls, rdir, trace, env, digests, deadline):
    """One repetition: every call of the workload, in order."""
    results = []
    for i, call in enumerate(calls):
        res = run_call(call, os.path.join(rdir, f"call{i}"), trace, env, deadline)
        first = digests.setdefault(i, res["digest"])
        if res["digest"] != first:
            res["problems"].append("artifacts differ from the first repetition of this seed")
        results.append(res)
    shutil.rmtree(rdir)
    return {
        "trace": trace,
        "calls": results,
        "wall_s": sum(r["wall_s"] for r in results),
        "setup_s": sum(r.get("setup_s", 0.0) for r in results),
    }


def end_to_end(reps, attempted, failed):
    calls = [c for r in reps for c in r["calls"]]
    errs = [c["ref_err"] for c in calls if c["ref_err"] is not None]
    if not errs:
        raise BenchError("no call produced checkable output")
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "peak_rss_mb": (max(c["rss_mb"] for c in calls), "MB"),
        "ref_err": (max(errs), "1"),
        "success_frac": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(reps):
    traced = [r for r in reps if r["trace"]]
    plain = [r for r in reps if not r["trace"]]
    rows = []
    for rep in traced:
        m = spans.layer_metrics(rep["calls"])
        m["cli.invocations"] = len(rep["calls"])
        m["cli.artifact_bytes"] = sum(c["artifact_bytes"] for c in rep["calls"])
        m["solver.newton_iters"] = sum(c["report"].get("newton_iters", 0) for c in rep["calls"])
        m["solver.unknowns"] = sum(c["report"].get("inside_nodes", 0) for c in rep["calls"])
        rows.append(m)
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name == "bench.trace_overhead_s":
            value = statistics.median(r["wall_s"] for r in traced) - statistics.median(
                r["wall_s"] for r in plain
            )
        else:
            value = statistics.median(row[name] for row in rows)
        out[name] = (value, unit)
    return out


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or "bytes_" in name:
        return "bytes"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


PER_LAYER_UNITS = {
    name: _unit(name)
    for name in (
        ["cli.invocations", "cli.artifact_bytes"]
        + list(spans.SPAN_TIME_METRICS.values())
        + list(spans.SPAN_CALL_METRICS.values())
        + list(spans.COUNT_METRICS)
        + ["polar.rays_distinct_frac", "solver.newton_iters", "solver.unknowns"]
        + list(spans.SELF_TIME_METRICS.values())
        + [f"{layer}.layer_self_s" for layer in spans.LAYERS]
        + ["bench.trace_overhead_s"]
    )
}


def environment(calibration):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = git.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREAD_VARS,
        "git_commit": commit,
        "calibration_hash": calibration,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    env = child_env()
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        warm_up(env)
        calls = workloads.WORKLOADS[args.workload](args.seed, work)
        digests = {}
        reps = []
        t_measure = time.monotonic()
        while True:
            t_rep = time.monotonic()
            trace = bool(args.trace) and len(reps) % 2 == 1
            reps.append(run_rep(calls, os.path.join(work, f"rep{len(reps)}"), trace, env,
                                digests, deadline))
            now = time.monotonic()
            predicted_end = now + (now - t_rep)
            if predicted_end > deadline:
                break
            if len(reps) >= MIN_REPS and predicted_end > t_measure + args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_calls = [c for r in reps for c in r["calls"]]
    attempted = len(all_calls)
    failed = sum(1 for c in all_calls if c["problems"])
    for i, rep in enumerate(reps):
        for c in rep["calls"]:
            err = "-" if c["ref_err"] is None else f"{c['ref_err']:.4g}"
            print(
                f"rep {i}{' traced' if rep['trace'] else ''} {c['label']}: rc={c['rc']} "
                f"wall={c['wall_s']:.3f}s setup={c.get('setup_s', float('nan')):.3f}s "
                f"rss={c['rss_mb']:.1f}MB ref_err={err}"
                + "".join(f"\n  FAIL {p}" for p in c["problems"])
            )
    if args.trace:
        metrics = per_layer(reps)
    else:
        metrics = end_to_end(reps, attempted, failed)
    calibration = next((c["calibration"] for c in all_calls if c["calibration"]), None)
    print("env " + json.dumps(environment(calibration), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions, "
          f"{attempted} calls, {failed} failed (fail_frac {failed / attempted:.3g})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
