"""perigid benchmark: seeded workloads through the real CLI, checked and timed.

    python3 perfbench/run.py --workload generic|certify|batch --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout that holds ``src/perigid``.  The last line
of stdout is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave nothing behind in the checkout

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from worker import CALIBRATION_REF_S  # noqa: E402

# One BLAS thread: the batch thread pool already runs up to 8 workers.
BLAS_THREADS = 1
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 120


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _git_rev() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            loose = ROOT / ".git" / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return text
    except OSError:
        return "unknown (not a git checkout)"


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def environment() -> dict:
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": min(BLAS_THREADS, _nproc()),
        "git_rev": _git_rev(),
    }


def worker_env(env_info: dict) -> dict:
    env = dict(os.environ)
    threads = str(env_info["blas_threads"])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    env.pop("PERIGID_SEED", None)
    return env


def _run_worker(workdir: Path, env: dict, tag: str, extra: list) -> dict:
    """Start a fresh worker, wait for it, return its result.

    The result gains its setup time, unscaled and scaled by the calibration
    the worker ran right after set-up.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC), "--tag", tag, *extra]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=workdir, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {tag} timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} failed ({proc.returncode}):\n{out}{err}")
    result = json.loads((workdir / f"result-{tag}.json").read_text(encoding="utf-8"))
    result["setup_unscaled"] = result["ready"] - spawned
    result["setup"] = result["setup_unscaled"] * CALIBRATION_REF_S / result["ready_calibration"]
    return result


def _median_per_op(durations: dict, ops: list) -> float:
    """Mean over the ops of each op's median seconds per call."""
    return statistics.fmean(statistics.median(durations[op.id]) for op in ops)


def end_to_end(w: workloads.Workload, result: dict, setups: list, scaled: bool) -> dict:
    """End-to-end metrics from the scaled or the unscaled times."""
    durations = result["scaled" if scaled else "durations"]
    setup = statistics.median(s["setup" if scaled else "setup_unscaled"] for s in setups)
    by_kind: dict = {}
    for op in w.ops:
        by_kind.setdefault(op.kind, []).append(op)
    metrics = {"setup_s": (setup, "s"),
               "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB")}
    for kind in workloads.KINDS:
        ops = by_kind[kind]
        if kind == "batch":
            # one pass over the command mix, each call at its median time
            reports = sum(op.reports for op in ops)
            seconds = sum(statistics.median(durations[op.id]) for op in ops)
            metrics["batch_reports_per_s"] = (reports / seconds, "1/s")
        else:
            metrics[f"{kind}_s"] = (_median_per_op(durations, ops), "s")
    return metrics


def judge(w: workloads.Workload, result: dict) -> tuple[bool, int, int, list]:
    """(correct, attempted, failed, problems) over every call of the run.

    When the first-round output of an operation breaks its check, every call
    of it fails; otherwise the calls whose output differs from the first
    fail.  A failing call counts its failed reports (see ``Op.failed_reports``).
    The run is correct when only the known-fault calls fail.
    """
    attempted = failed = 0
    problems = []
    for op in w.ops:
        calls = len(result["durations"][op.id])
        attempted += op.reports * calls
        first = result["outputs"][op.id]
        found = op.check(first["out"], first["code"])
        changed = result["changed"][op.id]
        if found:
            failed += calls * op.failed_reports(found)
        elif changed:
            failed += changed * op.reports
        if changed:
            found.append(f"output changed in {changed} of {calls} calls")
        if op.kind != "fault":
            problems += [f"{op.id}: {p}" for p in found]
    return not problems, attempted, failed, problems


def run(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    # Only the last run's work directory is kept: its inputs and spans stay
    # for inspection until the next run starts.
    shutil.rmtree(WORK, ignore_errors=True)
    workdir = WORK / f"{workload}-{seed}"
    workdir.mkdir(parents=True)
    w = workloads.build(workload, seed, workdir, quick)
    plan = {
        "inputs": w.inputs,
        "ops": [{"id": op.id, "argv": op.argv, "reports": op.reports, "probe": op.probe,
                 "repeat": op.repeat}
                for op in w.ops],
    }
    (workdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    env_info = environment()
    env = worker_env(env_info)
    setups = [_run_worker(workdir, env, f"setup{i}", ["--setup-only"])
              for i in range(SETUP_PROBES)]
    # A traced run spends half its time untraced (for the overhead), half traced.
    timed_seconds = seconds / 2 if trace else seconds
    result = _run_worker(workdir, env, "timed", ["--seconds", str(timed_seconds)])
    setups.append(result)
    print("env: " + json.dumps({**env_info, "blas_threads_in_use": result["blas_threads"],
                                "cpu": result["cpu"],
                                "calibration_ms": 1e3 * result["calibration"],
                                "calibration_ref_ms": 1e3 * CALIBRATION_REF_S},
                               sort_keys=True))
    print("setup samples (unscaled): " + " ".join(f"{s['setup_unscaled']:.3f}" for s in setups))
    correct, attempted, failed, problems = judge(w, result)
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    if trace:
        traced = _run_worker(workdir, env, "traced", ["--seconds", str(seconds / 2), "--trace"])
        untraced_round = statistics.fmean(result["round_seconds"])
        traced_round = statistics.fmean(traced["round_seconds"])
        layers = dict(traced["layers"])
        layers["trace.overhead_pct"] = 100.0 * (traced_round / untraced_round - 1.0)
        units = {name: _layer_unit(name) for name in layers}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
        print(f"tracing overhead: {layers['trace.overhead_pct']:.1f}% per round "
              f"({traced['rounds']} traced rounds, {result['rounds']} untraced)")
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']}")
    else:
        raw = end_to_end(w, result, setups, scaled=False)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end(w, result, setups, scaled=True).items()}
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']} (unscaled {raw[name][0]:.6g})")
    print(f"{workload}: {result['rounds']} rounds, attempted {attempted}, failed {failed}")
    print(f"inputs, outputs and spans kept in {workdir.relative_to(ROOT)}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_gflop"):
        return "GFLOP"
    return "count"


def self_check() -> int:
    """Every workload at reduced size, untraced and traced, every check on."""
    ok = True
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result = run(workload, seed=1, seconds=0.0, trace=trace, quick=True)
            # correct: every call outside the known-fault inputs passed its check
            good = result["correct"]
            print(f"self-check {workload} trace={int(trace)}: {'ok' if good else 'FAILED'}")
            ok = ok and good
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at reduced size and check it")
    args = parser.parse_args()
    if not (SRC / "perigid" / "__init__.py").is_file():
        print(f"error: no perigid sources at {SRC}; run from a perigid checkout",
              file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), False)
    except (RuntimeError, workloads.oracle.OracleUndecided) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
