"""One workload process: import perigid, read the inputs, run rounds of CLI calls.

Started by run.py in a fresh interpreter, inside the run's work directory.
It pins itself to the lowest CPU it may run on, then reads ``plan.json``
(written by run.py), calls ``perigid.cli.main`` in process with stdout and
stderr captured, and writes ``result-<tag>.json``.  Outputs of the first
round are kept for checking; later rounds are compared with them byte for
byte.

Every call is bracketed by a calibration: a fixed LAPACK and interpreter
workload whose time tracks the speed the shared machine gives this process.
Each call's time is also reported scaled to the speed at which the
calibration takes ``CALIBRATION_REF_S``, using the median of the
calibrations around the call (see ``scale``).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def _blas_threads():
    """Threads the OpenBLAS bundled with numpy reports it will use, or None."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


# Calibration time at the reference speed (its typical time on the 2-core
# machine the reference figures in README.md come from).
CALIBRATION_REF_S = 0.0035
_CALIBRATION_MATRIX = None


def calibrate() -> float:
    """Seconds for a fixed 120 x 120 SVD plus a fixed integer loop."""
    global _CALIBRATION_MATRIX
    import numpy

    if _CALIBRATION_MATRIX is None:
        _CALIBRATION_MATRIX = numpy.random.default_rng(0).standard_normal((120, 120))
    start = time.perf_counter()
    numpy.linalg.svd(_CALIBRATION_MATRIX, compute_uv=False)
    x = 1
    for _ in range(10000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
    return time.perf_counter() - start


# Calibrations on each side of a call whose median gives its speed.  One
# calibration can be slowed several-fold by a single preemption; the median
# of ~20 ignores that but still follows drift over seconds.
CALIBRATION_HALF_WINDOW = 10


def scale(seconds: list, calibrations: list) -> list:
    """Call times scaled to the reference speed.

    Call i ran between calibrations i and i + 1.
    """
    k = CALIBRATION_HALF_WINDOW
    return [t * CALIBRATION_REF_S / statistics.median(calibrations[max(0, i - k):i + k + 2])
            for i, t in enumerate(seconds)]


def _call(main, argv: list) -> tuple[str, object, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception:  # a crash is an outcome to report, not a reason to stop
        code = "exception: " + traceback.format_exc(limit=4)
    return out.getvalue(), code, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    # One CPU: without pinning, the --batch thread pool's throughput halves
    # and its spread between runs exceeds the bounds (see README.md).
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    sys.path.insert(0, args.src)
    import perigid.cli
    from perigid import fileformat
    from perigid.errors import PerigidError

    plan = json.loads(Path("plan.json").read_text(encoding="utf-8"))
    for rel, role in plan["inputs"]:
        raw = Path(rel).read_bytes()
        try:
            if role == "finite":
                fileformat.loads_finite(raw)
            else:
                fileformat.loads(raw)
        except PerigidError:
            if role != "fault":
                raise
    ready = time.monotonic()
    result: dict = {"ready": ready, "blas_threads": _blas_threads(), "cpu": cpu,
                    "ready_calibration": statistics.median(calibrate() for _ in range(5))}
    if args.setup_only:
        Path(f"result-{args.tag}.json").write_text(json.dumps(result), encoding="utf-8")
        return 0

    ops = plan["ops"]
    for op in ops:
        if op["probe"]:
            _call(perigid.cli.main, op["argv"])

    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    first: dict = {}
    changed: dict = {op["id"]: 0 for op in ops}
    calls = []  # (op id, seconds) in call order
    calibrations = [calibrate()]
    start = time.perf_counter()
    rounds = 0
    while True:
        for op in ops:
            for _ in range(op["repeat"]):
                out, code, seconds = _call(perigid.cli.main, op["argv"])
                calibrations.append(calibrate())
                calls.append((op["id"], seconds))
                if op["id"] not in first:
                    first[op["id"]] = {"out": out, "code": code}
                elif first[op["id"]] != {"out": out, "code": code}:
                    changed[op["id"]] += 1
        rounds += 1
        if time.perf_counter() - start >= args.seconds:
            break

    durations: dict = {op["id"]: [] for op in ops}
    scaled: dict = {op["id"]: [] for op in ops}
    scaled_calls = scale([seconds for _, seconds in calls], calibrations)
    for (op_id, seconds), scaled_seconds in zip(calls, scaled_calls):
        durations[op_id].append(seconds)
        scaled[op_id].append(scaled_seconds)
    per_round = len(calls) // rounds
    # scaled call time per round, calibrations excluded
    round_seconds = [sum(scaled_calls[i:i + per_round]) for i in range(0, len(calls), per_round)]
    result.update(
        rounds=rounds,
        round_seconds=round_seconds,
        durations=durations,
        scaled=scaled,
        calibration=statistics.median(calibrations),
        changed=changed,
        outputs=first,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer is not None:
        from tracer import layer_metrics

        decisions = sum(op["reports"] * op["repeat"] for op in ops)
        time_scale = CALIBRATION_REF_S / statistics.median(calibrations)
        result["layers"] = layer_metrics(tracer, rounds, decisions, time_scale)
        tracer.write(f"spans-{args.tag}.jsonl")
    Path(f"result-{args.tag}.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
