#!/usr/bin/env python3
"""Benchmark for effortud, run from the root of a source checkout.

    python3 perfbench/run.py --workload fast-overlap --seed 47 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke

One client in one process runs the workload as a closed loop: the next
pass starts when the previous one has finished. A workload's inputs split
into units (replicates, settings or pipeline stages), each timed on its
own. A run makes one round over the units, then repeats them round-robin
while a pass still fits in ``--seconds``. The package is imported from
``src/`` next to this directory; nothing is installed.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (seconds of one
pass over every unit, each at its fastest), ``setup_s`` (the median of
five package imports in fresh interpreters plus the median of up to three
input set-ups) and ``peak_rss_mb``. ``--trace 1`` first makes one
untraced round, then traced rounds, and reports the per-layer metrics of
``tracing.LAYER_METRICS`` plus the tracing overhead. Every pass's outputs
are checked; failed checks, fits and exceptions are counted against the
operations attempted, and any failure makes the exit code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before
it give the environment, checks, fingerprint and, when traced, the time
per layer. ``--smoke`` runs every workload at reduced size, traced and
untraced, and checks that every metric named in BENCHMARK.json is
reported with its unit and that every kind of output check ran.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
FINGERPRINTS = WORK_ROOT / "fingerprints.json"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
LONG_SETUP_S = 2.0  # a set-up longer than this is made twice, not three times
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MODULES = (
    "analysis",
    "effort",
    "encounters",
    "experiment",
    "geometry",
    "inference",
    "model_io",
    "raster_io",
)
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def load_package():
    """Import the package from this checkout's ``src/``."""
    if not (SRC / "effortud" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'effortud'}")
    for var in BLAS_ENV:  # one client, one BLAS thread: steadier on shared cores
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import importlib

    import effortud

    for name in MODULES:
        importlib.import_module(f"effortud.{name}")
    if Path(effortud.__file__).resolve().parent != (SRC / "effortud").resolve():
        raise SystemExit(f"error: imported effortud from {effortud.__file__}, not {SRC}")
    return effortud


_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    + "".join(f"import effortud.{name}\n" for name in MODULES)
    + "print(time.perf_counter() - t)\n"
)


def fresh_import_times() -> list[float]:
    """Seconds to import the package in fresh interpreters, as a user's run pays.

    A process imports only once, so repeats need new interpreters; their
    median is steadier than the one import this process made.
    """
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout))
    return times


def blas_threads() -> int | None:
    """Threads OpenBLAS reports, read from the libraries loaded in-process."""
    import ctypes

    found = []
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found.append(int(fn()))
                break
    return max(found) if found else None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def source_digest() -> str:
    """Hash of the package and benchmark sources: fingerprints are per version."""
    h = hashlib.sha256()
    for base in (SRC, Path(__file__).resolve().parent):
        for p in sorted(base.rglob("*.py")):
            h.update(p.relative_to(ROOT).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def stored_fingerprint(key: str, fingerprint: str) -> str | None:
    """Return the fingerprint an earlier run stored under ``key``, storing ours if none."""
    try:
        known = json.loads(FINGERPRINTS.read_text())
    except (OSError, ValueError):
        known = {}
    if key in known:
        return known[key]
    known[key] = fingerprint
    tmp = FINGERPRINTS.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, FINGERPRINTS)
    return None


def _median(xs: list[float]) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _pass_s(unit_times: list[list[float]], pick=min) -> float:
    """Seconds of one pass over every unit: the sum over units of ``pick`` of their times.

    The default takes each unit's fastest pass. Other tenants of a shared
    host only ever add time to a pass, and they come in bursts of seconds,
    so the fastest pass is the steadiest estimate of the program's own cost.
    """
    return sum(pick(ts) for ts in unit_times if ts)


def run_workload(pkg, name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    tally = workloads.Tally()

    import_times = fresh_import_times()
    # Each set-up replaces the last, so memory in use is the same after any
    # of them. The fine-grid HIGH simulation (4-9 s) is made twice, to keep
    # runs inside the time budget; the count hangs on no time near its limit.
    setup_times, inp = [], None
    for i in range(SETUP_REPEATS):
        if i == 2 and setup_times[0] > LONG_SETUP_S:
            break
        first = inp.fingerprint if inp is not None else None
        inp = None
        t0 = time.perf_counter()
        inp = wl.setup(pkg, seed, smoke)
        setup_times.append(time.perf_counter() - t0)
        if first is not None:
            tally.record("determinism", inp.fingerprint == first,
                         "set-up gave different inputs for the same seed")

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    n_units = inp.units
    walls = [[] for _ in range(n_units)]  # seconds per untraced pass of each unit
    traced_walls = [[] for _ in range(n_units)]
    prints: list[str | None] = [None] * n_units
    last: list = [None] * n_units  # each unit's latest output; a chained unit reads the one before
    tracers = []

    def ready(u: int) -> bool:
        """Whether the output the unit reads, if any, is there."""
        return not wl.chained or u == 0 or last[u - 1] is not None

    def timed_pass(u: int, tracer, times: list[list[float]]) -> None:
        if not ready(u):
            return  # the unit before it failed, and that is counted
        # As with set-ups, only what the unit reads is kept while it runs, so
        # memory in use is the same in every round, however many there were.
        given = last[u - 1] if wl.chained and u else None
        last[:] = [None] * n_units
        t0 = time.perf_counter()
        try:
            out = wl.run_pass(pkg, inp, u, tracer, work, given)
        except Exception:
            tally.record("pass", False, traceback.format_exc(limit=4))
            return
        times[u].append(time.perf_counter() - t0)
        last[u] = out
        wl.check(pkg, inp, u, out, tally)
        if prints[u] is None:
            prints[u] = out.fingerprint
        else:
            tally.record("determinism", out.fingerprint == prints[u],
                         f"two passes of unit {u} on the same inputs gave different outputs")

    # A new pass starts only if it should end by the deadline, judged by the
    # unit's (or, traced, the whole round's) fastest time so far; so a run
    # takes about ``seconds`` however long its units are, and at least one
    # round (two when smoke-testing or tracing).
    try:
        deadline = time.perf_counter() + seconds
        for u in range(n_units):
            timed_pass(u, tracing.NullTracer(), walls)
        # Memory is read after set-up and one round, the same work in every
        # run. Later passes repeat that work; their peak moves only with the
        # allocator's history, that is with how many passes fitted.
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if smoke and not trace:  # a second round, for the determinism check
            for u in range(n_units):
                timed_pass(u, tracing.NullTracer(), walls)
        if trace:  # whole traced rounds, one tracer each, after the untraced one
            while not tracers or time.perf_counter() + _pass_s(traced_walls) <= deadline:
                tracer = tracing.Tracer(len(tracers) + 1)
                with tracing.instrumented(pkg, tracer):
                    for u in range(n_units):
                        timed_pass(u, tracer, traced_walls)
                tracers.append(tracer)
        else:  # round-robin, skipping a unit that cannot run or would overrun
            u, misses = 0, 0
            while misses < n_units:
                if walls[u] and ready(u) and time.perf_counter() + min(walls[u]) <= deadline:
                    timed_pass(u, tracing.NullTracer(), walls)
                    misses = 0
                else:
                    misses += 1
                u = (u + 1) % n_units
    finally:
        shutil.rmtree(work, ignore_errors=True)

    fingerprint = None
    if all(prints):
        fingerprint = hashlib.sha256("".join(prints).encode()).hexdigest()
        key = f"{name}|seed={seed}|smoke={int(smoke)}|{source_digest()}"
        earlier = stored_fingerprint(key, fingerprint)
        if earlier is not None:
            tally.record("determinism", earlier == fingerprint,
                         f"an earlier run with seed {seed} gave fingerprint {earlier}")

    wall_s = _pass_s(walls)
    result = {
        "workload": name,
        "smoke": smoke,
        "environment": environment(seed),
        "import_runs_s": import_times,
        "setup_runs_s": setup_times,
        "pass_walls_s": walls,
        "traced_pass_walls_s": traced_walls,
        "fingerprint": fingerprint,
        "checks": {k: [tally.attempted[k], tally.failed.get(k, 0)] for k in sorted(tally.attempted)},
        "failures": tally.messages,
        "attempted": max(1, tally.n_attempted),
        "failed": tally.n_failed,
    }
    if trace:
        per_pass = [tracing.layer_metrics(t) for t in tracers]
        layer = {k: _median([m[k] for m in per_pass]) for k in per_pass[0]} if per_pass else {}
        overhead = _pass_s(traced_walls) - wall_s
        layer["trace.overhead_s"] = overhead
        layer["trace.overhead_frac"] = overhead / wall_s if wall_s > 0 else 0.0
        result["metrics"] = {
            k: {"value": layer.get(k, 0.0), "unit": u} for k, u in tracing.LAYER_METRICS.items()
        }
        result["breakdown"] = tracers[-1].layer_totals() if tracers else {}
        result["traced_wall_s"] = _pass_s(traced_walls, lambda ts: ts[-1])
    else:
        values = {"wall_s": wall_s, "setup_s": _median(import_times) + _median(setup_times),
                  "peak_rss_mb": peak_mb}
        result["metrics"] = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    return result, tracers


def report(result: dict) -> None:
    """Human-readable lines for one run (everything but the final JSON line)."""
    env = result["environment"]
    print(f"workload {result['workload']}  seed {env['seed']}  smoke {result['smoke']}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print("setup: imports " + ", ".join(f"{t:.4f}" for t in result["import_runs_s"])
          + " s; input set-ups " + ", ".join(f"{t:.4f}" for t in result["setup_runs_s"]) + " s")
    for u, (plain, traced) in enumerate(zip(result["pass_walls_s"], result["traced_pass_walls_s"])):
        print(f"unit {u} passes: untraced " + ", ".join(f"{w:.4f}" for w in plain)
              + " s; traced " + ", ".join(f"{w:.4f}" for w in traced) + " s")
    print(f"one pass over all units: {_pass_s(result['pass_walls_s']):.4f} s from each unit's fastest, "
          f"{_pass_s(result['pass_walls_s'], _median):.4f} s from each unit's median")
    print(f"fingerprint {result['fingerprint']}")
    for kind, (n, bad) in result["checks"].items():
        print(f"check {kind:<12} {n - bad}/{n} passed")
    for msg in result["failures"]:
        print(f"FAILED {msg}")
    print(f"error_rate {result['failed'] / result['attempted']:.6g} fraction "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    if "breakdown" in result:
        total = result["traced_wall_s"]
        layers: dict[str, float] = {}
        print(f"{'span':<28} {'calls':>8} {'total_s':>10} {'self_s':>10} {'self%':>7}")
        for nm, (calls, tot, slf) in sorted(result["breakdown"].items(), key=lambda kv: -kv[1][2]):
            layers[nm.split('.')[0]] = layers.get(nm.split('.')[0], 0.0) + slf
            print(f"{nm:<28} {calls:>8} {tot:>10.4f} {slf:>10.4f} {100 * slf / total:>6.1f}%")
        covered = sum(layers.values())
        layers["(outside spans)"] = total - covered
        print("self time by layer: " + ", ".join(
            f"{k} {100 * v / total:.1f}%" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    for k, m in result["metrics"].items():
        print(f"metric {k} {m['value']:.6g} {m['unit']}")


def final_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def smoke(pkg) -> int:
    """Reduced-size run of every workload and mode; checks the metric contract."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for wl in workloads.WORKLOADS.values():
        for trace in (0, 1):
            res, _ = run_workload(pkg, wl.name, 47, 0.0, bool(trace), True)
            report(res)
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{wl.name} trace={trace}: metrics {got} != {expected[trace]}")
            ran = set(res["checks"])
            for kind in wl.check_kinds + ("determinism",):
                if kind not in ran:
                    problems.append(f"{wl.name} trace={trace}: no {kind} check ran")
            if res["failed"]:
                problems.append(f"{wl.name} trace={trace}: {res['failures']}")
    for p in problems:
        print(f"SMOKE PROBLEM {p}")
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": len(problems)}))
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="high-range-sweep, fast-overlap or fine-grid-400")
    ap.add_argument("--seed", type=int, default=47, help="workload seed (acceptance default 47)")
    ap.add_argument("--seconds", type=float, default=45.0, help="how long to keep running passes")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", type=Path, help="also write the full result (and spans) as JSON")
    ap.add_argument("--smoke", action="store_true", help="reduced-size self-test of the benchmark")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")

    pkg = load_package()
    if args.smoke:
        return smoke(pkg)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    result, tracers = run_workload(pkg, args.workload, args.seed, args.seconds, bool(args.trace),
                                   False)
    report(result)
    if args.out is not None:
        spans = [t.spans() for t in tracers]
        args.out.write_text(json.dumps({**result, "spans": spans}) + "\n")
    print(final_line(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
