"""Stage threads: ordered_map, and outputs that do not depend on the thread count."""

import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import effortud
from effortud import analysis, effort, pool
from effortud.analysis import QuadraticDesign, exceedance_map
from effortud.effort import overlap_corrected_effort, path_integral_effort
from effortud.errors import ConfigError
from effortud.geometry import StudyRegion, build_grid
from effortud.inference import FitResult, IntensityModel
from effortud.movement import Trajectory

SRC = str(Path(effortud.__file__).resolve().parents[1])


def _threads(monkeypatch, n):
    monkeypatch.setenv(pool.WORKERS_ENV, str(n))


class TestOrderedMap:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_results_in_submission_order(self, monkeypatch, n):
        _threads(monkeypatch, n)

        def slow_first(i):
            time.sleep(0.002 * (i % 4 == 0))
            return i * i

        assert list(pool.ordered_map(slow_first, range(40))) == [i * i for i in range(40)]

    @pytest.mark.parametrize("n", [2, 3])
    def test_at_most_threads_plus_one_in_flight(self, monkeypatch, n):
        _threads(monkeypatch, n)
        drawn = []

        def items():
            for i in range(30):
                drawn.append(i)
                yield i

        for taken, _ in enumerate(pool.ordered_map(lambda i: i, items())):
            # the item just taken, and at most n + 1 drawn after it were submitted
            assert len(drawn) <= taken + n + 1

    def test_one_thread_is_a_plain_loop(self, monkeypatch):
        _threads(monkeypatch, 1)
        ran_on = set(pool.ordered_map(lambda i: threading.get_ident(), range(5)))
        assert ran_on == {threading.get_ident()}

    def test_several_threads_run_off_the_calling_thread(self, monkeypatch):
        _threads(monkeypatch, 2)
        ran_on = set(pool.ordered_map(lambda i: threading.get_ident(), range(5)))
        assert threading.get_ident() not in ran_on

    def test_an_error_reaches_the_caller_and_the_pool_ends(self, monkeypatch):
        _threads(monkeypatch, 2)
        before = threading.active_count()

        def fail_at_three(i):
            if i == 3:
                raise ValueError("three")
            return i

        with pytest.raises(ValueError, match="three"):
            list(pool.ordered_map(fail_at_three, range(20)))
        assert threading.active_count() == before

    def test_replicate_workers_run_one_thread(self, monkeypatch):
        _threads(monkeypatch, 3)
        assert pool.stage_threads() == 3
        monkeypatch.setattr(pool, "_single_threaded", False)
        pool.single_threaded()
        assert pool.stage_threads() == 1

    def test_bad_worker_count_is_a_config_error(self, monkeypatch):
        monkeypatch.setenv(pool.WORKERS_ENV, "two")
        with pytest.raises(ConfigError, match="EFFORTUD_WORKERS must be an integer"):
            list(pool.ordered_map(abs, [1]))


@pytest.fixture
def fast_switching():
    """Threads switch every microsecond, so chunks finish in many orders."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _walk_tracks(seed, n_tracks, n_steps, lo=5.0, hi=95.0):
    rng = np.random.default_rng(seed)
    start = rng.uniform(lo, hi, size=(n_tracks, 1, 2))
    steps = rng.normal(0.0, 1.5, size=(n_tracks, n_steps - 1, 2))
    paths = np.clip(np.concatenate([start, start + np.cumsum(steps, axis=1)], axis=1), 0.0, 100.0)
    return [Trajectory(positions=p, dt=0.5) for p in paths]


@pytest.mark.parametrize("mode", ["indicator", "detection"])
def test_effort_bytes_do_not_depend_on_thread_count(monkeypatch, fast_switching, mode):
    # small position groups give hundreds of stencil-row chunks, which the
    # threads finish out of order; the field adds them in order
    monkeypatch.setattr(effort, "_POSITION_CHUNK", 2048)
    g = build_grid(StudyRegion(0.0, 100.0, 0.0, 100.0), 120, 90)
    tracks = _walk_tracks(11, 6, 400)
    got = {}
    for n in (1, 2, 3):
        _threads(monkeypatch, n)
        got[n] = (
            path_integral_effort(tracks, g, 9.0, mode).values.tobytes(),
            overlap_corrected_effort(tracks, g, 9.0, mode).values.tobytes(),
        )
    assert got[1] == got[2] == got[3]


@pytest.mark.parametrize("threshold_mode", ["per-draw", "fixed"])
def test_exceedance_bytes_do_not_depend_on_thread_count(monkeypatch, fast_switching, threshold_mode):
    monkeypatch.setattr(analysis, "_VALUE_CHUNK", 3 * 60 * 50)
    g = build_grid(StudyRegion(0.0, 100.0, 0.0, 100.0), 60, 50)
    model = IntensityModel(grid=g, env=QuadraticDesign(g).block())
    names = model.parameter_names()
    theta = np.array([-3.0, 0.2, -0.4, -1.5, -0.8, 0.3])
    B = np.random.default_rng(2).normal(size=(len(theta), len(theta)))
    fit = FitResult(names=names, theta=theta, loglik=0.0, converged=True, iterations=1,
                    covariance=0.02 * B @ B.T, gradient_max_norm=0.0)
    got = {}
    for n in (1, 2, 3):
        _threads(monkeypatch, n)
        emap = exceedance_map(model, fit, np.random.default_rng(8), percentile=70.0,
                              n_samples=200, threshold_mode=threshold_mode)
        got[n] = emap.probabilities.values.tobytes()
    assert got[1] == got[2] == got[3]


def _run(code: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", code, SRC], capture_output=True, text=True, check=True, timeout=300
    ).stdout.strip()


def test_import_starts_no_thread():
    code = (
        "import sys, threading; sys.path.insert(0, sys.argv[1]); import effortud; "
        "print(threading.active_count())"
    )
    assert _run(code) == "1"


def test_replicate_processes_after_a_threaded_stage():
    # a pool lives for one stage, so a fork after it inherits no stage threads
    code = (
        "import os, sys, threading; sys.path.insert(0, sys.argv[1]); "
        "os.environ['EFFORTUD_WORKERS'] = '2'\n"
        "import numpy as np\n"
        "from effortud import build_grid, StudyRegion, path_integral_effort, config_from_dict\n"
        "from effortud import run_experiment, Trajectory\n"
        "g = build_grid(StudyRegion(0.0, 100.0, 0.0, 100.0), 200, 200)\n"
        "xy = np.random.default_rng(1).uniform(0, 100, size=(3000, 2))\n"
        "path_integral_effort([Trajectory(positions=xy, dt=1.0)], g, 10.0, 'indicator')\n"
        "print(threading.active_count())\n"
        "cfg = config_from_dict({'grid': {'nx': 10, 'ny': 10}, 'study': {'n_trips': 4, "
        "'max_steps': 30}, 'replicates': 2})\n"
        "print(len(run_experiment(cfg, workers=2).records))\n"
    )
    assert _run(code).split() == ["1", "2"]
