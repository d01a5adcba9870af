"""Lifetime of the acceptance suite's trial pool: every way out of a
suite leaves no worker process behind, and a suite queues the trials of
its plan and no others.

These tests live apart from tests/test_acceptance.py, whose module-wide
suite keeps its pool open until that module ends; here no other pool is
alive, so "no worker left" means `active_children()` is empty. Each
suite that runs one criterion plans only that criterion (`only=`), so it
does not queue the other criteria's trials. Every wait runs under a
timeout."""

import gc
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from cplab.acceptance import AcceptanceSuite, run_acceptance

from test_acceptance import EXPECTED_LINES

TIMEOUT_S = 120.0
SRC = Path(__file__).resolve().parent.parent / "src"


def _within(seconds, fn):
    """Return fn(), run in a thread; fail if it has not returned in time."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised in the test's thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


def _wait_for_no_children(seconds):
    deadline = time.monotonic() + seconds
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    return multiprocessing.active_children()


@pytest.fixture
def queued(monkeypatch):
    """Every trial the pool is handed, as (trial name, future), in order."""
    calls = []
    submit = ProcessPoolExecutor.submit

    def recording_submit(self, fn, /, *args, **kwargs):
        future = submit(self, fn, *args, **kwargs)
        calls.append((fn.__name__, future))
        return future

    monkeypatch.setattr(ProcessPoolExecutor, "submit", recording_submit)
    return calls


def test_run_acceptance_closes_its_pool(capsys):
    results = _within(TIMEOUT_S, lambda: run_acceptance(only="encode"))
    assert [r.number for r in results] == [6, 7]
    assert capsys.readouterr().out.splitlines() == [EXPECTED_LINES[6], EXPECTED_LINES[7]]
    assert multiprocessing.active_children() == []


def test_with_block_closes_the_pool():
    def body():
        with AcceptanceSuite(only="separated") as suite:
            result = suite.well_separated_frequency()
            workers = multiprocessing.active_children()
        return result, workers

    result, workers = _within(TIMEOUT_S, body)
    assert result.line() == EXPECTED_LINES[11]
    assert 1 <= len(workers) <= len(os.sched_getaffinity(0))
    assert multiprocessing.active_children() == []


def test_close_twice_then_run_again():
    suite = AcceptanceSuite(only="separated")
    suite.close()  # no pool yet

    def body():
        try:
            first = suite.well_separated_frequency()
            suite.close()
            suite.close()
            left = multiprocessing.active_children()
            second = suite.well_separated_frequency()  # starts a new pool
        finally:
            suite.close()
        return first, left, second

    first, left, second = _within(TIMEOUT_S, body)
    assert left == []
    assert first.line() == second.line() == EXPECTED_LINES[11]
    assert multiprocessing.active_children() == []


def test_dropped_suite_stops_its_workers():
    def body():
        suite = AcceptanceSuite(only="oracle")
        suite.oracle_equivalence()
        return [p.pid for p in multiprocessing.active_children()]

    assert _within(TIMEOUT_S, body)
    gc.collect()
    assert _wait_for_no_children(TIMEOUT_S) == []


def test_interpreter_exit_stops_an_unclosed_pool():
    # the suite is never closed, as in a script that just returns
    script = (
        "import multiprocessing\n"
        "from cplab.acceptance import AcceptanceSuite\n"
        "suite = AcceptanceSuite(only='separated')\n"
        "assert suite.well_separated_frequency().passed\n"
        "print(*(p.pid for p in multiprocessing.active_children()))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    assert done.returncode == 0, done.stderr
    pids = [int(pid) for pid in done.stdout.split()]
    assert pids
    for pid in pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        raise AssertionError(f"worker {pid} outlived its interpreter")


def test_plan_of_one_criterion_queues_only_its_trials(queued):
    def body():
        with AcceptanceSuite(only="family") as suite:
            return suite.query_family_independence()

    assert _within(TIMEOUT_S, body).line() == EXPECTED_LINES[2]
    assert [name for name, _ in queued] == ["_family_trial"] * 5


def test_run_acceptance_queues_only_its_plans_trials(queued, capsys):
    results = _within(TIMEOUT_S, lambda: run_acceptance(only="encode"))
    assert [r.number for r in results] == [6, 7]
    assert [name for name, _ in queued] == (
        ["_artificial_game_trial"] * 100 + ["_orc_game_trial"] * 25
    )


def test_criterion_outside_the_plan_queues_its_trials_on_demand(queued):
    def body():
        with AcceptanceSuite(only="lattice") as suite:
            return suite.well_separated_frequency()

    assert _within(TIMEOUT_S, body).line() == EXPECTED_LINES[11]
    assert [name for name, _ in queued] == ["_separation_trial"] * 3


def test_close_cancels_the_queued_trials(queued):
    # a full plan queues every pooled criterion's trials when criterion 2
    # starts the pool; closing then must not run the rest of the queue
    def body():
        suite = AcceptanceSuite()
        try:
            result = suite.query_family_independence()
        finally:
            suite.close()
        return result

    assert _within(TIMEOUT_S, body).line() == EXPECTED_LINES[2]
    assert [name for name, _ in queued] == (
        ["_family_trial"] * 5
        + ["_oracle_trial"] * 10
        + ["_artificial_game_trial"] * 100
        + ["_orc_game_trial"] * 25
        + ["_decomposition_trial"] * 5
        + ["_separation_trial"] * 3
    )
    assert sum(future.cancelled() for _, future in queued) > 100
    assert multiprocessing.active_children() == []
