"""Tests for the benchmark's own code.

    python3 -m pytest -q perfbench/tests
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import games
import run
import worker
from spans import NullTracer, Span, Tracer, self_times
from stats import median, percentile, quartile_spread, tail_percentile

BENCH = Path(__file__).resolve().parent.parent


def test_median_and_percentile():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    xs = [float(i) for i in range(1, 102)]  # 1..101
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 90) == 91.0
    assert percentile(xs, 100) == 101.0
    assert percentile([1.0, 2.0], 25) == 1.25
    with pytest.raises(ValueError):
        median([])
    with pytest.raises(ValueError):
        percentile(xs, 101)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile([1.0] * 10) is None
    for n in (11, 20, 57, 200):
        xs = [float(i) for i in range(n)]
        p, value = tail_percentile(xs)
        assert sum(x > value for x in xs) >= 10
        assert sum(x > percentile(xs, p + 1) for x in xs) < 10
    assert tail_percentile([float(i) for i in range(200)])[0] == 95


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([10.0] * 10) == 0.0
    spread = quartile_spread([float(x) for x in range(1, 11)])
    assert spread == pytest.approx((8.25 - 2.75) / 5.5)


def _clock(times):
    it = iter(times)
    return lambda: next(it)


def test_span_self_time_subtracts_children():
    tracer = Tracer(clock=_clock([0, 1, 3, 4, 5, 6, 8, 10]))
    with tracer.span("root", trace="t"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    root, a, b, c = tracer.spans
    assert (a.parent, b.parent, c.parent) == (root.id, root.id, b.id)
    assert {s.trace for s in tracer.spans} == {"t"}
    assert self_times(tracer.spans) == {root.id: 4, a.id: 2, b.id: 3, c.id: 1}


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, None, "t", "root", 0.0, 10.0),
             Span(1, 0, "t", "a", 1.0, 5.0),
             Span(2, 0, "t", "b", 4.0, 7.0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_root_span_needs_a_trace_id():
    with pytest.raises(ValueError):
        with Tracer().span("orphan"):
            pass


def test_benchmark_names_the_workloads_games_plays():
    names = [w["name"] for w in run.load_benchmark()["workloads"]]
    assert names == list(games.WORKLOADS)


def test_game_seeds_are_base_plus_offset():
    orc = games.game_specs("orc-game", 7)
    assert [(s.n, s.seed, s.istar) for s in orc] == [(3000, 7, 3), (1000, 8, 3), (440, 9, 2)]
    art = games.game_specs("artificial-game", 40)
    assert [(s.n, s.seed, s.istar) for s in art] == [(100, 40, 1), (49, 41, 1), (25, 42, 1)]
    assert all(s.kind == "artificial" for s in art)


@pytest.fixture(scope="module")
def small_games():
    spec = games.GameSpec("artificial", 25, 1, 5)
    other = games.GameSpec("artificial", 25, 1, 6)
    return [games.play_game(s, NullTracer()) for s in (spec, spec, other)]


def test_fingerprint_is_deterministic_per_seed(small_games):
    first, again, other = (games.fingerprint(g) for g in small_games)
    assert first == again
    assert first != other


def test_check_game_rejects_a_wrong_pin(small_games):
    game = small_games[0]
    digest, error = games.check_game(game, {})
    assert error is None
    assert games.check_game(game, {game.spec.key: digest})[1] is None
    assert "differs from pinned" in games.check_game(game, {game.spec.key: "0" * 16})[1]


def test_shadows_match_the_game_and_feed_every_layer():
    tracer = Tracer()
    game = games.play_game(games.GameSpec("artificial", 25, 1, 5), tracer)
    counts = games.shadow_layers(game, tracer)
    layers, absent = worker.batch_layers(tracer.spans, [counts])
    assert absent == {}
    assert set(run.units(run.load_benchmark(), "per_layer")) - {"trace.overhead_s"} <= set(layers)
    assert layers["cell_probe_sim.update_probes"] == 25
    assert layers["encoding_game.resolve_pool"] == 625
    assert layers["hard_queries.family_s"] > 0


def test_absent_counter_is_reported_not_raised(small_games):
    counts = games.shadow_layers(small_games[0], NullTracer())
    counts["cell_probe_sim.update_probes"] = None
    spans = [Span(0, None, "t", "chronogram.execute", 0.0, 1.0)]
    layers, absent = worker.batch_layers(spans, [counts])
    assert "cell_probe_sim.update_probes" in absent
    assert "cell_probe_sim.update_probes_per_s" in absent
    assert "cell_probe_sim.bytes_per_probe" in absent
    assert layers["chronogram.execute_s"] == 1.0
    assert games.probe_count(object()) is None


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "orc-game", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
