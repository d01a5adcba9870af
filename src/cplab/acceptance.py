"""The acceptance suite: one callable per criterion, shared by the CLI
subcommand and the pytest module.

The headline asymptotic bounds are not reproducible at desk scale, so
every criterion here checks constructive content: exact identities,
exhaustive or Monte Carlo property sweeps at pinned tolerances, and
end-to-end recovery of epoch weights through the encoding game.

Criteria that loop over independently seeded trials (2, 4, 6, 7, 10 and
11) hand each trial to a module-level function run in a spawn process
pool, one worker per usable CPU, and aggregate the results in seed
order, so every line is the same as a serial run's. The pool starts on
the first pooled criterion and lives until `AcceptanceSuite.close()`.
A script that runs the suite must guard its entry point with
`if __name__ == "__main__":`, because spawned workers import the main
module.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

from . import chronogram, encoding_game, fibonacci_lattice, grid_analysis
from .finite_field import ff_rank, ff_solve, field_modulus, largest_prime_below, mat_vec
from .hard_queries import (
    QueryFamilyParams,
    build_query_family,
    check_suffix_independence,
    subset_bound,
)
from .cell_probe_sim import MemoryConfig, SimulatedMemory
from .structures import OrcInstance, PrefixSumRangeStructure
from .rng import substream


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.number} ({self.name}): {self.detail}"


# -- one trial of each pooled criterion -----------------------------
# Module-level, so a spawn worker finds each one by its import path.


def _family_trial(seed: int) -> tuple[int, int]:
    """Criterion 2, one family seed: (subsets checked, violations)."""
    n = 16
    family = build_query_family(
        QueryFamilyParams(
            n=n, modulus=field_modulus(n), independence_constant=2.0, seed=seed
        )
    )
    checks = violations = 0
    for k in (8, 16):
        size = subset_bound(k, 2.0)
        report = check_suffix_independence(
            family, k=k, subset_size=size, trials=1000, seed=seed * 100 + k
        )
        checks += report.trials
        violations += report.violations
    return checks, violations


def _oracle_trial(seed: int) -> tuple[int, int]:
    """Criterion 4, one seed: (mismatches, probe-bound violations)."""
    n = 64
    delta = field_modulus(n)
    rng = substream(seed, "oracle-workload")
    w = chronogram.default_run_cell_width("orc", n, delta, 500)
    memory = SimulatedMemory(MemoryConfig(w=w))
    structure = PrefixSumRangeStructure(n, delta, memory, capacity=500)
    reference = OrcInstance(n=n)
    mismatches = probe_violations = 0
    for op in range(500):
        x, y = rng.randrange(n), rng.randrange(n)
        weight = rng.randrange(delta.value)
        before = memory.probes
        structure.update((x, y), weight)
        if memory.probes - before > structure.declared_update_probes:
            probe_violations += 1
        reference.insert(x, y, weight)
    queries = [(rng.randrange(n), rng.randrange(n)) for _ in range(500)]
    for q, (got, addresses) in zip(queries, chronogram.replay_queries(structure, queries)):
        if len(addresses) > structure.declared_query_probes:
            probe_violations += 1
        if got != reference.answer(q):
            mismatches += 1
    return mismatches, probe_violations


def _artificial_game_trial(
    seed: int, fault: str | None
) -> tuple[bool, int, bool, encoding_game.EncodingMessage, float]:
    """Criterion 6, one game: (recovered, flag, fell back, message, H)."""
    istar = 2
    run = chronogram.run_hard_distribution("artificial", 25, 5, seed=seed)
    fallback = False
    try:
        resolved = encoding_game.find_resolved_set(
            run, istar, cell_budget=16, probe_threshold=12, max_tries=8, seed=seed
        )
    except encoding_game.ResolvedSetNotFound:
        resolved = None
        fallback = True
    # odd seeds force the raw path through the average-cost test
    expected_t = 1e-9 if seed % 2 else None
    message = encoding_game.encode_epoch(run, istar, resolved, expected_t=expected_t)
    if fault == "corrupt-message" and seed == 0:
        section = message.sections[0]
        corrupted = encoding_game.Section(
            section.label, section.bit_length, section.payload ^ 1
        )
        message.sections = (corrupted,) + message.sections[1:]
    recovered = False
    try:
        result = encoding_game.decode_epoch(
            message, run.updates.prefix_above(istar), run.structure_factory,
            verify_run=run,
        )
        recovered = result.u_istar == run.updates.u(istar)
    except (encoding_game.DecodingIntegrityError, ValueError, KeyError):
        pass  # counted as a failed recovery
    account = encoding_game.entropy_account(run.run_schedule, istar, run.delta, message)
    return recovered, message.flag, fallback, message, account.h_bits


def _orc_game_trial(seed: int) -> tuple[bool, bool]:
    """Criterion 7, one game: (recovered, fell back)."""
    run = chronogram.run_hard_distribution("orc", 440, 5, seed=seed)
    istar = run.run_schedule.count - 1  # second-largest epoch
    fallback = False
    try:
        resolved = encoding_game.find_resolved_set(
            run, istar, probe_threshold=8, max_tries=8, seed=seed
        )
    except encoding_game.ResolvedSetNotFound:
        resolved = None
        fallback = True
    message = encoding_game.encode_epoch(run, istar, resolved)
    result = encoding_game.decode_epoch(
        message, run.updates.prefix_above(istar), run.structure_factory,
        verify_run=run,  # raises on any epoch-istar probe outside C
    )
    return result.u_istar == run.updates.u(istar), fallback


def _decomposition_trial(seed: int) -> tuple[int, int]:
    """Criterion 10, one seeded run: (mismatches, queries checked)."""
    run = chronogram.run_hard_distribution("orc", 440, 5, seed=seed)
    reference = OrcInstance(n=run.n)
    for e in run.updates.epochs:
        for (x, y), weight in zip(e.targets, e.weights):
            reference.insert(x, y, weight)
    rng = substream(seed, "decomposition-queries")
    mismatches = checked = 0
    for _ in range(2000):
        q = (rng.randrange(run.n), rng.randrange(run.n))
        total = 0
        for i in run.run_schedule.epoch_ids():
            inc = fibonacci_lattice.dominance_incidence(run.epoch_points[i], q)
            total += sum(w for b, w in zip(inc, run.updates.u(i)) if b)
        checked += 1
        if total != reference.answer(q):
            mismatches += 1
    return mismatches, checked


def _separation_trial(baseline: grid_analysis.WellSeparatedBaseline) -> float:
    """Criterion 11, one baseline: the measured frequency."""
    return grid_analysis.well_separated_frequency(
        baseline.n, baseline.beta, baseline.epoch_size, trials=4000, seed_base=0
    )


class AcceptanceSuite:
    """Runs the numbered criteria; shares expensive state between the
    encoder-identity criterion and the information-floor criterion.

    The pooled criteria share one spawn process pool, started on first
    use; `close()` (or leaving a `with` block) shuts it down. A suite
    that is dropped unclosed, or still open at interpreter exit, has
    its workers joined by `concurrent.futures` itself.
    """

    def __init__(self, fault: str | None = None):
        self.fault = fault
        self._artificial_game: dict | None = None
        self._pool = None

    def __enter__(self) -> AcceptanceSuite:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down and wait for its workers. Safe to call
        twice; a pooled criterion run after it starts a new pool."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _map(self, trial: Callable, *args) -> list:
        """`list(map(trial, *args))`, with the calls run in the pool."""
        if self._pool is None:
            # imported here: the import alone costs every caller of this
            # module start-up time, and most never start a pool
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=len(os.sched_getaffinity(0)),
                mp_context=multiprocessing.get_context("spawn"),
            )
        return list(self._pool.map(trial, *args))

    # -- criterion 1 -------------------------------------------------
    # runs in-process: it is the first criterion, and starting the pool
    # here would add the pool's start-up to its time
    def fibonacci_area_bounds(self) -> CriterionResult:
        details = []
        ok = True
        for m in (13, 21, 34, 55, 89):
            sweep = fibonacci_lattice.check_all_lattice_rectangles(m, 8 * m, slack=1)
            ok = ok and sweep.violations == 0
            details.append(f"m={m}: {sweep.violations}/{sweep.rectangles} violations")
        return CriterionResult(1, "fibonacci-area-bounds", ok, "; ".join(details))

    # -- criterion 2 -------------------------------------------------
    def query_family_independence(self) -> CriterionResult:
        checks, violations = map(sum, zip(*self._map(_family_trial, range(1, 6))))
        return CriterionResult(
            2,
            "query-family-suffix-independence",
            violations == 0,
            f"{violations} violations over {checks} sampled subsets (5 seeds, k in {{8,16}})",
        )

    # -- criterion 3 -------------------------------------------------
    # runs in-process: one RNG stream draws all 1000 systems in order
    def finite_field_round_trip(self) -> CriterionResult:
        delta = largest_prime_below(10**4)
        rng = substream(3, "field-round-trip")
        failures = 0
        for _ in range(1000):
            dim = rng.randint(1, 12)
            while True:
                A = [[rng.randrange(delta.value) for _ in range(dim)] for _ in range(dim)]
                if ff_rank(delta, A) == dim:
                    break
            y = tuple(rng.randrange(delta.value) for _ in range(dim))
            if ff_solve(delta, A, mat_vec(delta, A, y)) != y:
                failures += 1
        return CriterionResult(
            3,
            "finite-field-round-trip",
            failures == 0,
            f"{failures} failures over 1000 random full-rank systems mod {delta.value}",
        )

    # -- criterion 4 -------------------------------------------------
    def oracle_equivalence(self) -> CriterionResult:
        mismatches, probe_violations = map(sum, zip(*self._map(_oracle_trial, range(10))))
        return CriterionResult(
            4,
            "oracle-equivalence",
            mismatches == 0 and probe_violations == 0,
            f"{mismatches} mismatches, {probe_violations} probe-bound violations "
            f"over 10 seeds x (500 inserts + 500 queries), n=64",
        )

    # -- criterion 5 -------------------------------------------------
    # runs in-process, as do 8 and 9: too little work to repay dispatch
    def chronogram_exactness(self) -> CriterionResult:
        bad_counts = 0
        bad_totals = 0
        for seed in range(5):
            run = chronogram.run_hard_distribution("artificial", 25, 5, seed=seed)
            rng = substream(seed, "profile-sample")
            sample = rng.sample(range(len(run.family.vectors)), 100)
            profile = chronogram.epoch_probe_profile(run, sample)
            for idx, j in enumerate(sample):
                expected = chronogram.analytic_epoch_counts(run, j)
                measured = {
                    i: profile.t(idx, i) for i in run.run_schedule.epoch_ids()
                }
                if measured != expected:
                    bad_counts += 1
                if profile.totals[idx] != sum(measured.values()):
                    bad_totals += 1
        return CriterionResult(
            5,
            "chronogram-exactness",
            bad_counts == 0 and bad_totals == 0,
            f"{bad_counts} profile mismatches, {bad_totals} total mismatches "
            f"over 5 seeds x 100 queries (n=25, beta=5)",
        )

    # -- criteria 6 and 8 share the generated messages ----------------
    def _run_artificial_game(self) -> dict:
        if self._artificial_game is not None:
            return self._artificial_game
        trials = 100
        outcomes = self._map(_artificial_game_trial, range(trials), repeat(self.fault))
        recovered, flags, fallbacks, messages, h_bits = zip(*outcomes)
        self._artificial_game = {
            "recovered": sum(recovered),
            "trials": trials,
            "flags": {flag: flags.count(flag) for flag in (0, 1)},
            "fallbacks": sum(fallbacks),
            "messages": list(messages),
            "h_bits": h_bits[-1],
        }
        return self._artificial_game

    def encode_decode_artificial(self) -> CriterionResult:
        game = self._run_artificial_game()
        ok = (
            game["recovered"] == game["trials"]
            and game["flags"][0] > 0
            and game["flags"][1] > 0
        )
        return CriterionResult(
            6,
            "encode-decode-artificial",
            ok,
            f"{game['recovered']}/{game['trials']} exact recoveries "
            f"(flag0={game['flags'][0]}, flag1={game['flags'][1]}, "
            f"fallbacks={game['fallbacks']}; n=25, beta=5, istar=2)",
        )

    # -- criterion 7 -------------------------------------------------
    def encode_decode_orc(self) -> CriterionResult:
        trials = 25
        recovered, fallbacks = map(sum, zip(*self._map(_orc_game_trial, range(trials))))
        return CriterionResult(
            7,
            "encode-decode-orc",
            recovered == trials,
            f"{recovered}/{trials} exact recoveries with replay integrity "
            f"(n=440, beta=5, snapped epochs, fallbacks={fallbacks})",
        )

    # -- criterion 8 -------------------------------------------------
    def information_floor(self) -> CriterionResult:
        game = self._run_artificial_game()
        h = game["h_bits"]
        mean_bits = sum(m.total_bits for m in game["messages"]) / len(game["messages"])
        flag1_ok = all(
            m.total_bits >= h for m in game["messages"] if m.flag == 1
        )
        ok = mean_bits >= 0.95 * h and flag1_ok
        return CriterionResult(
            8,
            "information-floor",
            ok,
            f"mean={mean_bits:.1f} bits vs 0.95*H={0.95 * h:.1f}; "
            f"all flag-1 messages >= H={h:.1f}: {flag1_ok}",
        )

    # -- criterion 9 -------------------------------------------------
    def crossing_out_independence(self) -> CriterionResult:
        n, beta, m = 440, 5, 55
        delta = field_modulus(n)
        points = fibonacci_lattice.scaled_lattice(fibonacci_lattice.LatticeSpec.create(m, n))
        grid = grid_analysis.build_grid_family(n, beta, m)[2]
        full_rank = 0
        bound_ok = 0
        trials = 100
        for seed in range(trials):
            sample = grid_analysis.sample_slab_queries(n, beta, seed, m)
            reps = grid_analysis.cell_representatives(sample, grid)
            result = grid_analysis.cross_out_extract(reps, grid)
            q = result.survivors
            if len(q) >= (result.initial - result.boundary_removed) / 16:
                bound_ok += 1
            if grid_analysis.survivor_rank(points, q, delta) == len(q):
                full_rank += 1
        return CriterionResult(
            9,
            "crossing-out-independence",
            full_rank == trials and bound_ok == trials,
            f"{full_rank}/{trials} full-rank survivor sets, "
            f"{bound_ok}/{trials} size bounds (epoch size 55, n=440)",
        )

    # -- criterion 10 ------------------------------------------------
    def answer_decomposition(self) -> CriterionResult:
        mismatches, checked = map(sum, zip(*self._map(_decomposition_trial, range(5))))
        return CriterionResult(
            10,
            "answer-decomposition",
            mismatches == 0,
            f"{mismatches} mismatches over {checked} random queries (5 seeded runs, n=440)",
        )

    # -- criterion 11 ------------------------------------------------
    def well_separated_frequency(self) -> CriterionResult:
        baselines = grid_analysis.WELL_SEPARATED_BASELINES
        details = []
        ok = True
        for baseline, freq in zip(baselines, self._map(_separation_trial, baselines)):
            within = abs(freq - baseline.frequency) <= 0.05
            ok = ok and within
            details.append(
                f"n={baseline.n},beta={baseline.beta:g},m={baseline.epoch_size}: "
                f"{freq:.3f} vs oracle {baseline.frequency:.3f}"
            )
        return CriterionResult(
            11,
            "well-separated-frequency",
            ok,
            "; ".join(details) + " (3/4 reported, not asserted)",
        )


CRITERIA: tuple[tuple[str, str], ...] = (
    ("fibonacci_area_bounds", "lattice"),
    ("query_family_independence", "family"),
    ("finite_field_round_trip", "field"),
    ("oracle_equivalence", "oracle"),
    ("chronogram_exactness", "chronogram"),
    ("encode_decode_artificial", "encode"),
    ("encode_decode_orc", "encode"),
    ("information_floor", "floor"),
    ("crossing_out_independence", "grid"),
    ("answer_decomposition", "decomposition"),
    ("well_separated_frequency", "separated"),
)


def run_acceptance(
    only: str | None = None, fault: str | None = None
) -> list[CriterionResult]:
    results = []
    with AcceptanceSuite(fault=fault) as suite:
        for method, group in CRITERIA:
            if only is not None and only not in (group, method):
                continue
            result: CriterionResult = getattr(suite, method)()
            results.append(result)
            print(result.line())
    return results
