"""The benchmark's workloads, played through cplab's public API.

A game is one encoder/decoder round: run the hard distribution, find a
resolved cell set, encode, serialize, parse, decode with the replay
integrity check, then check exact recovery and the game's fingerprint.
The traced run adds "shadow" calls that repeat one sub-phase of the
game on the same inputs, so the benchmark can time layers that the game
reaches only inside other calls. Every shadow is checked against the
run it shadows before its time is used.
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from dataclasses import dataclass

from cplab import chronogram, encoding_game
from cplab.cell_probe_sim import MemoryConfig, SimulatedMemory
from cplab.fibonacci_lattice import LatticeSpec, scaled_lattice
from cplab.finite_field import PrimeModulus, largest_prime_below
from cplab.hard_queries import build_query_family

BETA = 5
WORKLOADS = ("orc-game", "artificial-game", "acceptance")

# Largest size first, so the first game in a fresh process is the costliest.
GAME_SIZES = {"orc-game": ("orc", (3000, 1000, 440)), "artificial-game": ("artificial", (100, 49, 25))}

# Resolve overrides pinned by the acceptance criteria: criterion 7 for the
# dominance game, criteria 6 and 8 for the index-weight game. With the
# default threshold lg_beta(n)/4 < 1, index-weight games at n >= 64 never
# reach flag 0 and would time only the raw path.
OVERRIDES = {
    "orc": {"cell_budget": None, "probe_threshold": 8, "max_tries": 8},
    "artificial": {"cell_budget": 16, "probe_threshold": 12, "max_tries": 8},
}


class ShadowMismatch(AssertionError):
    """A shadow call did different work from the call it shadows."""


@dataclass(frozen=True)
class GameSpec:
    kind: str
    n: int
    istar: int
    seed: int
    beta: int = BETA

    @property
    def key(self) -> str:
        o = OVERRIDES[self.kind]
        return (
            f"{self.kind} n={self.n} beta={self.beta} istar={self.istar} seed={self.seed} "
            f"budget={o['cell_budget']} threshold={o['probe_threshold']} tries={o['max_tries']}"
        )


def second_largest_epoch(kind: str, n: int, beta: int = BETA) -> int:
    """istar = count - 1 of the executed schedule (snapped for orc runs)."""
    schedule = chronogram.epoch_schedule(n, beta)
    if kind == "orc":
        schedule = schedule.snap_to_fibonacci()
    return schedule.count - 1


def game_specs(workload: str, base_seed: int) -> list[GameSpec]:
    """The fixed batch of a game workload; game k plays seed base_seed + k."""
    kind, sizes = GAME_SIZES[workload]
    return [
        GameSpec(kind, n, second_largest_epoch(kind, n), base_seed + k)
        for k, n in enumerate(sizes)
    ]


def acceptance_probe_games() -> list[GameSpec]:
    """The first games criteria 6 and 7 play (seed 0). The traced
    acceptance run replays them to measure layers on its own inputs."""
    return [
        GameSpec("artificial", 25, 2, 0),
        GameSpec("orc", 440, second_largest_epoch("orc", 440), 0),
    ]


def probe_count(memory) -> int | None:
    """Probes logged by a memory so far, or None when the trace is gone."""
    try:
        return len(memory.trace)
    except (AttributeError, TypeError):
        return None


@dataclass
class Game:
    spec: GameSpec
    run: chronogram.RunRecord
    resolved: encoding_game.ResolvedSet | None
    message: encoding_game.EncodingMessage  # as parsed by the decoder
    prefix: chronogram.UpdateSequence
    result: encoding_game.DecodeResult
    resolve_probes: int | None


def play_game(spec: GameSpec, tracer) -> Game:
    o = OVERRIDES[spec.kind]
    with tracer.span("game", trace=spec.key):
        with tracer.span("chronogram.run"):
            run = chronogram.run_hard_distribution(spec.kind, spec.n, spec.beta, seed=spec.seed)
        before = probe_count(run.memory)
        with tracer.span("encoding_game.resolve"):
            try:
                resolved = encoding_game.find_resolved_set(run, spec.istar, seed=spec.seed, **o)
            except encoding_game.ResolvedSetNotFound:
                resolved = None
        after = probe_count(run.memory)
        with tracer.span("encoding_game.encode"):
            message = encoding_game.encode_epoch(run, spec.istar, resolved)
        with tracer.span("encoding_game.serialize"):
            data = message.to_bytes()
        with tracer.span("encoding_game.parse"):
            received = encoding_game.EncodingMessage.from_bytes(data)
        prefix = run.updates.prefix_above(spec.istar)
        with tracer.span("encoding_game.decode"):
            result = encoding_game.decode_epoch(
                received, prefix, run.structure_factory, verify_run=run
            )
    probes = None if before is None or after is None else after - before
    return Game(spec, run, resolved, received, prefix, result, probes)


def fingerprint(game: Game) -> str:
    """Digest of what the game decided, independent of message framing
    bytes and of the probe log's layout: the flag, every section's label,
    bit length and payload, total bits, the recovered weights and |S_i|
    for each epoch."""
    message, run = game.message, game.run
    doc = {
        "flag": message.flag,
        "sections": [[s.label, s.bit_length, format(s.payload, "x")] for s in message.sections],
        "total_bits": message.total_bits,
        "u_istar": list(game.result.u_istar),
        "epoch_cells": {
            str(i): len(run.cells_of_epoch(i)) for i in run.run_schedule.epoch_ids()
        },
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def check_game(game: Game, pins: dict[str, str]) -> tuple[str, str | None]:
    """(fingerprint, error); error is None when the game recovered
    exactly and its fingerprint matches the pinned one, if pinned."""
    digest = fingerprint(game)
    if game.result.u_istar != game.run.updates.u(game.spec.istar):
        return digest, "recovered weights differ"
    pinned = pins.get(game.spec.key)
    if pinned is not None and pinned != digest:
        return digest, f"fingerprint {digest} differs from pinned {pinned}"
    return digest, None


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise ShadowMismatch(what)


def _fresh(run: chronogram.RunRecord):
    memory = SimulatedMemory(MemoryConfig(w=run.w))
    return memory, run.structure_factory(memory)


def shadow_layers(game: Game, tracer) -> dict:
    """Time sub-phases by repeating them on the game's inputs; return
    the counts that go with them. Raises ShadowMismatch when a shadow
    did different work from the game."""
    spec, run = game.spec, game.run
    epochs = list(run.run_schedule.epoch_ids())
    with tracer.span("shadow", trace=spec.key):
        with tracer.span("finite_field.modulus"):
            delta = largest_prime_below(spec.n**4)
        _require(delta == run.delta, "modulus differs from the run's delta")
        with tracer.span("finite_field.prime_check"):
            checked = PrimeModulus(run.delta.value)
        _require(checked == run.delta, "prime check rebuilt another modulus")

        if run.epoch_points is not None:
            with tracer.span("fibonacci_lattice.lattice"):
                lattices = {
                    i: scaled_lattice(LatticeSpec.create(run.run_schedule.size_of(i), spec.n))
                    for i in epochs
                }
            _require(lattices == run.epoch_points, "lattices differ from the run's")
        if run.family is not None:
            with tracer.span("hard_queries.family"):
                family = build_query_family(run.family.params)
            _require(family.vectors == run.family.vectors, "family differs from the run's")

        memory, structure = _fresh(run)
        with tracer.span("chronogram.execute"):
            chronogram.execute_epochs(structure, memory, run.updates)
        _require(
            all(memory.cells_of_epoch(i) == run.cells_of_epoch(i) for i in epochs),
            "re-executed epoch cell sets differ from the run's",
        )
        update_probes = probe_count(memory)
        cells_written = len(memory.written_addresses())
        del memory, structure

        prefix_memory, structure = _fresh(run)
        with tracer.span("encoding_game.decode_prefix"):
            chronogram.execute_epochs(structure, prefix_memory, game.prefix)
        prefix_ids = {e.epoch for e in game.prefix.epochs}
        _require(
            prefix_ids == {i for i in epochs if i > spec.istar}
            and set(prefix_memory.epoch_partition()) <= prefix_ids
            and all(run.cells_of_epoch(i) <= prefix_memory.cells_of_epoch(i) for i in prefix_ids),
            "prefix re-execution differs from the decoder's prefix",
        )
        del prefix_memory, structure

    # Bytes held per probe by a fresh memory after the updates; tracemalloc
    # slows allocation, so this repeat is kept out of every timed span.
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        memory, structure = _fresh(run)
        chronogram.execute_epochs(structure, memory, run.updates)
        alloc_bytes = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    del memory, structure

    account = encoding_game.entropy_account(run.run_schedule, spec.istar, run.delta, game.message)
    resolved = game.resolved
    return {
        "cell_probe_sim.update_probes": update_probes,
        "cell_probe_sim.cells_written": cells_written,
        "cell_probe_sim.alloc_bytes": alloc_bytes,
        "encoding_game.resolve_query_probes": game.resolve_probes,
        "encoding_game.resolve_pool": resolved.sample_size if resolved else 0,
        "encoding_game.resolve_tries": resolved.tries_used if resolved else 0,
        "encoding_game.resolved_queries": len(resolved.queries) if resolved else 0,
        "encoding_game.flag0_games": int(game.message.flag == 0),
        "encoding_game.message_bits": game.message.total_bits,
        "encoding_game.entropy_slack_bits": account.slack,
        "encoding_game.queries_replayed": game.result.queries_replayed,
        "encoding_game.independent_rows": game.result.independent_rows,
    }
