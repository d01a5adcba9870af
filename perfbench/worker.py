"""Play one workload's fixed batch in a fresh interpreter.

run.py starts this script once per sample and reads the JSON object it
prints as its last line. `--t0` is the parent's `time.monotonic()` just
before it started this process; CLOCK_MONOTONIC is system-wide, so
`setup_s` covers interpreter start-up, importing cplab and generating the
inputs, up to the first timed call.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import cplab  # noqa: E402
import games  # noqa: E402
from cplab import acceptance  # noqa: E402
from spans import NullTracer, Tracer, self_times  # noqa: E402

PINS = HERE / "fingerprints.json"


def _ratio(a, b):
    return None if a is None or b is None or b == 0 else a / b


def batch_layers(spans, counts: list[dict]) -> tuple[dict, dict]:
    """Per-layer values of one traced batch, and the absent ones with a reason."""
    layers: dict[str, float | None] = {}
    selfs = self_times(spans)
    for s in spans:
        if s.name == "shadow":
            continue
        name = "trace.uncovered_s" if s.name == "game" else f"{s.name}_s"
        layers[name] = layers.get(name, 0.0) + selfs[s.id]
    absent = {}
    # Counts are summed over the batch; ratios are taken from the sums.
    for name in sorted({k for c in counts for k in c}):
        values = [c[name] for c in counts]
        if any(v is None for v in values):
            absent[name] = "its public source (the memory's probe log) is gone"
            layers[name] = None
        else:
            layers[name] = sum(values)
    get = layers.get
    layers["cell_probe_sim.update_probes_per_s"] = _ratio(
        get("cell_probe_sim.update_probes"), get("chronogram.execute_s"))
    layers["cell_probe_sim.bytes_per_probe"] = _ratio(
        get("cell_probe_sim.alloc_bytes"), get("cell_probe_sim.update_probes"))
    layers["encoding_game.resolve_probes_per_s"] = _ratio(
        get("encoding_game.resolve_query_probes"), get("encoding_game.resolve_s"))
    layers["encoding_game.resolve_yield"] = _ratio(
        get("encoding_game.resolved_queries"), get("encoding_game.resolve_pool"))
    if None not in (get("encoding_game.decode_s"), get("encoding_game.decode_prefix_s"),
                    get("finite_field.prime_check_s")):
        # Derived, not measured: decode minus its prefix re-execution and
        # its prime check leaves query replay plus the linear solve.
        layers["encoding_game.decode_replay_solve_s"] = (
            layers["encoding_game.decode_s"]
            - layers["encoding_game.decode_prefix_s"]
            - layers["finite_field.prime_check_s"]
        )
    for name, value in layers.items():
        if value is None and name not in absent:
            absent[name] = "derived from an absent or zero count"
    return {k: v for k, v in layers.items() if v is not None}, absent


def play_games(specs, pins, tracer, traced: bool):
    """Play each game; returns the op records and, when traced, the
    shadow counts of each game."""
    ops, counts = [], []
    for spec in specs:
        t0 = time.perf_counter()
        try:
            game = games.play_game(spec, tracer)
        except Exception:
            wall = time.perf_counter() - t0
            traceback.print_exc()
            ops.append({"key": spec.key, "wall_s": wall, "error": "game raised", "fingerprint": None})
            continue
        wall = time.perf_counter() - t0
        digest, error = games.check_game(game, pins)
        if traced and error is None:
            try:
                counts.append(games.shadow_layers(game, tracer))
            except games.ShadowMismatch as exc:
                error = f"shadow mismatch: {exc}"
        ops.append({"key": spec.key, "wall_s": wall, "error": error, "fingerprint": digest})
        del game
    return ops, counts


def run_criteria(tracer):
    suite = acceptance.AcceptanceSuite()
    ops = []
    for method, _group in acceptance.CRITERIA:
        t0 = time.perf_counter()
        try:
            with tracer.span(f"acceptance.{method}", trace=method):
                result = getattr(suite, method)()
            name, error = result.name, None if result.passed else result.line()
        except Exception:
            traceback.print_exc()
            name, error = method, "criterion raised"
        ops.append({"key": name, "wall_s": time.perf_counter() - t0, "error": error})
    return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=games.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)
    if not Path(cplab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"cplab imported from {cplab.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    tracer = Tracer() if traced else NullTracer()
    if args.workload == "acceptance":
        specs = games.acceptance_probe_games() if traced else []
    else:
        specs = games.game_specs(args.workload, args.seed)
    pins = json.loads(PINS.read_text())
    setup_s = time.monotonic() - args.t0

    probe_ops: list[dict] = []
    if args.workload == "acceptance":
        ops = run_criteria(tracer)
        probe_ops, counts = play_games(specs, pins, tracer, traced)
    else:
        ops, counts = play_games(specs, pins, tracer, traced)

    out = {
        "setup_s": setup_s,
        "wall_s": sum(op["wall_s"] for op in ops),
        "first_op_s": ops[0]["wall_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
        "probe_ops": probe_ops,
        "traced": traced,
    }
    if traced:
        out["layers"], out["absent"] = batch_layers(tracer.spans, counts)
        out["spans"] = tracer.export()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
