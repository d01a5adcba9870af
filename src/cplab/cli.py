"""Experiment runner CLI.

Subcommands: lattice, family, chronogram, encode, grid, acceptance.
Every run writes a JSON manifest echoing the resolved configuration
(enough to reproduce the run bit for bit) next to its CSV artifacts.
Options can come from a flat key=value config file via --config; its
values are parsed as flags placed before the command line's own, so
they meet the same checks and flags override them. Each subcommand
takes only the options it reads. Exit codes: 0 ok, 1 invariant failure,
2 usage.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import platform
import sys
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, TypeVar

from . import __version__, chronogram, encoding_game, fibonacci_lattice, grid_analysis
from .acceptance import run_acceptance
from .finite_field import field_modulus
from .hard_queries import (
    FamilyConstructionError,
    QueryFamilyParams,
    build_query_family,
    check_suffix_independence,
    subset_bound,
    write_family,
)
from .rng import substream

T = TypeVar("T")


class InvariantFailure(Exception):
    """A named run invariant did not hold; the run exits with status 1."""


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _outdir(args: argparse.Namespace) -> Path:
    out = Path(args.out if args.out else "cplab_out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(outdir: Path, name: str, config: dict, artifacts: list[str], extra: dict) -> Path:
    manifest = {
        "command": name,
        "config": config,
        "artifacts": artifacts,
        "versions": {"cplab": __version__, "python": platform.python_version()},
    }
    manifest.update(extra)
    path = outdir / f"{name}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _write_csv(outdir: Path, name: str, header: list[str], rows: Iterable) -> Path:
    path = outdir / name
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _require(args: argparse.Namespace, parser: argparse.ArgumentParser, *keys: str) -> None:
    for key in keys:
        if getattr(args, key) is None:
            parser.error(f"--{key.replace('_', '-')} is required")


def _checked(parser: argparse.ArgumentParser, flag: str, build: Callable[..., T], *values) -> T:
    # a value the builder refuses (an --n without a field, a non-Fibonacci
    # --m, a --beta above n/2) is a usage error (exit 2), not a traceback
    try:
        return build(*values)
    except ValueError as exc:
        parser.error(f"{flag}: {exc}")


def _finite(
    convert: Callable[[str], T], what: str, accept: Callable[[T], bool]
) -> Callable[[str], T]:
    """argparse type of a finite number that `accept` takes; NaN is
    refused, since every comparison with it is false."""
    def parse(text: str) -> T:
        try:
            value = convert(text)
        except ValueError:
            value = math.nan  # reported below, without naming this function
        if not (accept(value) and value < math.inf):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


_positive_count = _finite(int, "a positive count", lambda v: v >= 1)


def _cmd_lattice(args, parser) -> int:
    _require(args, parser, "m")
    m = args.m
    n = args.n if args.n is not None else 8 * m
    spec = _checked(parser, "--m", fibonacci_lattice.LatticeSpec.create, m, n)
    outdir = _outdir(args)
    points = fibonacci_lattice.scaled_lattice(spec)
    points_path = outdir / "lattice_points.csv"
    with open(points_path, "w") as fh:
        fh.write("j,x,y\n")
        for j, (x, y) in enumerate(points):
            fh.write(f"{j},{x},{y}\n")
    sweep = fibonacci_lattice.check_all_lattice_rectangles(m, n)
    config = {"m": m, "n": n, "multiplier": spec.multiplier}
    _write_manifest(
        outdir, "lattice", config, [points_path.name],
        {"rectangles": sweep.rectangles, "violations": sweep.violations},
    )
    print(f"lattice m={m} n={n}: {sweep.violations}/{sweep.rectangles} rectangle violations")
    if sweep.violations:
        raise InvariantFailure("fibonacci-area-bounds: rectangle count outside bounds")
    return 0


def _cmd_family(args, parser) -> int:
    _require(args, parser, "n")
    n, seed, c = args.n, args.seed, args.c
    trials = args.trials if args.trials is not None else 200
    params = _checked(parser, "--n", QueryFamilyParams, n, c, seed)
    family = build_query_family(params)  # before _outdir: a stalled build makes no directory
    outdir = _outdir(args)
    family_path = outdir / "family.txt"
    with open(family_path, "w") as fh:
        write_family(family, fh)
    violations = checked = 0
    if subset_bound(n, c) >= 1:
        violations = check_suffix_independence(
            family, k=n, subset_size=subset_bound(n, c), trials=trials, seed=seed
        )
        checked = trials
    config = {"n": n, "c": c, "seed": seed, "delta": params.modulus.value, "trials": trials}
    _write_manifest(
        outdir, "family", config, [family_path.name],
        {"vectors": len(family.vectors), "violations": violations, "subsets_checked": checked},
    )
    print(f"family n={n}: {len(family.vectors)} vectors, {violations} violations in {checked} audits")
    if violations:
        raise InvariantFailure("query-family-suffix-independence: violation found")
    return 0


def _cmd_chronogram(args, parser) -> int:
    _require(args, parser, "n", "beta")
    structure = args.structure or "orc2d"
    kind = "artificial" if structure == "naive" else "orc"
    seed = args.seed
    sample_size = args.trials if args.trials is not None else 200
    _checked(parser, "--n", field_modulus, args.n)
    schedule = _checked(parser, "--beta", chronogram.epoch_schedule, args.n, args.beta)
    outdir = _outdir(args)
    run = chronogram.run_hard_distribution(kind, args.n, args.beta, seed=seed)
    rng = substream(seed, "cli-query-sample")
    if kind == "artificial":
        universe = len(run.family.vectors)
        queries = rng.sample(range(universe), min(sample_size, universe))
    else:
        queries = [(rng.randrange(run.n), rng.randrange(run.n)) for _ in range(sample_size)]
    counts, log = chronogram.epoch_probe_profile(run, queries)
    # per epoch, the mean and the max over the queries of t_i, the
    # distinct epoch-i cells a query probes
    rows = []
    for epoch in run.run_schedule.epoch_ids():
        t = [by_epoch.get(epoch, 0) for by_epoch in counts]
        rows.append([epoch, len(queries), sum(t) / len(queries), max(t)])
    mean_total = sum(row[2] for row in rows)
    profile_path = _write_csv(
        outdir, "chronogram_profile.csv", ["epoch", "queries_sampled", "mean_t_i", "max_t_i"], rows
    )
    # the run's update probes, then the profile's query probes
    trace_path = _write_csv(
        outdir, "chronogram_trace.csv", ["op_id", "kind", "address", "epoch_tag"],
        chain(run.memory.trace.rows(), log.rows()),
    )
    config = {
        "kind": kind, "structure": structure, "n": args.n, "beta": args.beta,
        "seed": seed, "w": run.w, "queries_sampled": len(queries),
    }
    _write_manifest(
        outdir, "chronogram", config, [profile_path.name, trace_path.name],
        {
            "delta": run.delta.value,
            "epoch_sizes": list(schedule.sizes),
            "snapped_sizes": list(run.run_schedule.sizes),
            "mean_total_probes": mean_total,
        },
    )
    print(
        f"chronogram {kind} n={args.n} beta={args.beta}: epochs {list(run.run_schedule.sizes)}, "
        f"mean total distinct probes {mean_total:.2f}"
    )
    return 0


def _cmd_encode(args, parser) -> int:
    _require(args, parser, "kind", "n", "beta", "istar")
    seed = args.seed
    _checked(parser, "--n", field_modulus, args.n)
    # snapping dominance epochs to Fibonacci sizes keeps their count
    count = _checked(parser, "--beta", chronogram.epoch_schedule, args.n, args.beta).count
    istar = args.istar
    if not 1 <= istar <= count:
        parser.error(f"--istar must be in [1, {count}]")
    outdir = _outdir(args)
    run = chronogram.run_hard_distribution(args.kind, args.n, args.beta, seed=seed)
    try:
        resolved = encoding_game.find_resolved_set(
            run, istar, cell_budget=args.cell_budget, probe_threshold=args.probe_threshold,
            max_tries=args.tries, seed=seed,
        )
    except encoding_game.ResolvedSetNotFound:
        resolved = None
    message = encoding_game.encode_epoch(run, istar, resolved)
    message_path = outdir / "encode_message.bin"
    data = message.to_bytes()
    message_path.write_bytes(data)
    # "recovery" covers the file: decode the bytes written, not the message object
    result = encoding_game.decode_epoch(
        encoding_game.EncodingMessage.from_bytes(data),
        run.updates.prefix_above(istar), run.structure_factory, verify_run=run,
    )
    exact = result.u_istar == run.updates.u(istar)
    account = encoding_game.entropy_account(run.run_schedule, istar, run.delta, message)
    config = {
        "kind": args.kind, "n": args.n, "beta": args.beta, "istar": istar,
        "seed": seed, "w": run.w, "cell_budget": args.cell_budget,
        "probe_threshold": args.probe_threshold,
    }
    _write_manifest(
        outdir, "encode", config, [message_path.name],
        {
            "delta": run.delta.value,
            "snapped_sizes": list(run.run_schedule.sizes),
            "flag": message.flag,
            "recovery": "exact" if exact else "failed",
            "message_bits": message.total_bits,
            "h_bits": account.h_bits,
            "slack_bits": account.slack,
            "sections": {s.label: s.bit_length for s in message.sections},
            "resolved": resolved is not None,
        },
    )
    print(
        f"encode {args.kind} istar={istar}: flag={message.flag}, "
        f"recovery={'exact' if exact else 'FAILED'}, "
        f"message={message.total_bits} bits vs H={account.h_bits:.1f}"
    )
    if not exact:
        raise InvariantFailure("encode-decode round trip: recovered weights differ")
    if account.slack < 0:
        raise InvariantFailure("entropy accounting: message shorter than the epoch entropy")
    return 0


def _cmd_grid(args, parser) -> int:
    _require(args, parser, "n", "beta", "m")
    n, beta, m, seed = args.n, args.beta, args.m, args.seed
    trials = args.trials if args.trials is not None else 100
    delta = _checked(parser, "--n", field_modulus, n)
    spec = _checked(parser, "--m", fibonacci_lattice.LatticeSpec.create, m, n)
    points = fibonacci_lattice.scaled_lattice(spec)
    grids = _checked(parser, "--m", grid_analysis.build_grid_family, n, beta, m)
    outdir = _outdir(args)
    grid = grids[2]
    threshold = grid_analysis.separation_area_threshold(n, beta, m)
    rows = []
    first_sample = None
    for t in range(trials):
        sample = grid_analysis.sample_slab_queries(n, beta, seed + t, m)
        if first_sample is None:
            first_sample = sample
        reps = grid_analysis.cell_representatives(sample, grid)
        survivors = grid_analysis.cross_out_extract(reps, grid).survivors
        rank = grid_analysis.survivor_rank(points, survivors, delta)
        separated = grid_analysis.well_separated_subset(sample, threshold)
        rows.append((t, len(survivors), rank, len(separated) / len(sample)))
    trials_path = _write_csv(
        outdir, "grid_trials.csv", ["trial", "|Q|", "rank", "well_separated_fraction"], rows
    )
    hitting_path = _write_csv(
        outdir, "grid_hitting.csv", ["grid_j", "mu", "gamma", "hitting_number"],
        (
            [j, float(g.width), float(g.height), grid_analysis.hitting_number(first_sample, g)]
            for j, g in grids.items()
        ),
    )
    config = {"n": n, "beta": beta, "m": m, "seed": seed, "trials": trials}
    _write_manifest(
        outdir, "grid", config, [trials_path.name, hitting_path.name],
        {
            "grids": {j: [float(g.width), float(g.height)] for j, g in grids.items()},
            "rounded": {j: g.rounded for j, g in grids.items()},
            "separation_threshold": threshold,
            "full_rank_trials": sum(1 for r in rows if r[1] == r[2]),
        },
    )
    bad = [r for r in rows if r[1] != r[2]]
    print(f"grid m={m} n={n}: {len(rows) - len(bad)}/{len(rows)} trials full rank")
    if bad:
        raise InvariantFailure("crossing-out independence: rank below survivor count")
    return 0


def _cmd_acceptance(args, parser) -> int:
    results = run_acceptance(only=args.only)
    if not results:
        parser.error(f"--only {args.only!r} matched no criteria")
    failed = [r for r in results if not r.passed]
    if failed:
        names = ", ".join(r.name for r in failed)
        print(f"acceptance: {len(failed)} criterion(s) failed: {names}")
        return 1
    print(f"acceptance: all {len(results)} criteria passed")
    return 0


_OPTIONS = {
    "n": {"type": int},
    "m": {"type": int},
    "beta": {"type": _finite(float, "a finite number >= 2", lambda v: v >= 2)},
    "seed": {"type": int, "default": 0},
    "structure": {"choices": ["naive", "orc2d"]},
    "kind": {"choices": list(chronogram.KINDS)},
    "istar": {"type": int},
    "trials": {"type": _positive_count},
    "c": {
        "type": _finite(float, "a finite number > 0", lambda v: v > 0),
        "default": QueryFamilyParams.independence_constant,
    },
    "cell-budget": {"type": _positive_count},
    "probe-threshold": {"type": _finite(float, "a finite number >= 0", lambda v: v >= 0)},
    "tries": {"type": _positive_count, "default": encoding_game.DEFAULT_MAX_TRIES},
    "only": {},
    "out": {},
    "config": {},
}

# each subcommand, and the options it reads
_COMMANDS = (
    ("lattice", _cmd_lattice, "m n out"),
    ("family", _cmd_family, "n c seed trials out"),
    ("chronogram", _cmd_chronogram, "n beta structure seed trials out"),
    ("encode", _cmd_encode, "kind n beta istar seed cell-budget probe-threshold tries out"),
    ("grid", _cmd_grid, "n beta m seed trials out"),
    ("acceptance", _cmd_acceptance, "only"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cplab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, options in _COMMANDS:
        # no prefix matching, so a config key must name its flag exactly
        p = sub.add_parser(name, allow_abbrev=False)
        # the command reports its usage errors on its own parser
        p.set_defaults(fn=fn, parser=p)
        for option in options.split() + ["config"]:
            p.add_argument(f"--{option}", **_OPTIONS[option])
    return parser


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    # an unknown flag is reported on the subcommand's parser, like its other errors
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    return args


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(parser, argv)
    if args.config:
        try:
            values = _read_config_file(args.config)
        except (OSError, ValueError) as exc:
            args.parser.error(f"bad config file: {exc}")
        # the command comes first; the file's values go before the flags
        tokens = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
        args = _parse(parser, [argv[0], *tokens, *argv[1:]])
    try:
        return args.fn(args, args.parser)
    except (
        InvariantFailure,
        AssertionError,
        encoding_game.DecodingIntegrityError,
        FamilyConstructionError,
    ) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
