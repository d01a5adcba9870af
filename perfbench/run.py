"""cplab benchmark: one command, three seeded workloads, checked outputs.

    python3 perfbench/run.py --workload orc-game --seed 7 --seconds 20 --trace 0

Workloads (all closed loop: one caller, the next operation starts when
the previous one returns; single process, single thread):

  orc-game         dominance encode/decode games at n = 3000, 1000, 440
  artificial-game  index-weight games at n = 100, 49, 25
  acceptance       the 11 acceptance criteria, once per sample

Each sample is a fresh interpreter (worker.py) that plays the workload's
fixed batch once; samples run one after another until `--seconds` have
passed, and every metric is the median over samples. Game k of a batch
plays seed `--seed + k`. The acceptance criteria fix their own inputs,
so the seed does not apply to that workload.

With `--trace 0` the last line reports the end-to-end metrics. With
`--trace 1` samples alternate untraced and traced; the last line reports
the per-layer metrics of the traced samples, including the tracing
overhead (traced minus untraced batch wall time). Every sample's record,
spans included, is written to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from spans import Span, self_times
from stats import median, summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# Layers only some workloads reach; the report marks them absent elsewhere.
PARTIAL_LAYERS = {
    "fibonacci_lattice.lattice_s": "index-weight runs build no lattice",
    "hard_queries.family_s": "dominance runs build no query family",
    "acceptance.<criterion>_s": "only the acceptance workload runs the criteria",
}

# Keep the whole run inside the 180 s a run may take.
DEADLINE_S = 170.0

# A fixed hash seed and one BLAS thread, so samples differ only by the machine.
WORKER_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark could not measure; no result line is printed."""


def run_worker(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    env = {**os.environ, **WORKER_ENV}
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def collect(workload: str, seed: int, seconds: int, trace: bool) -> list[dict]:
    """Samples while the next one should still end within `seconds`, and
    at least one; with tracing, an untraced and a traced sample at a time."""
    samples: list[dict] = []
    start = time.monotonic()
    last = 0.0
    while not samples or time.monotonic() - start + last <= seconds:
        t0 = time.monotonic()
        for traced in (False, True) if trace else (False,):
            left = DEADLINE_S - (time.monotonic() - start)
            samples.append(run_worker(workload, seed, traced, left))
        last = time.monotonic() - t0
    return samples


def check_agreement(samples: list[dict]) -> None:
    """Every sample must reach the same fingerprint for the same game;
    a game that disagrees with the first sample that played it fails."""
    first: dict[str, str] = {}
    for s in samples:
        for op in s["ops"] + s["probe_ops"]:
            digest = op.get("fingerprint")
            if digest is None:
                continue
            ref = first.setdefault(op["key"], digest)
            if digest != ref and op["error"] is None:
                op["error"] = f"fingerprint {digest} differs from another sample's {ref}"


def load_benchmark() -> dict:
    """BENCHMARK.json: the one home of the workload and metric names."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(bench: dict, section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in bench[section]}


def aggregate(samples: list[dict], trace: bool, bench: dict) -> tuple[dict, dict]:
    """The result-line metrics and the full report. Every per-layer
    metric is measured on every workload (the acceptance workload replays
    the first games of criteria 6 and 7); the report adds the layers only
    some workloads reach."""
    end_to_end = units(bench, "end_to_end")
    plain = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    e2e = {name: summary([s[name] for s in plain]) for name in end_to_end}
    op_times: dict[str, list[float]] = {}
    for s in plain:
        for op in s["ops"]:
            op_times.setdefault(op["key"], []).append(op["wall_s"])
    report = {
        "end_to_end": e2e,
        "ops": {k: summary(v) for k, v in op_times.items()},
    }
    if not trace:
        metrics = {name: {"value": e2e[name]["median"], "unit": unit}
                   for name, unit in end_to_end.items()}
        return metrics, report

    layer_names = sorted({k for s in traced for k in s["layers"]})
    layers = {k: median([s["layers"][k] for s in traced if k in s["layers"]])
              for k in layer_names}
    layers["trace.overhead_s"] = median([s["wall_s"] for s in traced]) - e2e["wall_s"]["median"]
    absent = {k: v for s in traced for k, v in s["absent"].items()}
    per_layer = units(bench, "per_layer")
    for name, reason in PARTIAL_LAYERS.items():
        if not any(k.startswith(name.split("<")[0]) for k in layers):
            absent[name] = reason
    for name in per_layer:
        if name not in layers and name not in absent:
            absent[name] = "not measured on this workload"
    report["layers"] = layers
    report["absent"] = absent
    report["uncovered_by_game"] = uncovered_by_game(traced)
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit in per_layer.items() if name in layers}
    return metrics, report


def uncovered_by_game(traced: list[dict]) -> dict:
    """Per game, the share of its wall time no top-level span covers."""
    out: dict[str, list[float]] = {}
    for s in traced:
        spans = [Span(**d) for d in s["spans"]]
        selfs = self_times(spans)
        for g in spans:
            if g.name == "game":
                out.setdefault(g.trace, []).append(selfs[g.id] / g.duration)
    return {k: median(v) for k, v in out.items()}


def print_summary(workload, seed, samples, report, attempted, failed) -> None:
    print(f"perfbench {workload} seed={seed}: {len(samples)} samples, "
          f"{attempted} operations, {failed} failed")
    if workload == "acceptance":
        print("  (the criteria fix their own inputs; the seed does not apply)")
    for name, s in report["end_to_end"].items():
        tail = s["tail"]
        tail_text = ("no percentile has 10 samples beyond it" if tail is None
                     else f"p{tail['p']} {tail['value']:.4f}")
        print(f"  {name:<12} median {s['median']:.4f} (n={s['samples']}; {tail_text})")
    for key, s in report["ops"].items():
        print(f"  op {key}: median {s['median']:.4f} s (n={s['samples']})")
    for name, value in sorted(report.get("layers", {}).items()):
        print(f"  layer {name} = {value:.6g}")
    for name, reason in sorted(report.get("absent", {}).items()):
        print(f"  layer {name} absent: {reason}")
    for key, share in report.get("uncovered_by_game", {}).items():
        print(f"  uncovered {share:.2%} of game {key}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    bench = load_benchmark()
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cplab" / "__init__.py").is_file():
        print(f"perfbench: no cplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be in [1, 120]")

    try:
        samples = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    check_agreement(samples)
    ops = [op for s in samples for op in s["ops"] + s["probe_ops"]]
    failed = [op for op in ops if op["error"] is not None]
    metrics, report = aggregate(samples, bool(args.trace), bench)

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"args": vars(args), "report": report, "samples": samples}))
    print_summary(args.workload, args.seed, samples, report, len(ops), len(failed))
    for op in failed:
        print(f"  FAILED {op['key']}: {op['error']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
