"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload orc-game --seeds 1-10 --seconds 45

For each end-to-end metric it prints the median of the runs and the
distance between their first and third quartile as a share of that
median: the spread a metric's bound in BENCHMARK.json must cover.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, quartile_spread

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range lo-hi")
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in range(lo, hi + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=200,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout, file=sys.stderr)
            return 1
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4f}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    for name, vs in values.items():
        print(f"{args.workload} {name}: median {median(vs):.4f}, "
              f"spread {quartile_spread(vs):.4f} (bound {bounds[name]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
