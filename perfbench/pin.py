"""Pin game fingerprints for a range of base seeds.

    python3 perfbench/pin.py --workload orc-game --seeds 0-63

Plays every game of each batch once, requires exact recovery, and
merges the fingerprints into fingerprints.json. A game already pinned
must reproduce its pin. The pins hold a behaviour fixed: regenerate
them only for a change meant to alter what a game decides.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import games  # noqa: E402
from spans import NullTracer  # noqa: E402

PINS = HERE / "fingerprints.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=games.WORKLOADS)
    parser.add_argument("--seeds", default="0-63", help="inclusive range lo-hi")
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))

    if args.workload == "acceptance":
        specs = games.acceptance_probe_games()
    else:
        specs = {s for base in range(lo, hi + 1) for s in games.game_specs(args.workload, base)}
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    for spec in sorted(specs, key=lambda s: (s.kind, -s.n, s.seed)):
        game = games.play_game(spec, NullTracer())
        digest, error = games.check_game(game, pins)
        if error is not None:
            print(f"{spec.key}: {error}", file=sys.stderr)
            return 1
        pins[spec.key] = digest
        print(f"{spec.key}: {digest}", flush=True)
        del game
    PINS.write_text(json.dumps(dict(sorted(pins.items())), indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
