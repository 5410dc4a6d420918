"""Steadiness check: run one workload over several seeds and compare each
end-to-end metric's spread with its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload steiner-dense --seeds 1-10

Spread is the distance between the first and third quartile over the median,
as statistics.quantiles(values, n=4) gives the quartiles.  A metric is
marked steady when its spread is below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from measure import median, relative_spread

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: wall {wall:.1f} s, correct {result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}", flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    steady = True
    for m in spec["end_to_end"]:
        spread = relative_spread(values[m["name"]])
        ok = m["name"] == "setup_s" or spread < m["bound"] / 3
        steady &= ok
        print(f"{m['name']:17s} median {median(values[m['name']]):<12.6g} spread {spread:.4f} "
              f"bound {m['bound']}  {'ok' if ok else 'TOO WIDE'}  "
              f"[{' '.join(f'{v:.5g}' for v in values[m['name']])}]")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
