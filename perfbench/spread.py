"""Run the benchmark several times, one run at a time, and print each
end-to-end metric's median and quartile spread per workload.

    python3 perfbench/spread.py --runs 10 --seconds 30 search structure harmonic

Workloads are interleaved round-robin (search, structure, harmonic, search,
...), so drift on the host spreads over all of them instead of landing on
one.  Run ``r`` uses seed ``first_seed + r``.  The spread is
(Q3 - Q1) / median with ``statistics.quantiles(values, n=4)``.  Raw result
lines are appended to ``--log`` when given.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--log", default=None)
    args = ap.parse_args(argv)

    values = {w: {} for w in args.workloads}
    for r in range(args.runs):
        for w in args.workloads:
            seed = args.first_seed + r
            info, result = run_once(w, seed, args.seconds)
            if args.log:
                with open(args.log, "a") as fh:
                    fh.write(json.dumps({"info": info, "result": result}) + "\n")
            ok = "ok" if result["correct"] else f"FAILED {result['failed']}"
            row = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
            raw = statistics.mean(p["wall_s"] for p in info["passes"])
            steal = [p["steal_jiffies"] for p in info["passes"]]
            print(f"{w:10s} seed {seed:3d} {ok} {row} raw_wall_s={raw:.4g} steal={steal}",
                  flush=True)
            values[w].setdefault("raw_wall_s", []).append(raw)
            for k, m in result["metrics"].items():
                values[w].setdefault(k, []).append(m["value"])
    for w, metrics in values.items():
        for k, vals in metrics.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("nan")
            else:
                spread = float("nan")
            print(f"{w:10s} {k:12s} median {med:.4f} spread {spread:.4f} (n={len(vals)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
