"""Regenerate ``pinned.json``: the exit code and report digest of every
benchmark operation, and the dimension and N-character degrees of every
coideal the harmonic workload visits.

    PYTHONHASHSEED=0 python3 perfbench/pin.py

Run it only on a commit whose reports are known good; a later change that
alters any report byte makes the benchmark count that operation as failed.
The script refuses to write a file whose entries break the benchmark's
own identities.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main():
    sys.path.insert(0, run.SRC)
    work = os.path.join(run.WORK_ROOT, f"pin-{os.getpid()}")
    try:
        _, cli, *_ = run.setup(work)
        facts = workloads.load_facts(work)
        pinned = {"coideals": {}, "ops": {}}
        for algebra, gens in workloads.harmonic_coideals(facts):
            key = workloads.coideal_key(algebra, gens)
            _, out = run.invoke(cli, workloads.gens_op("coideal", algebra, gens, work))
            dim = json.loads(out)["result"]["dim"]
            _, out = run.invoke(cli, workloads.gens_op("reciprocity", algebra, gens, work))
            pinned["coideals"][key] = {"dim": dim,
                                       "n_degrees": json.loads(out)["result"]["n_degrees"]}
        ops = [workloads.setup_op(work)]
        for name in workloads.WORKLOADS:
            ops += workloads.build_ops(name, work, facts, pinned)
        results = []
        for op in ops:
            code, out = run.invoke(cli, op)
            pinned["ops"][op.key] = {"exit": code, "sha256": workloads.report_digest(op, out)}
            results.append((op, code, out))
            print(f"{code} {op.key}", file=sys.stderr)
        bad = [(op.key, p) for op, code, out in results
               for p in workloads.check_op(op, code, out, facts, pinned)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if bad:
        for key, problem in bad:
            print(f"{key}: {problem}", file=sys.stderr)
        return 1
    with open(workloads.PINNED_PATH, "w") as fh:
        json.dump(pinned, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"pinned {len(pinned['ops'])} operations", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
