"""Tests of the benchmark itself (not part of the library's suite).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

import run
import tracer as tracing
import workloads

sys.path.insert(0, run.SRC)


def declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


# -- tracer arithmetic ---------------------------------------------------------------


def test_self_time_of_nested_fake_spans():
    # a[0,10] > b[1,4] > c[2,3];  a > d[5,9] > a'[6,7]
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["d", 5.0, 9.0, 0, 0],
        ["a", 6.0, 7.0, 3, 0],
    ]
    agg = tracing.aggregate(spans)
    assert agg["a"] == {"calls": 2, "total_s": 10.0, "self_s": 3.0 + 1.0}
    assert agg["b"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert agg["c"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert agg["d"] == {"calls": 1, "total_s": 4.0, "self_s": 3.0}
    assert sum(a["self_s"] for a in agg.values()) == 10.0


def test_wrap_records_parent_and_op_with_a_fake_clock():
    ticks = iter(range(100))
    t = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = t.wrap("inner", lambda: None)
    outer = t.wrap("outer", lambda: (inner(), inner()))
    t.run_op(7, outer)
    names = [(s[0], s[3], s[4]) for s in t.spans]
    assert names == [("cli.op", -1, 7), ("outer", 0, 7), ("inner", 1, 7), ("inner", 1, 7)]
    agg = tracing.aggregate(t.spans)
    assert agg["inner"]["calls"] == 2
    assert agg["outer"]["self_s"] == agg["outer"]["total_s"] - agg["inner"]["total_s"]
    # ticks: op 0..7 > outer 1..6 > inner 2..3, inner 4..5
    assert agg["cli.op"] == {"calls": 1, "total_s": 7.0, "self_s": 2.0}


# -- the gate on real operations -------------------------------------------------------


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("bench"))
    _, cli, op, code, out = run.setup(work)
    facts = workloads.load_facts(work)
    pinned = workloads.load_pinned()
    assert workloads.check_op(op, code, out, facts, pinned) == []
    return work, cli, facts, pinned


def small_ops(work, facts, pinned):
    """A cheap slice of every workload, adjoint-heavy search included."""
    ops = [op for op in workloads.build_ops("harmonic", work, facts, pinned) if op.algebra == "s3"]
    ops += [op for op in workloads.build_ops("structure", work, facts, pinned) if op.kind == "double"]
    ops += [op for op in workloads.build_ops("search", work, facts, pinned) if op.algebra == "s3"]
    return workloads.permute(ops, seed=3)


def test_small_ops_pass_the_gate(env):
    work, cli, facts, pinned = env
    result = run.run_pass(cli, small_ops(work, facts, pinned), facts, pinned)
    assert result["failures"] == []


def test_corrupted_digest_is_exactly_one_failed_op(env):
    work, cli, facts, pinned = env
    ops = small_ops(work, facts, pinned)
    bad = copy.deepcopy(pinned)
    victim = ops[len(ops) // 2].key
    bad["ops"][victim]["sha256"] = "0" * 64
    result = run.run_pass(cli, ops, facts, bad)
    assert len(result["failures"]) == 1
    assert result["failures"][0].startswith(victim + ":")


def test_identities_catch_a_wrong_report(env):
    work, cli, facts, pinned = env
    op = next(o for o in workloads.build_ops("harmonic", work, facts, pinned)
              if o.kind == "reciprocity" and o.algebra == "d4" and len(o.gens) == 3)
    code, out = run.invoke(cli, op)
    report = json.loads(out)
    assert workloads.identity_problems(op, report, facts, pinned) == []
    report["result"]["entries"][0][0] += 1
    assert workloads.identity_problems(op, report, facts, pinned)


def test_traced_counts_repeat_exactly(env):
    work, cli, facts, pinned = env
    ops = small_ops(work, facts, pinned)
    run.run_pass(cli, ops, facts, pinned)  # fills field-level caches first
    seen = []
    for _ in range(2):
        t = tracing.Tracer()
        t.install()
        try:
            result = run.run_pass(cli, ops, facts, pinned, t)
        finally:
            t.uninstall()
        assert result["failures"] == []
        metrics = run.layer_metrics(t, result, result)
        seen.append({k: m["value"] for k, m in metrics.items()
                     if k.startswith("scalars.") and m["unit"] == "count" or k.endswith(".calls")})
    assert seen[0] == seen[1]
    assert seen[0]["hopf.adjoint.calls"] > 0 and seen[0]["scalars.mul"] > 0
    assert {k: m["unit"] for k, m in metrics.items()} == declared("per_layer")


def test_end_to_end_metrics_match_the_declaration(env):
    work, cli, facts, pinned = env
    ops = small_ops(work, facts, pinned)[:3]
    passes = [run.run_pass(cli, ops, facts, pinned) for _ in range(2)]
    assert all(p["host_samples"] >= 1 and p["host_speed"] > 0 for p in passes)
    metrics = run.end_to_end_metrics(passes, [1.0, 2.0, 3.0])
    assert {k: m["unit"] for k, m in metrics.items()} == declared("end_to_end")
    assert metrics["setup_s"]["value"] == 2.0
    assert all(m["value"] > 0 for m in metrics.values())


def test_uninstall_restores_the_package():
    from hopflab import cli, hopf, linalg, scalars

    before = (hopf.HopfAlgebra.__dict__["multiply"], scalars.Scalar.__dict__["__mul__"],
              cli.find_solvable_series, linalg.Subspace.__dict__["from_vectors"])
    t = tracing.Tracer()
    t.install()
    assert cli.find_solvable_series is not before[2]
    assert scalars.Scalar.__dict__["__mul__"] is not before[1]
    t.uninstall()
    after = (hopf.HopfAlgebra.__dict__["multiply"], scalars.Scalar.__dict__["__mul__"],
             cli.find_solvable_series, linalg.Subspace.__dict__["from_vectors"])
    assert after == before
    assert t.unresolved == []


def test_seed_permutes_order_but_not_the_set():
    ops = workloads.build_ops("search", "w", {}, {})
    a, b = workloads.permute(ops, 1), workloads.permute(ops, 1)
    assert [o.key for o in a] == [o.key for o in b]
    assert sorted(o.key for o in a) == sorted(o.key for o in ops)
