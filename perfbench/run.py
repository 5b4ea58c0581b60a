"""Benchmark of the hopflab command line, run in-process on the sources of
the checkout it sits in.

    python3 perfbench/run.py --workload search --seed 0 --seconds 30 --trace 0

Set-up imports hopflab, writes the input files into a scratch directory
under ``.perfbench_work/`` and runs ``characters s3``; it is timed five
times (four in child processes) and reported as the median.  Then the
workload's operation list, in seed order, runs as one pass, and passes
repeat while another fits in ``--seconds``.  Every operation gets fresh
objects, as a shell user of the CLI would: the file is parsed and verified
again.  Set-up and pass times are calibrated by the host's speed, sampled
on a timer while they run (see ``HostSampler``); the raw times are in the
diagnostics line.  ``--trace 1`` runs one untraced pass and one traced
pass and reports per-layer metrics; span files go to ``.perfbench_out/``.

The last line of stdout is the result object; the line before it holds the
per-pass samples and host diagnostics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
# While ops run, a timer interrupts every SAMPLE_INTERVAL_S to time a small
# fixed piece of arithmetic, which takes REF_NOMINAL_S on a quiet host.
SAMPLE_INTERVAL_S = 0.02
REF_NOMINAL_S = 0.0004
CHILD_TIMEOUT_S = 120
MAX_LISTED_FAILURES = 20

import tracer as tracing  # noqa: E402  (sibling module; HERE is sys.path[0])
import workloads  # noqa: E402


class SetupError(Exception):
    pass


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        ap.error("--workload is required")
    return args


# -- running one CLI operation -----------------------------------------------------


def invoke(cli, op):
    """Run one CLI command in this process; (exit code, stdout)."""
    from click import ClickException

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(op.argv, prog_name="hopflab", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except ClickException as exc:
            code = exc.exit_code
    return code, out.getvalue()


def setup(work):
    """Import, write inputs, run one small real op, with the host sampled
    throughout; ((calibrated seconds, raw seconds), cli, op, code, out)."""
    with HostSampler() as sampler:
        spent, t0 = sampler.spent, time.perf_counter()
        import hopflab
        from hopflab.cli import main as cli

        if os.path.dirname(os.path.abspath(hopflab.__file__)) != os.path.join(SRC, "hopflab"):
            raise SetupError(f"imported hopflab from {hopflab.__file__}, not from {SRC}")
        workloads.write_inputs(work)
        op = workloads.setup_op(work)
        code, out = invoke(cli, op)
        raw = time.perf_counter() - t0 - (sampler.spent - spent)
    return (raw * sampler.speed(), raw), cli, op, code, out


def setup_in_child(work):
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", work],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=env, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    calibrated, raw = proc.stdout.split()[-2:]
    return float(calibrated), float(raw)


# -- host diagnostics --------------------------------------------------------------


def read_steal():
    """Jiffies the hypervisor took from this guest, summed over CPUs."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def read_load():
    try:
        return os.getloadavg()[0]
    except OSError:
        return None


def source_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, env=env)
        git = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "hopflab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git": git, "source_sha256": digest.hexdigest()[:16]}


# -- host speed --------------------------------------------------------------------


def reference_chunk():
    """Seconds for a fixed piece of rational arithmetic, the kind of work
    hopflab's scalars do, with the collector off so the program's heap does
    not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 40):
            acc += Fraction(i, i + 7) * Fraction(i + 3, 2 * i + 1)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSampler:
    """Times a reference chunk on a SIGALRM every SAMPLE_INTERVAL_S while
    active, so the host's speed is sampled evenly through long ops, on the
    same thread and CPU as the op.  ``spent`` is the time the samples took,
    which the caller takes out of the op's time."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_chunk())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        if self.enabled:
            self._on_alarm(None, None)  # a pass shorter than the interval gets one sample
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self):
        """Mean of REF_NOMINAL_S / chunk time: 1.0 on a quiet host.  A mean
        of inverse times weights each sample by the interval it stands for,
        and a chunk that was preempted counts for little.  None without
        samples."""
        if not self.samples:
            return None
        return statistics.mean(REF_NOMINAL_S / c for c in self.samples)


# -- passes --------------------------------------------------------------------------


def run_pass(cli, ops, facts, pinned, tracer=None):
    """Every op once.  The pass's wall time sums the ops' own times, so the
    benchmark's checks and the host samples are not part of it.  A traced
    pass takes no host samples, which would land inside its spans."""
    op_times, failures = [], []
    steal0, load0, t_begin = read_steal(), read_load(), time.perf_counter()
    with HostSampler(enabled=tracer is None) as sampler:
        for idx, op in enumerate(ops):
            spent, t0 = sampler.spent, time.perf_counter()
            try:
                if tracer is None:
                    code, out = invoke(cli, op)
                else:
                    code, out = tracer.run_op(idx, lambda: invoke(cli, op))
            except Exception as exc:  # an op that raises is a failed op, not a failed run
                problems = [f"raised {exc!r}"]
            else:
                problems = None
            op_times.append(time.perf_counter() - t0 - (sampler.spent - spent))
            if problems is None:
                problems = workloads.check_op(op, code, out, facts, pinned)
            failures += [f"{op.key}: {p}" for p in problems[:1]]
    steal1 = read_steal()
    wall, speed = sum(op_times), sampler.speed()
    return {
        "wall_s": wall,
        "calibrated_s": None if speed is None else wall * speed,
        "host_speed": speed,
        "host_samples": len(sampler.samples),
        "elapsed_s": time.perf_counter() - t_begin,
        "op_times": op_times,
        "failures": failures,
        "steal_jiffies": None if steal0 is None or steal1 is None else steal1 - steal0,
        "loadavg_1m": load0,
    }


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer, base, traced):
    agg = tracing.aggregate(tracer.spans)

    def get(group, key):
        return agg.get(group, {}).get(key, 0)

    counts = tracer.counts()
    seconds = {
        "hopf.adjoint.self_s": get("hopf.adjoint", "self_s"),
        "hopf.multiply.self_s": get("hopf.multiply", "self_s"),
        "hopf.verify.total_s": get("hopf.verify", "total_s"),
        "hopf.verify.self_s": get("hopf.verify", "self_s"),
        "hopf.character_table.total_s": get("hopf.character_table", "total_s"),
        "hopf.grouplikes.total_s": get("hopf.grouplikes", "total_s"),
        "linalg.wedderburn.total_s": get("linalg.wedderburn", "total_s"),
        "linalg.primitive_idempotent.total_s": get("linalg.primitive_idempotent", "total_s"),
        "linalg.solve.self_s": get("linalg.solve", "self_s"),
        "scalars.factor.self_s": get("scalars.factor", "self_s"),
        "scalars.sympy_fallback.total_s": get("scalars.sympy_fallback", "total_s"),
        "coideal.context.total_s": get("coideal.context", "total_s"),
        "coideal.quotient.total_s": get("coideal.quotient", "total_s"),
        "coideal.candidates.total_s": get("coideal.candidates", "total_s"),
        "solvability.step_conditions.total_s": get("solvability.step_conditions", "total_s"),
        "harmonic.reciprocity.total_s": get("harmonic.reciprocity", "total_s"),
        "harmonic.characters.total_s": get("harmonic.characters", "total_s"),
        "harmonic.induce.total_s": get("harmonic.induce", "total_s"),
        "harmonic.induce_trace.total_s": get("harmonic.induce_trace", "total_s"),
        "serialize.load.self_s": get("serialize.load", "self_s"),
        "serialize.dump.self_s": get("serialize.dump", "self_s"),
        "builders.double.total_s": get("builders.double", "total_s"),
        "cli.op_p50_s": percentile(base["op_times"], 50),
        "cli.op_p90_s": percentile(base["op_times"], 90),
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - base["wall_s"],
    }
    count_values = {
        "hopf.adjoint.calls": get("hopf.adjoint", "calls"),
        "hopf.multiply.calls": get("hopf.multiply", "calls"),
        "hopf.comult_of.calls": get("hopf.comult_of", "calls"),
        "linalg.minimal_polynomial.calls": get("linalg.minimal_polynomial", "calls"),
        "linalg.solve.calls": get("linalg.solve", "calls"),
        "scalars.mul": counts["scalars.mul"],
        "scalars.add": counts["scalars.add"],
        "scalars.inv": counts["scalars.inv"],
        "scalars.is_zero": counts["scalars.is_zero"],
        "scalars.factor.calls": get("scalars.factor", "calls"),
        "scalars.sympy_fallback.calls": get("scalars.sympy_fallback", "calls"),
        "coideal.context.calls": get("coideal.context", "calls"),
        "coideal.quotient.calls": get("coideal.quotient", "calls"),
        "solvability.step_conditions.calls": get("solvability.step_conditions", "calls"),
        "solvability.candidates_tried": tracer.candidates_tried,
        "trace.spans": len(tracer.spans),
    }
    metrics = {name: {"value": value, "unit": "s"} for name, value in seconds.items()}
    metrics.update({name: {"value": value, "unit": "count"} for name, value in count_values.items()})
    return metrics


def end_to_end_metrics(passes, t_setup):
    return {
        "calibrated_wall_s": {"value": statistics.median(p["calibrated_s"] for p in passes),
                              "unit": "s"},
        "setup_s": {"value": statistics.median(t_setup), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def measure(args, work):
    t_setup = [setup_in_child(os.path.join(work, f"probe{i}")) for i in range(SETUP_REPEATS - 1)]
    run_dir = os.path.join(work, "run")
    own, cli, op, code, out = setup(run_dir)
    t_setup.append(own)
    calibrated_setup = [c for c, _ in t_setup]
    facts = workloads.load_facts(run_dir)
    pinned = workloads.load_pinned()
    setup_failures = [f"{op.key}: {p}" for p in workloads.check_op(op, code, out, facts, pinned)]
    ops = workloads.permute(workloads.build_ops(args.workload, run_dir, facts, pinned), args.seed)

    passes = []
    tracer = None
    if args.trace:
        passes.append(run_pass(cli, ops, facts, pinned))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            passes.append(run_pass(cli, ops, facts, pinned, tracer))
        finally:
            tracer.uninstall()
    else:
        t_begin = time.perf_counter()
        while True:
            passes.append(run_pass(cli, ops, facts, pinned))
            longest = max(p["elapsed_s"] for p in passes)
            if time.perf_counter() - t_begin + longest > args.seconds:
                break

    failures = setup_failures + [f for p in passes for f in p["failures"]]
    attempted = 1 + len(ops) * len(passes)
    if args.trace:
        metrics = layer_metrics(tracer, passes[0], passes[1])
    else:
        metrics = end_to_end_metrics(passes, calibrated_setup)
    from hopflab.scalars import QQ

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_per_pass": len(ops),
        "backend": "mpq" if QQ.__name__ == "mpq" else QQ.__name__,
        "python": sys.version.split()[0],
        "revision": source_revision(),
        "setup_samples_s": [raw for _, raw in t_setup],
        "setup_calibrated_s": calibrated_setup,
        "passes": [{k: p[k] for k in ("wall_s", "host_speed", "host_samples", "steal_jiffies",
                                      "loadavg_1m")} for p in passes],
        "failures": failures[:MAX_LISTED_FAILURES],
    }
    if tracer is not None:
        os.makedirs(OUT_ROOT, exist_ok=True)
        spans_path = os.path.join(OUT_ROOT, f"spans-{args.workload}-seed{args.seed}.tsv")
        tracing.write_spans(tracer.spans, spans_path)
        info["spans_file"] = os.path.relpath(spans_path, ROOT)
        info["unresolved_targets"] = tracer.unresolved
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, info


def main(argv=None):
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # same string hashing, so the same set and dict orders, in every run
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)
    if not os.path.isfile(os.path.join(SRC, "hopflab", "__init__.py")):
        print(f"perfbench: no hopflab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        print(*setup(args.setup_probe)[0])
        return 0
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    try:
        result, info = measure(args, work)
    except (SetupError, OSError, subprocess.SubprocessError, ImportError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)  # only when no other run is using it
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
