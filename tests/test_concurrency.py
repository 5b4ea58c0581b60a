"""Concurrent readers of one shared HopfAlgebra get the same cache entries.

Each test starts four threads, never more, behind a barrier, with the
interpreter's switch interval shortened so that their first calls
interleave while an entry is being built.
"""

import sys
import threading

import pytest

from hopflab.corpus import load

THREADS = 4
TIMEOUT_S = 120


@pytest.fixture
def short_switch_interval():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _race(calls):
    """Run calls[t]() in thread t, all released at once; their results."""
    barrier = threading.Barrier(len(calls), timeout=TIMEOUT_S)
    results = [None] * len(calls)

    def run(t):
        barrier.wait()
        results[t] = calls[t]()

    threads = [threading.Thread(target=run, args=(t,)) for t in range(len(calls))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(TIMEOUT_S)
    assert not any(thread.is_alive() for thread in threads)
    assert None not in results  # a thread that raised left its slot empty
    return results


@pytest.mark.parametrize("trial", range(3))
def test_racing_first_calls_get_one_dual(short_switch_interval, trial):
    H = load("d-s3")[0]
    duals = _race([H.dual] * THREADS)
    assert all(d is duals[0] for d in duals)
    assert H.dual() is duals[0] and duals[0].dual() is H
    assert duals[0]._cache["proven"]


READS = {
    "character_table": lambda H: H.character_table(),
    "generating_set": lambda H: H.generating_set(),
    "integrals": lambda H: H.integrals(),
    "dual": lambda H: H.dual(),
}


def _summary(results):
    """What the serial and the threaded runs must agree on."""
    table, gens, pair, dual = (results[name] for name in READS)
    return (table.characters, table.degrees, gens, pair.integral, pair.dual_integral,
            dual.mult, dual.comult, dual.antipode)


def test_threaded_reads_of_one_object_match_a_serial_run(short_switch_interval):
    serial_H = load("d-s3")[0]
    serial = {name: read(serial_H) for name, read in READS.items()}
    H = load("d-s3")[0]
    names = list(READS)

    def reads(t):  # each thread reads in its own order
        order = names[t:] + names[:t]
        return lambda: {name: READS[name](H) for name in order}

    runs = _race([reads(t) for t in range(THREADS)])
    for name in names:
        assert all(run[name] is runs[0][name] for run in runs), name
    assert _summary(runs[0]) == _summary(serial)
    assert sorted(H._cache) == sorted(serial_H._cache)
