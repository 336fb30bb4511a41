"""Tests of the benchmark itself: the calibrated clock, the checks, the tracer.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import random
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import clock  # noqa: E402
import corpus  # noqa: E402
import exact  # noqa: E402
import tracer  # noqa: E402
from clock import CalibratedClock  # noqa: E402

import torusdyn  # noqa: E402
from torusdyn.dynamics import periodic_torsion_points  # noqa: E402
from torusdyn.kummer import format_point  # noqa: E402

# the bound on map_latency_p50_s, the metric a single timed operation feeds
LATENCY_BOUND = next(
    m["bound"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]
    if m["name"] == "map_latency_p50_s"
)


def _load():
    acc = Fraction(0)
    table = {}
    for i in range(1, 100000):
        acc += Fraction(i % 97, i % 13 + 1)
        table[(i * 7) % 101] = table.get((i * 7) % 101, 0) + i
    return acc


def test_clock_repeats_a_fixed_load():
    with CalibratedClock() as clk:
        times = []
        for _ in range(11):
            t0 = clk.now()
            _load()
            times.append(clk.now() - t0)
    q = statistics.quantiles(times, n=4)
    assert (q[2] - q[0]) / q[1] <= LATENCY_BOUND, times


def test_clock_leaves_out_the_reference(monkeypatch):
    """On a fake timer: references are not counted, and work is scaled by the latest one."""
    now = [0.0]
    ref_cost = [0.002]

    def reference():
        now[0] += ref_cost[0]

    monkeypatch.setattr(clock, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    with CalibratedClock(ref=reference, interval=1000, nominal=0.002) as clk:
        c0 = clk.now()
        now[0] += 0.1  # 100 ms of work at the reference's own speed
        clk._tick()  # a 2 ms reference in the middle of the operation
        now[0] += 0.1
        assert clk.now() - c0 == pytest.approx(0.2)
        ref_cost[0] = 0.004  # the machine runs at half speed from here on
        c1 = clk.now()
        clk._tick()
        now[0] += 0.2  # the same 100 ms of work takes 200 ms
        assert clk.now() - c1 == pytest.approx(0.1)
    assert clk.ref_runs == 4 and clk.ref_seconds == pytest.approx(0.01)


def _classified(case):
    phi = torusdyn.AffineMonomialMap.build(case.rows, torusdyn.parse_point(case.gamma))
    return checks.from_report(torusdyn.classify(phi))


def test_flipped_verdict_is_rejected():
    rng = random.Random(3)
    for i in (0, 1):  # slot 0 is a fibration, slot 1 a wild map
        case = corpus.degree_one_case(rng, i)
        rep = _classified(case)
        args = (case.rows, case.point(), rep, case.expected_verdict, case.degree_one_iterate)
        assert checks.check_classification(*args) == []
        flipped = dict(rep, verdict="DEGREE_ONE_WILD" if rep["verdict"] == "FIBRATION" else "FIBRATION")
        assert checks.check_classification(case.rows, case.point(), flipped, case.expected_verdict, case.degree_one_iterate)


def test_moved_cycle_base_is_rejected():
    case = corpus.MapCase("dense", [[2, 1], [1, 1]], ["zeta(3)", "2^(1/2)"], corpus.VERDICT_DENSE)
    rep = _classified(case)
    assert checks.check_cycles(case.rows, case.point(), rep["families"]) == []
    fam = max(rep["families"], key=len)
    base, ann = fam[1]
    moved = (exact.mul(base, exact.parse_point(["97", "1"])), ann)
    families = [f if f is not fam else [fam[0], moved] + fam[2:] for f in rep["families"]]
    assert checks.check_cycles(case.rows, case.point(), families)


def test_off_by_one_period_is_rejected():
    a = [[2, 1], [1, 1]]
    pts = [(list(format_point(p)), per) for p, per in periodic_torsion_points(torusdyn.IntMatrix.from_rows(a), 7)]
    assert checks.check_periodic(a, 7, pts) == []
    pts[5] = (pts[5][0], pts[5][1] + 1)
    assert checks.check_periodic(a, 7, pts)


def test_altered_orbit_point_is_rejected():
    a, gamma = [[2, 1], [1, 1]], ["1", "1"]
    phi = torusdyn.AffineMonomialMap.build(a, torusdyn.parse_point(gamma))
    start = torusdyn.parse_point(["2", "3^(-1)"])
    printed = [list(format_point(p)) for p in phi.orbit(start, 6)]
    args = (a, exact.parse_point(gamma), exact.parse_point(["2", "3^(-1)"]))
    assert checks.check_orbit(*args, printed) == []
    printed[4][1] = printed[4][1] + " * 2"
    assert checks.check_orbit(*args, printed)


def test_density_rank_below_monomial_count_is_rejected():
    good = {"status": "NOT_CONTAINED", "degree_bound": 3, "point_count": 200, "monomial_count": 10, "rank": 10}
    assert checks.check_density(2, good) == []
    assert checks.check_density(2, dict(good, rank=9))


def test_traced_counts_repeat():
    rng = random.Random(5)
    cases = [corpus.degree_one_case(rng, i) for i in range(6)]
    maps = [torusdyn.AffineMonomialMap.build(c.rows, torusdyn.parse_point(c.gamma)) for c in cases]
    counts = []
    for _ in range(2):
        with CalibratedClock() as clk:
            tr = tracer.Tracer(clk.now)
            tr.install()
            try:
                for phi in maps:
                    torusdyn.classify(phi)
            finally:
                tr.uninstall()
        counts.append({k: c for k, (c, _) in tr.self_times().items()})
    assert counts[0] == counts[1]
    assert counts[0]["kummer.build"] > 0 and counts[0]["intlinalg.minpoly"] > 0
    assert torusdyn.classify.__module__ == "torusdyn.dynamics"  # uninstall restored the originals
    assert not hasattr(torusdyn.char_eval, "__wrapped__")
