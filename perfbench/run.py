"""torusdyn benchmark: one workload, one seed, calibrated time, independent checks.

    python3 perfbench/run.py --workload dense_families --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout, imports torusdyn from ./src, and prints as
its last line one JSON object with keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones, timed in
calibrated seconds (see clock.py); with --trace 1 it runs one untraced and
one traced round and reports the per-layer metrics (see tracer.py).
README.md in this directory describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
import exact  # noqa: E402
import tracer as tracing  # noqa: E402
from clock import CalibratedClock  # noqa: E402

MIN_ROUNDS = {"dense_families": 1, "degree_one": 1, "highdim": 1, "cli": 2}
# Whether every round's output is checked again, or compared with the
# checked first-round output (degree_one: the checks cost more than the op).
RECHECK_EVERY_ROUND = {"dense_families": True, "degree_one": False, "highdim": True, "cli": False}
SETUP_PROBES = 2  # setup_s is the median of these subprocess set-ups and the run's own
TAIL_MIN_OPS = 40
TAIL_BEYOND = 10


@dataclass
class Op:
    name: str
    run: object  # (traced: bool) -> output
    check: object  # output -> (failed, errors)
    process: bool = False  # runs in a child process, which times itself


# -- set-up ------------------------------------------------------------------------------------


def setup(workload: str, seed: int, clk: CalibratedClock) -> tuple[list[Op], float]:
    """Import torusdyn, build the corpus and run the warm-up pass.

    Returns the operations and the calibrated time of set-up work done in
    child processes, which the (paused) clock of this process does not see.
    """
    if workload == "cli":
        return _cli_setup(seed, clk)
    import torusdyn

    cases = getattr(corpus, workload)(seed)
    ops = [_library_op(torusdyn, case) for case in cases]
    warm = [([[1, 0], [0, 1]], ["2", "3"]), ([[2, 1], [1, 1]], ["1", "1"])]
    for rows, gamma in warm:
        phi = torusdyn.AffineMonomialMap.build(rows, torusdyn.parse_point(gamma))
        torusdyn.classify(phi, torusdyn.ClassifyConfig(family_budget=5))
    return ops, 0.0


def _library_op(torusdyn, case: corpus.MapCase) -> Op:
    phi = torusdyn.AffineMonomialMap.build(case.rows, torusdyn.parse_point(case.gamma))
    gamma = case.point()

    def check(report):
        rep = checks.from_report(report)
        errors = checks.check_classification(case.rows, gamma, rep, case.expected_verdict, case.degree_one_iterate)
        return checks.undecided(rep), errors

    return Op(case.name, lambda traced=False: torusdyn.classify(phi), check)


@dataclass
class CliResult:
    rc: int
    out: bytes
    maxrss_kb: int
    cal_s: float
    raw_s: float
    child: dict  # the child's own summary: its timing, and its spans' self times when traced


def run_cli(name: str, argv: list[str], traced: bool = False) -> CliResult:
    """One torusdyn process (through cli_child.py) to its end; peak RSS comes from wait4."""
    summary = OUT / f"cli_{name}.json"
    summary.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "cli_child.py"), str(summary), str(int(traced)), *argv]
    with open(OUT / "cli_stderr.txt", "ab") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT)
        out = p.stdout.read()
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
        raw = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    if not summary.exists():  # the command died before main() returned; it counts as failed
        return CliResult(p.returncode or 1, out, usage.ru_maxrss, raw, raw, {})
    child = json.loads(summary.read_text())
    # start-up and exit, outside the child's clock, at the speed the child saw inside
    speed = child["cal_s"] / (child["raw_s"] - child["ref_inside_s"])
    outside = raw - child["raw_s"] - child["pre_ref_s"]
    return CliResult(p.returncode, out, usage.ru_maxrss, child["cal_s"] + outside * speed, raw, child)


def _cli_setup(seed: int, clk: CalibratedClock) -> tuple[list[Op], float]:
    spec_dir = OUT / f"specs_{seed}"
    spec_dir.mkdir(parents=True, exist_ok=True)
    cases = corpus.cli(seed, str(FIXTURES), str(spec_dir))
    ops = []
    for case in cases:
        spec_path = case.argv[1]
        if case.spec:
            Path(spec_path).write_text(json.dumps(case.spec))
            spec = case.spec
        else:
            spec = json.loads(Path(spec_path).read_text())
        ops.append(_cli_op(case, spec))
    with clk.paused():
        warm = run_cli("warmup", ["classify", str(FIXTURES / "example_wild.json"), "--json"])
    return ops, warm.cal_s


def _cli_op(case: corpus.CliCase, spec: dict) -> Op:
    rows = spec["matrix"]
    gamma = exact.parse_point(spec["gamma"])
    def check(res: CliResult):
        if res.rc != 0:
            return True, []
        doc = json.loads(res.out)
        kind, extra = case.check, case.extra
        if kind == "classify":
            rep = checks.from_json(doc["report"])
            errors = checks.check_classification(rows, gamma, rep, extra["verdict"], extra.get("ell"))
            if case.name == "classify_example_fibration" and rep["fibration"] != (1, [2, -1]):
                errors.append(f"example_fibration witness {rep['fibration']}, known answer (1, [2, -1])")
            return checks.undecided(rep), errors
        if kind == "fibration":
            w = doc["witness"]
            errors = checks.check_fibration(rows, gamma, w["iterate"], w["character"])
            if (w["iterate"], w["character"]) != (1, [2, -1]):
                errors.append(f"example_fibration witness {w}, known answer iterate 1, (2, -1)")
            return False, errors
        if kind == "wild":
            cert = doc["certificate"]
            errors = [] if cert["dense"] else ["wild fixture reported not dense"]
            errors += checks.check_degree_one(rows, [cert["iterate"], cert["nilpotency"]], None)
            return False, errors + checks.check_wild(rows, gamma, cert["iterate"])
        if kind == "decompose":
            return False, checks.check_decomposition(rows, gamma, doc["decomposition"])
        if kind == "periodic":
            pts = [(p["point"], p["period"]) for p in doc["points"]]
            return False, checks.check_periodic(rows, extra["d"], pts)
        if kind == "orbit":
            length = int(case.argv[case.argv.index("-n") + 1])
            errors = [] if len(doc["orbit"]) == length else [f"{len(doc['orbit'])} orbit points printed, {length} asked"]
            return False, errors + checks.check_orbit(rows, gamma, exact.parse_point(extra["point"]), doc["orbit"])
        if kind == "check_density":
            res_doc = doc["result"]
            if res_doc["status"] != checks.NOT_CONTAINED:
                return False, [f"check-density on the wild fixture gave {res_doc['status']}"]
            return False, checks.check_density(len(rows), res_doc)
        raise ValueError(kind)

    return Op(case.name, lambda traced=False: run_cli(case.name, case.argv, traced), check, process=True)


def setup_probe(workload: str, seed: int) -> None:
    """One set-up in this process, timed on its own clock; prints calibrated seconds."""
    with CalibratedClock() as clk:
        t0 = clk.now()
        _, in_children = setup(workload, seed, clk)
        print(clk.now() - t0 + in_children)


def setup_seconds(workload: str, seed: int) -> list[float]:
    out = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
        res = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


# -- measuring ---------------------------------------------------------------------------------


class Tally:
    """Latencies per operation and the outcome of every check."""

    def __init__(self, recheck: bool):
        self.recheck = recheck
        self.lat: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        self.first: dict[str, tuple] = {}  # first-round check outcome per operation
        self.first_output: dict[str, object] = {}
        self.attempted = self.failed = self.passed = 0
        self.errors: list[str] = []
        self.failures: set[str] = set()
        self.maxrss_kb = 0
        self.rounds = 0
        self.round_s: dict = {}  # traced run: calibrated time of the untraced and the traced round
        self.child_times: dict = {}  # traced cli children: self times and tallies
        self.child_tally: dict = {}

    def add(self, op: Op, output, exc, cal: float, raw: float) -> None:
        self.attempted += 1
        self.lat.setdefault(op.name, []).append(cal)
        self.raw.setdefault(op.name, []).append(raw)
        if exc is not None:
            self.failed += 1
            self.failures.add(f"{op.name}: {type(exc).__name__}: {exc}")
            return
        if isinstance(output, CliResult):
            self.maxrss_kb = max(self.maxrss_kb, output.maxrss_kb)
            if "times" in output.child:
                tracing.merge(self.child_times, {k: tuple(v) for k, v in output.child["times"].items()})
                for k, v in output.child["tally"].items():
                    self.child_tally[k] = self.child_tally.get(k, 0) + v
        if op.name in self.first and not self.recheck:
            failed, errors = self.first[op.name]
            if _fingerprint(output) != _fingerprint(self.first_output[op.name]):
                errors = [f"{op.name}: output differs from the first round's"]
        else:
            failed, errors = op.check(output)
            self.first[op.name] = (failed, errors)
            if not self.recheck:
                self.first_output[op.name] = output
        if failed:  # no certificate delivered; `correct` speaks of the other operations
            self.failed += 1
            self.failures.add(op.name)
        else:
            self.passed += 1
            self.errors += [f"{op.name}: {e}" for e in errors]


def _fingerprint(output):
    return output.out if isinstance(output, CliResult) else output


def run_round(ops: list[Op], clk: CalibratedClock, tally: Tally, traced: bool = False) -> None:
    for op in ops:
        if op.process:
            with clk.paused():
                output = op.run(traced)
            tally.add(op, output, None, output.cal_s, output.raw_s)
            continue
        output = exc = None
        r0, c0 = time.perf_counter(), clk.now()
        try:
            output = op.run(traced)
        except Exception as e:  # a failed operation is counted, not fatal
            exc = e
        c1, r1 = clk.now(), time.perf_counter()
        tally.add(op, output, exc, c1 - c0, r1 - r0)


def summarize(tally: Tally) -> dict:
    """End-to-end metrics; latency statistics are over per-operation medians across rounds."""
    per_op = sorted(statistics.median(v) for v in tally.lat.values())
    per_op_raw = sorted(statistics.median(v) for v in tally.raw.values())
    busy = sum(sum(v) for v in tally.lat.values())
    busy_raw = sum(sum(v) for v in tally.raw.values())
    k = len(per_op)
    if k >= TAIL_MIN_OPS:  # the highest percentile with TAIL_BEYOND operations beyond it
        tail = slice(k - TAIL_BEYOND - 1, k - TAIL_BEYOND)
        tail_name = f"p{100 * (k - TAIL_BEYOND) / k:.1f}"
    else:  # no such percentile: the mean of the slowest quarter
        tail = slice(k - math.ceil(k / 4), k)
        tail_name = f"mean of the slowest {math.ceil(k / 4)} of {k}"
    return {
        "maps_per_s": tally.passed / busy,
        "map_latency_p50_s": statistics.median(per_op),
        "map_latency_tail_s": statistics.mean(per_op[tail]),
        "_raw_maps_per_s": tally.passed / busy_raw,
        "_raw_map_latency_p50_s": statistics.median(per_op_raw),
        "_raw_map_latency_tail_s": statistics.mean(per_op_raw[tail]),
        "_tail_percentile": tail_name,
        "_operations": k,
    }


def timed_run(workload: str, ops: list[Op], clk: CalibratedClock, seconds: float) -> Tally:
    tally = Tally(RECHECK_EVERY_ROUND[workload])
    while tally.rounds < MIN_ROUNDS[workload] or sum(sum(v) for v in tally.raw.values()) < seconds:
        run_round(ops, clk, tally)
        tally.rounds += 1
    return tally


def traced_run(workload: str, ops: list[Op], clk: CalibratedClock, seed: int) -> tuple[Tally, dict]:
    """One untraced round, then the same round traced; counts are for exactly one round."""
    untraced = Tally(True)
    run_round(ops, clk, untraced)
    traced = Tally(True)
    tr = tracing.Tracer(clk.now)
    tr.install()
    try:
        run_round(ops, clk, traced, traced=True)
    finally:
        tr.uninstall()
    times = tr.self_times()
    tracing.merge(times, traced.child_times)  # cli: the spans were recorded in the children
    tally = {k: v + traced.child_tally.get(k, 0) for k, v in tr.tally.items()}
    if len(tr.start):
        tr.save(str(OUT / f"trace_{workload}_{seed}.npz"))
    metrics = tracing.layer_metrics(times, tally)
    base = sum(sum(v) for v in untraced.lat.values())
    over = sum(sum(v) for v in traced.lat.values())
    metrics["trace.overhead_s"] = over - base
    metrics["trace.overhead_share"] = (over - base) / base
    untraced.round_s = {"untraced": base, "traced": over}
    for name in ("attempted", "failed", "passed"):
        setattr(untraced, name, getattr(untraced, name) + getattr(traced, name))
    untraced.errors += traced.errors
    untraced.failures |= traced.failures
    return untraced, metrics


# -- entry point --------------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "torusdyn" / "__init__.py").is_file() or not FIXTURES.is_dir():
        print(f"torusdyn sources not found under {ROOT}: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    (OUT / "cli_stderr.txt").write_bytes(b"")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    setups = setup_seconds(args.workload, args.seed)
    with CalibratedClock() as clk:
        t0 = clk.now()
        ops, in_children = setup(args.workload, args.seed, clk)
        setups.append(clk.now() - t0 + in_children)
        if args.trace:
            tally, metrics = traced_run(args.workload, ops, clk, args.seed)
        else:
            tally = timed_run(args.workload, ops, clk, args.seconds)
            summary = summarize(tally)
            rss_kb = tally.maxrss_kb if args.workload == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {k: v for k, v in summary.items() if not k.startswith("_")}
            metrics["peak_rss_mb"] = rss_kb / 1024
            metrics["setup_s"] = statistics.median(setups)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "setups_s": setups,
            "errors": tally.errors[:20], "failed_ops": sorted(tally.failures)}
    if args.trace:
        info["round_s"] = tally.round_s
    else:
        info.update({k[1:]: v for k, v in summary.items() if k.startswith("_")}, rounds=tally.rounds)
    per_op = {k: statistics.median(v) for k, v in tally.lat.items()}
    units = {} if args.trace else {"maps_per_s": "maps/s", "peak_rss_mb": "MB"}
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units.get(k, _unit(k))} for k, v in metrics.items()},
    }
    (OUT / f"result_{args.workload}_{args.seed}_{args.trace}.json").write_text(json.dumps({"result": result, "info": info, "per_op_s": per_op}, indent=1))
    print(json.dumps(info), file=sys.stderr)
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name.endswith("_yield") or name.endswith("_per_attempt"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
