"""One torusdyn command, timed from inside its own process.

    cli_child.py SUMMARY_JSON TRACE <torusdyn arguments>

Starts the calibrated clock, imports torusdyn.cli and runs its main() on the
arguments; standard output and the exit code are the command's own.  A
reference loop in the parent process does not track a child's speed, so the
child times itself and writes to SUMMARY_JSON its calibrated and raw time
and the reference time spent before timing began.  With TRACE = 1 the
tracer is installed after the import, and the per-span self times and
result tallies are written too, and the spans go to a .npz file beside it.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from clock import CalibratedClock  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    summary, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, str(HERE.parent / "src"))
    tr = None
    with CalibratedClock() as clk:
        pre_ref = clk.ref_seconds
        t0, r0 = clk.now(), time.perf_counter()
        import torusdyn.cli

        if trace:
            tr = Tracer(clk.now)
            tr.record("cli.import", t0, clk.now())
            tr.install()
        try:
            rc = torusdyn.cli.main(argv)
        finally:
            if tr is not None:
                tr.uninstall()
            sys.stdout.flush()
        t1, r1 = clk.now(), time.perf_counter()
        ref_inside = clk.ref_seconds - pre_ref
    doc = {"cal_s": t1 - t0, "raw_s": r1 - r0, "ref_inside_s": ref_inside, "pre_ref_s": pre_ref}
    if tr is not None:
        doc.update(times=tr.self_times(), tally=tr.tally)
        tr.save(summary[: -len(".json")] + ".npz")
    Path(summary).write_text(json.dumps(doc))
    return rc


if __name__ == "__main__":
    sys.exit(main())
