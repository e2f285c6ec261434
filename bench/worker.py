"""One workload process: set up, print ``ready``, run the closed loop, report.

Started by ``bench/run.py`` in a fresh interpreter with the repository root as
working directory.  Prints ``ready`` once the package is imported and the
first op's inputs are built, then (unless ``--setup-only``) one JSON line with
the loop's per-op latencies, failures and peak memory.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
MIN_OPS = {"full": 100, "tiny": 3}  # p90 needs >= 10 samples beyond it


def run_loop(workload, first, seconds: float, min_ops: int, tracer=None) -> dict:
    """Closed loop, one op at a time, until the ops have taken ``seconds``.

    Only ``Op.run`` is timed; preparing inputs and checking results happen
    between ops.  An op that raises or returns a wrong value counts as failed
    and the loop goes on.
    """
    durations: list[float] = []
    failures: list[str] = []
    op, busy, i = first, 0.0, 0
    while busy < seconds or i < min_ops:
        if op is None:
            op = workload.op(i)
        if tracer is not None:
            tracer.op_id = i
        start = perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:  # a raising op is a failed op, not a crash
            out, error = None, exc
        took = perf_counter() - start
        if tracer is not None:
            tracer.op_id = -1
        durations.append(took)
        busy += took
        if error is not None:
            failures.append(f"{op.label}: raised {error!r}")
        else:
            try:
                ok = op.check(out)
            except Exception as exc:  # a malformed result is a wrong result
                ok, error = False, exc
            if not ok:
                failures.append(f"{op.label}: wrong result {error or ''}")
        op, i = None, i + 1
    return {"durations": durations, "failures": failures, "busy_s": busy}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import softbayes.cli  # noqa: F401  (the import is part of set-up)
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    first = workload.op(0)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    result = {}
    if args.trace:
        import tracing

        result["shared_subexpr_share"] = workloads.shared_subexpr_share(workload.queries())
        tracer = tracing.Tracer()
        tracer.install()
    result.update(run_loop(workload, first, args.seconds, MIN_OPS[args.scale], tracer))
    if tracer is not None:
        result["layers"] = tracer.summary(result["busy_s"])
        tracer.write(ROOT / ".bench_out" / f"trace-{args.workload}.csv.gz")
    result["size"] = workload.size
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
