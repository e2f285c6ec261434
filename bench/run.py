"""The softbayes benchmark: one workload, measured end to end or traced.

Run from the repository root:

    python3 bench/run.py --workload corpus-cli --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload corpus-cli --seed 1 --seconds 10 --trace 1
    python3 bench/run.py --workload corpus-cli --seed 1 --seconds 10 --repeat 10

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run, and ``--repeat K`` runs seeds seed .. seed+K-1 and
prints each metric's median and quartiles.  ``--workload all`` runs the four
workloads in turn.  Every metric is printed as ``name = value unit``; the last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` (named ``<workload>/<metric>`` for ``all``).  Each
run's metadata and metrics are also written to ``.bench_out/``.

Each workload runs in fresh interpreters started from here (see
``worker.py``), against the package source in ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402  (needs the bench directory on sys.path)

WORKLOADS = ("kernel-dense", "corpus-cli", "sweep-check", "netspec-dag")
SETUP_REPEATS = 9  # set-up-only interpreters per run, besides the measured one
IMPORTTIME_REPEATS = 5
WORKER_LIMIT_S = 150  # a worker still running after this is killed

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_ops_share", "ratio"),
    ("peak_rss_mb", "MiB"),
)


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, scale: str,
          trace: int = 0, setup_only: bool = False) -> tuple[float, dict | None]:
    """Start one worker; returns (seconds until it was ready, its result)."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--scale", scale,
        "--trace", str(trace),
    ] + (["--setup-only"] if setup_only else [])
    env = dict(os.environ, PYTHONHASHSEED="0")  # same string hashing in every run
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(cmd[2:])} exited {proc.returncode}")
    if setup_only:
        return ready, None
    return ready, json.loads(rest.strip().splitlines()[-1])


def import_times() -> dict[str, float]:
    """Median ``-X importtime`` self time per softbayes module, and the
    cumulative time of the whole package, in ms."""
    samples: dict[str, list[float]] = {}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for _ in range(IMPORTTIME_REPEATS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import softbayes.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        for line in done.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s+(\S+)$", line)
            if m is None:
                continue
            self_us, cumulative_us, module = int(m[1]), int(m[2]), m[3]
            if module == "softbayes":
                samples.setdefault("import.softbayes_ms", []).append(cumulative_us / 1000)
            elif module.startswith("softbayes."):
                key = f"import.{module.split('.', 1)[1]}_ms"
                samples.setdefault(key, []).append(self_us / 1000)
    return {
        f"import.{m}_ms": statistics.median(samples.get(f"import.{m}_ms", [0.0]))
        for m in ("softbayes",) + tracing.IMPORT_MODULES
    }


def measure(workload: str, seed: int, seconds: float, trace: int,
            scale: str = "full") -> dict:
    """One benchmark run: the result object, plus its metadata."""
    if trace:  # an untraced and a traced pass share the run time
        imports = import_times()
        _, plain = spawn(workload, seed, seconds / 2, scale)
        _, traced = spawn(workload, seed, seconds / 2, scale, trace=1)
        common = min(len(plain["durations"]), len(traced["durations"]))
        metrics = dict(traced["layers"])
        metrics["netspec.shared_subexpr_share"] = traced["shared_subexpr_share"]
        metrics["input.n"] = traced["size"]
        metrics.update(imports)
        metrics["trace.overhead_share"] = (
            sum(traced["durations"][:common]) / sum(plain["durations"][:common]) - 1
        )
        runs = [plain, traced]
        units = dict(tracing.layer_metrics())
    else:
        setups = [spawn(workload, seed, seconds, scale, setup_only=True)[0]
                  for _ in range(SETUP_REPEATS)]
        ready, run = spawn(workload, seed, seconds, scale)
        durations = run["durations"]
        metrics = {
            "setup_s": statistics.median(setups + [ready]),
            "ops_per_s": len(durations) / run["busy_s"],
            "op_p50_ms": statistics.median(durations) * 1000,
            "op_p90_ms": statistics.quantiles(durations, n=10, method="inclusive")[8] * 1000,
            "ok_ops_share": 1 - len(run["failures"]) / len(durations),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        runs = [run]
        units = dict(END_TO_END)
    attempted = sum(len(r["durations"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    return {
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
        "failures": failures,
        "meta": {
            "workload": workload,
            "seed": seed,
            "run_seconds": seconds,
            "trace": trace,
            "scale": scale,
            "input_n": runs[0]["size"],
            "samples": [len(r["durations"]) for r in runs],
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit(),
            "src_sha256": source_digest(),
        },
    }


def commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, which identifies a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "softbayes").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def report(run: dict) -> None:
    """Human-readable lines, and the record in .bench_out/."""
    meta, result = run["meta"], run["result"]
    print(f"# {json.dumps(meta)}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_ops_share = {result['failed'] / result['attempted']:.6g} ratio"
          f" ({result['failed']} of {result['attempted']} ops)")
    for line in run["failures"][:10]:
        print(f"FAILED {line}", file=sys.stderr)
    out = ROOT / ".bench_out" / f"result-{meta['workload']}-trace{meta['trace']}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(run, indent=1) + "\n")


def steadiness(workload: str, seed: int, seconds: float, trace: int, repeat: int) -> dict:
    """Run ``repeat`` seeds; print median, quartiles and spread per metric."""
    values: dict[str, list[float]] = {}
    correct, attempted, failed = True, 0, 0
    for k in range(repeat):
        run = measure(workload, seed + k, seconds, trace)["result"]
        correct &= run["correct"]
        attempted += run["attempted"]
        failed += run["failed"]
        for name, metric in run["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"# seed {seed + k}: " + ", ".join(
            f"{n}={m['value']:.5g}" for n, m in run["metrics"].items()
            if n in dict(END_TO_END)), flush=True)
    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        print(f"{name}: median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness report over this many seeds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "softbayes" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'softbayes'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            if args.repeat:
                print(f"## {name}")
                results[name] = steadiness(name, args.seed, args.seconds,
                                           args.trace, args.repeat)
            else:
                run = measure(name, args.seed, args.seconds, args.trace)
                report(run)
                results[name] = run["result"]
    except (WorkerError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
