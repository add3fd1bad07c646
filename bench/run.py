"""qmeasure benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 bench/run.py --workload {simulate,extract,dilate} --seed N \
        --seconds S --trace {0,1}

Each run starts a fresh worker process for the workload (see
``worker.py``).  Untraced runs (``--trace 0``) also start SETUP_REPEATS
set-up-only workers and report the median set-up time; they print the
end-to-end metrics.  Traced runs (``--trace 1``) time the calls into each
layer and print the per-layer metrics.

Output: a JSON line with the workload, why it was chosen, sample counts,
check results and the machine's provenance; then, as the last line, the
result object ``{"correct", "attempted", "failed", "metrics"}``.  The full
record is also written to ``.bench_work/`` in the checkout.

Exit code 0 when a result was printed; 1, with no result, when a worker
could not run (for example when the package source is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_work"
WORKLOADS = ("simulate", "extract", "dilate")
SETUP_REPEATS = 6  # set-up-only workers, half before and half after the measured one
DEADLINE_S = 170.0  # every run must end within 180 s
# One BLAS thread: the workload is a single closed-loop client, and on a
# shared 2-CPU machine a second BLAS thread stalls whenever a neighbour
# holds the other core.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_ref": "1/ref",
    "latency_ref": "ref",
}
# Raw wall-clock figures, under the workload's own names: (raw key, scale, unit).
FIGURES = {
    "simulate": {
        "shot_steps_per_s": ("throughput_per_s", 1.0, "1/s"),
        "shot_p50_us": ("latency_p50_ms", 1e3, "us"),
        "shot_p90_us": ("latency_p90_ms", 1e3, "us"),
    },
    "extract": {
        "realizations_per_s": ("throughput_per_s", 1.0, "1/s"),
        "realization_p50_ms": ("latency_p50_ms", 1.0, "ms"),
    },
    "dilate": {
        "instruments_per_s": ("throughput_per_s", 1.0, "1/s"),
        "instrument_p50_ms": ("latency_p50_ms", 1.0, "ms"),
    },
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") and not name.endswith("per_s"):
        return "s"
    if name.endswith("records_bytes"):
        return "B"
    if name.endswith("records_bytes_per_s"):
        return "B/s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


class WorkerFailed(RuntimeError):
    pass


def _worker(args, extra: list[str], deadline: float, sizes: dict | None) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--workdir", str(WORKDIR),
        *extra,
    ]
    if sizes:
        cmd += ["--sizes", json.dumps(sizes)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("no time left for the worker")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
            env={**os.environ, **WORKER_ENV},
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise WorkerFailed(f"worker printed no result:\n{proc.stderr.strip()}") from exc


def run(args, sizes: dict | None = None) -> tuple[dict, dict]:
    """Run one benchmark invocation; returns (details, result object)."""
    deadline = time.monotonic() + DEADLINE_S
    WORKDIR.mkdir(exist_ok=True)
    repeats = 0 if args.trace else SETUP_REPEATS
    setups = [_worker(args, ["--setup-only"], deadline, sizes)["setup_s"] for _ in range(repeats // 2)]
    main = _worker(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline, sizes)
    setups.append(main["setup_s"])
    setups += [_worker(args, ["--setup-only"], deadline, sizes)["setup_s"] for _ in range(repeats - repeats // 2)]
    main["setup_s"] = statistics.median(setups)
    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in main["per_layer"].items()}
    else:
        metrics = {k: {"value": main[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    result = {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }
    samples = dict(main.get("samples", {}), setup=len(setups))
    details = {
        "workload": args.workload,
        "why": main["why"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
        "failed_ratio": main["failed"] / main["attempted"],
        "failed_ratio_base": main["attempted"],
        "problems": main["problems"],
        "notes": main["notes"],
        "plan": main["plan"],
        "sizes": main["sizes"],
        "provenance": main["provenance"],
    }
    if not args.trace:
        raw = main["raw"]
        details["figures"] = {
            name: {"value": raw[key] * scale, "unit": unit}
            for name, (key, scale, unit) in FIGURES[args.workload].items()
        }
        details["figures"]["reference_ms"] = {"value": raw["reference_ms"], "unit": "ms"}
    return details, result


def main(argv=None, sizes: dict | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        details, result = run(args, sizes)
    except WorkerFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORKDIR / name).write_text(json.dumps({"details": details, "result": result}, indent=2))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
