"""One workload process of the benchmark; started by ``run.py``, one per run.

Runs in a fresh interpreter so that set-up time and peak memory belong to
this workload alone.  With ``--setup-only`` it stops after set-up and
reports only that.  It prints one JSON object on its last stdout line.

Set-up time is the import of the package (which imports NumPy) plus the
program calls that turn the generated inputs into validated objects;
generating the raw inputs is not part of it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    import qmeasure

    where = Path(qmeasure.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"qmeasure imported from {where}, not from {SRC}")
    return qmeasure


def git_sha() -> str | None:
    """Commit of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """Threads OpenBLAS uses, asked from NumPy's bundled library if present."""
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def end_to_end(wl, res) -> dict:
    """Gated metrics in reference units, raw figures, and sample counts.

    A round is one item on extract and dilate, and one 1-step job plus one
    10-step job on simulate.  Its time in reference units is the sum, over
    its kinds of step, of each kind's median; medians per kind stay steady
    where a median of mixed kinds would jump between them.
    """
    import numpy as np

    round_ref = sum(float(np.median(v)) for v in res.step_ref.values())
    unit_s = np.array(res.unit_s)
    if wl.name == "simulate":
        lat_s = np.frombuffer(res.latency_ns, dtype=np.int64) * 1e-9
        latency_ref = float(np.median(np.frombuffer(res.latency_ref, dtype=np.float64)))
    else:
        lat_s, latency_ref = unit_s, round_ref
    p50, p90 = np.percentile(lat_s, [50, 90]) * 1e3
    return {
        "throughput_per_ref": res.round_work / round_ref,
        "latency_ref": latency_ref,
        "raw": {
            "throughput_per_s": res.work / float(unit_s.sum()),
            "latency_p50_ms": float(p50),
            "latency_p90_ms": float(p90),
            "reference_ms": float(np.median(np.frombuffer(res.ref_s, dtype=np.float64))) * 1e3,
        },
        "samples": {
            "throughput_units": len(unit_s),
            "latency_units": len(lat_s),
            "work": res.work,
            "reference_readings": len(res.ref_s),
        },
    }


def per_layer(tracer, wl, untraced, traced) -> tuple[dict, int]:
    """Per-layer metrics of the traced half, and the number of spans."""
    s = tracer.summary()
    out = {}
    for name, row in s["functions"].items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
    for layer, row in s["layers"].items():
        out[f"{layer}.self_s"] = row["self_s"]
        out[f"{layer}.calls"] = row["calls"]
        out[f"{layer}.failed"] = row["failed"]
    out["stochrep.factorize.accepted"] = tracer.tags.get("stochrep.factorize.accepted", 0)
    out["stochrep.factorize.refused"] = tracer.tags.get("stochrep.factorize.refused", 0)
    execute_s = s["functions"]["cli.execute"]["self_s"]
    out["cli.records_bytes"] = wl.records_bytes
    out["cli.records_bytes_per_s"] = wl.records_bytes / execute_s if execute_s > 0 else 0.0
    run_s = s["functions"]["qsa.run_trajectory"]["inclusive_s"]
    shot_s = s["functions"]["qsa.ShotResult"]["self_s"]
    out["qsa.validation_share"] = shot_s / run_s if run_s > 0 else 0.0
    out["trace.overhead_ratio"] = traced.timed_s / untraced.timed_s
    out["trace.uncovered_share"] = s["uncovered_s"] / s["units_s"] if s["units_s"] > 0 else 0.0
    return out, s["spans"]


def main(argv=None) -> int:
    start = time.perf_counter()
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--sizes", default=None, help="JSON object overriding the workload sizes")
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)

    _import_package()
    import_s = time.perf_counter() - start
    import workloads

    sizes = dict(workloads.SIZES[args.workload])
    if args.sizes:
        sizes.update(json.loads(args.sizes))
    workdir = Path(args.workdir)
    wl = workloads.WORKLOADS[args.workload](args.seed, sizes, workdir)
    t0 = time.perf_counter()
    wl.build()
    setup_s = import_s + (time.perf_counter() - t0)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = {"setup_s": setup_s, "sizes": sizes, "why": workloads.WHY[args.workload]}
    if not args.trace:
        res = wl.run(seconds=args.seconds)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out.update(end_to_end(wl, res))
        wl.recheck(res)
        runs = [res]
    else:
        from tracer import Tracer

        # Same work twice: untraced for half the budget, then traced.
        untraced = wl.run(seconds=args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = wl.run(plan=untraced.plan, tracer=tracer)
        finally:
            tracer.restore()
        out["per_layer"], out["spans"] = per_layer(tracer, wl, untraced, traced)
        tracer.write(workdir / f"spans-{args.workload}.npz")
        runs = [untraced, traced]
    out["plan"] = runs[-1].plan
    out["attempted"] = sum(r.attempted for r in runs)
    out["failed"] = sum(r.failed for r in runs)
    out["problems"] = [x for r in runs for x in r.problems][:20]
    notes: dict[str, int] = {}
    for r in runs:
        for k, v in r.notes.items():
            notes[k] = notes.get(k, 0) + v
    out["notes"] = notes
    out["provenance"] = provenance(args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
