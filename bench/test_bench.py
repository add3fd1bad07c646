"""Tests of the benchmark itself.  Run with ``python -m pytest bench``."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, _package_modules  # noqa: E402

TINY = {
    "simulate": {"shot_steps": 200},
    "extract": {"dim_s": 2, "dim_k": 4, "atoms": 2, "pool": 2},
    "dilate": {"dim_s": 2, "atoms": 2, "pool": 2},
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_prints_every_metric_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", str(trace)]
    assert run.main(argv, sizes=TINY[workload]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert details["provenance"]["seed"] == 3 and details["failed_ratio_base"] == result["attempted"]
    if not trace:
        samples = details["samples"]
        assert samples["latency_units"] >= 1 and samples["throughput_units"] >= 1
        assert samples["setup"] == run.SETUP_REPEATS + 1
        assert set(details["figures"]) == set(run.FIGURES[workload]) | {"reference_ms"}


def _bindings():
    out = {}
    for mod in _package_modules():
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    out[(mod.__name__, name, attr)] = member
    return out


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    wl = workloads.Extract(1, {**workloads.SIZES["extract"], **TINY["extract"]}, tmp_path)
    wl.build()
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        patched = tracer.patched
        res = wl.run(plan={"items": 2}, tracer=tracer)
    finally:
        tracer.restore()
    assert res.failed == 0 and tracer.summary()["functions"]["realization.extract_vq"]["calls"] > 0
    # Names imported across modules are wrapped everywhere they are bound.
    assert {getattr(owner, "__name__", "") for owner, name, _ in patched if name == "factorize"} >= {
        "qmeasure", "qmeasure.stochrep", "qmeasure.cli",
    }
    for owner, name, original in patched:
        assert getattr(owner, name) is original
    assert _bindings().keys() == before.keys()
    assert all(before[k] is v for k, v in _bindings().items())


def _corrupt(text: str, how: str) -> str:
    lines = text.splitlines(keepends=True)
    if how == "header":
        lines[0] = lines[0].replace("weight", "wieght")
    elif how == "missing row":
        del lines[-1]
    elif how == "norm":
        f = lines[1].rstrip("\n").split(",")
        f[5] = repr(float(f[5]) + 0.01)
        lines[1] = ",".join(f) + "\n"
    elif how == "weight":
        f = lines[2].rstrip("\n").split(",")
        f[4] = "1.5"
        lines[2] = ",".join(f) + "\n"
    return "".join(lines)


@pytest.mark.parametrize("how", ["header", "missing row", "norm", "weight"])
def test_corrupted_record_file_counts_as_failed(tmp_path, how):
    wl = workloads.Simulate(5, {**workloads.SIZES["simulate"], **TINY["simulate"]}, tmp_path)
    wl.build()
    shots, steps = wl.shot_steps // wl.steps[1], wl.steps[1]
    res = workloads.Result()
    path = tmp_path / "records.csv"
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        code = workloads.cli.main(["simulate", str(wl.scenario), "--shots", str(shots), "--steps",
                                   str(steps), "--output", str(path)])
    wl.check_job(res, "intact", code, report.getvalue(), path, shots, steps)
    assert res.failed == 0
    path.write_text(_corrupt(path.read_text(), how))
    wl.check_job(res, "corrupted", code, report.getvalue(), path, shots, steps)
    assert res.failed == 1 and res.problems[0].startswith("corrupted")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "extract", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
