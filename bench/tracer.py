"""Layer-boundary tracer for the benchmark's traced runs.

The layers are the package's modules.  Each traced target is a public
function or method of one layer; while the tracer is installed, every
binding of that object (the defining module, the package namespace and any
module that imported the name, under whatever alias) is replaced by a
wrapper that records one span per call.  Nothing inside the package is
edited: spans are taken from outside, at the call boundary.

Spans live in flat in-memory arrays (function index, parent span, unit id,
start, end, raised) and are written out once, at the end of the run.  Self
time is a span's duration minus the time covered by its direct children.
The benchmark opens one root span per unit of work (a CLI job, a
``sample_shot`` call or an item), so every layer span has a parent chain
that ends at a unit, and the root spans' self time is the part of the timed
region that falls in no layer span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

PACKAGE = "qmeasure"

# (layer, metric name, attribute path inside the layer module).  A metric
# name is ``<layer>.<function>``; methods use their own name and
# ``__post_init__`` hooks use the class name, which keeps every metric name
# within 64 characters.
TARGETS = (
    ("cli", "cli.parse_scenario", "parse_scenario"),
    ("cli", "cli.execute", "execute"),
    ("qsa", "qsa.sample_shot", "sample_shot"),
    ("qsa", "qsa.run_trajectory", "run_trajectory"),
    ("qsa", "qsa.output_law", "output_law"),
    ("qsa", "qsa.verify_model", "verify_model"),
    ("qsa", "qsa.ShotResult", "ShotResult.__post_init__"),
    ("stochrep", "stochrep.from_realization", "from_realization"),
    ("stochrep", "stochrep.orthonormality_deviations",
     "StochasticRealization.orthonormality_deviations"),
    ("stochrep", "stochrep.instrument_of_sr", "instrument_of_sr"),
    ("stochrep", "stochrep.sr_invariants", "sr_invariants"),
    ("stochrep", "stochrep.factorize", "factorize"),
    ("stochrep", "stochrep.equivalent", "equivalent"),
    ("stochrep", "stochrep.apply_transform", "apply_transform"),
    ("stochrep", "stochrep.qsr_instrument", "qsr_instrument"),
    ("stochrep", "stochrep.joint_orthonormality_deviation",
     "QuantumStochasticRep.joint_orthonormality_deviation"),
    ("realization", "realization.canonicalize", "canonicalize"),
    ("realization", "realization.extract_vq", "extract_vq"),
    ("realization", "realization.instrument_of", "instrument_of"),
    ("realization", "realization.invariants", "invariants"),
    ("realization", "realization.compare_invariants", "compare_invariants"),
    ("realization", "realization.dilate", "dilate"),
    ("realization", "realization.apply_unitary_equivalence", "apply_unitary_equivalence"),
    ("instrument", "instrument.validate", "validate"),
    ("instrument", "instrument.instruments_equal", "instruments_equal"),
    ("instrument", "instrument.pov_measure", "pov_measure"),
    ("instrument", "instrument.predual_apply", "predual_apply"),
    ("qcore", "qcore.complete_to_unitary", "complete_to_unitary"),
    ("qcore", "qcore.spectral_decompose", "spectral_decompose"),
    ("qcore", "qcore.align_global_phase", "align_global_phase"),
    ("qcore", "qcore.UnitaryOperator", "UnitaryOperator.__post_init__"),
    ("qcore", "qcore.ProjectionValuedMeasure", "ProjectionValuedMeasure.__post_init__"),
    ("qcore", "qcore.DensityOperator", "DensityOperator.__post_init__"),
)
LAYERS = ("cli", "qsa", "stochrep", "realization", "instrument", "qcore")

# Return-value tags counted per target: factorize answers a refusal with a
# NotFactorizable value instead of raising.
_OUTCOME_TAGS = {
    "stochrep.factorize": lambda out: "refused" if type(out).__name__ == "NotFactorizable" else "accepted",
}


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Wraps the traced targets while installed and records their spans."""

    def __init__(self):
        self.names = [name for _, name, _ in TARGETS]
        self.root = len(TARGETS)  # function index of the benchmark's unit spans
        self._fn = array("i")
        self._parent = array("i")
        self._unit = array("i")
        self._start = array("d")
        self._end = array("d")
        self._raised = array("b")
        self._stack: list[int] = []
        self._unit_id = -1
        self.tags: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _open(self, fn: int) -> int:
        sid = len(self._fn)
        self._fn.append(fn)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._unit.append(self._unit_id)
        self._start.append(0.0)
        self._end.append(0.0)
        self._raised.append(0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, start: float, raised: bool) -> None:
        self._end[sid] = time.perf_counter()
        self._start[sid] = start
        self._raised[sid] = raised
        self._stack.pop()

    @contextmanager
    def unit(self, unit_id: int):
        """Root span for one unit of benchmark work."""
        self._unit_id = unit_id
        sid = self._open(self.root)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, start, False)

    def _wrap(self, fn: int, original):
        tag = _OUTCOME_TAGS.get(self.names[fn])

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = self._open(fn)
            start = time.perf_counter()
            raised = True
            try:
                out = original(*args, **kwargs)
                raised = False
            finally:
                self._close(sid, start, raised)
            if tag is not None:
                key = f"{self.names[fn]}.{tag(out)}"
                self.tags[key] = self.tags.get(key, 0) + 1
            return out

        return traced

    # -- install / restore ---------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"{PACKAGE}.{layer}")
        modules = _package_modules()
        try:
            for fn, (layer, _, path) in enumerate(TARGETS):
                owner = sys.modules[f"{PACKAGE}.{layer}"]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if cls_path else getattr(owner, attr)
                wrapper = self._wrap(fn, original)
                if cls_path:
                    self._patch(owner, attr, original, wrapper)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, original, wrapper)
        except BaseException:
            self.restore()
            raise

    def _patch(self, owner, name: str, original, wrapper) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) for every binding currently wrapped."""
        return list(self._patches)

    # -- results -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "fn": np.frombuffer(self._fn, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "unit": np.frombuffer(self._unit, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "raised": np.frombuffer(self._raised, dtype=np.int8).copy(),
        }

    def write(self, path) -> None:
        """Write every span to a compressed ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names + ["bench.unit"]), **self.arrays())

    def summary(self) -> dict:
        """Per-function and per-layer calls, self time and raised calls.

        Also returns ``uncovered_s`` and ``units_s``: the root spans' self
        time and total duration.
        """
        a = self.arrays()
        n_fn = len(TARGETS) + 1
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        calls = np.bincount(a["fn"], minlength=n_fn)
        self_s = np.bincount(a["fn"], weights=own, minlength=n_fn)
        incl_s = np.bincount(a["fn"], weights=dur, minlength=n_fn)
        raised = np.bincount(a["fn"], weights=a["raised"], minlength=n_fn)
        out = {"functions": {}, "layers": {l: {"calls": 0, "self_s": 0.0, "failed": 0} for l in LAYERS}}
        for fn, (layer, name, _) in enumerate(TARGETS):
            out["functions"][name] = {
                "calls": int(calls[fn]),
                "self_s": float(self_s[fn]),
                "inclusive_s": float(incl_s[fn]),
            }
            agg = out["layers"][layer]
            agg["calls"] += int(calls[fn])
            agg["self_s"] += float(self_s[fn])
            agg["failed"] += int(raised[fn])
        out["uncovered_s"] = float(self_s[self.root])
        out["units_s"] = float(incl_s[self.root])
        out["spans"] = int(len(dur))
        return out
