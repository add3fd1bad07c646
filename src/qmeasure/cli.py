"""Command-line front end: scenario files in, reports and record files out.

Scenario files are JSON objects with top-level keys ``dim_s``, ``outcomes``,
an optional ``measure`` (label to weight), an optional ``tol`` (number, or
object with ``default`` and ``cluster``), and exactly one payload among
``instrument``, ``realization``, ``stochastic_realization`` and ``model``.
Complex scalars are written as two-element ``[re, im]`` arrays, matrices as
arrays of row arrays.  ``eta`` and ``pointers`` may appear at top level for
the von-neumann command.

Reports print to stdout as JSON (default) or CSV; `simulate` additionally
writes sampled records to a CSV file whose header is
``step,outcome,channel,prob,weight,state_re...,state_im...``.

Exit codes: 0 when every check passed, 1 when a check failed, 2 on a parse
or validation problem (including a command applied to the wrong payload) or
an output file that cannot be written.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .qcore import (
    CLUSTER_TOL,
    DEFAULT_TOL,
    DensityOperator,
    DimensionMismatch,
    FiniteMeasure,
    OutcomeSpace,
    ProjectionValuedMeasure,
    UnitaryOperator,
)
from .instrument import (
    KrausInstrument,
    instruments_equal,
    outcome_distribution,
    validate as validate_instrument,
    von_neumann_instrument,
)
from .realization import (
    StatisticalRealization,
    compare_invariants,
    dilate,
    instrument_of,
    invariants,
    von_neumann_process,
)
from .stochrep import (
    NotFactorizable,
    StochasticRealization,
    equivalent,
    factorize,
    from_realization,
    instrument_of_sr,
    qsr_instrument,
    sr_invariants,
)
from .qsa import MeasurementModel, ShotBatch, output_law, sample_batch, verify_model
from . import __version__

__all__ = [
    "ParseError",
    "ValidationError",
    "IncompatiblePayload",
    "OutputError",
    "Scenario",
    "Report",
    "CheckResult",
    "parse_scenario",
    "parse_scenario_text",
    "serialize_scenario",
    "execute",
    "main",
]

PAYLOAD_KEYS = ("instrument", "realization", "stochastic_realization", "model")
COMMANDS = (
    "validate",
    "dilate",
    "invariants",
    "extract-qsr",
    "compare",
    "von-neumann",
    "simulate",
    "verify",
)


class ParseError(ValueError):
    """The scenario file is structurally malformed; message names the field."""


class ValidationError(ValueError):
    """The scenario parsed but a payload invariant failed."""


class IncompatiblePayload(ValueError):
    """The requested command does not apply to the scenario's payload kind."""


class OutputError(ValueError):
    """An output file could not be written; the message names the path."""


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _number(x, path: str) -> float:
    """A finite JSON number; booleans, NaN and the infinities are refused."""
    if isinstance(x, bool):
        raise ParseError(f"{path}: expected a number, got a boolean")
    if not isinstance(x, (int, float)):
        raise ParseError(f"{path}: expected a number")
    try:
        value = float(x)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ParseError(f"{path}: expected a finite number, got {x!r}")
    return value


def _entry(x, path: str) -> complex:
    if isinstance(x, list):
        if len(x) != 2:
            raise ParseError(f"{path}: expected a number or [re, im] pair")
        return complex(_number(x[0], f"{path}[0]"), _number(x[1], f"{path}[1]"))
    return complex(_number(x, path))


def _array(x, path: str, depth: int) -> np.ndarray:
    """Nested lists of entries, with the leaf level ``depth`` levels down."""

    def build(node, p, d):
        if d == 0:
            return _entry(node, p)
        if not isinstance(node, list) or not node:
            raise ParseError(f"{p}: expected a non-empty array")
        return [build(v, f"{p}[{i}]", d - 1) for i, v in enumerate(node)]

    nested = build(x, path, depth)
    try:
        arr = np.array(nested)
    except ValueError as exc:
        raise ParseError(f"{path}: ragged array (inconsistent row lengths)") from exc
    if arr.dtype == object or arr.ndim != depth:
        raise ParseError(f"{path}: ragged array (inconsistent row lengths)")
    return arr


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ParseError(f"{path}: missing required key {key!r}")
    return obj[key]


@dataclass(frozen=True, eq=False)
class Scenario:
    """A parsed scenario: outcome structure, one payload, and parameters."""

    dim_s: int
    space: OutcomeSpace
    measure: FiniteMeasure | None
    kind: str
    payload: object
    tol: float
    cluster_tol: float
    eta: np.ndarray | None
    pointers: np.ndarray | None
    digest: str
    raw: dict


def _build_instrument(obj, space: OutcomeSpace, dim_s: int) -> KrausInstrument:
    if not isinstance(obj, dict):
        raise ParseError("instrument: expected an object mapping labels to Kraus lists")
    unknown = set(obj) - set(space.labels)
    if unknown:
        raise ParseError(f"instrument: unknown outcome labels {sorted(unknown)}")
    table = {}
    for lab, ops in obj.items():
        if not isinstance(ops, list):
            raise ParseError(f"instrument.{lab}: expected an array of matrices")
        mats = []
        for k, m in enumerate(ops):
            arr = _array(m, f"instrument.{lab}[{k}]", 2)
            if arr.shape != (dim_s, dim_s):
                raise ParseError(
                    f"instrument.{lab}[{k}]: shape {arr.shape}, expected ({dim_s}, {dim_s})"
                )
            mats.append(arr)
        table[lab] = mats
    try:
        return KrausInstrument(space, table, dim_s)
    except DimensionMismatch as exc:
        raise ParseError(f"instrument: {exc}") from exc


def _build_realization(obj, space: OutcomeSpace, dim_s: int) -> StatisticalRealization:
    if not isinstance(obj, dict):
        raise ParseError("realization: expected an object with keys s, pvm, u")
    s_arr = _array(_require(obj, "s", "realization"), "realization.s", 2)
    pvm_obj = _require(obj, "pvm", "realization")
    if not isinstance(pvm_obj, dict):
        raise ParseError("realization.pvm: expected an object mapping labels to matrices")
    missing = set(space.labels) - set(pvm_obj)
    if missing:
        raise ParseError(f"realization.pvm: missing atoms {sorted(missing)}")
    unknown = set(pvm_obj) - set(space.labels)
    if unknown:
        raise ParseError(f"realization.pvm: unknown outcome labels {sorted(unknown)}")
    blocks = tuple(
        _array(pvm_obj[lab], f"realization.pvm.{lab}", 2) for lab in space.labels
    )
    u_arr = _array(_require(obj, "u", "realization"), "realization.u", 2)
    dk = s_arr.shape[0]
    if u_arr.shape != (dim_s * dk, dim_s * dk):
        raise ParseError(
            f"realization.u: shape {u_arr.shape}, expected ({dim_s * dk}, {dim_s * dk})"
        )
    try:
        s = DensityOperator(s_arr)
        pvm = ProjectionValuedMeasure(space, blocks)
        u = UnitaryOperator(u_arr)
        return StatisticalRealization(dim_s, s, pvm, u)
    except DimensionMismatch as exc:
        raise ParseError(f"realization: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"realization: {exc}") from exc


def _parse_beta(obj, path: str) -> tuple[tuple[float, int], ...]:
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{path}: expected a non-empty array of weights")
    out = []
    for i, item in enumerate(obj):
        if not isinstance(item, list):
            out.append((_number(item, f"{path}[{i}]"), 1))
        elif len(item) == 2 and isinstance(item[1], int) and not isinstance(item[1], bool):
            out.append((_number(item[0], f"{path}[{i}][0]"), item[1]))
        else:
            raise ParseError(
                f"{path}[{i}]: expected a weight or a [weight, multiplicity] pair"
            )
    return tuple(out)


def _build_sr(
    obj, space: OutcomeSpace, dim_s: int, measure: FiniteMeasure | None, path: str
) -> StochasticRealization:
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected an object with keys beta, q, w")
    beta = _parse_beta(_require(obj, "beta", path), f"{path}.beta")
    q = _array(_require(obj, "q", path), f"{path}.q", 4)
    w = _array(_require(obj, "w", path), f"{path}.w", 6)
    if q.shape[3] != space.size:
        raise ParseError(
            f"{path}.q: covers {q.shape[3]} atoms, outcome space has {space.size}"
        )
    if w.shape[:4] != q.shape or w.shape[4] != dim_s or w.shape[5] != dim_s:
        raise ParseError(
            f"{path}.w: shape {w.shape} inconsistent with q {q.shape} and dim_s {dim_s}"
        )
    if "multiplicity" in obj:
        mobj = obj["multiplicity"]
        if (
            not isinstance(mobj, list)
            or len(mobj) != space.size
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in mobj)
        ):
            raise ParseError(
                f"{path}.multiplicity: expected {space.size} integers, one per atom"
            )
        mult = tuple(int(v) for v in mobj)
    else:
        mult = (q.shape[2],) * space.size
    nu = measure if measure is not None else FiniteMeasure.uniform(space)
    try:
        return StochasticRealization(space, nu, beta, mult, q, w)
    except DimensionMismatch as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _build_model(
    obj, space: OutcomeSpace, dim_s: int, measure: FiniteMeasure | None, cluster_tol: float
) -> MeasurementModel:
    sr = _build_sr(obj, space, dim_s, measure, "model")
    result = factorize(sr, tol=cluster_tol)
    if isinstance(result, NotFactorizable):
        raise ValidationError(f"model: {result}")
    if "initial_state" in obj:
        psi = _array(obj["initial_state"], "model.initial_state", 1)
        if psi.size != dim_s:
            raise ParseError(
                f"model.initial_state: length {psi.size}, expected {dim_s}"
            )
        initial: object = psi
    elif "initial_density" in obj:
        rho = _array(obj["initial_density"], "model.initial_density", 2)
        if rho.shape != (dim_s, dim_s):
            raise ParseError(
                f"model.initial_density: shape {rho.shape}, expected ({dim_s}, {dim_s})"
            )
        try:
            initial = DensityOperator(rho)
        except ValueError as exc:
            raise ValidationError(f"model.initial_density: {exc}") from exc
    else:
        raise ParseError("model: missing initial_state (or initial_density)")
    try:
        return MeasurementModel(result, initial)
    except ValueError as exc:
        raise ValidationError(f"model: {exc}") from exc


def parse_scenario_text(text: str) -> Scenario:
    """Parse and validate a scenario from its JSON text."""
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError("top level: expected a JSON object")
    dim_s = _require(raw, "dim_s", "top level")
    if not isinstance(dim_s, int) or isinstance(dim_s, bool) or dim_s < 1:
        raise ParseError("dim_s: expected a positive integer")
    outcomes = _require(raw, "outcomes", "top level")
    if not isinstance(outcomes, list) or not all(isinstance(x, str) for x in outcomes):
        raise ParseError("outcomes: expected an array of labels")
    try:
        space = OutcomeSpace(tuple(outcomes))
    except ValueError as exc:
        raise ParseError(f"outcomes: {exc}") from exc
    measure = None
    if "measure" in raw:
        mobj = raw["measure"]
        if not isinstance(mobj, dict):
            raise ParseError("measure: expected an object mapping labels to weights")
        unknown = set(mobj) - set(space.labels)
        if unknown:
            raise ParseError(f"measure: unknown outcome labels {sorted(unknown)}")
        weights = {lab: _number(wv, f"measure.{lab}") for lab, wv in mobj.items()}
        try:
            measure = FiniteMeasure.from_dict(space, weights)
        except ValueError as exc:
            raise ValidationError(f"measure: {exc}") from exc
    tol = DEFAULT_TOL
    cluster_tol = CLUSTER_TOL
    if "tol" in raw:
        tobj = raw["tol"]
        if isinstance(tobj, dict):
            if "default" in tobj:
                tol = _number(tobj["default"], "tol.default")
            if "cluster" in tobj:
                cluster_tol = _number(tobj["cluster"], "tol.cluster")
        else:
            tol = _number(tobj, "tol")
        if tol <= 0 or cluster_tol <= 0:
            raise ParseError("tol: tolerances must be positive")
    present = [k for k in PAYLOAD_KEYS if k in raw]
    if len(present) != 1:
        raise ParseError(
            f"top level: expected exactly one of {PAYLOAD_KEYS}, found {present or 'none'}"
        )
    kind = present[0]
    if kind == "instrument":
        payload: object = _build_instrument(raw[kind], space, dim_s)
    elif kind == "realization":
        payload = _build_realization(raw[kind], space, dim_s)
    elif kind == "stochastic_realization":
        payload = _build_sr(raw[kind], space, dim_s, measure, kind)
    else:
        payload = _build_model(raw[kind], space, dim_s, measure, cluster_tol)
    eta = _array(raw["eta"], "eta", 1) if "eta" in raw else None
    pointers = _array(raw["pointers"], "pointers", 2) if "pointers" in raw else None
    return Scenario(
        dim_s, space, measure, kind, payload, tol, cluster_tol, eta, pointers, digest, raw
    )


def parse_scenario(path: str) -> Scenario:
    """Read a scenario file. See :func:`parse_scenario_text`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_scenario_text(text)


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario back to JSON text.

    Parsing the output yields a scenario with bit-identical numeric fields,
    since the emitted values are the parsed ones and JSON round-trips floats
    exactly through their shortest decimal form.
    """
    return json.dumps(scenario.raw, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, float) and not np.isfinite(x):
        return repr(x)
    return x


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class Report:
    """Command output: named checks, numeric tables, and provenance."""

    command: str
    checks: tuple[CheckResult, ...]
    tables: dict
    provenance: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        body = {
            "command": self.command,
            "passed": bool(self.passed),
            "checks": [
                {
                    "name": c.name,
                    "passed": bool(c.passed),
                    "value": _jsonable(c.value),
                    "detail": c.detail,
                }
                for c in self.checks
            ],
            "tables": _jsonable(self.tables),
            "provenance": _jsonable(self.provenance),
        }
        return json.dumps(body, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("kind,name,passed,value,detail\n")
        for c in self.checks:
            val = "" if c.value is None else repr(float(c.value))
            detail = c.detail.replace('"', "'")
            out.write(f'check,{c.name},{str(c.passed).lower()},{val},"{detail}"\n')
        for name, table in sorted(self.tables.items()):
            blob = json.dumps(_jsonable(table), sort_keys=True).replace('"', "'")
            out.write(f'table,{name},,,"{blob}"\n')
        for key, val in sorted(self.provenance.items()):
            out.write(f'provenance,{key},,,"{val}"\n')
        return out.getvalue()


def _provenance(scenario: Scenario, seed: int | None = None) -> dict:
    return {"digest": scenario.digest, "seed": seed, "version": __version__}


def _resolve_instrument(scenario: Scenario) -> KrausInstrument:
    if scenario.kind == "instrument":
        return scenario.payload
    if scenario.kind == "realization":
        return instrument_of(scenario.payload)
    if scenario.kind == "stochastic_realization":
        return instrument_of_sr(scenario.payload, tol=scenario.tol)
    return qsr_instrument(scenario.payload.qsr, tol=scenario.tol)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_validate(scenario: Scenario, options: dict) -> Report:
    tol = options.get("tol") or scenario.tol
    inst = _resolve_instrument(scenario)
    rep = validate_instrument(inst, tol)
    worst = min(rep.min_choi_eigenvalues)
    checks = (
        CheckResult(
            "completeness",
            rep.completeness_deviation <= tol,
            rep.completeness_deviation,
            f"max |sum A^dag A - I|, tol {tol:g}",
        ),
        CheckResult(
            "complete-positivity",
            worst >= -tol,
            worst,
            "min eigenvalue over per-atom Choi matrices",
        ),
    )
    tables = {
        "min_choi_eigenvalues": dict(zip(inst.space.labels, rep.min_choi_eigenvalues)),
        "kraus_counts": {lab: len(ops) for lab, ops in zip(inst.space.labels, inst.kraus)},
    }
    return Report("validate", checks, tables, _provenance(scenario))


def _cmd_dilate(scenario: Scenario, options: dict) -> Report:
    if scenario.kind != "instrument":
        raise IncompatiblePayload("dilate needs an instrument payload")
    tol = options.get("tol") or scenario.tol
    mode = options.get("mode") or "minimal"
    t = scenario.payload
    g = dilate(t, mode)
    rebuilt = instrument_of(g)
    ok = instruments_equal(t, rebuilt, tol)
    checks = (
        CheckResult(
            "round-trip",
            ok,
            None,
            f"instrument_of(dilate(t)) Choi-equal to t at tol {tol:g}, mode {mode}",
        ),
    )
    tables = {
        "ancilla_dim": g.dim_k,
        "pvm_ranks": dict(zip(g.space.labels, g.p.ranks)),
        "mode": mode,
    }
    return Report("dilate", checks, tables, _provenance(scenario))


def _theta_table(space: OutcomeSpace, theta: np.ndarray) -> dict:
    return {lab: theta[a] for a, lab in enumerate(space.labels)}


def _cmd_invariants(scenario: Scenario, options: dict) -> Report:
    tol = options.get("tol") or scenario.tol
    if scenario.kind == "realization":
        rec = invariants(scenario.payload)
    elif scenario.kind == "stochastic_realization":
        rec = sr_invariants(scenario.payload)
    else:
        raise IncompatiblePayload(
            "invariants needs a realization or stochastic_realization payload"
        )
    weight_sum = sum(b * k for b, k in rec.beta_profile)
    nu_sums = rec.channel_nu.sum(axis=1)
    checks = [
        CheckResult("weights-normalized", abs(weight_sum - 1.0) <= tol, abs(weight_sum - 1.0)),
        CheckResult(
            "channel-measures-normalized",
            bool(np.all(np.abs(nu_sums - 1.0) <= tol)),
            float(np.max(np.abs(nu_sums - 1.0))),
        ),
    ]
    tables = {
        "support": list(rec.support),
        "multiplicity": dict(zip(rec.space.labels, rec.multiplicity)),
        "channel_nu": [dict(zip(rec.space.labels, row)) for row in rec.channel_nu],
        "total_nu": dict(zip(rec.space.labels, rec.total_nu)),
        "channel_theta": [_theta_table(rec.space, t) for t in rec.channel_theta],
        "total_theta": _theta_table(rec.space, rec.total_theta),
    }
    profile = [list(p) for p in rec.beta_profile]
    if scenario.kind == "realization":
        mix = np.array([b * k for b, k in rec.beta_profile])
        total_dev = float(np.max(np.abs(mix @ rec.channel_nu - rec.total_nu)))
        checks.append(CheckResult("total-measure-consistency", total_dev <= tol, total_dev))
        tables["eigenvalue_profile"] = profile
    else:
        dens_dev = rec.densities.integral_deviation()
        checks.append(CheckResult("density-integral", dens_dev <= tol, dens_dev))
        tables["beta_profile"] = profile
        tables["channel_densities"] = rec.densities.channel
    return Report("invariants", tuple(checks), tables, _provenance(scenario))


def _cmd_extract_qsr(scenario: Scenario, options: dict) -> Report:
    if scenario.kind == "realization":
        sr = from_realization(scenario.payload)
    elif scenario.kind == "stochastic_realization":
        sr = scenario.payload
    else:
        raise IncompatiblePayload(
            "extract-qsr needs a realization or stochastic_realization payload"
        )
    tol = options.get("tol") or scenario.cluster_tol
    result = factorize(sr, tol=tol)
    if isinstance(result, NotFactorizable):
        checks = (CheckResult("factorizable", False, result.residual, str(result)),)
        return Report("extract-qsr", checks, {}, _provenance(scenario))
    dev = result.joint_orthonormality_deviation()
    rebuilt = qsr_instrument(result)
    ok = instruments_equal(rebuilt, instrument_of_sr(sr, tol=max(tol, scenario.tol)), max(tol, scenario.tol))
    checks = (
        CheckResult("factorizable", True, None, "operator tables split as Pi times q"),
        CheckResult("joint-orthonormality", dev <= max(tol, scenario.tol), dev),
        CheckResult("instrument-round-trip", ok, None, f"Choi comparison at tol {max(tol, scenario.tol):g}"),
    )
    tables = {
        "profile": [list(p) for p in result.profile],
        "pi": [_theta_table(result.space, t) for t in result.pi],
        "channel_nu": [dict(zip(result.space.labels, row)) for row in result.channel_nu],
    }
    return Report("extract-qsr", checks, tables, _provenance(scenario))


def _cmd_compare(scenario: Scenario, options: dict) -> Report:
    against = options.get("against")
    if against is None:
        raise IncompatiblePayload("compare needs a second scenario via --against")
    other = against if isinstance(against, Scenario) else parse_scenario(against)
    if other.kind != scenario.kind:
        raise IncompatiblePayload(
            f"cannot compare payload kinds {scenario.kind!r} and {other.kind!r}"
        )
    tol = options.get("tol") or scenario.tol
    if scenario.kind == "instrument":
        same = instruments_equal(scenario.payload, other.payload, tol)
        checks = (CheckResult("instruments-equal", same, None, f"per-atom Choi comparison at tol {tol:g}"),)
        tables = {}
    elif scenario.kind == "realization":
        comp = compare_invariants(invariants(scenario.payload), invariants(other.payload))
        same_inst = instruments_equal(
            instrument_of(scenario.payload), instrument_of(other.payload), tol
        )
        checks = (
            CheckResult("invariants-equal", comp.equal(tol), max(comp.nu_deviation, comp.theta_deviation)),
            CheckResult("instruments-equal", same_inst, None),
        )
        tables = {
            "nu_deviation": comp.nu_deviation,
            "theta_deviation": comp.theta_deviation,
            "structure_equal": comp.structure_equal,
        }
    elif scenario.kind == "stochastic_realization":
        same = equivalent(scenario.payload, other.payload, tol)
        same_inst = instruments_equal(
            instrument_of_sr(scenario.payload, tol=tol),
            instrument_of_sr(other.payload, tol=tol),
            tol,
        )
        checks = (
            CheckResult("equivalent", same, None, "invariant-record comparison"),
            CheckResult("instruments-equal", same_inst, None),
        )
        tables = {}
    else:
        raise IncompatiblePayload("compare does not accept model payloads")
    tables["against_digest"] = other.digest
    return Report("compare", checks, tables, _provenance(scenario))


def _cmd_von_neumann(scenario: Scenario, options: dict) -> Report:
    if scenario.kind != "instrument":
        raise IncompatiblePayload("von-neumann needs an instrument payload of projections")
    t = scenario.payload
    tol = options.get("tol") or scenario.tol
    pairs = []
    for lab, ops in zip(t.space.labels, t.kraus):
        if len(ops) != 1:
            raise IncompatiblePayload(
                f"von-neumann needs exactly one projection per atom; {lab!r} has {len(ops)}"
            )
        pairs.append((lab, ops[0]))
    m = len(pairs)
    eta = scenario.eta if scenario.eta is not None else np.ones(m, dtype=complex) / np.sqrt(m)
    g = von_neumann_process(pairs, eta, scenario.pointers)
    expected = von_neumann_instrument(pairs)
    ok = instruments_equal(instrument_of(g), expected, tol)
    inv = invariants(g)
    checks = (
        CheckResult("projective-round-trip", ok, None, f"Choi comparison at tol {tol:g}"),
    )
    tables = {
        "total_nu": dict(zip(inv.space.labels, inv.total_nu)),
        "eigenvalue_profile": [list(p) for p in inv.beta_profile],
        "ancilla_dim": g.dim_k,
    }
    return Report("von-neumann", checks, tables, _provenance(scenario))


# Sampler work per chunk, in amplitude entries (trajectories x steps x
# channels x atoms x system dim).  simulate samples and writes as many
# trajectories at a time as fit, so its memory does not grow with --shots
# or with the model size; a chunk has at least one trajectory.
SIMULATE_CHUNK_CELLS = 1 << 15


def _chunk_size(model: MeasurementModel, steps: int) -> int:
    """Trajectories per sampler call for ``steps``-step trajectories."""
    return max(1, SIMULATE_CHUNK_CELLS // (model.qsr.pi[..., 0].size * steps))


def _record_header(dim_s: int) -> str:
    head = ["step", "outcome", "channel", "prob", "weight"]
    head += [f"state_re_{i}" for i in range(dim_s)]
    head += [f"state_im_{i}" for i in range(dim_s)]
    return ",".join(head) + "\n"


def _record_rows(batch: ShotBatch) -> str:
    """Record rows of a batch, trajectory by trajectory, floats as ``repr``."""
    count, steps = batch.outcome.shape
    numbers = np.concatenate(
        (
            batch.probability[..., None],
            batch.weight[..., None],
            batch.posterior.real,
            batch.posterior.imag,
        ),
        axis=-1,
    ).reshape(count * steps, -1)
    step_text = [str(t) for t in range(steps)] * count
    labels = [batch.labels[a] for a in batch.outcome.ravel().tolist()]
    return "".join(
        f"{t},{lab},{c},{','.join(map(repr, row))}\n"
        for t, lab, c, row in zip(
            step_text, labels, batch.channel.ravel().tolist(), numbers.tolist()
        )
    )


def _cmd_simulate(scenario: Scenario, options: dict) -> Report:
    if scenario.kind != "model":
        raise IncompatiblePayload("simulate needs a model payload")
    model: MeasurementModel = scenario.payload
    seed = options.get("seed", 0)
    shots = options.get("shots", 1000)
    steps = options.get("steps", 1)
    out_path = options.get("output") or "records.csv"
    if shots < 1 or steps < 1:
        raise IncompatiblePayload("simulate needs shots >= 1 and steps >= 1")
    qsr = model.qsr
    chunk = _chunk_size(model, steps)
    rng = np.random.default_rng(seed)
    atom_counts = np.zeros(qsr.space.size, dtype=np.int64)
    channel_counts = np.zeros(qsr.channel_count, dtype=np.int64)
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(_record_header(scenario.dim_s))
            for start in range(0, shots, chunk):
                batch = sample_batch(model, min(chunk, shots - start), steps, rng)
                fh.write(_record_rows(batch))
                atom_counts += np.bincount(batch.outcome[:, 0], minlength=qsr.space.size)
                channel_counts += np.bincount(batch.channel[:, 0], minlength=qsr.channel_count)
    except OSError as exc:
        raise OutputError(f"cannot write records to {out_path}: {exc}") from exc
    analytic = output_law(model).total
    counts = dict(zip(scenario.space.labels, atom_counts.tolist()))
    worst_sigma = 0.0
    for lab in scenario.space.labels:
        p = analytic.weight(lab)
        if p <= 0 or p >= 1:
            continue
        sigma = np.sqrt(p * (1 - p) / shots)
        worst_sigma = max(worst_sigma, abs(counts[lab] / shots - p) / sigma)
    checks = (
        CheckResult(
            "within-3-sigma",
            worst_sigma <= 3.0,
            worst_sigma,
            "worst first-step atom frequency deviation, binomial sigma units",
        ),
    )
    tables = {
        "empirical": {lab: counts[lab] / shots for lab in scenario.space.labels},
        "analytic": {lab: analytic.weight(lab) for lab in scenario.space.labels},
        "channel_frequencies": {
            str(k): n / shots for k, n in enumerate(channel_counts.tolist()) if n
        },
        "records": out_path,
        "shots": shots,
        "steps": steps,
    }
    return Report("simulate", checks, tables, _provenance(scenario, seed))


def _cmd_verify(scenario: Scenario, options: dict) -> Report:
    if scenario.kind != "model":
        raise IncompatiblePayload("verify needs a model payload")
    tol = options.get("tol") or scenario.tol
    rep = verify_model(scenario.payload, tol)
    checks = [
        CheckResult(
            "posterior-orthonormality",
            rep.operator_orthonormality <= tol,
            rep.operator_orthonormality,
        ),
        CheckResult("prior-average", rep.prior_deviation <= tol, rep.prior_deviation),
        CheckResult("pov-identity", rep.pov_deviation <= tol, rep.pov_deviation),
    ]
    if rep.pure_orthonormality is not None:
        checks.insert(
            1,
            CheckResult(
                "pure-state-orthonormality",
                rep.pure_orthonormality <= tol,
                rep.pure_orthonormality,
            ),
        )
    inst = qsr_instrument(scenario.payload.qsr, tol=float("inf"))
    dist = outcome_distribution(inst, scenario.payload.density)
    tables = {
        "outcome_distribution": dict(zip(dist.space.labels, dist.weights)),
        "profile": [list(p) for p in scenario.payload.qsr.profile],
    }
    return Report("verify", checks, tables, _provenance(scenario))


_HANDLERS = {
    "validate": _cmd_validate,
    "dilate": _cmd_dilate,
    "invariants": _cmd_invariants,
    "extract-qsr": _cmd_extract_qsr,
    "compare": _cmd_compare,
    "von-neumann": _cmd_von_neumann,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def execute(scenario: Scenario, command: str, options: Mapping | None = None) -> Report:
    """Run one command against a parsed scenario and return its report.

    Operation-level failures (an invalid family handed to a constructor, an
    unsatisfiable request) are rendered as failing checks, not exceptions;
    payload/command mismatches raise :class:`IncompatiblePayload` and an
    unwritable record file raises :class:`OutputError`.
    """
    if command not in _HANDLERS:
        raise IncompatiblePayload(f"unknown command {command!r}")
    opts = dict(options or {})
    try:
        return _HANDLERS[command](scenario, opts)
    except (ParseError, ValidationError, IncompatiblePayload, OutputError):
        raise
    except (ValueError, KeyError) as exc:
        check = CheckResult("operation", False, None, f"{type(exc).__name__}: {exc}")
        return Report(command, (check,), {}, _provenance(scenario, opts.get("seed")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qmeasure",
        description="Quantum measurement toolkit: validate, transform and simulate scenario files.",
    )
    parser.add_argument("--version", action="version", version=f"qmeasure {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name, help=f"run the {name} command")
        sp.add_argument("scenario", help="path to a scenario JSON file")
        sp.add_argument("--seed", type=int, default=0, help="RNG seed (simulate)")
        sp.add_argument("--shots", type=int, default=1000, help="number of trajectories (simulate)")
        sp.add_argument("--steps", type=int, default=1, help="steps per trajectory (simulate)")
        sp.add_argument("--tol", type=float, default=None, help="override the scenario tolerance")
        sp.add_argument("--output", default=None, help="record file path (simulate)")
        sp.add_argument("--format", choices=("json", "csv"), default="json", help="report format")
        if name == "compare":
            sp.add_argument("--against", required=True, help="path to the second scenario")
        if name == "dilate":
            sp.add_argument("--mode", choices=("minimal", "invariant"), default="minimal")
    args = parser.parse_args(argv)
    try:
        scenario = parse_scenario(args.scenario)
        options = {
            "seed": args.seed,
            "shots": args.shots,
            "steps": args.steps,
            "tol": args.tol,
            "output": args.output,
            "against": getattr(args, "against", None),
            "mode": getattr(args, "mode", None),
        }
        report = execute(scenario, args.command, options)
    except (ParseError, ValidationError, IncompatiblePayload, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.to_json() if args.format == "json" else report.to_csv())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
