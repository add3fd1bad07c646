"""Channel-resolved measurement simulation.

A measurement model pairs a factorized representation with an initial
state.  Each shot draws an (outcome, channel) pair from the joint law

    P(w, i) = alpha_i k_i * ||Pi_i(w) psi||^2 * nu_i({w})

and updates the state to the normalized Pi_i(w) psi.  Repeating the update
gives discrete-time posterior pure-state trajectories.

Sampling contract: one uniform draw in [0, 1) per shot, inverse-CDF over
atoms in declared outcome order and channels in index order within each
atom, selecting the first cell whose cumulative sum reaches the draw.
Cells with mass at or below ``ZERO_PROBABILITY`` are unsampleable; a draw
beyond the total sampleable mass takes the last sampleable cell.  Given
equal seeds the produced records are identical bit for bit.

Two kernels implement the contract.  :func:`sample_shot` and
:func:`run_trajectory` advance one trajectory; :func:`sample_batch` advances
many at once, one NumPy operation per step for the whole batch, and draws
its uniforms trajectory-major, so its draw stream and every field it returns
equal those of repeated :func:`run_trajectory` calls on the same generator.
The ``simulate`` command streams fixed-size batches to its record file, so
its memory does not grow with the number of shots and its records are the
bytes the one-trajectory kernel would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .qcore import (
    DEFAULT_TOL,
    ZERO_PROBABILITY,
    DensityOperator,
    DimensionMismatch,
    FiniteMeasure,
    OutcomeSpace,
    ZeroProbabilityEvent,
    _as_vector,
    _freeze,
    max_abs,
)
from .instrument import pov_measure, predual_apply
from .stochrep import QuantumStochasticRep, qsr_instrument

__all__ = [
    "MeasurementModel",
    "OutputLaw",
    "ShotResult",
    "ShotBatch",
    "Trajectory",
    "ModelReport",
    "output_law",
    "channel_weights",
    "posterior_pure",
    "posterior_mixture",
    "sample_shot",
    "run_trajectory",
    "sample_batch",
    "verify_model",
]


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """A factorized measurement together with the state it acts on.

    The initial state may be a unit vector or a :class:`DensityOperator`.
    Pure-state tracking (:func:`sample_shot`, :func:`run_trajectory`,
    :func:`posterior_pure`) requires the vector form; the averaged
    operations work with either.
    """

    qsr: QuantumStochasticRep
    initial: Union[np.ndarray, DensityOperator]

    def __post_init__(self):
        if isinstance(self.initial, DensityOperator):
            if self.initial.dim != self.qsr.dim_s:
                raise DimensionMismatch(
                    f"state dim {self.initial.dim} != system dim {self.qsr.dim_s}"
                )
            return
        psi = _as_vector(self.initial, "initial state")
        if psi.size != self.qsr.dim_s:
            raise DimensionMismatch(
                f"state dim {psi.size} != system dim {self.qsr.dim_s}"
            )
        nrm = np.linalg.norm(psi)
        if abs(nrm - 1.0) > 1e-8:
            raise ValueError(f"initial state norm {nrm:.12g} is not 1")
        object.__setattr__(self, "initial", _freeze(psi))

    @property
    def is_pure(self) -> bool:
        return not isinstance(self.initial, DensityOperator)

    @property
    def pure_state(self) -> np.ndarray:
        if not self.is_pure:
            raise ValueError("model was built with a density operator, not a pure state")
        return self.initial

    @property
    def density(self) -> DensityOperator:
        if self.is_pure:
            return DensityOperator.pure(self.initial)
        return self.initial

    @cached_property
    def _tables(self) -> "_SamplingTables":
        """Sampler inputs, built on the first shot so models never sampled pay nothing."""
        qsr = self.qsr
        mix = np.array([a * k for a, k in qsr.profile])[:, None]
        return _SamplingTables(qsr.pi, mix, qsr.channel_nu, qsr.space.labels, qsr.channel_count)


@dataclass(frozen=True)
class _SamplingTables:
    pi: np.ndarray  # (C, M, d, d)
    mix: np.ndarray  # (C, 1): alpha_i * k_i
    nu: np.ndarray  # (C, M)
    labels: tuple[str, ...]
    channels: int


@dataclass(frozen=True, eq=False)
class OutputLaw:
    """Per-channel outcome measures and their weighted total."""

    space: OutcomeSpace
    mix: tuple[float, ...]  # alpha_i * k_i per channel
    channel_masses: np.ndarray  # (C, M)

    def __post_init__(self):
        object.__setattr__(self, "channel_masses", _freeze(np.array(self.channel_masses, dtype=float)))

    def joint(self) -> np.ndarray:
        """Joint (channel, atom) mass table; sums to 1 for a valid model."""
        return np.array(self.mix)[:, None] * self.channel_masses

    @property
    def total(self) -> FiniteMeasure:
        masses = self.joint().sum(axis=0)
        return FiniteMeasure(self.space, tuple(max(float(x), 0.0) for x in masses))

    def mass(self, label: str) -> float:
        return float(self.joint()[:, self.space.index(label)].sum())


@dataclass(frozen=True, eq=False)
class ShotResult:
    """One sampled measurement event with its conditional state."""

    outcome: str
    channel: int
    posterior: np.ndarray
    probability: float
    weight: float

    def __post_init__(self):
        v = _as_vector(self.posterior, "posterior state")
        _check_norm(float(np.linalg.norm(v)))
        _check_weight(self.weight)
        object.__setattr__(self, "posterior", _freeze(v))

    @classmethod
    def _trusted(
        cls, outcome: str, channel: int, posterior: np.ndarray, probability: float, weight: float
    ) -> "ShotResult":
        """A result from the sampler, which has already run the checks."""
        self = object.__new__(cls)
        self.__dict__.update(
            outcome=outcome, channel=channel, posterior=_freeze(posterior),
            probability=probability, weight=weight,
        )
        return self


def _check_norm(norm: float) -> None:
    if not abs(norm - 1.0) <= 1e-8:
        raise ValueError("posterior state must be normalized")


def _check_weight(weight: float) -> None:
    if not -1e-12 <= weight <= 1.0 + 1e-12:
        raise ValueError(f"channel weight {weight} outside [0, 1]")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sequence of shots where each posterior feeds the next step."""

    shots: tuple[ShotResult, ...]
    model: MeasurementModel
    seed: int | None

    def __len__(self) -> int:
        return len(self.shots)

    def states(self) -> list[np.ndarray]:
        """Initial state followed by the posterior after each step."""
        return [self.model.pure_state] + [s.posterior for s in self.shots]

    def outcomes(self) -> tuple[str, ...]:
        return tuple(s.outcome for s in self.shots)


@dataclass(frozen=True, eq=False)
class ShotBatch:
    """Trajectories sampled together, one array per :class:`ShotResult` field.

    Index ``[b, t]`` is step ``t`` of trajectory ``b``.  ``outcome`` holds atom
    indices into ``labels``; ``posterior`` has a trailing system axis.
    """

    labels: tuple[str, ...]
    outcome: np.ndarray  # (B, T) int
    channel: np.ndarray  # (B, T) int
    probability: np.ndarray  # (B, T)
    weight: np.ndarray  # (B, T)
    posterior: np.ndarray  # (B, T, d) complex


def _channel_masses(qsr: QuantumStochasticRep, model_state) -> np.ndarray:
    """Per-channel outcome masses m_i({w}) for a pure or mixed state."""
    if isinstance(model_state, DensityOperator):
        t = np.einsum(
            "cwab,bd,cwad->cw", qsr.pi, model_state.matrix, qsr.pi.conj()
        ).real
    else:
        amp = np.einsum("cwab,b->cwa", qsr.pi, model_state)
        t = np.einsum("cwa,cwa->cw", amp.conj(), amp).real
    return t * qsr.channel_nu


def output_law(model: MeasurementModel) -> OutputLaw:
    """Outcome law of the model, resolved by channel."""
    masses = _channel_masses(model.qsr, model.initial)
    mix = tuple(a * k for a, k in model.qsr.profile)
    return OutputLaw(model.qsr.space, mix, masses)


def channel_weights(model: MeasurementModel, omega: str) -> np.ndarray:
    """Conditional channel distribution given the observed atom.

    Raises
    ------
    ZeroProbabilityEvent
        If the atom carries no outcome probability.
    """
    law = output_law(model)
    a = law.space.index(omega)
    col = law.joint()[:, a]
    total = col.sum()
    if total <= ZERO_PROBABILITY:
        raise ZeroProbabilityEvent(f"outcome {omega!r} has probability {total:.3e}")
    return col / total


def posterior_pure(model: MeasurementModel, i: int, omega: str) -> np.ndarray:
    """Normalized conditional state for channel ``i`` at atom ``omega``.

    Raises
    ------
    ZeroProbabilityEvent
        If the channel operator annihilates the initial state at this atom.
    """
    psi = model.pure_state
    a = model.qsr.space.index(omega)
    if not 0 <= i < model.qsr.channel_count:
        raise IndexError(f"channel index {i} out of range")
    vec = model.qsr.pi[i, a] @ psi
    nrm = np.linalg.norm(vec)
    if nrm * nrm <= ZERO_PROBABILITY:
        raise ZeroProbabilityEvent(
            f"channel {i} at outcome {omega!r} has vanishing amplitude"
        )
    return vec / nrm


def posterior_mixture(
    model_or_qsr, omega: str, rho: DensityOperator | None = None
) -> DensityOperator:
    """Posterior state at an atom, averaged over channels.

    Accepts either a model (whose initial state is used) or a bare
    representation plus an explicit input state.  Matches the posterior
    family of the reconstructed instrument at the same atom.

    Raises
    ------
    ZeroProbabilityEvent
        If the atom carries no outcome probability.
    """
    if isinstance(model_or_qsr, MeasurementModel):
        qsr = model_or_qsr.qsr
        state = model_or_qsr.density if rho is None else rho
    else:
        qsr = model_or_qsr
        if rho is None:
            raise ValueError("an input state is required with a bare representation")
        state = rho
    if state.dim != qsr.dim_s:
        raise DimensionMismatch(f"state dim {state.dim} != system dim {qsr.dim_s}")
    a = qsr.space.index(omega)
    mix = np.array([al * k for al, k in qsr.profile])
    coeff = mix * qsr.channel_nu[:, a]
    acc = np.einsum("c,cab,bd,ced->ae", coeff, qsr.pi[:, a], state.matrix, qsr.pi[:, a].conj())
    p = float(np.trace(acc).real)
    if p <= ZERO_PROBABILITY:
        raise ZeroProbabilityEvent(f"outcome {omega!r} has probability {p:.3e}")
    return DensityOperator(acc / p)


def _pick(flat, u: float) -> int:
    """First sampleable cell whose cumulative mass reaches the draw.

    ``flat`` is a sequence of cell masses.  Cells at or below
    ``ZERO_PROBABILITY`` are skipped; past the total sampleable mass the last
    sampleable cell is taken.  The running sum adds the sampleable masses in
    order, as ``np.cumsum`` over them would, so the cell is the one
    ``np.searchsorted(cumsum, u, side="left")`` selects.
    """
    acc = 0.0
    last = -1
    for k, m in enumerate(flat):
        if m > ZERO_PROBABILITY:
            acc += m
            last = k
            if acc >= u:
                return k
    if last < 0:
        raise ZeroProbabilityEvent("no outcome cell carries probability")
    return last


def _pick_rows(flat: np.ndarray, u: np.ndarray) -> np.ndarray:
    """:func:`_pick` applied to each row of ``flat`` with its own draw."""
    live = flat > ZERO_PROBABILITY
    if not live.any(axis=1).all():
        raise ZeroProbabilityEvent("no outcome cell carries probability")
    # Dead cells add 0.0, so the sums at live cells are _pick's running sums.
    cum = np.cumsum(np.where(live, flat, 0.0), axis=1)
    hit = live & (cum >= u[:, None])
    last = flat.shape[1] - 1 - np.argmax(live[:, ::-1], axis=1)
    return np.where(hit.any(axis=1), np.argmax(hit, axis=1), last)


def _shot(t: _SamplingTables, psi: np.ndarray, u: float) -> ShotResult:
    amp = np.einsum("cwab,b->cwa", t.pi, psi)
    sq = np.einsum("cwa,cwa->cw", amp.conj(), amp).real
    joint = t.mix * sq * t.nu  # (C, M)
    a, c = divmod(_pick(joint.T.ravel().tolist(), u), t.channels)  # atom-major, channel minor
    prob = float(joint[:, a].sum())
    post = amp[c, a] / np.sqrt(sq[c, a])
    weight = float(joint[c, a] / prob)
    _check_norm(math.sqrt(np.vdot(post, post).real))
    _check_weight(weight)
    return ShotResult._trusted(t.labels[a], c, post, prob, weight)


def _as_rng(rng) -> tuple[np.random.Generator, int | None]:
    if isinstance(rng, np.random.Generator):
        return rng, None
    seed = int(rng)
    return np.random.default_rng(seed), seed


def sample_shot(model: MeasurementModel, rng) -> ShotResult:
    """Draw one (outcome, channel) event and the matching posterior state.

    ``rng`` is a ``numpy.random.Generator`` or an integer seed.  Exactly one
    uniform variate is consumed per call.
    """
    gen, _ = _as_rng(rng)
    return _shot(model._tables, model.pure_state, gen.random())


def run_trajectory(model: MeasurementModel, steps: int, rng) -> Trajectory:
    """Iterate measurement shots, feeding each posterior into the next step."""
    if steps < 1:
        raise ValueError("a trajectory needs at least one step")
    gen, seed = _as_rng(rng)
    t = model._tables
    psi = model.pure_state
    shots = []
    for _ in range(steps):
        shot = _shot(t, psi, gen.random())
        shots.append(shot)
        psi = shot.posterior
    return Trajectory(tuple(shots), model, seed)


def sample_batch(model: MeasurementModel, trajectories: int, steps: int, rng) -> ShotBatch:
    """Sample ``trajectories`` trajectories of ``steps`` steps together.

    Draws ``rng.random((trajectories, steps))``, the stream that as many
    :func:`run_trajectory` calls on the same generator consume, and returns
    fields equal to theirs bit for bit.
    """
    if steps < 1:
        raise ValueError("a trajectory needs at least one step")
    if trajectories < 1:
        raise ValueError("a batch needs at least one trajectory")
    gen, _ = _as_rng(rng)
    t = model._tables
    draws = gen.random((trajectories, steps))
    psi = np.broadcast_to(model.pure_state, (trajectories, model.qsr.dim_s))
    rows = np.arange(trajectories)
    outcome = np.empty((trajectories, steps), dtype=np.intp)
    channel = np.empty_like(outcome)
    probability = np.empty((trajectories, steps))
    weight = np.empty_like(probability)
    posterior = np.empty((trajectories, steps, psi.shape[1]), dtype=complex)
    for step in range(steps):
        amp = np.einsum("cwab,nb->ncwa", t.pi, psi)
        sq = np.einsum("ncwa,ncwa->ncw", amp.conj(), amp).real
        joint = t.mix * sq * t.nu  # (B, C, M)
        flat = joint.transpose(0, 2, 1).reshape(trajectories, -1)
        a, c = np.divmod(_pick_rows(flat, draws[:, step]), t.channels)
        prob = joint[rows, :, a].sum(axis=1)
        psi = amp[rows, c, a] / np.sqrt(sq[rows, c, a])[:, None]
        wgt = joint[rows, c, a] / prob
        # The extremes stand for the batch; argmax, min and max pick up a NaN.
        norm = np.sqrt(np.einsum("na,na->n", psi.conj(), psi).real)
        _check_norm(float(norm[np.argmax(np.abs(norm - 1.0))]))
        _check_weight(float(wgt.min()))
        _check_weight(float(wgt.max()))
        outcome[:, step] = a
        channel[:, step] = c
        probability[:, step] = prob
        weight[:, step] = wgt
        posterior[:, step] = psi
    for arr in (outcome, channel, probability, weight, posterior):
        _freeze(arr)
    return ShotBatch(t.labels, outcome, channel, probability, weight, posterior)


@dataclass(frozen=True)
class ModelReport:
    """Deviations of the model identities, with a verdict at ``tol``.

    ``operator_orthonormality`` is the channel-operator relation weighted by
    the pairwise densities; ``pure_orthonormality`` contracts it with the
    initial state (``None`` when the model holds a density operator);
    ``prior_deviation`` compares the channel-averaged posterior mixture with
    the instrument's non-selective output; ``pov_deviation`` compares the
    effect operators assembled from channel data with the instrument's.
    """

    operator_orthonormality: float
    pure_orthonormality: float | None
    prior_deviation: float
    pov_deviation: float
    tol: float
    passed: bool

    def __str__(self) -> str:
        parts = [
            f"operator orthonormality {self.operator_orthonormality:.3e}",
            f"prior average {self.prior_deviation:.3e}",
            f"pov identity {self.pov_deviation:.3e}",
        ]
        if self.pure_orthonormality is not None:
            parts.insert(1, f"pure-state orthonormality {self.pure_orthonormality:.3e}")
        status = "pass" if self.passed else "FAIL"
        return f"model {status} (tol {self.tol:g}): " + ", ".join(parts)


def verify_model(model: MeasurementModel, tol: float = DEFAULT_TOL) -> ModelReport:
    """Check the model's defining identities against the instrument layer.

    Never raises on a failing model; deviations land in the report.
    """
    qsr = model.qsr
    c_count = qsr.channel_count
    op_dev = qsr.joint_orthonormality_deviation()
    pure_dev = None
    if model.is_pure:
        psi = model.pure_state
        amp = np.einsum("cwab,b->cwa", qsr.pi, psi)
        inner = np.einsum("jwa,iwa->jiw", amp.conj(), amp)
        g = np.einsum("jiw,jiw->ji", inner, qsr.densities.premeasurement_state())
        pure_dev = float(max_abs(g - np.eye(c_count)))
    inst = qsr_instrument(qsr, tol=float("inf"))
    rho = model.density
    mix = np.array([a * k for a, k in qsr.profile])
    coeff = mix[:, None] * qsr.channel_nu  # (C, M)
    recon = np.einsum("cw,cwab,bd,cwed->ae", coeff, qsr.pi, rho.matrix, qsr.pi.conj())
    prior_dev = float(max_abs(recon - predual_apply(inst, inst.space.labels, rho)))
    effects = np.einsum("cw,cwba,cwbd->wad", coeff, qsr.pi.conj(), qsr.pi)
    pov = pov_measure(inst, tol=float("inf"))
    pov_dev = max(
        float(max_abs(effects[a] - pov.effects[a])) for a in range(qsr.space.size)
    )
    checks = [op_dev, prior_dev, pov_dev] + ([pure_dev] if pure_dev is not None else [])
    return ModelReport(
        float(op_dev), pure_dev, prior_dev, pov_dev, tol, all(d <= tol for d in checks)
    )
