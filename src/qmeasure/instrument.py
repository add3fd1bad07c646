"""Measurement instruments over finite outcome spaces, in Kraus form.

An instrument assigns to every outcome atom a completely positive map given
by an ordered list of Kraus operators; summed over all atoms the maps make
up a channel (trace preserving).  This module keeps the Kraus lists as the
internal representation and compares maps through their Choi matrices, so
the gauge freedom in choosing Kraus operators never leaks into equality
tests.

Construction only checks shapes.  Completeness is a property to be
*reported*, not enforced, because partially assembled instruments (an atom
deliberately dropped, a channel piece not yet reassembled) are legitimate
intermediate values; call :func:`validate` to get a pass/fail report.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .qcore import (
    DEFAULT_TOL,
    ZERO_PROBABILITY,
    DensityOperator,
    DimensionMismatch,
    FiniteMeasure,
    OutcomeSpace,
    ProjectionValuedMeasure,
    _as_matrix,
    _freeze,
    dag,
    max_abs,
)

__all__ = [
    "EmptySelection",
    "NotAProjectionFamily",
    "IncompatibleOutcomeSpaces",
    "KrausInstrument",
    "POVMeasure",
    "PosteriorFamily",
    "InstrumentReport",
    "choi_matrix",
    "validate",
    "pov_measure",
    "outcome_distribution",
    "predual_apply",
    "posterior_family",
    "von_neumann_instrument",
    "identity_instrument",
    "instruments_equal",
    "sequential_compose",
    "product_label",
]


class EmptySelection(UserWarning):
    """An operation was asked to aggregate over an empty set of atoms."""


class NotAProjectionFamily(ValueError):
    """Operators fail to be mutually orthogonal projections summing to I."""


class IncompatibleOutcomeSpaces(ValueError):
    """Two instruments cannot be compared: different atoms or dimensions."""


def _kraus_table(
    space: OutcomeSpace, kraus, dim: int | None
) -> tuple[tuple[np.ndarray, ...], ...]:
    """Normalize a mapping or sequence of Kraus lists into a frozen table."""
    if isinstance(kraus, Mapping):
        unknown = set(kraus) - set(space.labels)
        if unknown:
            raise KeyError(f"Kraus table has labels outside the outcome space: {sorted(unknown)}")
        seq = [kraus.get(lab, ()) for lab in space.labels]
    else:
        seq = list(kraus)
        if len(seq) != space.size:
            raise DimensionMismatch(
                f"{len(seq)} Kraus lists for {space.size} atoms"
            )
    table = []
    d = dim
    for lab, ops in zip(space.labels, seq):
        mats = []
        for k, op in enumerate(ops):
            m = _as_matrix(op, f"Kraus operator {k} at atom {lab!r}")
            if m.shape[0] != m.shape[1]:
                raise DimensionMismatch(
                    f"Kraus operator at atom {lab!r} is not square: {m.shape}"
                )
            if d is None:
                d = m.shape[0]
            if m.shape != (d, d):
                raise DimensionMismatch(
                    f"Kraus operator at atom {lab!r} has dim {m.shape[0]}, expected {d}"
                )
            mats.append(_freeze(m))
        table.append(tuple(mats))
    if d is None:
        raise DimensionMismatch("cannot infer system dimension from an all-empty table")
    return tuple(table), d


@dataclass(frozen=True, eq=False)
class KrausInstrument:
    """Per-atom Kraus lists over a finite outcome space.

    Parameters
    ----------
    space : OutcomeSpace
        The outcome atoms, in fixed order.
    kraus : mapping or sequence
        Either ``{label: [operators]}`` or a sequence of operator lists
        aligned with ``space.labels``.  An empty list means the zero map
        at that atom.
    dim : int, optional
        System dimension; inferred from the first operator when omitted.
    """

    space: OutcomeSpace
    kraus: tuple[tuple[np.ndarray, ...], ...]
    dim: int = 0

    def __init__(self, space: OutcomeSpace, kraus, dim: int | None = None):
        table, d = _kraus_table(space, kraus, dim if dim else None)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "kraus", table)
        object.__setattr__(self, "dim", d)

    def atom_ops(self, label: str) -> tuple[np.ndarray, ...]:
        """Kraus list at one atom."""
        return self.kraus[self.space.index(label)]

    def all_ops(self) -> list[tuple[str, np.ndarray]]:
        """Flattened (label, operator) pairs in atom-major order."""
        out = []
        for lab, ops in zip(self.space.labels, self.kraus):
            out.extend((lab, a) for a in ops)
        return out

    @property
    def total_kraus_count(self) -> int:
        return sum(len(ops) for ops in self.kraus)


@dataclass(frozen=True, eq=False)
class POVMeasure:
    """Positive-operator-valued measure: one PSD effect per atom.

    Effects must be Hermitian PSD within ``tol`` and sum to the identity.
    """

    space: OutcomeSpace
    effects: tuple[np.ndarray, ...]
    tol: float = field(default=DEFAULT_TOL, repr=False)

    def __post_init__(self):
        effects = tuple(_as_matrix(e, "effect") for e in self.effects)
        if len(effects) != self.space.size:
            raise DimensionMismatch(f"{len(effects)} effects for {self.space.size} atoms")
        d = effects[0].shape[0]
        for lab, e in zip(self.space.labels, effects):
            if e.shape != (d, d):
                raise DimensionMismatch(f"effect at {lab!r} has shape {e.shape}")
            if max_abs(e - dag(e)) > self.tol:
                raise ValueError(f"effect at {lab!r} is not Hermitian")
            lo = float(np.linalg.eigvalsh(0.5 * (e + dag(e))).min())
            if lo < -max(self.tol, 1e-9):
                raise ValueError(f"effect at {lab!r} has negative eigenvalue {lo:.3e}")
        if max_abs(sum(effects) - np.eye(d)) > self.tol:
            raise ValueError("effects do not sum to the identity")
        object.__setattr__(self, "effects", tuple(_freeze(e) for e in effects))

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    def effect(self, label: str) -> np.ndarray:
        return self.effects[self.space.index(label)]


@dataclass(frozen=True, eq=False)
class PosteriorFamily:
    """Outcome probabilities with the matching conditional states.

    Holds, per atom, the unnormalized post-measurement operator and its
    trace (the outcome probability).  Posterior states are defined exactly
    where the probability clears :data:`~qmeasure.qcore.ZERO_PROBABILITY`;
    elsewhere :meth:`posterior` returns ``None`` as the undefined marker.
    """

    space: OutcomeSpace
    unnormalized: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(_freeze(_as_matrix(o, "posterior operator")) for o in self.unnormalized)
        if len(ops) != self.space.size:
            raise DimensionMismatch("one unnormalized operator required per atom")
        object.__setattr__(self, "unnormalized", ops)

    def probability(self, label: str) -> float:
        return float(np.trace(self.unnormalized[self.space.index(label)]).real)

    @property
    def distribution(self) -> FiniteMeasure:
        return FiniteMeasure(
            self.space,
            tuple(max(float(np.trace(o).real), 0.0) for o in self.unnormalized),
        )

    @property
    def total_probability(self) -> float:
        return float(sum(np.trace(o).real for o in self.unnormalized))

    def posterior(self, label: str) -> DensityOperator | None:
        """Conditional state at one atom, or ``None`` when its probability vanishes."""
        op = self.unnormalized[self.space.index(label)]
        p = float(np.trace(op).real)
        if p <= ZERO_PROBABILITY:
            return None
        return DensityOperator(op / p)

    def conditional_state(self, atoms: Iterable[str]) -> DensityOperator | None:
        """Conditional state given the outcome fell in ``atoms``."""
        labels = list(atoms)
        if not labels:
            warnings.warn("conditioning on an empty selection", EmptySelection, stacklevel=2)
            return None
        acc = sum(self.unnormalized[self.space.index(l)] for l in labels)
        p = float(np.trace(acc).real)
        if p <= ZERO_PROBABILITY:
            return None
        return DensityOperator(acc / p)

    @property
    def prior(self) -> DensityOperator:
        """Non-selective post-measurement state (conditioning on everything)."""
        state = self.conditional_state(self.space.labels)
        assert state is not None  # total probability is 1 for a valid instrument
        return state


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def choi_matrix(ops: Sequence[np.ndarray], dim: int) -> np.ndarray:
    """Choi matrix of the CP map with the given Kraus operators.

    Uses row-major vectorization, so entry ((i,k),(j,l)) is
    ``sum_m A_m[i,k] conj(A_m[j,l])``: with the flattened operators as the
    rows of V, the matrix is ``V^T conj(V)``.  The zero map gives the zero
    matrix.
    """
    v = np.asarray(ops, dtype=complex).reshape(len(ops), dim * dim)
    return v.T @ v.conj()


@dataclass(frozen=True)
class InstrumentReport:
    """Validation result: completeness deviation and per-atom CP witnesses."""

    completeness_deviation: float
    min_choi_eigenvalues: tuple[float, ...]  # aligned with the outcome space
    tol: float
    passed: bool

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        worst = min(self.min_choi_eigenvalues)
        return (
            f"instrument {status}: completeness deviation {self.completeness_deviation:.3e}, "
            f"worst Choi eigenvalue {worst:.3e} (tol {self.tol:g})"
        )


def validate(t: KrausInstrument, tol: float = DEFAULT_TOL) -> InstrumentReport:
    """Check normalization and complete positivity, returning a report.

    Never raises on a bad instrument; the report carries the failure.
    """
    acc = np.zeros((t.dim, t.dim), dtype=complex)
    mins = []
    for ops in t.kraus:
        for a in ops:
            acc += dag(a) @ a
        c = choi_matrix(ops, t.dim)
        mins.append(float(np.linalg.eigvalsh(0.5 * (c + dag(c))).min()))
    deviation = max_abs(acc - np.eye(t.dim))
    passed = deviation <= tol and all(m >= -tol for m in mins)
    return InstrumentReport(float(deviation), tuple(mins), tol, passed)


def pov_measure(t: KrausInstrument, tol: float = DEFAULT_TOL) -> POVMeasure:
    """Effects M(omega) = sum_m A^dag A of the instrument."""
    effects = []
    for ops in t.kraus:
        m = np.zeros((t.dim, t.dim), dtype=complex)
        for a in ops:
            m += dag(a) @ a
        effects.append(0.5 * (m + dag(m)))  # clean rounding off the Hermitian part
    return POVMeasure(t.space, tuple(effects), tol)


def outcome_distribution(t: KrausInstrument, rho: DensityOperator) -> FiniteMeasure:
    """Probability of each atom on the given input state."""
    if rho.dim != t.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != instrument dim {t.dim}")
    probs = []
    for ops in t.kraus:
        p = 0.0
        for a in ops:
            p += float(np.trace(a @ rho.matrix @ dag(a)).real)
        probs.append(max(p, 0.0))
    return FiniteMeasure(t.space, tuple(probs))


def predual_apply(
    t: KrausInstrument, e: Iterable[str], rho: DensityOperator
) -> np.ndarray:
    """Unnormalized post-measurement operator for outcomes in ``e``.

    Returns ``sum_{omega in e} sum_m A rho A^dag``; its trace is the
    probability that the outcome lands in ``e``.  An empty selection is
    answered with the zero operator and an :class:`EmptySelection` warning.
    """
    if rho.dim != t.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != instrument dim {t.dim}")
    labels = list(e)
    if not labels:
        warnings.warn("predual_apply over an empty selection", EmptySelection, stacklevel=2)
        return np.zeros((t.dim, t.dim), dtype=complex)
    out = np.zeros((t.dim, t.dim), dtype=complex)
    for lab in labels:
        for a in t.atom_ops(lab):
            out += a @ rho.matrix @ dag(a)
    return out


def posterior_family(t: KrausInstrument, rho: DensityOperator) -> PosteriorFamily:
    """All outcome probabilities and conditional states at once."""
    if rho.dim != t.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != instrument dim {t.dim}")
    ops = []
    for lab in t.space.labels:
        acc = np.zeros((t.dim, t.dim), dtype=complex)
        for a in t.atom_ops(lab):
            acc += a @ rho.matrix @ dag(a)
        ops.append(acc)
    return PosteriorFamily(t.space, tuple(ops))


def von_neumann_instrument(projections) -> KrausInstrument:
    """Projective instrument with one Kraus operator per spectral atom.

    Parameters
    ----------
    projections : ProjectionValuedMeasure or iterable of (label, matrix)
        Mutually orthogonal projections summing to the identity.

    Raises
    ------
    NotAProjectionFamily
        If the family fails idempotence, orthogonality or completeness.
    """
    if isinstance(projections, ProjectionValuedMeasure):
        pvm = projections
    else:
        pairs = list(projections)
        space = OutcomeSpace(tuple(lab for lab, _ in pairs))
        try:
            pvm = ProjectionValuedMeasure(space, tuple(p for _, p in pairs))
        except (ValueError, DimensionMismatch) as exc:
            raise NotAProjectionFamily(str(exc)) from exc
    return KrausInstrument(pvm.space, tuple((b,) for b in pvm.blocks), pvm.dim)


def identity_instrument(dim: int, label: str = "*") -> KrausInstrument:
    """One-outcome instrument that leaves the state alone."""
    space = OutcomeSpace((label,))
    return KrausInstrument(space, ((np.eye(dim, dtype=complex),),), dim)


def instruments_equal(
    t1: KrausInstrument, t2: KrausInstrument, tol: float = DEFAULT_TOL
) -> bool:
    """Whether two instruments define the same per-atom maps.

    Compares Choi matrices atom by atom, which is insensitive to the Kraus
    gauge (mixing the operator list by any isometry).

    Raises
    ------
    IncompatibleOutcomeSpaces
        If the outcome spaces or system dimensions differ.
    """
    if t1.space != t2.space or t1.dim != t2.dim:
        raise IncompatibleOutcomeSpaces(
            "instruments live on different outcome spaces or dimensions"
        )
    for ops1, ops2 in zip(t1.kraus, t2.kraus):
        c1 = choi_matrix(ops1, t1.dim)
        c2 = choi_matrix(ops2, t2.dim)
        if max_abs(c1 - c2) > tol:
            return False
    return True


def product_label(first: str, second: str) -> str:
    """Label of a product-space atom, stable across the package."""
    return f"{first},{second}"


def sequential_compose(
    first: KrausInstrument, second: KrausInstrument
) -> KrausInstrument:
    """Instrument for running ``first`` and then ``second``.

    The outcome space is the cartesian product with the first outcome major;
    the atom (w1, w2) carries every product B(w2) A(w1) of Kraus operators.
    Marginalizing the second outcome reproduces the statistics of ``first``.
    """
    if first.dim != second.dim:
        raise DimensionMismatch(
            f"system dims differ: {first.dim} vs {second.dim}"
        )
    labels = tuple(
        product_label(l1, l2) for l1 in first.space.labels for l2 in second.space.labels
    )
    space = OutcomeSpace(labels)
    table = []
    for ops1 in first.kraus:
        for ops2 in second.kraus:
            table.append(tuple(b @ a for a in ops1 for b in ops2))
    return KrausInstrument(space, tuple(table), first.dim)
