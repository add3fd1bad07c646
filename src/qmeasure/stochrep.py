"""Stochastic presentations of instruments and their factorized forms.

A stochastic realization carries the measurement data with the ancilla
integrated out: channel weights with multiplicities, a base measure over
outcomes, a scalar density table q and an operator table W.  The induced
instrument has Kraus operators ``sqrt(beta_i nu(w)) W[i,k,n](w)``.

Two realizations present the same measurement when they differ by the gauge
moves implemented in :func:`apply_transform`: per-atom unitary mixing of the
block index, per-channel unitary mixing of the multiplicity index, a global
phase on the operator table, and a change of equivalent base measure.  The
quantities preserved by those moves live in :class:`SRInvariants`.

A realization is *factorizable* when each channel's operator table splits as
``W[i,k,n](w) = Pi_i(w) q[i,k,n](w)`` with a single operator per channel and
atom.  :func:`factorize` detects this, extracts the phase-normalized Pi
family together with the channel densities, and verifies the result against
the instrument; the failure case is returned as a value so callers can
report which channel and atom obstructed the split.

The tables of a system-ancilla measuring process (see
:mod:`qmeasure.realization`) come out of :func:`extract_vq` against a
:func:`canonicalize` form of its PVM.  Channels are the eigenvalue clusters
of the ancilla state; a maximally mixed qubit ancilla is one channel of
weight 0.5 and multiplicity 2, not two channels.  This module reads only
the ancilla state, PVM and joint unitary of a realization and never imports
the realization module.

Block bases
-----------
Per-atom orthonormal bases of range P({w}) are chosen by Gram-Schmidt over
the projected standard basis, scanned in index order, with each vector
phase-fixed so its largest-magnitude component is real positive.  The rule
depends only on the projection, so canonical forms are reproducible across
runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .qcore import (
    CLUSTER_TOL,
    DEFAULT_TOL,
    ZERO_PROBABILITY,
    DimensionMismatch,
    FiniteMeasure,
    NotAbsolutelyContinuous,
    NotOrthonormal,
    NotUnitaryMatrix,
    OutcomeSpace,
    UnitaryOperator,
    _freeze,
    align_global_phase,
    dag,
    max_abs,
    spectral_decompose,
)
from .instrument import IncompatibleOutcomeSpaces, KrausInstrument, instruments_equal

__all__ = [
    "UnsupportedMeasure",
    "WeightMismatch",
    "CanonicalForm",
    "StochasticRealization",
    "ChannelDensities",
    "SRInvariants",
    "InvariantComparison",
    "QuantumStochasticRep",
    "NotFactorizable",
    "canonicalize",
    "extract_vq",
    "from_realization",
    "instrument_of_sr",
    "apply_transform",
    "sr_invariants",
    "compare_invariants",
    "equivalent",
    "factorize",
    "qsr_instrument",
    "from_channel_operators",
]


class UnsupportedMeasure(ValueError):
    """A base measure does not match the support of the PVM."""


class WeightMismatch(ValueError):
    """Channel weights are inconsistent or do not sum to one."""


def _gram_deviation(x: np.ndarray, wgt: np.ndarray) -> float:
    """Worst entry of ``|G - I|`` for the weighted Gram matrix of table rows.

    ``x`` has shape (P, n, M, d, d): P rows, each a d x d operator per block
    index n and atom w.  The Gram matrix is

        G[(j, b), (i, c)] = sum_{n, w, a} conj(x[j, n, w, a, b]) x[i, n, w, a, c] wgt[w]

    so ``G = I`` is the weighted operator orthonormality of the rows; scalar
    tables are the case d = 1.
    """
    rows, n, m, d, _ = x.shape
    cols = x.transpose(1, 2, 3, 0, 4).reshape(n * m * d, rows * d)
    weight = np.broadcast_to(wgt[None, :, None], (n, m, d)).reshape(-1, 1)
    gram = (cols.conj() * weight).T @ cols
    return max_abs(gram - np.eye(rows * d))


def _masked_tables(q, w, beta, multiplicity):
    """Coerce tables to padded arrays with zeros outside the valid index ranges."""
    q = np.array(q, dtype=complex)
    w = np.array(w, dtype=complex)
    if q.ndim != 4 or w.ndim != 6 or w.shape[:4] != q.shape:
        raise DimensionMismatch(
            f"expected q (C, k, n, atoms) and matching w (..., d, d); got {q.shape} and {w.shape}"
        )
    c_count, k_max, n_max, m = q.shape
    if len(beta) != c_count:
        raise WeightMismatch(f"{len(beta)} channel weights for {c_count} table channels")
    kmask = np.zeros((c_count, k_max))
    for i, (_, ki) in enumerate(beta):
        if ki > k_max:
            raise DimensionMismatch(f"channel {i} multiplicity {ki} exceeds table axis {k_max}")
        kmask[i, :ki] = 1.0
    nmask = np.zeros((n_max, m))
    for a, n_a in enumerate(multiplicity):
        if n_a > n_max:
            raise DimensionMismatch(f"atom {a} multiplicity {n_a} exceeds table axis {n_max}")
        nmask[:n_a, a] = 1.0
    full = kmask[:, :, None, None] * nmask[None, None, :, :]
    return q * full, w * full[:, :, :, :, None, None]


@dataclass(frozen=True, eq=False)
class StochasticRealization:
    """Channel weights, base measure and the q/W tables of a measurement.

    ``beta`` is a tuple of (weight, multiplicity) pairs; the weighted
    multiplicities must sum to 1.  Table axes are (channel, multiplicity
    index, block index, atom); entries beyond a channel's multiplicity or an
    atom's block size are forced to zero at construction.  Orthonormality of
    the tables is *not* enforced here; it is checked where it matters, in
    :func:`instrument_of_sr` and friends.
    """

    space: OutcomeSpace
    nu: FiniteMeasure
    beta: tuple[tuple[float, int], ...]
    multiplicity: tuple[int, ...]
    q: np.ndarray  # (C, k_max, n_max, M)
    w: np.ndarray  # (C, k_max, n_max, M, d_s, d_s)

    def __post_init__(self):
        beta = tuple((float(b), int(k)) for b, k in self.beta)
        if any(b <= 0 or k < 1 for b, k in beta):
            raise WeightMismatch("channel weights must be positive with multiplicity >= 1")
        if abs(sum(b * k for b, k in beta) - 1.0) > 1e-8:
            raise WeightMismatch(
                f"weighted multiplicities sum to {sum(b * k for b, k in beta):.12g}, not 1"
            )
        mult = tuple(int(n) for n in self.multiplicity)
        if len(mult) != self.space.size:
            raise DimensionMismatch("multiplicity profile must cover every atom")
        if self.nu.space != self.space:
            raise DimensionMismatch("base measure lives on a different outcome space")
        q, w = _masked_tables(self.q, self.w, beta, mult)
        if q.shape[3] != self.space.size:
            raise DimensionMismatch(
                f"tables cover {q.shape[3]} atoms, space has {self.space.size}"
            )
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "multiplicity", mult)
        object.__setattr__(self, "q", _freeze(q))
        object.__setattr__(self, "w", _freeze(w))

    @classmethod
    def _trusted(
        cls, space: OutcomeSpace, nu: FiniteMeasure, beta: tuple, multiplicity: tuple, q, w
    ) -> "StochasticRealization":
        """Tables from :func:`extract_vq` or :func:`apply_transform`, already zero-padded.

        From extraction, the weights are the spectrum of an ancilla state
        whose trace was checked at that state's own tolerance, so the fixed
        weight-sum guard of the public constructor is not applied again.  A
        gauge transform keeps the weights and multiplicities of a realization
        that already exists and writes only the live index ranges.
        """
        self = object.__new__(cls)
        self.__dict__.update(
            space=space, nu=nu, beta=beta, multiplicity=multiplicity,
            q=_freeze(q), w=_freeze(w),
        )
        return self

    @property
    def channel_count(self) -> int:
        return len(self.beta)

    @property
    def dim_s(self) -> int:
        return self.w.shape[-1]

    def orthonormality_deviations(self) -> tuple[float, float]:
        """(scalar, operator) orthonormality violations of the tables.

        The rows are the (channel i, multiplicity index k < k_i) pairs; the
        relations are ``sum_{w,n} conj(q[j,p,n,w]) q[i,k,n,w] nu(w) =
        delta_ji delta_pk`` and the same with ``W^dag W`` and the identity.
        """
        ks = np.array([k for _, k in self.beta])
        live = np.arange(self.q.shape[1]) < ks[:, None]
        wgt = self.nu.as_array()
        return (
            _gram_deviation(self.q[live][..., None, None], wgt),
            _gram_deviation(self.w[live], wgt),
        )


@dataclass(frozen=True, eq=False)
class ChannelDensities:
    """Pairwise scalar densities between channels, against the base measure.

    ``kp_blocks[j, i, k, p, a]`` is the block-summed product of channel j's
    k-th scalar table with channel i's p-th at atom a; ``channel[j, i, a]``
    averages the diagonal blocks with the 1/k_i normalization.  The family
    ``channel * nu`` integrates to the identity matrix over outcomes and is
    exactly the classical pre-measurement description of the channel mix,
    available through :meth:`premeasurement_state`.
    """

    space: OutcomeSpace
    nu: FiniteMeasure
    ks: tuple[int, ...]
    kp_blocks: np.ndarray  # (C, C, k_max, k_max, M)
    channel: np.ndarray  # (C, C, M)

    def __post_init__(self):
        object.__setattr__(self, "kp_blocks", _freeze(np.array(self.kp_blocks)))
        object.__setattr__(self, "channel", _freeze(np.array(self.channel)))

    @property
    def diagonal(self) -> np.ndarray:
        """p_i(w) = channel[i, i, w]; real and nonnegative up to rounding."""
        return np.einsum("iiw->iw", self.channel).real

    def premeasurement_state(self) -> np.ndarray:
        """The weighted family channel[j, i, w] * nu(w), shape (C, C, M)."""
        return self.channel * self.nu.as_array()

    def integral_deviation(self) -> float:
        """Max deviation of the outcome-integrated densities from the identity."""
        total = np.einsum("jiw,w->ji", self.channel, self.nu.as_array())
        return max_abs(total - np.eye(self.channel.shape[0]))


@dataclass(frozen=True, eq=False)
class SRInvariants:
    """Gauge-invariant record of a stochastic realization."""

    space: OutcomeSpace
    dim_s: int
    support: tuple[str, ...]
    multiplicity: tuple[int, ...]
    beta_profile: tuple[tuple[float, int], ...]
    densities: ChannelDensities
    channel_nu: np.ndarray  # (C, M)
    total_nu: np.ndarray  # (M,)
    channel_theta: np.ndarray  # (C, M, d_s, d_s)
    total_theta: np.ndarray  # (M, d_s, d_s)

    def __post_init__(self):
        for name in ("channel_nu", "total_nu", "channel_theta", "total_theta"):
            object.__setattr__(self, name, _freeze(np.array(getattr(self, name))))

    def sorted_channels(self, cluster_tol: float = CLUSTER_TOL):
        """Channels sorted by weight descending, equal weights merged.

        Merging matters because a weight appearing twice with multiplicity 1
        presents the same ancilla spectrum as once with multiplicity 2; the
        per-channel tables combine with multiplicity weighting.  Returns
        (profile, nu tables, theta tables).
        """
        order = sorted(
            range(len(self.beta_profile)),
            key=lambda i: -self.beta_profile[i][0],
        )
        merged: list[tuple[float, int, np.ndarray, np.ndarray]] = []
        for idx in order:
            b, k = self.beta_profile[idx]
            nu_t = self.channel_nu[idx]
            th_t = self.channel_theta[idx]
            if merged and abs(merged[-1][0] - b) <= cluster_tol:
                b0, k0, n0, t0 = merged[-1]
                merged[-1] = (b0, k0 + k, n0 + k * nu_t, t0 + k * th_t)
            else:
                merged.append((b, k, k * nu_t, k * th_t))
        profile = tuple((b, k) for b, k, _, _ in merged)
        nus = np.stack([n / k for _, k, n, _ in merged])
        thetas = np.stack([t / k for _, k, _, t in merged])
        return profile, nus, thetas


@dataclass(frozen=True)
class InvariantComparison:
    """Outcome of comparing two invariant records."""

    support_equal: bool
    multiplicity_equal: bool
    profile_equal: bool
    nu_deviation: float
    theta_deviation: float
    phase: complex

    @property
    def structure_equal(self) -> bool:
        return self.support_equal and self.multiplicity_equal and self.profile_equal

    def equal(self, tol: float) -> bool:
        return (
            self.structure_equal
            and self.nu_deviation <= tol
            and self.theta_deviation <= tol
        )


# ---------------------------------------------------------------------------
# Canonical form and table extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """Base measure, multiplicity profile and block bases of a PVM.

    ``block_bases[a]`` holds the orthonormal vectors spanning range
    P({atom a}) as columns; null atoms get a zero-column matrix.  ``r``
    rotates the ancilla so each P({w}) becomes a coordinate projection,
    blocks ordered by atom order.
    """

    space: OutcomeSpace
    nu: FiniteMeasure
    multiplicity: tuple[int, ...]
    block_bases: tuple[np.ndarray, ...]
    r: UnitaryOperator

    def __post_init__(self):
        if len(self.multiplicity) != self.space.size or len(self.block_bases) != self.space.size:
            raise DimensionMismatch("per-atom tables must match the outcome space")
        object.__setattr__(
            self, "block_bases", tuple(_freeze(np.array(b, dtype=complex)) for b in self.block_bases)
        )

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(
            lab for lab, n in zip(self.space.labels, self.multiplicity) if n > 0
        )


_SPAN_CUTOFF = 1e-6


def _range_basis(p: np.ndarray, rank: int) -> np.ndarray:
    """Deterministic orthonormal basis of range(p) for a projection p.

    Gram-Schmidt over the projected standard basis in index order; each kept
    vector is phase-fixed so its largest-magnitude component is real
    positive.  Returns a d x rank column block.
    """
    d = p.shape[0]
    cols: list[np.ndarray] = []
    for j in range(d):
        if len(cols) == rank:
            break
        v = p[:, j].copy()
        for _ in range(2):
            for u in cols:
                v = v - u * np.vdot(u, v)
        nrm = np.linalg.norm(v)
        if nrm <= _SPAN_CUTOFF:
            continue
        v = v / nrm
        top = int(np.argmax(np.abs(v)))
        ph = v[top] / abs(v[top])
        cols.append(v * ph.conjugate())
    if len(cols) != rank:
        raise ValueError(f"projection range basis incomplete: {len(cols)} of {rank}")
    return np.column_stack(cols) if cols else np.zeros((d, 0), dtype=complex)


def canonicalize(g, nu: FiniteMeasure | None = None) -> CanonicalForm:
    """Block bases, multiplicity profile and base measure of a realization's PVM.

    ``g`` is a :class:`qmeasure.realization.StatisticalRealization`; only its
    PVM ``g.p`` is read.  The default base measure puts weight 1 on every
    support atom.  A caller supplied measure must be positive exactly on the
    support.

    Raises
    ------
    UnsupportedMeasure
        If ``nu`` vanishes on a support atom or charges a null atom.
    """
    pvm = g.p
    ranks = pvm.ranks
    if nu is None:
        nu = FiniteMeasure(
            pvm.space, tuple(1.0 if r > 0 else 0.0 for r in ranks)
        )
    else:
        if nu.space != pvm.space:
            raise DimensionMismatch("base measure lives on a different outcome space")
        for lab, r, w in zip(pvm.space.labels, ranks, nu.weights):
            if r > 0 and w <= 0:
                raise UnsupportedMeasure(
                    f"base measure vanishes on support atom {lab!r}"
                )
            if r == 0 and w > 0:
                raise UnsupportedMeasure(f"base measure charges null atom {lab!r}")
    bases = []
    for lab, r in zip(pvm.space.labels, ranks):
        if r > 0:
            bases.append(_range_basis(pvm.block(lab), r))
        else:
            bases.append(np.zeros((pvm.dim, 0), dtype=complex))
    rows = [b.conj().T for b in bases if b.shape[1] > 0]
    r_mat = np.vstack(rows)
    return CanonicalForm(pvm.space, nu, tuple(ranks), tuple(bases), UnitaryOperator(r_mat))


def extract_vq(g, cf: CanonicalForm) -> StochasticRealization:
    """Scalar and operator tables of a realization against a canonical form.

    ``g`` is a :class:`qmeasure.realization.StatisticalRealization`.  The
    channel weights are its ancilla spectrum with multiplicities; clusters
    at or below ``ZERO_PROBABILITY`` are dropped.  For channel i with
    eigenvector phi_ik and block vector e_n(w), the operator entry is the
    system matrix with elements ``<a (x) e_n(w)| U |b (x) phi_ik>`` divided
    by sqrt(nu(w)), and the scalar entry is ``<e_n(w), phi_ik>`` divided by
    sqrt(nu(w)).  The square-root weighting is what makes the nu-weighted
    orthonormality relations hold for any admissible base measure; with the
    default measure (weight 1 per atom) it is invisible.

    Every entry is read from one rotated copy of U.  The block bases,
    stacked in atom order, give the row rotation R (the rows of ``cf.r``);
    the kept eigenvectors, stacked in channel order, give the columns Phi.
    Two matrix contractions give ``T[a, N, b, K] = <a (x) e_N| U |b (x)
    phi_K>`` for every block row N and eigenvector column K, and ``R @
    Phi`` the scalar entries.  Each table is then one gather over the
    (block index, atom) -> N and (channel, multiplicity index) -> K maps.
    R gets one extra zero row and Phi one extra zero column, so padding
    positions gather exact zeros.
    """
    ds, dk = g.dim_s, g.dim_k
    channels = [c for c in spectral_decompose(g.s.matrix) if c.value > ZERO_PROBABILITY]
    ks = np.array([c.multiplicity for c in channels], dtype=int)
    mult = np.array(cf.multiplicity, dtype=int)
    r = np.vstack([np.hstack(cf.block_bases).conj().T, np.zeros((1, dk))])
    phi = np.hstack([c.vectors for c in channels] + [np.zeros((dk, 1))])
    zero_col = phi.shape[1] - 1
    # U's rows are (a, m) and its columns (b, l): contract l with Phi, then m with R
    t = r @ (g.u.matrix.reshape(-1, dk) @ phi).reshape(ds, dk, -1)
    t = t.reshape(ds, dk + 1, ds, zero_col + 1)
    s = r @ phi
    n = np.arange(mult.max(initial=0))[:, None]
    row_of = np.where(n < mult, np.cumsum(mult) - mult + n, dk)  # (n_max, M)
    k = np.arange(ks.max(initial=0))
    col_of = np.where(k < ks[:, None], (np.cumsum(ks) - ks)[:, None] + k, zero_col)  # (C, k_max)
    row_of, col_of = row_of[None, None], col_of[:, :, None, None]
    root = np.sqrt(np.where(mult > 0, cf.nu.as_array(), 1.0))
    q = s[row_of, col_of] / root
    v = t[:, row_of, :, col_of] / root[:, None, None]
    beta = tuple((c.value, c.multiplicity) for c in channels)
    return StochasticRealization._trusted(cf.space, cf.nu, beta, cf.multiplicity, q, v)


def from_realization(g) -> StochasticRealization:
    """Forget the ancilla: keep the channel weights and the extracted tables.

    ``g`` is a :class:`qmeasure.realization.StatisticalRealization`; the
    tables are taken against its default canonical form.
    """
    return extract_vq(g, canonicalize(g))


def _kraus_instrument(sr: StochasticRealization) -> KrausInstrument:
    """Kraus operators sqrt(beta_i nu(w)) W[i,k,n](w) in (i, k, n) order, unchecked."""
    wgt = sr.nu.as_array()
    table = []
    for a in range(sr.space.size):
        ops = []
        n_a = sr.multiplicity[a]
        if n_a > 0 and wgt[a] > 0:
            for i, (b, ki) in enumerate(sr.beta):
                scale = np.sqrt(b * wgt[a])
                for k in range(ki):
                    for n in range(n_a):
                        ops.append(scale * sr.w[i, k, n, a])
        table.append(tuple(ops))
    return KrausInstrument(sr.space, tuple(table), sr.dim_s)


def instrument_of_sr(
    sr: StochasticRealization, tol: float = DEFAULT_TOL
) -> KrausInstrument:
    """Instrument with Kraus operators sqrt(beta_i nu(w)) W[i,k,n](w).

    Raises
    ------
    NotOrthonormal
        If the q or W orthonormality relations fail beyond ``tol``
        (completeness of the result would fail with them).
    """
    sdev, odev = sr.orthonormality_deviations()
    if sdev > tol or odev > tol:
        raise NotOrthonormal(
            f"table orthonormality fails: scalar deviation {sdev:.3e}, "
            f"operator deviation {odev:.3e} (tol {tol:g})"
        )
    return _kraus_instrument(sr)


def _as_unitary_stack(mats, sizes, what: str, tol: float) -> list[np.ndarray]:
    """Validate a per-index family of unitary matrices of prescribed sizes."""
    out = []
    for idx, (m, size) in enumerate(zip(mats, sizes)):
        arr = np.array(m, dtype=complex)
        if arr.shape != (size, size):
            raise DimensionMismatch(
                f"{what} {idx} has shape {arr.shape}, expected ({size}, {size})"
            )
        dev = max_abs(dag(arr) @ arr - np.eye(size))
        if dev > tol:
            raise NotUnitaryMatrix(f"{what} {idx} is not unitary: deviation {dev:.3e}")
        out.append(arr)
    return out


def apply_transform(
    sr: StochasticRealization,
    z: Sequence | None = None,
    j: Sequence | None = None,
    phase: float = 0.0,
    new_base: FiniteMeasure | None = None,
    z_for_w: Sequence | None = None,
    j_for_w: Sequence | None = None,
    tol: float = DEFAULT_TOL,
) -> StochasticRealization:
    """Gauge transform of a stochastic realization.

    ``z`` holds one unitary per atom mixing the block index, ``j`` one
    unitary per channel mixing the multiplicity index; ``phase`` multiplies
    the operator table only.  Changing to an equivalent base measure rescales
    both tables by the square root of the density of the old base against
    the new one, so all weighted sums keep their values.

    By default the same matrices act on both tables, which preserves the
    whole invariant record.  Passing ``z_for_w``/``j_for_w`` lets the
    operator table rotate independently; that wider move still preserves
    the induced instrument but not the scalar-against-operator pairings.

    Raises
    ------
    NotUnitaryMatrix
        If a supplied matrix fails its unitarity check.
    NotAbsolutelyContinuous
        If ``new_base`` is not equivalent to the old base measure (their
        supports must agree).
    """
    c_count = sr.channel_count
    m = sr.space.size
    ks = [k for _, k in sr.beta]
    zs = (
        _as_unitary_stack(z, sr.multiplicity, "block mixer", tol)
        if z is not None
        else [np.eye(n, dtype=complex) for n in sr.multiplicity]
    )
    js = (
        _as_unitary_stack(j, ks, "channel mixer", tol)
        if j is not None
        else [np.eye(k, dtype=complex) for k in ks]
    )
    zw = _as_unitary_stack(z_for_w, sr.multiplicity, "block mixer (W)", tol) if z_for_w is not None else zs
    jw = _as_unitary_stack(j_for_w, ks, "channel mixer (W)", tol) if j_for_w is not None else js
    old_w = sr.nu.as_array()
    if new_base is None:
        nu2 = sr.nu
        jac = np.ones(m)
    else:
        if new_base.space != sr.space:
            raise DimensionMismatch("new base measure lives on a different outcome space")
        new_w = new_base.as_array()
        for lab, a, b in zip(sr.space.labels, old_w, new_w):
            if (a > 0) != (b > 0):
                raise NotAbsolutelyContinuous(
                    f"base measures are not equivalent: support differs at atom {lab!r}"
                )
        nu2 = new_base
        jac = np.sqrt(np.divide(old_w, new_w, out=np.zeros(m), where=new_w > 0))
    k_max, n_max = sr.q.shape[1], sr.q.shape[2]
    q2 = np.zeros_like(sr.q)
    w2 = np.zeros_like(sr.w)
    ph = np.exp(1j * phase)
    for i, ki in enumerate(ks):
        for a in range(m):
            n_a = sr.multiplicity[a]
            if n_a == 0:
                continue
            q_slice = sr.q[i, :ki, :n_a, a]  # (k, n)
            w_slice = sr.w[i, :ki, :n_a, a]  # (k, n, d, d)
            q2[i, :ki, :n_a, a] = jac[a] * np.einsum(
                "kp,nm,pm->kn", js[i], zs[a], q_slice
            )
            w2[i, :ki, :n_a, a] = (ph * jac[a]) * np.einsum(
                "kp,nm,pmab->knab", jw[i], zw[a], w_slice
            )
    return StochasticRealization._trusted(sr.space, nu2, sr.beta, sr.multiplicity, q2, w2)


def _channel_densities(sr: StochasticRealization) -> ChannelDensities:
    ks = np.array([k for _, k in sr.beta], dtype=float)
    kp = np.einsum("jknw,ipnw->jikpw", sr.q.conj(), sr.q)
    diag = np.einsum("jikkw->jiw", kp)
    channel = diag / ks[None, :, None]
    return ChannelDensities(sr.space, sr.nu, tuple(int(k) for k in ks), kp, channel)


def sr_invariants(sr: StochasticRealization) -> SRInvariants:
    """Channel densities and the per-channel measures of a realization."""
    dens = _channel_densities(sr)
    wgt = sr.nu.as_array()
    ks = np.array([k for _, k in sr.beta], dtype=float)
    channel_nu = dens.diagonal * wgt
    channel_theta = (
        np.einsum("iknwab,iknw,w->iwab", sr.w, sr.q.conj(), wgt)
        / ks[:, None, None, None]
    )
    mix = np.array([b * k for b, k in sr.beta])
    total_nu = np.einsum("c,cw->w", mix, channel_nu)
    total_theta = np.einsum("c,cwab->wab", mix, channel_theta)
    support = tuple(
        lab for lab, v in zip(sr.space.labels, wgt) if v > 0 and sr.multiplicity[sr.space.index(lab)] > 0
    )
    return SRInvariants(
        sr.space,
        sr.dim_s,
        support,
        sr.multiplicity,
        sr.beta,
        dens,
        channel_nu,
        total_nu,
        channel_theta,
        total_theta,
    )


def compare_invariants(
    a: SRInvariants, b: SRInvariants, cluster_tol: float = CLUSTER_TOL
) -> InvariantComparison:
    """Compare two invariant records, aligning one global phase on the operator tables.

    Structure: the outcome space and support, the block multiplicities on
    the support, and the weight profile as a multiset (channels
    sorted by weight and equal weights merged, see
    :meth:`SRInvariants.sorted_channels`).  Deviations: the per-channel and
    total probability tables, and the per-channel and total operator tables
    after quotienting out one global phase.  That phase comes from the
    overall phase of the joint unitary: it multiplies every operator-measure
    atom by the same unit complex number while leaving everything else
    fixed.  A structure mismatch or a system-dimension mismatch gives
    infinite deviations.
    """
    support_equal = a.space == b.space and set(a.support) == set(b.support)
    on_support = [a.space.index(lab) for lab in a.support]
    multiplicity_equal = support_equal and all(
        a.multiplicity[i] == b.multiplicity[i] for i in on_support
    )
    pa, nu_a, th_a = a.sorted_channels(cluster_tol)
    pb, nu_b, th_b = b.sorted_channels(cluster_tol)
    profile_equal = len(pa) == len(pb) and all(
        ka == kb and abs(ba - bb) <= cluster_tol for (ba, ka), (bb, kb) in zip(pa, pb)
    )
    if not (support_equal and multiplicity_equal and profile_equal and a.dim_s == b.dim_s):
        return InvariantComparison(
            support_equal, multiplicity_equal, profile_equal, np.inf, np.inf, 1.0
        )
    nu_dev = max(max_abs(nu_a - nu_b), max_abs(a.total_nu - b.total_nu))
    phase, theta_dev = align_global_phase([th_a, a.total_theta], [th_b, b.total_theta])
    return InvariantComparison(
        support_equal, multiplicity_equal, profile_equal, float(nu_dev), theta_dev, phase
    )


def equivalent(
    sr1: StochasticRealization,
    sr2: StochasticRealization,
    tol: float = DEFAULT_TOL,
    cluster_tol: float = CLUSTER_TOL,
) -> bool:
    """Whether the two realizations carry the same invariant record.

    The criterion is :func:`compare_invariants` on the two records at
    ``tol``.  It is necessary for gauge equivalence and exact on the
    transforms produced by :func:`apply_transform`.

    Raises
    ------
    IncompatibleOutcomeSpaces
        If the outcome spaces or system dimensions differ.
    """
    if sr1.space != sr2.space or sr1.dim_s != sr2.dim_s:
        raise IncompatibleOutcomeSpaces(
            "realizations live on different outcome spaces or dimensions"
        )
    return compare_invariants(sr_invariants(sr1), sr_invariants(sr2), cluster_tol).equal(tol)


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuantumStochasticRep:
    """Factorized measurement data: one operator per channel and atom.

    ``pi[i, a]`` is the phase-normalized channel operator, ``channel_nu`` the
    per-channel outcome probabilities, ``densities`` the full pairwise
    family.  ``q_factors`` records the scalar tables carrying the phases
    split off the operators, so ``pi * q_factors`` reproduces the source
    operator tables entrywise.
    """

    space: OutcomeSpace
    nu: FiniteMeasure
    profile: tuple[tuple[float, int], ...]  # (alpha, k) per channel
    pi: np.ndarray  # (C, M, d_s, d_s)
    channel_nu: np.ndarray  # (C, M)
    densities: ChannelDensities
    q_factors: np.ndarray  # (C, k_max, n_max, M)

    def __post_init__(self):
        for name in ("pi", "channel_nu", "q_factors"):
            object.__setattr__(self, name, _freeze(np.array(getattr(self, name))))

    @property
    def channel_count(self) -> int:
        return len(self.profile)

    @property
    def dim_s(self) -> int:
        return self.pi.shape[-1]

    def joint_orthonormality_deviation(self) -> float:
        """Worst violation of sum_w Pi_j^dag Pi_i p_ji(w) nu(w) = delta_ji I."""
        weighted = self.densities.premeasurement_state()  # (C, C, M)
        g = np.einsum("jwab,iwac,jiw->jibc", self.pi.conj(), self.pi, weighted)
        eye = np.einsum("ji,bc->jibc", np.eye(self.channel_count), np.eye(self.dim_s))
        return max_abs(g - eye)


@dataclass(frozen=True)
class NotFactorizable:
    """Witness that a realization's operator table does not split.

    Returned by :func:`factorize` instead of raising: failing to be of the
    factorized class is an answer, not an error.  Names the first channel
    and atom where the rank-1 split breaks down.
    """

    channel: int
    outcome: str
    reason: str
    residual: float

    def __bool__(self) -> bool:
        return False

    def __str__(self) -> str:
        return (
            f"not factorizable at channel {self.channel}, outcome {self.outcome!r}: "
            f"{self.reason} (residual {self.residual:.3e})"
        )


def factorize(
    sr: StochasticRealization, tol: float = CLUSTER_TOL
) -> Union[QuantumStochasticRep, NotFactorizable]:
    """Split each channel's operator table into one operator times scalars.

    Per channel i and atom w, the stacked operators {W[i,k,n](w)} must be
    scalar multiples of a common operator.  Detection is a rank test on the
    vectorized stack (second singular value at most ``tol`` times the
    first); the common operator is then read off as the ratio of the
    channel's operator measure to its probability measure, which needs no
    extra normalization.  Its first entry of largest magnitude is rotated to
    be real positive and the compensating phases move into the scalar
    factors, so gauge-equivalent inputs pin to the same representative.

    The assembled representation is verified before being returned: the
    pairwise-density orthonormality must hold and the rebuilt instrument
    must match the input's.  Any failure comes back as
    :class:`NotFactorizable` naming the obstruction.
    """
    inv = sr_invariants(sr)
    wgt = sr.nu.as_array()
    c_count = sr.channel_count
    m = sr.space.size
    ds = sr.dim_s
    pi = np.zeros((c_count, m, ds, ds), dtype=complex)
    q_fac = np.array(sr.q)
    for i, (_, ki) in enumerate(sr.beta):
        for a, lab in enumerate(sr.space.labels):
            n_a = sr.multiplicity[a]
            if n_a == 0 or wgt[a] == 0:
                continue
            stack = sr.w[i, :ki, :n_a, a].reshape(ki * n_a, ds * ds)
            scale = max_abs(stack)
            if scale <= ZERO_PROBABILITY:
                continue
            sv = np.linalg.svd(stack, compute_uv=False)
            if sv[0] > 0 and len(sv) > 1 and sv[1] > tol * sv[0]:
                return NotFactorizable(
                    i, lab, "operator stack has rank above one", float(sv[1] / sv[0])
                )
            nu_i = inv.channel_nu[i, a]
            if nu_i <= ZERO_PROBABILITY:
                return NotFactorizable(
                    i,
                    lab,
                    "operator table is nonzero where the channel measure vanishes",
                    float(scale),
                )
            cand = inv.channel_theta[i, a] / nu_i
            resid = max_abs(
                sr.w[i, :ki, :n_a, a]
                - cand[None, None, :, :] * sr.q[i, :ki, :n_a, a, None, None]
            )
            if resid > tol * max(scale, 1.0):
                return NotFactorizable(
                    i, lab, "scalar factors disagree with the q table", float(resid)
                )
            flat = np.abs(cand).ravel()
            # first entry within rounding of the max: unitary blocks carry
            # exact magnitude ties, and a bare argmax would flip between
            # them on numerical noise
            top = int(np.flatnonzero(flat >= flat.max() * (1.0 - 1e-9))[0])
            entry = cand.ravel()[top]
            ph = entry / abs(entry)
            pi[i, a] = cand * ph.conjugate()
            q_fac[i, :ki, :n_a, a] = sr.q[i, :ki, :n_a, a] * ph
    qsr = QuantumStochasticRep(
        sr.space,
        sr.nu,
        sr.beta,
        pi,
        inv.channel_nu,
        inv.densities,
        q_fac,
    )
    ortho = qsr.joint_orthonormality_deviation()
    if ortho > max(tol, DEFAULT_TOL):
        return NotFactorizable(
            -1, "*", "joint orthonormality fails on the assembled family", float(ortho)
        )
    rebuilt = qsr_instrument(qsr)
    source = instrument_of_sr(sr, tol=max(tol, DEFAULT_TOL))
    if not instruments_equal(rebuilt, source, tol=max(tol, DEFAULT_TOL)):
        return NotFactorizable(
            -1, "*", "rebuilt instrument deviates from the source", float("nan")
        )
    return qsr


def qsr_instrument(
    qsr: QuantumStochasticRep, tol: float = DEFAULT_TOL
) -> KrausInstrument:
    """Instrument with one Kraus operator per channel at each atom.

    The operator at (channel i, atom w) is
    ``sqrt(alpha_i k_i channel_nu[i](w)) pi[i](w)``.

    Raises
    ------
    NotOrthonormal
        If the joint orthonormality of the channel operators fails.
    """
    dev = qsr.joint_orthonormality_deviation()
    if dev > tol:
        raise NotOrthonormal(
            f"channel operators are not jointly orthonormal: deviation {dev:.3e}"
        )
    table = []
    for a in range(qsr.space.size):
        ops = []
        for i, (alpha, k) in enumerate(qsr.profile):
            mass = qsr.channel_nu[i, a]
            if mass > ZERO_PROBABILITY:
                ops.append(np.sqrt(alpha * k * mass) * qsr.pi[i, a])
        table.append(tuple(ops))
    return KrausInstrument(qsr.space, tuple(table), qsr.dim_s)


def from_channel_operators(
    beta: Sequence[float],
    pi_tables,
    f_tables,
    space: OutcomeSpace,
    nu: FiniteMeasure,
    multiplicity: Sequence[int] | None = None,
    tol: float = DEFAULT_TOL,
) -> StochasticRealization:
    """Build a factorizable realization from per-channel operators.

    Takes one operator per channel and atom (unitary wherever its channel
    has mass) plus scalar profiles ``f[i, a]`` with disjoint supports across
    channels, normalized so each channel's squared profile integrates to 1
    against ``nu``.  The scalar table becomes ``f_i(w) / sqrt(N(w))`` spread
    flat over the block index, and the operator table ``pi_i(w)`` times
    that, which satisfies both orthonormality relations by construction.

    This is the standard recipe for producing factorizable fixtures; it is
    deliberately narrow (multiplicity-1 channels, disjoint supports).
    """
    betas = [float(b) for b in beta]
    if any(b <= 0 for b in betas):
        raise WeightMismatch("channel weights must be positive")
    if abs(sum(betas) - 1.0) > tol:
        raise WeightMismatch(f"channel weights sum to {sum(betas):.12g}, not 1")
    f = np.array(f_tables, dtype=complex)
    pi = np.array(pi_tables, dtype=complex)
    c_count = len(betas)
    m = space.size
    ds = pi.shape[-1]
    if f.shape != (c_count, m) or pi.shape != (c_count, m, ds, ds):
        raise DimensionMismatch(
            f"expected f (C, atoms) and pi (C, atoms, d, d); got {f.shape} and {pi.shape}"
        )
    wgt = nu.as_array()
    if _gram_deviation(f[:, None, :, None, None], wgt) > tol:
        raise NotOrthonormal(
            "profiles must be nu-orthonormal with disjoint supports across channels"
        )
    for i in range(c_count):
        for a in range(m):
            if abs(f[i, a]) > ZERO_PROBABILITY and wgt[a] > 0:
                dev = max_abs(dag(pi[i, a]) @ pi[i, a] - np.eye(ds))
                if dev > tol:
                    raise NotUnitaryMatrix(
                        f"channel {i} operator at atom {space.labels[a]!r} "
                        f"is not unitary: deviation {dev:.3e}"
                    )
    mult = tuple(int(n) for n in multiplicity) if multiplicity is not None else (1,) * m
    n_max = max(mult) if mult else 1
    q = np.zeros((c_count, 1, n_max, m), dtype=complex)
    w = np.zeros((c_count, 1, n_max, m, ds, ds), dtype=complex)
    for a, n_a in enumerate(mult):
        if n_a == 0:
            continue
        flat = 1.0 / np.sqrt(n_a)
        for i in range(c_count):
            q[i, 0, :n_a, a] = f[i, a] * flat
            w[i, 0, :n_a, a] = pi[i, a] * (f[i, a] * flat)
    b = tuple((x, 1) for x in betas)
    return StochasticRealization(space, nu, b, mult, q, w)
