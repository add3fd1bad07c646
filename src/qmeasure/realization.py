"""Measuring processes as system-ancilla dynamical models.

A statistical realization is a 4-tuple: an ancilla space K with a state S,
a projection-valued measure P over the outcome atoms acting on K, and a
unitary U on system (x) ancilla.  The induced instrument at atom ``w`` maps
an observable A to the partial expectation of ``U^dag (A (x) P({w})) U``
over S.

This module holds the ancilla side: the realization type, dilation of an
instrument, von Neumann and indirect measuring processes, and unitary
equivalence of the ancilla.  Everything read off a realization once the
ancilla is integrated out (canonical form, the scalar and operator tables,
the induced instrument and the invariants that label a realization up to
unitary equivalence) goes through the stochastic tables of
:mod:`qmeasure.stochrep`, which does not import this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qcore import (
    DEFAULT_TOL,
    DensityOperator,
    DimensionMismatch,
    FiniteMeasure,
    NotOrthonormal,
    OutcomeSpace,
    ProjectionValuedMeasure,
    UnitaryOperator,
    _as_matrix,
    _as_vector,
    complete_to_unitary,
    dag,
    max_abs,
    tensor_product,
)
from .instrument import KrausInstrument, NotAProjectionFamily, validate
from .stochrep import (
    SRInvariants,
    WeightMismatch,
    _gram_deviation,
    _kraus_instrument,
    _range_basis,
    canonicalize,
    compare_invariants,
    extract_vq,
    from_realization,
    sr_invariants,
)

__all__ = [
    "PointerOverlap",
    "DimensionTooSmall",
    "StatisticalRealization",
    "canonicalize",
    "extract_vq",
    "instrument_of",
    "invariants",
    "compare_invariants",
    "apply_unitary_equivalence",
    "dilate",
    "von_neumann_process",
    "indirect_realization",
]


class PointerOverlap(ValueError):
    """Pointer vectors are not orthonormal."""


class DimensionTooSmall(ValueError):
    """The ancilla space cannot hold the requested pointer family."""


@dataclass(frozen=True, eq=False)
class StatisticalRealization:
    """Ancilla state, outcome PVM on the ancilla, and a joint unitary.

    Indexing on the composite space is system-major, matching
    :func:`qmeasure.qcore.tensor_product`.
    """

    dim_s: int
    s: DensityOperator
    p: ProjectionValuedMeasure
    u: UnitaryOperator

    def __post_init__(self):
        if self.dim_s < 1:
            raise DimensionMismatch("system dimension must be positive")
        if self.s.dim != self.p.dim:
            raise DimensionMismatch(
                f"ancilla state dim {self.s.dim} != PVM dim {self.p.dim}"
            )
        if self.u.dim != self.dim_s * self.s.dim:
            raise DimensionMismatch(
                f"unitary dim {self.u.dim} != {self.dim_s} x {self.s.dim}"
            )

    @property
    def dim_k(self) -> int:
        return self.s.dim

    @property
    def space(self) -> OutcomeSpace:
        return self.p.space


def instrument_of(
    g: StatisticalRealization, nu: FiniteMeasure | None = None
) -> KrausInstrument:
    """Instrument induced by the realization, in Kraus form.

    The Kraus operator for (channel i, index k, block index n) at atom w is
    sqrt(alpha_i * nu(w)) times the extracted operator table entry; summing
    their products reproduces the partial-expectation definition exactly, as
    the base-measure factors cancel.
    """
    return _kraus_instrument(extract_vq(g, canonicalize(g, nu)))


def invariants(g: StatisticalRealization) -> SRInvariants:
    """Channel measures, spectrum and multiplicity profile of a realization.

    The per-channel probability of atom w is the trace of the normalized
    channel projection against P({w}); the per-channel operator value is the
    partial expectation of (I (x) P({w})) U over the same normalized
    projection.  Both are read off the extracted tables, so the record is
    ``sr_invariants(from_realization(g))`` and compares with
    :func:`compare_invariants`.
    """
    return sr_invariants(from_realization(g))


# ---------------------------------------------------------------------------
# Transformations and constructors
# ---------------------------------------------------------------------------


def apply_unitary_equivalence(
    g: StatisticalRealization, w, phase: float = 0.0
) -> StatisticalRealization:
    """Conjugate the ancilla side by a unitary and rotate the global phase.

    The new realization induces the same instrument and the same invariant
    set, with the operator measures picking up exactly ``exp(i*phase)``.
    """
    wu = w if isinstance(w, UnitaryOperator) else UnitaryOperator(w)
    if wu.dim != g.dim_k:
        raise DimensionMismatch(f"ancilla unitary dim {wu.dim} != {g.dim_k}")
    wm = wu.matrix
    wd = dag(wm)
    s2 = DensityOperator(wd @ g.s.matrix @ wm)
    p2 = ProjectionValuedMeasure(
        g.space, tuple(wd @ blk @ wm for blk in g.p.blocks)
    )
    lift = tensor_product(np.eye(g.dim_s), wm)
    u2 = UnitaryOperator(np.exp(1j * phase) * (dag(lift) @ g.u.matrix @ lift))
    return StatisticalRealization(g.dim_s, s2, p2, u2)


def dilate(t: KrausInstrument, mode: str = "minimal") -> StatisticalRealization:
    """Build a measuring process whose induced instrument is ``t``.

    The ancilla gets one basis vector per Kraus operator, grouped into PVM
    blocks by atom.  The joint unitary is the completion of the isometry
    sending ``psi (x) eta`` to the superposition of ``A psi`` tagged by the
    matching ancilla vector.

    Parameters
    ----------
    t : KrausInstrument
        Must pass :func:`qmeasure.instrument.validate`.
    mode : {"minimal", "invariant"}
        Picks the initial ancilla vector ``eta``: the first basis vector
        (minimal), or the uniform superposition over all of them, which
        keeps every scalar-table entry nonzero.
    """
    if mode not in ("minimal", "invariant"):
        raise ValueError(f"unknown dilation mode {mode!r}")
    report = validate(t)
    if not report.passed:
        raise ValueError(f"cannot dilate an invalid instrument: {report}")
    ds = t.dim
    flat_ops = [a for ops in t.kraus for a in ops]
    ell = len(flat_ops)
    if ell < 1:
        raise ValueError("instrument has no Kraus operators")
    blocks = []
    start = 0
    for ops in t.kraus:
        blk = np.zeros((ell, ell), dtype=complex)
        for j in range(start, start + len(ops)):
            blk[j, j] = 1.0
        blocks.append(blk)
        start += len(ops)
    pvm = ProjectionValuedMeasure(t.space, tuple(blocks))
    if mode == "minimal":
        eta = np.zeros(ell, dtype=complex)
        eta[0] = 1.0
    else:
        eta = np.ones(ell, dtype=complex) / np.sqrt(ell)
    dom = np.kron(np.eye(ds, dtype=complex), eta.reshape(ell, 1))
    tgt = (
        np.stack(flat_ops)  # (ell, ds, ds): [j, a, b]
        .transpose(1, 0, 2)  # (ds, ell, ds): [a, j, b]
        .reshape(ds * ell, ds)
    )
    c_dom = complete_to_unitary(dom)
    c_tgt = complete_to_unitary(tgt)
    u = UnitaryOperator(c_tgt.matrix @ dag(c_dom.matrix))
    return StatisticalRealization(ds, DensityOperator.pure(eta), pvm, u)


def von_neumann_process(
    projections, eta, pointers=None
) -> StatisticalRealization:
    """Measuring process for a projective observable with explicit pointers.

    The ancilla starts in ``eta``; the joint unitary writes the observed
    spectral atom into the pointer basis while leaving eigenvectors of the
    measured observable untouched.  The induced instrument is the projective
    one regardless of ``eta``, but the invariants depend on it.

    Parameters
    ----------
    projections : ProjectionValuedMeasure or iterable of (label, matrix)
        Spectral atoms of the measured observable, on the system.
    eta : array_like
        Unit vector, the initial ancilla state.
    pointers : array_like, optional
        Columns eta_j, one per atom, forming an orthonormal basis of the
        ancilla.  Defaults to the standard basis.

    Raises
    ------
    PointerOverlap
        If the pointer family is not orthonormal.
    DimensionTooSmall
        If the ancilla cannot hold one pointer per outcome.
    """
    if isinstance(projections, ProjectionValuedMeasure):
        pvm_s = projections
    else:
        pairs = list(projections)
        try:
            pvm_s = ProjectionValuedMeasure(
                OutcomeSpace(tuple(lab for lab, _ in pairs)),
                tuple(p for _, p in pairs),
            )
        except (ValueError, DimensionMismatch) as exc:
            raise NotAProjectionFamily(str(exc)) from exc
    m = pvm_s.space.size
    eta_vec = _as_vector(eta, "ancilla vector")
    dk = eta_vec.size
    if dk < m:
        raise DimensionTooSmall(
            f"ancilla dim {dk} cannot index {m} outcomes"
        )
    if abs(np.linalg.norm(eta_vec) - 1.0) > 1e-8:
        raise ValueError("ancilla vector must be normalized")
    if pointers is None:
        ptr = np.eye(dk, dtype=complex)[:, :m]
    else:
        ptr = _as_matrix(pointers, "pointer family")
        if ptr.shape != (dk, m):
            raise DimensionMismatch(
                f"pointer family shape {ptr.shape}, expected ({dk}, {m})"
            )
    if max_abs(dag(ptr) @ ptr - np.eye(m)) > DEFAULT_TOL:
        raise PointerOverlap("pointer vectors are not orthonormal")
    # Pointer projections must resolve the ancilla identity to make a PVM,
    # so the pointers have to span all of K.
    if dk != m:
        raise DimensionMismatch(
            f"pointers must form a complete ancilla basis: {m} vectors in dim {dk}"
        )
    ds = pvm_s.dim
    dom_cols = []
    tgt_cols = []
    for j, lab in enumerate(pvm_s.space.labels):
        rank = pvm_s.rank(lab)
        if rank == 0:
            continue
        basis = _range_basis(pvm_s.block(lab), rank)
        for kk in range(rank):
            psi = basis[:, kk]
            dom_cols.append(np.kron(psi, eta_vec))
            tgt_cols.append(np.kron(psi, ptr[:, j]))
    c_dom = complete_to_unitary(np.column_stack(dom_cols))
    c_tgt = complete_to_unitary(np.column_stack(tgt_cols))
    u = UnitaryOperator(c_tgt.matrix @ dag(c_dom.matrix))
    pvm_k = ProjectionValuedMeasure(
        pvm_s.space,
        tuple(np.outer(ptr[:, j], ptr[:, j].conj()) for j in range(m)),
    )
    return StatisticalRealization(ds, DensityOperator.pure(eta_vec), pvm_k, u)


def indirect_realization(
    beta: Sequence[float],
    q_tables,
    v_tables,
    space: OutcomeSpace,
    nu: FiniteMeasure,
    multiplicity: Sequence[int] | None = None,
    tol: float = DEFAULT_TOL,
) -> StatisticalRealization:
    """Assemble a measuring process from channel weights and density tables.

    The data prescribe, per channel i and block index n, a scalar density
    ``q[i, n, w]`` against ``nu`` and a system operator ``v[i, n, w]``.  The
    ancilla is the direct sum of per-atom blocks of the given multiplicity,
    its state has spectrum ``beta`` with eigenvectors determined by the
    scalar tables, and the joint unitary is the completed isometry making
    the extracted operator table equal ``v * q`` entrywise.

    The scalar tables must be orthonormal in the nu-weighted sense and the
    products ``v * q`` must be orthonormal in the operator sense; both are
    required for the target columns of the isometry to be orthonormal.

    Raises
    ------
    WeightMismatch
        If the weights are negative, do not sum to 1, or do not match the
        number of channel tables.
    NotOrthonormal
        If either orthonormality relation fails beyond ``tol``.
    """
    betas = np.array([float(b) for b in beta])
    q = np.array(q_tables, dtype=complex)
    v = np.array(v_tables, dtype=complex)
    if q.ndim != 3 or v.ndim != 5 or v.shape[:3] != q.shape:
        raise DimensionMismatch(
            f"expected q (C, n, atoms) and v (C, n, atoms, d, d); got {q.shape} and {v.shape}"
        )
    c_count, n_max, m = q.shape
    ds = v.shape[-1]
    if v.shape[-2] != ds:
        raise DimensionMismatch("operator table entries must be square")
    if m != space.size:
        raise DimensionMismatch(f"tables cover {m} atoms, space has {space.size}")
    if nu.space != space:
        raise DimensionMismatch("base measure lives on a different outcome space")
    if len(betas) != c_count:
        raise WeightMismatch(f"{len(betas)} weights for {c_count} channel tables")
    if np.any(betas <= 0):
        raise WeightMismatch("channel weights must be positive")
    if abs(betas.sum() - 1.0) > tol:
        raise WeightMismatch(f"channel weights sum to {betas.sum():.12g}, not 1")
    mult = tuple(int(x) for x in multiplicity) if multiplicity is not None else (n_max,) * m
    if len(mult) != m:
        raise DimensionMismatch("multiplicity profile must cover every atom")
    if any(n < 0 or n > n_max for n in mult):
        raise DimensionMismatch(f"multiplicities must lie in [0, {n_max}]")
    w = nu.as_array()
    # Zero out padding beyond each atom's multiplicity before checking.
    mask = np.zeros((n_max, m))
    for a, n_a in enumerate(mult):
        mask[:n_a, a] = 1.0
    q = q * mask
    v = v * mask[None, :, :, None, None]
    dev = _gram_deviation(q[..., None, None], w)
    if dev > tol:
        raise NotOrthonormal(f"scalar tables are not nu-orthonormal: deviation {dev:.3e}")
    vq = v * q[:, :, :, None, None]
    dev = _gram_deviation(vq, w)
    if dev > tol:
        raise NotOrthonormal(f"operator tables are not orthonormal: deviation {dev:.3e}")
    dk = sum(mult)
    if dk < 1:
        raise DimensionMismatch("ancilla would be empty: all multiplicities are zero")
    offsets = np.concatenate(([0], np.cumsum(mult)))
    root = np.sqrt(w)
    phis = np.zeros((dk, c_count), dtype=complex)
    for a, n_a in enumerate(mult):
        phis[offsets[a] : offsets[a] + n_a, :] = (q[:, :n_a, a] * root[a]).T
    blocks = []
    for a, n_a in enumerate(mult):
        blk = np.zeros((dk, dk), dtype=complex)
        for j in range(offsets[a], offsets[a] + n_a):
            blk[j, j] = 1.0
        blocks.append(blk)
    pvm = ProjectionValuedMeasure(space, tuple(blocks))
    s_mat = (phis * betas) @ dag(phis)
    dom = np.hstack(
        [np.kron(np.eye(ds, dtype=complex), phis[:, [i]]) for i in range(c_count)]
    )
    tgt_blocks = []
    for i in range(c_count):
        blk = np.zeros((ds * dk, ds), dtype=complex)
        for a, n_a in enumerate(mult):
            for n in range(n_a):
                r = offsets[a] + n
                blk[r::dk, :] += vq[i, n, a] * root[a]
        tgt_blocks.append(blk)
    tgt = np.hstack(tgt_blocks)
    utol = max(20 * tol, DEFAULT_TOL)
    c_dom = complete_to_unitary(dom, tol=max(tol, DEFAULT_TOL))
    c_tgt = complete_to_unitary(tgt, tol=max(tol, DEFAULT_TOL))
    u = UnitaryOperator(c_tgt.matrix @ dag(c_dom.matrix), utol)
    return StatisticalRealization(ds, DensityOperator(s_mat, utol), pvm, u)
