import dataclasses

import numpy as np
import pytest

from qmeasure import (
    ZERO_PROBABILITY,
    DensityOperator,
    DimensionMismatch,
    FiniteMeasure,
    IncompatibleOutcomeSpaces,
    KrausInstrument,
    NotAbsolutelyContinuous,
    NotFactorizable,
    NotOrthonormal,
    NotUnitaryMatrix,
    OutcomeSpace,
    ProjectionValuedMeasure,
    StatisticalRealization,
    StochasticRealization,
    UnitaryOperator,
    WeightMismatch,
    align_global_phase,
    apply_transform,
    apply_unitary_equivalence,
    canonicalize,
    compare_invariants,
    dilate,
    equivalent,
    extract_vq,
    factorize,
    from_channel_operators,
    from_realization,
    instrument_of,
    instrument_of_sr,
    instruments_equal,
    invariants,
    outcome_distribution,
    qsr_instrument,
    radon_nikodym,
    spectral_decompose,
    sr_invariants,
    von_neumann_instrument,
)
from conftest import (
    HADAMARD,
    P_MINUS,
    P_PLUS,
    maps_equal,
    rand_instrument,
    rand_realization,
    rand_unitary,
)


def sr_of(instr, mode="invariant"):
    return from_realization(dilate(instr, mode=mode))


def two_channel_sr(beta=(0.5, 0.5), u0=None, u1=None):
    """Factorizable two-channel fixture: disjoint scalar profiles on two
    atoms, one unitary per channel."""
    space = OutcomeSpace(("a", "b"))
    nu = FiniteMeasure(space, (0.5, 0.5))
    f = [[np.sqrt(2.0), 0.0], [0.0, np.sqrt(2.0)]]
    pi = [
        [u0 if u0 is not None else np.eye(2), np.eye(2)],
        [np.eye(2), u1 if u1 is not None else HADAMARD],
    ]
    return from_channel_operators(beta, pi, f, space, nu)


def channel_reordered_pair():
    """The two-channel fixture and the same data with the channels listed
    in the opposite order."""
    a = two_channel_sr(beta=(0.3, 0.7))
    f = [[0.0, np.sqrt(2.0)], [np.sqrt(2.0), 0.0]]
    pi = [[np.eye(2), HADAMARD], [np.eye(2), np.eye(2)]]
    return a, from_channel_operators((0.7, 0.3), pi, f, a.space, a.nu)


def pairwise_deviations(sr):
    """Reference for StochasticRealization.orthonormality_deviations: one
    weighted sum per pair of (channel, multiplicity index) rows."""
    wgt = sr.nu.as_array()
    pairs = [(i, k) for i, (_, ki) in enumerate(sr.beta) for k in range(ki)]
    eye = np.eye(sr.dim_s)
    sdev = 0.0
    odev = 0.0
    for j, p in pairs:
        for i, k in pairs:
            target = 1.0 if (j, p) == (i, k) else 0.0
            g = np.einsum("nw,nw,w->", sr.q[j, p].conj(), sr.q[i, k], wgt)
            sdev = max(sdev, abs(g - target))
            go = np.einsum("nwab,nwac,w->bc", sr.w[j, p].conj(), sr.w[i, k], wgt)
            odev = max(odev, np.max(np.abs(go - target * eye)))
    return sdev, odev


def reference_extract(g, cf):
    """Reference for extract_vq: one contraction per (channel, atom).

    Returns (beta, multiplicity, q, w) with the padded table layout of
    StochasticRealization."""
    ds, dk = g.dim_s, g.dim_k
    channels = [c for c in spectral_decompose(g.s.matrix) if c.value > ZERO_PROBABILITY]
    k_max = max(c.multiplicity for c in channels)
    n_max = max(cf.multiplicity)
    m = cf.space.size
    v = np.zeros((len(channels), k_max, n_max, m, ds, ds), dtype=complex)
    q = np.zeros((len(channels), k_max, n_max, m), dtype=complex)
    u4 = g.u.matrix.reshape(ds, dk, ds, dk)
    w = cf.nu.as_array()
    for ci, cluster in enumerate(channels):
        phi = cluster.vectors
        for a, (n_a, basis) in enumerate(zip(cf.multiplicity, cf.block_bases)):
            if n_a == 0:
                continue
            root = np.sqrt(w[a])
            kk = np.einsum("mn,ambl,lk->knab", basis.conj(), u4, phi)
            v[ci, : cluster.multiplicity, :n_a, a] = kk / root
            q[ci, : cluster.multiplicity, :n_a, a] = np.einsum("mn,mk->kn", basis.conj(), phi) / root
    beta = tuple((c.value, c.multiplicity) for c in channels)
    return beta, cf.multiplicity, q, v


def realization_with(rng, spectrum, ranks, dim_s=2):
    """Random realization with the given ancilla spectrum (repeats make
    degenerate channels, zeros a rank-deficient state) and PVM ranks (zeros
    make null atoms)."""
    dk = len(spectrum)
    space = OutcomeSpace(tuple(f"w{a}" for a in range(len(ranks))))
    vecs = rand_unitary(dk, rng)
    s = DensityOperator((vecs * np.array(spectrum, dtype=float)) @ vecs.conj().T)
    basis = rand_unitary(dk, rng)
    edges = np.concatenate(([0], np.cumsum(ranks)))
    blocks = tuple(basis[:, lo:hi] @ basis[:, lo:hi].conj().T for lo, hi in zip(edges[:-1], edges[1:]))
    u = UnitaryOperator(rand_unitary(dim_s * dk, rng))
    return StatisticalRealization(dim_s, s, ProjectionValuedMeasure(space, blocks), u)


def degenerate_realization(rng):
    """Ancilla spectrum (0.5, 0.25, 0.25), so one channel has multiplicity
    2; PVM ranks (2, 1, 0), so atom "b" has fewer block indices than "a"
    and atom "c" is null."""
    space = OutcomeSpace(("a", "b", "c"))
    basis = rand_unitary(3, rng)
    blocks = (basis[:, :2] @ basis[:, :2].conj().T, np.outer(basis[:, 2], basis[:, 2].conj()), np.zeros((3, 3)))
    s = DensityOperator(np.diag([0.25, 0.5, 0.25]).astype(complex))
    u = UnitaryOperator(rand_unitary(6, rng))
    return StatisticalRealization(2, s, ProjectionValuedMeasure(space, blocks), u)


# ---------------------------------------------------------------------------
# Construction and table masking
# ---------------------------------------------------------------------------


class TestConstruction:
    def test_weights_must_mix_to_one(self, fix_ad):
        sr = sr_of(fix_ad)
        bad = tuple((b * 1.1, k) for b, k in sr.beta)
        with pytest.raises(WeightMismatch):
            dataclasses.replace(sr, beta=bad)

    def test_weights_must_be_positive(self, fix_ad):
        sr = sr_of(fix_ad)
        with pytest.raises(WeightMismatch):
            dataclasses.replace(sr, beta=((-1.0, 1),) + sr.beta[1:])

    def test_block_counts_at_least_one(self, fix_ad):
        sr = sr_of(fix_ad)
        with pytest.raises(WeightMismatch):
            dataclasses.replace(sr, beta=((sr.beta[0][0], 0),) + sr.beta[1:])

    def test_tables_masked_outside_blocks(self):
        from qmeasure import StochasticRealization

        space = OutcomeSpace(("a", "b"))
        nu = FiniteMeasure(space, (0.5, 0.5))
        q = np.full((1, 1, 2, 2), 0.123 + 0j)
        w = np.full((1, 1, 2, 2, 2, 2), 0.456 + 0j)
        # multiplicity (1, 1): anything stored at block index 1 is dead data
        sr = StochasticRealization(space, nu, ((1.0, 1),), (1, 1), q, w)
        assert np.all(sr.q[:, :, 1, :] == 0)
        assert np.all(sr.w[:, :, 1, :, :, :] == 0)
        assert np.all(sr.q[:, :, 0, :] == 0.123)

    def test_arrays_frozen(self, fix_z):
        sr = sr_of(fix_z)
        with pytest.raises(ValueError):
            sr.q[0, 0, 0, 0] = 1.0


# ---------------------------------------------------------------------------
# Extraction from realizations
# ---------------------------------------------------------------------------


class TestFromRealization:
    def test_orthonormality_of_extracted_tables(self, fix_ad):
        sr = sr_of(fix_ad)
        scalar, operator = sr.orthonormality_deviations()
        assert scalar <= 1e-9
        assert operator <= 1e-9

    def test_instrument_round_trip(self, fix_ad):
        g = dilate(fix_ad, mode="invariant")
        assert instruments_equal(instrument_of_sr(from_realization(g)), instrument_of(g))

    def test_round_trip_matches_source_instrument(self, rng):
        for _ in range(6):
            t = rand_instrument(rng)
            rebuilt = instrument_of_sr(sr_of(t))
            assert instruments_equal(rebuilt, t, tol=1e-9)
            assert maps_equal(rebuilt, t)

    def test_flat_scalar_table_for_invariant_dilation(self, fix_z):
        # the spread-out pointer makes every atom carry scalar weight 1/sqrt(2)
        sr = sr_of(fix_z)
        assert sr.q[0, 0, 0, :] == pytest.approx(np.full(2, 1 / np.sqrt(2)))

    def test_broken_tables_rejected_by_induced_instrument(self, fix_z):
        sr = sr_of(fix_z)
        q = np.array(sr.q)
        q[0, 0, 0, 0] *= 3.0
        broken = dataclasses.replace(sr, q=q)
        with pytest.raises(NotOrthonormal):
            instrument_of_sr(broken)

    def test_deviation_report_scales_with_damage(self, fix_z):
        sr = sr_of(fix_z)
        w = np.array(sr.w)
        w[0, 0, 0, 0] += 0.05
        scalar, operator = dataclasses.replace(sr, w=w).orthonormality_deviations()
        assert scalar <= 1e-9  # q untouched
        assert operator > 1e-3


class TestOrthonormalityDeviations:
    """The weighted Gram matrix against the pairwise reference loop."""

    @staticmethod
    def random_tables(rng, beta, multiplicity, weights, dim_s=2):
        space = OutcomeSpace(tuple(f"w{a}" for a in range(len(multiplicity))))
        shape = (len(beta), max(k for _, k in beta), max(multiplicity), len(multiplicity))
        q = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        w = rng.normal(size=shape + (dim_s, dim_s)) + 1j * rng.normal(size=shape + (dim_s, dim_s))
        return StochasticRealization(space, FiniteMeasure(space, weights), beta, multiplicity, q, w)

    def test_random_tables_match_reference(self, rng):
        cases = [
            # multiplicity-2 and -3 channels, atoms below n_max, a null atom,
            # and a zero-weight atom that still has block indices
            (((0.2, 2), (0.6, 1)), (3, 1, 0, 2), (0.5, 1.5, 0.0, 0.0)),
            (((0.1, 3), (0.35, 2)), (1, 2), (2.0, 0.25)),
            (((1.0, 1),), (2, 2, 1), (0.0, 1.0, 3.0)),
        ]
        for beta, mult, weights in cases:
            for dim_s in (1, 3):
                sr = self.random_tables(rng, beta, mult, weights, dim_s)
                np.testing.assert_allclose(
                    sr.orthonormality_deviations(), pairwise_deviations(sr), rtol=0, atol=1e-12
                )

    def test_extracted_tables_match_reference(self, rng):
        for _ in range(3):
            g = degenerate_realization(rng)
            nu = FiniteMeasure(g.space, (0.3, 2.0, 0.0))
            for sr in (from_realization(g), extract_vq(g, canonicalize(g, nu))):
                assert [k for _, k in sr.beta] == [1, 2]
                got = sr.orthonormality_deviations()
                np.testing.assert_allclose(got, pairwise_deviations(sr), rtol=0, atol=1e-12)
                assert max(got) <= 1e-9

    def test_perturbed_entry_detected(self, rng):
        sr = from_realization(degenerate_realization(rng))
        w = np.array(sr.w)
        w[1, 1, 0, 1, 0, 1] += 1e-3  # second multiplicity index, atom "b"
        broken = dataclasses.replace(sr, w=w)
        got = broken.orthonormality_deviations()
        np.testing.assert_allclose(got, pairwise_deviations(broken), rtol=0, atol=1e-12)
        assert got[0] <= 1e-9
        assert got[1] > 1e-4


class TestExtractionMatchesReference:
    """The single rotation of U against the per-(channel, atom) loop."""

    @staticmethod
    def assert_matches(sr, g, cf):
        beta, mult, q, w = reference_extract(g, cf)
        assert [k for _, k in sr.beta] == [k for _, k in beta]
        np.testing.assert_allclose([b for b, _ in sr.beta], [b for b, _ in beta], rtol=0, atol=1e-12)
        assert sr.multiplicity == mult
        assert sr.q.shape == q.shape and sr.w.shape == w.shape
        np.testing.assert_allclose(sr.q, q, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sr.w, w, rtol=0, atol=1e-12)

    def check(self, g, nu=None):
        cf = canonicalize(g, nu)
        sr = extract_vq(g, cf)
        self.assert_matches(sr, g, cf)
        return sr

    def test_degenerate_ancilla_null_atom_uneven_blocks(self, rng):
        # channels of multiplicity 3, 2 and 1; ranks (3, 2, 0, 1)
        for dim_s in (1, 2):
            sr = self.check(realization_with(rng, (0.1, 0.1, 0.1, 0.2, 0.2, 0.3), (3, 2, 0, 1), dim_s))
            assert sorted(k for _, k in sr.beta) == [1, 2, 3]
            assert not sr.q[:, :, :, 2].any() and not sr.w[:, :, :, 2].any()
            assert not sr.w[:, :, 2:, 1].any()  # atom w1 has two block indices of three

    def test_rank_deficient_ancilla_drops_zero_weights(self, rng):
        g = realization_with(rng, (0.5, 0.25, 0.25, 0.0, 0.0), (1, 2, 2))
        sr = self.check(g)
        assert [k for _, k in sr.beta] == [1, 2]

    def test_dim_s_one(self, rng):
        for _ in range(3):
            spectrum = rng.uniform(0.1, 1.0, 4)
            self.check(realization_with(rng, spectrum / spectrum.sum(), (2, 1, 1), dim_s=1))

    def test_non_uniform_base_measure(self, rng):
        g = realization_with(rng, (0.1, 0.1, 0.1, 0.2, 0.2, 0.3), (3, 2, 0, 1))
        nu = FiniteMeasure(g.space, (0.3, 2.0, 0.0, 1.5))
        self.check(g, nu)
        beta, _, _, w = reference_extract(g, canonicalize(g, nu))
        t = instrument_of(g, nu)
        wgt = nu.as_array()
        for a, ops in enumerate(t.kraus):
            want = [
                np.sqrt(b * wgt[a]) * w[i, k, n, a]
                for i, (b, ki) in enumerate(beta)
                for k in range(ki)
                for n in range(g.p.ranks[a])
            ]
            assert len(ops) == len(want)
            np.testing.assert_allclose(np.array(ops).reshape(-1), np.array(want).reshape(-1), rtol=0, atol=1e-12)

    def test_dilation_shapes(self, rng):
        # one channel; rank-1 atoms when every atom has one Kraus operator
        for max_kraus in (1, 1, 2, 2):
            t = rand_instrument(rng, dim=int(rng.integers(1, 4)), max_kraus=max_kraus)
            for mode in ("minimal", "invariant"):
                g = dilate(t, mode=mode)
                sr = from_realization(g)
                assert [k for _, k in sr.beta] == [1]
                assert max_kraus > 1 or set(sr.multiplicity) == {1}
                self.assert_matches(sr, g, canonicalize(g))

    def test_random_realizations(self, rng):
        for _ in range(5):
            self.check(rand_realization(rng, dim_s=3, dim_k=int(rng.integers(2, 7)), n_atoms=2))


# ---------------------------------------------------------------------------
# Pairwise channel densities
# ---------------------------------------------------------------------------


class TestChannelDensities:
    def test_integral_is_identity_matrix(self):
        sr = two_channel_sr(beta=(0.3, 0.7))
        assert sr_invariants(sr).densities.integral_deviation() <= 1e-12

    def test_diagonal_is_density_of_channel_measure(self, fix_ad):
        sr = sr_of(fix_ad)
        inv = sr_invariants(sr)
        dens = inv.densities
        for i in range(sr.channel_count):
            target = FiniteMeasure(sr.space, tuple(inv.channel_nu[i]))
            d = radon_nikodym(target, sr.nu)
            assert dens.diagonal[i] == pytest.approx(np.asarray(d), abs=1e-10)

    def test_premeasurement_state_weights_by_base(self):
        sr = two_channel_sr()
        dens = sr_invariants(sr).densities
        got = dens.premeasurement_state()
        assert got == pytest.approx(dens.channel * sr.nu.as_array()[None, None, :])

    def test_off_diagonal_vanishes_for_disjoint_channels(self):
        dens = sr_invariants(two_channel_sr()).densities
        assert abs(dens.channel[0, 1]).max() <= 1e-12
        assert abs(dens.channel[1, 0]).max() <= 1e-12


# ---------------------------------------------------------------------------
# Invariants of the scalar/operator pair
# ---------------------------------------------------------------------------


class TestSRInvariants:
    def test_single_isometry_channel(self, fix_iso):
        inv = sr_invariants(sr_of(fix_iso))
        assert inv.total_nu == pytest.approx(np.array([1.0]))
        assert inv.total_theta[0] == pytest.approx(HADAMARD, abs=1e-12)

    def test_total_weighs_channels_by_profile(self):
        sr = two_channel_sr(beta=(0.25, 0.75))
        inv = sr_invariants(sr)
        mix = np.array([b * k for b, k in sr.beta])
        assert inv.total_nu == pytest.approx(np.einsum("c,cw->w", mix, inv.channel_nu))

    def test_channel_measures_are_probabilities(self, rng):
        for _ in range(5):
            inv = sr_invariants(sr_of(rand_instrument(rng)))
            assert inv.channel_nu.min() >= -1e-12
            assert np.sum(inv.channel_nu, axis=1) == pytest.approx(
                np.ones(len(inv.beta_profile))
            )

    def test_support_drops_dead_atoms(self):
        space = OutcomeSpace(("a", "b", "c"))
        nu = FiniteMeasure(space, (0.5, 0.5, 0.0))
        f = [[np.sqrt(2.0), 0.0, 0.0], [0.0, np.sqrt(2.0), 0.0]]
        pi = [[np.eye(2)] * 3, [np.eye(2), HADAMARD, np.eye(2)]]
        sr = from_channel_operators((0.5, 0.5), pi, f, space, nu)
        assert sr_invariants(sr).support == ("a", "b")

    def test_sorted_channels_merge_equal_weights(self):
        inv = sr_invariants(two_channel_sr(beta=(0.5, 0.5)))
        profile, nu, theta = inv.sorted_channels()
        assert profile == ((0.5, 2),)
        # merged table averages the two disjoint channel measures
        assert nu[0] == pytest.approx(inv.channel_nu.mean(axis=0))
        assert theta.shape == (1,) + inv.channel_theta.shape[1:]


# ---------------------------------------------------------------------------
# Gauge transforms
# ---------------------------------------------------------------------------


class TestApplyTransform:
    def test_no_arguments_is_identity(self, fix_ad):
        sr = sr_of(fix_ad)
        out = apply_transform(sr)
        assert np.array_equal(out.q, sr.q)
        assert np.array_equal(out.w, sr.w)

    def test_block_and_channel_mixers_preserve_everything(self, rng, fix_ad):
        sr = sr_of(fix_ad)
        z = [rand_unitary(n, rng) for n in sr.multiplicity]
        j = [rand_unitary(k, rng) for _, k in sr.beta]
        out = apply_transform(sr, z=z, j=j)
        assert instruments_equal(instrument_of_sr(out), instrument_of_sr(sr), tol=1e-9)
        assert equivalent(sr, out)
        a, b = sr_invariants(sr), sr_invariants(out)
        assert a.channel_nu == pytest.approx(b.channel_nu, abs=1e-12)
        assert a.channel_theta == pytest.approx(b.channel_theta, abs=1e-12)

    def test_phase_moves_whole_operator_record(self, fix_z):
        sr = sr_of(fix_z)
        out = apply_transform(sr, phase=0.9)
        assert np.array_equal(out.q, sr.q)
        assert out.w == pytest.approx(np.exp(0.9j) * sr.w)
        assert equivalent(sr, out)
        ph, dev = align_global_phase(
            [sr_invariants(sr).total_theta], [sr_invariants(out).total_theta]
        )
        assert dev <= 1e-12
        # the aligner reports the phase that pulls the second family back
        assert ph == pytest.approx(np.exp(-0.9j))

    def test_doubled_base_measure_shrinks_tables(self, fix_z):
        sr = sr_of(fix_z)
        doubled = FiniteMeasure(sr.space, tuple(2 * v for v in sr.nu.as_array()))
        out = apply_transform(sr, new_base=doubled)
        assert out.q == pytest.approx(sr.q / np.sqrt(2.0))
        assert out.w == pytest.approx(sr.w / np.sqrt(2.0))
        assert equivalent(sr, out)
        assert instruments_equal(instrument_of_sr(out), instrument_of_sr(sr))

    def test_independent_operator_mixers_keep_only_the_instrument(self, fix_z):
        sr = sr_of(fix_z)
        zw = [np.array([[np.exp(0.7j)]]), np.array([[1.0 + 0j]])]
        out = apply_transform(sr, z_for_w=zw)
        assert instruments_equal(instrument_of_sr(out), instrument_of_sr(sr), tol=1e-9)
        # per-atom phases of the operator table are not one global phase
        assert not equivalent(sr, out)

    def test_rejects_nonunitary_mixer(self, fix_z):
        sr = sr_of(fix_z)
        with pytest.raises(NotUnitaryMatrix):
            apply_transform(sr, z=[np.array([[2.0]]), np.array([[1.0]])])

    def test_rejects_inequivalent_base(self, fix_z):
        sr = sr_of(fix_z)
        lop = FiniteMeasure(sr.space, (1.0, 0.0))
        with pytest.raises(NotAbsolutelyContinuous):
            apply_transform(sr, new_base=lop)

    def test_rejects_base_on_foreign_space(self, fix_z):
        sr = sr_of(fix_z)
        other = OutcomeSpace(("x", "y"))
        with pytest.raises(DimensionMismatch):
            apply_transform(sr, new_base=FiniteMeasure(other, (1.0, 1.0)))

    def test_composition_of_transforms(self, rng, fix_ad):
        sr = sr_of(fix_ad)
        z1 = [rand_unitary(n, rng) for n in sr.multiplicity]
        z2 = [rand_unitary(n, rng) for n in sr.multiplicity]
        once = apply_transform(apply_transform(sr, z=z1), z=z2)
        both = apply_transform(sr, z=[b @ a for a, b in zip(z1, z2)])
        assert once.q == pytest.approx(both.q, abs=1e-12)
        assert once.w == pytest.approx(both.w, abs=1e-12)


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------


class TestEquivalent:
    def test_reflexive(self, fix_ad):
        sr = sr_of(fix_ad)
        assert equivalent(sr, sr)

    def test_distinct_instruments_differ(self):
        space = OutcomeSpace(("0", "1"))
        ad = KrausInstrument(
            space,
            {
                "0": [np.array([[1, 0], [0, np.sqrt(0.5)]])],
                "1": [np.array([[0, np.sqrt(0.5)], [0, 0]])],
            },
            2,
        )
        vn = von_neumann_instrument(
            [("0", np.diag([1.0, 0.0])), ("1", np.diag([0.0, 1.0]))]
        )
        assert not equivalent(sr_of(ad), sr_of(vn))

    def test_channel_order_is_immaterial(self):
        a, b = channel_reordered_pair()
        assert equivalent(a, b)

    def test_incompatible_spaces_raise(self, fix_z, fix_ad):
        with pytest.raises(IncompatibleOutcomeSpaces):
            equivalent(sr_of(fix_z), sr_of(fix_ad))

    def test_detects_weight_profile_change(self):
        assert not equivalent(
            two_channel_sr(beta=(0.5, 0.5)), two_channel_sr(beta=(0.3, 0.7))
        )

    def test_detects_operator_change(self):
        theta = 0.3
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        assert not equivalent(two_channel_sr(), two_channel_sr(u1=rot @ HADAMARD))


class TestComparisonsAgree:
    """compare_invariants on realization records and equivalent on the
    extracted tables give one answer."""

    def test_realization_pairs(self, rng):
        g = rand_realization(rng, dim_s=2, dim_k=3, n_atoms=2)
        diag_p = ProjectionValuedMeasure(
            OutcomeSpace(("w0", "w1")), (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        )
        u = UnitaryOperator(rand_unitary(4, rng))

        def with_state(weights, unitary=u):
            return StatisticalRealization(2, DensityOperator(np.diag(weights)), diag_p, unitary)

        cases = [
            (g, apply_unitary_equivalence(g, rand_unitary(3, rng), 0.9), True),
            (with_state([0.7, 0.3]), with_state([0.6, 0.4]), False),
            (with_state([0.7, 0.3]), with_state([0.7, 0.3], UnitaryOperator(rand_unitary(4, rng))), False),
            (g, rand_realization(rng, dim_s=2, dim_k=4, n_atoms=2), False),
        ]
        for g1, g2, expected in cases:
            via_records = compare_invariants(invariants(g1), invariants(g2)).equal(1e-9)
            via_tables = equivalent(from_realization(g1), from_realization(g2), 1e-9)
            assert via_records == via_tables == expected

    def test_total_measure_is_compared(self):
        # weights 1.2e-9 apart sit inside the cluster tolerance, and the
        # Hadamard operators shrink the total operator-table change below
        # tol; only the total probability table still differs by more
        sp = OutcomeSpace(("a", "b"))
        nu = FiniteMeasure(sp, (0.5, 0.5))
        f = [[np.sqrt(2.0), 0.0], [0.0, np.sqrt(2.0)]]
        pi = [[HADAMARD, np.eye(2)], [np.eye(2), HADAMARD]]
        a = from_channel_operators((0.5, 0.5), pi, f, sp, nu)
        b = from_channel_operators((0.5 + 1.2e-9, 0.5 - 1.2e-9), pi, f, sp, nu)
        comp = compare_invariants(sr_invariants(a), sr_invariants(b))
        assert comp.structure_equal and comp.theta_deviation <= 1e-9
        assert comp.nu_deviation > 1e-9
        assert not equivalent(a, b, 1e-9)

    def test_channel_reordered_pair(self):
        a, b = channel_reordered_pair()
        comp = compare_invariants(sr_invariants(a), sr_invariants(b))
        assert comp.equal(1e-9)
        assert comp.nu_deviation <= 1e-12


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------


class TestFactorize:
    def test_invariant_dilations_of_rank_one_instruments_factor(self, rng):
        # one Kraus operator per atom puts every stack at rank one
        for _ in range(6):
            t = rand_instrument(rng, max_kraus=1)
            sr = sr_of(t)
            qsr = factorize(sr)
            assert qsr, str(qsr)
            assert instruments_equal(qsr_instrument(qsr), t, tol=1e-8)

    def test_multi_kraus_atoms_are_refused(self, rng):
        # two independent Kraus pieces at one atom give a rank-two stack
        while True:
            t = rand_instrument(rng, max_atoms=2, max_kraus=2)
            if any(len(ops) > 1 for ops in t.kraus):
                break
        out = factorize(sr_of(t))
        assert isinstance(out, NotFactorizable)
        assert "rank above one" in out.reason

    def test_operators_times_scalars_rebuild_tables(self, fix_ad):
        sr = sr_of(fix_ad)
        qsr = factorize(sr)
        rebuilt = np.einsum("iwab,iknw->iknwab", qsr.pi, qsr.q_factors)
        assert rebuilt == pytest.approx(np.asarray(sr.w), abs=1e-10)

    def test_phase_convention_pins_first_largest_entry(self):
        qsr = factorize(two_channel_sr())
        for i in range(qsr.channel_count):
            for a in range(qsr.space.size):
                flat = qsr.pi[i, a].ravel()
                mags = np.abs(flat)
                if mags.max() == 0:
                    continue
                top = flat[np.flatnonzero(mags >= mags.max() * (1 - 1e-9))[0]]
                assert abs(top.imag) <= 1e-12
                assert top.real > 0

    def test_minimal_dilation_can_refuse(self, fix_z):
        out = factorize(from_realization(dilate(fix_z, mode="minimal")))
        assert isinstance(out, NotFactorizable)
        assert not out
        assert "channel measure vanishes" in out.reason
        assert "not factorizable" in str(out)

    def test_rank_two_stack_named(self):
        space = OutcomeSpace(("a", "b"))
        nu = FiniteMeasure(space, (0.5, 0.5))
        f = [[np.sqrt(2.0), 0.0]]
        pi = [[np.eye(2), np.eye(2)]]
        sr = from_channel_operators((1.0,), pi, f, space, nu, multiplicity=(2, 2))
        w = np.array(sr.w)
        w[0, 0, 1, 0] = HADAMARD * w[0, 0, 1, 0, 0, 0] * np.sqrt(2)
        broken = dataclasses.replace(sr, w=w)
        out = factorize(broken)
        assert isinstance(out, NotFactorizable)
        assert (out.channel, out.outcome) == (0, "a")
        assert "rank above one" in out.reason

    def test_scalar_mismatch_detected(self):
        space = OutcomeSpace(("a", "b"))
        nu = FiniteMeasure(space, (0.5, 0.5))
        f = [[np.sqrt(2.0), 0.0]]
        sr = from_channel_operators(
            (1.0,), [[np.eye(2), np.eye(2)]], f, space, nu, multiplicity=(2, 2)
        )
        w = np.array(sr.w)
        w[0, 0, 1, 0] *= -1.0  # rank stays one, scalar pairing with q breaks
        out = factorize(dataclasses.replace(sr, w=w))
        assert isinstance(out, NotFactorizable)
        assert "disagree" in out.reason

    def test_operator_tables_stable_under_gauge_moves(self, rng, fix_ad):
        sr = sr_of(fix_ad)
        base = factorize(sr)
        z = [rand_unitary(n, rng) for n in sr.multiplicity]
        j = [rand_unitary(k, rng) for _, k in sr.beta]
        moved = factorize(apply_transform(sr, z=z, j=j, phase=1.3))
        assert moved, str(moved)
        _, dev = align_global_phase([base.pi], [moved.pi])
        assert dev <= 1e-8
        assert base.channel_nu == pytest.approx(moved.channel_nu, abs=1e-10)

    def test_profile_carried_through(self):
        qsr = factorize(two_channel_sr(beta=(0.5, 0.5)))
        assert qsr.profile == ((0.5, 1), (0.5, 1))


# ---------------------------------------------------------------------------
# Instruments from factorized data
# ---------------------------------------------------------------------------


class TestQsrInstrument:
    def test_one_kraus_per_live_channel(self):
        qsr = factorize(two_channel_sr())
        t = qsr_instrument(qsr)
        # each atom hosts exactly one channel here, so one Kraus apiece
        assert [len(ops) for ops in t.kraus] == [1, 1]
        assert t.kraus[0][0] == pytest.approx(np.eye(2) / np.sqrt(2))
        assert t.kraus[1][0] == pytest.approx(HADAMARD / np.sqrt(2))

    def test_statistics_match_unfactored_form(self, rng, fix_ad):
        sr = sr_of(fix_ad)
        t1 = instrument_of_sr(sr)
        t2 = qsr_instrument(factorize(sr))
        from qmeasure import DensityOperator

        for _ in range(5):
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi /= np.linalg.norm(psi)
            rho = DensityOperator(np.outer(psi, psi.conj()))
            p1 = outcome_distribution(t1, rho)
            p2 = outcome_distribution(t2, rho)
            assert p1.as_array() == pytest.approx(p2.as_array(), abs=1e-10)

    def test_corrupted_operators_rejected(self):
        qsr = factorize(two_channel_sr())
        bad = dataclasses.replace(qsr, pi=np.asarray(qsr.pi) * 1.5)
        with pytest.raises(NotOrthonormal):
            qsr_instrument(bad)


# ---------------------------------------------------------------------------
# Direct construction of factorizable fixtures
# ---------------------------------------------------------------------------


class TestFromChannelOperators:
    def test_builds_valid_realization(self):
        sr = two_channel_sr(beta=(0.4, 0.6))
        scalar, operator = sr.orthonormality_deviations()
        assert scalar <= 1e-12
        assert operator <= 1e-12
        from qmeasure import validate

        assert validate(instrument_of_sr(sr)).passed

    def test_multiplicity_spreads_blocks_evenly(self):
        space = OutcomeSpace(("a", "b"))
        nu = FiniteMeasure(space, (0.5, 0.5))
        f = [[np.sqrt(2.0), 0.0]]
        sr = from_channel_operators(
            (1.0,), [[np.eye(2), np.eye(2)]], f, space, nu, multiplicity=(2, 1)
        )
        assert sr.q[0, 0, :, 0] == pytest.approx(np.full(2, 1.0))
        assert sr.multiplicity == (2, 1)

    def test_rejects_bad_weight_vector(self):
        space = OutcomeSpace(("a", "b"))
        nu = FiniteMeasure(space, (0.5, 0.5))
        f = [[np.sqrt(2.0), 0.0], [0.0, np.sqrt(2.0)]]
        pi = [[np.eye(2)] * 2] * 2
        with pytest.raises(WeightMismatch):
            from_channel_operators((0.5, 0.6), pi, f, space, nu)
        with pytest.raises(WeightMismatch):
            from_channel_operators((1.5, -0.5), pi, f, space, nu)

    def test_rejects_overlapping_profiles(self):
        space = OutcomeSpace(("a", "b"))
        nu = FiniteMeasure(space, (0.5, 0.5))
        f = [[1.0, 1.0], [1.0, 1.0]]
        pi = [[np.eye(2)] * 2] * 2
        with pytest.raises(NotOrthonormal):
            from_channel_operators((0.5, 0.5), pi, f, space, nu)

    def test_rejects_nonunitary_operator_on_support(self):
        space = OutcomeSpace(("a", "b"))
        nu = FiniteMeasure(space, (0.5, 0.5))
        f = [[np.sqrt(2.0), 0.0], [0.0, np.sqrt(2.0)]]
        pi = [[np.diag([1.0, 0.5]), np.eye(2)], [np.eye(2), np.eye(2)]]
        with pytest.raises(NotUnitaryMatrix):
            from_channel_operators((0.5, 0.5), pi, f, space, nu)

    def test_rejects_shape_mismatch(self):
        space = OutcomeSpace(("a", "b"))
        nu = FiniteMeasure(space, (0.5, 0.5))
        with pytest.raises(DimensionMismatch):
            from_channel_operators((1.0,), [[np.eye(2)]], [[1.0]], space, nu)

    def test_random_unitaries_stay_factorizable(self, rng):
        for _ in range(5):
            sr = two_channel_sr(
                beta=(0.25, 0.75), u0=rand_unitary(2, rng), u1=rand_unitary(2, rng)
            )
            qsr = factorize(sr)
            assert qsr, str(qsr)
            assert qsr.joint_orthonormality_deviation() <= 1e-10
