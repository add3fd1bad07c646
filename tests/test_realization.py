import numpy as np
import pytest

from qmeasure import (
    DensityOperator,
    DimensionMismatch,
    DimensionTooSmall,
    FiniteMeasure,
    NotOrthonormal,
    OutcomeSpace,
    PointerOverlap,
    ProjectionValuedMeasure,
    StatisticalRealization,
    UnitaryOperator,
    UnsupportedMeasure,
    WeightMismatch,
    apply_transform,
    apply_unitary_equivalence,
    canonicalize,
    compare_invariants,
    dilate,
    equivalent,
    extract_vq,
    from_realization,
    indirect_realization,
    instrument_of,
    instrument_of_sr,
    instruments_equal,
    invariants,
    partial_expectation,
    posterior_family,
    predual_apply,
    tensor_product,
    von_neumann_instrument,
    von_neumann_process,
)
from conftest import (
    HADAMARD,
    P_MINUS,
    P_PLUS,
    maps_equal,
    rand_density,
    rand_instrument,
    rand_realization,
    rand_state,
    rand_unitary,
)


def channel_oracle(g):
    """Independent channel measures: nu_i(w) = tr[S_i P(w)] and the matching
    partial expectation of (I x P(w)) U, straight from the definitions."""
    vals, vecs = np.linalg.eigh(g.s.matrix)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    clusters = []
    start = 0
    for j in range(1, len(vals) + 1):
        if j == len(vals) or abs(vals[j] - vals[start]) > 1e-8:
            if vals[start] > 1e-12:
                clusters.append((float(np.mean(vals[start:j])), vecs[:, start:j]))
            start = j
    nus, thetas = [], []
    for _, block in clusters:
        k = block.shape[1]
        s_i = block @ block.conj().T / k
        nu_row, th_row = [], []
        for lab in g.space.labels:
            proj = tensor_product(np.eye(g.dim_s), g.p.block(lab))
            nu_row.append(float(np.trace(s_i @ g.p.block(lab)).real))
            th_row.append(partial_expectation(proj @ g.u.matrix, s_i, dim_k=g.dim_k))
        nus.append(nu_row)
        thetas.append(th_row)
    return np.array(nus), np.array(thetas)


class TestStatisticalRealization:
    def test_dimension_consistency_enforced(self):
        sp = OutcomeSpace(("a",))
        s = rand_density(2, np.random.default_rng(0))
        p = ProjectionValuedMeasure(sp, (np.eye(2, dtype=complex),))
        with pytest.raises(DimensionMismatch):
            StatisticalRealization(2, s, p, UnitaryOperator(np.eye(6, dtype=complex)))

    def test_trivial_ancilla_gives_unitary_instrument(self):
        sp = OutcomeSpace(("w0",))
        g = StatisticalRealization(
            2,
            DensityOperator(np.eye(1, dtype=complex)),
            ProjectionValuedMeasure(sp, (np.eye(1, dtype=complex),)),
            UnitaryOperator(HADAMARD),
        )
        t = instrument_of(g)
        np.testing.assert_allclose(t.atom_ops("w0")[0], HADAMARD, atol=1e-12)


class TestCanonicalize:
    def test_multiplicity_is_the_rank_profile(self):
        rng = np.random.default_rng(1)
        g = rand_realization(rng, dim_s=2, dim_k=3, n_atoms=2)
        cf = canonicalize(g)
        assert cf.multiplicity == g.p.ranks
        assert sum(cf.multiplicity) == 3

    def test_default_measure_is_unit_on_support(self):
        g = rand_realization(np.random.default_rng(2))
        cf = canonicalize(g)
        assert all(w == 1.0 for w in cf.nu.weights)

    def test_zero_atom_excluded_from_support(self):
        sp = OutcomeSpace(("a", "b"))
        p = ProjectionValuedMeasure(
            sp, (np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex))
        )
        g = StatisticalRealization(
            2,
            rand_density(2, np.random.default_rng(3)),
            p,
            UnitaryOperator(rand_unitary(4, np.random.default_rng(4))),
        )
        cf = canonicalize(g)
        assert cf.support == ("a",)
        assert cf.multiplicity == (2, 0)
        assert cf.nu.weight("b") == 0.0

    def test_block_bases_span_the_projections(self):
        g = rand_realization(np.random.default_rng(5), dim_k=4, n_atoms=3)
        cf = canonicalize(g)
        for lab, basis in zip(cf.space.labels, cf.block_bases):
            np.testing.assert_allclose(
                basis @ basis.conj().T, g.p.block(lab), atol=1e-10
            )

    def test_canonicalizing_unitary_coordinates_the_pvm(self):
        g = rand_realization(np.random.default_rng(6), dim_k=4, n_atoms=2)
        cf = canonicalize(g)
        r = cf.r.matrix
        offset = 0
        for lab, n in zip(cf.space.labels, cf.multiplicity):
            coord = np.zeros((4, 4), dtype=complex)
            coord[offset:offset + n, offset:offset + n] = np.eye(n)
            np.testing.assert_allclose(r @ g.p.block(lab) @ r.conj().T, coord, atol=1e-10)
            offset += n

    def test_measure_must_match_support(self):
        sp = OutcomeSpace(("a", "b"))
        p = ProjectionValuedMeasure(
            sp, (np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex))
        )
        g = StatisticalRealization(
            2,
            rand_density(2, np.random.default_rng(7)),
            p,
            UnitaryOperator(rand_unitary(4, np.random.default_rng(8))),
        )
        with pytest.raises(UnsupportedMeasure):
            canonicalize(g, FiniteMeasure.from_dict(sp, {"a": 1.0, "b": 1.0}))
        with pytest.raises(UnsupportedMeasure):
            canonicalize(g, FiniteMeasure.from_dict(sp, {"b": 1.0}))


class TestExtractVQ:
    def test_trivial_ancilla_family(self):
        sp = OutcomeSpace(("w0",))
        g = StatisticalRealization(
            2,
            DensityOperator(np.eye(1, dtype=complex)),
            ProjectionValuedMeasure(sp, (np.eye(1, dtype=complex),)),
            UnitaryOperator(HADAMARD),
        )
        fam = extract_vq(g, canonicalize(g))
        assert fam.beta == ((1.0, 1),)
        np.testing.assert_allclose(fam.w[0, 0, 0, 0], HADAMARD, atol=1e-12)
        assert fam.q[0, 0, 0, 0] == pytest.approx(1.0)

    def test_orthonormality_on_random_realizations(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = rand_realization(rng, dim_s=2, dim_k=int(rng.integers(2, 5)))
            fam = extract_vq(g, canonicalize(g))
            scalar, operator = fam.orthonormality_deviations()
            assert operator <= 1e-9
            assert scalar <= 1e-9

    def test_norm_bound_and_saturation(self):
        # per (i,k,n) the weighted image norms stay below the input norm;
        # summing over n and atoms restores it exactly
        rng = np.random.default_rng(10)
        g = rand_realization(rng, dim_s=3, dim_k=4, n_atoms=2)
        fam = extract_vq(g, canonicalize(g))
        w = fam.nu.as_array()
        psi = rand_state(3, rng)
        for i, (_, ki) in enumerate(fam.beta):
            for k in range(ki):
                total = 0.0
                for n in range(fam.w.shape[2]):
                    part = sum(
                        np.linalg.norm(fam.w[i, k, n, a] @ psi) ** 2 * w[a]
                        for a in range(fam.space.size)
                    )
                    assert part <= 1.0 + 1e-9
                    total += part
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_invariant_dilation_recovers_uniform_scalars(self, fix_z):
        g = dilate(fix_z, "invariant")
        fam = extract_vq(g, canonicalize(g))
        flat = fam.q[0, 0, 0, :]
        np.testing.assert_allclose(np.abs(flat), [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_invariant_dilation_operators_proportional_to_kraus(self, fix_ad):
        g = dilate(fix_ad, "invariant")
        fam = extract_vq(g, canonicalize(g))
        # one block vector per Kraus operator; V entries are unit-scale copies
        v00 = fam.w[0, 0, 0, 0]
        ratio = v00[0, 0] / fix_ad.atom_ops("0")[0][0, 0]
        np.testing.assert_allclose(
            v00, ratio * fix_ad.atom_ops("0")[0], atol=1e-10
        )


class TestInstrumentOf:
    def test_matches_partial_expectation_oracle(self):
        # Heisenberg form through the defining partial expectation, checked
        # against the Kraus path on random observables
        rng = np.random.default_rng(11)
        g = rand_realization(rng, dim_s=2, dim_k=3, n_atoms=2)
        t = instrument_of(g)
        u = g.u.matrix
        for lab in g.space.labels:
            proj = tensor_product(np.eye(2), g.p.block(lab))
            for _ in range(10):
                a_obs = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                heis = partial_expectation(
                    u.conj().T @ tensor_product(a_obs, np.eye(3)) @ proj @ u,
                    g.s,
                    dim_k=3,
                )
                kraus_form = sum(
                    b.conj().T @ a_obs @ b for b in t.atom_ops(lab)
                )
                np.testing.assert_allclose(heis, kraus_form, atol=1e-9)

    def test_von_neumann_chain(self, fix_z):
        eta = np.array([1, 0], dtype=complex)
        g = von_neumann_process([("+1", P_PLUS), ("-1", P_MINUS)], eta)
        assert maps_equal(instrument_of(g), fix_z)

    def test_dilation_round_trip(self, fix_ad):
        for mode in ("minimal", "invariant"):
            g = dilate(fix_ad, mode)
            assert maps_equal(instrument_of(g), fix_ad, tol=1e-9)


class TestInvariants:
    def test_pure_ancilla_single_channel(self):
        rng = np.random.default_rng(12)
        t = rand_instrument(rng, dim=2)
        inv = invariants(dilate(t, "invariant"))
        assert len(inv.beta_profile) == 1
        alpha, k = inv.beta_profile[0]
        assert alpha == pytest.approx(1.0)
        assert k == 1

    def test_uniform_pointer_overlap_measure(self):
        eta = np.array([1, 1], dtype=complex) / np.sqrt(2)
        g = von_neumann_process([("+1", P_PLUS), ("-1", P_MINUS)], eta)
        inv = invariants(g)
        np.testing.assert_allclose(inv.total_nu, [0.5, 0.5], atol=1e-12)

    def test_mixed_ancilla_profile_and_mixture(self):
        # ancilla diag(0.7, 0.3): two channels, total measure is the
        # alpha-weighted mixture of the channel measures
        sp = OutcomeSpace(("a", "b"))
        p = ProjectionValuedMeasure(
            sp, (np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex))
        )
        g = StatisticalRealization(
            2,
            DensityOperator(np.diag([0.7, 0.3]).astype(complex)),
            p,
            UnitaryOperator(rand_unitary(4, np.random.default_rng(13))),
        )
        inv = invariants(g)
        assert inv.beta_profile == ((0.7, 1), (0.3, 1))
        np.testing.assert_allclose(
            inv.total_nu, 0.7 * inv.channel_nu[0] + 0.3 * inv.channel_nu[1], atol=1e-12
        )

    def test_channel_measures_against_definition_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(8):
            g = rand_realization(rng, dim_s=2, dim_k=int(rng.integers(2, 5)))
            inv = invariants(g)
            nu_want, theta_want = channel_oracle(g)
            np.testing.assert_allclose(inv.channel_nu, nu_want, atol=1e-9)
            np.testing.assert_allclose(inv.channel_theta, theta_want, atol=1e-9)

    def test_channel_measures_are_probabilities(self):
        rng = np.random.default_rng(15)
        g = rand_realization(rng, dim_s=3, dim_k=4, n_atoms=3)
        inv = invariants(g)
        np.testing.assert_allclose(inv.channel_nu.sum(axis=1), 1.0, atol=1e-9)
        weight = sum(a * k for a, k in inv.beta_profile)
        assert weight == pytest.approx(1.0, abs=1e-9)


class TestUnitaryEquivalence:
    def test_identity_transform_is_identity(self):
        g = rand_realization(np.random.default_rng(16))
        g2 = apply_unitary_equivalence(g, np.eye(g.dim_k, dtype=complex), 0.0)
        np.testing.assert_allclose(g2.u.matrix, g.u.matrix, atol=1e-12)
        np.testing.assert_allclose(g2.s.matrix, g.s.matrix, atol=1e-12)

    def test_invariants_and_instrument_preserved(self):
        rng = np.random.default_rng(17)
        g = rand_realization(rng, dim_s=2, dim_k=4, n_atoms=2)
        g2 = apply_unitary_equivalence(g, rand_unitary(4, rng), float(rng.uniform(0, 6)))
        assert compare_invariants(invariants(g), invariants(g2)).equal(1e-9)
        assert instruments_equal(instrument_of(g), instrument_of(g2), 1e-9)
        assert maps_equal(instrument_of(g), instrument_of(g2))

    def test_pi_phase_negates_theta(self):
        g = rand_realization(np.random.default_rng(18))
        g2 = apply_unitary_equivalence(g, np.eye(g.dim_k, dtype=complex), np.pi)
        inv, inv2 = invariants(g), invariants(g2)
        np.testing.assert_allclose(inv2.channel_theta, -inv.channel_theta, atol=1e-9)
        comp = compare_invariants(inv, inv2)
        assert comp.equal(1e-9)
        assert comp.phase == pytest.approx(-1.0)

    def test_dimension_mismatch(self):
        g = rand_realization(np.random.default_rng(19), dim_k=3)
        with pytest.raises(DimensionMismatch):
            apply_unitary_equivalence(g, np.eye(2, dtype=complex))


class TestDilate:
    def test_single_unitary_kraus_needs_no_ancilla(self, fix_iso):
        g = dilate(fix_iso)
        assert g.dim_k == 1
        np.testing.assert_allclose(
            g.u.matrix, tensor_product(HADAMARD, np.eye(1)), atol=1e-12
        )

    def test_amplitude_damping_shape(self, fix_ad):
        g = dilate(fix_ad)
        assert g.dim_k == 2
        assert g.p.ranks == (1, 1)
        assert maps_equal(instrument_of(g), fix_ad)

    def test_minimal_mode_concentrates_the_ancilla(self, fix_z):
        g = dilate(fix_z, "minimal")
        inv = invariants(g)
        assert max(inv.total_nu) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_mode_rejected(self, fix_z):
        with pytest.raises(ValueError):
            dilate(fix_z, "fancy")

    def test_invalid_instrument_rejected(self):
        sp = OutcomeSpace(("a",))
        from qmeasure import KrausInstrument

        broken = KrausInstrument(sp, {"a": [0.5 * np.eye(2, dtype=complex)]}, 2)
        with pytest.raises(ValueError):
            dilate(broken)

    def test_round_trip_both_modes_random(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            t = rand_instrument(rng, dim=int(rng.integers(2, 4)))
            for mode in ("minimal", "invariant"):
                assert maps_equal(instrument_of(dilate(t, mode)), t, tol=1e-9)


class TestVonNeumannProcess:
    def test_instrument_matches_projective_form(self, fix_z):
        for eta in (np.array([1, 0], dtype=complex), np.array([1, 1], dtype=complex) / np.sqrt(2)):
            g = von_neumann_process([("+1", P_PLUS), ("-1", P_MINUS)], eta)
            assert maps_equal(instrument_of(g), fix_z)

    def test_three_projections_in_dim_three(self):
        projs = [(f"l{j}", np.diag([int(i == j) for i in range(3)]).astype(complex)) for j in range(3)]
        eta = np.array([1, 1, 1], dtype=complex) / np.sqrt(3)
        g = von_neumann_process(projs, eta)
        want = von_neumann_instrument(projs)
        assert maps_equal(instrument_of(g), want)

    def test_defining_relation_on_eigenvectors(self):
        # U(psi x eta) = psi x eta_j whenever psi lies in the j-th eigenspace
        eta = np.array([1, 1], dtype=complex) / np.sqrt(2)
        g = von_neumann_process([("+1", P_PLUS), ("-1", P_MINUS)], eta)
        e0 = np.array([1, 0], dtype=complex)
        e1 = np.array([0, 1], dtype=complex)
        got0 = g.u.matrix @ np.kron(e0, eta)
        np.testing.assert_allclose(got0, np.kron(e0, e0), atol=1e-10)
        got1 = g.u.matrix @ np.kron(e1, eta)
        np.testing.assert_allclose(got1, np.kron(e1, e1), atol=1e-10)

    def test_unnormalized_eta_rejected(self):
        with pytest.raises(ValueError):
            von_neumann_process(
                [("+1", P_PLUS), ("-1", P_MINUS)], np.array([1.0, 1.0])
            )

    def test_overlapping_pointers_rejected(self):
        eta = np.array([1, 0], dtype=complex)
        ptrs = np.array([[1, 1], [0, 0]], dtype=complex)
        with pytest.raises(PointerOverlap):
            von_neumann_process([("+1", P_PLUS), ("-1", P_MINUS)], eta, ptrs)

    def test_too_small_ancilla_rejected(self):
        with pytest.raises(DimensionTooSmall):
            von_neumann_process(
                [("+1", P_PLUS), ("-1", P_MINUS)], np.array([1.0 + 0j])
            )

    def test_oversized_ancilla_needs_complete_pointers(self):
        eta = np.array([1, 0, 0], dtype=complex)
        with pytest.raises(DimensionMismatch):
            von_neumann_process([("+1", P_PLUS), ("-1", P_MINUS)], eta)


class TestIndirectRealization:
    @staticmethod
    def _paulis_setup():
        sp = OutcomeSpace(("a", "b"))
        nu = FiniteMeasure.uniform(sp)
        q = np.zeros((1, 1, 2), dtype=complex)
        q[0, 0] = [1 / np.sqrt(2), 1 / np.sqrt(2)]
        v = np.zeros((1, 1, 2, 2, 2), dtype=complex)
        v[0, 0, 0] = np.eye(2)
        v[0, 0, 1] = np.array([[0, 1], [1, 0]])
        return sp, nu, q, v

    def test_single_channel_round_trip(self):
        sp, nu, q, v = self._paulis_setup()
        g = indirect_realization((1.0,), q, v, sp, nu)
        t = instrument_of(g)
        np.testing.assert_allclose(t.atom_ops("a")[0], v[0, 0, 0] / np.sqrt(2), atol=1e-10)
        np.testing.assert_allclose(t.atom_ops("b")[0], v[0, 0, 1] / np.sqrt(2), atol=1e-10)

    def test_extraction_recovers_the_tables(self):
        # the input operator table enters the unitary only through the
        # product with the scalar table, so that product is what extraction
        # hands back; dividing by q on its support recovers the input
        sp, nu, q, v = self._paulis_setup()
        g = indirect_realization((1.0,), q, v, sp, nu)
        fam = extract_vq(g, canonicalize(g, nu))
        np.testing.assert_allclose(fam.q[0, 0, 0], q[0, 0], atol=1e-10)
        for a in range(2):
            np.testing.assert_allclose(
                fam.w[0, 0, 0, a], v[0, 0, a] * q[0, 0, a], atol=1e-10
            )
            np.testing.assert_allclose(
                fam.w[0, 0, 0, a] / fam.q[0, 0, 0, a], v[0, 0, a], atol=1e-10
            )

    def test_beta_becomes_the_ancilla_spectrum(self):
        sp = OutcomeSpace(("a", "b"))
        nu = FiniteMeasure.uniform(sp)
        q = np.zeros((2, 1, 2), dtype=complex)
        q[0, 0, 0] = 1.0
        q[1, 0, 1] = 1.0
        v = np.zeros((2, 1, 2, 2, 2), dtype=complex)
        v[0, 0, 0] = np.eye(2)
        v[1, 0, 1] = np.array([[0, 1], [1, 0]])
        g = indirect_realization((0.5, 0.5), q, v, sp, nu)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(g.s.matrix))[::-1], [0.5, 0.5], atol=1e-10
        )

    def test_weights_off_by_less_than_tol_reach_the_tables(self):
        # the ancilla state accepts its trace at indirect_realization's tol, so
        # every reader of the realization must accept the same weights
        sp = OutcomeSpace(("a", "b"))
        nu = FiniteMeasure.uniform(sp)
        q = np.zeros((2, 1, 2), dtype=complex)
        q[0, 0, 0] = 1.0
        q[1, 0, 1] = 1.0
        v = np.zeros((2, 1, 2, 2, 2), dtype=complex)
        v[0, 0, 0] = np.eye(2)
        v[1, 0, 1] = np.array([[0, 1], [1, 0]])
        beta = (0.5 + 3e-7, 0.5)
        g = indirect_realization(beta, q, v, sp, nu, tol=1e-6)
        t = instrument_of(g)
        inv = invariants(g)
        sr = from_realization(g)
        assert [len(ops) for ops in t.kraus] == [2, 2]
        np.testing.assert_allclose(t.atom_ops("a")[0], np.sqrt(beta[0]) * v[0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(t.atom_ops("b")[1], np.sqrt(beta[1]) * v[1, 0, 1], atol=1e-12)
        np.testing.assert_allclose(t.atom_ops("a")[1], 0.0, atol=1e-12)
        np.testing.assert_allclose(t.atom_ops("b")[0], 0.0, atol=1e-12)
        assert [k for _, k in inv.beta_profile] == [1, 1]
        np.testing.assert_allclose([b for b, _ in inv.beta_profile], beta, atol=1e-12)
        np.testing.assert_allclose(inv.channel_nu, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(inv.total_nu, beta, atol=1e-12)
        np.testing.assert_allclose(inv.channel_theta[:, 0], [np.eye(2), np.zeros((2, 2))], atol=1e-12)
        np.testing.assert_allclose(inv.channel_theta[:, 1], [np.zeros((2, 2)), v[1, 0, 1]], atol=1e-12)
        assert sr.beta == inv.beta_profile
        assert instruments_equal(instrument_of_sr(sr), t)

    def test_weights_off_by_less_than_tol_survive_gauge_moves(self):
        # a gauge move keeps the weights, so it must accept whatever
        # extraction accepted
        sp = OutcomeSpace(("a", "b"))
        q = np.zeros((2, 1, 2), dtype=complex)
        q[0, 0, 0] = 1.0
        q[1, 0, 1] = 1.0
        v = np.zeros((2, 1, 2, 2, 2), dtype=complex)
        v[0, 0, 0] = np.eye(2)
        v[1, 0, 1] = np.array([[0, 1], [1, 0]])
        g = indirect_realization((0.5 + 3e-7, 0.5), q, v, sp, FiniteMeasure.uniform(sp), tol=1e-6)
        sr = from_realization(g)
        sr2 = apply_transform(sr, phase=0.3)
        assert sr2.beta == sr.beta
        assert equivalent(sr, sr2)

    def test_weight_errors(self):
        sp, nu, q, v = self._paulis_setup()
        with pytest.raises(WeightMismatch):
            indirect_realization((0.7,), q, v, sp, nu)
        with pytest.raises(WeightMismatch):
            indirect_realization((0.5, 0.5), q, v, sp, nu)

    def test_orthonormality_enforced(self):
        sp, nu, q, v = self._paulis_setup()
        with pytest.raises(NotOrthonormal):
            indirect_realization((1.0,), 2.0 * q, v, sp, nu)
        v_bad = v.copy()
        v_bad[0, 0, 1] = np.eye(2) * 1.2
        with pytest.raises(NotOrthonormal):
            indirect_realization((1.0,), q, v_bad, sp, nu)

    def test_unitary_single_atom_gives_rotation_instrument(self, fix_iso):
        sp = OutcomeSpace(("w0",))
        nu = FiniteMeasure.uniform(sp)
        q = np.ones((1, 1, 1), dtype=complex)
        v = HADAMARD.reshape(1, 1, 1, 2, 2)
        g = indirect_realization((1.0,), q, v, sp, nu)
        assert maps_equal(instrument_of(g), fix_iso)


class TestInvariantComparison:
    def test_structure_mismatch_reported(self):
        rng = np.random.default_rng(21)
        g2 = rand_realization(rng, dim_k=3, n_atoms=2)
        g3 = rand_realization(rng, dim_k=4, n_atoms=2)
        comp = compare_invariants(invariants(g2), invariants(g3))
        assert not comp.equal(1e-9)

    def test_posterior_consistency_through_dilation(self, fix_ad):
        # posteriors of the rebuilt instrument agree with the source
        g = dilate(fix_ad, "invariant")
        rho = rand_density(2, np.random.default_rng(22))
        fam1 = posterior_family(fix_ad, rho)
        fam2 = posterior_family(instrument_of(g), rho)
        for lab in fix_ad.space.labels:
            p1, p2 = fam1.posterior(lab), fam2.posterior(lab)
            np.testing.assert_allclose(p1.matrix, p2.matrix, atol=1e-9)

    def test_predual_consistency_through_dilation(self, fix_z):
        g = dilate(fix_z, "minimal")
        rho = rand_density(2, np.random.default_rng(23))
        t2 = instrument_of(g)
        for lab in fix_z.space.labels:
            np.testing.assert_allclose(
                predual_apply(fix_z, [lab], rho),
                predual_apply(t2, [lab], rho),
                atol=1e-9,
            )
