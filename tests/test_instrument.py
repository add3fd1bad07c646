import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeasure import (
    DensityOperator,
    DimensionMismatch,
    EmptySelection,
    IncompatibleOutcomeSpaces,
    KrausInstrument,
    NotAProjectionFamily,
    OutcomeSpace,
    choi_matrix,
    identity_instrument,
    instruments_equal,
    outcome_distribution,
    posterior_family,
    pov_measure,
    predual_apply,
    product_label,
    sequential_compose,
    validate,
    von_neumann_instrument,
)
from conftest import (
    AD_0,
    AD_1,
    HADAMARD,
    P_MINUS,
    P_PLUS,
    PSI_PLUS,
    maps_equal,
    rand_density,
    rand_instrument,
    rand_unitary,
)


class TestConstruction:
    def test_mapping_and_sequence_forms_agree(self, fix_ad):
        seq = KrausInstrument(fix_ad.space, ([AD_0], [AD_1]), 2)
        assert maps_equal(fix_ad, seq)

    def test_unknown_label_rejected(self):
        sp = OutcomeSpace(("a",))
        with pytest.raises(KeyError):
            KrausInstrument(sp, {"b": [np.eye(2, dtype=complex)]}, 2)

    def test_shape_mismatch_rejected(self):
        sp = OutcomeSpace(("a",))
        with pytest.raises(DimensionMismatch):
            KrausInstrument(sp, {"a": [np.eye(3, dtype=complex)]}, 2)

    def test_empty_atom_allowed(self):
        # an empty Kraus list is the zero map at that atom
        sp = OutcomeSpace(("a", "b"))
        t = KrausInstrument(sp, {"a": [np.eye(2, dtype=complex)], "b": []}, 2)
        assert t.atom_ops("b") == ()
        assert t.total_kraus_count == 1


class TestValidate:
    def test_amplitude_damping_passes(self, fix_ad):
        rep = validate(fix_ad)
        assert rep.passed
        assert rep.completeness_deviation <= 1e-12
        assert min(rep.min_choi_eigenvalues) >= -1e-12

    def test_unitary_kraus_passes(self, fix_iso):
        assert validate(fix_iso).passed

    def test_dropped_kraus_detected(self):
        # removing the decay branch leaves sum A^dag A = diag(1, 0.5)
        sp = OutcomeSpace(("0", "1"))
        crippled = KrausInstrument(sp, {"0": [AD_0], "1": []}, 2)
        rep = validate(crippled)
        assert not rep.passed
        assert rep.completeness_deviation == pytest.approx(0.5)

    def test_report_renders(self, fix_ad):
        assert "completeness" in str(validate(fix_ad))


class TestPovMeasure:
    def test_projective_pov_is_the_projections(self, fix_z):
        m = pov_measure(fix_z)
        np.testing.assert_allclose(m.effect("+1"), P_PLUS, atol=1e-12)
        np.testing.assert_allclose(m.effect("-1"), P_MINUS, atol=1e-12)

    def test_amplitude_damping_effects(self, fix_ad):
        m = pov_measure(fix_ad)
        np.testing.assert_allclose(m.effect("0"), np.diag([1.0, 0.5]), atol=1e-12)
        np.testing.assert_allclose(m.effect("1"), np.diag([0.0, 0.5]), atol=1e-12)

    def test_single_unitary_gives_identity(self, fix_iso):
        np.testing.assert_allclose(pov_measure(fix_iso).effect("w0"), np.eye(2), atol=1e-12)


class TestOutcomeDistribution:
    def test_equal_superposition_is_fifty_fifty(self, fix_z):
        dist = outcome_distribution(fix_z, DensityOperator.pure(PSI_PLUS))
        np.testing.assert_allclose(dist.as_array(), [0.5, 0.5], atol=1e-12)

    def test_excited_state_under_damping(self, fix_ad):
        rho = DensityOperator(np.diag([0.0, 1.0]).astype(complex))
        dist = outcome_distribution(fix_ad, rho)
        np.testing.assert_allclose(dist.as_array(), [0.5, 0.5], atol=1e-12)

    def test_single_outcome_is_certain(self, fix_iso):
        rho = rand_density(2, np.random.default_rng(0))
        assert outcome_distribution(fix_iso, rho).weight("w0") == pytest.approx(1.0)

    def test_dimension_mismatch(self, fix_z):
        with pytest.raises(DimensionMismatch):
            outcome_distribution(fix_z, rand_density(3, np.random.default_rng(1)))

    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_sums_to_one_on_random_instruments(self, seed):
        rng = np.random.default_rng(seed)
        t = rand_instrument(rng, dim=int(rng.integers(2, 4)))
        rho = rand_density(t.dim, rng)
        assert outcome_distribution(t, rho).total == pytest.approx(1.0, abs=1e-9)


class TestPredualApply:
    def test_projective_jump(self, fix_z):
        rho = DensityOperator.pure(PSI_PLUS)
        out = predual_apply(fix_z, ["+1"], rho)
        np.testing.assert_allclose(out, 0.5 * P_PLUS, atol=1e-12)

    def test_full_space_unitary_conjugation(self, fix_iso):
        rho = rand_density(2, np.random.default_rng(2))
        out = predual_apply(fix_iso, fix_iso.space.labels, rho)
        np.testing.assert_allclose(out, HADAMARD @ rho.matrix @ HADAMARD.conj().T, atol=1e-12)
        assert np.trace(out).real == pytest.approx(1.0)

    def test_decay_branch_lands_in_ground_state(self, fix_ad):
        rho = DensityOperator(np.diag([0.0, 1.0]).astype(complex))
        out = predual_apply(fix_ad, ["1"], rho)
        np.testing.assert_allclose(out, 0.5 * P_PLUS, atol=1e-12)

    def test_empty_selection_warns_and_returns_zero(self, fix_z):
        rho = DensityOperator.pure(PSI_PLUS)
        with pytest.warns(EmptySelection):
            out = predual_apply(fix_z, [], rho)
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_trace_equals_selection_probability(self, fix_ad):
        rho = rand_density(2, np.random.default_rng(3))
        dist = outcome_distribution(fix_ad, rho)
        out = predual_apply(fix_ad, ["0"], rho)
        assert np.trace(out).real == pytest.approx(dist.weight("0"), abs=1e-12)

    def test_observable_duality(self):
        # tr[predual(E, rho) Z] must equal tr[rho T(E)[Z]] with
        # T(E)[Z] = sum_{w in E} sum_m A^dag Z A, for random observables.
        rng = np.random.default_rng(4)
        t = rand_instrument(rng, dim=3)
        rho = rand_density(3, rng)
        sel = t.space.labels[:1]
        pre = predual_apply(t, sel, rho)
        for _ in range(20):
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            z = (g + g.conj().T) / 2
            heis = sum(
                a.conj().T @ z @ a for lab in sel for a in t.atom_ops(lab)
            )
            assert abs(np.trace(pre @ z) - np.trace(rho.matrix @ heis)) <= 1e-9


class TestPosteriorFamily:
    def test_projective_posteriors(self, fix_z):
        fam = posterior_family(fix_z, DensityOperator.pure(PSI_PLUS))
        np.testing.assert_allclose(fam.posterior("+1").matrix, P_PLUS, atol=1e-12)
        np.testing.assert_allclose(fam.posterior("-1").matrix, P_MINUS, atol=1e-12)

    def test_unitary_posterior(self, fix_iso):
        rho = rand_density(2, np.random.default_rng(5))
        fam = posterior_family(fix_iso, rho)
        np.testing.assert_allclose(
            fam.posterior("w0").matrix,
            HADAMARD @ rho.matrix @ HADAMARD.conj().T,
            atol=1e-12,
        )

    def test_impossible_outcome_has_no_posterior(self, fix_ad):
        rho = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
        fam = posterior_family(fix_ad, rho)
        np.testing.assert_allclose(fam.posterior("0").matrix, rho.matrix, atol=1e-12)
        assert fam.posterior("1") is None
        assert fam.probability("1") == pytest.approx(0.0, abs=1e-15)

    def test_mixture_identity(self):
        # sum_w p(w) rho(w) is the non-selective output state
        rng = np.random.default_rng(6)
        t = rand_instrument(rng, dim=3)
        rho = rand_density(3, rng)
        fam = posterior_family(t, rho)
        mix = np.zeros((3, 3), dtype=complex)
        for lab in t.space.labels:
            p = fam.probability(lab)
            if p > 1e-12:
                mix += p * fam.posterior(lab).matrix
        np.testing.assert_allclose(mix, fam.prior.matrix, atol=1e-9)

    def test_conditional_state_on_subset(self, fix_z):
        fam = posterior_family(fix_z, DensityOperator.pure(PSI_PLUS))
        np.testing.assert_allclose(
            fam.conditional_state(["+1", "-1"]).matrix, np.diag([0.5, 0.5]), atol=1e-12
        )
        with pytest.warns(EmptySelection):
            assert fam.conditional_state([]) is None

    def test_distribution_sums_to_one(self, fix_ad):
        fam = posterior_family(fix_ad, rand_density(2, np.random.default_rng(7)))
        assert fam.total_probability == pytest.approx(1.0, abs=1e-12)


def reference_choi(ops, dim):
    """Reference for choi_matrix: one outer product per Kraus operator."""
    c = np.zeros((dim * dim, dim * dim), dtype=complex)
    for a in ops:
        v = np.asarray(a, dtype=complex).reshape(-1)
        c += np.outer(v, v.conj())
    return c


class TestChoiMatrix:
    @pytest.mark.parametrize("count, dim", [(0, 3), (1, 1), (1, 4), (5, 2), (1200, 3)])
    def test_matches_outer_product_loop(self, count, dim):
        rng = np.random.default_rng(100 + count)
        scale = 1.0 / np.sqrt(max(count, 1))  # keeps the entries of order 1
        # a tuple, as KrausInstrument stores each atom's operators
        ops = tuple(scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) for _ in range(count))
        c = choi_matrix(ops, dim)
        assert c.shape == (dim * dim, dim * dim)
        np.testing.assert_allclose(c, reference_choi(ops, dim), rtol=0, atol=1e-12)
        assert count > 0 or not c.any()

    def test_entries_match_definition(self):
        rng = np.random.default_rng(8)
        ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2)]
        c = choi_matrix(ops, 2)
        # C[(a,b),(c,d)] = sum_m A[a,b] conj(A[c,d]) with row-major vec
        want = np.zeros((4, 4), dtype=complex)
        for m in ops:
            v = m.reshape(-1)
            want += np.outer(v, v.conj())
        np.testing.assert_allclose(c, want, atol=1e-12)

    def test_choi_is_psd(self):
        rng = np.random.default_rng(9)
        ops = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3)]
        assert np.linalg.eigvalsh(choi_matrix(ops, 3)).min() >= -1e-12


class TestVonNeumann:
    def test_projective_instrument(self, fix_z):
        np.testing.assert_array_equal(fix_z.atom_ops("+1")[0], P_PLUS)
        m = pov_measure(fix_z)
        np.testing.assert_array_equal(m.effect("+1"), P_PLUS)
        np.testing.assert_array_equal(m.effect("-1"), P_MINUS)

    def test_single_full_projection(self):
        t = von_neumann_instrument([("*", np.eye(3, dtype=complex))])
        rho = rand_density(3, np.random.default_rng(10))
        fam = posterior_family(t, rho)
        np.testing.assert_allclose(fam.posterior("*").matrix, rho.matrix, atol=1e-12)

    def test_mixed_rank_split(self):
        p_a = np.diag([1, 1, 0]).astype(complex)
        p_b = np.diag([0, 0, 1]).astype(complex)
        t = von_neumann_instrument([("a", p_a), ("b", p_b)])
        m = pov_measure(t)
        assert np.trace(m.effect("a")).real == pytest.approx(2.0)
        assert np.trace(m.effect("b")).real == pytest.approx(1.0)

    def test_non_orthogonal_family_rejected(self):
        with pytest.raises(NotAProjectionFamily):
            von_neumann_instrument([("a", P_PLUS), ("b", np.eye(2, dtype=complex))])

    def test_incomplete_family_rejected(self):
        with pytest.raises(NotAProjectionFamily):
            von_neumann_instrument([("a", P_PLUS)])

    def test_non_projection_rejected(self):
        with pytest.raises(NotAProjectionFamily):
            von_neumann_instrument([("a", 0.5 * np.eye(2, dtype=complex))])


class TestIdentityInstrument:
    def test_statistics_are_trivial(self):
        t = identity_instrument(3)
        rho = rand_density(3, np.random.default_rng(11))
        fam = posterior_family(t, rho)
        np.testing.assert_allclose(fam.posterior("*").matrix, rho.matrix, atol=1e-12)


class TestInstrumentsEqual:
    def test_kraus_gauge_freedom(self):
        # splitting each Kraus operator through a unitary mixing matrix
        # changes the list but not the map
        rng = np.random.default_rng(12)
        t = rand_instrument(rng, dim=2, max_atoms=2, max_kraus=2)
        table = {}
        for lab in t.space.labels:
            ops = t.atom_ops(lab)
            k = len(ops)
            if k == 0:
                table[lab] = []
                continue
            u = rand_unitary(k, rng)
            table[lab] = [sum(u[p, m] * ops[m] for m in range(k)) for p in range(k)]
        t2 = KrausInstrument(t.space, table, t.dim)
        assert instruments_equal(t, t2, 1e-9)
        assert maps_equal(t, t2)  # independent oracle agrees

    def test_distinct_instruments_differ(self, fix_z, fix_ad):
        relabeled = KrausInstrument(
            fix_z.space, {"+1": [AD_0], "-1": [AD_1]}, 2
        )
        assert not instruments_equal(fix_z, relabeled, 1e-6)

    def test_scaled_atom_detected(self, fix_ad):
        t2 = KrausInstrument(
            fix_ad.space, {"0": [0.999 * AD_0], "1": [AD_1]}, 2
        )
        assert not instruments_equal(fix_ad, t2, 1e-6)
        assert instruments_equal(fix_ad, t2, 1e-1)

    def test_space_mismatch_raises(self, fix_z, fix_ad):
        with pytest.raises(IncompatibleOutcomeSpaces):
            instruments_equal(fix_z, fix_ad, 1e-9)

    def test_agrees_with_superoperator_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            t1 = rand_instrument(rng, dim=2, max_atoms=2)
            t2 = rand_instrument(rng, dim=2, max_atoms=2)
            if t1.space.labels != t2.space.labels:
                continue
            assert instruments_equal(t1, t2, 1e-9) == maps_equal(t1, t2)


class TestSequentialCompose:
    def test_projective_repeatability(self, fix_z):
        t = sequential_compose(fix_z, fix_z)
        rho = DensityOperator.pure(PSI_PLUS)
        dist = outcome_distribution(t, rho)
        assert dist.weight(product_label("+1", "-1")) == pytest.approx(0.0, abs=1e-12)
        assert dist.weight(product_label("+1", "+1")) == pytest.approx(0.5, abs=1e-12)

    def test_identity_then_instrument_preserves_statistics(self, fix_ad):
        t = sequential_compose(identity_instrument(2), fix_ad)
        rho = rand_density(2, np.random.default_rng(14))
        base = outcome_distribution(fix_ad, rho)
        dist = outcome_distribution(t, rho)
        for lab in fix_ad.space.labels:
            assert dist.weight(product_label("*", lab)) == pytest.approx(
                base.weight(lab), abs=1e-12
            )

    def test_double_damping_probability(self, fix_ad):
        t = sequential_compose(fix_ad, fix_ad)
        rho = DensityOperator(np.diag([0.0, 1.0]).astype(complex))
        dist = outcome_distribution(t, rho)
        assert dist.weight(product_label("0", "0")) == pytest.approx(0.25, abs=1e-12)

    def test_marginal_consistency(self):
        # summing the second outcome reproduces the first stage's statistics
        rng = np.random.default_rng(15)
        first = rand_instrument(rng, dim=2, max_atoms=3)
        second = rand_instrument(rng, dim=2, max_atoms=2)
        t = sequential_compose(first, second)
        rho = rand_density(2, rng)
        dist = outcome_distribution(t, rho)
        base = outcome_distribution(first, rho)
        for lab1 in first.space.labels:
            marg = sum(
                dist.weight(product_label(lab1, lab2)) for lab2 in second.space.labels
            )
            assert marg == pytest.approx(base.weight(lab1), abs=1e-9)

    def test_completeness_preserved(self, fix_z, fix_ad):
        relabeled = KrausInstrument(
            OutcomeSpace(("0", "1")), {"0": [P_PLUS], "1": [P_MINUS]}, 2
        )
        t = sequential_compose(relabeled, fix_ad)
        assert validate(t).passed

    def test_dim_mismatch(self, fix_z):
        with pytest.raises(DimensionMismatch):
            sequential_compose(fix_z, identity_instrument(3))


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**31))
def test_random_instruments_are_valid(seed):
    rng = np.random.default_rng(seed)
    t = rand_instrument(rng, dim=int(rng.integers(2, 4)))
    rep = validate(t)
    assert rep.passed
    assert rep.completeness_deviation <= 1e-9
    assert min(rep.min_choi_eigenvalues) >= -1e-9
