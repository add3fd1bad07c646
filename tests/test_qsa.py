import dataclasses

import numpy as np
import pytest

from qmeasure import (
    DensityOperator,
    DimensionMismatch,
    FiniteMeasure,
    MeasurementModel,
    OutcomeSpace,
    ShotResult,
    ZeroProbabilityEvent,
    channel_weights,
    dilate,
    factorize,
    from_channel_operators,
    from_realization,
    outcome_distribution,
    output_law,
    posterior_family,
    posterior_mixture,
    posterior_pure,
    qsr_instrument,
    run_trajectory,
    sample_batch,
    sample_shot,
    sequential_compose,
    verify_model,
    von_neumann_instrument,
)
from qmeasure.qcore import ZERO_PROBABILITY
from qmeasure.qsa import _pick, _pick_rows
from conftest import HADAMARD, PSI_PLUS, rand_density, rand_state, rand_unitary


def model_of(instr, psi):
    qsr = factorize(from_realization(dilate(instr, mode="invariant")))
    assert qsr, str(qsr)
    return MeasurementModel(qsr, psi)


def two_channel_model(psi, beta=(0.5, 0.5)):
    space = OutcomeSpace(("a", "b"))
    nu = FiniteMeasure(space, (0.5, 0.5))
    f = [[np.sqrt(2.0), 0.0], [0.0, np.sqrt(2.0)]]
    pi = [[np.eye(2), np.eye(2)], [np.eye(2), HADAMARD]]
    qsr = factorize(from_channel_operators(beta, pi, f, space, nu))
    return MeasurementModel(qsr, psi)


KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


# ---------------------------------------------------------------------------
# Model construction
# ---------------------------------------------------------------------------


class TestMeasurementModel:
    def test_pure_state_accessors(self, fix_z):
        m = model_of(fix_z, PSI_PLUS)
        assert m.is_pure
        assert np.array_equal(m.pure_state, PSI_PLUS)
        assert m.density.matrix == pytest.approx(np.outer(PSI_PLUS, PSI_PLUS.conj()))

    def test_density_input(self, fix_z, rng):
        rho = rand_density(2, rng)
        m = MeasurementModel(model_of(fix_z, KET0).qsr, rho)
        assert not m.is_pure
        assert m.density is rho
        with pytest.raises(ValueError, match="density"):
            m.pure_state

    def test_rejects_unnormalized_vector(self, fix_z):
        qsr = model_of(fix_z, KET0).qsr
        with pytest.raises(ValueError, match="norm"):
            MeasurementModel(qsr, np.array([1.0, 1.0]))

    def test_rejects_wrong_dimension(self, fix_z):
        qsr = model_of(fix_z, KET0).qsr
        with pytest.raises(DimensionMismatch):
            MeasurementModel(qsr, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(DimensionMismatch):
            MeasurementModel(qsr, DensityOperator(np.eye(3) / 3))

    def test_state_is_frozen(self, fix_z):
        m = model_of(fix_z, KET0)
        with pytest.raises(ValueError):
            m.pure_state[0] = 0.5


# ---------------------------------------------------------------------------
# Output law
# ---------------------------------------------------------------------------


class TestOutputLaw:
    def test_half_half_split_for_damping_on_excited_state(self, fix_ad):
        law = output_law(model_of(fix_ad, KET1))
        assert law.mass("0") == pytest.approx(0.5, abs=1e-12)
        assert law.mass("1") == pytest.approx(0.5, abs=1e-12)

    def test_matches_instrument_distribution(self, fix_z, fix_ad, rng):
        for instr in (fix_z, fix_ad):
            for _ in range(10):
                psi = rand_state(2, rng)
                m = model_of(instr, psi)
                law = output_law(m)
                oracle = outcome_distribution(qsr_instrument(m.qsr), m.density)
                got = np.array([law.mass(l) for l in law.space.labels])
                assert got == pytest.approx(oracle.as_array(), abs=1e-10)

    def test_joint_table_sums_to_one(self, rng):
        m = two_channel_model(rand_state(2, rng))
        assert output_law(m).joint().sum() == pytest.approx(1.0, abs=1e-12)

    def test_total_measure_collects_channels(self, rng):
        m = two_channel_model(rand_state(2, rng), beta=(0.3, 0.7))
        law = output_law(m)
        total = law.total
        assert total.as_array() == pytest.approx(law.joint().sum(axis=0), abs=1e-12)

    def test_mixed_state_agrees_with_pure_average(self, fix_ad, rng):
        psi1, psi2 = rand_state(2, rng), rand_state(2, rng)
        rho = DensityOperator(
            0.5 * np.outer(psi1, psi1.conj()) + 0.5 * np.outer(psi2, psi2.conj())
        )
        qsr = model_of(fix_ad, KET0).qsr
        mixed = output_law(MeasurementModel(qsr, rho))
        p1 = output_law(MeasurementModel(qsr, psi1))
        p2 = output_law(MeasurementModel(qsr, psi2))
        for lab in mixed.space.labels:
            expect = 0.5 * p1.mass(lab) + 0.5 * p2.mass(lab)
            assert mixed.mass(lab) == pytest.approx(expect, abs=1e-12)


# ---------------------------------------------------------------------------
# Channel weights
# ---------------------------------------------------------------------------


class TestChannelWeights:
    def test_single_channel_is_certain(self, fix_ad, rng):
        m = model_of(fix_ad, rand_state(2, rng))
        assert channel_weights(m, "0") == pytest.approx(np.array([1.0]))

    def test_disjoint_channels_identify_themselves(self, rng):
        m = two_channel_model(rand_state(2, rng))
        assert channel_weights(m, "a") == pytest.approx(np.array([1.0, 0.0]), abs=1e-12)
        assert channel_weights(m, "b") == pytest.approx(np.array([0.0, 1.0]), abs=1e-12)

    def test_zero_probability_atom_rejected(self, fix_z):
        m = model_of(fix_z, KET0)
        with pytest.raises(ZeroProbabilityEvent):
            channel_weights(m, "-1")

    def test_weights_form_a_distribution(self, rng):
        m = two_channel_model(rand_state(2, rng), beta=(0.2, 0.8))
        for lab in ("a", "b"):
            w = channel_weights(m, lab)
            assert w.min() >= -1e-12
            assert w.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Posterior states
# ---------------------------------------------------------------------------


class TestPosteriorPure:
    def test_projective_collapse(self, fix_z):
        post = posterior_pure(model_of(fix_z, PSI_PLUS), 0, "+1")
        assert abs(np.vdot(KET0, post)) == pytest.approx(1.0, abs=1e-12)

    def test_damping_jump_lands_in_ground_state(self, fix_ad):
        post = posterior_pure(model_of(fix_ad, KET1), 0, "1")
        assert abs(np.vdot(KET0, post)) == pytest.approx(1.0, abs=1e-12)

    def test_vanishing_amplitude_rejected(self, fix_z):
        with pytest.raises(ZeroProbabilityEvent):
            posterior_pure(model_of(fix_z, KET0), 0, "-1")

    def test_channel_index_bounds(self, fix_z):
        m = model_of(fix_z, PSI_PLUS)
        with pytest.raises(IndexError):
            posterior_pure(m, 5, "+1")

    def test_posterior_is_normalized(self, rng):
        m = two_channel_model(rand_state(2, rng))
        for i, lab in ((0, "a"), (1, "b")):
            assert np.linalg.norm(posterior_pure(m, i, lab)) == pytest.approx(1.0)


class TestPosteriorMixture:
    def test_matches_instrument_posteriors(self, fix_z, fix_ad, rng):
        for instr in (fix_z, fix_ad):
            for _ in range(5):
                rho = rand_density(2, rng)
                qsr = model_of(instr, KET0).qsr
                fam = posterior_family(qsr_instrument(qsr), rho)
                for lab in qsr.space.labels:
                    oracle = fam.posterior(lab)
                    if oracle is None:
                        with pytest.raises(ZeroProbabilityEvent):
                            posterior_mixture(qsr, lab, rho)
                        continue
                    got = posterior_mixture(qsr, lab, rho)
                    assert got.matrix == pytest.approx(oracle.matrix, abs=1e-9)

    def test_model_form_uses_initial_state(self, fix_ad, rng):
        psi = rand_state(2, rng)
        m = model_of(fix_ad, psi)
        got = posterior_mixture(m, "0")
        oracle = posterior_mixture(m.qsr, "0", m.density)
        assert got.matrix == pytest.approx(oracle.matrix, abs=1e-12)

    def test_bare_representation_needs_a_state(self, fix_ad):
        qsr = model_of(fix_ad, KET0).qsr
        with pytest.raises(ValueError, match="input state"):
            posterior_mixture(qsr, "0")

    def test_zero_probability_atom_rejected(self, fix_z):
        m = model_of(fix_z, KET0)
        with pytest.raises(ZeroProbabilityEvent):
            posterior_mixture(m, "-1")

    def test_dimension_guard(self, fix_z):
        qsr = model_of(fix_z, KET0).qsr
        with pytest.raises(DimensionMismatch):
            posterior_mixture(qsr, "+1", DensityOperator(np.eye(3) / 3))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


class TestSampleShot:
    def test_integer_seed_matches_generator(self, fix_ad):
        m = model_of(fix_ad, KET1)
        a = sample_shot(m, 5)
        b = sample_shot(m, np.random.default_rng(5))
        assert a.outcome == b.outcome
        assert a.channel == b.channel
        assert np.array_equal(a.posterior, b.posterior)
        assert a.probability == b.probability
        assert a.weight == b.weight

    def test_consumes_exactly_one_uniform(self, fix_ad):
        m = model_of(fix_ad, KET1)
        gen = np.random.default_rng(3)
        sample_shot(m, gen)
        ref = np.random.default_rng(3)
        ref.random()
        assert gen.random() == ref.random()

    def test_fields_agree_with_law_oracles(self, rng):
        m = two_channel_model(rand_state(2, rng), beta=(0.4, 0.6))
        law = output_law(m)
        for seed in range(20):
            shot = sample_shot(m, seed)
            assert shot.probability == pytest.approx(law.mass(shot.outcome), abs=1e-12)
            assert shot.weight == pytest.approx(
                channel_weights(m, shot.outcome)[shot.channel], abs=1e-12
            )
            oracle = posterior_pure(m, shot.channel, shot.outcome)
            assert shot.posterior == pytest.approx(oracle, abs=1e-12)

    def test_deterministic_outcome_when_state_is_eigenstate(self, fix_z):
        m = model_of(fix_z, KET0)
        for seed in range(10):
            assert sample_shot(m, seed).outcome == "+1"

    def test_mixed_model_cannot_be_sampled(self, fix_z, rng):
        m = MeasurementModel(model_of(fix_z, KET0).qsr, rand_density(2, rng))
        with pytest.raises(ValueError, match="density"):
            sample_shot(m, 0)

    def test_frequencies_near_the_law(self, fix_ad):
        m = model_of(fix_ad, KET1)
        gen = np.random.default_rng(99)
        n = 4000
        hits = sum(sample_shot(m, gen).outcome == "0" for _ in range(n))
        sigma = np.sqrt(0.5 * 0.5 / n)
        assert abs(hits / n - 0.5) < 4 * sigma

    def test_shot_result_guards(self):
        with pytest.raises(ValueError, match="normalized"):
            ShotResult("a", 0, np.array([1.0, 1.0]), 0.5, 0.5)
        with pytest.raises(ValueError, match="weight"):
            ShotResult("a", 0, KET0, 0.5, 1.5)


class TestRunTrajectory:
    def test_needs_a_positive_step_count(self, fix_z):
        with pytest.raises(ValueError):
            run_trajectory(model_of(fix_z, PSI_PLUS), 0, 1)

    def test_projective_outcomes_repeat(self, fix_z):
        m = model_of(fix_z, PSI_PLUS)
        for seed in range(12):
            traj = run_trajectory(m, 4, seed)
            first = traj.outcomes()[0]
            assert traj.outcomes() == (first,) * 4

    def test_single_atom_walk_applies_the_rotation(self, fix_iso):
        psi0 = KET0
        traj = run_trajectory(model_of(fix_iso, psi0), 3, 0)
        assert traj.outcomes() == ("w0",) * 3
        for k, state in enumerate(traj.states()):
            expect = np.linalg.matrix_power(HADAMARD, k) @ psi0
            overlap = abs(np.vdot(expect, state))
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_bit_for_bit_reproducible(self, fix_ad):
        m = model_of(fix_ad, PSI_PLUS)
        t1 = run_trajectory(m, 6, 1234)
        t2 = run_trajectory(m, 6, 1234)
        assert t1.outcomes() == t2.outcomes()
        for a, b in zip(t1.shots, t2.shots):
            assert np.array_equal(a.posterior, b.posterior)
            assert a.probability == b.probability and a.weight == b.weight
        assert t1.seed == 1234

    def test_generator_seed_is_not_recorded(self, fix_ad):
        traj = run_trajectory(model_of(fix_ad, KET1), 2, np.random.default_rng(0))
        assert traj.seed is None

    def test_states_sequence_shape(self, fix_ad):
        traj = run_trajectory(model_of(fix_ad, KET1), 5, 7)
        assert len(traj) == 5
        states = traj.states()
        assert len(states) == 6
        assert np.array_equal(states[0], KET1)
        assert np.array_equal(states[-1], traj.shots[-1].posterior)

    def test_two_step_statistics_match_composed_instrument(self, fix_ad):
        m = model_of(fix_ad, KET1)
        composed = sequential_compose(fix_ad, fix_ad)
        target = outcome_distribution(composed, m.density)
        gen = np.random.default_rng(2718)
        n = 3000
        counts = {}
        for _ in range(n):
            traj = run_trajectory(m, 2, gen)
            counts[traj.outcomes()] = counts.get(traj.outcomes(), 0) + 1
        for pair in counts:
            p = target.weight(",".join(pair))
            sigma = np.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(counts[pair] / n - p) < 4 * sigma

    def test_chained_posterior_feeds_next_step(self, fix_ad):
        m = model_of(fix_ad, PSI_PLUS)
        traj = run_trajectory(m, 3, 42)
        gen = np.random.default_rng(42)
        state = PSI_PLUS
        for shot in traj.shots:
            step = sample_shot(MeasurementModel(m.qsr, state), gen)
            assert step.outcome == shot.outcome
            assert np.array_equal(step.posterior, shot.posterior)
            state = step.posterior


def random_channel_model(rng, channels, dim):
    """A from_channel_operators model with random disjoint channel supports.

    Every atom belongs to one channel, so each atom has zero-mass cells for
    all the other channels.
    """
    atoms = channels + int(rng.integers(0, 3))
    space = OutcomeSpace(tuple(f"w{j}" for j in range(atoms)))
    owner = np.concatenate([np.arange(channels), rng.integers(0, channels, atoms - channels)])
    rng.shuffle(owner)
    nu_w = rng.random(atoms) + 0.1
    nu_w /= nu_w.sum()
    f = np.zeros((channels, atoms))
    for i in range(channels):
        mine = owner == i
        raw = rng.random(mine.sum()) + 0.1
        f[i, mine] = raw / np.sqrt((raw**2 * nu_w[mine]).sum())
    beta = rng.random(channels) + 0.1
    beta /= beta.sum()
    pi = [[rand_unitary(dim, rng) for _ in range(atoms)] for _ in range(channels)]
    qsr = factorize(from_channel_operators(beta, pi, f, space, FiniteMeasure(space, tuple(nu_w))))
    return MeasurementModel(qsr, rand_state(dim, rng))


def assert_batch_matches_trajectories(model, count, steps, seed):
    batch = sample_batch(model, count, steps, np.random.default_rng(seed))
    gen = np.random.default_rng(seed)
    for b in range(count):
        traj = run_trajectory(model, steps, gen)
        for t, shot in enumerate(traj.shots):
            assert batch.labels[batch.outcome[b, t]] == shot.outcome
            assert batch.channel[b, t] == shot.channel
            assert batch.probability[b, t] == shot.probability
            assert batch.weight[b, t] == shot.weight
            assert np.array_equal(batch.posterior[b, t], shot.posterior)
    # both consumed exactly count * steps uniforms
    ref = np.random.default_rng(seed)
    ref.random(count * steps)
    assert gen.random() == ref.random()


class TestSampleBatch:
    def test_equals_run_trajectory_on_random_channel_models(self, rng):
        for trial in range(25):
            channels = int(rng.integers(1, 11))
            dim = int(rng.integers(1, 5))
            model = random_channel_model(rng, channels, dim)
            assert_batch_matches_trajectories(model, 40, 3, trial)

    def test_equals_run_trajectory_on_dilations_with_dead_cells(self, fix_ad, rng):
        p = [np.diag(row).astype(complex) for row in np.eye(3)]
        vn3 = von_neumann_instrument([("x", p[0]), ("y", p[1]), ("z", p[2])])
        cases = [
            model_of(fix_ad, KET0),  # no decay: atom "1" has no mass
            model_of(fix_ad, KET1),
            model_of(vn3, np.array([0, 1, 0], dtype=complex)),  # mass on the middle atom only
            model_of(vn3, np.array([0, 1, 1], dtype=complex) / np.sqrt(2)),  # leading dead atom
            model_of(vn3, np.array([1, 1, 0], dtype=complex) / np.sqrt(2)),  # trailing dead atom
            model_of(vn3, rand_state(3, rng)),
        ]
        for seed, model in enumerate(cases):
            assert_batch_matches_trajectories(model, 60, 4, seed)

    def test_integer_seed_and_shapes(self, fix_ad):
        m = model_of(fix_ad, KET1)
        a = sample_batch(m, 5, 3, 11)
        b = sample_batch(m, 5, 3, np.random.default_rng(11))
        assert a.outcome.shape == a.channel.shape == a.probability.shape == (5, 3)
        assert a.posterior.shape == (5, 3, 2)
        assert np.array_equal(a.posterior, b.posterior)
        assert not a.posterior.flags.writeable

    def test_needs_positive_sizes(self, fix_z):
        m = model_of(fix_z, PSI_PLUS)
        with pytest.raises(ValueError, match="step"):
            sample_batch(m, 3, 0, 1)
        with pytest.raises(ValueError, match="trajectory"):
            sample_batch(m, 0, 2, 1)

    def test_sampling_tables_are_built_on_first_shot(self, fix_ad):
        m = model_of(fix_ad, KET1)
        output_law(m)
        verify_model(m)
        assert "_tables" not in vars(m)
        sample_shot(m, 0)
        assert "_tables" in vars(m)


def contract_pick(flat, u):
    """The sampling contract written out with NumPy, as the module docstring states it."""
    pos = np.flatnonzero(flat > ZERO_PROBABILITY)
    k = int(np.searchsorted(np.cumsum(flat[pos]), u, side="left"))
    return int(pos[min(k, len(pos) - 1)])


class TestPick:
    ROWS = np.array(
        [
            [0.0, 0.0, 0.25, 0.25, 0.5],  # leading dead cells
            [0.25, 0.0, 1e-13, 0.25, 0.5],  # interior dead cells, one just below the cut
            [0.5, 0.25, 0.25, 0.0, 0.0],  # trailing dead cells
            [0.0, 0.3, 0.0, 0.3, 0.0],  # live mass 0.6 < 1: draws past it clamp
            [ZERO_PROBABILITY, 0.1, 0.2, ZERO_PROBABILITY, 0.7],  # at the cut is dead
            [0.1, 0.2, 0.3, 0.4, 0.0],
        ]
    )
    DRAWS = [0.0, 1e-300, 0.1, 0.25, 0.3, 0.5, 0.6, 0.75, 0.9, 0.999999, np.nextafter(1.0, 0.0)]

    def test_rows_match_scalar_pick_and_contract(self):
        for u in self.DRAWS:
            want = [_pick(row.tolist(), u) for row in self.ROWS]
            assert want == [contract_pick(row, u) for row in self.ROWS]
            got = _pick_rows(self.ROWS, np.full(len(self.ROWS), u))
            assert got.tolist() == want

    def test_rows_with_mixed_draws(self, rng):
        flat = rng.random((500, 7)) * (rng.random((500, 7)) < 0.6)
        flat[:, 3] += 0.01  # every row has a live cell
        u = rng.random(500) * 1.2  # some draws land past the live mass
        u[:5] = 0.0
        want = [_pick(row.tolist(), x) for row, x in zip(flat, u)]
        assert want == [contract_pick(row, x) for row, x in zip(flat, u)]
        assert _pick_rows(flat, u).tolist() == want

    def test_clamp_to_last_live_cell(self):
        row = np.array([0.0, 0.3, 0.0, 0.3, 0.0])
        assert _pick(row.tolist(), 0.9) == 3
        assert _pick_rows(row[None, :], np.array([0.9])).tolist() == [3]

    def test_no_live_cell_is_a_zero_probability_event(self):
        with pytest.raises(ZeroProbabilityEvent):
            _pick([0.0, ZERO_PROBABILITY], 0.5)
        with pytest.raises(ZeroProbabilityEvent):
            _pick_rows(np.array([[0.5, 0.5], [0.0, 0.0]]), np.array([0.1, 0.1]))


# ---------------------------------------------------------------------------
# Model verification
# ---------------------------------------------------------------------------


class TestVerifyModel:
    def test_fixture_models_pass(self, fix_z, fix_ad, rng):
        for m in (
            model_of(fix_z, PSI_PLUS),
            model_of(fix_ad, KET1),
            two_channel_model(rand_state(2, rng), beta=(0.25, 0.75)),
        ):
            report = verify_model(m, tol=1e-9)
            assert report.passed, str(report)
            assert report.operator_orthonormality <= 1e-9
            assert report.pure_orthonormality <= 1e-9
            assert "pass" in str(report)

    def test_mixed_state_model_skips_pure_check(self, fix_ad, rng):
        m = MeasurementModel(model_of(fix_ad, KET0).qsr, rand_density(2, rng))
        report = verify_model(m)
        assert report.passed
        assert report.pure_orthonormality is None

    def test_perturbed_operators_are_flagged(self, fix_ad):
        m = model_of(fix_ad, KET1)
        pi = np.array(m.qsr.pi)
        pi[0, 0, 0, 0] += 1e-3
        bad = MeasurementModel(dataclasses.replace(m.qsr, pi=pi), KET1)
        report = verify_model(bad, tol=1e-9)
        assert not report.passed
        worst = max(
            report.operator_orthonormality,
            report.prior_deviation,
            report.pov_deviation,
        )
        assert worst >= 1e-4
        assert "FAIL" in str(report)

    def test_random_rotations_still_verify(self, fix_ad, rng):
        # conjugating the channel operator by a unitary gives a different
        # but equally valid model
        m = model_of(fix_ad, KET0)
        u = rand_unitary(2, rng)
        pi = np.einsum("ab,cwbd->cwad", u, np.array(m.qsr.pi))
        rotated = MeasurementModel(dataclasses.replace(m.qsr, pi=pi), KET0)
        assert verify_model(rotated, tol=1e-9).passed
