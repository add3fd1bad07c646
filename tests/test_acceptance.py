"""Acceptance gate: one test per advertised guarantee, each printing a
single PASS/FAIL verdict line at its stated tolerance and budget."""

import time

import numpy as np
import pytest

from qmeasure import (
    DensityOperator,
    FiniteMeasure,
    KrausInstrument,
    MeasurementModel,
    OutcomeSpace,
    align_global_phase,
    apply_transform,
    apply_unitary_equivalence,
    compare_invariants,
    dilate,
    equivalent,
    factorize,
    from_channel_operators,
    from_realization,
    instrument_of,
    instrument_of_sr,
    instruments_equal,
    invariants,
    outcome_distribution,
    output_law,
    posterior_family,
    posterior_mixture,
    qsr_instrument,
    run_trajectory,
    sample_shot,
    sequential_compose,
    sr_invariants,
    verify_model,
    von_neumann_instrument,
    von_neumann_process,
)
from conftest import (
    HADAMARD,
    P_MINUS,
    P_PLUS,
    PSI_PLUS,
    rand_density,
    rand_instrument,
    rand_realization,
    rand_state,
    rand_unitary,
)

KET1 = np.array([0.0, 1.0], dtype=complex)


def conclude(number: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({label}): {verdict} [{detail}]")
    assert ok, f"criterion {number} ({label}): {detail}"


_DILATED: list | None = None


def dilated_corpus():
    """100 random instruments (system dim <= 3, <= 3 atoms, <= 2 Kraus each)
    with their minimal and spread-pointer dilations; built once, shared by
    the round-trip and orthonormality criteria."""
    global _DILATED
    if _DILATED is None:
        rng = np.random.default_rng(1905)
        items = []
        for _ in range(100):
            dim = int(rng.integers(2, 4))
            t = rand_instrument(rng, dim=dim, max_atoms=3, max_kraus=2)
            items.append((t, dilate(t, mode="minimal"), dilate(t, mode="invariant")))
        _DILATED = items
    return _DILATED


def factorizable_fixtures(rng):
    """Realizations whose operator tables split by construction: invariant
    dilations of single-Kraus instruments plus direct channel-operator
    builds with disjoint scalar profiles."""
    out = []
    for _ in range(6):
        dim = int(rng.integers(2, 4))
        t = rand_instrument(rng, dim=dim, max_atoms=3, max_kraus=1)
        out.append(from_realization(dilate(t, mode="invariant")))
    space = OutcomeSpace(("a", "b"))
    nu = FiniteMeasure(space, (0.5, 0.5))
    f = [[np.sqrt(2.0), 0.0], [0.0, np.sqrt(2.0)]]
    for beta in ((0.5, 0.5), (0.25, 0.75)):
        pi = [
            [rand_unitary(2, rng), np.eye(2)],
            [np.eye(2), rand_unitary(2, rng)],
        ]
        out.append(from_channel_operators(beta, pi, f, space, nu))
    return out


def test_criterion_1_projective_chain():
    start = time.perf_counter()
    pairs = [("+1", P_PLUS), ("-1", P_MINUS)]
    g = von_neumann_process(pairs, np.ones(2) / np.sqrt(2))
    t = instrument_of(g)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        psi = rand_state(2, rng)
        rho = DensityOperator(np.outer(psi, psi.conj()))
        dist = outcome_distribution(t, rho)
        fam = posterior_family(t, rho)
        for lab, proj in pairs:
            p = float(np.linalg.norm(proj @ psi) ** 2)
            worst = max(worst, abs(dist.weight(lab) - p))
            post = fam.posterior(lab)
            if p > 1e-12:
                expect = proj @ rho.matrix @ proj / p
                worst = max(worst, float(np.max(np.abs(post.matrix - expect))))
    elapsed = time.perf_counter() - start
    conclude(
        1,
        "projective chain",
        worst <= 1e-10 and elapsed < 1.0,
        f"max deviation {worst:.2e} over 50 states, {elapsed:.2f}s",
    )


def test_criterion_2_dilation_round_trip():
    start = time.perf_counter()
    failures = 0
    for t, g_min, g_inv in dilated_corpus():
        for g in (g_min, g_inv):
            if not instruments_equal(instrument_of(g), t, tol=1e-9):
                failures += 1
    elapsed = time.perf_counter() - start
    conclude(
        2,
        "dilation round trip",
        failures == 0 and elapsed < 30.0,
        f"{failures} failures over 100 instruments x 2 modes, {elapsed:.1f}s",
    )


def test_criterion_3_extracted_orthonormality():
    worst_op = 0.0
    worst_sc = 0.0
    for _, g_min, g_inv in dilated_corpus():
        for g in (g_min, g_inv):
            scalar, operator = from_realization(g).orthonormality_deviations()
            worst_op = max(worst_op, operator)
            worst_sc = max(worst_sc, scalar)
    conclude(
        3,
        "table orthonormality",
        worst_op <= 1e-9 and worst_sc <= 1e-9,
        f"operator {worst_op:.2e}, scalar {worst_sc:.2e}",
    )


def test_criterion_4_unitary_invariance():
    rng = np.random.default_rng(11)
    bad_invariants = 0
    bad_instruments = 0
    for _ in range(50):
        dim_k = int(rng.integers(2, 5))
        n_atoms = int(rng.integers(1, dim_k + 1))
        g = rand_realization(rng, dim_s=2, dim_k=dim_k, n_atoms=n_atoms)
        w = rand_unitary(dim_k, rng)
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        g2 = apply_unitary_equivalence(g, w, phase)
        if not compare_invariants(invariants(g), invariants(g2)).equal(1e-9):
            bad_invariants += 1
        if not instruments_equal(instrument_of(g), instrument_of(g2), tol=1e-9):
            bad_instruments += 1
    conclude(
        4,
        "unitary invariance",
        bad_invariants == 0 and bad_instruments == 0,
        f"{bad_invariants} invariant and {bad_instruments} instrument mismatches over 50 draws",
    )


def test_criterion_5_gauge_invariance():
    rng = np.random.default_rng(23)
    bad = []
    for trial in range(12):
        dim = int(rng.integers(2, 4))
        t = rand_instrument(rng, dim=dim, max_atoms=3, max_kraus=2)
        sr = from_realization(dilate(t, mode="invariant"))
        z = [rand_unitary(n, rng) for n in sr.multiplicity]
        j = [rand_unitary(k, rng) for _, k in sr.beta]
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        scale = rng.uniform(0.5, 2.0, size=sr.space.size)
        base = FiniteMeasure(sr.space, tuple(scale * sr.nu.as_array()))
        out = apply_transform(sr, z=z, j=j, phase=phase, new_base=base)
        if not instruments_equal(instrument_of_sr(out), instrument_of_sr(sr), tol=1e-9):
            bad.append((trial, "instrument"))
            continue
        a, b = sr_invariants(sr), sr_invariants(out)
        if float(np.max(np.abs(a.channel_nu - b.channel_nu))) > 1e-9:
            bad.append((trial, "channel measures"))
            continue
        _, dev = align_global_phase([a.channel_theta], [b.channel_theta])
        if dev > 1e-9:
            bad.append((trial, "operator measures"))
            continue
        if not equivalent(sr, out, tol=1e-9):
            bad.append((trial, "equivalence"))
    conclude(
        5,
        "gauge invariance",
        not bad,
        f"{len(bad)} mismatches over 12 transformed realizations" + (f": {bad}" if bad else ""),
    )


def test_criterion_6_factorization():
    rng = np.random.default_rng(31)
    refusals = 0
    worst_inst = True
    worst_pi = 0.0
    for sr in factorizable_fixtures(rng):
        qsr = factorize(sr)
        if not qsr:
            refusals += 1
            continue
        if not instruments_equal(qsr_instrument(qsr), instrument_of_sr(sr), tol=1e-8):
            worst_inst = False
        z = [rand_unitary(n, rng) for n in sr.multiplicity]
        j = [rand_unitary(k, rng) for _, k in sr.beta]
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        moved = factorize(apply_transform(sr, z=z, j=j, phase=phase))
        if not moved:
            refusals += 1
            continue
        _, dev = align_global_phase([qsr.pi], [moved.pi])
        worst_pi = max(worst_pi, dev)
    conclude(
        6,
        "factorization",
        refusals == 0 and worst_inst and worst_pi <= 1e-8,
        f"{refusals} refusals, operator-table drift {worst_pi:.2e}",
    )


def test_criterion_7_model_identities():
    rng = np.random.default_rng(41)
    failures = []
    for idx, sr in enumerate(factorizable_fixtures(rng)):
        qsr = factorize(sr)
        assert qsr, str(qsr)
        dim = qsr.dim_s
        initial = rand_state(dim, rng) if idx % 2 == 0 else rand_density(dim, rng)
        model = MeasurementModel(qsr, initial)
        if not verify_model(model, tol=1e-9).passed:
            failures.append((idx, "identities"))
            continue
        inst = qsr_instrument(qsr)
        law = output_law(model)
        oracle = outcome_distribution(inst, model.density)
        law_dev = max(
            abs(law.mass(lab) - oracle.weight(lab)) for lab in law.space.labels
        )
        if law_dev > 1e-9:
            failures.append((idx, "output law"))
            continue
        fam = posterior_family(inst, model.density)
        for lab in law.space.labels:
            expected = fam.posterior(lab)
            if expected is None:
                continue
            got = posterior_mixture(model, lab)
            if float(np.max(np.abs(got.matrix - expected.matrix))) > 1e-9:
                failures.append((idx, f"posterior at {lab}"))
                break
    conclude(
        7,
        "model identities",
        not failures,
        f"{len(failures)} failures over 8 models" + (f": {failures}" if failures else ""),
    )


def test_criterion_8_sampler():
    start = time.perf_counter()
    vn = von_neumann_instrument([("+1", P_PLUS), ("-1", P_MINUS)])
    z_model = MeasurementModel(
        factorize(from_realization(dilate(vn, mode="invariant"))), PSI_PLUS
    )
    space = OutcomeSpace(("0", "1"))
    ad = KrausInstrument(
        space,
        {
            "0": [np.array([[1.0, 0.0], [0.0, np.sqrt(0.5)]])],
            "1": [np.array([[0.0, np.sqrt(0.5)], [0.0, 0.0]])],
        },
        2,
    )
    ad_model = MeasurementModel(
        factorize(from_realization(dilate(ad, mode="invariant"))), KET1
    )

    n = 100000
    sigma = np.sqrt(0.25 / n)
    freq_devs = []
    for model, lab, seed in ((z_model, "+1", 2024), (ad_model, "0", 2025)):
        gen = np.random.default_rng(seed)
        hits = sum(sample_shot(model, gen).outcome == lab for _ in range(n))
        freq_devs.append(abs(hits / n - 0.5))
    freq_ok = all(d <= 3 * sigma for d in freq_devs)

    composed = sequential_compose(ad, ad)
    target = outcome_distribution(composed, ad_model.density)
    n_traj = 5000
    gen = np.random.default_rng(99)
    counts: dict = {}
    for _ in range(n_traj):
        key = run_trajectory(ad_model, 2, gen).outcomes()
        counts[key] = counts.get(key, 0) + 1
    pair_ok = True
    for lab in target.space.labels:
        p = target.weight(lab)
        observed = counts.get(tuple(lab.split(",")), 0) / n_traj
        if p <= 0:
            pair_ok &= observed == 0
            continue
        pair_ok &= abs(observed - p) <= 3 * np.sqrt(p * (1 - p) / n_traj)

    t1 = run_trajectory(ad_model, 5, 777)
    t2 = run_trajectory(ad_model, 5, 777)
    repro = t1.outcomes() == t2.outcomes() and all(
        a.posterior.tobytes() == b.posterior.tobytes()
        and a.probability == b.probability
        and a.weight == b.weight
        and a.channel == b.channel
        for a, b in zip(t1.shots, t2.shots)
    )

    elapsed = time.perf_counter() - start
    conclude(
        8,
        "sampler",
        freq_ok and pair_ok and repro and elapsed < 10.0,
        f"freq devs {freq_devs[0]:.4f}/{freq_devs[1]:.4f} (3 sigma {3 * sigma:.4f}), "
        f"pairs {'ok' if pair_ok else 'off'}, bit-for-bit {repro}, {elapsed:.1f}s",
    )
