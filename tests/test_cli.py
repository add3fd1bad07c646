import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from qmeasure import dilate
from qmeasure.cli import (
    IncompatiblePayload,
    ParseError,
    ValidationError,
    execute,
    main,
    parse_scenario,
    parse_scenario_text,
    serialize_scenario,
    _chunk_size,
)
from conftest import AD_0, AD_1, HADAMARD


def cplx(arr):
    """Nested lists with [re, im] leaves, the scenario wire format."""
    a = np.asarray(arr, dtype=complex)
    if a.ndim == 0:
        return [float(a.real), float(a.imag)]
    return [cplx(x) for x in a]


def ad_scenario():
    return {
        "dim_s": 2,
        "outcomes": ["0", "1"],
        "instrument": {"0": [cplx(AD_0)], "1": [cplx(AD_1)]},
    }


def broken_scenario():
    # second atom dropped from the Kraus sum: completeness fails by 0.5
    return {
        "dim_s": 2,
        "outcomes": ["0", "1"],
        "instrument": {"0": [cplx(AD_0)], "1": [cplx(np.zeros((2, 2)))]},
    }


def projective_scenario():
    return {
        "dim_s": 2,
        "outcomes": ["+1", "-1"],
        "instrument": {
            "+1": [cplx(np.diag([1.0, 0.0]))],
            "-1": [cplx(np.diag([0.0, 1.0]))],
        },
    }


def realization_scenario(instr):
    g = dilate(instr, mode="invariant")
    return {
        "dim_s": 2,
        "outcomes": list(g.space.labels),
        "realization": {
            "s": cplx(g.s.matrix),
            "pvm": {lab: cplx(g.p.blocks[a]) for a, lab in enumerate(g.space.labels)},
            "u": cplx(g.u.matrix),
        },
    }


def model_scenario(initial=(1.0, 0.0)):
    # two disjoint channels: identity on atom a, Hadamard on atom b
    q = np.zeros((2, 1, 1, 2), dtype=complex)
    w = np.zeros((2, 1, 1, 2, 2, 2), dtype=complex)
    root2 = np.sqrt(2.0)
    q[0, 0, 0, 0] = root2
    q[1, 0, 0, 1] = root2
    w[0, 0, 0, 0] = root2 * np.eye(2)
    w[1, 0, 0, 1] = root2 * HADAMARD
    return {
        "dim_s": 2,
        "outcomes": ["a", "b"],
        "measure": {"a": 0.5, "b": 0.5},
        "model": {
            "beta": [0.5, 0.5],
            "q": cplx(q),
            "w": cplx(w),
            "initial_state": cplx(np.array(initial)),
        },
    }


def sr_scenario():
    body = model_scenario()
    payload = {k: v for k, v in body["model"].items() if k != "initial_state"}
    return {
        "dim_s": 2,
        "outcomes": ["a", "b"],
        "measure": {"a": 0.5, "b": 0.5},
        "stochastic_realization": payload,
    }


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class TestParsing:
    def test_happy_path_instrument(self):
        sc = parse_scenario_text(json.dumps(ad_scenario()))
        assert sc.kind == "instrument"
        assert sc.dim_s == 2
        assert sc.space.labels == ("0", "1")

    def test_digest_is_sha256_of_text(self):
        text = json.dumps(ad_scenario())
        sc = parse_scenario_text(text)
        assert sc.digest == hashlib.sha256(text.encode()).hexdigest()

    def test_missing_dim_s(self):
        body = ad_scenario()
        del body["dim_s"]
        with pytest.raises(ParseError, match="dim_s"):
            parse_scenario_text(json.dumps(body))

    def test_boolean_dim_s_rejected(self):
        body = ad_scenario()
        body["dim_s"] = True
        with pytest.raises(ParseError, match="dim_s"):
            parse_scenario_text(json.dumps(body))

    def test_non_string_outcomes(self):
        body = ad_scenario()
        body["outcomes"] = [0, 1]
        with pytest.raises(ParseError, match="outcomes"):
            parse_scenario_text(json.dumps(body))

    def test_no_payload(self):
        body = {"dim_s": 2, "outcomes": ["0", "1"]}
        with pytest.raises(ParseError, match="exactly one"):
            parse_scenario_text(json.dumps(body))

    def test_two_payloads(self):
        body = ad_scenario()
        body["model"] = model_scenario()["model"]
        with pytest.raises(ParseError, match="exactly one"):
            parse_scenario_text(json.dumps(body))

    def test_ragged_matrix(self):
        body = ad_scenario()
        body["instrument"]["0"] = [[[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]]]
        with pytest.raises(ParseError, match=r"instrument\.0"):
            parse_scenario_text(json.dumps(body))

    def test_unknown_instrument_label(self):
        body = ad_scenario()
        body["instrument"]["2"] = [cplx(np.zeros((2, 2)))]
        with pytest.raises(ParseError, match="unknown outcome labels"):
            parse_scenario_text(json.dumps(body))

    def test_entry_must_be_a_pair(self):
        body = ad_scenario()
        body["instrument"]["0"] = [[["x", "y"], ["z", "w"]]]
        with pytest.raises(ParseError):
            parse_scenario_text(json.dumps(body))

    def test_measure_unknown_label(self):
        body = ad_scenario()
        body["measure"] = {"5": 1.0}
        with pytest.raises(ParseError, match="measure"):
            parse_scenario_text(json.dumps(body))

    def test_tolerance_must_be_positive(self):
        body = ad_scenario()
        body["tol"] = 0.0
        with pytest.raises(ParseError, match="positive"):
            parse_scenario_text(json.dumps(body))

    def test_tolerance_object_form(self):
        body = ad_scenario()
        body["tol"] = {"default": 1e-7, "cluster": 1e-6}
        sc = parse_scenario_text(json.dumps(body))
        assert sc.tol == 1e-7
        assert sc.cluster_tol == 1e-6

    @pytest.mark.parametrize(
        "table, bad", [("w", float("nan")), ("q", float("inf")), ("q", float("-inf"))]
    )
    def test_non_finite_table_entry(self, table, bad):
        body = model_scenario()
        body["model"][table][0][0][0][0] = [bad, 0.0] if table == "q" else [[[bad, 0.0]] * 2] * 2
        with pytest.raises(ParseError, match=f"model.{table}.*finite"):
            parse_scenario_text(json.dumps(body))

    def test_non_finite_entry_exits_two(self, tmp_path, capsys):
        body = model_scenario()
        body["model"]["w"][0][0][0][0][0][0] = [float("nan"), 0.0]
        path = write(tmp_path, "nan.json", body)
        assert main(["verify", path]) == 2
        assert "finite" in capsys.readouterr().err

    def test_tolerance_default_must_be_a_number(self):
        body = ad_scenario()
        body["tol"] = {"default": "x"}
        with pytest.raises(ParseError, match="tol.default"):
            parse_scenario_text(json.dumps(body))

    def test_tolerance_default_rejects_booleans(self):
        body = ad_scenario()
        body["tol"] = {"default": True}
        with pytest.raises(ParseError, match="tol.default.*boolean"):
            parse_scenario_text(json.dumps(body))

    def test_malformed_json_names_position(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_scenario_text("{not json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            parse_scenario(str(tmp_path / "nope.json"))

    def test_wrong_kraus_shape(self):
        body = ad_scenario()
        body["instrument"]["0"] = [cplx(np.eye(3))]
        with pytest.raises(ParseError, match="shape"):
            parse_scenario_text(json.dumps(body))

    def test_model_scenario_parses(self):
        sc = parse_scenario_text(json.dumps(model_scenario()))
        assert sc.kind == "model"
        assert sc.payload.is_pure

    def test_realization_scenario_parses(self, fix_ad):
        sc = parse_scenario_text(json.dumps(realization_scenario(fix_ad)))
        assert sc.kind == "realization"


# ---------------------------------------------------------------------------
# Validation failures
# ---------------------------------------------------------------------------


class TestValidation:
    def test_realization_state_must_have_unit_trace(self, fix_ad):
        body = realization_scenario(fix_ad)
        s = np.array([[2.0, 0.0], [0.0, 0.0]])
        body["realization"]["s"] = cplx(s)
        with pytest.raises(ValidationError, match="trace"):
            parse_scenario_text(json.dumps(body))

    def test_model_must_factorize(self):
        body = model_scenario()
        # give the single live slot of channel 0 a rank-two companion
        q = np.zeros((1, 1, 2, 2), dtype=complex)
        w = np.zeros((1, 1, 2, 2, 2, 2), dtype=complex)
        q[0, 0, :, 0] = 1.0
        w[0, 0, 0, 0] = np.eye(2)
        w[0, 0, 1, 0] = HADAMARD
        body["model"].update(
            {"beta": [1.0], "q": cplx(q), "w": cplx(w), "multiplicity": [2, 2]}
        )
        with pytest.raises(ValidationError, match="model"):
            parse_scenario_text(json.dumps(body))

    def test_model_needs_an_initial_state(self):
        body = model_scenario()
        del body["model"]["initial_state"]
        with pytest.raises(ParseError, match="initial_state"):
            parse_scenario_text(json.dumps(body))

    def test_model_state_length_checked(self):
        body = model_scenario()
        body["model"]["initial_state"] = cplx(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ParseError, match="length"):
            parse_scenario_text(json.dumps(body))

    def test_model_rejects_unnormalized_state(self):
        body = model_scenario(initial=(1.0, 1.0))
        with pytest.raises(ValidationError, match="norm"):
            parse_scenario_text(json.dumps(body))

    def test_sr_weights_must_mix_to_one(self):
        body = sr_scenario()
        body["stochastic_realization"]["beta"] = [0.5, 0.6]
        with pytest.raises(ValidationError):
            parse_scenario_text(json.dumps(body))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


class TestSerialization:
    @pytest.mark.parametrize(
        "body_fn", [ad_scenario, model_scenario, sr_scenario], ids=["instrument", "model", "sr"]
    )
    def test_round_trip_is_identity(self, body_fn):
        sc = parse_scenario_text(json.dumps(body_fn()))
        text = serialize_scenario(sc)
        again = parse_scenario_text(text)
        assert again.raw == sc.raw
        assert serialize_scenario(again) == text

    def test_round_trip_preserves_payload_behaviour(self, fix_ad):
        body = realization_scenario(fix_ad)
        sc = parse_scenario_text(json.dumps(body))
        again = parse_scenario_text(serialize_scenario(sc))
        assert np.array_equal(sc.payload.u.matrix, again.payload.u.matrix)
        assert np.array_equal(sc.payload.s.matrix, again.payload.s.matrix)


# ---------------------------------------------------------------------------
# Command execution
# ---------------------------------------------------------------------------


class TestExecute:
    def test_validate_clean_instrument(self):
        sc = parse_scenario_text(json.dumps(ad_scenario()))
        report = execute(sc, "validate")
        assert report.passed
        completeness = report.checks[0]
        assert completeness.name == "completeness"
        assert completeness.value <= 1e-12

    def test_validate_broken_instrument(self):
        sc = parse_scenario_text(json.dumps(broken_scenario()))
        report = execute(sc, "validate")
        assert not report.passed
        assert report.checks[0].value == pytest.approx(0.5)

    def test_dilate_round_trip_both_modes(self):
        sc = parse_scenario_text(json.dumps(ad_scenario()))
        for mode in ("minimal", "invariant"):
            report = execute(sc, "dilate", {"mode": mode})
            assert report.passed
            assert report.tables["mode"] == mode

    def test_dilate_needs_instrument(self, fix_ad):
        sc = parse_scenario_text(json.dumps(realization_scenario(fix_ad)))
        with pytest.raises(IncompatiblePayload):
            execute(sc, "dilate")

    def test_invariants_on_realization(self, fix_ad):
        sc = parse_scenario_text(json.dumps(realization_scenario(fix_ad)))
        report = execute(sc, "invariants")
        assert report.passed
        assert set(report.tables) >= {"total_nu", "channel_theta", "eigenvalue_profile"}
        report.to_json()  # complex tables must serialize

    def test_invariants_on_sr(self):
        sc = parse_scenario_text(json.dumps(sr_scenario()))
        report = execute(sc, "invariants")
        assert report.passed
        assert "beta_profile" in report.tables

    def test_invariants_rejects_instrument(self):
        sc = parse_scenario_text(json.dumps(ad_scenario()))
        with pytest.raises(IncompatiblePayload):
            execute(sc, "invariants")

    def test_extract_qsr_from_realization(self, fix_ad):
        sc = parse_scenario_text(json.dumps(realization_scenario(fix_ad)))
        report = execute(sc, "extract-qsr")
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == ["factorizable", "joint-orthonormality", "instrument-round-trip"]

    def test_extract_qsr_reports_refusal(self, fix_z):
        g = dilate(fix_z, mode="minimal")
        body = {
            "dim_s": 2,
            "outcomes": list(g.space.labels),
            "realization": {
                "s": cplx(g.s.matrix),
                "pvm": {lab: cplx(g.p.blocks[a]) for a, lab in enumerate(g.space.labels)},
                "u": cplx(g.u.matrix),
            },
        }
        report = execute(parse_scenario_text(json.dumps(body)), "extract-qsr")
        assert not report.passed
        assert "not factorizable" in report.checks[0].detail

    def test_compare_same_instrument(self, tmp_path):
        sc = parse_scenario_text(json.dumps(ad_scenario()))
        other = write(tmp_path, "other.json", ad_scenario())
        report = execute(sc, "compare", {"against": other})
        assert report.passed
        assert report.tables["against_digest"]

    def test_compare_detects_difference(self, tmp_path):
        sc = parse_scenario_text(json.dumps(ad_scenario()))
        other = write(tmp_path, "other.json", projective_scenario())
        body = json.load(open(other))
        body["outcomes"] = ["0", "1"]
        body["instrument"] = {
            "0": body["instrument"].pop("+1"),
            "1": body["instrument"].pop("-1"),
        }
        report = execute(sc, "compare", {"against": write(tmp_path, "relabel.json", body)})
        assert not report.passed

    def test_compare_kind_mismatch(self, tmp_path, fix_ad):
        sc = parse_scenario_text(json.dumps(ad_scenario()))
        other = write(tmp_path, "other.json", realization_scenario(fix_ad))
        with pytest.raises(IncompatiblePayload, match="kinds"):
            execute(sc, "compare", {"against": other})

    def test_compare_rejects_models(self, tmp_path):
        sc = parse_scenario_text(json.dumps(model_scenario()))
        other = write(tmp_path, "other.json", model_scenario())
        with pytest.raises(IncompatiblePayload):
            execute(sc, "compare", {"against": other})

    def test_compare_propagates_parse_errors(self, tmp_path):
        sc = parse_scenario_text(json.dumps(ad_scenario()))
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        with pytest.raises(ParseError):
            execute(sc, "compare", {"against": str(bad)})

    def test_von_neumann_on_projections(self):
        sc = parse_scenario_text(json.dumps(projective_scenario()))
        report = execute(sc, "von-neumann")
        assert report.passed
        assert report.tables["total_nu"]["+1"] == pytest.approx(0.5)

    def test_von_neumann_with_explicit_eta(self):
        body = projective_scenario()
        body["eta"] = cplx(np.array([1.0, 0.0]))
        report = execute(parse_scenario_text(json.dumps(body)), "von-neumann")
        assert report.passed
        assert report.tables["total_nu"]["+1"] == pytest.approx(1.0)

    def test_von_neumann_refuses_non_projections(self):
        sc = parse_scenario_text(json.dumps(ad_scenario()))
        report = execute(sc, "von-neumann")
        assert not report.passed
        assert report.checks[0].name == "operation"

    def test_verify_model(self):
        sc = parse_scenario_text(json.dumps(model_scenario()))
        report = execute(sc, "verify")
        assert report.passed
        names = {c.name for c in report.checks}
        assert "posterior-orthonormality" in names
        assert "pure-state-orthonormality" in names

    def test_simulate_needs_model(self):
        sc = parse_scenario_text(json.dumps(ad_scenario()))
        with pytest.raises(IncompatiblePayload):
            execute(sc, "simulate")

    def test_unknown_command(self):
        sc = parse_scenario_text(json.dumps(ad_scenario()))
        with pytest.raises(IncompatiblePayload, match="unknown command"):
            execute(sc, "frobnicate")


# ---------------------------------------------------------------------------
# Entry point and exit codes
# ---------------------------------------------------------------------------


class TestMain:
    def test_exit_zero_on_success(self, tmp_path, capsys):
        path = write(tmp_path, "ad.json", ad_scenario())
        assert main(["validate", path]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["passed"] is True
        assert body["provenance"]["version"]

    def test_exit_one_on_failing_check(self, tmp_path, capsys):
        path = write(tmp_path, "broken.json", broken_scenario())
        assert main(["validate", path]) == 1
        assert json.loads(capsys.readouterr().out)["passed"] is False

    def test_exit_two_on_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["validate", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_exit_two_on_incompatible_command(self, tmp_path, capsys):
        path = write(tmp_path, "model.json", model_scenario())
        assert main(["dilate", path]) == 2
        assert "instrument payload" in capsys.readouterr().err

    def test_exit_two_on_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()

    def test_csv_report_format(self, tmp_path, capsys):
        path = write(tmp_path, "ad.json", ad_scenario())
        assert main(["validate", path, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "kind,name,passed,value,detail"
        assert any(line.startswith("check,completeness,true") for line in lines)
        assert any(line.startswith("provenance,digest") for line in lines)

    def test_compare_cli_flag(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", ad_scenario())
        b = write(tmp_path, "b.json", ad_scenario())
        assert main(["compare", a, "--against", b]) == 0
        capsys.readouterr()

    def test_dilate_mode_flag(self, tmp_path, capsys):
        path = write(tmp_path, "ad.json", ad_scenario())
        assert main(["dilate", path, "--mode", "invariant"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["tables"]["mode"] == "invariant"

    def test_simulate_writes_records(self, tmp_path, capsys):
        path = write(tmp_path, "model.json", model_scenario())
        records = tmp_path / "records.csv"
        code = main(
            ["simulate", path, "--shots", "400", "--steps", "2", "--seed", "7",
             "--output", str(records)]
        )
        assert code == 0
        body = json.loads(capsys.readouterr().out)
        assert body["tables"]["shots"] == 400
        assert body["provenance"]["seed"] == 7
        lines = records.read_text().splitlines()
        assert lines[0] == (
            "step,outcome,channel,prob,weight,state_re_0,state_re_1,state_im_0,state_im_1"
        )
        assert len(lines) == 1 + 400 * 2
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] in ("a", "b")

    def test_simulate_is_seed_deterministic(self, tmp_path, capsys):
        path = write(tmp_path, "model.json", model_scenario())
        out = tmp_path / "records.csv"
        main(["simulate", path, "--shots", "200", "--seed", "11", "--output", str(out)])
        text1 = capsys.readouterr().out
        bytes1 = out.read_bytes()
        main(["simulate", path, "--shots", "200", "--seed", "11", "--output", str(out)])
        text2 = capsys.readouterr().out
        assert out.read_bytes() == bytes1
        assert text1 == text2

    def test_simulate_empirical_check_within_three_sigma(self, tmp_path, capsys):
        path = write(tmp_path, "model.json", model_scenario())
        code = main(
            ["simulate", path, "--shots", "2000", "--seed", "3",
             "--output", str(tmp_path / "r.csv")]
        )
        body = json.loads(capsys.readouterr().out)
        assert code == 0
        assert body["checks"][0]["name"] == "within-3-sigma"
        assert body["tables"]["analytic"]["a"] == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "args, digest",
        [
            (["--shots", "1000", "--steps", "1", "--seed", "7"],
             "999c12a5228196661fe03882064d8fb222551dfed1dfdb5170543ec27768bdc6"),
            (["--shots", "300", "--steps", "10", "--seed", "7"],
             "343e257e5eb4761e43bcc759991f4dc9377b771c1e6bc4170dfd0458596448c0"),
            (["--shots", "5000", "--steps", "3", "--seed", "2024"],
             "34f95d646004d8916a409c1b07b04fdbd6b21ad8dd618075a04f0ba82eca5a9e"),
        ],
    )
    def test_simulate_records_are_byte_stable(self, tmp_path, capsys, args, digest):
        # Digests of the files written by the one-trajectory-at-a-time sampler.
        scenarios = Path(__file__).resolve().parents[1] / "demos" / "scenarios"
        scenario = scenarios / "two_channel_model.json"
        model = parse_scenario(str(scenario)).payload
        # The 5000-shot case spans more than one sampler chunk.
        assert _chunk_size(model, 3) < 5000
        out = tmp_path / "records.csv"
        assert main(["simulate", str(scenario), "--output", str(out)] + args) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_simulate_unwritable_output_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "model.json", model_scenario())
        out = tmp_path / "absent-dir" / "records.csv"
        assert main(["simulate", path, "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write records")
        assert captured.out == ""

    def test_verify_cli(self, tmp_path, capsys):
        path = write(tmp_path, "model.json", model_scenario())
        assert main(["verify", path]) == 0
        capsys.readouterr()
