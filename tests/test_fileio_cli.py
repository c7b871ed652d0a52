import json
import math

import numpy as np
import pytest

from ctbnlearn import Cim, CtbnModel, Variable, amalgamate, fileio
from ctbnlearn import sample_trajectories
from ctbnlearn.cli import main
from helpers import binary_chain_model, independent_binary_model
from helpers import merge_observations_loop


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    fileio.save_model(binary_chain_model(), path)
    return str(path)


class TestModelFormat:
    def test_round_trip_is_canonical(self, tmp_path):
        model = binary_chain_model()
        doc = fileio.dumps(fileio.model_to_dict(model))
        parsed = fileio.model_from_dict(json.loads(doc))
        assert fileio.dumps(fileio.model_to_dict(parsed)) == doc

    def test_round_trip_preserves_parameters(self):
        model = binary_chain_model()
        parsed = fileio.model_from_dict(fileio.model_to_dict(model))
        for name in model.names:
            assert np.array_equal(parsed.cims[name].matrices, model.cims[name].matrices)
            assert parsed.parents(name) == model.parents(name)
            assert np.array_equal(parsed.initial[name], model.initial[name])

    def test_phase_and_support_round_trip(self):
        from ctbnlearn import PhaseSpec, expand_phases

        base = independent_binary_model(names=("w",), rates=((1.0, 2.0),))
        model, _ = expand_phases(base, PhaseSpec({"w": 3}, topology="chain"))
        parsed = fileio.model_from_dict(fileio.model_to_dict(model))
        assert parsed.by_name["w"].phases == (3, 3)
        assert np.array_equal(parsed.cims["w"].support, model.cims["w"].support)
        for state in range(2):
            assert np.array_equal(parsed.entries["w"][state], model.entries["w"][state])

    def test_unknown_version_rejected(self):
        doc = fileio.model_to_dict(binary_chain_model())
        doc["version"] = 99
        with pytest.raises(fileio.ParseError):
            fileio.model_from_dict(doc)

    def test_bad_parent_label(self):
        doc = fileio.model_to_dict(binary_chain_model())
        doc["cims"]["b"][0]["parents"]["a"] = "nope"
        with pytest.raises(fileio.ParseError) as err:
            fileio.model_from_dict(doc)
        assert "nope" in str(err.value)

    @pytest.mark.parametrize(
        "where, path, value",
        [
            ("initial[a]", ("initial", "a"), ["x", 0.5]),
            ("cims[a][0]", ("cims", "a", 0, "matrix"), [[-1.0, "x"], [1.0, -1.0]]),
            ("cims[a][0]", ("cims", "a", 0, "matrix"), [[-1.0, 1.0], [1.0]]),
            ("graph[a]", ("graph", "a"), 5),
            ("entry[a]", ("entry",), {"a": 3}),
            ("support[a]", ("support",), {"a": [["x", "false"], ["false", "x"]]}),
            ("cims[a][0]", ("cims", "a", 0, "matrix"), [[-1.0, True], [1.0, -1.0]]),
            ("initial[a]", ("initial", "a"), [True, 0.0]),
        ],
        ids=["initial-string", "matrix-string", "ragged-matrix", "graph-number", "entry-number",
             "support-strings", "matrix-boolean", "initial-boolean"],
    )
    def test_malformed_values_are_parse_errors(self, model_file, tmp_path, capsys, where, path, value):
        doc = fileio.model_to_dict(fileio.load_model(model_file))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "t.json"
        assert main(["generate", str(bad), str(out), "--count", "2", "--horizon", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"(at {where})" in err and len(err.splitlines()) == 1
        assert not out.exists()


class TestTrajectoryFormat:
    def test_round_trip_with_nulls(self):
        from ctbnlearn.evidence import ObservedTrajectory

        model = independent_binary_model()
        rec = ObservedTrajectory(((0.0, 1.0, (0, None)), (1.0, 2.0, (1, 1))), 2.0)
        doc = fileio.records_to_dict([rec], model)
        assert doc["records"][0]["segments"][0]["observations"]["y"] is None
        back = fileio.records_from_dict(doc, model)
        assert back[0].segments == rec.segments

    def test_bad_state_label(self):
        model = independent_binary_model()
        doc = {
            "format": fileio.TRAJECTORY_FORMAT,
            "version": 1,
            "records": [
                {"segments": [{"start": 0.0, "end": 1.0, "observations": {"x": "zzz"}}]}
            ],
        }
        with pytest.raises(fileio.ParseError):
            fileio.records_from_dict(doc, model)


class TestTrajectoryFiles:
    def write(self, model_file, tmp_path):
        full, occ = tmp_path / "full.json", tmp_path / "occ.json"
        assert main(["generate", model_file, str(full), "--count", "7", "--horizon", "3", "--seed", "5"]) == 0
        assert main(["occlude", str(full), str(occ), "--fraction", "0.3", "--model", model_file, "--seed", "2"]) == 0
        return full, occ

    def test_built_records_equal_the_public_constructors(self, model_file, tmp_path):
        # Generating, occluding and loading skip the public constructor's
        # conversion of every value; what they make equals, to the type of
        # every field, what the public constructor makes of the same
        # segments.
        from ctbnlearn import OcclusionPolicy, occlude_observed
        from ctbnlearn.evidence import ObservedTrajectory

        model = fileio.load_model(model_file)
        q, space, p0 = amalgamate(model)
        rng = np.random.default_rng(4)
        per_var = [[space.project(traj, v) for v in range(space.k)] for traj in sample_trajectories(p0, q, 3.0, 5, 3)]
        records = [ObservedTrajectory.fully_observed(trajs) for trajs in per_var]
        records += [occlude_observed(trajs, OcclusionPolicy(0.3, 0.4), rng) for trajs in per_var]
        for path in self.write(model_file, tmp_path):
            records += fileio.load_records(path, model)
        assert any(None in vals for rec in records for _, _, vals in rec.segments)
        for rec in records:
            again = ObservedTrajectory(rec.segments, rec.horizon)
            assert again == rec and repr(again) == repr(rec)

    def test_files_round_trip_byte_for_byte(self, model_file, tmp_path):
        model = fileio.load_model(model_file)
        for path in self.write(model_file, tmp_path):
            again = tmp_path / "again.json"
            fileio.save_records(fileio.load_records(path, model), model, again)
            assert again.read_bytes() == path.read_bytes()

    def test_generated_records_equal_projected_samples(self, model_file, tmp_path):
        full, _ = self.write(model_file, tmp_path)
        model = fileio.load_model(model_file)
        q, space, p0 = amalgamate(model)
        expected = [
            merge_observations_loop([space.project(traj, v) for v in range(space.k)], [[] for _ in range(space.k)])
            for traj in sample_trajectories(p0, q, 3.0, 7, 5)
        ]
        got = fileio.load_records(full, model)
        assert [rec.segments for rec in got] == [rec.segments for rec in expected]

    def test_indented_files_load_the_same(self, model_file, tmp_path):
        model = fileio.load_model(model_file)
        for path in self.write(model_file, tmp_path):
            indented = tmp_path / "indented.json"
            indented.write_text(json.dumps(json.loads(path.read_text()), sort_keys=True, indent=2))
            got = fileio.load_records(indented, model)
            assert [rec.segments for rec in got] == [rec.segments for rec in fileio.load_records(path, model)]

    @pytest.mark.parametrize(
        "field, value",
        [("start", "null"), ("start", '"x"'), ("observations", "[1]"), ("start", "false"), ("end", "true"), ("end", "1e999")],
    )
    def test_malformed_segment_is_parse_error(self, tmp_path, capsys, field, value):
        mf = tmp_path / "m.json"
        fileio.save_model(independent_binary_model(), mf)
        segment = {"start": 0.0, "end": 2.0, "observations": {"x": "x0", "y": None}}
        segment[field] = "VALUE"
        doc = {"format": fileio.TRAJECTORY_FORMAT, "version": 1, "records": [{"segments": [segment]}]}
        tf = tmp_path / "t.json"
        tf.write_text(json.dumps(doc).replace('"VALUE"', value))
        assert main(["score", str(mf), str(tf)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "records[0].segments[0]" in err

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_trajectory_token_is_parse_error(self, tmp_path, capsys, token):
        mf = tmp_path / "m.json"
        fileio.save_model(independent_binary_model(), mf)
        tf = tmp_path / "t.json"
        tf.write_text(
            '{"format": "ctbn-trajectories", "version": 1, "records": [{"segments": '
            f'[{{"start": 0.0, "end": {token}, "observations": {{"x": "x0", "y": null}}}}]}}]}}'
        )
        assert main(["score", str(mf), str(tf)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and token in err

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_model_token_is_parse_error(self, model_file, tmp_path, capsys, token):
        doc = fileio.model_to_dict(fileio.load_model(model_file))
        doc["initial"]["a"] = ["TOKEN", 0.5]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc).replace('"TOKEN"', token))
        with pytest.raises(fileio.ParseError):
            fileio.load_model(bad)
        out = tmp_path / "t.json"
        assert main(["generate", str(bad), str(out), "--count", "2", "--horizon", "1"]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestGenerate:
    def test_zero_count(self, model_file, tmp_path):
        out = tmp_path / "t.json"
        assert main(["generate", model_file, str(out), "--count", "0", "--horizon", "2", "--seed", "1"]) == 0
        doc = json.loads(out.read_text())
        assert doc["records"] == []

    def test_seed_gives_byte_identical_output(self, model_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["generate", model_file, str(out), "--count", "4", "--horizon", "3", "--seed", "9"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_absorbing_model_yields_single_segments(self, tmp_path):
        v = Variable("x", ("a", "b"))
        cim = Cim((), (), np.zeros((1, 2, 2)))
        model = CtbnModel((v,), {"x": cim}, {"x": [0.5, 0.5]})
        mf = tmp_path / "absorbing.json"
        fileio.save_model(model, mf)
        out = tmp_path / "t.json"
        assert main(["generate", str(mf), str(out), "--count", "20", "--horizon", "5", "--seed", "3"]) == 0
        doc = json.loads(out.read_text())
        assert all(len(rec["segments"]) == 1 for rec in doc["records"])


class TestOcclude:
    def generate(self, model_file, tmp_path, count=6, horizon=5.0):
        traj = tmp_path / "full.json"
        main(["generate", model_file, str(traj), "--count", str(count), "--horizon", str(horizon), "--seed", "2"])
        return traj

    def test_zero_fraction_is_identity(self, model_file, tmp_path):
        traj = self.generate(model_file, tmp_path)
        out = tmp_path / "occ.json"
        assert main(["occlude", str(traj), str(out), "--fraction", "0", "--model", model_file, "--seed", "1"]) == 0
        assert out.read_bytes() == traj.read_bytes()

    def test_hidden_fraction_within_window_bound(self, model_file, tmp_path):
        traj = self.generate(model_file, tmp_path)
        out = tmp_path / "occ.json"
        assert main([
            "occlude", str(traj), str(out), "--fraction", "0.25", "--window", "0.25",
            "--model", model_file, "--seed", "5",
        ]) == 0
        doc = json.loads(out.read_text())
        for rec in doc["records"]:
            hidden = {"a": 0.0, "b": 0.0, "c": 0.0}
            for seg in rec["segments"]:
                for name, val in seg["observations"].items():
                    if val is None:
                        hidden[name] += seg["end"] - seg["start"]
            for name, measure in hidden.items():
                assert 0.25 <= measure / 5.0 < 0.30 + 1e-9

    def test_deterministic(self, model_file, tmp_path):
        traj = self.generate(model_file, tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["occlude", str(traj), str(out), "--fraction", "0.25", "--model", model_file, "--seed", "7"])
        assert a.read_bytes() == b.read_bytes()


class TestEmCli:
    def test_fully_observed_quick_convergence(self, model_file, tmp_path, capsys):
        traj = tmp_path / "full.json"
        main(["generate", model_file, str(traj), "--count", "10", "--horizon", "3", "--seed", "4"])
        fitted = tmp_path / "fit.json"
        code = main(["em", model_file, str(traj), str(fitted), "--seed", "0"])
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert code == 0
        assert len(lines) <= 3
        deltas = [float(l.split("\t")[2]) for l in lines]
        assert all(d >= -1e-9 for d in deltas)
        # The fitted parameters are the closed-form maximum likelihood values.
        from ctbnlearn import Evidence, e_step, m_step

        model = fileio.load_model(model_file)
        records = fileio.load_records(str(traj), model)
        space = model.space()
        dataset = [r.to_evidence(space) for r in records]
        stats, _ = e_step(model, dataset)
        ml = m_step(stats, model)
        got = fileio.load_model(str(fitted))
        for name in model.names:
            assert np.abs(got.cims[name].matrices - ml.cims[name].matrices).max() < 1e-9

    def test_max_iter_exit_code(self, model_file, tmp_path, capsys):
        traj = tmp_path / "full.json"
        main(["generate", model_file, str(traj), "--count", "5", "--horizon", "3", "--seed", "4"])
        fitted = tmp_path / "fit.json"
        code = main(["em", model_file, str(traj), str(fitted), "--max-iter", "0", "--init", "random", "--seed", "1"])
        capsys.readouterr()
        assert code == 2

    def test_seeded_rerun_writes_identical_model(self, model_file, tmp_path, capsys):
        traj = tmp_path / "full.json"
        main(["generate", model_file, str(traj), "--count", "6", "--horizon", "3", "--seed", "4"])
        outs = []
        for name in ("f1.json", "f2.json"):
            fitted = tmp_path / name
            main(["em", model_file, str(traj), str(fitted), "--init", "random", "--seed", "11", "--max-iter", "5"])
            outs.append(fitted.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "o.json"
        assert main(["em", str(bad), str(bad), str(out)]) == 3
        capsys.readouterr()

    def test_joint_cap_exit_code(self, model_file, tmp_path, capsys):
        traj = tmp_path / "full.json"
        main(["generate", model_file, str(traj), "--count", "2", "--horizon", "1", "--seed", "4"])
        out = tmp_path / "o.json"
        assert main(["em", model_file, str(traj), str(out), "--joint-cap", "4"]) == 5
        capsys.readouterr()

    def test_phase_expansion_flag(self, tmp_path, capsys):
        model = independent_binary_model(names=("w",), rates=((1.0, 2.0),))
        mf = tmp_path / "m.json"
        fileio.save_model(model, mf)
        traj = tmp_path / "t.json"
        main(["generate", str(mf), str(traj), "--count", "8", "--horizon", "6", "--seed", "3"])
        fitted = tmp_path / "fit.json"
        code = main([
            "em", str(mf), str(traj), str(fitted),
            "--phases", "w=2", "--phase-topology", "unrestricted",
            "--init", "random", "--seed", "0", "--max-iter", "8", "--tolerance", "1e-3",
        ])
        capsys.readouterr()
        assert code in (0, 2)
        got = fileio.load_model(str(fitted))
        assert got.by_name["w"].phases == (2, 2)

    def test_zero_probability_exit_code(self, tmp_path, capsys):
        model = independent_binary_model()
        mf = tmp_path / "m.json"
        fileio.save_model(model, mf)
        doc = {
            "format": fileio.TRAJECTORY_FORMAT,
            "version": 1,
            "records": [
                {
                    "segments": [
                        {"start": 0.0, "end": 0.5, "observations": {"x": "x0", "y": "y0"}},
                        {"start": 0.5, "end": 1.0, "observations": {"x": "x1", "y": "y1"}},
                    ]
                }
            ],
        }
        tf = tmp_path / "t.json"
        tf.write_text(json.dumps(doc))
        out = tmp_path / "o.json"
        assert main(["score", str(mf), str(tf)]) == 4
        err = capsys.readouterr().err
        assert "trajectory 0" in err


class TestScoreCli:
    def test_vacuous_records_score_zero(self, tmp_path, capsys):
        model = independent_binary_model()
        mf = tmp_path / "m.json"
        fileio.save_model(model, mf)
        doc = {
            "format": fileio.TRAJECTORY_FORMAT,
            "version": 1,
            "records": [
                {"segments": [{"start": 0.0, "end": 2.0, "observations": {"x": None, "y": None}}]}
            ],
        }
        tf = tmp_path / "t.json"
        tf.write_text(json.dumps(doc))
        assert main(["score", str(mf), str(tf)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert float(lines[0].split("\t")[1]) == pytest.approx(0.0, abs=1e-12)

    def test_single_exponential_stay(self, tmp_path, capsys):
        # One fully observed dwell with exit rate 1 over [0, 2]: log p = -2.
        v = Variable("x", ("a", "b"))
        cim = Cim((), (), np.array([[[-1.0, 1.0], [2.0, -2.0]]]))
        model = CtbnModel((v,), {"x": cim}, {"x": [1.0, 0.0]})
        mf = tmp_path / "m.json"
        fileio.save_model(model, mf)
        doc = {
            "format": fileio.TRAJECTORY_FORMAT,
            "version": 1,
            "records": [{"segments": [{"start": 0.0, "end": 2.0, "observations": {"x": "a"}}]}],
        }
        tf = tmp_path / "t.json"
        tf.write_text(json.dumps(doc))
        assert main(["score", str(mf), str(tf)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert float(lines[0].split("\t")[1]) == pytest.approx(-2.0, abs=1e-9)

    def test_total_is_order_invariant(self, model_file, tmp_path, capsys):
        traj = tmp_path / "full.json"
        main(["generate", model_file, str(traj), "--count", "5", "--horizon", "2", "--seed", "6"])
        doc = json.loads(traj.read_text())
        main(["score", model_file, str(traj)])
        total1 = float(capsys.readouterr().out.splitlines()[-1].split("\t")[1])
        doc["records"] = doc["records"][::-1]
        traj.write_text(json.dumps(doc))
        main(["score", model_file, str(traj)])
        total2 = float(capsys.readouterr().out.splitlines()[-1].split("\t")[1])
        assert total1 == pytest.approx(total2, abs=1e-9)

    def test_generate_score_self_consistency(self, model_file, tmp_path, capsys):
        # Mean per-record score of a small sample sits within three standard
        # errors of the estimate from a tenfold larger sample.
        small, big = tmp_path / "s.json", tmp_path / "b.json"
        main(["generate", model_file, str(small), "--count", "60", "--horizon", "2", "--seed", "8"])
        main(["generate", model_file, str(big), "--count", "600", "--horizon", "2", "--seed", "9"])

        def scores(path):
            main(["score", model_file, str(path)])
            lines = capsys.readouterr().out.splitlines()
            return np.array([float(l.split("\t")[1]) for l in lines[:-1]])

        s_small, s_big = scores(small), scores(big)
        se = s_big.std(ddof=1) * math.sqrt(1 / len(s_small) + 1 / len(s_big))
        assert abs(s_small.mean() - s_big.mean()) < 3 * se


class TestSmoothCli:
    def test_point_mass_and_normalization(self, model_file, tmp_path, capsys):
        traj = tmp_path / "full.json"
        main(["generate", model_file, str(traj), "--count", "1", "--horizon", "2", "--seed", "12"])
        main(["occlude", str(traj), str(traj), "--fraction", "0.3", "--model", model_file, "--seed", "1"])
        assert main(["smooth", model_file, str(traj), "--record", "0", "--times", "0.0,1.0,2.0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 9  # 3 times x 3 variables
        for line in out:
            probs = [float(cell.split("=")[1]) for cell in line.split("\t")[2].split()]
            assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_vacuous_matches_transient(self, tmp_path, capsys):
        from ctbnlearn import transient_distribution

        model = independent_binary_model()
        mf = tmp_path / "m.json"
        fileio.save_model(model, mf)
        doc = {
            "format": fileio.TRAJECTORY_FORMAT,
            "version": 1,
            "records": [
                {"segments": [{"start": 0.0, "end": 2.0, "observations": {"x": None, "y": None}}]}
            ],
        }
        tf = tmp_path / "t.json"
        tf.write_text(json.dumps(doc))
        assert main(["smooth", str(mf), str(tf), "--times", "0.8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        q, space, p0 = amalgamate(model)
        marginal = transient_distribution(p0, q, 0.8)
        x0 = float(lines[0].split("\t")[2].split()[0].split("=")[1])
        expected_x0 = marginal[space.coords[:, 0] == 0].sum()
        assert x0 == pytest.approx(expected_x0, abs=1e-9)


@pytest.mark.parametrize(
    "argv",
    [
        ["smooth", "{model}", "{traj}", "--times", "abc"],
        ["smooth", "{model}", "{traj}", "--times", "5.0"],
        ["smooth", "{model}", "{traj}", "--times", "nan"],
        ["generate", "{model}", "{out}", "--count", "-1", "--horizon", "1"],
        ["generate", "{model}", "{out}", "--count", "1", "--horizon", "0"],
        ["occlude", "{traj}", "{out}", "--fraction", "1.5", "--model", "{model}"],
        ["occlude", "{traj}", "{out}", "--fraction", "nan", "--model", "{model}"],
        ["occlude", "{traj}", "{out}", "--fraction", "0.25", "--window", "nan", "--model", "{model}"],
        ["em", "{model}", "{traj}", "{out}", "--quad-tol", "0"],
        ["em", "{model}", "{traj}", "{out}", "--phases", "a=0"],
        ["sem", "{model}", "{traj}", "{out}", "--max-parents", "-1"],
        ["em", "{model}", "{traj}", "{out}", "--tolerance", "nan"],
        ["em", "{model}", "{traj}", "{out}", "--tolerance", "inf"],
        ["em", "{model}", "{traj}", "{out}", "--max-iter", "-1"],
        ["em", "{model}", "{traj}", "{out}", "--restarts", "0", "--init", "random"],
    ],
    ids=lambda argv: " ".join(a for a in argv if not a.startswith("{")),
)
def test_bad_arguments_are_parse_errors(model_file, tmp_path, capsys, argv):
    traj = tmp_path / "full.json"
    main(["generate", model_file, str(traj), "--count", "2", "--horizon", "2", "--seed", "3"])
    capsys.readouterr()
    paths = {"model": model_file, "traj": str(traj), "out": str(tmp_path / "out.json")}
    assert main([a.format(**paths) for a in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "out.json").exists()
