import json

import pytest

from osclab import cli, corpus
from osclab.scene import SceneError, build_scene, load_scene


@pytest.fixture()
def hp_path():
    return str(corpus.scene_path("hyperbolic_paraboloid"))


def _run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- scene loading ------------------------------------------------------------


def test_load_scene_valid(hp_path):
    scene = load_scene(hp_path)
    assert scene.manifold.m == 2 and scene.manifold.n == 3
    assert scene.family.k == 1


def test_schema_error_field_count():
    data = json.loads(corpus.scene_path("hyperbolic_paraboloid").read_text())
    data["family"]["fields"][0] = ["1", "0"]  # two components for n = 3
    with pytest.raises(SceneError) as err:
        build_scene(data)
    assert err.value.pointer == "/family/fields/0"


def test_schema_error_missing_manifold():
    with pytest.raises(SceneError) as err:
        build_scene({"family": {"k": 1, "fields": [["0", "1"]]}})
    assert err.value.pointer == "/manifold"


def test_schema_error_expression_offset():
    data = json.loads(corpus.scene_path("segment").read_text())
    data["manifold"]["height"] = ["x*("]
    with pytest.raises(SceneError) as err:
        build_scene(data)
    assert err.value.pointer == "/manifold/height/0"
    assert "offset 3" in str(err.value)


def test_schema_error_bad_cutoff():
    data = json.loads(corpus.scene_path("segment").read_text())
    data["cutoff"] = {"inner": 0.4, "outer": 0.2}
    with pytest.raises(SceneError) as err:
        build_scene(data)
    assert err.value.pointer == "/cutoff"


def test_scene_file_errors(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    with pytest.raises(SceneError):
        load_scene(str(bad))
    with pytest.raises(SceneError):
        load_scene(str(tmp_path / "missing.json"))


# -- subcommands ---------------------------------------------------------------


def test_sweep_csv_has_eight_rows(capsys, hp_path):
    code, out, _ = _run(capsys, "sweep", "--scene",
                        str(corpus.scene_path("segment")))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,vol,err"
    assert len(lines) == 9  # header + default geometric grid of 8
    # a series too short for the growth fit still prints
    code, out, _ = _run(capsys, "sweep", "--scene",
                        str(corpus.scene_path("segment")),
                        "--t-grid", "geometric:0.1,4")
    assert code == 0
    assert len(out.strip().split("\n")) == 5


def test_contact_prints_jet_order(capsys):
    code, out, _ = _run(capsys, "contact", "--scene",
                        str(corpus.scene_path("sphere")),
                        "--point", "0,0", "--max-order", "6")
    assert code == 0
    record = json.loads(out)
    assert record["jet_order"] == "1"
    assert record["metric_order"] == 1
    assert abs(record["metric_slope"] - 2.0) < 0.2


def test_exponent_reports_slope(capsys):
    code, out, _ = _run(capsys, "exponent", "--scene",
                        str(corpus.scene_path("segment")))
    assert code == 0
    record = json.loads(out)
    assert abs(record["slope"] - 1.0) < 0.05


def test_coeffs_csv(capsys):
    code, out, _ = _run(capsys, "coeffs", "--scene",
                        str(corpus.scene_path("circle")))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x1,component,i,a_i"
    assert len(lines) == 1 + 3 * 2  # 3 samples x (degree 1 + 1) coefficients


def test_ruled_report(capsys, hp_path):
    code, out, _ = _run(capsys, "ruled", "--scene", hp_path)
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "CONTAINED"
    assert record["max_distance"] <= 1e-8


def test_verify_writes_report(capsys, tmp_path):
    out_file = tmp_path / "rot.json"
    code, _, err = _run(capsys, "verify", "--scene",
                        str(corpus.scene_path("circle_rotation")),
                        "--report", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["verdict"] == "THEOREM_CONFIRMED"
    assert "THEOREM_CONFIRMED" in err


def test_verify_negative_verdict_still_exits_zero(capsys):
    code, out, _ = _run(capsys, "verify", "--scene",
                        str(corpus.scene_path("sphere")))
    assert code == 0
    assert json.loads(out)["verdict"] == "HYPOTHESIS_FAILS"


def test_corpus_command(capsys, monkeypatch):
    monkeypatch.setattr(corpus, "names", lambda: ("sphere", "circle_rotation"))
    code, out, err = _run(capsys, "corpus")
    assert code == 0
    rows = json.loads(out)
    assert {r["scene"]: r["verdict"] for r in rows} == {
        "sphere": "HYPOTHESIS_FAILS",
        "circle_rotation": "THEOREM_CONFIRMED",
    }


# -- exit codes ----------------------------------------------------------------


def test_usage_error_missing_scene(capsys):
    code, _, _ = _run(capsys, "sweep")
    assert code == 1


def test_usage_error_unknown_flag(capsys):
    code, _, _ = _run(capsys, "sweep", "--scene", "x.json", "--bogus")
    assert code == 1


def test_usage_error_bad_t_grid(capsys, hp_path):
    code, _, err = _run(capsys, "sweep", "--scene", hp_path,
                        "--t-grid", "linear:1,2")
    assert code == 1
    assert "t-grid" in err


def test_usage_error_scene_without_family(capsys, tmp_path):
    data = json.loads(corpus.scene_path("segment").read_text())
    del data["family"]
    p = tmp_path / "nofam.json"
    p.write_text(json.dumps(data))
    code, _, err = _run(capsys, "sweep", "--scene", str(p))
    assert code == 1
    assert "family" in err
    # verify fits curves for step 1; on the plane they osculate, and the
    # steps after it need the family the scene lacks
    data = json.loads(corpus.scene_path("plane").read_text())
    del data["family"]
    p.write_text(json.dumps(data))
    code, out, err = _run(capsys, "verify", "--scene", str(p))
    assert code == 1
    assert out == ""
    assert err.startswith("error: /family: ") and "sweep family" in err


def test_numerical_error_exit_two(capsys, tmp_path):
    degenerate = {
        "manifold": {"type": "parametric", "chart_vars": ["u"],
                     "domain": [[0, 1]], "ambient_dim": 2,
                     "map": ["0", "0"]},
        "family": {"k": 1, "fields": [["1", "0"]]},
    }
    p = tmp_path / "degenerate.json"
    p.write_text(json.dumps(degenerate))
    code, _, err = _run(capsys, "sweep", "--scene", str(p))
    assert code == 2
    assert "immersion" in err


def test_help_exits_zero(capsys):
    code, _, _ = _run(capsys, "--help")
    assert code == 0


# -- determinism and configuration ----------------------------------------------


def test_verify_runs_are_byte_identical(tmp_path):
    scene = str(corpus.scene_path("circle_rotation"))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.run(["verify", "--scene", scene, "--seed", "5",
                    "--report", str(a)]) == 0
    assert cli.run(["verify", "--scene", scene, "--seed", "5",
                    "--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_env_seed_overrides_flag(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("OSCLAB_SEED", "99")
    out_file = tmp_path / "r.json"
    code = cli.run(["verify", "--scene", str(corpus.scene_path("sphere")),
                    "--seed", "1", "--report", str(out_file)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(out_file.read_text())["seed"] == 99


def test_tolerance_override_echoed(capsys, hp_path):
    code, out, _ = _run(capsys, "ruled", "--scene", hp_path,
                        "--tol-ruled", "1e-2")
    assert code == 0
    record = json.loads(out)
    assert record["config"]["tolerances"]["ruled"] == 1e-2


def test_quad_override_echoed(capsys):
    code, out, _ = _run(capsys, "exponent", "--scene",
                        str(corpus.scene_path("segment")),
                        "--quad-order", "4")
    assert code == 0
    assert json.loads(out)["config"]["quad"]["order"] == 4


def test_params_unknown_key_rejected():
    data = json.loads(corpus.scene_path("segment").read_text())
    data["params"] = {"quad_odror": 4}
    with pytest.raises(SceneError) as err:
        build_scene(data)
    assert err.value.pointer == "/params/quad_odror"
    data["params"] = {"eps_max": 0.5}  # a removed setting that nothing read
    with pytest.raises(SceneError) as err:
        build_scene(data)
    assert str(err.value) == "/params/eps_max: unknown parameter"


def test_cutoff_loads_from_scene_file(tmp_path):
    data = json.loads(corpus.scene_path("segment").read_text())
    data["cutoff"] = {"inner": 0.15, "outer": 0.4}
    p = tmp_path / "seg_cut.json"
    p.write_text(json.dumps(data))
    scene = load_scene(str(p))
    assert scene.family.cutoff is not None
    assert scene.family.cutoff.inner == 0.15


def test_tolerance_override_can_fail_a_pipeline_step(capsys, tmp_path, hp_path):
    out_file = tmp_path / "hp.json"
    code = cli.run(["verify", "--scene", hp_path, "--report", str(out_file),
                    "--tol-ruled", "0"])
    capsys.readouterr()
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["verdict"] == "HYPOTHESIS_FAILS"
    assert report["first_failure"]["step"] == "ruledness"
    assert report["steps"]["ruledness"]["verdict"] == "NOT_CONTAINED"


@pytest.mark.parametrize("command, flags, pointer", [
    ("verify", "--samples 0", "/params/samples"),
    ("ruled", "--samples 0", "/params/samples"),
    ("sweep", "--quad-cells 0", "/params/quad_cells"),
    ("sweep", "--quad-order 0", "/params/quad_order"),
    ("sweep", "--t-grid geometric:0,5", "/params/t0"),
    ("sweep", "--t-grid geometric:-0.1,5", "/params/t0"),
    ("exponent", "--t-grid geometric:0.1,4", "/params/t_steps"),
    ("verify", "--t-grid geometric:0.1,4", "/params/t_steps"),
    ("ruled", "--span 0", "/params/span"),
    ("verify", "--span -1", "/params/span"),
    # settings without a flag come from the scene file's params
    ("verify", "tspan=0", "/params/tspan"),
    ("verify", "tube_rho_max=-1", "/params/tube_rho_max"),
    ("ruled", "tube_rho_max=0", "/params/tube_rho_max"),
    ("ruled", "margin=0.5", "/params/margin"),
    ("verify", "margin=-0.1", "/params/margin"),
])
def test_out_of_range_settings_exit_one(capsys, tmp_path, hp_path, command, flags,
                                        pointer):
    if "=" in flags:
        key, value = flags.split("=")
        data = json.loads(corpus.scene_path("hyperbolic_paraboloid").read_text())
        data.setdefault("params", {})[key] = float(value)
        (tmp_path / "hp.json").write_text(json.dumps(data))
        hp_path = str(tmp_path / "hp.json")
        flags = ""
    code, out, err = _run(capsys, command, "--scene", hp_path, *flags.split())
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {pointer}: ")
    assert "Traceback" not in err


def test_flags_reach_verify_and_corpus(capsys, monkeypatch):
    seen = []
    real = cli.verify_theorem

    def spy(scene, seed=0):
        seen.append(scene.params)
        return real(scene, seed=seed)

    monkeypatch.setattr(cli, "verify_theorem", spy)
    monkeypatch.setattr(corpus, "names", lambda: ("sphere",))
    flags = ["--quad-order", "4", "--samples", "2", "--t-grid", "geometric:0.1,6"]
    assert cli.run(["verify", "--scene", str(corpus.scene_path("sphere")), *flags]) == 0
    assert cli.run(["corpus", *flags]) == 0
    capsys.readouterr()
    assert [(p.quad.order, p.samples, p.t0, p.t_steps) for p in seen] == [
        (4, 2, 0.1, 6), (4, 2, 0.1, 6)]


def test_t_grid_echoed_by_exponent(capsys):
    code, out, _ = _run(capsys, "exponent", "--scene",
                        str(corpus.scene_path("segment")),
                        "--t-grid", "geometric:0.1,5")
    assert code == 0
    record = json.loads(out)
    assert record["config"]["t0"] == 0.1 and record["config"]["t_steps"] == 5
    assert record["t"] == [0.1 * 0.5**i for i in range(5)]


def test_cli_records_match_verify_steps(capsys, hp_path):
    def steps(scene_path):
        code, out, _ = _run(capsys, "verify", "--scene", scene_path)
        assert code == 0
        return json.loads(out)["steps"]

    rotation = str(corpus.scene_path("circle_rotation"))
    code, out, _ = _run(capsys, "exponent", "--scene", rotation)
    assert code == 0
    record = json.loads(out)
    del record["config"]
    growth = steps(rotation)["growth"]
    del growth["passed"]
    assert record == growth

    code, out, _ = _run(capsys, "ruled", "--scene", hp_path)
    assert code == 0
    record = json.loads(out)
    del record["config"], record["per_sample"]
    ruledness = steps(hp_path)["ruledness"]
    del ruledness["passed"]
    assert record == ruledness
