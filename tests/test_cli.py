import json

import pytest

from osclab import cli, corpus, osculate
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


def test_schema_error_non_ascii_digit():
    # "²" is a digit to str.isdigit, not to the parser
    data = json.loads(corpus.scene_path("segment").read_text())
    data["manifold"]["height"] = ["x^\u00b2"]
    with pytest.raises(SceneError) as err:
        build_scene(data)
    assert err.value.pointer == "/manifold/height/0"
    assert "expected nonnegative integer exponent at offset 2" in str(err.value)


def test_schema_error_bad_cutoff():
    data = json.loads(corpus.scene_path("segment").read_text())
    data["cutoff"] = {"inner": 0.4, "outer": 0.2}
    with pytest.raises(SceneError) as err:
        build_scene(data)
    assert err.value.pointer == "/cutoff"


@pytest.mark.parametrize("pair", [[-1, float("inf")], [float("-inf"), 1],
                                  [float("nan"), 1], [False, True]])
def test_schema_error_nonfinite_domain(tmp_path, pair):
    # json reads NaN and Infinity, which pass no range check a finite box
    # needs; bool is an int in Python, so [false, true] would build [0, 1]
    data = json.loads(corpus.scene_path("hyperbolic_paraboloid").read_text())
    data["manifold"]["domain"][1] = pair
    (tmp_path / "hp.json").write_text(json.dumps(data))
    with pytest.raises(SceneError) as err:
        load_scene(str(tmp_path / "hp.json"))
    assert err.value.pointer == "/manifold/domain/1"


@pytest.mark.parametrize("cutoff", [{"inner": True, "outer": 1.5},
                                    {"inner": 0.5, "outer": True}])
def test_cutoff_radii_reject_booleans(cutoff):
    # on a [-2, 2]^2 box, inner = true would build a cutoff of inner radius 1
    data = json.loads(corpus.scene_path("hyperbolic_paraboloid").read_text())
    data["manifold"]["domain"] = [[-2, 2], [-2, 2]]
    data["cutoff"] = cutoff
    with pytest.raises(SceneError) as err:
        build_scene(data)
    assert err.value.pointer == "/cutoff"


_CUTOFF = {"inner": 0.2, "outer": 0.45}
_HP_MAP = {"k": 1, "map": ["x", "y", "x*y"]}


@pytest.mark.parametrize("edits, message", [
    ({"manifold.type": "torus"}, "/manifold/type: unknown manifold type 'torus'"),
    ({"manifold.chart_vars": ["x", "2y"]}, "/manifold/chart_vars: expected identifier names"),
    ({"manifold.chart_vars": ["x", "t"]},
     "/manifold/chart_vars: 't' is reserved for the time variable"),
    ({"manifold.chart_vars": ["x", "x"]},
     "/manifold/chart_vars: chart variables must be unique"),
    ({"manifold.domain": [[-1, 1]]}, "/manifold/domain: expected 2 intervals"),
    ({"manifold.ambient_dim": 2}, "/manifold/ambient_dim: ambient dimension must be "
     "an integer above the chart dimension"),
    ({"manifold.height": "x*y"}, "/manifold/height: expected a nonempty list of expressions"),
    ({"manifold.height": [3]}, "/manifold/height/0: expression must be a string"),
    ({"family.map": _HP_MAP["map"]}, "/family: provide exactly one of 'fields' or 'map'"),
    ({"family.fields": []}, "/family/fields: expected 1 vector fields"),
    ({"cutoff": 0.3}, "/cutoff: expected an object with inner/outer radii"),
    ({"family": _HP_MAP, "cutoff": _CUTOFF},
     "/cutoff: cutoff applies to polynomial field families"),
    ({"family": None, "cutoff": _CUTOFF}, "/cutoff: cutoff without a family"),
    (None, "/: scene must be a JSON object"),
    ({"manifold.height": ["x*y + .e3"]}, "/manifold/height/0: malformed number at offset 6"),
    ({"manifold.height": ["x^" + "1" * 5000]},
     "/manifold/height/0: exponent literal too long at offset 2"),
])
def test_schema_errors_name_their_pointer(edits, message):
    # edits set keys of the hyperbolic paraboloid's scene, by dotted path;
    # None replaces the whole scene with a list
    data = json.loads(corpus.scene_path("hyperbolic_paraboloid").read_text())
    for path, value in (edits or {}).items():
        *parents, key = path.split(".")
        target = data
        for parent in parents:
            target = target[parent]
        target[key] = value
    with pytest.raises(SceneError) as err:
        build_scene([] if edits is None else data)
    assert str(err.value) == message


@pytest.mark.parametrize("k", [0, -1])
def test_schema_error_k_of_a_scene_without_family(k):
    # k sets the class of the fitted curves when the scene has no family
    data = json.loads(corpus.scene_path("cubic_graph").read_text())
    del data["family"]
    data["params"] = {"k": k}
    with pytest.raises(SceneError) as err:
        build_scene(data)
    assert err.value.pointer == "/params/k"


@pytest.mark.parametrize("key, value", [("samples", True), ("span", False),
                                        ("k", True)])
def test_params_reject_booleans(key, value):
    # bool is an int in Python: true must not run as samples = 1, and false
    # must not reach a range check as 0
    data = json.loads(corpus.scene_path("cubic_graph").read_text())
    del data["family"]
    data["params"] = {key: value}
    with pytest.raises(SceneError) as err:
        build_scene(data)
    assert str(err.value) == f"/params/{key}: expected a finite number"


def test_family_k_rejects_a_boolean():
    data = json.loads(corpus.scene_path("hyperbolic_paraboloid").read_text())
    data["family"]["k"] = True
    with pytest.raises(SceneError) as err:
        build_scene(data)
    assert err.value.pointer == "/family/k"


@pytest.mark.parametrize("key", ["samples", "t_steps", "quad_cells", "k"])
def test_integer_params_reject_fractions(key):
    data = json.loads(corpus.scene_path("cubic_graph").read_text())
    del data["family"]
    data["params"] = {key: 2.7}  # would otherwise run truncated to 2
    with pytest.raises(SceneError) as err:
        build_scene(data)
    assert str(err.value) == f"/params/{key}: {key} must be an integer"
    data["params"] = {key: 2.0}  # an integral float is that integer
    scene = build_scene(data)
    got = {"samples": scene.params.samples, "t_steps": scene.params.t_steps,
           "quad_cells": scene.params.quad.cells, "k": scene.k}[key]
    assert got == 2 and isinstance(got, int)


def test_params_k_must_match_the_family():
    # params.k sets the class of the fitted curves only when the scene has
    # no family; on a scene with one it must not be silently dropped
    data = json.loads(corpus.scene_path("hyperbolic_paraboloid").read_text())
    data["params"] = {"k": 3}
    with pytest.raises(SceneError) as err:
        build_scene(data)
    assert err.value.pointer == "/params/k"
    data["params"] = {"k": 1}
    assert build_scene(data).k == 1


def test_null_params_take_the_defaults():
    data = json.loads(corpus.scene_path("cubic_graph").read_text())
    del data["family"]
    data["params"] = None
    scene = build_scene(data)
    assert scene.k == 1 and scene.params.samples == 3


def test_mesh_node_guard():
    """The default m = 3 mesh, 128^3 nodes, builds; (8 * 21)^3 does not."""
    data = {"manifold": {"type": "graph", "chart_vars": ["x", "y", "z"],
                         "domain": [[-1, 1]] * 3, "ambient_dim": 4,
                         "height": ["x*y + z"]},
            "family": {"k": 1, "fields": [["1", "0", "0", "y"]]}}
    assert build_scene(data).params.quad.cells == 16
    data["params"] = {"quad_cells": 21}
    with pytest.raises(SceneError) as err:
        build_scene(data)
    assert err.value.pointer == "/params/quad_cells"
    assert "4741632 mesh nodes" in str(err.value)


def test_jet_order_guard_bounds_k():
    # osculation measures orders up to k (m + 1) + 2 = 65 at k = 21, m = 2
    data = json.loads(corpus.scene_path("hyperbolic_paraboloid").read_text())
    del data["family"]
    data["params"] = {"k": 20}
    assert build_scene(data).k == 20
    data["params"] = {"k": 21}
    with pytest.raises(SceneError) as err:
        build_scene(data)
    assert err.value.pointer == "/params/k"
    assert "contact order 65, above MAX_JET_ORDER = 64" in str(err.value)


def test_six_dimensional_chart_exits_one(capsys, monkeypatch, tmp_path):
    # 9^6 projection seeds are more than one projection chunk holds: the
    # scene is refused at load, before any step runs
    def past_the_check(*args, **kwargs):
        raise AssertionError("the command ran past the scene check")

    monkeypatch.setattr(cli, "verify_theorem", past_the_check)
    names = [f"x{i}" for i in range(6)]
    data = {"manifold": {"type": "graph", "chart_vars": names, "domain": [[-1, 1]] * 6,
                         "ambient_dim": 7, "height": ["x0*x1"]},
            "family": {"k": 1, "fields": [["1"] + ["0"] * 5 + ["x1"]]}}
    path = tmp_path / "six.json"
    path.write_text(json.dumps(data))
    code, out, err = _run(capsys, "verify", "--scene", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: /manifold: a 6-dimensional chart has 531441 projection seeds")
    assert "Traceback" not in err


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


def test_coeffs_degree_guard_on_map_family(capsys, tmp_path):
    """An expanding circle is not a class-1 map: its volume element grows
    like exp(2t), so the guard fails on the input, not on a bug."""
    data = json.loads(corpus.scene_path("circle").read_text())
    data["family"] = {"k": 1, "map": ["exp(t)*sin(u)", "exp(t)*cos(u)"]}
    path = tmp_path / "expanding_circle.json"
    path.write_text(json.dumps(data))
    code, _, err = _run(capsys, "coeffs", "--scene", str(path))
    assert code == 2
    assert "coefficient of degree > 1 reached" in err
    assert "the map's volume element is not a polynomial in t" in err
    assert "bug" not in err


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


@pytest.mark.parametrize("command, flag", [
    ("sweep", "--report x.json"),
    ("coeffs", "--report x.json"),
    ("verify", "--out x.csv"),
    ("exponent", "--point 0,0"),
    ("ruled", "--max-order 4"),
    ("sweep", "--seed 3"),
])
def test_usage_error_out_of_scope_flag(capsys, hp_path, command, flag):
    code, out, err = _run(capsys, command, "--scene", hp_path, *flag.split())
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err


def test_corpus_takes_no_scene(capsys):
    code, out, err = _run(capsys, "corpus", "--scene", "x")
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err


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


def test_verify_records_a_domain_error_and_exits_zero(capsys, tmp_path):
    # the field reads 1/x, undefined at the samples with x = 0: verify
    # records the error at step 1 and writes its report, while coeffs,
    # which evaluates the family at the same samples, exits 2 on it
    data = json.loads(corpus.scene_path("hyperbolic_paraboloid").read_text())
    data["family"] = {"k": 1, "fields": [["1", "0", "y + 0*(1/x)"]]}
    p, out_file = tmp_path / "pole.json", tmp_path / "pole-report.json"
    p.write_text(json.dumps(data))
    code, _, err = _run(capsys, "verify", "--scene", str(p), "--report", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["verdict"] == "HYPOTHESIS_FAILS"
    assert report["first_failure"]["step"] == "osculation"
    assert report["first_failure"]["detail"]["detail"] == "division by zero"
    assert "HYPOTHESIS_FAILS" in err
    code, out, err = _run(capsys, "coeffs", "--scene", str(p))
    assert (code, out, err) == (2, "", "numerical error: division by zero\n")


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


@pytest.mark.parametrize("flag, value", [("--tol-contact-coeff", "inf"),
                                         ("--tol-ruled", "nan"),
                                         ("--tol-vanish", "-1")])
def test_tolerance_override_must_be_finite_and_nonnegative(capsys, monkeypatch, hp_path,
                                                         flag, value):
    def past_the_check(*args, **kwargs):
        raise AssertionError("the command ran past its tolerance check")

    monkeypatch.setattr(cli, "verify_theorem", past_the_check)
    for argv in (["verify", "--scene", hp_path], ["corpus"]):
        code, out, err = _run(capsys, *argv, flag, value)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {flag} must be a finite number >= 0")


@pytest.mark.parametrize("command, flags, pointer", [
    ("verify", "--samples 0", "/params/samples"),
    ("ruled", "--samples 0", "/params/samples"),
    ("sweep", "--quad-cells 0", "/params/quad_cells"),
    ("sweep", "--quad-cells 512", "/params/quad_cells"),
    ("sweep", "--quad-order 0", "/params/quad_order"),
    ("sweep", "--t-grid geometric:0,5", "/params/t0"),
    ("sweep", "--t-grid geometric:-0.1,5", "/params/t0"),
    ("exponent", "--t-grid geometric:0.1,4", "/params/t_steps"),
    ("verify", "--t-grid geometric:0.1,4", "/params/t_steps"),
    ("ruled", "--span 0", "/params/span"),
    ("verify", "--span -1", "/params/span"),
    ("verify", "--span inf", "/params/span"),
    ("verify", "--t-grid geometric:inf,5", "/params/t0"),
    # settings without a flag come from the scene file's params
    ("verify", "tspan=0", "/params/tspan"),
    ("verify", "tspan=inf", "/params/tspan"),
    ("verify", "t0=inf", "/params/t0"),
    ("ruled", "span=nan", "/params/span"),
    ("verify", "k=0", "/params/k"),
    ("verify", "tube_rho_max=-1", "/params/tube_rho_max"),
    ("ruled", "tube_rho_max=0", "/params/tube_rho_max"),
    ("ruled", "margin=0.5", "/params/margin"),
    ("verify", "margin=-0.1", "/params/margin"),
    ("sweep", "quad_cells=300", "/params/quad_cells"),
])
def test_out_of_range_settings_exit_one(capsys, monkeypatch, tmp_path, hp_path,
                                        command, flags, pointer):
    # every case must stop before the command's pipeline runs, so a check
    # that stops firing fails here at once (quad_cells = 512 would build a
    # 16.7M-node mesh). Parameter loading makes every check but t_steps,
    # which `exponent` makes before its first volume and `verify` before
    # osculation.
    def past_the_check(*args, **kwargs):
        raise AssertionError("the command ran past its parameter check")

    stubs = [(cli, "volume_series"), (cli, "ruledness_record"),
             (cli, "vanishing_verdict")]
    if pointer == "/params/t_steps":
        stubs += [(osculate, "volume_series"), (osculate, "contact_order_jet_recharted")]
    else:
        stubs += [(cli, "growth_record"), (cli, "verify_theorem")]
    for module, name in stubs:
        monkeypatch.setattr(module, name, past_the_check)
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


@pytest.mark.parametrize("command, env_seed, flags, message", [
    ("verify", "abc", "", "OSCLAB_SEED must be an integer, got 'abc'"),
    ("verify", "-5", "", "the seed must be >= 0, got -5"),
    ("verify", None, "--seed -5", "the seed must be >= 0, got -5"),
    ("corpus", "abc", "", "OSCLAB_SEED must be an integer, got 'abc'"),
    ("contact", None, "--point 0,0 --max-order 0", "--max-order must be >= 1, got 0"),
    ("contact", None, "--point 0,0 --max-order -3", "--max-order must be >= 1, got -3"),
    ("contact", None, "--point 0,0 --max-order 65", "--max-order must be at most 64, got 65"),
    ("contact", None, "--point 5,0", "--point '5,0' must be finite and inside "
     "the chart box [[-1.0, 1.0], [-1.0, 1.0]]"),
    ("contact", None, "--point nan,0", "--point 'nan,0' must be finite and inside "
     "the chart box [[-1.0, 1.0], [-1.0, 1.0]]"),
    ("contact", None, "", "--point is required for this command"),
    ("contact", None, "--point 0,a", "cannot parse --point '0,a'"),
    ("contact", None, "--point 0", "--point needs 2 chart coordinates"),
    ("verify", None, "--t-grid geometric:abc,3",
     "bad --t-grid value: could not convert string to float: 'abc'"),
])
def test_bad_seed_or_max_order_exits_one(capsys, monkeypatch, tmp_path, command,
                                         env_seed, flags, message):
    # verify runs on a scene without a family, where the seed reaches the
    # fit's RNG; every case must stop before the command's pipeline runs
    def past_the_check(*args, **kwargs):
        raise AssertionError("the command ran past its seed, order or point check")

    for name in ("verify_theorem", "contact_order_jet_recharted", "contact_order_metric"):
        monkeypatch.setattr(cli, name, past_the_check)
    if env_seed is None:
        monkeypatch.delenv("OSCLAB_SEED", raising=False)
    else:
        monkeypatch.setenv("OSCLAB_SEED", env_seed)
    data = json.loads(corpus.scene_path("hyperbolic_paraboloid").read_text())
    if command == "verify":
        del data["family"]
    (tmp_path / "hp.json").write_text(json.dumps(data))
    scene = [] if command == "corpus" else ["--scene", str(tmp_path / "hp.json")]
    code, out, err = _run(capsys, command, *scene, *flags.split())
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


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
