import json
import math
import os
import re
import subprocess
import sys
import textwrap

import jsonschema
import numpy as np
import pytest

from hessianlab import cli, fields, functionals, pipeline
from hessianlab.calibration import calibration_hash
from hessianlab.errors import ConfigError
from hessianlab.functionals import Condition


def run_cli(tmp_path, config: dict, out: str, extra=()):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code = cli.main(["--config", str(cfg), "--out", str(tmp_path / out), *extra])
    # an exit 2 writes nothing, not even the output directory
    assert code != 2 or not (tmp_path / out).exists()
    return code


SOLVE_CFG = {
    "command": "solve",
    "seed": 3,
    "params": {
        "problem": {
            "n": 2, "k": 2, "l": 0, "h": 1 / 32,
            "boundary_value": 1.0, "rhs": 1.0, "tol": 1e-9,
            "domain": {"type": "ellipse", "params": {"semiaxes": [1.0, 2.0]}},
        }
    },
}


def test_solve_command_artifacts(tmp_path):
    code = run_cli(tmp_path, SOLVE_CFG, "run")
    assert code == 0
    out = tmp_path / "run"
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] and report["residual_max"] <= 1e-9
    field = fields.load_hsf1(out / "solution.hsf1")
    assert field.mask.inside_count() == report["inside_nodes"]


def test_solve_determinism_bitwise(tmp_path):
    assert run_cli(tmp_path, SOLVE_CFG, "a") == 0
    assert run_cli(tmp_path, SOLVE_CFG, "b") == 0
    for name in ("report.json", "solution.hsf1"):
        ba = (tmp_path / "a" / name).read_bytes()
        bb = (tmp_path / "b" / name).read_bytes()
        assert ba == bb, name


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _readme_solve_bytes(tmp_path, runs):
    """Run the README solve through the CLI once per (out, pins) pair, in a
    subprocess whose environment sets the BLAS thread variables in pins and
    no others; returns each run's report.json and solution.hsf1 bytes."""
    readme = {**SOLVE_CFG, "seed": 1, "params": {"problem": {
        **SOLVE_CFG["params"]["problem"], "h": 0.015625}}}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(readme))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {key: val for key, val in os.environ.items() if key not in _BLAS_THREADS}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    artifacts = []
    for out, pins in runs:
        cmd = [sys.executable, "-m", "hessianlab.cli", "--config", str(cfg), "--out", out]
        subprocess.run(cmd, env={**env, **pins}, cwd=tmp_path, check=True)
        artifacts.append({
            name: (tmp_path / out / name).read_bytes() for name in ("report.json", "solution.hsf1")
        })
    return artifacts


def test_artifacts_do_not_depend_on_unset_blas_threads(tmp_path):
    # the README solve from a shell that sets no BLAS thread count writes the
    # bytes of a shell that pins one thread: the CLI pins it unless told
    unset, one = _readme_solve_bytes(
        tmp_path, [("unset", {}), ("one", dict.fromkeys(_BLAS_THREADS, "1"))]
    )
    for name in unset:
        assert unset[name] == one[name], name


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the README solve writes the same bytes under one and two BLAS threads:
    # the Newton loop's GMRES sums in numpy, not in BLAS, whose dot products
    # sum in an order that follows the thread count
    one, two = _readme_solve_bytes(
        tmp_path,
        [("one", dict.fromkeys(_BLAS_THREADS, "1")), ("two", dict.fromkeys(_BLAS_THREADS, "2"))],
    )
    for name in one:
        assert one[name] == two[name], name


def test_integral_floats_in_problem_orders_solve_as_integers(tmp_path):
    # Draft 2020-12 counts 2.0 as an integer, so the schema passes "k": 2.0;
    # the README solve with float orders writes the integer config's bytes
    readme = {**SOLVE_CFG, "seed": 1, "params": {"problem": {
        **SOLVE_CFG["params"]["problem"], "h": 0.015625}}}
    floats = {**readme, "params": {"problem": {
        **readme["params"]["problem"], "k": 2.0, "l": 0.0}}}
    assert run_cli(tmp_path, readme, "int") == 0
    assert run_cli(tmp_path, floats, "float") == 0
    for name in ("report.json", "solution.hsf1"):
        assert (tmp_path / "int" / name).read_bytes() == (tmp_path / "float" / name).read_bytes(), name


def test_calibration_hash_is_frozen():
    # every artifact carries this hash; calibration_data.json is read, never rewritten
    assert calibration_hash() == "bb5bbcc2ef31d135"


def test_invalid_order_exits_2(tmp_path):
    cfg = {
        "command": "solve",
        "params": {
            "problem": {
                "n": 2, "k": 1, "l": 1, "h": 0.05,
                "domain": {"type": "ellipse", "params": {"semiaxes": [1, 1]}},
            }
        },
    }
    assert run_cli(tmp_path, cfg, "bad") == 2
    assert not (tmp_path / "bad" / "report.json").exists()


@pytest.mark.parametrize(
    "change",
    [
        {"k": 1, "l": 1},
        {"domain": {"type": "ellipse", "params": {"semiaxes": [1.0, 2.0, 3.0]}}},
        {"domain": {"type": "candidate_level", "params": {"candidate": "quad:diag(1,x)"}}},
        {"domain": {"type": "candidate_level", "params": {"candidate": "quad:diag(1,1,1)"}}},
        {"n": 3, "domain": {"type": "polygon", "params": {
            "vertices": [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]}}},
        # counterclockwise but not convex: its edge half-planes cut out the unit square
        {"h": 1 / 48, "domain": {"type": "polygon", "params": {
            "vertices": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]}}},
        {"h": 1 / 48, "domain": {"type": "polygon", "params": {
            "vertices": [[0, 0], [0, 1], [1, 1], [1, 0]]}}},
        # the (1, 2) ellipse spans 32 nodes, one below the default min_resolution
        {"h": 0.125},
    ],
    ids=["order", "semiaxes-length", "candidate-spec", "candidate-dimension", "polygon-dimension",
         "polygon-l-shape", "polygon-clockwise", "too-coarse"],
)
def test_problem_precondition_exits_2_without_files(tmp_path, change):
    # the problem passes the schema but not problem_from_spec's checks
    cfg = json.loads(json.dumps(SOLVE_CFG))
    cfg["params"]["problem"].update(change)
    assert run_cli(tmp_path, cfg, "x") == 2
    assert not (tmp_path / "x").exists()


def test_unknown_command_exits_2(tmp_path):
    assert run_cli(tmp_path, {"command": "nonsense"}, "x") == 2


MISSING_PARAMS = [
    ("solve", {}),
    ("analyze", {"t_points": 12}),
    ("sweep", {}),
    ("chain_iso", {"t": 50.0}),
    ("chain_volume", {"k": 2}),
    ("chain_volume", {"domains": [{"label": "no-axes"}]}),
    ("legendre", {}),
    ("report", {}),
]


@pytest.mark.parametrize("command,params", MISSING_PARAMS)
def test_missing_params_key_exits_2(tmp_path, command, params):
    assert run_cli(tmp_path, {"command": command, "params": params}, "x") == 2
    assert run_cli(tmp_path, {"command": command}, "y") == 2


def _without_domain_params_key(kind):
    cfg = json.loads(json.dumps(SOLVE_CFG))
    cfg["params"]["problem"]["domain"] = {"type": kind, "params": {"center": [0, 0]}}
    return cfg


DOMAIN_KINDS = ["ellipse", "polygon", "candidate_level"]


@pytest.mark.parametrize("kind", DOMAIN_KINDS)
def test_missing_domain_params_key_exits_2(tmp_path, kind):
    assert run_cli(tmp_path, _without_domain_params_key(kind), "x") == 2
    assert not (tmp_path / "x" / "report.json").exists()


BAD_SPECS = [
    "pownorm:c=1", "aniso:c=1,1", "quad:diag(1,x)", "quad:[[1,2],[3]]",
    # candidates of dimension other than 2 or 3
    "pownorm:c=1,p=1.5,n=4", "quad:diag(1)",
]
BAD_CANDIDATE_RUNS = [("analyze", {"candidate": spec}) for spec in BAD_SPECS] + [
    ("analyze", {"candidate": "quad:diag(1,-1)"}),
    ("chain_iso", {"candidate": "nope:1"}),
    ("sweep", {"candidate": "quad:diag(1,x)"}),
    # a slope fit needs 12 levels, on an increasing grid
    ("sweep", {"candidate": "quad:diag(2,0.5)", "t_points": 5}),
    ("sweep", {"candidate": "quad:diag(2,0.5)", "t_min": 10, "t_max": 1}),
]


@pytest.mark.parametrize(
    "command,params",
    BAD_CANDIDATE_RUNS,
    ids=BAD_SPECS + [
        "analyze-indefinite", "chain_iso-unknown-family", "sweep-bad-spec", "sweep-t_points-5",
        "sweep-decreasing-levels",
    ],
)
def test_malformed_candidate_spec_exits_2(tmp_path, capsys, command, params):
    assert run_cli(tmp_path, {"command": command, "params": params}, "x") == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not (tmp_path / "x").exists()


QUAD = {"candidate": "quad:diag(2,0.5)"}
ANISO_FIELD = os.path.join(os.path.dirname(__file__), "data", "field_aniso2d.hsf1")
DISK = {"domains": [{"semiaxes": [1.0, 1.0]}]}


MISTYPED_PARAMS = [
    ("analyze", {**QUAD, "t_min": "small"}),
    ("analyze", {**QUAD, "t_max": 0}),
    ("analyze", {**QUAD, "t_points": "many"}),
    ("analyze", {**QUAD, "m_dirs": 0}),
    ("analyze", {**QUAD, "p_list": [1.0, "two"]}),
    ("sweep", {**QUAD, "condition": "volume"}),
    ("sweep", {**QUAD, "m_dirs": 36.5}),
    ("sweep", {**QUAD, "p": "one"}),
    ("chain_iso", {**QUAD, "t": "abc"}),
    ("chain_iso", {**QUAD, "m_dirs": 36.5}),
    ("chain_iso", {**QUAD, "gamma": "big"}),
    ("chain_iso", {**QUAD, "interval": 5}),
    ("chain_iso", {**QUAD, "interval": [0.3]}),
    ("chain_iso", {**QUAD, "interval": [0.3, "half"]}),
    ("chain_volume", {**DISK, "k": "two"}),
    ("chain_volume", {**DISK, "l": 0.5}),
    ("chain_volume", {**DISK, "h": "fine"}),
    ("chain_volume", {"domains": [{"semiaxes": [1.0, 1.0], "label": 3}]}),
    ("chain_volume", {"domains": [{"semiaxes": [1.0, "wide"]}]}),
    ("legendre", {"field": "solution.hsf1", "region_level": "half"}),
    ("chain_iso", {**QUAD, "t": 0}),
]


@pytest.mark.parametrize("command,params", MISTYPED_PARAMS)
def test_mistyped_optional_params_exit_2(tmp_path, command, params):
    cfg = {"command": command, "params": params}
    assert run_cli(tmp_path, cfg, "x") == 2
    assert not (tmp_path / "x" / "manifest.json").exists()


def _on_domain(kind, params):
    cfg = json.loads(json.dumps(SOLVE_CFG))
    cfg["params"]["problem"]["domain"] = {"type": kind, "params": params}
    return cfg


# values that used to reach the library untyped: a traceback (exit 1), a
# wrong-length center taken silently, a misleading resolution error, or an
# integer path read as a file descriptor of the process
BAD_VALUES = [
    (_on_domain("ellipse", {"semiaxes": [1.0, 2.0], "center": [0, 0, 0]}), "center has 3 entries"),
    (_on_domain("ellipse", {"semiaxes": [1.0, 2.0], "center": [0]}), "center has 1 entries"),
    (_on_domain("ellipse", {"semiaxes": ["a", 2]}), "$.params.problem.domain.params.semiaxes[0]"),
    (_on_domain("ellipse", {"semiaxes": [1, -2]}), "$.params.problem.domain.params.semiaxes[1]"),
    (_on_domain("polygon", {"vertices": "x"}), "$.params.problem.domain.params.vertices"),
    (_on_domain("polygon", {"vertices": [[0, 0], [1, 0], [1]]}),
     "$.params.problem.domain.params.vertices[2]"),
    (_on_domain("candidate_level", {**QUAD, "level": "x"}), "$.params.problem.domain.params.level"),
    (_on_domain("candidate_level", {"candidate": 5}), "$.params.problem.domain.params.candidate"),
    ({"command": "analyze", "params": {"candidate": 5}}, "$.params.candidate"),
    ({"command": "sweep", "params": {"candidate": 5}}, "$.params.candidate"),
    ({"command": "chain_iso", "params": {"candidate": 5}}, "$.params.candidate"),
    ({"command": "chain_volume", "params": {"domains": [{"semiaxes": [1, -1]}]}},
     "$.params.domains[0].semiaxes[1]"),
    ({"command": "legendre", "params": {"field": 5}}, "$.params.field"),
    ({"command": "report", "params": {"dir": 5}}, "$.params.dir"),
    # the slope fits need 12 levels, a planar body 3 rays, an experiment a domain
    ({"command": "analyze", "params": {**QUAD, "t_points": 5}}, "$.params.t_points"),
    ({"command": "analyze", "params": {**QUAD, "m_dirs": 1}}, "$.params.m_dirs"),
    ({"command": "chain_volume", "params": {"domains": []}}, "$.params.domains"),
    # an ellipse carries the Dirichlet value 1
    ({**SOLVE_CFG, "params": {"problem": {**SOLVE_CFG["params"]["problem"], "boundary_value": 2.0}}},
     "boundary_value 2.0 differs from the domain's Dirichlet value 1.0"),
]


@pytest.mark.parametrize(
    "config,named",
    BAD_VALUES,
    ids=[
        "center-too-long", "center-too-short", "semiaxis-string", "semiaxis-negative",
        "vertices-string", "vertex-short", "level-string", "domain-candidate-int",
        "analyze-candidate-int", "sweep-candidate-int", "chain_iso-candidate-int",
        "chain_volume-semiaxis-negative", "legendre-field-int", "report-dir-int",
        "analyze-t_points-5", "analyze-m_dirs-1", "chain_volume-no-domains",
        "ellipse-boundary_value-2",
    ],
)
def test_bad_config_values_exit_2(tmp_path, capsys, config, named):
    assert run_cli(tmp_path, config, "x") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and named in err[0]
    assert not (tmp_path / "x").exists()


MISSPELLED_PARAMS = [
    ("chain_volume", {**DISK, "K": 3, "hh": 0.01}),
    ("chain_volume", {"domains": [{"semiaxes": [1.0, 1.0], "lable": "disk"}]}),
    ("analyze", {**QUAD, "t_point": 12}),
    ("legendre", {"field": ANISO_FIELD, "region": 0.5}),
    ("solve", {"problem": {**SOLVE_CFG["params"]["problem"], "tol_": 1e-6}}),
    ("solve", {"problem": {**SOLVE_CFG["params"]["problem"], "domain": {
        "type": "ellipse", "params": {"semiaxes": [1.0, 2.0], "centre": [0.5, 0.0]}}}}),
    # a dict names the config's whole top level, not just its command
    pytest.param({"command": "report", "sead": 5}, {"dir": "."}, id="report-sead"),
]


def _misspelled_config(command, params):
    top = command if isinstance(command, dict) else {"command": command}
    return {**top, "params": params}


@pytest.mark.parametrize("command,params", MISSPELLED_PARAMS)
def test_misspelled_params_exit_2(tmp_path, command, params):
    assert run_cli(tmp_path, _misspelled_config(command, params), "x") == 2
    # every config error is found before the first artifact is written
    out = tmp_path / "x"
    assert not out.exists() or os.listdir(out) == []


@pytest.mark.parametrize("schema", [cli.CONFIG_SCHEMA, cli.PROBLEM_SCHEMA], ids=["config", "problem"])
def test_schemas_are_valid_draft_2020_12(schema):
    jsonschema.Draft202012Validator.check_schema(schema)


def _subschemas(schema):
    """schema and every schema nested in it under a keyword the checker reads."""
    yield schema
    for key, value in schema.items():
        if key == "properties":
            nested = value.values()
        elif key == "allOf":
            nested = value
        elif key in ("items", "if", "then"):
            nested = [value]
        else:
            nested = []
        for sub in nested:
            yield from _subschemas(sub)


@pytest.mark.parametrize("schema", [cli.CONFIG_SCHEMA, cli.PROBLEM_SCHEMA], ids=["config", "problem"])
def test_checker_implements_every_keyword_the_schemas_use(schema):
    for sub in _subschemas(schema):
        assert set(sub) <= cli._KEYWORDS, sub
        assert sub.get("type", "object") in cli._TYPES
        assert sub.get("additionalProperties", False) is False
        # validate_spec writes a path as $.a.b, which needs the names that
        # jsonschema writes that way
        assert all(re.fullmatch("[a-zA-Z][a-zA-Z0-9_]*", name) for name in sub.get("properties", {}))


@pytest.mark.parametrize(
    "schema",
    [{"maximum": 3}, {"type": "boolean"}, {"type": ["integer", "string"]},
     {"additionalProperties": {"type": "number"}}, {"if": {"const": 1}, "else": {}}],
    ids=["maximum", "boolean", "type-list", "additional-schema", "else"],
)
def test_checker_rejects_a_keyword_it_does_not_implement(schema):
    # a mistake in a schema is a programming error, never a config error
    with pytest.raises(ValueError, match="not implemented"):
        cli.validate_spec(1, schema)


# one config per command that sets every typed param, so that the Draft
# 2020-12 edge cases below reach every integer and number field
_TYPED_CFGS = [
    {**SOLVE_CFG, "params": {"problem": {
        **SOLVE_CFG["params"]["problem"], "max_iters": 5, "min_resolution": 9,
        "domain": {"type": "ellipse", "params": {"semiaxes": [1.0, 2.0], "center": [0, 0.5]}}}}},
    {"command": "analyze", "params": {
        **QUAD, "t_min": 1.0, "t_max": 1e5, "t_points": 12, "m_dirs": 120, "p_list": [1, 2.5]}},
    {"command": "sweep", "params": {
        **QUAD, "t_min": 1.0, "t_max": 1e5, "t_points": 13, "m_dirs": 120,
        "condition": "reverse_iso", "p": 2.0}},
    {"command": "chain_iso", "params": {
        **QUAD, "t": 50.0, "m_dirs": 240, "gamma": 1.2, "interval": [0.3, 0.5]}},
    {"command": "legendre", "params": {"field": "solution.hsf1", "region_level": 0.5}},
]


def _number_paths(node, path=()):
    """The path of every int or float in a JSON value."""
    if isinstance(node, dict):
        for key, sub in node.items():
            yield from _number_paths(sub, path + (key,))
    elif isinstance(node, list):
        for index, sub in enumerate(node):
            yield from _number_paths(sub, path + (index,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def _with_each_number_replaced(config, value):
    """config with one int or float at a time set to value."""
    for path in _number_paths(config):
        edited = json.loads(json.dumps(config))
        node = edited
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        yield edited


def _config_corpus():
    yield from NO_COMMAND
    for command, params in MISSING_PARAMS:
        yield {"command": command, "params": params}
        yield {"command": command}
    for kind in DOMAIN_KINDS:
        yield _without_domain_params_key(kind)
    for command, params in MISTYPED_PARAMS:
        yield {"command": command, "params": params}
    for case in MISSPELLED_PARAMS:
        yield _misspelled_config(*getattr(case, "values", case))
    for config, _ in BAD_VALUES:
        yield config
    valid = [
        SOLVE_CFG, ANALYZE_CFG, SWEEP_CFG, CHAIN_ISO_CFG, CHAIN_VOLUME_CFG,
        {"command": "legendre", "seed": 0, "params": {"field": "solution.hsf1"}},
        {"command": "report", "params": {"dir": "pre2"}},
        *_TYPED_CFGS,
    ]
    for config in valid:
        yield config
        # 13.0 is an integer and true is neither an integer nor a number
        yield from _with_each_number_replaced(config, 13.0)
        yield from _with_each_number_replaced(config, True)


def test_config_checker_agrees_with_jsonschema():
    validator = jsonschema.Draft202012Validator(cli.CONFIG_SCHEMA)
    valid = single = 0
    for config in _config_corpus():
        errors = list(validator.iter_errors(config))
        try:
            cli.validate_spec(config, cli.CONFIG_SCHEMA)
        except ConfigError as exc:
            assert errors, config
            if len(errors) == 1:
                assert (exc.json_path, exc.message) == (errors[0].json_path, errors[0].message)
                single += 1
        else:
            assert errors == [], config
            valid += 1
    assert valid >= 50 and single >= 50


def test_config_error_message(tmp_path, capsys):
    cfg = {"command": "chain_iso", "params": {**QUAD, "t": "abc"}}
    assert run_cli(tmp_path, cfg, "x") == 2
    assert capsys.readouterr().err == "error: $.params.t: 'abc' is not of type 'number'\n"
    # a one-word mistake at the top level is one line, not the whole schema
    assert run_cli(tmp_path, {"command": "report", "sead": 5, "params": {"dir": "."}}, "y") == 2
    assert capsys.readouterr().err == (
        "error: $: Additional properties are not allowed ('sead' was unexpected)\n"
    )
    assert run_cli(tmp_path, {"command": "chain_iso", "params": {**QUAD, "t": 0}}, "z") == 2
    assert capsys.readouterr().err == (
        "error: $.params.t: 0 is less than or equal to the minimum of 0\n"
    )


NO_COMMAND = [{}, {"seed": 1}, {"params": {}}]


@pytest.mark.parametrize("config", NO_COMMAND, ids=["empty", "seed-only", "params-only"])
def test_config_without_a_command_names_command(tmp_path, capsys, config):
    assert run_cli(tmp_path, config, "x") == 2
    assert capsys.readouterr().err == "error: $: 'command' is a required property\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "config,line",
    [
        # the error highest in the config wins
        ({"command": "analyze", "params": {"t_points": "many"}},
         "$.params: 'candidate' is a required property"),
        # then the one whose path sorts last
        ({"command": "chain_iso", "params": {**QUAD, "gamma": "big", "t": "abc"}},
         "$.params.t: 'abc' is not of type 'number'"),
        # then one from a schema that names no type, here the command's
        ({"command": "report", "sead": 5}, "$: 'params' is a required property"),
    ],
    ids=["highest", "sorts-last", "untyped-schema"],
)
def test_config_error_is_the_one_jsonschema_picks(tmp_path, capsys, config, line):
    assert run_cli(tmp_path, config, "x") == 2
    assert capsys.readouterr().err == f"error: {line}\n"


def test_disconnected_hsf1_mask_exits_2(tmp_path, capsys):
    # two 2x2 blocks that share one corner: axis-convex, not face-connected
    inside = {(i, j) for i in (2, 3) for j in (2, 3)} | {(i, j) for i in (4, 5) for j in (4, 5)}
    lines = ["HSF1 n=2", "dims=9,9", "origin=0,0", "h=0.125", "level=nan"]
    lines += [f"{i} {j} 1 1" if (i, j) in inside else f"{i} {j} 0" for i in range(9) for j in range(9)]
    (tmp_path / "split.hsf1").write_text("\n".join(lines) + "\n")
    cfg = {"command": "legendre", "params": {"field": str(tmp_path / "split.hsf1")}}
    assert run_cli(tmp_path, cfg, "x") == 2
    assert "mask not grid-connected" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "make",
    [
        lambda path: path.write_text(""),
        lambda path: path.write_text("HSF1 n=2\n"),
        lambda path: path.write_text("HSF1 n=2\ndims=5,5\norigin=0,0\nh=0.5\nlevel=1\n0 0 1\n"),
        lambda path: None,
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b"HSF1 n=2\ndims=\xff\xfe\n"),
    ],
    ids=["empty", "header-only", "row-without-value", "missing", "directory", "not-utf8"],
)
def test_malformed_hsf1_exits_2(tmp_path, capsys, make):
    make(tmp_path / "bad.hsf1")
    cfg = {"command": "legendre", "params": {"field": str(tmp_path / "bad.hsf1")}}
    assert run_cli(tmp_path, cfg, "x") == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not (tmp_path / "x").exists()


_IMPORT_PROBE = textwrap.dedent(
    """
    import json, sys
    from hessianlab import cli

    def loaded():
        # the scipy subpackages in sys.modules, scipy itself, and jsonschema
        names = [m.split(".") for m in sys.modules]
        return sorted({".".join(p[:2]) for p in names if p[0] == "scipy"}
                      | {p[0] for p in names if p[0] == "jsonschema"})

    codes, seen = [], []
    for config, out in zip(sys.argv[1::2], sys.argv[2::2]):
        codes.append(cli.main(["--config", config, "--out", out]))
        seen.append(loaded())
    print(json.dumps([codes, seen]))
    """
)

_HEAVY_SCIPY = {"scipy.ndimage", "scipy.optimize", "scipy.spatial"}


def test_commands_load_only_the_scipy_subpackages_they_run(tmp_path):
    analyze = tmp_path / "analyze.json"
    analyze.write_text(json.dumps(
        {"command": "analyze", "params": {"candidate": "quad:diag(2,0.5)"}}
    ))
    solve = tmp_path / "solve.json"
    solve.write_text(json.dumps({**SOLVE_CFG, "params": {"problem": {
        **SOLVE_CFG["params"]["problem"], "h": 1 / 16}}}))
    legendre = tmp_path / "legendre.json"
    legendre.write_text(json.dumps(
        {"command": "legendre", "params": {"field": str(tmp_path / "s" / "solution.hsf1")}}
    ))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def probe(*args):
        run = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, *map(str, args)],
            env=env, capture_output=True, text=True, check=True,
        )
        return json.loads(run.stdout.splitlines()[-1])

    # the solve that makes legendre's field runs in an interpreter of its
    # own, so legendre is probed in one that has not solved
    codes, (after_solve,) = probe(solve, tmp_path / "s")
    assert codes == [0]
    assert not _HEAVY_SCIPY & set(after_solve)
    # configs are checked in-package: no command imports jsonschema
    assert "jsonschema" not in after_solve
    codes, (after_analyze, after_legendre) = probe(
        analyze, tmp_path / "a", legendre, tmp_path / "l"
    )
    assert codes == [0, 0]
    # a 2D analyze and a 2D legendre run on numpy alone
    assert after_analyze == []
    assert after_legendre == []
    assert "jsonschema" not in after_analyze + after_legendre


@pytest.mark.parametrize(
    "override", ["params.candidate.x=1", "command.x=1", "params.p_list.0=1"]
)
def test_override_through_non_object_exits_2(tmp_path, override):
    cfg = {"command": "analyze", "params": {"candidate": "quad:diag(2,0.5)", "p_list": [1.0]}}
    assert run_cli(tmp_path, cfg, "x", extra=["--override", override]) == 2


@pytest.mark.parametrize("kind", ["invalid_json", "directory"])
def test_unreadable_config_exits_2(tmp_path, kind, capsys):
    path = tmp_path / "run.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_text('{"command": "analyze", "params": {')
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "cannot read config" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("out", ["afile", "afile/run"], ids=["file", "under-a-file"])
def test_out_that_is_not_a_directory_exits_2(tmp_path, capsys, out):
    (tmp_path / "afile").write_text("kept\n")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "report", "params": {"dir": str(tmp_path)}}))
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert (tmp_path / "afile").read_text() == "kept\n"
    assert sorted(os.listdir(tmp_path)) == ["afile", "run.json"]


def test_internal_key_error_is_not_a_config_error(tmp_path, monkeypatch):
    def broken(cand, config):
        raise KeyError("internal")

    monkeypatch.setattr(pipeline, "analyze", broken)
    cfg = {"command": "analyze", "params": {"candidate": "quad:diag(2,0.5)"}}
    with pytest.raises(KeyError, match="internal"):
        run_cli(tmp_path, cfg, "x")


def test_nonconvergence_exits_3_with_artifacts(tmp_path):
    cfg = json.loads(json.dumps(SOLVE_CFG))
    cfg["params"]["problem"]["max_iters"] = 1
    code = run_cli(tmp_path, cfg, "stall")
    assert code == 3
    report = json.loads((tmp_path / "stall" / "report.json").read_text())
    assert report["converged"] is False
    assert (tmp_path / "stall" / "solution.hsf1").exists()
    assert (tmp_path / "stall" / "manifest.json").exists()


ANALYZE_CFG = {
    "command": "analyze",
    "seed": 0,
    "params": {
        "candidate": "quad:diag(2,0.5)",
        "t_points": 12, "m_dirs": 120, "t_max": 1e5,
    },
}


def test_analyze_command(tmp_path):
    assert run_cli(tmp_path, ANALYZE_CFG, "an") == 0
    report = json.loads((tmp_path / "an" / "report.json").read_text())
    assert all(v["verdict"] == "bounded" for v in report["verdicts"].values())
    assert (tmp_path / "an" / "gamma.csv").exists()
    assert (tmp_path / "an" / "sweep_reverse_iso.csv").exists()


SWEEP_CFG = {
    "command": "sweep",
    "seed": 0,
    "params": {
        "candidate": "pownorm:c=1,p=1.5,n=2",
        "condition": "volume_growth",
        "t_points": 12, "m_dirs": 120,
    },
}


def test_sweep_command_and_overrides(tmp_path):
    code = run_cli(
        tmp_path, SWEEP_CFG, "sw", extra=["--override", "params.t_points=13"]
    )
    assert code == 0
    verdict = json.loads((tmp_path / "sw" / "verdict.json").read_text())
    assert verdict["verdict"] == "unbounded"
    assert len(verdict["samples"]) == 13  # override took effect
    csv = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert csv[0] == "t value running_min"


CHAIN_ISO_CFG = {
    "command": "chain_iso",
    "seed": 0,
    "params": {"candidate": "quad:diag(3,0.3333333333333333)", "t": 50.0, "m_dirs": 240},
}


def test_chain_iso_command(tmp_path):
    assert run_cli(tmp_path, CHAIN_ISO_CFG, "chain") == 0
    chain = json.loads((tmp_path / "chain" / "chain.json").read_text())
    assert chain["all_passed"]
    assert {ln["check_id"] for ln in chain["links"]} >= {
        "premise-gradient-integral-bound",
        "level-perimeter-bound",
        "roundness-bound",
    }


def test_chain_iso_without_gamma_measures_the_premise_once(tmp_path, monkeypatch):
    # the claim comes from the premise sample the chain takes anyway
    calls = []
    iso_ratio = functionals.iso_ratio

    def counted(*args, **kwargs):
        calls.append(args)
        return iso_ratio(*args, **kwargs)

    monkeypatch.setattr(functionals, "iso_ratio", counted)
    cfg = {"command": "chain_iso", "params": {"candidate": "quad:diag(2,0.5)", "m_dirs": 240}}
    assert run_cli(tmp_path, cfg, "chain") == 0
    assert len(calls) == 1
    chain = json.loads((tmp_path / "chain" / "chain.json").read_text())
    assert chain["links"][0]["params"]["gamma"] == chain["meta"]["gamma_claim"] > 1.0


CHAIN_VOLUME_CFG = {
    "command": "chain_volume",
    "seed": 0,
    "params": {
        "k": 2, "l": 0, "h": 1 / 40,
        "domains": [
            {"label": "round", "semiaxes": [math.sqrt(2), math.sqrt(2)]},
            {"label": "aspect2", "semiaxes": [1.0, 2.0]},
        ],
    },
}


def test_chain_volume_command(tmp_path):
    assert run_cli(tmp_path, CHAIN_VOLUME_CFG, "vol") == 0
    payload = json.loads((tmp_path / "vol" / "chain.json").read_text())
    assert len(payload["reports"]) == 2
    assert all(r["all_passed"] for r in payload["reports"])


@pytest.mark.parametrize(
    "params",
    [
        {**DISK, "k": 3},
        {**DISK, "l": 2},
        {"domains": [{"semiaxes": [1.0, 1.0]}, {"semiaxes": [1.0]}]},
        {**DISK, "h": 0.125},
    ],
    ids=["k-above-n", "l-not-below-k", "one-dimensional-domain", "too-coarse"],
)
def test_chain_volume_order_error_exits_2_without_files(tmp_path, params):
    # every domain is checked as a Dirichlet problem (orders and resolution)
    # before the first artifact
    assert run_cli(tmp_path, {"command": "chain_volume", "params": params}, "x") == 2
    assert not (tmp_path / "x").exists()


def test_legendre_command(tmp_path):
    assert run_cli(tmp_path, SOLVE_CFG, "pre") == 0
    cfg = {
        "command": "legendre",
        "seed": 0,
        "params": {"field": str(tmp_path / "pre" / "solution.hsf1")},
    }
    assert run_cli(tmp_path, cfg, "leg") == 0
    meta = json.loads((tmp_path / "leg" / "transform.json").read_text())
    assert meta["min_eigenvalue"] > 0
    back = fields.load_hsf1(tmp_path / "leg" / "transform.hsf1")
    assert back.mask.inside_count() == meta["nodes"]


def test_candidate_level_solve_carries_its_level(tmp_path):
    # det D2u = 1 on {u < 0.5} of u = x^2 + y^2/4: the solve's Dirichlet
    # value is the level, and so are its report's and its HSF1 header's; the
    # transform of the solution is then y'A^-1 y/2
    cfg = json.loads(json.dumps(SOLVE_CFG))
    cfg["params"]["problem"] = {"n": 2, "k": 2, "l": 0, "h": 1 / 32, "domain": {
        "type": "candidate_level", "params": {**QUAD, "level": 0.5}}}
    assert run_cli(tmp_path, cfg, "cand") == 0
    assert json.loads((tmp_path / "cand" / "report.json").read_text())["boundary_value"] == 0.5
    assert "level=0.5" in (tmp_path / "cand" / "solution.hsf1").read_text().splitlines()
    leg = {"command": "legendre", "params": {"field": str(tmp_path / "cand" / "solution.hsf1")}}
    assert run_cli(tmp_path, leg, "leg") == 0
    assert json.loads((tmp_path / "leg" / "transform.json").read_text())["min_eigenvalue"] > 0
    v = fields.load_hsf1(tmp_path / "leg" / "transform.hsf1")
    Y = v.mask.inside_coords()
    exact = 0.5 * (Y[:, 0] ** 2 / 2.0 + Y[:, 1] ** 2 / 0.5)
    assert np.max(np.abs(v.values - exact)) <= 1e-3


def test_report_command(tmp_path):
    assert run_cli(tmp_path, SOLVE_CFG, "pre2") == 0
    cfg = {"command": "report", "params": {"dir": str(tmp_path / "pre2")}}
    assert run_cli(tmp_path, cfg, "rep") == 0
    summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
    names = {e["file"] for e in summary["entries"]}
    assert {"report.json", "manifest.json"} <= names


def test_report_lists_sorted_keys(tmp_path):
    src = tmp_path / "in"
    src.mkdir()
    (src / "b.json").write_text('{"z": 1, "a": {"y": 2}}')
    (src / "a.json").write_text("{}")
    (src / "notes.txt").write_text("not json")
    cfg = {"command": "report", "params": {"dir": str(src)}}
    assert run_cli(tmp_path, cfg, "rep") == 0
    summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
    assert summary == {
        "entries": [{"file": "a.json", "keys": []}, {"file": "b.json", "keys": ["a", "z"]}]
    }


@pytest.mark.parametrize(
    "text,named",
    [('{"a": ', "bad.json"), ("[1, 2]", "bad.json"), (None, "cannot list")],
    ids=["malformed", "not_an_object", "missing-dir"],
)
def test_report_bad_json_file_exits_2(tmp_path, capsys, text, named):
    src = tmp_path / "in"
    if text is not None:
        src.mkdir()
        (src / "bad.json").write_text(text)
    cfg = {"command": "report", "params": {"dir": str(src)}}
    assert run_cli(tmp_path, cfg, "rep") == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_report_dir_that_is_a_file_exits_2(tmp_path):
    (tmp_path / "a.json").write_text("{}")
    cfg = {"command": "report", "params": {"dir": str(tmp_path / "a.json")}}
    assert run_cli(tmp_path, cfg, "rep") == 2


class _UnserializableReport:
    def to_json_dict(self):
        return {"a": 1, "b": object()}


@pytest.mark.parametrize(
    "write",
    [
        lambda path: pipeline.write_report_json(_UnserializableReport(), path),
        lambda path: functionals.GrowthVerdict(
            Condition.VOLUME_GROWTH, None, [(1.0, 2.0), (2.0, "x")], 0.0, 0.0, "bounded", 2.0
        ).export_csv(path),
        lambda path: fields.write_text(path, None),
    ],
    ids=["report-json", "sweep-csv", "write-text"],
)
def test_failed_write_keeps_the_old_artifact_whole(tmp_path, write):
    path = tmp_path / "artifact"
    path.write_text("old\n")
    with pytest.raises((TypeError, ValueError)):
        write(str(path))
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["artifact"]


def test_analyze_determinism(tmp_path):
    cfg = {
        "command": "analyze",
        "seed": 9,
        "params": {"candidate": "quad:diag(2,0.5)", "t_points": 12, "m_dirs": 120},
    }
    assert run_cli(tmp_path, cfg, "d1") == 0
    assert run_cli(tmp_path, cfg, "d2") == 0
    for name in ("report.json", "gamma.csv", "sweep_volume_growth.csv"):
        assert (tmp_path / "d1" / name).read_bytes() == (tmp_path / "d2" / name).read_bytes()


@pytest.mark.parametrize(
    "spec,fixture",
    [
        ("quad:diag(2,0.5)", "analyze_quad_diag.json"),
        ("pownorm:c=1,p=1.5,n=2", "analyze_pownorm.json"),
    ],
)
def test_analyze_report_matches_fixture(tmp_path, spec, fixture):
    """report.json at CLI defaults against a stored fixture. Every field but
    john_aspect_samples is byte-identical; those enclosing-ellipsoid aspects
    are compared to a relative 1e-12, the scale of the fit's certified gap,
    so that roundoff in the fit may move their last digits."""
    assert run_cli(tmp_path, {"command": "analyze", "params": {"candidate": spec}}, "an") == 0
    with open(os.path.join(os.path.dirname(__file__), "data", fixture)) as fh:
        ref = json.load(fh)
    got = json.loads((tmp_path / "an" / "report.json").read_text())
    assert sorted(got) == sorted(ref)
    for key in ref:
        if key != "john_aspect_samples":
            assert json.dumps(got[key], sort_keys=True) == json.dumps(ref[key], sort_keys=True), key
    for (t, aspect), (t_ref, aspect_ref) in zip(got["john_aspect_samples"], ref["john_aspect_samples"]):
        assert t == t_ref
        assert abs(aspect - aspect_ref) <= 1e-12 * aspect_ref
    assert len(got["john_aspect_samples"]) == len(ref["john_aspect_samples"])
