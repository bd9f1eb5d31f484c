"""Batch front-end: solve problems, run sweeps and chain experiments,
emit CSV/JSON artifacts.

One JSON config names the command and its parameters; flags override
scalar entries. Artifacts are written via temp-and-rename and formatted
deterministically (sorted JSON keys, 17-significant-digit floats), so a
fixed config reproduces byte-identical outputs. No command draws random
numbers; the seed is provenance, recorded in manifest.json.

Exit codes: 0 success, 2 precondition/config errors, 3 numerical
non-convergence (partial artifacts are still written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# one BLAS thread unless the caller chose a count: threaded reductions move
# the last bits of a solve, and an artifact's bytes with them. This must run
# before numpy loads BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from . import fields, functionals, pipeline, symm
from .calibration import calibration_hash
from .candidates import candidate_from_spec
from .errors import ConfigError, NonConvergenceError, NumericError, PreconditionError
from .fields import load_hsf1, save_hsf1, write_json, write_text
from .functionals import Condition

# the level grid and direction count that analyze and sweep read with defaults
_LEVEL_GRID = {
    "t_min": {"type": "number", "exclusiveMinimum": 0},
    "t_max": {"type": "number", "exclusiveMinimum": 0},
    "t_points": {"type": "integer", "minimum": 12},    # the slope fits need 12 levels
    "m_dirs": {"type": "integer", "minimum": 3},       # 2 rays enclose no planar body
}

_NUMBERS = {"type": "array", "items": {"type": "number"}}
_PAIR = {**_NUMBERS, "minItems": 2, "maxItems": 2}
_SEMIAXES = {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}}

# the domain types, each with the params it reads, the required one first
_DOMAIN_PARAMS = {
    "ellipse": {"semiaxes": _SEMIAXES, "center": _NUMBERS},
    "polygon": {"vertices": {"type": "array", "items": _PAIR}},
    "candidate_level": {"candidate": {"type": "string"}, "level": {"type": "number"}},
}

PROBLEM_SCHEMA = {
    "type": "object",
    "required": ["n", "k", "l", "domain", "h"],
    "additionalProperties": False,
    "properties": {
        "n": {"type": "integer", "enum": [2, 3]},
        "k": {"type": "integer", "minimum": 1},
        "l": {"type": "integer", "minimum": 0},
        "h": {"type": "number", "exclusiveMinimum": 0},
        "boundary_value": {"type": "number"},
        "rhs": {"type": "number", "exclusiveMinimum": 0},
        "tol": {"type": "number", "exclusiveMinimum": 0},
        "max_iters": {"type": "integer", "minimum": 1},
        "min_resolution": {"type": "integer", "minimum": 5},
        "domain": {
            "type": "object",
            "required": ["type", "params"],
            "properties": {
                "type": {"type": "string", "enum": list(_DOMAIN_PARAMS)},
                "params": {},
            },
            "allOf": [
                {
                    "if": {"properties": {"type": {"const": kind}}},
                    "then": {
                        "properties": {
                            "params": {
                                "type": "object",
                                "required": [next(iter(keys))],
                                "additionalProperties": False,
                                "properties": keys,
                            }
                        }
                    },
                }
                for kind, keys in _DOMAIN_PARAMS.items()
            ],
        },
    },
}

# the commands, each with what it reads from its params without a default,
# and every key it reads, typed where an optional one is read with a default;
# a key not listed is an error, so a misspelled param cannot fall back silently
_PARAMS_SCHEMA = {
    "solve": {"required": ["problem"], "properties": {"problem": PROBLEM_SCHEMA}},
    "analyze": {
        "required": ["candidate"],
        "properties": {
            "candidate": {"type": "string"},
            **_LEVEL_GRID,
            "p_list": _NUMBERS,
        },
    },
    "sweep": {
        "required": ["candidate"],
        "properties": {
            "candidate": {"type": "string"},
            **_LEVEL_GRID,
            "condition": {"enum": [c.value for c in Condition]},
            "p": {"type": "number"},
        },
    },
    "chain_iso": {
        "required": ["candidate"],
        "properties": {
            "candidate": {"type": "string"},
            "t": {"type": "number", "exclusiveMinimum": 0},
            "m_dirs": _LEVEL_GRID["m_dirs"],
            "gamma": {"type": "number"},
            "interval": _PAIR,
        },
    },
    "chain_volume": {
        "required": ["domains"],
        "properties": {
            "k": {"type": "integer"},
            "l": {"type": "integer"},
            "h": {"type": "number", "exclusiveMinimum": 0},
            "domains": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "required": ["semiaxes"],
                    "additionalProperties": False,
                    "properties": {
                        "label": {"type": "string"},
                        "semiaxes": _SEMIAXES,
                    },
                },
            },
        },
    },
    "legendre": {
        "required": ["field"],
        "properties": {"field": {"type": "string"}, "region_level": {"type": "number"}},
    },
    "report": {"required": ["dir"], "properties": {"dir": {"type": "string"}}},
}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["command"],
    "additionalProperties": False,
    "properties": {
        "command": {"type": "string", "enum": list(_PARAMS_SCHEMA)},
        "seed": {"type": "integer"},
        "params": {"type": "object"},
    },
    "allOf": [
        {
            # an if without required holds for a config with no command
            "if": {"required": ["command"], "properties": {"command": {"const": cmd}}},
            "then": {
                "required": ["params"],
                "properties": {"params": {**sub, "additionalProperties": False}},
            },
        }
        for cmd, sub in _PARAMS_SCHEMA.items()
    ],
}


# the JSON types the schemas name, as Draft 2020-12 defines them: a bool is
# neither an integer nor a number, and a float with no fraction is an integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}

# every keyword the schemas use; "then" is read by "if", a type is one of
# _TYPES, and additionalProperties may only be false
_KEYWORDS = frozenset({
    "type", "enum", "const", "required", "properties", "additionalProperties", "items",
    "minItems", "maxItems", "minimum", "exclusiveMinimum", "allOf", "if", "then",
})


def _equal(a, b) -> bool:
    # JSON equality: true is not 1
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _schema_errors(instance, schema: dict, path: tuple):
    """(path, message, the instance has the schema's type) for each way
    instance breaks schema, in the order and the words of jsonschema's
    Draft202012Validator. A keyword outside _KEYWORDS is a mistake in the
    schema, not in the config, so it raises ValueError."""
    def fail(message):
        return path, message, "type" in schema and _TYPES[schema["type"]](instance)

    is_object, is_array = isinstance(instance, dict), isinstance(instance, list)
    is_number = _TYPES["number"](instance)
    for key, value in schema.items():
        if (key not in _KEYWORDS or (key == "type" and value not in tuple(_TYPES))
                or (key == "additionalProperties" and value is not False)):
            raise ValueError(f"schema keyword {key}={value!r} is not implemented")
        if key == "type" and not _TYPES[value](instance):
            yield fail(f"{instance!r} is not of type {value!r}")
        elif key == "enum" and not any(_equal(instance, each) for each in value):
            yield fail(f"{instance!r} is not one of {value!r}")
        elif key == "const" and not _equal(instance, value):
            yield fail(f"{value!r} was expected")
        elif key == "required" and is_object:
            yield from (fail(f"{name!r} is a required property")
                        for name in value if name not in instance)
        elif key == "properties" and is_object:
            for name, sub in value.items():
                if name in instance:
                    yield from _schema_errors(instance[name], sub, path + (name,))
        elif key == "additionalProperties" and is_object:
            extras = sorted(name for name in instance if name not in schema.get("properties", {}))
            if extras:
                names = ", ".join(map(repr, extras))
                verb = "was" if len(extras) == 1 else "were"
                yield fail(f"Additional properties are not allowed ({names} {verb} unexpected)")
        elif key == "items" and is_array:
            for index, item in enumerate(instance):
                yield from _schema_errors(item, value, path + (index,))
        elif key == "minItems" and is_array and len(instance) < value:
            yield fail(f"{instance!r} " + ("should be non-empty" if value == 1 else "is too short"))
        elif key == "maxItems" and is_array and len(instance) > value:
            yield fail(f"{instance!r} " + ("is expected to be empty" if value == 0 else "is too long"))
        elif key == "minimum" and is_number and instance < value:
            yield fail(f"{instance!r} is less than the minimum of {value!r}")
        elif key == "exclusiveMinimum" and is_number and instance <= value:
            yield fail(f"{instance!r} is less than or equal to the minimum of {value!r}")
        elif key == "allOf":
            for sub in value:
                yield from _schema_errors(instance, sub, path)
        elif key == "if" and not any(_schema_errors(instance, value, path)):
            yield from _schema_errors(instance, schema.get("then", {}), path)


def validate_spec(instance, schema: dict):
    """Check instance against one of the CLI's schemas, and raise a
    ConfigError for the error that jsonschema's best_match picks: the one
    highest in the instance, then the one whose path sorts last, then one
    from a schema whose type the instance lacks or that names no type,
    then the first found. Every property name in the schemas is a plain
    word, so a path is written $.a.b[0]."""
    errors = list(_schema_errors(instance, schema, ()))
    if errors:
        path, message, _ = max(errors, key=lambda e: (-len(e[0]), e[0], not e[2]))
        raise ConfigError(
            "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path), message
        )


def _given(params: dict, **casts) -> dict:
    """The params named in casts that the config sets, each cast, so that
    the library's defaults fill the rest. int admits 13.0, which JSON
    Schema counts as an integer; float keeps a value written into an
    artifact a float."""
    return {key: cast(params[key]) for key, cast in casts.items() if key in params}


def problem_from_spec(spec: dict):
    """Build the DirichletProblem of the JSON wire format; the caller has
    checked spec against PROBLEM_SCHEMA."""
    from . import solver

    # int(): Draft 2020-12 counts 2.0 as an integer
    n, k, l, h = int(spec["n"]), int(spec["k"]), int(spec["l"]), spec["h"]
    symm.check_orders(n, k, l)
    dom = spec["domain"]
    if dom["type"] == "ellipse":
        semi = dom["params"]["semiaxes"]
        if len(semi) != n:
            raise PreconditionError("semiaxes length must equal n")
        mask = fields.mask_from_ellipse(semi, h, center=dom["params"].get("center"))
    elif dom["type"] == "polygon":
        if n != 2:
            raise PreconditionError(f"a polygon domain is planar, but n = {n}")
        mask = fields.mask_from_polygon(dom["params"]["vertices"], h)
    else:
        cand = candidate_from_spec(dom["params"]["candidate"])
        if cand.n != n:
            raise PreconditionError(f"candidate {cand.name} has dimension {cand.n}, but n = {n}")
        level = float(dom["params"].get("level", 1.0))
        grid = fields.grid_for_candidate(cand, level, h)
        mask = fields.sample_candidate(cand, grid, level).mask
    problem = solver.DirichletProblem(
        mask=mask, k=k, l=l,
        **_given(spec, rhs=float, min_resolution=int, tol=float, max_iters=int),
    )
    # the schema keeps boundary_value, but the domain sets the value
    given = float(spec.get("boundary_value", problem.boundary_value))
    if given != problem.boundary_value:
        raise PreconditionError(f"boundary_value {given!r} differs from the domain's "
                                f"Dirichlet value {problem.boundary_value!r}")
    return problem


def _analyze_config(params: dict) -> pipeline.AnalyzeConfig:
    return pipeline.AnalyzeConfig(
        **_given(params, t_min=float, t_max=float, t_points=int, m_dirs=int, p_list=tuple)
    )


def _apply_overrides(config: dict, overrides: list):
    for item in overrides:
        if "=" not in item:
            raise PreconditionError(f"override must look like key=value: {item!r}")
        key, raw = item.split("=", 1)
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            val = raw
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            if not isinstance(node, dict):
                break
            node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise PreconditionError(f"override {key!r} goes through a value that is not an object")
        node[parts[-1]] = val
    return config


def _check_out(out: str):
    """Raise PreconditionError unless out is a directory or can be made one:
    its nearest existing ancestor must be a directory."""
    path = os.path.abspath(out)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise PreconditionError(f"--out {out}: {path} is not a directory")


def _cmd_solve(params, out):
    from . import solver

    report = solver.solve(problem_from_spec(params["problem"]))
    save_hsf1(report.field, os.path.join(out, "solution.hsf1"))
    payload = report.to_json_dict()
    payload["calibration"] = calibration_hash()
    write_json(os.path.join(out, "report.json"), payload)
    if not report.converged:
        raise NonConvergenceError("solver did not converge")
    return 0


def _cmd_analyze(params, out):
    cand = candidate_from_spec(params["candidate"])
    report = pipeline.analyze(cand, _analyze_config(params))
    pipeline.write_report_json(report, os.path.join(out, "report.json"))
    for key, verdict in report.verdicts.items():
        safe = key.replace(":", "_")
        verdict.export_csv(os.path.join(out, f"sweep_{safe}.csv"))
    lines = ["t gamma"]
    for t, g in report.gamma_samples:
        lines.append(f"{t:.17g} {g:.17g}")
    write_text(os.path.join(out, "gamma.csv"), "\n".join(lines) + "\n")
    return 0


def _cmd_sweep(params, out):
    cand = candidate_from_spec(params["candidate"])
    cfg = _analyze_config(params)
    verdict = functionals.condition_sweep(
        cand,
        Condition(params.get("condition", "volume_growth")),
        cfg.t_grid(),
        m_dirs=cfg.m_dirs,
        **_given(params, p=float),
    )
    verdict.export_csv(os.path.join(out, "sweep.csv"))
    write_json(os.path.join(out, "verdict.json"), verdict.to_json_dict())
    return 0


def _cmd_chain_iso(params, out):
    cand = candidate_from_spec(params["candidate"])
    gamma = params.get("gamma")
    report = pipeline.iso_to_roundness_chain(
        cand, float(params.get("t", 100.0)), None if gamma is None else float(gamma),
        **_given(params, m_dirs=int, interval=tuple),
    )
    pipeline.write_report_json(report, os.path.join(out, "chain.json"))
    return 0 if report.all_passed() else 3


def _volume_domains(params: dict) -> list:
    """One (label, DirichletProblem) per domain of a chain_volume config;
    building a problem checks it."""
    from . import solver

    k, l = int(params.get("k", 2)), int(params.get("l", 0))
    h = float(params.get("h", 1.0 / 48.0))    # float: written into each report
    domains = []
    for spec in params["domains"]:
        semi = spec["semiaxes"]
        problem = solver.DirichletProblem(mask=fields.mask_from_ellipse(semi, h), k=k, l=l)
        domains.append((spec.get("label", json.dumps(semi)), problem))
    return domains


def _cmd_chain_volume(params, out):
    reports = pipeline.volume_to_roundness_experiment(_volume_domains(params))
    payload = {
        "schema_version": pipeline.REPORT_SCHEMA_VERSION,
        "calibration": calibration_hash(),
        "reports": [r.to_json_dict() for r in reports],
    }
    write_json(os.path.join(out, "chain.json"), payload)
    bad = [r for r in reports if "error" in r.meta or not r.all_passed()]
    return 3 if bad else 0


def _cmd_legendre(params, out):
    f = load_hsf1(params["field"])
    v = functionals.legendre_transform(f, **_given(params, region_level=float))
    save_hsf1(v, os.path.join(out, "transform.hsf1"))
    st = v.mask.stencils()
    H = v.hessian_stack()
    lam = np.linalg.eigvalsh(H[st.is_full])
    write_json(
        os.path.join(out, "transform.json"),
        {
            "nodes": int(v.mask.inside_count()),
            "min_eigenvalue": float(np.min(lam)) if lam.size else None,
            "calibration": calibration_hash(),
        },
    )
    return 0


def _cmd_report(params, out):
    src = params["dir"]
    try:
        names = sorted(os.listdir(src))
    except OSError as exc:
        raise PreconditionError(f"cannot list {src}: {exc}") from exc
    entries = []
    for name in names:
        if not name.endswith(".json"):
            continue
        path = os.path.join(src, name)
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:
            raise PreconditionError(f"cannot read {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise PreconditionError(f"{path} does not hold a JSON object")
        entries.append({"file": name, "keys": sorted(payload.keys())})
    write_json(os.path.join(out, "summary.json"), {"entries": entries})
    return 0


_DISPATCH = {
    "solve": _cmd_solve,
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "chain_iso": _cmd_chain_iso,
    "chain_volume": _cmd_chain_volume,
    "legendre": _cmd_legendre,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hessianlab",
        description="Batch runner for Hessian-equation experiments",
    )
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument(
        "--override", action="append", default=[], metavar="KEY=VALUE",
        help="override a config entry (dotted keys, JSON values)",
    )
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        config = _apply_overrides(config, args.override)
        validate_spec(config, CONFIG_SCHEMA)
        _check_out(args.out)
        code = _DISPATCH[config["command"]](config["params"], args.out)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        code = 3
    # the manifest follows the run, so an exit 2 writes no file
    write_json(
        os.path.join(args.out, "manifest.json"),
        {
            "command": config["command"],
            "params": config["params"],
            "seed": int(config.get("seed", 0)),
            "calibration": calibration_hash(),
        },
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
