"""Scenario file parsing: JSON documents describing a complete problem.

A scenario bundles the atoms, the information partition (plus an optional
coarser one for consistency runs), per-agent utility specifications, an
optional interdependence term, the position matrix, the threshold vector,
the risk-sharing clusters and solver tolerances.  Structural validation is
schema-driven with field-path error reporting; domain invariants are
enforced by the constructed objects themselves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from .preferences import (Aggregator, ArctanPowerUtility, ExponentialUtility,
                          LambdaAggregator, RationalPowerUtility)
from .primal import (DEFAULT_KKT_TOL, DEFAULT_MAX_ITER, ClusterConstraint,
                     RiskSpec)
from .prob_space import ScenarioSpace, SigmaPartition


class ScenarioError(ValueError):
    """Malformed scenario document (schema violation or bad reference)."""


_UTILITY_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["exponential", "rational_power", "arctan_power"]},
        "alpha": {"type": "number"},
        "p": {"type": "number"},
        "shifted": {"type": "boolean"},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_SCHEMA = {
    "type": "object",
    "properties": {
        "atoms": {
            "type": "object",
            "properties": {
                "labels": {"type": "array", "items": {"type": "string"}},
                "probs": {"type": "array", "items": {"type": "number"}},
            },
            "required": ["labels", "probs"],
            "additionalProperties": False,
        },
        "sigma_g": {"type": "array",
                    "items": {"type": "array", "items": {"type": "integer"}}},
        "sigma_h": {"type": "array",
                    "items": {"type": "array", "items": {"type": "integer"}}},
        "agents": {"type": "array", "items": _UTILITY_SCHEMA, "minItems": 1},
        "lambda": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["zero", "composite"]},
                "u": _UTILITY_SCHEMA,
                "weights": {"type": "array", "items": {"type": "number"}},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "x": {"type": "array",
              "items": {"type": "array", "items": {"type": "number"}}},
        "b": {"type": "array", "items": {"type": "number"}},
        "clusters": {"type": "array",
                     "items": {"type": "array", "items": {"type": "integer"}}},
        "tolerances": {
            "type": "object",
            "properties": {
                "kkt_tol": {"type": "number", "exclusiveMinimum": 0},
                "max_iter": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
    },
    "required": ["atoms", "sigma_g", "agents", "x", "b", "clusters"],
    "additionalProperties": False,
}

# built once: jsonschema.validate would check the schema and build a new
# validator on every call
_VALIDATOR = validator_for(_SCHEMA)(_SCHEMA)


def _build_utility(node):
    kind = node["kind"]
    if kind == "exponential":
        if "alpha" not in node:
            raise ScenarioError("exponential utility needs field 'alpha'")
        return ExponentialUtility(node["alpha"], node.get("shifted", False))
    if "p" not in node:
        raise ScenarioError(f"{kind} utility needs field 'p'")
    cls = RationalPowerUtility if kind == "rational_power" else ArctanPowerUtility
    return cls(node["p"])


@dataclass(frozen=True)
class Scenario:
    spec: RiskSpec
    sigma_h: SigmaPartition | None


def parse_scenario(path: str) -> Scenario:
    """Load, schema-validate and build a scenario from a JSON file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}, "
                            f"column {exc.colno}: {exc.msg}") from exc
    error = best_match(_VALIDATOR.iter_errors(doc))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ScenarioError(f"{path}: field '{where}': {error.message}")

    space = ScenarioSpace(tuple(doc["atoms"]["labels"]),
                          np.asarray(doc["atoms"]["probs"], dtype=float))
    sigma_g = SigmaPartition(space, tuple(tuple(b) for b in doc["sigma_g"]))
    sigma_h = None
    if "sigma_h" in doc:
        sigma_h = SigmaPartition(space, tuple(tuple(b) for b in doc["sigma_h"]))

    utilities = tuple(_build_utility(node) for node in doc["agents"])
    lam_node = doc.get("lambda", {"kind": "zero"})
    if lam_node["kind"] == "zero":
        lam = LambdaAggregator.zero()
    else:
        if "u" not in lam_node or "weights" not in lam_node:
            raise ScenarioError("composite lambda needs fields 'u' and 'weights'")
        lam = LambdaAggregator.composite(_build_utility(lam_node["u"]),
                                         np.asarray(lam_node["weights"], float))
    aggregator = Aggregator(utilities, lam)

    try:
        x = np.asarray(doc["x"], dtype=float)
    except ValueError as exc:
        raise ScenarioError(f"{path}: field 'x': must be a rectangular "
                            "matrix of numbers") from exc

    tol = doc.get("tolerances", {})
    spec = RiskSpec(
        space=space,
        sigma=sigma_g,
        x=x,
        aggregator=aggregator,
        b=np.asarray(doc["b"], dtype=float),
        clusters=ClusterConstraint(tuple(tuple(g) for g in doc["clusters"])),
        kkt_tol=tol.get("kkt_tol", DEFAULT_KKT_TOL),
        # the schema's integer admits 200.0
        max_iter=int(tol.get("max_iter", DEFAULT_MAX_ITER)),
    )
    return Scenario(spec=spec, sigma_h=sigma_h)
