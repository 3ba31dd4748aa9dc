"""Scenario file parsing: JSON documents describing a complete problem.

A scenario holds the atoms, the information partition (and an optional
coarser one), the agents' utilities, an optional interdependence term, the
positions, the threshold, the risk-sharing clusters and solver tolerances.
One table, `_DOCUMENT`, holds the format, and `_check` names the first
field that breaks it.  Domain invariants (finite values, partitions that
cover the atoms, measurability) are enforced by the constructed objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .preferences import (Aggregator, ArctanPowerUtility, ExponentialUtility,
                          LambdaAggregator, RationalPowerUtility)
from .primal import ClusterConstraint, RiskSpec
from .prob_space import ScenarioSpace, SigmaPartition


class ScenarioError(ValueError):
    """Malformed scenario document (format violation or bad reference)."""


class _Leaf(NamedTuple):
    """A value of one of `types` that passes `test`, kept as `cast` of
    itself; json.load gives bool its own type, so a bool is no number."""
    types: tuple
    reason: str
    test: Callable | None = None
    cast: Callable | None = None

    def accepts(self, value) -> bool:
        return type(value) in self.types and (self.test is None
                                              or self.test(value))


class _Object(NamedTuple):
    fields: dict
    required: tuple = ()
    kinds: dict | None = None  # each allowed 'kind' -> the fields it needs


def _kinded(fields, kinds) -> _Object:
    kind = _Leaf((str,), f"is not one of {list(kinds)}", kinds.__contains__)
    return _Object({"kind": kind, **fields}, ("kind",), kinds)


# An array is [rule of its items, (test, reason) of the whole array...].
_NUMBER = _Leaf((int, float), "is not a number")
# 1.0 is an integer, as in JSON Schema; the partitions make it an int
_INTEGER = _Leaf((int, float), "is not an integer",
                 lambda v: type(v) is int or v.is_integer())
_UTILITY = _kinded({"alpha": _NUMBER, "p": _NUMBER,
                    "shifted": _Leaf((bool,), "is not a boolean")},
                   {"exponential": ("alpha",), "rational_power": ("p",),
                    "arctan_power": ("p",)})
_DOCUMENT = _Object({
    "atoms": _Object({"labels": [_Leaf((str,), "is not a string")],
                      "probs": [_NUMBER]}, ("labels", "probs")),
    "sigma_g": [[_INTEGER]],
    "sigma_h": [[_INTEGER]],
    "agents": [_UTILITY, (len, "is empty")],
    "lambda": _kinded({"u": _UTILITY, "weights": [_NUMBER]},
                      {"zero": (), "composite": ("u", "weights")}),
    "x": [[_NUMBER], (lambda rows: len(set(map(len, rows))) < 2,
                      "must be a rectangular matrix of numbers")],
    "b": [_NUMBER],
    "clusters": [[_INTEGER]],
    # a NaN kkt_tol passes here and RiskSpec refuses it, as any non-finite
    "tolerances": _Object({
        "kkt_tol": _Leaf((int, float), "is not > 0", lambda v: not v <= 0),
        "max_iter": _Leaf((int, float), "is not an integer >= 1",
                          lambda v: _INTEGER.test(v) and v >= 1, int)}),
}, ("atoms", "sigma_g", "agents", "x", "b", "clusters"))


def _check(node, rule, where: tuple) -> None:
    """Check node against an _Object or array rule, casting its fields in
    place; raise ScenarioError(field path, reason) at the first fault."""
    if isinstance(rule, _Object):
        if type(node) is not dict:
            raise ScenarioError(where, "is not an object")
        for key, value in node.items():
            sub = rule.fields.get(key)
            if sub is None:
                raise ScenarioError(where, f"unexpected field {key!r}")
            elif not isinstance(sub, _Leaf):
                _check(value, sub, where + (key,))
            elif not sub.accepts(value):
                raise ScenarioError(where + (key,), f"{value!r} {sub.reason}")
            elif sub.cast is not None:
                node[key] = sub.cast(value)
        needs = rule.kinds[node["kind"]] if "kind" in node else ()
        for key in rule.required + needs:
            if key not in node:
                raise ScenarioError(where, f"missing field {key!r}")
        return
    if type(node) is not list:
        raise ScenarioError(where, "is not an array")
    items, *whole = rule
    if not isinstance(items, _Leaf):
        for i, value in enumerate(node):
            _check(value, items, where + (i,))
    # one pass over an array of scalars, the bulk of most documents
    elif not (set(map(type, node)).issubset(items.types)
              and (items.test is None or all(map(items.test, node)))):
        i = next(i for i, v in enumerate(node) if not items.accepts(v))
        raise ScenarioError(where + (i,), f"{node[i]!r} {items.reason}")
    for test, reason in whole:
        if not test(node):
            raise ScenarioError(where, reason)


def _utility(node):
    if node["kind"] == "exponential":
        return ExponentialUtility(node["alpha"], node.get("shifted", False))
    return {"rational_power": RationalPowerUtility,
            "arctan_power": ArctanPowerUtility}[node["kind"]](node["p"])


@dataclass(frozen=True)
class Scenario:
    spec: RiskSpec
    sigma_h: SigmaPartition | None


def _json_int(text: str):
    """A JSON integer; one of 300 digits or more is read by float, which
    makes one beyond the float range +-inf, as json reads a float literal
    beyond it.  The finite checks of the constructed objects then refuse
    it and name the field, instead of an OverflowError on conversion."""
    return int(text) if len(text) < 300 else float(text)


def parse_scenario(path: str) -> Scenario:
    """Load, check and build a scenario from a UTF-8 JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_int=_json_int)
        _check(doc, _DOCUMENT, ())
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ScenarioError(f"{path}: cannot read: {reason}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}, "
                            f"column {exc.colno}: {exc.msg}") from exc
    except ScenarioError as exc:
        where, reason = exc.args
        where = "/".join(map(str, where)) or "<root>"
        raise ScenarioError(f"{path}: field '{where}': {reason}") from None

    # the constructors take lists and make their own float arrays
    space = ScenarioSpace(doc["atoms"]["labels"], doc["atoms"]["probs"])
    sigma_g = SigmaPartition(space, doc["sigma_g"])
    sigma_h = (SigmaPartition(space, doc["sigma_h"]) if "sigma_h" in doc
               else None)
    utilities = tuple(map(_utility, doc["agents"]))
    lam = doc.get("lambda", {"kind": "zero"})
    lam = (LambdaAggregator.zero() if lam["kind"] == "zero" else
           LambdaAggregator.composite(_utility(lam["u"]), lam["weights"]))
    spec = RiskSpec(space=space, sigma=sigma_g, x=doc["x"],
                    aggregator=Aggregator(utilities, lam), b=doc["b"],
                    clusters=ClusterConstraint(doc["clusters"]),
                    **doc.get("tolerances", {}))
    return Scenario(spec=spec, sigma_h=sigma_h)
