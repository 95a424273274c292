"""Shipped JSON schemas and the checker the command line validates its outputs with.

The checker knows the eight keywords the shipped schemas use, and on JSON
values it accepts exactly what a jsonschema draft 2020-12 validator
accepts for them:

- ``type``: ``object``, ``array``, ``string``, ``boolean``, ``number`` and
  ``integer``; a bool is no number, a float with an integral value (16.0)
  is an integer, and NaN and +-inf are numbers;
- ``required``, ``properties`` and ``items``;
- ``minItems`` and ``maxItems``;
- ``minimum`` (fails iff v < min, so NaN passes) and ``exclusiveMinimum``
  (fails iff v <= min).

``$schema`` is ignored.  A schema using any other keyword is refused when
it is loaded, so an edit the checker cannot honour is never silently
skipped.  The tests hold jsonschema as the oracle of this parity.
"""

from __future__ import annotations

import json
import reprlib
from importlib import resources

_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "number": (int, float), "integer": int}
_KEYWORDS = {"$schema", "type", "required", "properties", "items", "minItems", "maxItems", "minimum",
             "exclusiveMinimum"}

_cache = {}


class ValidationError(ValueError):
    """A payload its schema refuses; the message names the JSON path and the failed keyword."""


def _check_keywords(node, path):
    unknown, kind = sorted(set(node) - _KEYWORDS), node.get("type", "object")
    if unknown or not isinstance(kind, str) or kind not in _TYPES:
        raise ValueError(f"schema node {path} uses {unknown or kind!r}, which the checker does not know")
    for key, sub in node.get("properties", {}).items():
        _check_keywords(sub, f"{path}.properties.{key}")
    if "items" in node:
        _check_keywords(node["items"], f"{path}.items")


def schema(name: str) -> dict:
    """The parsed schema ``name``; its keywords are checked when it is first loaded."""
    if name not in _cache:
        parsed = json.loads(resources.files("divsym").joinpath(f"schemas/{name}.schema.json").read_text())
        _check_keywords(parsed, "$")
        _cache[name] = parsed
    return _cache[name]


def _is_type(value, name):
    if isinstance(value, bool):
        return name == "boolean"
    if name == "integer" and isinstance(value, float):
        return value.is_integer()
    return isinstance(value, _TYPES[name])


def _error(node, value, path):
    """The first failure of ``value`` under ``node``, depth first, as (path, keyword, message); else None."""
    if "type" in node and not _is_type(value, node["type"]):
        return path, "type", f"{reprlib.repr(value)} is not of type {node['type']!r}"
    if isinstance(value, dict):
        for key in node.get("required", ()):
            if key not in value:
                return path, "required", f"{key!r} is a required property"
        for key, sub in node.get("properties", {}).items():
            if key in value and (error := _error(sub, value[key], f"{path}.{key}")):
                return error
    elif isinstance(value, list):
        if "minItems" in node and len(value) < node["minItems"]:
            return path, "minItems", f"{len(value)} items, fewer than {node['minItems']}"
        if "maxItems" in node and len(value) > node["maxItems"]:
            return path, "maxItems", f"{len(value)} items, more than {node['maxItems']}"
        for i, item in enumerate(value if "items" in node else ()):
            if error := _error(node["items"], item, f"{path}[{i}]"):
                return error
    elif _is_type(value, "number"):
        if "minimum" in node and value < node["minimum"]:
            return path, "minimum", f"{value!r} is less than the minimum of {node['minimum']!r}"
        if "exclusiveMinimum" in node and value <= node["exclusiveMinimum"]:
            return path, "exclusiveMinimum", f"{value!r} is not above {node['exclusiveMinimum']!r}"
    return None


def validate(name: str, payload: dict):
    """``payload`` if the shipped schema ``name`` accepts it; else raises ``ValidationError``."""
    # a cached schema is read directly: bench/tracing.py records a span for every call of ``schema``
    error = _error(_cache.get(name) or schema(name), payload, "$")
    if error is not None:
        path, keyword, message = error
        raise ValidationError(f"{path}: {message} (keyword {keyword!r})")
    return payload
