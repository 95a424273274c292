"""Shipped JSON schemas and a small validation helper."""

from __future__ import annotations

import json
from importlib import resources

import jsonschema
from jsonschema import ValidationError

_cache = {}


def schema(name: str) -> dict:
    if name not in _cache:
        text = resources.files("divsym").joinpath(f"schemas/{name}.schema.json").read_text()
        _cache[name] = json.loads(text)
    return _cache[name]


def validate(name: str, payload: dict):
    """Validate a payload against a shipped schema; raises ``ValidationError``."""
    jsonschema.validate(payload, schema(name))
    return payload
