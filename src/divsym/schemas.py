"""Shipped JSON schemas and a small validation helper."""

from __future__ import annotations

import json
from importlib import resources

import jsonschema
from jsonschema import ValidationError

_cache = {}
_validators = {}  # schema name -> validator, its schema checked once when built


def schema(name: str) -> dict:
    if name not in _cache:
        text = resources.files("divsym").joinpath(f"schemas/{name}.schema.json").read_text()
        _cache[name] = json.loads(text)
    return _cache[name]


def validate(name: str, payload: dict):
    """Validate a payload against a shipped schema; raises ``ValidationError``."""
    if name not in _validators:
        cls = jsonschema.validators.validator_for(schema(name))
        cls.check_schema(schema(name))
        _validators[name] = cls(schema(name))
    error = jsonschema.exceptions.best_match(_validators[name].iter_errors(payload))
    if error is not None:
        raise error
    return payload
