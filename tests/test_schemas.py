"""The command line's schema checker against jsonschema, its oracle, on the four shipped schemas."""

import copy
import functools
import json
import operator
import re
from types import SimpleNamespace

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from divsym import field_from_dict, schemas
from divsym.cli import main
from divsym.truncation import lambda_for_fraction

NAMES = ("field", "report", "compare", "envelope")
ORACLES = {name: jsonschema.validators.validator_for(schemas.schema(name))(schemas.schema(name)) for name in NAMES}


def property_names(node):
    names = set(node.get("properties", {})) | set(node.get("required", ()))
    for sub in [*node.get("properties", {}).values(), *([node["items"]] if "items" in node else [])]:
        names |= property_names(sub)
    return names


KEYS = sorted(set().union(*(property_names(schemas.schema(name)) for name in NAMES)))
# the shipped schemas' bounds and values either side of them, and values near their types' edges
EDGES = [0, -0.0, 1, 1.0, 7, 8, 8.0, 16.0, -1, 0.5, 1.5, 5e-324, float("nan"), float("inf"), float("-inf"),
         True, False, None, "", "0.5", [], {}, [0, 0, 0], [0.0] * 5, [0.0] * 6, [0] * 7]
DELETE = object()
LEAVES = st.one_of(st.sampled_from(EDGES), st.none(), st.booleans(), st.integers(), st.floats(),
                   st.text(max_size=4))
JSON_VALUES = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=7)
                           | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=6),
                           max_leaves=30)


def checker_accepts(name, payload):
    try:
        schemas.validate(name, payload)
    except schemas.ValidationError:
        return False
    return True


def node_paths(value, prefix=()):
    """The path of every node of a JSON value, the root's ``()`` first."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, sub in items:
        yield from node_paths(sub, prefix + (key,))


def json_path(path):
    return "$" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A real output of each schema: a field, its truncate and compare reports at n=16, a laminate query."""
    tmp = tmp_path_factory.mktemp("outputs")
    paths = {name: tmp / f"{name}.json" for name in NAMES}
    assert main(["gen-field", "--seed", "3", "--max-freq", "1", "--amplitude", "1", "--divfree",
                 "--out", str(paths["field"])]) == 0
    lam = lambda_for_fraction(field_from_dict(json.loads(paths["field"].read_text())), 16, 0.08)
    for name, command in (("report", "truncate"), ("compare", "compare")):
        assert main([command, "--field", str(paths["field"]), "--lambda", repr(lam), "--grid-n", "16",
                     "--out", str(paths[name])]) == 0
    kset = tmp / "K.json"
    kset.write_text(json.dumps({"kind": "points", "points": [[[1, 0, 0], [0, 0, 0], [0, 0, 0]],
                                                             [[0, 0, 0], [0, 1, 0], [0, 0, 0]]]}))
    assert main(["envelope", "--set", str(kset), "--xi", "0.5,0,0,0.5,0,0", "--p", "1", "--max-freq", "1",
                 "--restarts", "2", "--iters", "10", "--out", str(paths["envelope"])]) == 0
    payloads = {name: json.loads(path.read_text()) for name, path in paths.items()}
    for name, payload in payloads.items():
        assert checker_accepts(name, payload) and ORACLES[name].is_valid(payload)
    return payloads


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(NAMES), JSON_VALUES)
def test_checker_matches_jsonschema_on_random_values(name, value):
    assert checker_accepts(name, value) == ORACLES[name].is_valid(value)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_checker_matches_jsonschema_on_edited_outputs(outputs, data):
    # one node of a real output replaced by a random value, or deleted; a refusal names
    # a path through the edited node's parent and the keyword that failed
    name = data.draw(st.sampled_from(NAMES))
    payload = copy.deepcopy(outputs[name])
    path = data.draw(st.sampled_from(list(node_paths(payload))))
    if path and data.draw(st.booleans()):
        del functools.reduce(operator.getitem, path[:-1], payload)[path[-1]]
    elif path:
        functools.reduce(operator.getitem, path[:-1], payload)[path[-1]] = data.draw(JSON_VALUES)
    else:
        payload = data.draw(JSON_VALUES)
    accepted = ORACLES[name].is_valid(payload)
    assert checker_accepts(name, payload) == accepted
    if not accepted:
        with pytest.raises(schemas.ValidationError, match=r" \(keyword '\w+'\)$") as refused:
            schemas.validate(name, payload)
        assert str(refused.value).startswith(json_path(path[:-1]))


@pytest.mark.parametrize("name", NAMES)
def test_checker_matches_jsonschema_on_every_edge_edit(outputs, name):
    # every node of a real output (of a field's first mode) replaced by each edge value, and deleted
    payload = dict(outputs[name], modes=outputs[name]["modes"][:1]) if name == "field" else outputs[name]
    for path in list(node_paths(payload))[1:]:
        for value in EDGES + [DELETE]:
            edited = copy.deepcopy(payload)
            parent = functools.reduce(operator.getitem, path[:-1], edited)
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            assert checker_accepts(name, edited) == ORACLES[name].is_valid(edited), (path, value)


@pytest.mark.parametrize("schema, names", [
    ({"type": "object", "additionalProperties": False}, "['additionalProperties']"),
    ({"type": "object", "properties": {"a": {"type": "number", "maximum": 1}}}, "$.properties.a uses ['maximum']"),
    ({"type": "array", "items": {"type": "null"}}, "$.items uses 'null'"),
    ({"type": ["number", "null"]}, "['number', 'null']"),
], ids=["keyword", "nested-keyword", "type", "type-list"])
def test_unknown_keyword_refused_on_load(schema, names, tmp_path, monkeypatch):
    (tmp_path / "schemas").mkdir()
    (tmp_path / "schemas" / "probe.schema.json").write_text(json.dumps(schema))
    monkeypatch.setattr(schemas, "resources", SimpleNamespace(files=lambda package: tmp_path))
    with pytest.raises(ValueError, match=re.escape(names)):
        schemas.schema("probe")
    assert "probe" not in schemas._cache
