"""Import cost guard: the package and each command line command load neither scipy nor jsonschema.

``src/`` imports no scipy: fields are sampled by the separable band DFT of
``fields`` and the maximal function convolves through ``numpy.fft``.  The
command line checks its outputs with the checker of ``divsym.schemas``.
The tests keep scipy and jsonschema as oracles only.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_oracles(code):
    """The scipy and jsonschema modules loaded after running ``code`` in a fresh interpreter."""
    code += ("\nimport sys\nprint(sorted(m for m in sys.modules if m.partition('.')[0] in ('scipy', 'jsonschema')))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_package_import_loads_no_scipy():
    assert loaded_oracles("import divsym, divsym.cli") == "[]"


@pytest.mark.parametrize("command", ["gen-field", "truncate", "compare", "envelope", "invalid-field"])
def test_command_loads_no_scipy(command, tmp_path):
    # the field commands at n=16 on the seed-3 field, about 8 % of it flagged; the
    # envelope command is a laminate query at the default budget, where every
    # restart resamples and projects through the band DFT; the invalid field lacks
    # a mode's "im", so the loader's schema check names it and the command exits 2
    field, kset, out = tmp_path / "field.json", tmp_path / "K.json", tmp_path / "out.json"
    gen = ["gen-field", "--seed", "3", "--max-freq", "2", "--amplitude", "1", "--divfree", "--out", str(field)]
    kset.write_text(json.dumps({"kind": "points", "points": [[[1, 0, 0], [0, 0, 0], [0, 0, 0]],
                                                             [[0, 0, 0], [0, 1, 0], [0, 0, 0]]]}))
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"period": 1.0, "modes": [{"xi": [1, 0, 0], "re": [0.0] * 6}]}))
    grid = ["--field", str(field), "--lambda", "30", "--grid-n", "16", "--out", str(out)]
    argv = {"gen-field": gen[:-1] + [str(out)], "truncate": ["truncate"] + grid, "compare": ["compare"] + grid,
            "envelope": ["envelope", "--set", str(kset), "--xi", "0.5,0,0,0.5,0,0", "--p", "1", "--seed", "3",
                         "--out", str(out)],
            "invalid-field": ["truncate", "--field", str(invalid)] + grid[2:]}[command]
    code = 2 if command == "invalid-field" else 0
    assert loaded_oracles(f"from divsym.cli import main\nassert main({gen!r}) == 0\n"
                          f"assert main({argv!r}) == {code}") == "[]"
    if command == "invalid-field":
        assert not out.exists()
        return
    result = json.loads(out.read_text())
    assert "error" not in result
    if command == "envelope":
        assert result["result"]["score"] >= 0.0


# The package's public names; a new export shows up here in review.
PUBLIC = [
    "CompactSetDescriptor", "OpenSetMask", "PreconditionError", "ScalarGrid",
    "TrigSymField", "TruncationContext", "UnsupportedOrderError", "WhitneyCover",
    "bad_set", "build_context", "divergence_defects", "field_from_dict", "field_to_dict",
    "hull_membership", "maximal_function", "potential_bad_set", "potential_inverse",
    "qsdqc_estimate", "random_field", "sample_abs", "stability_comparison",
    "truncate", "verify", "whitney_decompose", "zhang_bound_check",
]


def test_public_surface():
    import divsym

    assert sorted(divsym.__all__) == PUBLIC


def bench_tracer():
    """A fresh ``Tracer`` of ``bench/tracing.py``, not installed."""
    import importlib.util

    import divsym.cli  # noqa: F401  (the tracer wraps ``cli._dump_json``)

    path = SRC.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_tracer_bindings_present():
    """The benchmark tracer wraps names by lookup; a renamed one raises ``KeyError`` on install."""
    import inspect

    from divsym import _kernels

    tracer = bench_tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    public = sorted(name for name, obj in vars(_kernels).items() if inspect.isfunction(obj)
                    and obj.__module__ == _kernels.__name__ and not name.startswith("_"))
    assert public == ["accumulate_truncation"]


def test_tracer_counts_moment_nodes():
    """The tracer's ``moment_nodes`` reads ``ctx.rule``: the triples times the nodes of the rule used.

    The moments are edge circulations; the rule is the zero mode's one-node centroid.
    """
    from divsym import random_field, truncation

    w = random_field(3, 2, 1.0, divfree=True)
    lam = truncation.lambda_for_fraction(w, 16, 0.08)
    with bench_tracer() as tracer:
        with tracer.root("build"):
            ctx = truncation.build_context(w, lam, 16)
    assert len(ctx.triples) and len(ctx.rule.weights) == 1
    assert tracer.root_counts[0]["moment_nodes"] == len(ctx.triples) * len(ctx.rule.weights)


def test_tracer_counts_a_truncate_command(tmp_path):
    """Every observer on the ``truncate`` path runs under ``cli.main`` and counts the benchmark's n=16 input.

    The kernel's observer reads ``accumulate_truncation``'s first eight
    positional arguments, so a changed signature shows here.
    """
    from divsym import cli, field_to_dict, random_field, truncation
    from divsym.flux import CENTROID

    payload = field_to_dict(random_field(3, 2, 1.0, divfree=True))
    field, out = tmp_path / "field.json", tmp_path / "report.json"
    field.write_text(json.dumps(payload))
    lam = truncation.lambda_for_fraction(cli.field_from_dict(payload), 16, 0.08)
    with bench_tracer() as tracer:
        with tracer.root("truncate"):
            assert cli.main(["truncate", "--field", str(field), "--lambda", repr(lam), "--grid-n", "16",
                             "--out", str(out)]) == 0
    counts = tracer.root_counts[0]
    # the field methods are wrapped through the fields._ModeField alias
    assert "fields.grid_components" in {span[0] for span in tracer.spans}
    assert (counts["triples"], counts["flagged_points"]) == (3257, 2624)
    assert counts["moment_nodes"] == counts["triples"] * len(CENTROID.weights)
    assert counts["pairs"] > 0 and counts["triples_visited"] == 3257 and counts["triples_active"] > 0
    assert counts["bad_cells"] > 0
    assert [c["cubes"] for c in counts["_covers"]] == [328]


def test_tracer_sees_compare_flag_two_masks_and_no_cover(tmp_path):
    """``compare`` on the benchmark's n=16 input flags two masks and builds no Whitney cover.

    ``bad_cells`` sums both masks: 328 geometric and 2,721 potential cells.
    """
    from divsym import cli, field_to_dict, random_field, truncation

    payload = field_to_dict(random_field(3, 2, 1.0, divfree=True))
    field, out = tmp_path / "field.json", tmp_path / "compare.json"
    field.write_text(json.dumps(payload))
    lam = truncation.lambda_for_fraction(cli.field_from_dict(payload), 16, 0.08)
    with bench_tracer() as tracer:
        with tracer.root("compare"):
            assert cli.main(["compare", "--field", str(field), "--lambda", repr(lam), "--grid-n", "16",
                             "--out", str(out)]) == 0
    assert tracer.root_counts[0]["bad_cells"] == 3049
    names = {span[0] for span in tracer.spans}
    assert "maximal.bad_set" in names
    assert not [name for name in names if name.startswith("whitney.")]
