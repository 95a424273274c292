"""Import cost guard: the package, its command line and the envelope command load no scipy module.

scipy is imported on first use (the FFT in ``fields`` and ``maximal``), so
commands that never transform a whole grid and the import itself stay free
of its cost.  The envelope descent has its own band DFT.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_scipy(code):
    """The scipy modules loaded after running ``code`` in a fresh interpreter."""
    code += "\nimport sys\nprint(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_package_import_loads_no_scipy():
    assert loaded_scipy("import divsym, divsym.cli") == "[]"


def test_envelope_command_loads_no_scipy(tmp_path):
    # a laminate query at the default budget: every restart resamples and
    # projects through the band DFT
    kset, out = tmp_path / "K.json", tmp_path / "envelope.json"
    kset.write_text(json.dumps({"kind": "points", "points": [[[1, 0, 0], [0, 0, 0], [0, 0, 0]],
                                                             [[0, 0, 0], [0, 1, 0], [0, 0, 0]]]}))
    argv = ["envelope", "--set", str(kset), "--xi", "0.5,0,0,0.5,0,0", "--p", "1", "--seed", "3", "--out", str(out)]
    assert loaded_scipy(f"from divsym.cli import main\nassert main({argv!r}) == 0") == "[]"
    assert json.loads(out.read_text())["result"]["score"] >= 0.0


# The package's public names; a new export shows up here in review.
PUBLIC = [
    "CompactSetDescriptor", "EnvelopeEstimate", "OpenSetMask", "PreconditionError",
    "QuadratureRule", "ScalarGrid", "TrigSymField", "TrigVecField", "TruncationContext",
    "UnsupportedOrderError", "VerificationReport", "WhitneyCover", "bad_set", "build_context",
    "curl_curl_T", "dist_p", "divergence", "divergence_defects", "field_from_dict", "field_to_dict",
    "gauss_green_defect_A", "gauss_green_defect_B", "hull_membership", "local_field",
    "maximal_function", "potential_bad_set", "potential_inverse", "project_div_free",
    "qsdqc_estimate", "random_field", "sample_abs", "stability_comparison",
    "summation_vanish_check", "truncate", "verify", "whitney_decompose", "zhang_bound_check",
]


def test_public_surface():
    import divsym

    assert sorted(divsym.__all__) == PUBLIC


def test_tracer_bindings_present():
    """The benchmark tracer wraps names by lookup; a renamed one raises ``KeyError`` on install."""
    import importlib.util
    import inspect

    import divsym.cli  # noqa: F401  (the tracer wraps ``cli._dump_json``)
    from divsym import _kernels

    path = SRC.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    public = sorted(name for name, obj in vars(_kernels).items() if inspect.isfunction(obj)
                    and obj.__module__ == _kernels.__name__ and not name.startswith("_"))
    assert public == ["accumulate_truncation"]
