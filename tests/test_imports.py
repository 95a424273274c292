"""Import cost guard: the package and its command line load no scipy module.

scipy is imported on first use (the FFT in ``fields`` and ``maximal``), so
commands that never transform and the import itself stay free of its cost.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_import_loads_no_scipy():
    code = ("import sys\n"
            "import divsym, divsym.cli\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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
