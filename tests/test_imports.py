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
