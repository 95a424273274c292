"""Reach guard: every public name of ``divsym`` runs under the command line commands.

``gen-field``, ``truncate``, ``compare`` and ``envelope`` run in-process under
``sys.setprofile``; each function of ``divsym.__all__``, and some method of
each class, must be entered.  The exceptions are the two error classes and
names kept for open ROADMAP items.  A public name that only tests call
fails here: it belongs next to those tests.
"""

import inspect
import json
import sys

import numpy as np

import divsym
from divsym.cli import main
from divsym.truncation import lambda_for_fraction

UNREACHED = {
    "PreconditionError", "UnsupportedOrderError",  # raised, never called
    "truncate",  # M: the report's L-infinity figure as a supremum search
    "divergence_defects",  # D: the weak divergence split into interior and boundary
    "zhang_bound_check",  # Q: the weak-type bound among the report's certificates
}


def public_codes():
    """The code object of every public function and of every function defined in a public class, by name."""
    codes = {}
    for name in divsym.__all__:
        obj = getattr(divsym, name)
        members = vars(obj).values() if inspect.isclass(obj) else [obj]
        for member in members:
            func = getattr(member, "__func__", getattr(member, "fget", getattr(member, "func", member)))
            if inspect.isfunction(func):
                codes[func.__code__] = name
    return codes


def test_every_public_name_is_reached(tmp_path):
    field, kset, out = tmp_path / "field.json", tmp_path / "K.json", tmp_path / "out.json"
    kset.write_text(json.dumps({"kind": "points", "points": [np.diag([1.0, 0, 0]).tolist(),
                                                             np.diag([0, 1.0, 0]).tolist()]}))
    assert main(["gen-field", "--seed", "3", "--max-freq", "2", "--amplitude", "1", "--divfree",
                 "--out", str(field)]) == 0
    lam = repr(lambda_for_fraction(divsym.field_from_dict(json.loads(field.read_text())), 16, 0.08))
    grid = ["--field", str(field), "--lambda", lam, "--grid-n", "16", "--out", str(out)]
    commands = [["gen-field", "--seed", "3", "--max-freq", "2", "--amplitude", "1", "--out", str(out)],
                ["truncate"] + grid, ["compare"] + grid,
                ["envelope", "--set", str(kset), "--xi", "0.5,0,0,0.5,0,0", "--p", "1", "--restarts", "2",
                 "--iters", "5", "--out", str(out)]]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in commands]
    finally:
        sys.setprofile(None)
    assert codes == [0, 0, 0, 0]
    reached = {name for code, name in public_codes().items() if code in entered}
    assert sorted(set(divsym.__all__) - reached - UNREACHED) == []
    assert sorted(UNREACHED & reached) == []  # a name now reached leaves the list
