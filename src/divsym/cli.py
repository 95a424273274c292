"""Batch command line front end: generate fields, truncate, compare, probe hulls.

Every command is deterministic given its flags; hard precondition
failures exit nonzero after printing a machine-readable error object.
Reports are JSON, and sampled grids use the flat binary layout of the grid
module.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import schemas
from .envelope import CompactSetDescriptor, hull_membership
from .fields import UPPER_TRI_SLOT, PreconditionError, field_from_dict, field_to_dict, random_field
from .maximal import write_grid
from .potential_trunc import stability_comparison
from .truncation import build_context, verify


def _dump_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_field(path):
    """The field of a JSON file; a payload that does not parse raises the ``field`` schema's error."""
    with open(path) as fh:
        payload = json.load(fh)
    try:
        return field_from_dict(payload)
    except (KeyError, TypeError, IndexError):
        schemas.validate("field", payload)  # names the missing key or the wrong type
        raise


def cmd_gen_field(args):
    f = random_field(args.seed, args.max_freq, args.amplitude, divfree=args.divfree)
    payload = field_to_dict(f)
    schemas.validate("field", payload)
    _dump_json(args.out, payload)
    return 0


def cmd_truncate(args):
    f = _load_field(args.field)
    report, grid = verify(build_context(f, args.lam, args.grid_n))
    report["sampled_field"] = os.path.splitext(args.out)[0] + ".grid.bin"
    schemas.validate("report", report)  # before either file is written
    write_grid(report["sampled_field"], grid)
    _dump_json(args.out, report)
    return 0


def cmd_compare(args):
    f = _load_field(args.field)
    payload = stability_comparison(f, args.lam, args.grid_n)
    schemas.validate("compare", payload)
    _dump_json(args.out, payload)
    return 0


def cmd_envelope(args):
    with open(args.set) as fh:
        k = CompactSetDescriptor.from_json(json.load(fh))
    xi6 = [float(v) for v in args.xi.split(",")]
    if len(xi6) != 6 or not np.isfinite(xi6).all():
        raise PreconditionError("--xi wants 6 comma-separated finite floats (upper triangle)")
    xi = np.array(xi6)[UPPER_TRI_SLOT]
    budget = {"max_freq": args.max_freq, "restarts": args.restarts, "iterations": args.iters}
    result = hull_membership(k, xi, args.p, budget, seed=args.seed)
    payload = {"K": k.to_json(), "xi": xi6, "p": args.p, "budget": budget, "result": result}
    schemas.validate("envelope", payload)
    _dump_json(args.out, payload)
    return 0


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser():
    ap = argparse.ArgumentParser(prog="divsym", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-field", help="generate a reproducible random field")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--max-freq", type=int, required=True)
    g.add_argument("--amplitude", type=float, required=True)
    g.add_argument("--divfree", action="store_true")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_field)

    for name, func, text in (("truncate", cmd_truncate, "run the truncation pipeline and verify it"),
                             ("compare", cmd_compare, "geometric vs potential truncation stability")):
        t = sub.add_parser(name, help=text)
        t.add_argument("--field", required=True)
        t.add_argument("--lambda", dest="lam", type=float, required=True)
        t.add_argument("--grid-n", type=int, required=True)
        t.add_argument("--out", required=True)
        t.set_defaults(func=func)

    e = sub.add_parser("envelope", help="hull membership via envelope estimation")
    e.add_argument("--set", required=True, help="JSON descriptor of the compact set K")
    e.add_argument("--xi", required=True, help="6 floats, upper triangle row-major")
    e.add_argument("--p", type=float, required=True)
    e.add_argument("--max-freq", type=int, default=2)
    e.add_argument("--restarts", type=int, default=10)
    e.add_argument("--iters", type=int, default=60)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_envelope)
    return ap


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    # resolution guardrails shared by all grid commands
    n = getattr(args, "grid_n", None)
    try:
        if n is not None and not (16 <= n <= 128):
            raise PreconditionError(f"grid resolution {n} outside [16, 128]")
        return args.func(args)
    except (PreconditionError, ValueError, OSError, schemas.ValidationError) as exc:
        json.dump({"error": {"type": type(exc).__name__, "message": str(exc)}}, sys.stdout)
        sys.stdout.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
