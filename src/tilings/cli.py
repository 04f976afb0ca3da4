"""Command-line front end.

Subcommands: ``complex`` (invariants of one graph), ``count`` (its f-vector
and Euler characteristic, counted with no face built), ``poly`` (polynomial
calculus), ``verify`` (the full check suite), ``fixtures list|dump``.
Output is byte-stable for fixed inputs and seeds.  The environment variable
``TILINGS_FIXTURE_DIR`` points fixture lookup at a directory of JSON graph
files that take precedence over the built-in corpus.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .complexes import build_complex, count_f_vector
from .fibpoly import apply_A, f_polynomial, p_closed_form, p_polynomial, ONE, X
from .fixtures import core_fixture_names, named_fixture
from .matchings import cube_coordinates
from .planar import (GraphError, PlanarGraph, build_from_polyomino,
                     load_graph_json)
from .topology import collapse_search, z2_betti
from .verify import Bounds, run_verification

FIXTURE_DIR_ENV = "TILINGS_FIXTURE_DIR"


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            print(f"{key}:")
            for k2 in sorted(value, key=str):
                print(f"  {k2}: {value[k2]}")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{key}:")
            for row in value:
                cells = " ".join(f"{k}={row[k]}" for k in sorted(row))
                print(f"  {cells}")
        else:
            print(f"{key}: {value}")


def resolve_graph(name: str) -> PlanarGraph:
    """A graph from a file path, the fixture directory, or a built-in name."""
    path = Path(name)
    if path.exists():
        if path.suffix == ".json":
            return load_graph_json(path)
        return build_from_polyomino(path.read_text())
    fixture_dir = os.environ.get(FIXTURE_DIR_ENV)
    if fixture_dir:
        candidate = Path(fixture_dir) / f"{name}.json"
        if candidate.exists():
            return load_graph_json(candidate)
    try:
        return named_fixture(name)
    except KeyError:
        raise GraphError(f"no such file or fixture: {name!r}")


def _counts(g: PlanarGraph, f_vector: list[int]) -> dict:
    """The keys that ``complex`` and ``count`` share."""
    return {
        "graph": {"vertices": len(g.lattice), "edges": len(g.edges),
                  "regions": len(g.regions)},
        "f_vector": f_vector,
        "euler_characteristic": sum((-1) ** i * c
                                    for i, c in enumerate(f_vector)),
    }


def cmd_complex(args) -> int:
    g = resolve_graph(args.input)
    k = build_complex(g)
    payload = _counts(g, k.f_vector())
    payload["components"] = len(k.connected_components()) if k.faces else 0
    if args.betti:
        payload["z2_betti"] = list(z2_betti(k)) if k.faces else []
    if args.collapse:
        verdict = collapse_search(k, budget=args.budget, seed=args.seed)
        payload["collapse"] = {"status": verdict.status,
                               "reason": verdict.reason}
    if args.cube:
        # The vertices of the complex are the perfect matchings, in order.
        verts = [v.matching for v in k.vertices()]
        coords = cube_coordinates(g, verts[0]) if verts else {}
        payload["cube_coordinates"] = [
            {"matching": [list(e) for e in m], "x": list(coords[m])}
            for m in verts]
    _emit(payload, args.format)
    return 0


def cmd_count(args) -> int:
    g = resolve_graph(args.input)
    _emit(_counts(g, count_f_vector(g)), args.format)
    return 0


def cmd_poly(args) -> int:
    kind = args.kind.upper()
    params = args.params
    if kind in ("F", "P"):
        n = int(params[0])
        bump = int(params[1]) if len(params) > 1 else None
        poly = (f_polynomial if kind == "F" else p_polynomial)(n, bump)
        payload = {"kind": kind, "n": n, "bump": bump,
                   "coeffs": list(poly.coeffs)}
        if kind == "P" and bump is None:
            payload["matches_closed_form"] = poly == p_closed_form(n)
    elif kind == "CLOSED":
        n = int(params[0])
        payload = {"kind": "closed", "n": n,
                   "coeffs": list(p_closed_form(n).coeffs)}
    elif kind == "A":
        d = int(params[0])
        k = int(params[1]) if len(params) > 1 else 0
        poly = apply_A(d, X.shift(k - 1) if k else ONE)
        payload = {"kind": "A", "d": d, "k": k, "coeffs": list(poly.coeffs)}
    else:
        raise GraphError(f"unknown polynomial kind {args.kind!r}")
    _emit(payload, args.format)
    return 0


def cmd_verify(args) -> int:
    bounds = Bounds(seed=args.seed, budget=args.budget)
    if args.max_n is not None:
        bounds.max_n = args.max_n
        bounds.max_ladder = min(bounds.max_ladder, args.max_n)
    if args.max_d is not None:
        bounds.max_d = args.max_d
    report = run_verification(scope=args.scope, bounds=bounds)
    if args.format == "json":
        print(json.dumps(report.serialize(), indent=2, sort_keys=True))
    else:
        for r in report.results:
            mark = "PASS" if r.passed else "FAIL"
            print(f"{mark} {r.check_id} ({r.checked} cases)")
            if r.witness:
                print(f"     witness: {json.dumps(r.witness, sort_keys=True)}")
        s = report.summary()
        print(f"{s['passed']} passed, {s['failed']} failed")
    return 0 if report.ok else 1


def cmd_fixtures(args) -> int:
    names = core_fixture_names()
    if args.action == "list":
        for name in names:
            print(name)
        return 0
    out_dir = Path(args.out or os.environ.get(FIXTURE_DIR_ENV, "fixtures"))
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        g = named_fixture(name)
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(g.to_json_obj(), indent=2, sort_keys=True)
                        + "\n")
    print(f"wrote {len(names)} fixtures to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilings",
        description="Cubical matching complexes of embedded planar graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--format", choices=["json", "table"], default="table")

    def search(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=int, default=20000)

    p = sub.add_parser("complex", help="invariants of one graph")
    p.add_argument("input", help="fixture name, graph .json, or polyomino file")
    p.add_argument("--betti", action="store_true")
    p.add_argument("--collapse", action="store_true")
    p.add_argument("--cube", action="store_true")
    output(p)
    search(p)
    p.set_defaults(func=cmd_complex)

    p = sub.add_parser("count", help="f-vector of one graph, no faces built")
    p.add_argument("input", help="fixture name, graph .json, or polyomino file")
    output(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("poly", help="polynomial calculus")
    p.add_argument("kind", help="F | P | A | closed")
    p.add_argument("params", nargs="+")
    output(p)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--scope", default="all")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--max-d", type=int, default=None)
    output(p)
    search(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fixtures", help="list or dump the fixture corpus")
    p.add_argument("action", choices=["list", "dump"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fixtures)

    return parser


def _check_limits(args) -> None:
    """Reject size bounds that would make a run vacuous or meaningless,
    for the options the command has."""
    for option, least in (("budget", 0), ("max_n", 1), ("max_d", 1)):
        value = getattr(args, option, None)
        if value is not None and value < least:
            flag = "--" + option.replace("_", "-")
            raise ValueError(f"{flag} must be at least {least}, not {value}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_limits(args)
        return args.func(args)
    except (GraphError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
