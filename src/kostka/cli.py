"""Command-line interface: ray tables, vertex listings, membership checks, census.

Output is byte-deterministic for fixed inputs.  Rationals are printed as
"p/q" with the denominator omitted when it is 1; they never degrade to
floats.  Exit codes: 0 success (or membership), 1 clean negative verdict,
2 usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache

from . import __version__
from .cone import (all_rays, cone_contains, is_extremal_ray, polytope_vertices,
                   ray_count_formula, rays_for_node)
from .errors import KostkaError
from .linalg import invert
from .oracle import compare_membership_multiplicity
from .rootdata import is_dominant, root_system, sub_cartan, supported_types

RAY_COLUMNS = ("type", "rank", "node", "levi", "k_primitive", "k_det",
               "lambda_fw", "mu_fw", "c_alpha")
VERTEX_COLUMNS = ("type", "rank", "lambda_fw", "levi", "point_fw", "c_alpha")
CENSUS_COLUMNS = ("type", "rank", "enumerated", "formula", "match")


def _q(x) -> str:
    return str(x if isinstance(x, (int, Fraction)) else Fraction(x))


def _qlist(v) -> list[str]:
    return [_q(x) for x in v]


def _csv(v) -> str:
    return ",".join(_q(x) for x in v)


def _nodes_str(nodes) -> str:
    return "{" + ",".join(str(n) for n in nodes) + "}"


def _terms(coeffs, sym: str) -> str:
    """Render the nonzero entries of a coordinate vector as ' + w1 - 2*w4'."""
    out = ""
    for pos, c in enumerate(coeffs, 1):
        if c:
            mag = abs(c)
            out += " - " if c < 0 else " + "
            out += f"{sym}{pos}" if mag == 1 else f"{_q(mag)}*{sym}{pos}"
    return out


def _combo(coeffs, sym: str) -> str:
    """Render a coordinate vector as a signed combination like 'w1 + 2*w4'."""
    terms = _terms(coeffs, sym)
    if not terms:
        return "0"
    return ("-" if terms[1] == "-" else "") + terms[3:]


def _parse_weight(text: str, rank: int) -> tuple[Fraction, ...]:
    try:
        coords = tuple(Fraction(tok.strip()) for tok in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse weight {text!r}: {exc}") from None
    if len(coords) != rank:
        raise ValueError(f"weight {text!r} has {len(coords)} coordinates, expected {rank}")
    return coords


def _emit(lines) -> None:
    out = sys.stdout
    for line in lines:
        out.write(line)
        out.write("\n")


# ---------------------------------------------------------------- rays

def _ray_row(rs, ray) -> dict:
    return {
        "type": rs.letter,
        "rank": rs.rank,
        "node": ray.node,
        "levi": list(ray.levi),
        "k_primitive": ray.k_primitive,
        "k_det": ray.k_det,
        "lambda_fw": _qlist(ray.lambda_fw),
        "mu_fw": _qlist(ray.mu_fw),
        "c_alpha": _qlist(ray.c_alpha),
    }


def _scaled(k: int, v) -> tuple[int, ...]:
    # k times each entry of v, for a k that clears every denominator of v
    return tuple(k * x.numerator // x.denominator for x in v)


def _ray_pretty(rs, ray) -> list[str]:
    head = (f"node {ray.node}  levi {_nodes_str(ray.levi)}  "
            f"k_primitive={ray.k_primitive}  k_det={ray.k_det}")
    lines = [head]
    k = ray.k_det
    lam_str = _combo(_scaled(k, ray.lambda_fw), "w")
    if ray.levi:
        inv_t = invert(zip(*sub_cartan(rs, ray.levi)))
        lines.append(f"  inverse transpose Cartan on {_nodes_str(ray.levi)}:")
        cells = [[_q(x) for x in row] for row in inv_t]
        width = max(len(c) for row in cells for c in row)
        for row in cells:
            lines.append("    " + "  ".join(c.rjust(width) for c in row))
        drop = _terms(_scaled(-k, ray.c_alpha), "a")
        mu_str = _combo(_scaled(k, ray.mu_fw), "w")
        lines.append(f"  ({lam_str}, {lam_str}{drop}) = ({lam_str}, {mu_str})")
    else:
        lines.append(f"  ({lam_str}, {lam_str})")
    return lines


def cmd_rays(args) -> int:
    rs = root_system(args.type, args.rank)
    if args.node is not None:
        records = rays_for_node(rs, args.node)
    else:
        records = all_rays(rs)
    if args.format == "json":
        _emit(json.dumps(_ray_row(rs, r), separators=(",", ":")) for r in records)
    elif args.format == "tsv":
        rows = ["\t".join(RAY_COLUMNS)]
        for r in records:
            rows.append("\t".join((
                rs.letter, str(rs.rank), str(r.node),
                ",".join(str(n) for n in r.levi),
                str(r.k_primitive), str(r.k_det),
                _csv(r.lambda_fw), _csv(r.mu_fw), _csv(r.c_alpha))))
        _emit(rows)
    else:
        blocks = []
        for r in records:
            blocks.extend(_ray_pretty(rs, r))
        _emit(blocks)
    return 0


# ---------------------------------------------------------------- vertices

def cmd_vertices(args) -> int:
    rs = root_system(args.type, args.rank)
    lam = _parse_weight(args.lam, rs.rank)
    verts = polytope_vertices(rs, lam)
    if args.format == "json":
        _emit(json.dumps({
            "type": rs.letter, "rank": rs.rank, "lambda_fw": _qlist(lam),
            "levi": list(v.levi), "point_fw": _qlist(v.point), "c_alpha": _qlist(v.c_alpha),
        }, separators=(",", ":")) for v in verts)
    elif args.format == "tsv":
        out = ["\t".join(VERTEX_COLUMNS)]
        for v in verts:
            out.append("\t".join((rs.letter, str(rs.rank), _csv(lam),
                                  ",".join(str(n) for n in v.levi),
                                  _csv(v.point), _csv(v.c_alpha))))
        _emit(out)
    else:
        out = [f"slice polytope at lambda = {_combo(lam, 'w')}  "
               f"({rs.letter}{rs.rank}, {len(verts)} vertices)"]
        for v in verts:
            out.append(f"  levi {_nodes_str(v.levi):<12} point {_combo(v.point, 'w')}")
        _emit(out)
    return 0


# ---------------------------------------------------------------- check

def cmd_check(args) -> int:
    rs = root_system(args.type, args.rank)
    lam = _parse_weight(args.lam, rs.rank)
    mu = _parse_weight(args.mu, rs.rank)
    member = cone_contains(rs, lam, mu)
    result: dict = {
        "type": rs.letter, "rank": rs.rank,
        "lambda_fw": _qlist(lam), "mu_fw": _qlist(mu),
        "member": member,
    }
    if member:
        result["extremal"] = is_extremal_ray(rs, lam, mu)
    integral = all(Fraction(x).denominator == 1 for x in lam + mu)
    if args.oracle and integral and is_dominant(lam):
        cmp = compare_membership_multiplicity(rs, lam, mu)
        result["in_root_lattice"] = cmp.in_root_lattice
        result["multiplicity"] = cmp.multiplicity
        result["oracle_agrees"] = cmp.agrees
    if args.format == "json":
        _emit([json.dumps(result, separators=(",", ":"))])
    else:
        lines = [f"member: {'yes' if member else 'no'}"]
        if member:
            lines.append(f"extremal: {'yes' if result['extremal'] else 'no'}")
        if "multiplicity" in result:
            lines.append(f"in_root_lattice: {'yes' if result['in_root_lattice'] else 'no'}")
            lines.append(f"multiplicity: {result['multiplicity']}")
            lines.append(f"oracle: {'agree' if result['oracle_agrees'] else 'MISMATCH'}")
        elif args.oracle:
            lines.append("oracle: skipped (needs integral dominant weights)")
        _emit(lines)
    return 0 if member else 1


# ---------------------------------------------------------------- census

def cmd_census(args) -> int:
    max_rank = args.max_rank
    env_cap = os.environ.get("KOSTKA_MAX_RANK")
    if env_cap:
        max_rank = min(max_rank, int(env_cap))
    rows = []
    for letter, r in supported_types(max_rank):
        enumerated = len(all_rays(root_system(letter, r)))
        formula = ray_count_formula(letter, r)
        rows.append((letter, r, enumerated, formula, enumerated == formula))
    if args.format == "json":
        _emit(json.dumps({
            "type": t, "rank": r, "enumerated": e, "formula": f, "match": m,
        }, separators=(",", ":")) for t, r, e, f, m in rows)
    elif args.format == "tsv":
        out = ["\t".join(CENSUS_COLUMNS)]
        out += [f"{t}\t{r}\t{e}\t{f}\t{'yes' if m else 'no'}" for t, r, e, f, m in rows]
        _emit(out)
    else:
        out = [f"{'type':<5}{'rank':<6}{'rays':<7}{'formula':<9}match"]
        out += [f"{t:<5}{r:<6}{e:<7}{f:<9}{'yes' if m else 'no'}" for t, r, e, f, m in rows]
        _emit(out)
    return 0 if all(m for *_, m in rows) else 1


# ---------------------------------------------------------------- parser

def _add_common(sp) -> None:
    sp.add_argument("--type", required=True, choices=list("ABCDEFG"),
                    help="simple type letter")
    sp.add_argument("--rank", required=True, type=int)
    sp.add_argument("--format", choices=("json", "tsv", "pretty"), default="pretty")


@lru_cache(maxsize=None)  # parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kostka",
        description="Exact extremal rays and slice-polytope vertices of the "
                    "dominance cone of weight pairs for simple root systems.")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    rays = sub.add_parser("rays", help="extremal ray table")
    _add_common(rays)
    rays.add_argument("--node", type=int, help="restrict to rays at one fundamental weight")
    rays.set_defaults(func=cmd_rays)

    verts = sub.add_parser("vertices", help="vertices of the slice polytope at lambda")
    _add_common(verts)
    verts.add_argument("--lambda", dest="lam", required=True,
                       help="fundamental-weight coordinates, comma-separated")
    verts.set_defaults(func=cmd_vertices)

    check = sub.add_parser("check", help="membership and extremality of one pair")
    _add_common(check)
    check.add_argument("--lambda", dest="lam", required=True)
    check.add_argument("--mu", required=True)
    check.add_argument("--oracle", action="store_true",
                       help="cross-check with a weight-multiplicity computation")
    check.set_defaults(func=cmd_check)

    census = sub.add_parser("census", help="enumerated ray counts vs the closed formulas")
    census.add_argument("--max-rank", type=int, default=8)
    census.add_argument("--format", choices=("json", "tsv", "pretty"), default="pretty")
    census.set_defaults(func=cmd_census)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KostkaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
