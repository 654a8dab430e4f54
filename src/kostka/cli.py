"""Command-line interface: ray tables, vertex listings, membership checks, census.

Output is byte-deterministic for fixed inputs.  Rationals are printed as
"p/q" with the denominator omitted when it is 1; they never degrade to
floats.  The json and tsv tables (rays, vertices, census) go through one
writer, ``_table``: json is one compact object per row, keyed by the
columns, each cell spelled as ``json.dumps`` spells it; tsv is the header,
then one line per row, a list cell comma-joined and a bool yes/no.  A column
whose cells are all equal is spelled once, into the row template, and each
other column by one speller (``_SPELLINGS``).  No zero entry is formatted.
``check`` prints one list of verdicts: 'key: value' lines in pretty and tsv,
and in json one object from one template (``_CHECK_JSON``), spelled as
``json.dumps`` spells it.
Importing this module loads no ``json`` and no ``argparse``: beyond the package
only ``fractions`` and what it imports (records are named tuples), and of the
package only what a plain request reads (``cone``, ``errors``, ``linalg`` and
``rootdata``); ``check --oracle`` loads ``oracle``.  A plain request is parsed
from the command table ``_COMMANDS``, through the flag map read from it once
(``_FAST``); argparse is loaded only for help, version, abbreviations and
errors.  Exit codes: 0 success (or membership), 1 clean negative verdict, 2
usage or domain error.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, compress, repeat
from math import gcd
from operator import neg
from types import SimpleNamespace

from . import __version__
from .cone import (_form_values, _is_ray, all_rays, polytope_vertices, ray_count_formula,
                   rays_for_node)
from .errors import KostkaError
from .rootdata import (RANK_BOUNDS, _levi_inverse, is_dominant, root_system, supported_types,
                       validate_type)

RAY_COLUMNS = ("type", "rank", "node", "levi", "k_primitive", "k_det",
               "lambda_fw", "mu_fw", "c_alpha")
VERTEX_COLUMNS = ("type", "rank", "lambda_fw", "levi", "point_fw", "c_alpha")
CENSUS_COLUMNS = ("type", "rank", "enumerated", "formula", "match")


def _ratio(n: int, d: int) -> str:
    # n / d for d > 0, printed as str prints the Fraction
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _nodes_str(nodes) -> str:
    return "{" + ",".join(map(str, nodes)) + "}"


def _terms(coeffs, sym: str) -> str:
    """Render the nonzero entries of a coordinate vector, as ints, Fractions or
    their printed cells, as ' + w1 - 2*w4'; a zero number is skipped unread."""
    out = ""
    for pos, x in compress(enumerate(coeffs, 1), coeffs):
        mag = str(x)
        out += " - " if mag[0] == "-" else " + "
        mag = mag.lstrip("-")
        out += f"{sym}{pos}" if mag == "1" else f"{mag}*{sym}{pos}"
    return out


def _lead(terms: str) -> str:
    # rendered terms as a signed combination like 'w1 + 2*w4'
    return ("-" if terms[1] == "-" else "") + terms[3:] if terms else "0"


def _combo(coeffs, sym: str) -> str:
    """Render a coordinate vector as a signed combination like 'w1 + 2*w4'."""
    return _lead(_terms(coeffs, sym))


def _printable(x: Fraction) -> Fraction:
    str(x)  # a ValueError past Python's int string limit, as 1e4300 would be when printed
    return x


def _fraction(tok: str) -> Fraction:
    """``Fraction(tok)`` for a stripped token, but an exponent over the int string
    limit by more than the token's length is read as the least such, so
    10**exponent is never made: with either one the value is 0 or too long to
    print.  (Fraction's int refuses an exponent of more digits than the limit.)"""
    limit = sys.get_int_max_str_digits()
    # the exponent: after the last e, a sign, then \d+(_\d+)*, read without a regex
    # (compiling one costs the import 0.4 ms)
    e = max(tok.rfind("e"), tok.rfind("E"))
    head = e + 1 + (tok[e + 1:e + 2] in ("+", "-"))
    digits = tok[head:]
    if (limit and e >= 0 and all(map(str.isdecimal, digits.split("_")))
            and len(digits) - digits.count("_") <= limit and int(digits) > limit + len(tok)):
        try:
            return Fraction(f"{tok[:head]}{limit + len(tok) + 1}")
        except ValueError:
            pass  # Fraction(tok) refuses it too, before it reads the exponent
    return Fraction(tok)


def _parse_weight(text: str, rank: int) -> tuple[int | Fraction, ...]:
    # an integer token ('-' then digits, or digits) is read by int: it prints as its Fraction,
    # and int refuses it past the limit; any other is read by _fraction and printed once
    try:
        coords = tuple([int(tok) if tok.removeprefix("-").isdecimal()
                        else _printable(_fraction(tok.strip())) for tok in text.split(",")])
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse weight {text!r}: {exc}") from None
    if len(coords) != rank:
        raise ValueError(f"weight {text!r} has {len(coords)} coordinates, expected {rank}")
    return coords


def _emit(lines) -> None:
    if lines := list(lines):  # one write, not two a line
        sys.stdout.write("\n".join(lines) + "\n")


_JSON_WORDS = ("false", "true")


def _cell(x, words=("no", "yes")) -> str:
    # a bool or an int as tsv spells it, or json given _JSON_WORDS
    return words[x] if type(x) is bool else str(x)


def _joined_ints(cells):
    # tuples of ints comma-joined, each distinct int spelled once
    spelled = {n: str(n) for n in {*chain.from_iterable(cells)}}.__getitem__
    return map(",".join, map(map, repeat(spelled), cells))


# per format, each kind of cell as (template, speller of a column of them); a list holds
# printed cells, none of which needs a json escape
_SPELLINGS = {
    "json": {str: ('"%s"', iter), int: ("%s", iter), tuple: ("[%s]", _joined_ints),
             bool: ("%s", partial(map, _JSON_WORDS.__getitem__)),
             list: ("%s", partial(map, lambda x: '["' + '","'.join(x) + '"]' if x else "[]"))},
    "tsv": {str: ("%s", iter), int: ("%s", iter), tuple: ("%s", _joined_ints),
            bool: ("%s", partial(map, _cell)), list: ("%s", partial(map, ",".join))},
}


def _table(fmt: str, columns: tuple[str, ...], rows) -> None:
    """Write rows as json objects or as a tsv table.  A row holds every column's cell in
    order, each column's of one kind.  A column whose cells are all equal is spelled
    once, into the row template; each other by one speller, chosen by its first cell."""
    spellings, rows, parts, spelled = _SPELLINGS[fmt], list(rows), [], []
    if fmt == "tsv":
        _emit(["\t".join(columns)])
    for column, cells in zip(columns, zip(*rows)):
        part, speller = spellings[type(cells[0])]
        # one cell on every row; most other columns are told by their last cell alone
        if cells[-1] == cells[0] and cells.count(cells[0]) == len(cells):
            part %= next(speller(cells[:1]))
        else:
            spelled.append(speller(cells))
        parts.append(f'"{column}":{part}' if fmt == "json" else part)
    line = "{" + ",".join(parts) + "}" if fmt == "json" else "\t".join(parts)
    _emit(map(line.__mod__, zip(*spelled)) if spelled else [line] * len(rows))


# ---------------------------------------------------------------- rays

def _block_rows(adj, det, ratio) -> list[str]:
    cells = [[ratio(x, det) for x in row] for row in adj]
    width = max(map(len, chain.from_iterable(cells)))
    return ["    " + "  ".join([c.rjust(width) for c in row]) for row in cells]


def _ray_pretty(rs, ray, inverses: dict, blocks: dict, ratio) -> list[str]:
    head = (f"node {ray.node}  levi {_nodes_str(ray.levi)}  "
            f"k_primitive={ray.k_primitive}  k_det={ray.k_det}")
    lines = [head]
    lam_str = _combo((0,) * (ray.node - 1) + (ray.k_det,), "w")  # k_det w_node
    if ray.levi:
        lines.append(f"  inverse transpose Cartan on {_nodes_str(ray.levi)}:")
        inv = _levi_inverse(rs, ray.levi, inverses)  # `blocks` keys by id: no O(|L|^2) hash
        lines += blocks.get(id(inv)) or blocks.setdefault(id(inv), _block_rows(*inv, ratio))
        drop = _terms(tuple(map(neg, ray.numerators[rs.rank:])), "a")
        mu_str = _combo(ray.numerators[:rs.rank], "w")
        lines.append(f"  ({lam_str}, {lam_str}{drop}) = ({lam_str}, {mu_str})")
    else:
        lines.append(f"  ({lam_str}, {lam_str})")
    return lines


def cmd_rays(args) -> int:
    """The ray table, printed from the records' integers: a json or tsv cell is
    ``_ratio`` of a nonzero numerator over k_det (c on the Levi, mu at its
    outside neighbours), once per distinct pair in the request, any other the
    shared "0"; pretty prints k_det times each entry, which is the numerators."""
    rs = root_system(args.type, args.rank)
    inverses: dict = {}  # Levi block inverses, shared by every node's rays and the pretty blocks
    records = [ray for i in (rs.nodes() if args.node is None else (args.node,))
               for ray in rays_for_node(rs, i, inverses=inverses)]
    r = rs.rank
    ratio = lru_cache(maxsize=None)(_ratio)  # each distinct cell formatted once per request
    if args.format != "pretty":
        lam_cells = lru_cache(maxsize=None)(lambda i: [str(int(j == i)) for j in range(1, r + 1)])

        def cells(ray) -> tuple[list[str], list[str]]:  # mu_fw and c_alpha
            out = ["0"] * (2 * r)
            for j in compress(range(2 * r), ray.numerators):
                out[j] = ratio(ray.numerators[j], ray.k_det)
            return out[:r], out[r:]

        _table(args.format, RAY_COLUMNS,
               ((rs.letter, r, ray.node, ray.levi, ray.k_primitive, ray.k_det,
                 lam_cells(ray.node), *cells(ray)) for ray in records))
    else:
        blocks: dict = {}  # the rows of each block in `inverses`, formatted once per request
        _emit(line for ray in records for line in _ray_pretty(rs, ray, inverses, blocks, ratio))
    return 0


# ---------------------------------------------------------------- vertices

def cmd_vertices(args) -> int:
    """The vertex table, printed from the vertices' integers: every vertex of
    one polytope is over one denominator, so each cell is one numerator's
    ``_ratio``, formatted once per distinct numerator in the request."""
    validate_type(args.type, args.rank)  # its refusal first, then the weight's, before any build
    lam = _parse_weight(args.lam, args.rank)
    rs = root_system(args.type, args.rank)
    verts = polytope_vertices(rs, lam)
    r, d = rs.rank, verts[0].denominator
    if args.format != "pretty":
        # every numerator is a cell: each distinct one is spelled once
        cell = {n: _ratio(n, d) for n in {*chain.from_iterable(v.numerators for v in verts)}}.get
        lam_cells = list(map(str, lam))
        _table(args.format, VERTEX_COLUMNS,
               ((rs.letter, r, lam_cells, v.levi, list(map(cell, v.numerators[:r])),
                 list(map(cell, v.numerators[r:]))) for v in verts))
    else:
        # each (node, numerator) term of a point spelled once, its zeros never
        term = lru_cache(maxsize=None)(lambda i, n: _terms((0,) * i + (_ratio(n, d),), "w"))
        out = [f"slice polytope at lambda = {_combo(lam, 'w')}  "
               f"({rs.letter}{r}, {len(verts)} vertices)"]
        out += [f"  levi {_nodes_str(v.levi):<12} point "
                f"{_lead(''.join(map(term, compress(range(r), p), filter(None, p))))}"
                for v, p in zip(verts, (v.numerators[:r] for v in verts))]
        _emit(out)
    return 0


# ---------------------------------------------------------------- check

# the json object of a check: the type, the weights' printed cells, then the verdicts;
# no cell needs a json escape
_CHECK_JSON = '{"type":"%s","rank":%d,"lambda_fw":["%s"],"mu_fw":["%s"]%s}'


def cmd_check(args) -> int:
    """Membership and extremality of one pair, and with --oracle the multiplicity
    cross-check, as one list of (key, verdict): pretty and tsv print it as 'key: value'
    lines, then the oracle's line; json as one object, from one template."""
    validate_type(args.type, args.rank)  # as in cmd_vertices
    lam = _parse_weight(args.lam, args.rank)
    mu = _parse_weight(args.mu, args.rank)
    rs = root_system(args.type, args.rank)
    # the oracle reads integral weights at a dominant lam, tested once, only for --oracle;
    # lam - mu is solved for once: by the comparison, else in the form values extremality reads
    cmp = values = None
    if args.oracle and is_dominant(lam) and all(x.denominator == 1 for x in lam + mu):
        from . import oracle  # loaded by the first --oracle request: no other reads it

        cmp = oracle.compare_membership_multiplicity(rs, lam, mu)
        member = cmp.member
    else:
        values = _form_values(rs, lam, mu)
        member = min(values) >= 0  # 3r >= 3 values
    verdicts = [("member", member)]
    if member:
        verdicts.append(("extremal", _is_ray(rs, lam, mu, values)))
    if cmp is not None:
        verdicts += [("in_root_lattice", cmp.in_root_lattice), ("multiplicity", cmp.multiplicity)]
    if args.format == "json":
        if cmp is not None:
            verdicts.append(("oracle_agrees", cmp.agrees))
        tail = "".join([f',"{key}":{_cell(x, _JSON_WORDS)}' for key, x in verdicts])
        _emit([_CHECK_JSON % (rs.letter, rs.rank, '","'.join(map(str, lam)),
                              '","'.join(map(str, mu)), tail)])
    else:
        lines = [f"{key}: {_cell(x)}" for key, x in verdicts]
        if cmp is not None:
            lines.append(f"oracle: {'agree' if cmp.agrees else 'MISMATCH'}")
        elif args.oracle:
            lines.append("oracle: skipped (needs integral dominant weights)")
        _emit(lines)
    return 0 if member else 1


# ---------------------------------------------------------------- census

def cmd_census(args) -> int:
    matches = []

    def rows():
        for letter, r in supported_types(args.max_rank):
            enumerated = len(all_rays(root_system(letter, r)))
            formula = ray_count_formula(letter, r)
            matches.append(enumerated == formula)
            yield letter, r, enumerated, formula, matches[-1]

    if args.format != "pretty":
        _table(args.format, CENSUS_COLUMNS, rows())
    else:
        _emit([f"{'type':<5}{'rank':<6}{'rays':<7}{'formula':<9}match"])
        _emit(f"{t:<5}{r:<6}{e:<7}{f:<9}{'yes' if m else 'no'}" for t, r, e, f, m in rows())
    return 0 if all(matches) else 1


# ---------------------------------------------------------------- parser

# every command once, as (handler, help, options), an option as (flag, dest, type,
# choices, required, default, help); the type bool marks a flag (store_true)
_TYPE = ("--type", "type", None, tuple(RANK_BOUNDS), True, None, "simple type letter")
_RANK = ("--rank", "rank", int, None, True, None, None)
_FORMAT = ("--format", "format", None, ("json", "tsv", "pretty"), False, "pretty", None)
_COMMANDS = {
    "rays": (cmd_rays, "extremal ray table", (
        _TYPE, _RANK, _FORMAT,
        ("--node", "node", int, None, False, None, "restrict to rays at one fundamental weight"))),
    "vertices": (cmd_vertices, "vertices of the slice polytope at lambda", (
        _TYPE, _RANK, _FORMAT,
        ("--lambda", "lam", None, None, True, None,
         "fundamental-weight coordinates, comma-separated"))),
    "check": (cmd_check, "membership and extremality of one pair", (
        _TYPE, _RANK, _FORMAT,
        ("--lambda", "lam", None, None, True, None, None),
        ("--mu", "mu", None, None, True, None, None),
        ("--oracle", "oracle", bool, None, False, False,
         "cross-check with a weight-multiplicity computation"))),
    "census": (cmd_census, "enumerated ray counts vs the closed formulas", (
        ("--max-rank", "max_rank", int, None, False, 8, None), _FORMAT)),
}


@lru_cache(maxsize=None)  # parse_args leaves the parser unchanged
def build_parser():
    """The argparse parser of ``_COMMANDS``; argparse is imported here, for help,
    version, abbreviations and errors, which ``_fast_args`` leaves to it."""
    import argparse

    p = argparse.ArgumentParser(
        prog="kostka",
        description="Exact extremal rays and slice-polytope vertices of the "
                    "dominance cone of weight pairs for simple root systems.")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (func, about, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=about)
        for flag, dest, type_, choices, required, default, help_ in options:
            kind = {"action": "store_true"} if type_ is bool else {"type": type_, "choices": choices}
            sp.add_argument(flag, dest=dest, required=required, default=default, help=help_, **kind)
        sp.set_defaults(func=func)
    return p


# per command, what _fast_args reads of _COMMANDS, once: (handler, {flag: (dest, type,
# choices)}, the required dests, {dest: default} of the others)
_FAST = {name: (func, {flag: (dest, type_, choices) for flag, dest, type_, choices, *_ in options},
                {dest for _, dest, _, _, required, _, _ in options if required},
                {dest: default for _, dest, _, _, required, default, _ in options if not required})
         for name, (func, _, options) in _COMMANDS.items()}


def _fast_args(argv) -> SimpleNamespace | None:
    """The attributes of ``build_parser().parse_args(argv)``, read from ``_COMMANDS``,
    for a command, then exactly spelled long options, each at most once, as
    '--opt value' or '--opt=value' with a valid value; None for anything else."""
    command = _FAST.get(argv[0]) if argv else None
    if command is None:
        return None
    func, flags, required, defaults = command
    got = {"command": argv[0]}
    tokens = iter(argv[1:])
    for tok in tokens:
        flag, eq, text = tok.partition("=")
        opt = flags.get(flag)
        if opt is None or opt[0] in got:
            return None  # help, an abbreviation, '--', a repeat or an unknown token
        dest, type_, choices = opt
        if type_ is bool and not eq:  # a flag
            got[dest] = True
            continue
        text = text if eq else next(tokens, "-")
        if type_ is bool or text == "--" or not eq and text.startswith("-"):
            return None  # a value on a flag, or one that argparse may read as an option
        try:
            value = type_(text) if type_ else text
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        got[dest] = value
    if not required <= got.keys():
        return None
    return SimpleNamespace(**{**defaults, **got}, func=func)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the fast path declines all but plain argv; argparse parses the rest as always
    args = _fast_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
        for flag, dest, *_ in _COMMANDS[args.command][2]:
            if type(getattr(args, dest)) is list:  # argparse keeps [] for '--opt=--', never a value:
                build_parser().parse_args([args.command, flag])  # refused as a bare '--opt' is
    try:
        return args.func(args)
    except (KostkaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
