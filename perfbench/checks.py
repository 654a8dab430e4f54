"""Checks of every request's output, run outside the timed region.

Each check parses the captured output (or takes the library results) and
tests it with the reference arithmetic in ``refmath``, never with the code
path that produced it.  A check returns the number of output rows (ray
rows, vertex rows or verdicts).  It raises ``CheckError`` on a wrong
output, and ``ReportedDisagreement`` when every answer is right but the
program reports that its own oracle disagrees (a failed request whose
failure the program announces, not a silently wrong answer).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import lcm

import refmath as R

RAY_COLUMNS = "type\trank\tnode\tlevi\tk_primitive\tk_det\tlambda_fw\tmu_fw\tc_alpha"
VERTEX_COLUMNS = "type\trank\tlambda_fw\tlevi\tpoint_fw\tc_alpha"


class CheckError(Exception):
    """An output that fails its check."""


class ReportedDisagreement(Exception):
    """The program printed an oracle MISMATCH; its other answers are right."""


def require(cond, what: str) -> None:
    if not cond:
        raise CheckError(what)


def parse_combo(text: str, sym: str, r: int) -> list[Fraction]:
    """Invert the CLI's rendering of a combination such as '-w1 + 2/3*w4'."""
    out = [Fraction(0)] * r
    text = text.strip()
    if text == "0":
        return out
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        coef, _, base = term.rpartition("*")
        require(base.startswith(sym), f"bad term {term!r}")
        pos = int(base[len(sym):])
        require(1 <= pos <= r and out[pos - 1] == 0, f"bad term {term!r}")
        out[pos - 1] = sign * Fraction(coef or 1)
        require(out[pos - 1] != 0, f"zero term {term!r}")
    return out


def parse_nodes(text: str) -> tuple[int, ...]:
    text = text.strip().strip("{}")
    return tuple(int(x) for x in text.split(",")) if text else ()


def csv(text: str) -> list[Fraction]:
    return [Fraction(x) for x in text.split(",")]


def _lines(out: str) -> list[str]:
    require(out.endswith("\n"), "output does not end with a newline")
    return out[:-1].split("\n")


# ---------------------------------------------------------------- rays

def parse_rays(out: str, fmt: str, letter: str, r: int) -> list[dict]:
    """Ray rows as dicts of node, levi, k_primitive, k_det and the pair
    (lam, mu) with root coefficients c, all unscaled; pretty rows also carry
    the printed inverse transpose Cartan matrix."""
    lines = _lines(out)
    rows = []
    if fmt == "json":
        for line in lines:
            d = json.loads(line)
            require((d["type"], d["rank"]) == (letter, r), "type/rank echo")
            rows.append({"node": d["node"], "levi": tuple(d["levi"]),
                         "k_primitive": d["k_primitive"], "k_det": d["k_det"],
                         "lam": [Fraction(x) for x in d["lambda_fw"]],
                         "mu": [Fraction(x) for x in d["mu_fw"]],
                         "c": [Fraction(x) for x in d["c_alpha"]]})
    elif fmt == "tsv":
        require(lines[0] == RAY_COLUMNS, "tsv header")
        for line in lines[1:]:
            t, rank, node, levi, kp, kd, lam, mu, c = line.split("\t")
            require((t, int(rank)) == (letter, r), "type/rank echo")
            rows.append({"node": int(node), "levi": parse_nodes(levi),
                         "k_primitive": int(kp), "k_det": int(kd),
                         "lam": csv(lam), "mu": csv(mu), "c": csv(c)})
    else:
        k = 0
        while k < len(lines):
            head = lines[k].split()
            require(head[0] == "node" and head[2] == "levi", f"pretty head {lines[k]!r}")
            row = {"node": int(head[1]), "levi": parse_nodes(head[3]),
                   "k_primitive": int(head[4].split("=")[1]),
                   "k_det": int(head[5].split("=")[1]), "inverse": None}
            kd = row["k_det"]
            k += 1
            if row["levi"]:
                require(lines[k] == f"  inverse transpose Cartan on {head[3]}:", "pretty matrix")
                n = len(row["levi"])
                row["inverse"] = [[Fraction(x) for x in lines[k + 1 + a].split()]
                                  for a in range(n)]
                k += 1 + n
            left, sep, right = lines[k].strip().partition(") = (")
            lam_s, _, drops = left[1:].partition(", ")
            require(drops.startswith(lam_s), "pretty pair")
            lam = parse_combo(lam_s, "w", r)
            if sep:
                lam2, _, mu_s = right[:-1].partition(", ")
                require(lam2 == lam_s, "pretty pair")
                mu = parse_combo(mu_s, "w", r)
                # ' - a1 - 2*a3' lists the (positive) root coefficients
                c = parse_combo(drops[len(lam_s):].removeprefix(" - ").replace(" - ", " + "),
                                "a", r)
            else:
                require(left.endswith(")") and drops[:-1] == lam_s, "pretty pair")
                mu, c = list(lam), [Fraction(0)] * r
            # the pretty form prints everything times k_det
            row.update(lam=[x / kd for x in lam], mu=[x / kd for x in mu],
                       c=[x / kd for x in c])
            rows.append(row)
            k += 1
    return rows


def check_rays(item, out: str) -> int:
    letter, r = item.letter, item.rank
    node, fmt = item.params
    rows = parse_rays(out, fmt, letter, r)
    require(len(rows) == R.subtrees_through(letter, r, node) + 1,
            f"{len(rows)} rows, expected connected subsets through {node} + 1")
    levis = [row["levi"] for row in rows]
    require(levis[0] == () and len(set(levis)) == len(levis), "levi sets not distinct")
    cm = R.cartan(letter, r)
    e = [Fraction(int(j == node)) for j in range(1, r + 1)]
    for row in rows:
        levi, lam, mu, c = row["levi"], row["lam"], row["mu"], row["c"]
        require(row["node"] == node, "node")
        require(not levi or (node in levi and R.is_connected(letter, r, levi)),
                f"levi {levi} not connected through {node}")
        require(lam == e, "lambda is not the fundamental weight")
        require([a - b for a, b in zip(lam, mu)] == list(R.root_combination(letter, r, c)),
                "lambda - mu != sum c_alpha * Cartan row")
        require(tuple(j for j in range(1, r + 1) if c[j - 1]) == levi, "support of c != levi")
        require(all(mu[j - 1] == 0 for j in levi), "mu pairs nonzero with a Levi coroot")
        sub = [[cm[a - 1][b - 1] for b in levi] for a in levi]
        kd = R.det(sub) if levi else 1
        require(row["k_det"] == kd, f"k_det {row['k_det']} != {kd}")
        require(all(kd % x.denominator == 0 for x in lam + mu + c), "k_det * pair not integral")
        require(row["k_primitive"] == lcm(*(x.denominator for x in c)), "k_primitive")
        if row.get("inverse") is not None:
            # k_det * inverse is the (integral) adjugate: check adj * C_L^T = k_det * I
            require(all(kd % x.denominator == 0 for line in row["inverse"] for x in line),
                    "inverse * k_det")
            adj = [[x.numerator * (kd // x.denominator) for x in line] for line in row["inverse"]]
            n = len(levi)
            prod = [[sum(adj[a][m] * sub[b][m] for m in range(n)) for b in range(n)]
                    for a in range(n)]
            require(prod == [[kd * (a == b) for b in range(n)] for a in range(n)],
                    "printed inverse transpose Cartan is wrong")
    sample = random.Random(repr(item)).choice(rows)
    require(R.is_extremal(letter, r, sample["lam"], sample["mu"]), "sampled ray not extremal")
    return len(rows)


# ---------------------------------------------------------------- vertices

def parse_vertices(out: str, fmt: str, letter: str, r: int, lam) -> list[tuple]:
    """(levi, point, printed c or None) per vertex row."""
    lines = _lines(out)
    rows = []
    if fmt == "json":
        for line in lines:
            d = json.loads(line)
            require((d["type"], d["rank"]) == (letter, r), "type/rank echo")
            require([Fraction(x) for x in d["lambda_fw"]] == list(lam), "lambda echo")
            rows.append((tuple(d["levi"]), [Fraction(x) for x in d["point_fw"]],
                         [Fraction(x) for x in d["c_alpha"]]))
    elif fmt == "tsv":
        require(lines[0] == VERTEX_COLUMNS, "tsv header")
        for line in lines[1:]:
            t, rank, lam_s, levi, point, c = line.split("\t")
            require((t, int(rank)) == (letter, r) and csv(lam_s) == list(lam), "echo")
            rows.append((parse_nodes(levi), csv(point), csv(c)))
    else:
        head = lines[0]
        lam_s, _, tail = head.removeprefix("slice polytope at lambda = ").rpartition("  (")
        require(parse_combo(lam_s, "w", r) == list(lam), "lambda echo")
        require(tail == f"{letter}{r}, {len(lines) - 1} vertices)", "vertex count in header")
        for line in lines[1:]:
            levi, _, point = line.strip().removeprefix("levi ").partition(" point ")
            rows.append((parse_nodes(levi), parse_combo(point, "w", r), None))
    return rows


def check_vertices(item, out: str) -> int:
    letter, r = item.letter, item.rank
    kind, lam, fmt = item.params
    lam = R.fractions(lam)
    rows = parse_vertices(out, fmt, letter, r, lam)
    points = set()
    for levi, mu, c_printed in rows:
        c = R.root_coords(letter, r, [a - b for a, b in zip(lam, mu)])
        require(c_printed is None or list(c) == c_printed, "printed c_alpha is wrong")
        require(min(mu) >= 0 and min(c) >= 0, f"point {mu} outside the slice")
        require(tuple(j for j in range(1, r + 1) if c[j - 1]) == levi, "support of c != levi")
        require(all(mu[j - 1] == 0 for j in levi), "point pairs nonzero with a Levi coroot")
        points.add(tuple(mu))
    require(len(points) == len(rows), "repeated vertices")
    support = frozenset(j for j in range(1, r + 1) if lam[j - 1])
    require(len(rows) == R.slice_vertex_count(letter, r, support),
            f"{len(rows)} vertices, expected {R.slice_vertex_count(letter, r, support)}")
    if kind == "regular":
        require(len(rows) == 2 ** r, "regular lambda needs 2^r vertices")
    if r <= 5:
        require(points == R.slice_vertices_brute(letter, r, lam), "differs from brute force")
    return len(rows)


# ---------------------------------------------------------------- check

def parse_check(out: str, fmt: str) -> dict:
    lines = _lines(out)
    if fmt == "json":
        require(len(lines) == 1, "one json line")
        d = json.loads(lines[0])
        if "oracle_agrees" in d:
            d["oracle"] = "agree" if d["oracle_agrees"] else "MISMATCH"
        return d
    yes = {"yes": True, "no": False}
    d = {}
    for line in lines:
        key, _, val = line.partition(": ")
        if key in ("member", "extremal", "in_root_lattice"):
            d[key] = yes[val]
        elif key == "multiplicity":
            d[key] = int(val)
        elif key == "oracle":
            d[key] = val
        else:
            raise CheckError(f"unexpected line {line!r}")
    return d


def check_check(item, rc, out: str) -> int:
    letter, r = item.letter, item.rank
    _, lam, mu, oracle, fmt = item.params
    lam, mu = R.fractions(lam), R.fractions(mu)
    d = parse_check(out, fmt)
    member = R.in_cone(letter, r, lam, mu)
    require(rc == (0 if member else 1), f"exit code {rc} for member={member}")
    require(d["member"] is member, "membership verdict")
    if fmt == "json":
        require(csv(",".join(d["lambda_fw"])) == list(lam) and
                csv(",".join(d["mu_fw"])) == list(mu), "weight echo")
    if member:
        require(d["extremal"] is R.is_extremal(letter, r, lam, mu), "extremality verdict")
    else:
        require("extremal" not in d, "extremality printed for a non-member")
    integral = all(x.denominator == 1 for x in lam + mu)
    if oracle and integral and min(lam) >= 0:
        diff = [a - b for a, b in zip(lam, mu)]
        lattice = all(x.denominator == 1 for x in R.root_coords(letter, r, diff))
        require(d["in_root_lattice"] is lattice, "root lattice verdict")
        # multiplicities are Weyl invariant: compare at the dominant representative
        mu_plus = R.dominant_rep(letter, r, tuple(int(x) for x in mu))
        expect = lattice and R.in_cone(letter, r, lam, mu_plus)
        require((d["multiplicity"] > 0) is expect,
                f"multiplicity {d['multiplicity']} vs membership of {mu_plus}")
        # the verdict must follow from the answers printed beside it
        verdict = "agree" if (d["member"] and lattice) == (d["multiplicity"] > 0) else "MISMATCH"
        require(d["oracle"] == verdict, f"oracle verdict {d['oracle']}, expected {verdict}")
        if verdict == "MISMATCH":
            raise ReportedDisagreement(f"oracle: MISMATCH at mu={','.join(map(str, mu))}, "
                                       f"multiplicity {d['multiplicity']}")
    elif oracle and fmt != "json":
        require(d.get("oracle", "").startswith("skipped"), "oracle should be skipped")
    else:
        require("multiplicity" not in d, "oracle ran unasked")
    return 1


# ---------------------------------------------------------------- library

def check_lib(item, result) -> int:
    letter, r = item.letter, item.rank
    sub = item.params[0]
    if sub == "average":
        _, lam, nodes = item.params
        avg, vert = result
        require(tuple(avg) == tuple(vert.point), "parabolic average != vertex point")
        require(set(vert.levi) <= set(nodes), "vertex levi outside the node set")
        c = R.root_coords(letter, r, [Fraction(a) - b for a, b in zip(lam, avg)])
        require(all(avg[j - 1] == 0 for j in nodes), "average not invariant")
        require(all(c[j - 1] == 0 for j in range(1, r + 1) if j not in nodes),
                "average moved off the node set")
    elif sub == "polytope":
        _, lam = item.params
        pv, bf = result
        points = frozenset(tuple(v.point) for v in pv)
        require(len(points) == len(pv), "repeated vertices")
        require(points == bf == R.slice_vertices_brute(letter, r, lam),
                "polytope_vertices != brute_force_vertices")
    else:
        _, levi, lam_loc, mu_loc, mid = item.params
        (lam, mu), composes = result
        require(composes is True, "induction does not compose")
        cm = R.cartan(letter, r)
        sub_t = [[cm[a - 1][b - 1] for a in levi] for b in levi]
        c_loc = R.solve(sub_t, [x - y for x, y in zip(lam_loc, mu_loc)])
        full = [Fraction(0)] * r
        lam_amb = [Fraction(0)] * r
        for n, cn, x in zip(levi, c_loc, lam_loc):
            full[n - 1] = cn
            lam_amb[n - 1] = Fraction(x)
        require(list(lam) == lam_amb, "lifted lambda is not the extension by zero")
        require([a - b for a, b in zip(lam, mu)] == list(R.root_combination(letter, r, full)),
                "lift changed the root coefficients")
    return 1


def check(item, rc, out, result) -> int:
    """Rows of one request's output; raises CheckError if it is wrong."""
    if item.kind == "lib":
        return check_lib(item, result)
    if item.kind == "rays":
        return check_rays(item, out)
    if item.kind == "vertices":
        return check_vertices(item, out)
    return check_check(item, rc, out)
