import argparse
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as Q
from pathlib import Path

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import _NoFraction, supported_types
import kostka
from kostka import (compare_membership_multiplicity, cone_contains, fundamental_weight,
                    is_dominant, is_extremal_ray, root_coords_to_fw, root_system)
from kostka.errors import KostkaError
from kostka.cli import (CENSUS_COLUMNS, RAY_COLUMNS, VERTEX_COLUMNS, _fast_args, _parse_weight,
                        _table, build_parser, main)
from kostka.rootdata import RANK_BOUNDS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rays_tsv_c4_node3(capsys):
    code, out, _ = run(capsys, "rays", "--type", "C", "--rank", "4", "--node", "3",
                       "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split("\t") == ["type", "rank", "node", "levi", "k_primitive",
                                    "k_det", "lambda_fw", "mu_fw", "c_alpha"]
    assert len(lines) == 8  # header + 7 rays
    row = lines[1].split("\t")
    assert row[:6] == ["C", "4", "3", "", "1", "1"]
    assert row[6] == row[7] == "0,0,1,0"


def test_rays_json_roundtrip(capsys):
    code, out, _ = run(capsys, "rays", "--type", "C", "--rank", "4", "--format", "json")
    assert code == 0
    rs = root_system("C", 4)
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 24
    for row in rows:
        assert list(row) == ["type", "rank", "node", "levi", "k_primitive", "k_det",
                             "lambda_fw", "mu_fw", "c_alpha"]
        c = tuple(Q(x) for x in row["c_alpha"])
        lam = tuple(Q(x) for x in row["lambda_fw"])
        mu = tuple(Q(x) for x in row["mu_fw"])
        # re-derive mu from (node, levi, c_alpha)
        assert lam == tuple(Q(x) for x in fundamental_weight(rs, row["node"]))
        drop = root_coords_to_fw(rs, c)
        assert tuple(a - b for a, b in zip(lam, drop)) == mu
        assert [j + 1 for j, x in enumerate(c) if x] == row["levi"]


_INT_CELLS = {"rank", "node", "k_primitive", "k_det"}
_WEIGHT_CELLS = {"lambda_fw", "mu_fw", "point_fw", "c_alpha"}


def _table_rows(fmt, *argv):
    """The records printed by a rays or vertices request in json or tsv, parsed to one form."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([*argv, "--format", fmt])
    assert code == 0
    lines = out.getvalue().splitlines()
    if fmt == "json":
        rows = [json.loads(line) for line in lines]
    else:
        header = lines[0].split("\t")
        assert all(line.count("\t") == len(header) - 1 for line in lines)
        rows = [dict(zip(header, line.split("\t"))) for line in lines[1:]]
        for row in rows:
            for key in _INT_CELLS & row.keys():
                row[key] = int(row[key])
            row["levi"] = [int(n) for n in row["levi"].split(",") if n]
            for key in _WEIGHT_CELLS & row.keys():
                row[key] = row[key].split(",")
    for row in rows:
        for key in _WEIGHT_CELLS & row.keys():
            row[key] = [Q(x) for x in row[key]]
    return rows


@st.composite
def _table_requests(draw):
    """argv of a `rays --node` request (rank <= 8) or of a `vertices` request at a
    random dominant rational lambda (rank <= 6)."""
    if draw(st.booleans()):
        letter, r = draw(st.sampled_from(supported_types(8)))
        return "rays", "--type", letter, "--rank", str(r), "--node", str(draw(st.integers(1, r)))
    letter, r = draw(st.sampled_from(supported_types(6)))
    lam = draw(st.lists(st.fractions(0, 3, max_denominator=4), min_size=r, max_size=r))
    return "vertices", "--type", letter, "--rank", str(r), "--lambda", ",".join(map(str, lam))


_CELL_KINDS = [
    st.sampled_from(list(RANK_BOUNDS)),  # a type letter
    st.integers(-10 ** 20, 10 ** 20),
    st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=5).map(tuple),
    st.lists(st.sampled_from(["0", "1", "-3/4", "22/7", "-1"]) | st.fractions().map(str),
             max_size=5),
    st.booleans(),
]


@st.composite
def _tables(draw):
    """Columns, rows with the cells of each column of one kind, and a set of the
    columns drawn as fixed, where every row repeats the first row's cell."""
    columns = draw(st.sampled_from([RAY_COLUMNS, VERTEX_COLUMNS, CENSUS_COLUMNS]))
    rows = draw(st.lists(st.tuples(*[draw(st.sampled_from(_CELL_KINDS)) for _ in columns]),
                         max_size=4))
    fixed = draw(st.sets(st.sampled_from(columns)))
    return columns, [tuple(rows[0][k] if c in fixed else x for k, (c, x) in
                           enumerate(zip(columns, row))) for row in rows], fixed


def _written(fmt, columns, rows, fixed=frozenset()):
    # what _table writes for rows, given the columns in `fixed` as fixed cells
    cells = {c: rows[0][k] for k, c in enumerate(columns) if c in fixed} if rows else {}
    out = io.StringIO()
    with redirect_stdout(out):
        _table(fmt, columns, [tuple(x for c, x in zip(columns, row) if c not in fixed)
                              for row in rows], cells)
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(_tables())
@example((CENSUS_COLUMNS, [("A", 0, (), [], False), ("G", -1, (-3,), ["-3/4"], True)], set()))
@example((VERTEX_COLUMNS, [("B", 2, [], (), ["1", "-1/2"], []),
                          ("B", 2, [], (1,), ["0", "0"], ["1"])], {"type", "rank", "lambda_fw"}))
@example((CENSUS_COLUMNS, [("C", 3, 1, 1, True)] * 2, set(CENSUS_COLUMNS)))
def test_json_rows_are_json_dumps_rows(case):
    # the row writer spells every kind of cell as json.dumps does: a type letter, an
    # int, a tuple of ints, a list of printed rationals, a bool, the empty ones too,
    # whether written in each row or once as a fixed cell
    columns, rows, fixed = case
    assert _written("json", columns, rows, fixed) == "".join(
        json.dumps(dict(zip(columns, row)), separators=(",", ":")) + "\n" for row in rows)


@settings(max_examples=150, deadline=None)
@given(_tables())
@example((RAY_COLUMNS, [("A", 1, 1, (), 1, 1, ["1"], ["1"], ["0"])] * 3, {"lambda_fw", "levi"}))
def test_tsv_fixed_cells_are_the_cells_of_every_row(case):
    columns, rows, fixed = case
    assert _written("tsv", columns, rows, fixed) == _written("tsv", columns, rows)


@settings(max_examples=60, deadline=None)
@given(_table_requests())
def test_rays_json_and_tsv_agree(argv):
    json_rows = _table_rows("json", *argv)
    assert json_rows == _table_rows("tsv", *argv)
    # both tables open with the record of empty levi: the ray (w_i, w_i), the vertex lambda
    assert json_rows and json_rows[0]["levi"] == []


def test_rays_json_count_e6(capsys):
    code, out, _ = run(capsys, "rays", "--type", "E", "--rank", "6", "--format", "json")
    assert code == 0
    assert len(out.splitlines()) == 78


def test_rays_a1(capsys):
    code, out, _ = run(capsys, "rays", "--type", "A", "--rank", "1", "--format", "tsv")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_rays_unsupported_rank(capsys):
    code, _, err = run(capsys, "rays", "--type", "D", "--rank", "3", "--format", "tsv")
    assert code == 2
    assert "error" in err


def test_rays_bad_node(capsys):
    code, _, err = run(capsys, "rays", "--type", "A", "--rank", "2", "--node", "5")
    assert code == 2


def test_rays_deterministic_bytes(capsys):
    _, first, _ = run(capsys, "rays", "--type", "B", "--rank", "3", "--format", "json")
    _, second, _ = run(capsys, "rays", "--type", "B", "--rank", "3", "--format", "json")
    assert first == second


@st.composite
def _ray_requests(draw):
    """A type of rank at most 10 and one of its nodes."""
    letter, r = draw(st.sampled_from(supported_types(10)))
    return letter, r, draw(st.integers(1, r))


@settings(max_examples=60, deadline=None)
@given(_ray_requests())
def test_rays_cells_are_the_library_values(case):
    # each cell printed from the integers is str of the library's Fraction, and each
    # pretty pair is the one built from k_det times the library's values
    letter, r, i = case
    rays = kostka.rays_for_node(root_system(letter, r), i)
    argv = ["rays", "--type", letter, "--rank", str(r), "--node", str(i), "--format"]
    printed = {}
    for fmt in ("json", "tsv", "pretty"):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main([*argv, fmt]) == 0
        printed[fmt] = out.getvalue().splitlines()
    pairs = [line for line in printed["pretty"] if line.startswith("  (")]
    for ray, row, line, pair in zip(rays, printed["json"], printed["tsv"][1:], pairs, strict=True):
        cells = [[str(x) for x in v] for v in (ray.lambda_fw, ray.mu_fw, ray.c_alpha)]
        head = [letter, r, ray.node, list(ray.levi), ray.k_primitive, ray.k_det]
        assert list(json.loads(row).values()) == head + cells
        assert line.split("\t") == ([letter, str(r), str(ray.node), ",".join(map(str, ray.levi)),
                                      str(ray.k_primitive), str(ray.k_det)]
                                     + [",".join(c) for c in cells])
        k = ray.k_det
        lam = kostka.cli._combo([k * x for x in ray.lambda_fw], "w")
        if ray.levi:
            drop = kostka.cli._terms([-k * x for x in ray.c_alpha], "a")
            mu = kostka.cli._combo([k * x for x in ray.mu_fw], "w")
            assert pair == f"  ({lam}, {lam}{drop}) = ({lam}, {mu})"
        else:
            assert pair == f"  ({lam}, {lam})"


@st.composite
def _vertex_requests(draw):
    """A type of rank at most 6 and a dominant lambda: regular, sparse or rational."""
    letter, r = draw(st.sampled_from(supported_types(6)))
    kind = draw(st.sampled_from(["regular", "sparse", "rational"]))
    if kind == "regular":
        lam = draw(st.lists(st.integers(1, 3), min_size=r, max_size=r))
    elif kind == "sparse":
        lam = [0] * r
        for i in draw(st.sets(st.integers(0, r - 1), min_size=1, max_size=2)):
            lam[i] = draw(st.integers(1, 3))
    else:
        lam = draw(st.lists(st.fractions(0, 3, max_denominator=3), min_size=r, max_size=r))
    return letter, r, tuple(lam)


@settings(max_examples=60, deadline=None)
@given(_vertex_requests())
@example(("D", 9, (1, 2, 1, 3, 1, 2, 2, 1, 3)))  # 512 vertices
@example(("E", 8, (0, 1, 0, 0, 2, 0, 0, 0)))
@example(("B", 9, (Q(1, 2), 0, 1, Q(2, 3), 0, 0, 1, 0, 3)))
def test_vertex_rows_are_the_library_values(case):
    # each json and tsv row's levi, point_fw and c_alpha, and each pretty row's levi
    # and point, are the library's values, vertex by vertex in the library's order
    letter, r, lam = case
    verts = kostka.polytope_vertices(root_system(letter, r), lam)
    lam_cells = [str(x) for x in lam]
    argv = ["vertices", "--type", letter, "--rank", str(r), "--lambda", ",".join(lam_cells)]
    printed = {}
    for fmt in ("json", "tsv", "pretty"):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main([*argv, "--format", fmt]) == 0
        printed[fmt] = out.getvalue().splitlines()
    assert len(printed["pretty"]) == len(verts) + 1
    for v, row, line, pretty in zip(verts, printed["json"], printed["tsv"][1:],
                                    printed["pretty"][1:], strict=True):
        levi, point, c = ([str(x) for x in cells] for cells in (v.levi, v.point, v.c_alpha))
        assert json.loads(row) == {"type": letter, "rank": r, "lambda_fw": lam_cells,
                                   "levi": list(v.levi), "point_fw": point, "c_alpha": c}
        assert line.split("\t") == [letter, str(r),
                                    *(",".join(x) for x in (lam_cells, levi, point, c))]
        nodes = "{" + ",".join(levi) + "}"
        assert pretty == f"  levi {nodes:<12} point {kostka.cli._combo(v.point, 'w')}"


def test_rays_make_no_fraction(capsys, monkeypatch):
    # records hold integers over k_det and every cell is printed from them
    # and so are the vertices at an integral lambda, whose weight is read as ints
    requests = [("rays", "--type", letter, "--rank", str(r), *node, "--format", fmt)
                for letter, r, node in (("A", 1, ()), ("C", 5, ()), ("G", 2, ()), ("E", 7, ()),
                                        ("D", 9, ("--node", "4")), ("F", 4, ("--node", "2")))
                for fmt in ("json", "tsv", "pretty")]
    requests += [("vertices", "--type", letter, "--rank", str(r), "--lambda", lam, "--format", fmt)
                 for letter, r, lam in (("A", 1, "2"), ("C", 3, "1,0,1"), ("E", 6, "0,1,0,0,0,2"))
                 for fmt in ("json", "tsv", "pretty")]
    expect = [run(capsys, *argv) for argv in requests]
    for module in (kostka.cone, kostka.cli, kostka.linalg, kostka.rootdata):
        monkeypatch.setattr(module, "Fraction", _NoFraction)
    assert [run(capsys, *argv) for argv in requests] == expect


def test_vertices_counts(capsys):
    code, out, _ = run(capsys, "vertices", "--type", "C", "--rank", "2",
                       "--lambda", "1,1", "--format", "json")
    assert code == 0
    assert len(out.splitlines()) == 4
    code, out, _ = run(capsys, "vertices", "--type", "C", "--rank", "2",
                       "--lambda", "1,0", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 3
    assert {tuple(r["point_fw"]) for r in rows} == {("1", "0"), ("0", "1/2"), ("0", "0")}


def test_vertices_origin(capsys):
    code, out, _ = run(capsys, "vertices", "--type", "A", "--rank", "1",
                       "--lambda", "0", "--format", "tsv")
    assert code == 0
    assert len(out.splitlines()) == 2  # header + single vertex


def test_vertices_rejects_bad_lambda(capsys):
    code, _, err = run(capsys, "vertices", "--type", "C", "--rank", "2", "--lambda", "1")
    assert code == 2
    code, _, err = run(capsys, "vertices", "--type", "C", "--rank", "2", "--lambda", "1,x")
    assert code == 2
    code, _, err = run(capsys, "vertices", "--type", "C", "--rank", "2", "--lambda", "1,-1")
    assert code == 2


@pytest.mark.parametrize("lam, printed", [("-1,1", "-1,1"), ("1/2, -3/4", "1/2,-3/4")])
def test_vertices_refuses_a_non_dominant_weight_as_typed(capsys, lam, printed):
    code, out, err = run(capsys, "vertices", "--type", "A", "--rank", "2", f"--lambda={lam}")
    assert (code, out, err) == (2, "", f"error: weight {printed} is not dominant\n")


@pytest.mark.parametrize("argv, enumerate_", [
    (("vertices", "--type", "B", "--rank", "4", "--lambda", "1,0,1/2,2"), "polytope_vertices"),
    (("rays", "--type", "E", "--rank", "6", "--node", "4"), "rays_for_node"),
])
@pytest.mark.parametrize("fmt", ["json", "tsv", "pretty"])
def test_one_public_enumeration_per_request(monkeypatch, capsys, argv, enumerate_, fmt):
    # the benchmark's tracer counts vertices and rays at these public names; a request
    # that enumerated through a private helper would leave its counter at zero
    calls = []
    public = getattr(kostka.cli, enumerate_)

    def counted(*args, **kwargs):
        calls.append(args)
        return public(*args, **kwargs)

    monkeypatch.setattr(kostka.cli, enumerate_, counted)
    assert main([*argv, "--format", fmt]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out


def test_vertices_size_guard(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "vertices", "--type", "A", "--rank", "26",
                         "--lambda", ",".join(["1"] * 26), "--format", "tsv")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "more than 65536 vertices" in err
    # w1 + w26: 1 + 51 + 300 node sets whose components each meet {1, 26}
    code, out, err = run(capsys, "vertices", "--type", "A", "--rank", "26",
                         "--lambda", ",".join(["1"] + ["0"] * 24 + ["1"]), "--format", "tsv")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 1 + 352


def test_check_verdicts(capsys):
    code, out, _ = run(capsys, "check", "--type", "A", "--rank", "1",
                       "--lambda", "2", "--mu", "0")
    assert code == 0
    assert "member: yes" in out and "extremal: yes" in out

    code, out, _ = run(capsys, "check", "--type", "A", "--rank", "1",
                       "--lambda", "2", "--mu", "1")
    assert code == 0
    assert "extremal: no" in out

    code, out, _ = run(capsys, "check", "--type", "A", "--rank", "1",
                       "--lambda", "0", "--mu", "1")
    assert code == 1
    assert "member: no" in out


def test_check_oracle(capsys):
    code, out, _ = run(capsys, "check", "--type", "A", "--rank", "1",
                       "--lambda", "2", "--mu", "0", "--oracle", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["member"] and row["extremal"]
    assert row["multiplicity"] == 1 and row["oracle_agrees"]

    code, out, _ = run(capsys, "check", "--type", "C", "--rank", "2",
                       "--lambda", "1,1", "--mu", "0,0", "--oracle", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["member"] and not row["in_root_lattice"]
    assert row["multiplicity"] == 0 and row["oracle_agrees"]


def test_check_oracle_refuses_a_system_over_the_root_cap(capsys, solve_calls):
    # A600 has 180300 positive roots: refused by their count in closed form, before
    # a root is enumerated or any inverse is built
    lam, mu = ",".join(["1"] + ["0"] * 598 + ["1"]), ",".join(["0"] * 600)
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "--type", "A", "--rank", "600",
                         "--lambda", lam, "--mu", mu, "--oracle")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: RootSystem(A600) has 180300 positive roots, over the cap 10000\n"
    assert not solve_calls


@pytest.mark.parametrize("argv, verdict", [
    (("--type", "E", "--rank", "6", "--lambda", "1,0,0,0,0,1", "--mu", "0,0,0,0,0,0",
      "--oracle"), "extremal: no"),
    (("--type", "C", "--rank", "4", "--lambda", "0,0,3,0", "--mu", "1,0,0,2"), "extremal: yes"),
])
def test_check_evaluates_the_cone_forms_once(monkeypatch, capsys, argv, verdict):
    # lam - mu's simple-root coefficients are solved for once over the whole diagram: by
    # the comparison with the oracle, else by membership, whose values extremality reads
    calls = []
    levi_solve = kostka.rootdata._levi_solve

    def counted(rs, lam, nodes):
        calls.append(nodes == rs.nodes())
        return levi_solve(rs, lam, nodes)

    kostka.oracle  # loaded, so that its name is counted too
    for module in (kostka.rootdata, kostka.cone, kostka.oracle):
        monkeypatch.setattr(module, "_levi_solve", counted)
    code, out, _ = run(capsys, "check", *argv)
    assert code == 0 and "member: yes" in out and verdict in out
    assert calls == [True]


@pytest.mark.parametrize("letter", ["A", "D"])
def test_check_at_rank_2000_reads_no_dense_inverse(monkeypatch, capsys, solve_calls, letter):
    # membership and extremality from one forest solve: a fresh system builds no inverse
    rs = root_system.__wrapped__(letter, 2000)
    monkeypatch.setattr(kostka.cli, "root_system", lambda *_: rs)
    r, k = rs.rank, 1000
    w1_wr, zero = (1,) + (0,) * (r - 2) + (1,), (0,) * r
    # the vertex of the slice at w_k on a connected Levi through k spans a ray
    point = kostka.vertex(rs, fundamental_weight(rs, k), (k - 1, k, k + 1)).point
    ray = (tuple(Q(3, 2) * x for x in fundamental_weight(rs, k)), tuple(Q(3, 2) * x for x in point))
    for (lam, mu), extremal in [((w1_wr, zero), False), ((zero, w1_wr), None), (ray, True)]:
        member = cone_contains(rs, lam, mu)
        assert member == (extremal is not None)
        lam_arg, mu_arg = (",".join(map(str, w)) for w in (lam, mu))
        code, out, err = run(capsys, "check", "--type", letter, "--rank", str(r),
                             f"--lambda={lam_arg}", f"--mu={mu_arg}")
        verdicts = f"member: {'yes' if member else 'no'}\n"
        if member:
            verdicts += f"extremal: {'yes' if extremal else 'no'}\n"
        assert (code, out, err) == (0 if member else 1, verdicts, "")
    assert not solve_calls


def test_check_rational_input(capsys):
    code, out, _ = run(capsys, "check", "--type", "A", "--rank", "1",
                       "--lambda", "1/2", "--mu", "1/2", "--format", "json")
    assert code == 0
    assert json.loads(out)["member"]


_CHECK_COORDS = st.integers(-1, 2) | st.fractions(-1, 2, max_denominator=3)


@st.composite
def _check_requests(draw):
    """A check request at rank <= 4: lambda dominant or not, integral or not, and mu
    either lambda less a nonnegative combination of simple roots (often a member) or
    drawn alone; with --oracle or without it."""
    letter, r = draw(st.sampled_from(supported_types(4)))
    rs = root_system(letter, r)
    lam = draw(st.lists(_CHECK_COORDS, min_size=r, max_size=r))
    if draw(st.booleans()):
        c = draw(st.lists(st.integers(0, 2) | st.fractions(0, 1, max_denominator=2),
                          min_size=r, max_size=r))
        mu = [x - sum(y * rs.cartan[m][n] for m, y in enumerate(c)) for n, x in enumerate(lam)]
    else:
        mu = draw(st.lists(_CHECK_COORDS, min_size=r, max_size=r))
    return letter, r, lam, mu, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_check_requests())
@example(("A", 1, [2], [0], True))  # a member, extremal, with the oracle's three cells
@example(("C", 2, [1, 1], [Q(1, 2), -1], False))  # a rational non-member
def test_check_json_is_json_dumps(case):
    # the one object of `check --format json` is spelled as json.dumps spells the result
    letter, r, lam, mu, oracle = case
    rs = root_system(letter, r)
    argv = ["check", "--type", letter, "--rank", str(r), "--lambda=" + ",".join(map(str, lam)),
            "--mu=" + ",".join(map(str, mu)), "--format", "json"] + ["--oracle"] * oracle
    try:
        member = cone_contains(rs, lam, mu)
        result = {"type": letter, "rank": r, "lambda_fw": list(map(str, lam)),
                  "mu_fw": list(map(str, mu)), "member": member}
        if member:
            result["extremal"] = is_extremal_ray(rs, lam, mu)
        if oracle and all(Q(x).denominator == 1 for x in lam + mu) and is_dominant(lam):
            cmp = compare_membership_multiplicity(rs, lam, mu)
            result.update(in_root_lattice=cmp.in_root_lattice, multiplicity=cmp.multiplicity,
                          oracle_agrees=cmp.agrees)
        expect = (0 if member else 1, json.dumps(result, separators=(",", ":")) + "\n")
    except KostkaError:  # a representation over the oracle's cap
        expect = (2, "")
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert (code, out.getvalue()) == expect


@settings(max_examples=150, deadline=None)
@given(_check_requests())
@example(("A", 1, [2], [0], True))  # a member, extremal, with the oracle's three cells
@example(("C", 2, [1, 1], [Q(1, 2), -1], False))  # a rational non-member
@example(("B", 3, [1, -1, 1], [0, 0, 0], True))  # a non-dominant lambda: the oracle skipped
@example(("C", 2, [Q(1, 2), 1], [Q(1, 2), 1], True))  # a rational member: the oracle skipped
def test_check_lines_are_the_library_verdicts(case):
    # `check --format pretty` and `--format tsv` print the same 'key: value' lines, each
    # the library's verdict: cone_contains, is_extremal_ray for a member, and with --oracle
    # on integral weights at a dominant lambda the comparison's cells and its agreement,
    # else the line saying the oracle was skipped
    letter, r, lam, mu, oracle = case
    rs = root_system(letter, r)
    argv = ["check", "--type", letter, "--rank", str(r), "--lambda=" + ",".join(map(str, lam)),
            "--mu=" + ",".join(map(str, mu))] + ["--oracle"] * oracle
    try:
        member = cone_contains(rs, lam, mu)
        lines = [f"member: {'yes' if member else 'no'}"]
        if member:
            lines.append(f"extremal: {'yes' if is_extremal_ray(rs, lam, mu) else 'no'}")
        if oracle and all(Q(x).denominator == 1 for x in lam + mu) and is_dominant(lam):
            cmp = compare_membership_multiplicity(rs, lam, mu)
            lines += [f"in_root_lattice: {'yes' if cmp.in_root_lattice else 'no'}",
                      f"multiplicity: {cmp.multiplicity}",
                      f"oracle: {'agree' if cmp.agrees else 'MISMATCH'}"]
        elif oracle:
            lines.append("oracle: skipped (needs integral dominant weights)")
        expect = (0 if member else 1, "".join(line + "\n" for line in lines))
    except KostkaError:  # a representation over the oracle's cap
        expect = (2, "")
    for fmt in ("pretty", "tsv"):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv + ["--format", fmt])
        assert (code, out.getvalue()) == expect, fmt


def test_check_walks_no_forest_once_warm(monkeypatch, capsys):
    # the whole diagram's Dynkin forest is walked once per root system and kept: warm
    # check requests on B4, with the oracle and without it, walk none
    argvs = [["check", "--type", "B", "--rank", "4", "--lambda", "1,0,1,0", "--mu", mu,
              "--format", fmt, *oracle] for mu, fmt, oracle in
             [("0,0,1,0", "json", ()), ("0,1,0,0", "pretty", ("--oracle",))]]
    for argv in argvs:
        main(argv)  # warm: the system, its forest and the oracle's table
    walks = []
    forest = kostka.rootdata._forest
    monkeypatch.setattr(kostka.rootdata, "_forest", lambda *a: walks.append(a) or forest(*a))
    for argv in argvs:
        assert main(argv) == 0
    assert "member: yes" in capsys.readouterr().out
    assert walks == []


def test_census_small(capsys):
    code, out, _ = run(capsys, "census", "--max-rank", "2", "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split("\t") == ["type", "rank", "enumerated", "formula", "match"]
    rows = {tuple(l.split("\t")[:2]): l.split("\t")[2:] for l in lines[1:]}
    assert rows[("G", "2")] == ["6", "6", "yes"]
    assert set(rows) == {("A", "1"), ("A", "2"), ("B", "2"), ("C", "2"), ("G", "2")}


def test_census_of_no_types_is_its_header(capsys):
    expect = {"json": "", "tsv": "type\trank\tenumerated\tformula\tmatch\n",
              "pretty": "type rank  rays   formula  match\n"}
    for fmt, header in expect.items():
        assert run(capsys, "census", "--max-rank", "0", "--format", fmt) == (0, header, "")


def test_census_d4_row(capsys):
    code, out, _ = run(capsys, "census", "--max-rank", "4", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    d4 = next(r for r in rows if r["type"] == "D")
    assert d4 == {"type": "D", "rank": 4, "enumerated": 27, "formula": 27, "match": True}


# sha256 of the CLI's stdout.  "rays" and "census" were recorded before the
# linear algebra moved to the integer elimination kernel; "rays" hashes the
# outputs of every type up to rank 8 in supported_types order.  "vertices" was
# recorded before the slice vertices were built from connected Levi pieces; it
# hashes every type up to rank 7 at each of _pinned_lambdas, in that order.
# "rays --node" was recorded before the rays were read from one elimination
# per Levi; it hashes every type at ranks 9-16 at each of _pinned_nodes.
# "check --oracle" was recorded before the oracle ran in integers; it hashes
# the exit code, stdout and stderr of every type up to rank 4 and E6 at each
# of _pinned_pairs.
PINNED_SHA256 = {
    "rays json": "94c1a1388e1705e9af351590a6834d5c9d9d9fa3dbd39301c2b189d10043ba3c",
    "rays tsv": "9e28f6824679c1189f24e0d690bb03e85a441265dbdf691327de0620da261ad1",
    "rays pretty": "6ed5e16af1510ca0cc13fad267b3e2f6ee41fbe3e77b56a88ec2f567b44f15c1",
    "census json": "9c013160b5a5b3f9fa3218ed20ec0f4ba707f7dad3d7b51a677484ea38309a13",
    "census tsv": "f66471e0c989ad0059b15b7ae43e3026c33b09673853316b95cfed2e5a099a9d",
    "census pretty": "6a7fa9bb1c1bdb8398907bd0903e69a1dc9873a719b6b511b3b0ca591397f4ac",
    "vertices json": "c7cca200c6f4cc25ca3c65d5411bf453f8dd44b3cf90bc9e9f18b15e40302beb",
    "vertices tsv": "36f477d718fc7f11f00f5bb5c0296630d6c73492687688796c2a71d470cfbd4f",
    "vertices pretty": "f035ff3e01d6dc90a98e71bb2fe589d546d8c281d798b7ff65cf8b4ea34cf084",
    "rays --node json": "fa214382f2823e246da1b8f366d1168634cf2562ec797e89b52003fa90c44270",
    "rays --node tsv": "6216383f8eadde88e98cd7d57a1f88347af64a48a18f2d3c35f38828c402dbae",
    "rays --node pretty": "da4adfaabc85b2d9e5458de1116930ae41464aaa5cdd2fd31846c18829dfc80b",
    "check --oracle json": "0b270ce275075b1214ef3508fe7dd91ed665a15a43d73c20c3a97a383d8941b6",
    "check --oracle tsv": "86a2466bbafb6294029a93642e56a9417a22f234426ba12b0d6c535b14ca2d72",
    "check --oracle pretty": "86a2466bbafb6294029a93642e56a9417a22f234426ba12b0d6c535b14ca2d72",
}


def _pinned_lambdas(r):
    """rho, the sparse w1 + w_r and the rational w1/2 + 2*w_r/3, as CLI text."""
    sparse = [Q(0)] * r
    rational = [Q(0)] * r
    sparse[0] += 1
    sparse[-1] += 1
    rational[0] += Q(1, 2)
    rational[-1] += Q(2, 3)
    return [",".join(["1"] * r), ",".join(map(str, sparse)), ",".join(map(str, rational))]


def _pinned_nodes(r):
    """The middle node of each third of 1..r."""
    return [int((k + 0.5) / 3 * r) + 1 for k in range(3)]


def _pinned_pairs(r):
    """(lambda, mu) as CLI text: lambda in w1, w_r, w1 + w_r, rho, 2*w1 and
    mu in 0, w1, w_r, w1 + w_r, w2 (w1 at rank 1)."""
    def w(*nodes):
        return ",".join(str(nodes.count(i)) for i in range(1, r + 1))

    lams = [w(1), w(r), w(1, r), w(*range(1, r + 1)), w(1, 1)]
    mus = [w(), w(1), w(r), w(1, r), w(min(2, r))]
    return [(lam, mu) for lam in lams for mu in mus]


def test_output_bytes_are_pinned(capsys):
    got = {}
    for fmt in ("json", "tsv", "pretty"):
        h = hashlib.sha256()
        for letter, r in supported_types(4) + [("E", 6)]:
            for lam, mu in _pinned_pairs(r):
                code, out, err = run(capsys, "check", "--type", letter, "--rank", str(r),
                                     "--lambda", lam, "--mu", mu, "--oracle", "--format", fmt)
                h.update(f"{code}\n{out}{err}".encode())
        got[f"check --oracle {fmt}"] = h.hexdigest()
        h = hashlib.sha256()
        for letter, r in supported_types(7):
            for lam in _pinned_lambdas(r):
                code, out, err = run(capsys, "vertices", "--type", letter, "--rank", str(r),
                                     "--lambda", lam, "--format", fmt)
                assert code == 0 and err == "", (letter, r, lam, fmt)
                h.update(out.encode())
        got[f"vertices {fmt}"] = h.hexdigest()
        h = hashlib.sha256()
        for letter, r in supported_types(8):
            code, out, err = run(capsys, "rays", "--type", letter, "--rank", str(r),
                                 "--format", fmt)
            assert code == 0 and err == "", (letter, r, fmt)
            h.update(out.encode())
        got[f"rays {fmt}"] = h.hexdigest()
        h = hashlib.sha256()
        for letter, r in supported_types(16):
            if r < 9:
                continue
            for node in _pinned_nodes(r):
                code, out, err = run(capsys, "rays", "--type", letter, "--rank", str(r),
                                     "--node", str(node), "--format", fmt)
                assert code == 0 and err == "", (letter, r, node, fmt)
                h.update(out.encode())
        got[f"rays --node {fmt}"] = h.hexdigest()
        code, out, err = run(capsys, "census", "--max-rank", "8", "--format", fmt)
        assert code == 0 and err == ""
        got[f"census {fmt}"] = hashlib.sha256(out.encode()).hexdigest()
    assert got == PINNED_SHA256


# sha256 of the exit code, stdout and stderr of each argv (a shell line) that
# argparse answers: help, version and usage errors, an abbreviation, '--' and
# an extra token.  Recorded while argparse parsed every argv, at COLUMNS=80.
PINNED_USAGE_SHA256 = {
    "": "dbd513d57a743455e722114799182a38e6903144c0a437d0da4a86fd1b0bb872",
    "--help": "cf9ea8754b5a098ddf625f47302f0e457ae9eb9d4c1861951cad59123139a352",
    "--version": "dc6f7af47b27df1e63a5adf59a9dc0a1b860d3d7bf29cf28a116d6677f3abf98",
    "rays --help": "be5bcb4d0f9662fab8c6e079d99004318c2b12419775353b9c0529f940187ee2",
    "vertices --help": "5abffb6f86eb1c328b45776d54f387a136b71836c106dad6e0f0ec1561459e00",
    "check --help": "a1e5520fa9e9c5d673c4124ac339ab81851d055822d53bfa6d20dcfce1b94ba7",
    "census --help": "3c12ecb66c497976009d39d4dead8beb1782dd4fcd447824be388f5be8e6101f",
    "bogus --type A --rank 2": "2afc37a54260e184115ff65c224add414b4a0b65ee7737f9438f94b12b6f6870",
    "check --type A --rank 2 --lambda 1,1":
        "fc199338cdcbbe8a08d23957bea557048d5be84be800c6b469227d56d2bbbe5c",
    "rays --type Z --rank 2": "9c63c6e285666b39103d0c3f13376fadad79c4054a0c59d81999941130226ffe",
    "rays --type A --rank x": "d1b8a492f8cbc0addaf34ddfed6ec69771ade59510c6ee7d2374245fb96a8b75",
    "check --type A --rank 2 --lam 1,1 --mu 0,0":
        "4b8de2037a34d93b47f12b51d8c8d68800a28a1dbb01b48eccb101a7c3b20de5",
    "vertices --type A --rank 2 --lambda=--":
        "265b66900e2dcfaa2e91b43a50981e2c696d5298f8c513cdd3bdee0cc3d663f2",
    "check --type A --rank 2 --lambda 1,1 --mu 0,0 --oracle=yes":
        "e362c7c6ee8994c945da0f960b7e41046ea480db35a43f8154c3685cef9cd895",
    "rays --type A --rank 2 -- --node 1":
        "49905c61fe010150bdd47bb9bb8be2fe357d572d1d90e474252168bfe8464d50",
    "census --max-rank 2 extra":
        "3161c13511948a884c72043a8879fda3f27de4a920096c6b10065585adccf775",
    "check --type A --rank 2 --lambda 1,1 --mu -1,2":
        "0848ffa7664bb2c3c9d6a8d01a4308266d7ec987893a91025b6e57d5285f1e18",
}


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), whether it returns or exits."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def test_help_and_usage_bytes_are_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal width
    got = {}
    for line in PINNED_USAGE_SHA256:
        code, out, err = _outcome(capsys, shlex.split(line))
        got[line] = hashlib.sha256(f"{code}\n{out}{err}".encode()).hexdigest()
    assert got == PINNED_USAGE_SHA256


INTERLEAVED = [
    ("check", "--type", "B", "--rank", "3", "--lambda", "1,0,1", "--mu", "0,0,1",
     "--oracle", "--format", "json"),
    ("rays", "--type", "C", "--rank", "3", "--format", "pretty"),
    ("rays", "--type", "C", "--rank", "3", "--format", "xml"),  # usage error
    ("vertices", "--type", "G", "--rank", "2", "--lambda", "1,1", "--format", "tsv"),
    # the first call's Freudenthal table, kept on B3, answers this one
    ("check", "--type", "B", "--rank", "3", "--lambda", "1,0,1", "--mu", "1,0,1",
     "--oracle", "--format", "pretty"),
]


def test_interleaved_calls_match_fresh_processes(capsys, monkeypatch):
    # one parser serves every call of a process; no call may see another's state
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
    env = dict(os.environ, PYTHONPATH=str(Path(kostka.__file__).parents[1]))
    alone = []
    for argv in INTERLEAVED:
        proc = subprocess.run([sys.executable, "-m", "kostka.cli", *argv],
                              capture_output=True, text=True, env=env)
        alone.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in alone] == [0, 0, 2, 0, 0]
    for argv, expect in zip(INTERLEAVED + INTERLEAVED[:1], alone + alone[:1]):
        if expect[0] == 2:
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            code = exc.value.code
        else:
            code = main(list(argv))
        assert (code, *capsys.readouterr()) == expect, argv


# ---------------------------------------------------------------- argv fast path

def _subparsers():
    root = build_parser()
    return next(a for a in root._actions if isinstance(a, argparse._SubParsersAction)).choices


def _options(sub):
    return [a for a in sub._actions if type(a) is not argparse._HelpAction]


def _argparse(argv):
    """build_parser().parse_args(argv), or None where it exits."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return build_parser().parse_args(argv)
    except SystemExit:
        return None


def test_options_are_plain_stores_or_flags():
    # _COMMANDS describes these two kinds; an option of another kind must be modelled or declined
    root = build_parser()
    assert {type(a) for a in root._actions} == {
        argparse._HelpAction, argparse._VersionAction, argparse._SubParsersAction}
    for sub in _subparsers().values():
        options = _options(sub)
        for a in options:
            assert (type(a) is argparse._StoreAction and a.nargs is None
                    or type(a) is argparse._StoreTrueAction), a
            assert not (a.type and isinstance(a.default, str)), a  # argparse would convert it
        assert len({a.dest for a in options}) == len(options)


_VALUES = ["A", "E", "Z", "a", "json", "tsv", "pretty", "xml", "3", "6", " 3", "+3", "3.0",
           "\u0663", "", "-1", "-1,2", "-1, 2", "1,0,1", "0,0,1", "1/2,1,0", "--", "-h", "x", "a=b"]
_JUNK = ["-h", "--help", "--version", "--", "--lam", "--fo", "--ora", "--bogus", "extra", "-",
         "-x", "-1"]


@st.composite
def _argvs(draw):
    """A command and its options, each as '--opt value' or '--opt=value' with a
    value that is often valid, then sometimes a duplicate, a dropped or a
    swapped token, or a token of _JUNK or _VALUES anywhere."""
    subs = _subparsers()
    command = draw(st.sampled_from(sorted(subs)))
    argv = [command]
    for a in draw(st.permutations(_options(subs[command]))):
        if not (a.required or draw(st.booleans())):
            continue
        opt = a.option_strings[-1]
        if a.nargs == 0:
            argv.append(opt if draw(st.integers(0, 9)) else f"{opt}={draw(st.sampled_from(_VALUES))}")
            continue
        good = list(a.choices) if a.choices else ["3", "2"] if a.type else ["1,0,1", "0,1"]
        value = draw(st.sampled_from(good) if draw(st.integers(0, 3)) else st.sampled_from(_VALUES))
        argv += [f"{opt}={value}"] if draw(st.booleans()) else [opt, value]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(argv)))
        kind = draw(st.sampled_from(["junk", "value", "dup", "drop", "command"]))
        if kind == "junk":
            argv.insert(k, draw(st.sampled_from(_JUNK)))
        elif kind == "value":
            argv.insert(k, draw(st.sampled_from(_VALUES)))
        elif kind == "command":
            argv.insert(k, draw(st.sampled_from(sorted(subs))))
        elif argv and k < len(argv):
            if kind == "dup":
                argv.append(argv[k])
            else:
                del argv[k]
    return argv


@settings(max_examples=600, deadline=None)
@given(_argvs())
def test_fast_args_are_argparse_or_nothing(argv):
    fast = _fast_args(argv)
    if fast is not None:
        expect = _argparse(argv)
        assert expect is not None and vars(fast) == vars(expect), argv


@pytest.mark.parametrize("argv", [
    ["check", "--type", "A", "--rank", "2", "--lambda", "1,1", "--mu", "-1,2"],
    ["check", "--type", "A", "--rank", "2", "--lambda=1,1", "--mu=2,-1", "--oracle=yes"],
    ["check", "--type", "A", "--rank", "2", "--lam", "1,1", "--mu", "0,0"],
    ["check", "--type", "A", "--rank", "2", "--lambda", "1,1", "--mu", "0,0", "--mu", "1,1"],
    ["check", "--type", "A", "--rank", "2", "--lambda", "1,1", "--mu", "-1, 2"],
    ["rays", "--type", "A", "--rank", "3", "--node", "-1"],
    ["rays", "--type", "A", "--rank", "3.0"],
    ["rays", "--type", "A", "--rank", "3", "--", "--node", "1"],
    ["vertices", "--type", "A", "--rank", "2", "--lambda=--"],
    ["census", "--version"], ["census", "-h"], ["--version"], ["census", "extra"], [],
])
def test_fast_args_decline_what_argparse_must_read(argv):
    assert _fast_args(argv) is None


def _plain_argvs():
    """Every command with each of its options, its required ones too, valid
    values, spelled '--opt value' and then '--opt=value'."""
    for command, sub in sorted(_subparsers().items()):
        options = _options(sub)
        for extra in options:
            argv_sep, argv_eq = [command], [command]
            for a in options:
                if a.required or a is extra:
                    if a.nargs == 0:
                        argv_sep.append(a.option_strings[-1])
                        argv_eq.append(a.option_strings[-1])
                        continue
                    value = next(iter(a.choices)) if a.choices else "1" if a.type else "1,0"
                    argv_sep += [a.option_strings[-1], value]
                    argv_eq.append(f"{a.option_strings[-1]}={value}")
            yield argv_sep
            yield argv_eq


def _readme_argvs():
    readme = Path(kostka.__file__).parents[2] / "README.md"
    for line in readme.read_text().splitlines():
        if line.startswith("kostka "):
            yield shlex.split(line.split("|")[0].split("#")[0])[1:]


def test_plain_argv_takes_the_fast_path():
    plain = list(_plain_argvs())
    readme = list(_readme_argvs())
    assert len(plain) >= 2 * 4 and len(readme) >= 4
    for argv in plain + readme + [list(argv) for argv in INTERLEAVED]:
        fast = _fast_args(argv)
        expect = _argparse(argv)
        assert (fast is None) == (expect is None), argv  # only INTERLEAVED's usage error exits
        assert fast is None or vars(fast) == vars(expect), argv


def test_main_parses_plain_argv_without_argparse(capsys, monkeypatch):
    expect = [run(capsys, *argv) for argv in INTERLEAVED[:2]]
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", None)  # a call raises TypeError
    assert [run(capsys, *argv) for argv in INTERLEAVED[:2]] == expect


PLAIN = [
    ["rays", "--type", "C", "--rank", "3", "--node=2", "--format", "json"],
    ["vertices", "--type", "G", "--rank", "2", "--lambda", "1,1", "--format=tsv"],
    ["check", "--type", "B", "--rank", "3", "--lambda", "1,0,1", "--mu", "0,0,1", "--oracle"],
    ["census", "--max-rank", "3"],
]

# in a fresh interpreter: the exit codes of main on each argv of the json list
# sys.argv[2], the argparse modules loaded after them, and those loaded after --help
PLAIN_MODULES = """
import io, json, sys
from contextlib import redirect_stdout
sys.path.insert(0, sys.argv[1])
from kostka.cli import main

def loaded():
    return [m for m in ("argparse", "gettext") if m in sys.modules]

with redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[2])]
    plain = loaded()
    try:
        main(["--help"])
    except SystemExit:
        pass
print(json.dumps([codes, plain, loaded()]))
"""


# in a fresh interpreter: after the plain argvs of the json list sys.argv[2], run in
# order, and then after `check --oracle`, the exit codes and levi, oracle and weyl loaded
LAZY_MODULES = """
import io, json, sys
from contextlib import redirect_stdout
sys.path.insert(0, sys.argv[1])
from kostka.cli import main

def loaded():
    return [m for m in ("kostka.levi", "kostka.oracle", "kostka.weyl") if m in sys.modules]

with redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[2])]
    plain = loaded()
    code = main(["check", "--type", "A", "--rank", "2", "--lambda", "1,1", "--mu", "0,0",
                 "--oracle"])
print(json.dumps([codes, plain, code, loaded()]))
"""


def test_a_request_loads_only_the_modules_it_reads():
    # no request reads levi; only check --oracle reads oracle, and weyl is read by none
    argvs = [argv for argv in _readme_argvs() if "--oracle" not in argv] + [
        ["rays", "--type", "E", "--rank", "6", "--format", fmt] for fmt in ("json", "tsv")] + [
        ["rays", "--type", "B", "--rank", "4", "--node", "2"],
        ["vertices", "--type", "D", "--rank", "5", "--lambda", "1,0,1,0,1", "--format", "json"],
        ["check", "--type", "C", "--rank", "3", "--lambda", "1,0,1", "--mu", "0,0,1"],
        ["census", "--max-rank", "3"]]
    src = str(Path(kostka.__file__).parents[1])
    for flags in (["-I"], ["-I", "-S"]):
        proc = subprocess.run([sys.executable, *flags, "-c", LAZY_MODULES, src,
                               json.dumps(argvs)], capture_output=True, text=True, check=True)
        assert json.loads(proc.stdout) == [[0] * len(argvs), [], 0, ["kostka.oracle"]], flags


def test_a_plain_request_loads_no_argparse():
    # with site and without it: argparse (and its gettext) is loaded for help, not before
    argvs = list(_readme_argvs()) + PLAIN
    src = str(Path(kostka.__file__).parents[1])
    for flags in (["-I"], ["-I", "-S"]):
        proc = subprocess.run([sys.executable, *flags, "-c", PLAIN_MODULES, src,
                               json.dumps(argvs)], capture_output=True, text=True, check=True)
        assert json.loads(proc.stdout) == [[0] * len(argvs), [], ["argparse", "gettext"]], flags


# Valid ranks stay at most 6 and a given --max-rank at most 3 (census's default
# of 8 takes 40 ms): a large valid rank is answered at its full cost, which
# nothing bounds yet (`rays --type A --rank 200` runs past 60 s; refusing it early
# is an open item of ROADMAP.md).  With the type letters, ranks 0, -1, 3, 5 and 9
# give A0, E9, F5 and G3 out of bound.
_CONTRACT_VALUES = {
    "--type": list(RANK_BOUNDS),
    "--rank": ["0", "-1", "1", "2", "3", "4", "5", "6", "9"],
    "--node": ["0", "-1", "1", "3", "7"],
    "--max-rank": ["-1", "0", "1", "2", "3"],
}


@st.composite
def _contract_argvs(draw):
    """A command and its options in any order, the required ones mostly, each as
    '--opt value', '--opt=value' or '--opt=--': a rank in or out of bounds, a weight
    often of the rank's length, with tokens well formed or not (1/0, x, empty), or
    a token of _VALUES; then sometimes tokens of _JUNK or _VALUES anywhere."""
    subs = _subparsers()
    command = draw(st.sampled_from(sorted(subs)))
    rank = draw(st.sampled_from(_CONTRACT_VALUES["--rank"]))
    argv = [command]
    for a in draw(st.permutations(_options(subs[command]))):
        opt = a.option_strings[-1]
        odds = 39 if a.required else 1  # a required option is left out once in 40
        if draw(st.integers(0, odds)) == odds:
            continue
        if a.nargs == 0:
            argv.append(f"{opt}={draw(st.sampled_from(_VALUES))}" if draw(st.integers(0, 5)) == 5
                        else opt)
            continue
        kind = draw(st.integers(0, 29))
        if kind == 29:
            argv.append(f"{opt}=--")
            continue
        if kind > 26:  # a --max-rank of 6 is kept out as too long (see above)
            value = draw(st.sampled_from([v for v in _VALUES if v != "6" or opt != "--max-rank"]))
        elif opt in ("--lambda", "--mu"):
            size = int(rank) if int(rank) > 0 and draw(st.integers(0, 3)) else draw(st.integers(0, 7))
            value = ",".join(draw(st.lists(
                st.sampled_from(["0", "1", "2", "1/2"]) | st.sampled_from(["-1", "1/0", "x", ""]),
                min_size=size, max_size=size)))
        else:
            value = rank if opt == "--rank" else draw(st.sampled_from(
                _CONTRACT_VALUES.get(opt) or list(a.choices)))
        argv += [f"{opt}={value}"] if draw(st.booleans()) else [opt, value]
    for _ in range(draw(st.integers(-6, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_JUNK + _VALUES)))
    return argv


# w1 + w2000 and 0: check at rank 2000 answers from one forest solve, at table speed
_W1_WR_2000, _ZERO_2000 = ",".join(["1"] + ["0"] * 1998 + ["1"]), ",".join(["0"] * 2000)


@settings(max_examples=400, deadline=None)
@given(_contract_argvs())
@example(["rays", "--type", "E", "--rank", "9"])
@example(["vertices", "--type", "F", "--rank", "5", "--lambda", "1,0,0,0,0"])
@example(["check", "--type", "G", "--rank", "3", "--lambda", "1,0,0", "--mu", "0,0,0", "--oracle"])
@example(["rays", "--type", "A", "--rank=0"])
@example(["rays", "--type", "A", "--rank=-1", "--node=1"])
@example(["check", "--type", "A", "--rank", "2", "--lambda", "1/0,1", "--mu", "x,"])
@example(["vertices", "--type", "B", "--rank", "3", "--lambda", "1,1"])
@example(["census", "--max-rank=--"])
@example(["check", "--type", "A", "--rank", "2000", "--lambda", _W1_WR_2000, "--mu", _ZERO_2000])
@example(["check", "--type", "D", "--rank", "2000", "--lambda", _ZERO_2000, "--mu", _W1_WR_2000,
          "--format", "json"])
def test_main_answers_every_argv_with_an_exit_code(argv):
    # main returns 0, 1 or 2, or argparse exits 0 (help, version) or 2 (usage): no other
    # exception, and no other exit
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2), argv
            return
    assert type(code) is int and code in (0, 1, 2), argv


def test_main_reads_sys_argv(capsys, monkeypatch):
    for argv in INTERLEAVED[:2]:
        expect = run(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["kostka", *argv])
        code = main()
        assert (code, *capsys.readouterr()) == expect


def test_an_option_valued_dash_dash_is_a_usage_error(capsys):
    # argparse hands '--opt=--' over as [], which no command reads: refused with a usage line
    for command, sub in sorted(_subparsers().items()):
        options = _options(sub)
        for a in options:
            argv = [command]
            for b in options:
                value = next(iter(b.choices)) if b.choices else "1" if b.type else "1,0"
                if b is a or b.required:
                    argv.append(f"{b.option_strings[-1]}={'--' if b is a else value}")
            with pytest.raises(SystemExit) as exc:
                main(argv)
            err = capsys.readouterr().err
            assert exc.value.code == 2, argv
            assert err.startswith("usage: kostka ") and "Traceback" not in err, argv
            assert f"argument {a.option_strings[-1]}: " in err, argv


_UNPRINTABLE = ("error: cannot parse weight '1e4300': Exceeds the limit (4300 digits) for integer "
                "string conversion; use sys.set_int_max_str_digits() to increase the limit\n")


@pytest.mark.parametrize("argv, err", [
    (("vertices", "--type", "A", "--rank", "100000", "--lambda=1"),
     "error: weight '1' has 1 coordinates, expected 100000\n"),
    (("check", "--type", "A", "--rank", "100000", "--lambda=1", "--mu=0"),
     "error: weight '1' has 1 coordinates, expected 100000\n"),
    (("check", "--type", "A", "--rank", "3", "--lambda=1,0,0", "--mu=0,x,0"),
     "error: cannot parse weight '0,x,0': Invalid literal for Fraction: 'x'\n"),
    (("vertices", "--type", "G", "--rank", "3", "--lambda=1"),
     "error: type G needs rank in [2, 2], got 3\n"),
    # a coordinate past Python's int string limit could be read but never printed
    (("vertices", "--type", "A", "--rank", "1", "--lambda", "1e4300"), _UNPRINTABLE),
    (("check", "--type", "A", "--rank", "1", "--lambda", "1", "--mu", "1e4300"), _UNPRINTABLE),
])
def test_a_weight_is_checked_before_the_root_system_is_built(capsys, monkeypatch, argv, err):
    # the type, then each weight, are refused as they always were, and before any Cartan matrix
    def unbuilt(*args):
        raise AssertionError("root_system was called")

    monkeypatch.setattr(kostka.cli, "root_system", unbuilt)
    assert run(capsys, *argv) == (2, "", err)


def test_a_value_beginning_with_a_dash_is_joined_with_equals(capsys):
    head = ("check", "--type", "A", "--rank", "2", "--lambda", "1,1")
    with pytest.raises(SystemExit) as exc:
        main([*head, "--mu", "-1,2"])
    assert exc.value.code == 2
    assert "argument --mu: expected one argument" in capsys.readouterr().err
    assert run(capsys, *head, "--mu=-1,2") == (1, "member: no\n", "")


# ---------------------------------------------------------------- weight tokens

def _weight_by_fraction(text):
    """The coordinates that Fraction reads from comma-separated text, each
    formatted as it is read (so one too long to print is refused), or the
    message of _parse_weight's refusal."""
    try:
        out = []
        for tok in text.split(","):
            out.append(Q(tok.strip()))
            str(out[-1])
        return tuple(out)
    except (ValueError, ZeroDivisionError) as exc:
        return f"cannot parse weight {text!r}: {exc}"


_TOKENS = (st.sampled_from(["0", "1", "12", "007", "\u0663", "\uff17", "\u00b2", "-1", "+2", " 3",
                            "4 ", "\t5", " -6 ", "1/2", "-3/4", "1.5", "1e3", "1_0", "", " ",
                            "1/0", "x", "--1", "-", "+"])
           | st.integers(-10 ** 30, 10 ** 30).map(str)
           | st.text("0123456789+-/._e \u0663", max_size=6))


@settings(max_examples=400, deadline=None)
@given(st.lists(_TOKENS, min_size=1, max_size=4), st.integers(1, 4))
@example(tokens=["1e4300"], rank=1)
@example(tokens=["0.0001e4301", "1e9999"], rank=2)  # printable, then the least exponent
@example(tokens=["0e9999", "-0.5E-9999", "x1e9999"], rank=3)
def test_weights_parse_as_fractions_do(tokens, rank):
    text = ",".join(tokens)
    expect = _weight_by_fraction(text)
    if isinstance(expect, tuple) and len(expect) != rank:
        expect = f"weight {text!r} has {len(expect)} coordinates, expected {rank}"
    try:
        got = _parse_weight(text, rank)
    except ValueError as exc:
        got = str(exc)
    assert got == expect
    if isinstance(expect, tuple):
        assert list(map(str, got)) == list(map(str, expect))


_HUGE = ["0e99999999", "-0E-99999999", "1e10000000", "1e-10000000", "-2.5E+99999999",
         "1e" + "1_" * 3000 + "1"]


def test_a_huge_exponent_never_reaches_fraction(capsys, monkeypatch):
    # Fraction makes 10**exponent first: for these, from seconds to never
    def fraction(text, *args):
        m = re.search(r"[eE][-+]?([\d_]+)\s*$", text) if isinstance(text, str) else None
        if m and len(m[1].replace("_", "").lstrip("0")) > 5:  # an exponent of 10**5 or more
            raise AssertionError(f"Fraction({text[:20]!r}...) makes 10**exponent")
        return Q(text, *args)

    monkeypatch.setattr(kostka.cli, "Fraction", fraction)
    assert _parse_weight("0e99999999,-0E-99999999", 2) == (0, 0)
    for tok in _HUGE[2:]:
        with pytest.raises(ValueError, match="cannot parse weight .*: Exceeds the limit"):
            _parse_weight(tok, 1)
        assert run(capsys, "vertices", "--type", "A", "--rank", "1", f"--lambda={tok}")[0] == 2
    assert run(capsys, "vertices", "--type", "A", "--rank", "1", "--lambda", _HUGE[0]) == (
        0, "slice polytope at lambda = 0  (A1, 1 vertices)\n  levi {}           point 0\n", "")


def test_integer_tokens_parse_with_int():
    assert list(map(type, _parse_weight("1,-1,0,-0,-12", 5))) == [int] * 5
