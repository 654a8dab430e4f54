import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction as Q
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import supported_types
import kostka
from kostka import fundamental_weight, root_coords_to_fw, root_system
from kostka.cli import main


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


def _ray_rows(fmt, letter, r, node):
    """The records printed by `rays --node` in json or tsv, parsed to one form."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["rays", "--type", letter, "--rank", str(r), "--node", str(node),
                     "--format", fmt])
    assert code == 0
    lines = out.getvalue().splitlines()
    if fmt == "json":
        rows = [json.loads(line) for line in lines]
    else:
        header = lines[0].split("\t")
        rows = [dict(zip(header, line.split("\t"))) for line in lines[1:]]
        for row in rows:
            for key in ("rank", "node", "k_primitive", "k_det"):
                row[key] = int(row[key])
            row["levi"] = [int(n) for n in row["levi"].split(",") if n]
            for key in ("lambda_fw", "mu_fw", "c_alpha"):
                row[key] = row[key].split(",")
    for row in rows:
        for key in ("lambda_fw", "mu_fw", "c_alpha"):
            row[key] = [Q(x) for x in row[key]]
    return rows


@st.composite
def _ray_requests(draw):
    letter, r = draw(st.sampled_from(supported_types(8)))
    return letter, r, draw(st.integers(1, r))


@settings(max_examples=40, deadline=None)
@given(_ray_requests())
def test_rays_json_and_tsv_agree(case):
    json_rows = _ray_rows("json", *case)
    assert json_rows == _ray_rows("tsv", *case)
    assert len(json_rows) > 1 and json_rows[0]["levi"] == []


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


def test_check_rational_input(capsys):
    code, out, _ = run(capsys, "check", "--type", "A", "--rank", "1",
                       "--lambda", "1/2", "--mu", "1/2", "--format", "json")
    assert code == 0
    assert json.loads(out)["member"]


def test_census_small(capsys):
    code, out, _ = run(capsys, "census", "--max-rank", "2", "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split("\t") == ["type", "rank", "enumerated", "formula", "match"]
    rows = {tuple(l.split("\t")[:2]): l.split("\t")[2:] for l in lines[1:]}
    assert rows[("G", "2")] == ["6", "6", "yes"]
    assert set(rows) == {("A", "1"), ("A", "2"), ("B", "2"), ("C", "2"), ("G", "2")}


def test_census_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("KOSTKA_MAX_RANK", "1")
    code, out, _ = run(capsys, "census", "--max-rank", "4", "--format", "tsv")
    assert code == 0
    assert [l.split("\t")[:2] for l in out.splitlines()[1:]] == [["A", "1"]]


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


INTERLEAVED = [
    ("check", "--type", "B", "--rank", "3", "--lambda", "1,0,1", "--mu", "0,0,1",
     "--oracle", "--format", "json"),
    ("rays", "--type", "C", "--rank", "3", "--format", "pretty"),
    ("rays", "--type", "C", "--rank", "3", "--format", "xml"),  # usage error
    ("vertices", "--type", "G", "--rank", "2", "--lambda", "1,1", "--format", "tsv"),
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
    assert [code for code, _, _ in alone] == [0, 0, 2, 0]
    for argv, expect in zip(INTERLEAVED + INTERLEAVED[:1], alone + alone[:1]):
        if expect[0] == 2:
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            code = exc.value.code
        else:
            code = main(list(argv))
        assert (code, *capsys.readouterr()) == expect, argv
