"""Seeded request streams for the three workloads.

A stream is an endless sequence of blocks.  Every block holds the same
strata (type, rank, format and request kind) in a seeded order with seeded
free parameters, so a run made of whole blocks has the same mix on every
seed and only the drawn values differ.  Values that set most of a
request's cost are not drawn per seed: the nodes of rays requests and the
weights of verify's oracle checks (see ``rays_block`` and ``verify_block``).
Block k's draws come from a generator seeded by (workload, seed, k), so
block k is the same whatever came before it.

Why these workloads:
- rays: ray tables per fundamental weight for every type at ranks 2-16,
  at three nodes spread over the diagram.
  Nearly all work is Levi solves and determinants, plus `invert` in pretty
  mode; few large solves per request.
- slices: slice vertices at ranks 3-9 for regular, sparse and rational
  lambda.  The current enumeration solves all 2^r node sets whatever lambda
  is; sparse lambda has few vertices, so it shows wasted solves, and
  regular lambda is the case where output sensitivity cannot help.
- verify: membership, extremality and oracle checks of single pairs at
  rank <= 5 plus E6, F4 and G2, and library cross-checks.  Many tiny
  `rank` calls and failing `solve_unique` calls; carries almost all of the
  oracle, Weyl and Levi work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

import refmath as R

WORKLOADS = ("rays", "slices", "verify")
FORMATS = ("json", "tsv", "pretty")
# kostka.oracle.DEFAULT_DIM_CAP: larger representations are refused with exit 2
DIM_CAP = 10**5

# timed seconds of one block for the seed program at the reference speed
# (see hostspeed) with Python 3.11; run.py turns --seconds into a number of
# blocks with it
BLOCK_SECONDS = {"rays": 17.0, "slices": 12.5, "verify": 0.65}

RAYS_TYPES = R.type_ranks(2, 16)
SLICES_TYPES = R.type_ranks(3, 9)
VERIFY_TYPES = R.type_ranks(1, 5) + [("E", 6)]


@dataclass(frozen=True)
class Item:
    """One request.  CLI requests carry argv; library cross-checks carry
    their inputs in params.  ``kind`` selects the check."""

    kind: str
    letter: str
    rank: int
    argv: tuple = ()
    params: tuple = ()


def weight_arg(w) -> str:
    return ",".join(str(Fraction(x)) for x in w)


def _common(letter, r, fmt) -> list[str]:
    return ["--type", letter, "--rank", str(r), "--format", fmt]


def _formats(t: int, index: int, n: int = 3) -> list[str]:
    """n formats for the t-th type of block ``index``, rotating with both,
    so each format meets each stratum (node third, lambda kind) equally
    often in a block and draws do not decide which requests print pretty,
    the slowest format."""
    return [FORMATS[(k + t + index) % len(FORMATS)] for k in range(n)]


def rays_block(rng: random.Random, index: int) -> list[Item]:
    """Each type and rank three times, once per format, at the middle node
    of each third of 1..r.  The seed draws which node gets which format, and
    the order.  The nodes are fixed because a request's cost depends mostly
    on its node: with a drawn node per third, the median latency of a
    one-block run moved by 15% between seeds on the same host."""
    out = []
    for letter, r in RAYS_TYPES:
        nodes = [int((k + 0.5) / 3 * r) + 1 for k in range(3)]
        for node, fmt in zip(nodes, _formats(rng.randrange(3), index)):
            argv = ("rays", *_common(letter, r, fmt), "--node", str(node))
            out.append(Item("rays", letter, r, argv, (node, fmt)))
    rng.shuffle(out)
    return out


def _regular(rng, r):
    return tuple(rng.randint(1, 3) for _ in range(r))


def _sparse(rng, r):
    lam = [0] * r
    for i in rng.sample(range(r), rng.randint(1, min(2, r))):
        lam[i] = rng.randint(1, 3)
    return tuple(lam)


def _rational(rng, r):
    while True:
        lam = []
        for _ in range(r):
            q = rng.randint(1, 3)
            lam.append(Fraction(rng.randint(0, 2 * q), q))
        if any(x.denominator > 1 for x in lam):
            return tuple(lam)


LAMBDA_KINDS = (("regular", _regular), ("sparse", _sparse), ("rational", _rational))


def slices_block(rng: random.Random, index: int) -> list[Item]:
    """Each type and rank once per lambda kind (regular, sparse, rational),
    one format each."""
    out = []
    for t, (letter, r) in enumerate(SLICES_TYPES):
        for (kind, draw), fmt in zip(LAMBDA_KINDS, _formats(t, index)):
            lam = draw(rng, r)
            argv = ("vertices", *_common(letter, r, fmt), f"--lambda={weight_arg(lam)}")
            out.append(Item("vertices", letter, r, argv, (kind, lam, fmt)))
    rng.shuffle(out)
    return out


def _small_dominant(rng, r, weights=(0.45, 0.4, 0.15)):
    """Coordinates in {0, 1, 2}, mostly small."""
    return tuple(rng.choices((0, 1, 2), weights)[0] for _ in range(r))


def _oracle_lambda(rng, letter, r):
    """Nonzero dominant lambda under the dimension cap; oversized draws are
    rejected here, before timing, so the program never refuses one."""
    while True:
        lam = _small_dominant(rng, r)
        if any(lam) and R.weyl_dim(letter, r, lam) <= DIM_CAP:
            return lam


def _non_dominant(rng, letter, r):
    """A Weyl conjugate of a small nonzero dominant weight with a negative
    coordinate."""
    while True:
        nu = _small_dominant(rng, r, (0.6, 0.4, 0.0))
        if any(nu):
            break
    w = R.reflect(letter, r, rng.choice([i for i, x in enumerate(nu, 1) if x]), nu)
    for _ in range(rng.randint(0, 2)):
        v = R.reflect(letter, r, rng.randint(1, r), w)
        if min(v) < 0:
            w = v
    return w


def _ray(rng, letter, r):
    """A ray generator (w_i, w_i - sum c alpha) on a random connected Levi
    through a random node i, computed with the reference solver."""
    i = rng.randint(1, r)
    levi = {i}
    nb = R.neighbours(letter, r)
    while rng.random() < 0.6:
        grow = sorted({j for n in levi for j in nb[n]} - levi)
        if not grow:
            break
        levi.add(rng.choice(grow))
    levi = sorted(levi)
    cm = R.cartan(letter, r)
    # sum_k c_k <alpha_k, alpha_j^vee> = delta_ij for j in the Levi
    sub_t = [[cm[k - 1][j - 1] for k in levi] for j in levi]
    c = R.solve(sub_t, [int(j == i) for j in levi])
    full = [Fraction(0)] * r
    for k, ck in zip(levi, c):
        full[k - 1] = ck
    lam = tuple(Fraction(int(j == i)) for j in range(1, r + 1))
    mu = tuple(a - b for a, b in zip(lam, R.root_combination(letter, r, full)))
    return lam, mu


def _check_item(kind, letter, r, lam, mu, oracle, fmt) -> Item:
    argv = ["check", *_common(letter, r, fmt),
            f"--lambda={weight_arg(lam)}", f"--mu={weight_arg(mu)}"]
    if oracle:
        argv.append("--oracle")
    return Item("check", letter, r, tuple(argv), (kind, tuple(lam), tuple(mu), oracle, fmt))


def _lib_item(rng, letter, r, sub) -> Item:
    if sub == "average":
        lam = _small_dominant(rng, r)
        nodes = tuple(n for n in range(1, r + 1) if rng.random() < 0.5)
        return Item("lib", letter, r, (), ("average", lam, nodes))
    if sub == "polytope":
        return Item("lib", letter, r, (), ("polytope", _small_dominant(rng, r)))
    # induce: a pair in the cone of a Levi, lifted directly and via a middle Levi
    levi = tuple(n for n in range(1, r + 1) if rng.random() < 0.6) or (rng.randint(1, r),)
    mid = tuple(n for n in range(1, r + 1) if n in levi or rng.random() < 0.5)
    k = len(levi)
    cm = R.cartan(letter, r)
    lam = tuple(rng.randint(0, 3) for _ in range(k))
    mu = lam
    for _ in range(4):
        c = [rng.randint(0, 1) for _ in range(k)]
        cand = tuple(x - sum(c[a] * cm[levi[a] - 1][levi[b] - 1] for a in range(k))
                     for b, x in enumerate(lam))
        if min(cand) >= 0:
            mu = cand
            break
    return Item("lib", letter, r, (), ("induce", levi, lam, mu, mid))


def verify_block(rng: random.Random, index: int) -> list[Item]:
    """Per type and rank: two oracle checks with small dominant mu, one with
    non-dominant mu, one check of a scaled ray or of the midpoint of two
    rays, and one library cross-check, the sub-kind rotating with the block
    (the polytope cross-check only at rank <= 4).

    The weights of the oracle checks depend on the block index, not on the
    seed.  They set most of a request's cost (the part of the multiplicity
    table between lambda and mu), the heaviest requests of the stream are
    oracle checks, and drawn per seed they moved the p90 latency of a run by
    17% between seeds on the same host."""
    out = []
    for t, (letter, r) in enumerate(VERIFY_TYPES):
        fixed = random.Random(f"verify-lambda:{letter}{r}:{index}")
        fmts = _formats(t, index, 4)
        for f in fmts[:2]:
            lam = _oracle_lambda(fixed, letter, r)
            mu = _small_dominant(fixed, r, (0.7, 0.3, 0.0))
            out.append(_check_item("oracle-dominant", letter, r, lam, mu, True, f))
        lam = _oracle_lambda(fixed, letter, r)
        out.append(_check_item("oracle-nondominant", letter, r, lam,
                               _non_dominant(fixed, letter, r), True, fmts[2]))
        if (index + t) % 2:
            k = rng.randint(1, 3)
            lam, mu = _ray(rng, letter, r)
            out.append(_check_item("ray", letter, r, [k * x for x in lam],
                                   [k * x for x in mu], False, fmts[3]))
        else:
            (l1, m1), (l2, m2) = _ray(rng, letter, r), _ray(rng, letter, r)
            if (l1, m1) == (l2, m2):
                m2 = l2  # the ray (w_i, w_i) is another generator
            out.append(_check_item("midpoint", letter, r,
                                   [(a + b) / 2 for a, b in zip(l1, l2)],
                                   [(a + b) / 2 for a, b in zip(m1, m2)], False, fmts[3]))
        subs = ("average", "polytope", "induce") if r <= 4 else ("average", "induce")
        out.append(_lib_item(rng, letter, r, subs[(index + t) % len(subs)]))
    rng.shuffle(out)
    return out


def block(workload: str, seed: int, index: int) -> list[Item]:
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "rays":
        return rays_block(rng, index)
    if workload == "slices":
        return slices_block(rng, index)
    if workload == "verify":
        return verify_block(rng, index)
    raise ValueError(f"unknown workload {workload!r}")


def blocks(workload: str, seed: int):
    """The endless block sequence of a workload."""
    for index in count():
        yield block(workload, seed, index)


def root_systems(workload: str) -> list[tuple[str, int]]:
    """Every (type, rank) a workload's requests use."""
    return {"rays": RAYS_TYPES, "slices": SLICES_TYPES, "verify": VERIFY_TYPES}[workload]
