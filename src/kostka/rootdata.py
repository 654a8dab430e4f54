"""Root systems of the simple types A-G under the Bourbaki numbering.

One convention is fixed here and relied on everywhere else:
``cartan[i][j]`` is the pairing of the i-th simple root against the j-th
simple coroot.  Row i of the Cartan matrix is therefore the i-th simple
root written in fundamental-weight coordinates, and converting a weight
from fundamental-weight coordinates to simple-root coordinates is
multiplication by the inverse transpose of the Cartan matrix.

Weights are plain tuples of rationals: entry k of a fundamental-weight
vector is the pairing against the k-th simple coroot; entry j of a
root-coordinate vector is the coefficient of the j-th simple root.  Node
ids are 1-based in the public API.

A root system is its Dynkin edges (``_edges``), built in O(r): the Cartan entries
off the diagonal are zero except on an edge and the diagonal is all 2s.  A node set's
Dynkin forest is walked once, by ``_forest``, for its components and for a weight's
simple-root coefficients on a Levi, one solve on the forest (``_levi_solve``); the
whole diagram's is walked once per system and kept (``_diagram_forest``), for every
solve on every node and for the symmetrizer.  A weight is moved by a multiple of a
simple root in one Cartan-row step, ``_add_root``, for the positive roots (``_root_walk``),
``root_coords_to_fw``, the Weyl reflections and orbits, the rays' mu = w_i - C^T c and the
one greedy chamber walk, ``_dominant``: the Weyl orbits, the longest element and the
oracle's dominant representatives.  A Levi's Cartan block is inverted, for the rays, by
one shape-keyed routine, ``_levi_inverse``; ``_cartan_block`` lays out a block only for
it or for a caller that reads ``cartan`` or ``sub_cartan``.
No other module reads the Dynkin edge table: they read ``RootSystem.neighbors``.
``root_system`` caches the root systems; what is derived from one is built on first use
and kept on it: the dense ``cartan`` and what ``_per_system`` keeps in ``_memo``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache, wraps
from math import factorial, prod

from . import linalg
from .errors import EmptyNodeSetError, InvariantError, NoSolutionError, UnsupportedRankError

# (lowest rank, highest rank or None for unbounded)
RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_EXCEPTIONAL_WEYL_ORDERS = {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
                            ("F", 4): 1152, ("G", 2): 12}
_EXCEPTIONAL_ROOT_COUNTS = {("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6}


def validate_type(letter: str, rank: int) -> tuple[str, int]:
    """The type as every builder reads it: the letter upper-cased and the rank an int,
    3.0 or True read as 3 or 1.  Raises UnsupportedRankError for an unknown letter, a
    rank that is not an integer (6.5, '3', None) or a rank outside RANK_BOUNDS."""
    letter = str(letter).upper()
    if letter not in RANK_BOUNDS:
        raise UnsupportedRankError(f"unknown type {letter!r}")
    lo, hi = RANK_BOUNDS[letter]
    r = _as_int(rank)
    if r is None or r < lo or (hi is not None and r > hi):
        raise UnsupportedRankError(f"type {letter} needs rank in [{lo}, {hi or 'inf'}], got {rank!r}")
    return letter, r


def supported_types(max_rank: int) -> list[tuple[str, int]]:
    """Every supported (letter, rank) with rank at most max_rank, letters in order."""
    out = []
    for letter, (lo, hi) in RANK_BOUNDS.items():
        top = max_rank if hi is None else min(hi, max_rank)
        out.extend((letter, r) for r in range(lo, top + 1))
    return out


def _edges(letter: str, rank: int) -> list[tuple[int, int, int, int]]:
    """Dynkin edges as (i, j, cartan[i][j], cartan[j][i]), 1-based."""
    chain = [(i, i + 1, -1, -1) for i in range(1, rank)]
    if letter == "A":
        return chain
    if letter == "B":  # last simple root short
        chain[-1] = (rank - 1, rank, -2, -1)
        return chain
    if letter == "C":  # last simple root long
        chain[-1] = (rank - 1, rank, -1, -2)
        return chain
    if letter == "D":
        return [(i, i + 1, -1, -1) for i in range(1, rank - 1)] + [(rank - 2, rank, -1, -1)]
    if letter == "E":
        edges = [(1, 3, -1, -1), (3, 4, -1, -1), (4, 5, -1, -1), (5, 6, -1, -1), (2, 4, -1, -1)]
        edges += [(i, i + 1, -1, -1) for i in range(6, rank)]
        return edges
    if letter == "F":
        return [(1, 2, -1, -1), (2, 3, -2, -1), (3, 4, -1, -1)]
    if letter == "G":
        return [(1, 2, -1, -3)]
    raise UnsupportedRankError(letter)


class RootSystem:
    """A simple root system, built from its Dynkin edges (i, j, cartan[i][j],
    cartan[j][i]), 1-based, and held as ``_entries[i]``, the tuple of node i's
    edges seen from i, (j, cartan[i][j], cartan[j][i]) for each neighbour j,
    ascending, and ``_neighbors[i]``, the tuple of those j, both built in O(r).
    Only this module reads these (the others read ``neighbors``); a dense
    block (``_cartan_block``) is laid out only to be inverted, by the one
    shape-keyed ``_levi_inverse``, or for a caller that reads ``cartan``
    (built on its first read and kept) or ``sub_cartan``."""

    def __init__(self, letter: str, rank: int, edges):
        self.letter = letter
        self.rank = rank
        rows: dict[int, list[tuple[int, int, int]]] = {i: [] for i in range(1, rank + 1)}
        for i, j, cij, cji in edges:
            rows[i].append((j, cij, cji))
            rows[j].append((i, cji, cij))
        self._entries = {i: tuple(sorted(row)) for i, row in rows.items()}
        self._neighbors = {i: tuple([j for j, _, _ in row]) for i, row in self._entries.items()}
        self._memo: dict = {}  # see _per_system

    @cached_property
    def cartan(self) -> tuple[tuple[int, ...], ...]:
        """The Cartan matrix, cartan[i][j] = <alpha_i, alpha_j^vee> 0-based, built on first read."""
        return _cartan_block(self, self.nodes())

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._neighbors[i]

    def nodes(self) -> tuple[int, ...]:
        return tuple(range(1, self.rank + 1))

    def __repr__(self) -> str:
        return f"RootSystem({self.letter}{self.rank})"

    def __eq__(self, other) -> bool:
        return isinstance(other, RootSystem) and (
            (self.letter, self.rank, self._entries) == (other.letter, other.rank, other._entries))

    def __hash__(self) -> int:
        return hash((self.letter, self.rank))


def _per_system(fn):
    """fn(rs, *args), never None, built on the first call and kept on rs (in ``rs._memo``)."""
    @wraps(fn)
    def kept(rs: RootSystem, *args):
        out = rs._memo.get((fn, args))
        if out is None:
            out = rs._memo[fn, args] = fn(rs, *args)
        return out
    return kept


def _cartan_block(rs: RootSystem, nodes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The Cartan block C_L on the ascending `nodes`, read from the Dynkin edges:
    2 on the diagonal, the entries of the edges inside L, 0 elsewhere."""
    at = {n: a for a, n in enumerate(nodes)}
    rows = [[0] * len(nodes) for _ in nodes]
    for a, n in enumerate(nodes):
        rows[a][a] = 2
        for m, x, _ in rs._entries[n]:
            if m in at:
                rows[a][at[m]] = x
    return tuple(map(tuple, rows))


def _levi_inverse(rs: RootSystem, nodes: tuple[int, ...], inverses: dict) -> tuple[tuple, int]:
    """The integer inverse (adj, det) of C_L^T on the Levi of `nodes` (ascending),
    (C_L^T)^-1 = adj / det (``linalg.solve_unique``): the one inverse of a Cartan block,
    whose columns are the rays' c and which the pretty ray block prints.

    ``inverses`` maps each block already inverted to its result, keyed by the Levi's
    shape: |L| and its internal edges relabelled by position, each with its two Cartan
    entries, read in O(|L|) from the Dynkin edges.  The diagonal is all 2s and the other
    entries are zero off the edges, so the shape fixes the block: Levis of one shape
    share it, and only on a miss is C_L^T laid out (``_cartan_block``) and inverted.
    Raises InvariantError if it is singular or det is not positive: no root system
    allows either."""
    at = {n: a for a, n in enumerate(nodes)}
    key = (len(nodes), *[(a, at[m], x, y) for a, n in enumerate(nodes)
                         for m, x, y in rs._entries[n] if m > n and m in at])
    out = inverses.get(key)
    if out is None:
        try:
            out = linalg.solve_unique(tuple(zip(*_cartan_block(rs, nodes))))
        except NoSolutionError:
            out = (), 0
        if out[1] <= 0:
            raise InvariantError(f"Levi {nodes} of {rs} has a singular Cartan matrix "
                                 "or one of negative determinant")
        inverses[key] = out
    return out


def _forest(rs: RootSystem, nodes: tuple[int, ...]):
    """(order, parent, edge, leaving): the one walk of the Dynkin forest on the ascending
    `nodes`, by position in `nodes`.  `order` has parents first, each tree one run from its
    least node; parent[u] is -1 at a root; edge[v] is the edge (y, C[x][y], C[y][x]) from
    the parent's node x to v's node y, as ``_entries`` holds it; `leaving` holds (u, edge)
    for each edge from u's node to a node outside the set."""
    entries, at = rs._entries, dict(zip(nodes, range(len(nodes))))
    parent, order, edge, leaving = [None] * len(nodes), [], [None] * len(nodes), []
    for root in range(len(nodes)):
        if parent[root] is None:
            parent[root], stack = -1, [root]
            while stack:  # depth first: a node is appended before the children it pushes
                order.append(u := stack.pop())
                for e in entries[nodes[u]]:
                    v = at.get(e[0])
                    if v is None:
                        leaving.append((u, e))
                    elif parent[v] is None:
                        parent[v], edge[v] = u, e
                        stack.append(v)
    return order, parent, edge, leaving


@_per_system
def _diagram_forest(rs: RootSystem):
    """``_forest`` on every node, walked once per root system and kept on it, for every
    solve on the whole diagram (``_levi_solve``) and the symmetrizer; a Levi's forest is
    walked afresh on each solve, so no forest is kept per piece."""
    return tuple(map(tuple, _forest(rs, rs.nodes())))


def _levi_solve(rs: RootSystem, values, nodes: tuple[int, ...]) -> tuple[list[int], int, dict[int, int]]:
    """C_L^T c = values on the Levi L of `nodes` (ascending), solved in integers:
    c's numerators over d, in the order of `nodes`, d, and the pairings
    sum_n c_n C[n][k] at L's outside neighbours k, keyed by k.  `values` is the
    right-hand side on L in the order of `nodes`, ints or Fractions.

    The integers of the adjugate formula, c = adj (m values) and d = det C_L m
    with m the lcm of the values' denominators, in O(|L|) with no block built:
    each tree of L's Dynkin forest is eliminated from its leaves to its
    smallest node, an order with no fill-in (Parter, SIAM Rev. 3, 1961).  Node
    u keeps its subtree's determinant D_u, the product P_u of its children's D
    and its right-hand side B_u with them eliminated; c is substituted back
    from the roots over det = the product of the roots' D, dividing exactly
    by each D_u.  The pairings are summed over the edges from L to the nodes
    outside it, each seen once by the walk that finds the forest (``_forest``, or
    on every node the walk kept on rs, ``_diagram_forest``).
    For a weight lam read on L, lam - C^T c / d is zero on L, lam_k - pairing / d
    at each outside neighbour k and lam elsewhere; on every node there are no
    pairings, and c / d are lam's simple-root coefficients.  Raises
    InvariantError if some D_u, a principal minor of C_L, is not positive.
    """
    b, m = linalg._cleared(list(values))
    # `nodes` are distinct nodes of rs: all of them when there are rank of them
    order, parent, edge, leaving = (_diagram_forest(rs) if len(nodes) == rs.rank
                                    else _forest(rs, nodes))
    dets, prods, det = [2] * len(order), [1] * len(order), 1
    for v in reversed(order):  # leaves first: v's children are folded into it
        d, u = dets[v], parent[v]
        if d <= 0:
            raise InvariantError(f"Levi {nodes} of {rs} has a Cartan minor that is not positive")
        if u < 0:
            det *= d
            continue
        _, xy, yx = edge[v]  # C_L^T[u][v] = C[y][x]
        p = prods[u]
        dets[u] = dets[u] * d - yx * xy * prods[v] * p
        b[u], prods[u] = b[u] * d - yx * b[v] * p, p * d
    c = [0] * len(order)
    for v in order:  # roots first: D_v c_v + P_v C_L^T[v][u] c_u = B_v, over det
        u = parent[v]
        e = edge[v][1] * prods[v] * c[u] if u >= 0 else 0
        c[v] = (b[v] * det - e) // dets[v]
    pairings: dict[int, int] = {}
    for u, (y, a, _) in leaving:
        pairings[y] = pairings.get(y, 0) + c[u] * a
    return c, det * m, pairings


def _weight(rs: RootSystem, w, levi: tuple[int, ...] | None = None) -> tuple:
    # where weights enter the package: w read once, as a tuple of one coordinate per node of
    # rs, or of its Levi on `levi` in local coordinates (zip would cut a short one short),
    # each int or Fraction as it is and any other entry made a Fraction
    w = tuple(w)
    n = rs.rank if levi is None else len(levi)
    if len(w) != n:
        owner = rs if levi is None else f"the Levi {levi} of {rs}"
        raise ValueError(f"a weight of {owner} has {n} coordinates, got {len(w)}")
    if set(map(type, w)) <= {int, Fraction}:
        return w
    return tuple(x if type(x) in (int, Fraction) else Fraction(x) for x in w)


@lru_cache(maxsize=None)
def root_system(letter: str, rank: int) -> RootSystem:
    """Build the root system of the given type under the Bourbaki numbering: one object
    per type as ``validate_type`` reads it, so ("a", 3) gives the system of ("A", 3)."""
    read = validate_type(letter, rank)
    if read != (letter, rank):  # another spelling of the letter: the cached system of `read`
        return root_system(*read)
    return RootSystem(*read, _edges(*read))


def _as_int(x) -> int | None:
    # x as an int where it is one in value: 2.0 and True are, and 1.5, '2' or None are not
    # (int() would cut 1.5 down to 1 and read '2' as 2)
    try:
        i = int(x)
    except (TypeError, ValueError, OverflowError):
        return None
    return i if i == x else None


def _node_id(n) -> int:
    i = _as_int(n)
    if i is None:
        raise ValueError(f"node ids must be integers: {n!r}")
    return i


def node_set(rs: RootSystem, nodes) -> tuple[int, ...]:
    out = tuple(sorted(set(map(_node_id, nodes))))
    if out and (out[0] < 1 or out[-1] > rs.rank):
        raise ValueError(f"node ids must lie in 1..{rs.rank}: {out}")
    return out


def _node(rs: RootSystem, i) -> int:
    # one node id, read as node_set reads one, then its range
    n = _node_id(i)
    if not 1 <= n <= rs.rank:
        raise ValueError(f"node {i} out of range 1..{rs.rank}")
    return n


def rho(rs: RootSystem) -> tuple[int, ...]:
    """Sum of the fundamental weights: the all-ones coordinate vector."""
    return (1,) * rs.rank


def fundamental_weight(rs: RootSystem, i: int) -> tuple[int, ...]:
    i = _node(rs, i)
    return tuple(int(j == i - 1) for j in range(rs.rank))


def is_dominant(w) -> bool:
    return all(x >= 0 for x in w)


def fw_to_root_coords(rs: RootSystem, w) -> linalg.Vec:
    """Simple-root coefficients of a weight given in fundamental-weight coordinates:
    ``_levi_solve`` on every node, in O(rank)."""
    c, d, _ = _levi_solve(rs, _weight(rs, w), rs.nodes())
    return tuple(Fraction(n, d) for n in c)


def root_coords_to_fw(rs: RootSystem, c) -> tuple:
    """Fundamental-weight coordinates of a combination of simple roots."""
    c = _weight(rs, c)
    out = [c[0] * 0] * rs.rank  # zeros of c's type: a Fraction input gives Fraction output
    for j, x in enumerate(c, 1):
        if x:
            _add_root(rs, out, j, x)
    return tuple(out)


def _add_root(rs: RootSystem, fw: list, j: int, x) -> list:
    # fw + x alpha_j in place, in fw coordinates: row j of the Cartan matrix is 2 at j and
    # nonzero only at j's neighbours.  The one row step: every move of a weight by a simple
    # root is made here (_root_walk, root_coords_to_fw, _dominant, weyl.simple_reflection,
    # weyl.orbit, cone.rays_for_node)
    fw[j - 1] += 2 * x
    for k, a, _ in rs._entries[j]:
        fw[k - 1] += x * a
    return fw


def _dominant(rs: RootSystem, w: list, nodes) -> list:
    # w in place to its W_J-orbit point dominant on J, the nodes given: s_i w = w - w_i alpha_i
    # at the first i of J where w_i < 0.  Each step leaves one positive root of J fewer
    # pairing negatively with w, so there are at most |Phi^+_J|
    while True:
        for i in nodes:
            c = w[i - 1]
            if c < 0:
                _add_root(rs, w, i, -c)
                break
        else:
            return w


def is_connected(rs: RootSystem, nodes) -> bool:
    """Connectivity of the induced Dynkin subgraph; the empty set is not connected."""
    return len(components(rs, nodes)) == 1


def components(rs: RootSystem, nodes) -> tuple[tuple[int, ...], ...]:
    """Connected components of the induced subgraph, ordered by smallest node: the trees
    of the Dynkin forest (``_forest``), one run of its order each."""
    nodes = node_set(rs, nodes)
    order, parent, _, _ = _forest(rs, nodes)
    comps = []
    for u in order:
        if parent[u] < 0:  # a tree's run starts at its root
            comps.append(comp := [])
        comp.append(nodes[u])
    return tuple(map(tuple, map(sorted, comps)))


def _connected_sets(rs: RootSystem, i: int, banned: int = 0) -> list[tuple[int, ...]]:
    """The connected node sets containing i and no node of the mask `banned` (node n
    at 1 << n), unordered, each grown once: a set hands its children only the
    neighbours it has not tried, and the node added last brings its new ones."""
    out = []
    stack = [((i,), 0, banned | 1 << i)]  # (set, untried frontier, nodes it may not add)
    while stack:
        nodes, frontier, seen = stack.pop()
        out.append(tuple(sorted(nodes)))
        frontier |= sum(1 << m for m in rs.neighbors(nodes[-1]) if not seen >> m & 1)
        seen |= frontier
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            stack.append((nodes + (low.bit_length() - 1,), frontier, seen))
    return out


def connected_subsets_containing(rs: RootSystem, i: int) -> list[tuple[int, ...]]:
    """All node sets containing i with connected induced subgraph.

    Grown from {i} by attaching neighbours, each set once (``_connected_sets``),
    so it never touches the full power set; ordered by size then lexicographically.
    """
    return sorted(_connected_sets(rs, _node(rs, i)), key=lambda t: (len(t), t))


def sub_cartan(rs: RootSystem, nodes) -> tuple[tuple[int, ...], ...]:
    return _cartan_block(rs, node_set(rs, nodes))


class LeviFactor(namedtuple("LeviFactor", "letter rank nodes")):
    """One simple factor of a Levi subsystem.

    ``nodes`` are the ambient node ids in ascending order; local node k of
    the factor is ``nodes[k-1]``.
    """

    __slots__ = ()


def _classify(rs: RootSystem, comp: tuple[int, ...]) -> tuple[str, int]:
    # the letter and rank of the connected Levi on `comp`, read from its edges
    k, inside, entries = len(comp), set(comp), rs._entries
    top = max((a * b for n in comp for m, a, b in entries[n] if m in inside), default=0)  # bonds
    if top == 3:
        return ("G", 2)
    if top == 2:  # on a connected Levi the invariant form is the system's up to scale
        d = [symmetrizer(rs)[n - 1] for n in comp]
        if k == 2:
            return ("B", 2) if d[0] > d[1] else ("C", 2)
        longs = k - d.count(min(d))
        if longs == 1:
            return ("C", k)
        if longs == k - 1:
            return ("B", k)
        return ("F", 4)
    degree = {n: sum(1 for m in rs._neighbors[n] if m in inside) for n in comp}
    branch = [n for n in comp if degree[n] == 3]
    if not branch:
        return ("A", k)
    # simply laced with a branch node: D when two or more of its arms are single nodes, else E
    leaves = sum(1 for m in rs._neighbors[branch[0]] if m in inside and degree[m] == 1)
    return ("D", k) if leaves >= 2 else ("E", k)


def levi_factors(rs: RootSystem, nodes) -> tuple[LeviFactor, ...]:
    """Simple factors of the Levi subsystem on the given nodes."""
    comps = components(rs, nodes)  # reads the node set: none for an empty one
    if not comps:
        raise EmptyNodeSetError("Levi factorisation needs a nonempty node set")
    return tuple(LeviFactor(*_classify(rs, comp), comp) for comp in comps)


@_per_system
def _root_walk(rs: RootSystem):
    """(roots, images): the positive roots beta as (root coords, fw coords) in the order
    found, and per root and 0-based node j the index of +-s_j beta.

    The closure of the simple roots under s_j beta = beta - <beta, alpha_j_vee> alpha_j
    where that pairing is negative (Humphreys, §10.2): each positive root other than a
    simple one is such a reflection of a lower one.  The pairings are beta's fw
    coordinates, grown from its parent's by a Cartan row; each step up is an image both
    ways, and every other image of beta is itself (s_j alpha_j = -alpha_j up to sign).
    """
    r = rs.rank
    roots = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    fws = [tuple(_add_root(rs, [0] * r, i, 1)) for i in range(1, r + 1)]  # alpha_i: row i
    index = {a: b for b, a in enumerate(roots)}
    images = [[b] * r for b in range(r)]
    for b, beta in enumerate(roots):  # grows while it is read
        for j, c in enumerate(fws[b]):
            if c < 0:
                gamma = beta[:j] + (beta[j] - c,) + beta[j + 1:]
                g = index.setdefault(gamma, len(roots))
                if g == len(roots):
                    roots.append(gamma)
                    fws.append(tuple(_add_root(rs, list(fws[b]), j + 1, -c)))  # beta's - c alpha_j
                    images.append([g] * r)
                images[b][j], images[g][j] = g, b
    return tuple(zip(roots, fws)), tuple(map(tuple, images))


@_per_system
def positive_roots(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """All positive roots in simple-root coordinates, sorted (``_root_walk``)."""
    return tuple(sorted(a for a, _ in _root_walk(rs)[0]))


def weyl_order(letter: str, rank: int) -> int:
    letter, rank = validate_type(letter, rank)
    if letter == "A":
        return factorial(rank + 1)
    if letter in ("B", "C"):
        return 2**rank * factorial(rank)
    if letter == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return _EXCEPTIONAL_WEYL_ORDERS[(letter, rank)]


def _positive_root_count(letter: str, rank: int) -> int:
    """|Phi^+| in closed form, with no root enumerated (Bourbaki, Plates I-IX)."""
    if letter == "A":
        return rank * (rank + 1) // 2
    if letter in ("B", "C"):
        return rank * rank
    if letter == "D":
        return rank * (rank - 1)
    return _EXCEPTIONAL_ROOT_COUNTS[(letter, rank)]


def parabolic_order(rs: RootSystem, nodes) -> int:
    """Order of the Weyl subgroup generated by the reflections on the given nodes."""
    return prod(weyl_order(*_classify(rs, comp)) for comp in components(rs, nodes))


@_per_system
def symmetrizer(rs: RootSystem) -> tuple[Fraction, ...]:
    """Half squared lengths of the simple roots, short roots normalised to 1: one walk of
    the Dynkin tree (``_diagram_forest``), where |alpha_y|^2 / |alpha_x|^2 = C[y][x] / C[x][y]."""
    order, parent, edge, _ = _diagram_forest(rs)
    d = [Fraction(1)] * rs.rank
    for v in order[1:]:  # parents first, after the one root, node 1
        d[v] = d[parent[v]] * Fraction(edge[v][2], edge[v][1])
    lo = min(d)
    return tuple(x / lo for x in d)
