"""The dominance cone of weight pairs and its faces.

The cone lives in pairs (lam, mu) of fundamental-weight coordinate vectors
and is cut out by 3r linear inequalities: dominance of lam, dominance of
mu, and nonnegativity of every simple-root coefficient of lam - mu.  In
(lam | c), c those coefficients, so that mu = lam - C^T c, each of them is a
unit vector or a unit vector less a column of the Cartan matrix, and
``cone_inequalities`` holds them so, in ints.  Its slice at a fixed dominant
lam is a polytope whose vertices are computed here by an exact linear solve
over a Levi subsystem; the extremal rays of the cone itself are enumerated
per fundamental weight from the connected Dynkin subdiagrams through that
node.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, reduce
from math import comb, gcd, lcm
from operator import or_

from . import linalg
from .errors import CapExceededError, InvariantError, NotDominantError, NotInConeError
from .rootdata import (RootSystem, _add_root, _connected_sets, _levi_inverse, _levi_solve,
                       _node, _per_system, _weight, connected_subsets_containing,
                       fundamental_weight, is_dominant, node_set, validate_type)


class LinearForm(namedtuple("LinearForm", "label coeffs")):
    """One defining inequality, as a linear functional on (lam | c), c the simple-root
    coefficients of lam - mu, with int coefficients."""

    __slots__ = ()


@_per_system
def cone_inequalities(rs: RootSystem) -> tuple[LinearForm, ...]:
    """The 3r defining inequalities of the cone on (lam | c), so that mu = lam - C^T c, in
    a fixed order: dominance of lam, the unit vectors of lam; dominance of mu, e_i less
    column i of the Cartan matrix on the c half; then c >= 0, the unit vectors of c.  Read
    from ``rs.cartan``: no inverse is built."""
    r, cartan = rs.rank, rs.cartan
    labels = [f"{name}({i})" for name in ("dom-lambda", "dom-mu", "rootcoef") for i in rs.nodes()]
    units = [tuple(int(i == j) for j in range(2 * r)) for i in range(2 * r)]
    dom_mu = [units[i][:r] + tuple(-row[i] for row in cartan) for i in range(r)]
    return tuple(map(LinearForm, labels, units[:r] + dom_mu + units[r:]))


def _form_values(rs: RootSystem, lam: tuple, mu: tuple) -> list:
    # the values of the cone_inequalities at (lam | c), lam and mu as _weight reads them,
    # times m > 0 in ints, so with the forms' signs: m lam, m mu, then c's numerators from one
    # solve for m (lam - mu) on the Dynkin forest of every node; m is 1 for an integer pair
    x, _ = linalg._cleared(lam + mu)
    return [*x, *_levi_solve(rs, [a - b for a, b in zip(x, x[rs.rank:])], rs.nodes())[0]]


def cone_contains(rs: RootSystem, lam, mu) -> bool:
    """Membership test: both weights dominant, lam - mu nonnegative on simple roots."""
    return all(v >= 0 for v in _form_values(rs, _weight(rs, lam), _weight(rs, mu)))


def _over(numerators, d: int, half: int) -> linalg.Vec:
    # the first (half 0) or second (half 1) half of the numerators as Fractions over d
    r = len(numerators) // 2
    return tuple(Fraction(n, d) for n in numerators[half * r:(half + 1) * r])


class Vertex(namedtuple("Vertex", "levi numerators denominator")):
    """A vertex of a slice polytope with its minimal defining node set.

    Held in integers: ``numerators`` are the rank numerators of the point,
    then those of ``c_alpha``, all over the one ``denominator`` > 0 (not
    necessarily least).  ``point`` and ``c_alpha`` are made from them as
    ``Fraction`` tuples on first read; ``c_alpha`` holds the simple-root
    coefficients of lam - point, supported exactly on ``levi``.  Equality
    and hash are by value: by levi, point and c_alpha, so unlike the other
    records a Vertex is not equal to the tuple of its fields.
    """

    @cached_property
    def point(self) -> linalg.Vec:
        return _over(self.numerators, self.denominator, 0)

    @cached_property
    def c_alpha(self) -> linalg.Vec:
        return _over(self.numerators, self.denominator, 1)

    def _value(self) -> tuple:
        return self.levi, self.point, self.c_alpha

    def __eq__(self, other):
        return isinstance(other, Vertex) and self._value() == other._value()

    def __ne__(self, other):  # else tuple's, by the fields
        return not self == other

    def __hash__(self):
        return hash(self._value())

    # no order: a tuple's, by the fields, would disagree with ==
    __lt__ = __le__ = __gt__ = __ge__ = lambda self, other: NotImplemented


# the most node sets, hence vertices, polytope_vertices enumerates for one weight
VERTEX_CAP = 1 << 16


def _require_dominant(lam) -> None:
    # the one refusal of a non-dominant weight, printed as the CLI reads one: -1,1/2
    if not is_dominant(lam):
        raise NotDominantError(f"weight {','.join(map(str, lam))} is not dominant")


def _pieces(rs: RootSystem, lam: linalg.Vec, pieces) -> tuple[list[int], int, list[list]]:
    """The node sets `pieces` (each ascending, nonempty, none adjacent to another
    that one vertex combines it with) solved by ``_levi_solve``, all over one
    denominator D = m lcm(dets), m the lcm of lam's denominators and dets the
    pieces' block determinants: lam's numerators over D then r zeros (the
    numerators of the vertex on no nodes), D, and per piece its patch, the (index,
    numerator) terms that extend a vertex by it when added: c_alpha on it, one per
    node, then less lam on it and its drops at its outside neighbours."""
    r = rs.rank
    x, m = linalg._cleared(lam)  # each piece is solved at m lam on it, with d its det
    solved = [(p, *_levi_solve(rs, [x[n - 1] for n in p], p)) for p in pieces]
    big = lcm(*(d for _, _, d, _ in solved))
    base = [big * y for y in x] + [0] * r
    out = []
    for p, c, d, pairings in solved:
        s = big // d
        out.append([(r + n - 1, s * y) for n, y in zip(p, c)] + [(n - 1, -base[n - 1]) for n in p]
                   + [(k - 1, -s * q) for k, q in pairings.items()])
    return base, big * m, out


def vertex(rs: RootSystem, lam, nodes) -> Vertex:
    """The slice-polytope vertex obtained by zeroing the pairings on `nodes`.

    Solves <x, alpha_i_vee> = 0 for i in `nodes` together with agreement of
    the remaining simple-root coefficients with lam; the unique solution is
    lam minus a combination of the simple roots indexed by `nodes`, solved on
    the Levi's Dynkin forest with no block inverse (``_levi_solve``) and held
    in integers as `polytope_vertices` holds its vertices (``_pieces``).  The
    returned node set is minimal: nodes whose coefficient vanishes are dropped.
    """
    lam = _weight(rs, lam)
    _require_dominant(lam)
    nodes = node_set(rs, nodes)
    out, big, patches = _pieces(rs, lam, [nodes] if nodes else [])
    for i, y in patches[0] if nodes else ():
        out[i] += y
    return Vertex(tuple(n for n in nodes if out[rs.rank + n - 1]), tuple(out), big)


def polytope_vertices(rs: RootSystem, lam) -> tuple[Vertex, ...]:
    """All vertices of the slice polytope at a dominant weight.

    Inverse Cartan matrices of connected types are entrywise positive, so the
    vertices correspond one to one to the node sets S each of whose
    connected components meets the support of lam, and S is the minimal
    defining node set of its vertex.  Each connected piece meeting the
    support is grown once, from its smallest support node and never through
    a smaller one, and solved once on its Dynkin tree in O(|piece|) with no
    block inverse (``_levi_solve``).  The vertex of S is zero on S and lam less
    its components' drops elsewhere; its c_alpha is the sum of theirs.  The S
    are enumerated depth first, each a smaller S plus a piece that neither
    meets nor neighbours it, whose patch (``_pieces``) extends that S's
    numerators, over one denominator every returned Vertex shares (Fractions
    are made only when read); then one sort of the set indices orders them by
    size, then lexicographically, and each Vertex is made once, in that order.
    Raises CapExceededError, before any solve, past VERTEX_CAP node sets.
    """
    lam = _weight(rs, lam)
    _require_dominant(lam)
    pieces: list[tuple[int, ...]] = []
    banned = 0  # the support nodes already grown from
    for i in rs.nodes():
        if lam[i - 1]:
            pieces += _connected_sets(rs, i, banned)
            banned |= 1 << i
    r = rs.rank
    hit = dict.fromkeys(rs.nodes(), 0)  # the pieces on each node, as a bit mask
    for j, p in enumerate(pieces):
        for n in p:
            hit[n] |= 1 << j
    # touch[n]: the pieces on or next to n; later[j]: those after j missing it and its neighbours
    touch = {n: reduce(or_, map(hit.get, rs.neighbors(n)), t) for n, t in hit.items()}
    later = [-2 << j & ~reduce(or_, map(touch.get, p)) for j, p in enumerate(pieces)]
    # each node set as (index of the set it extends, piece added), the empty set first,
    # beside its levi and its key (size << r) - sum of 1 << r - n over it: by size, then lex
    sets, levis, keys = [(0, -1)], [()], [0]
    steps = [(len(p) << r) - sum(1 << r - n for n in p) for p in pieces]
    stack = [(0, (1 << len(pieces)) - 1)]  # (set index, pieces it may be extended by)
    while stack:
        k, free = stack.pop()
        while free:  # lowest piece first; later[j] has no piece at or below j
            low = free & -free
            free ^= low
            j = low.bit_length() - 1
            if len(sets) == VERTEX_CAP:
                raise CapExceededError(f"the slice polytope of {rs} at this weight has "
                                       f"more than {VERTEX_CAP} vertices")
            stack.append((len(sets), free & later[j]))
            sets.append((k, j))
            levis.append(tuple(sorted(levis[k] + pieces[j])))
            keys.append(keys[k] + steps[j])
    base, big, patches = _pieces(rs, lam, pieces)
    for p, patch in zip(pieces, patches):
        # c_alpha on p leads its patch: positive, as p meets lam's support
        if not all(y for _, y in patch[:len(p)]):
            raise InvariantError(f"vertex of {rs} at {lam} on {p} has a zero root coefficient")
    # a set's numerators are its parent's plus the patch of the piece it adds, which
    # its other pieces neither meet nor neighbour
    numerators = [tuple(base)]
    for k, j in sets[1:]:
        out = list(numerators[k])
        for i, y in patches[j]:
            out[i] += y
        numerators.append(tuple(out))
    return tuple([Vertex(levis[i], numerators[i], big)
                  for i in sorted(range(len(sets)), key=keys.__getitem__)])


class RayRecord(namedtuple("RayRecord", "node levi numerators k_det")):
    """One extremal ray of the cone.

    Held in integers: ``numerators`` are the rank numerators of mu, then those
    of ``c_alpha``, over ``k_det``, the determinant of the Levi Cartan
    submatrix (1 for the empty ``levi``).  ``(lambda_fw, mu_fw)`` is the
    rational generator with lambda the fundamental weight of ``node``, and
    ``c_alpha`` the simple-root coefficients of lambda - mu (supported exactly
    on ``levi``): ``Fraction`` tuples made on first read.  ``k_primitive`` is
    the least positive scaling making the pair integral with integral root
    coefficients; k_det also scales onto the lattice but need not be least.
    Equality and hash are the tuple's, by the fields, which with k_det in them
    is by value.
    """

    @cached_property
    def lambda_fw(self) -> linalg.Vec:
        return tuple(Fraction(int(j == self.node - 1)) for j in range(len(self.numerators) // 2))

    @cached_property
    def mu_fw(self) -> linalg.Vec:
        return _over(self.numerators, self.k_det, 0)

    @cached_property
    def c_alpha(self) -> linalg.Vec:
        return _over(self.numerators, self.k_det, 1)

    @property
    def k_primitive(self) -> int:
        # the lcm of c_alpha's denominators, all of which divide k_det
        return self.k_det // gcd(self.k_det, *self.numerators[len(self.numerators) // 2:])


def rays_for_node(rs: RootSystem, i: int, *, inverses: dict | None = None) -> tuple[RayRecord, ...]:
    """All extremal rays whose first coordinate is the i-th fundamental weight.

    These are the vertices of the slice polytope at w_i: one for the empty
    node set (the pair (w_i, w_i)) and one for every connected subdiagram L
    containing node i, with the integers `vertex` solves for: c_alpha is the
    column of node i in the integer inverse adj / det of C_L^T
    (``rootdata._levi_inverse``), and mu is w_i - C^T c, O(|L|) once the block is
    inverted, once per call or per ``inverses`` dict: `all_rays` shares one over
    every node, and the CLI's ray table one over its nodes and pretty blocks.
    Over d = ``k_det`` mu's numerators are d w_i less c_n alpha_n for each node
    n of L (``rootdata._add_root``), in the loop that scatters c: zero on L,
    where C_L^T c = d w_i, minus the pairings at the outside neighbours and
    zero elsewhere; no ``Fraction`` is made.
    """
    i = _node(rs, i)
    if inverses is None:
        inverses = {}
    r = rs.rank
    records = [RayRecord(i, (), fundamental_weight(rs, i) + (0,) * r, 1)]
    for nodes in connected_subsets_containing(rs, i):
        adj, d = _levi_inverse(rs, nodes, inverses)
        col = nodes.index(i)
        out = [0] * (2 * r)
        out[i - 1] = d  # mu = w_i - C^T c over d, with c beside it
        for n, row in zip(nodes, adj):
            out[r + n - 1] = x = row[col]
            _add_root(rs, out, n, -x)
        records.append(RayRecord(i, nodes, tuple(out), d))
    return tuple(records)


def all_rays(rs: RootSystem) -> tuple[RayRecord, ...]:
    """Every extremal ray of the cone, grouped by node in ascending order: `rays_for_node`
    at each node, with one dict of Levi block inverses serving every node.
    """
    inverses: dict = {}
    return tuple(ray for i in rs.nodes() for ray in rays_for_node(rs, i, inverses=inverses))


def is_extremal_ray(rs: RootSystem, lam, mu) -> bool:
    """Tight-constraint test: the pair spans an extremal ray iff the
    inequalities vanishing at it cut out a one-dimensional subspace, by the
    rank of the tight forms on (lam | c) (``cone_inequalities``): a change
    of coordinates keeps every rank, and no inverse is built."""
    lam, mu = _weight(rs, lam), _weight(rs, mu)  # printed if refused
    values = _form_values(rs, lam, mu)
    if any(v < 0 for v in values):
        raise NotInConeError(f"({lam}, {mu}) is not in the cone")
    tight = [f.coeffs for f, v in zip(cone_inequalities(rs), values) if not v]
    return 2 * rs.rank - len(linalg._forward(tight)[0]) == 1


def _is_ray(rs: RootSystem, lam, mu, values) -> bool:
    """Whether a member pair spans an extremal ray, by the paper's classification:
    the rays are the pairs (w_i, v) for the vertices v of the slice at w_i, that is
    lam = t w_i, and the support L of lam - mu's simple-root coefficients c empty or
    connected with mu zero on L.  Connected and i in L need no test: on a component
    K of L that misses i, C_K^T c_K = (lam - mu)|_K = 0 would give c_K = 0.  The
    zeros of mu and c are read from the pair's ``_form_values``, as membership read
    them (``values``), or here if that is None, only when lam = t w_i; no rank is
    computed: ``is_extremal_ray`` answers the same by rank, independently."""
    if sum(map(bool, lam)) != 1:
        return False
    r, values = rs.rank, values or _form_values(rs, lam, mu)
    return not any(m for m, c in zip(values[r:2 * r], values[2 * r:]) if c)


def ray_count_formula(letter: str, rank: int) -> int:
    """Closed-form number of extremal rays for the given type and rank.

    Only the underlying graph of the Dynkin diagram matters, so A, B and C
    share one polynomial (as do G2 with A2 and F4 with A4); D and E have
    their own.
    """
    letter, rank = validate_type(letter, rank)
    if letter == "D":
        return comb(rank, 3) + 3 * comb(rank, 2) + 2 * rank - 3
    if letter == "E":
        return comb(rank, 3) + 4 * comb(rank, 2) + rank - 8
    return comb(rank + 1, 3) + comb(rank + 1, 2) + rank  # path graphs: A, B, C, F4, G2
