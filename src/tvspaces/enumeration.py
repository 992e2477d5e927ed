"""Exhaustive enumeration of structures, spaces and canonical forms.

Only finite quantales can be enumerated.  A structure is a square (see
:mod:`tvspaces.space`), whatever the monad tag.

:func:`all_valid_spaces` is a depth-first search over the cells of the
square, on carrier indices.  It assigns the cells in the order of the
product loop it replaces (the diagonal cells first, restricted to values
above the unit, then the off-diagonal cells row by row) and tries the values
in ``carrier_values()`` order, so it yields exactly the lexicographic
sequence of that loop.  Transitivity is the inequality
``a(x, y) (x) a(y, z) <= a(x, z)`` for every triangle ``(x, y, z)``; each
triangle is tested once, when the last of its three cells is set, so a
partial square that already breaks it is abandoned with every completion.

:func:`compact_hausdorff_spaces` runs the same search with the Hausdorff
conditions as further constraints, read off the tables as they stand: in
every row ``t``, ``a(t, i) (x) a(t, j)`` is bottom for ``i != j``, in both
orders, and ``a(t, i) (x) a(t, i) <= k``.  A value breaking the second is
never tried, and a pair is tested when the later of its two cells is set.
Each constraint reads only cells already set, and the Hausdorff test checks
the same conditions on the finished square, so pruning abandons exactly the
completions the test would reject.  The surviving leaves are the squares
that pass, met in the order of the full search; so the filtered sequence,
and the first structure seen of each isomorphism class, are unchanged.

:func:`iso_canonical_key` refines a colouring of the points to a fixed
point (McKay & Piperno, "Practical graph isomorphism II", J. Symb. Comput.
2014).  The square is read as its entries: a finite quantale's stored
payloads (carrier indices), and a cost quantale's tokens, because a cost
payload ``INF`` has no order against a ``Fraction``.  A point starts with
its diagonal entry; each round its colour becomes the rank, among the
sorted signatures of all points, of its colour and the sorted multiset of
``(colour of y, a(x, y), a(y, x))`` over the points y, until the number of
colours stops growing.  The ranks are computed from entries and earlier
ranks alone, so an isomorphism carries each point to a point of the same
colour, and each cell (the points of one colour) onto the cell of the same
rank.  The key is the least matrix of entries over the orders that list
the cells by rank, each cell in any order; when every cell is a single
point there is one such order.  An isomorphism maps the orders of one
space one to one onto the orders of the other with equal matrices, so
isomorphic spaces get equal keys; and each matrix is the square of a
relabelling, so equal keys mean isomorphic spaces.  Keys are only compared
for equality, between spaces over one quantale.
"""

import itertools
import operator
from functools import lru_cache

from .errors import StructuralError, UnsupportedOperationError
from .quantale import validate_quantale
from .space import Space, discrete_space, is_compact, is_hausdorff
from .vrel import Carrier, VRel

_LETTERS = "abcdefghij"


def standard_carrier(size):
    """The carrier ``a, b, c, ...`` with ``size`` points, at most ten."""
    if not 0 <= size <= len(_LETTERS):
        raise StructuralError(
            f"standard carriers have 0 to {len(_LETTERS)} points, "
            f"not {size}")
    return Carrier(_LETTERS[:size])


@lru_cache(maxsize=None)
def _cell_order(n):
    """The positions of the cells in assignment order, triangles and rows.

    ``at[x][y]`` is the position of cell ``(x, y)``.  A triangle is the
    position triple of ``(x, y)``, ``(y, z)``, ``(x, z)``; ``closes[p]``
    lists the triangles whose last cell is at position ``p``, and
    ``mates[p]`` the earlier positions in the row of the cell at ``p``.
    """
    cells = [(x, x) for x in range(n)]
    cells += [(x, y) for x in range(n) for y in range(n) if x != y]
    pos = {cell: p for p, cell in enumerate(cells)}
    at = tuple(tuple(pos[x, y] for y in range(n)) for x in range(n))
    closes = [[] for _ in cells]
    for x, y, z in itertools.product(range(n), repeat=3):
        triangle = (pos[x, y], pos[y, z], pos[x, z])
        closes[max(triangle)].append(triangle)
    mates = tuple(tuple(q for q in at[x] if q < p)
                  for p, (x, _) in enumerate(cells))
    return at, tuple(map(tuple, closes)), mates


def _valid_squares(quantale, n, bottom=None):
    """The squares of :func:`all_valid_spaces`, as index rows, in order.

    With a ``bottom`` payload, only the squares that meet the Hausdorff
    conditions on the tables (see the module docstring).
    """
    if not quantale.is_finite:
        raise UnsupportedOperationError(
            "cannot enumerate structures over an infinite quantale")
    tensor, leq = quantale._tensor, quantale._leq
    unit = quantale._unit_index
    every = list(range(len(quantale.labels)))
    at, closes, mates = _cell_order(n)
    if bottom is None:
        mates = ((),) * (n * n)
    else:
        apart = [[tensor[u][v] == bottom == tensor[v][u] for v in every]
                 for u in every]
        every = [v for v in every if leq[tensor[v][v]][unit]]
    diag = [v for v in every if leq[unit][v]]
    choices = [diag] * n + [every] * (n * n - n)
    # one DFS frame per cell: the index of its next choice to try
    a, nxt, depth, last = [0] * n * n, [0] * n * n, 0, n * n - 1
    while depth >= 0:
        if depth > last:                  # every cell is set: a structure
            yield tuple(tuple(map(a.__getitem__, row)) for row in at)
            depth -= 1
            continue
        k = nxt[depth]
        if k == len(choices[depth]):
            nxt[depth] = 0
            depth -= 1
            continue
        nxt[depth] = k + 1
        v = a[depth] = choices[depth][k]
        for p, q, r in closes[depth]:
            if not leq[tensor[a[p]][a[q]]][a[r]]:
                break
        else:
            for p in mates[depth]:
                if not apart[v][a[p]]:
                    break
            else:
                depth += 1


def _space(carrier, monad, quantale, rows):
    return Space(carrier, monad, quantale,
                 VRel._from_rows(carrier, carrier, quantale, rows))


def all_valid_spaces(quantale, monad, carrier):
    """Every lax-algebra structure on the carrier, in deterministic order.

    The order is lexicographic in the diagonal cells, then the off-diagonal
    cells in row-major order, each ranging over ``carrier_values()`` (see
    the module docstring for why the search keeps it).
    """
    for square in _valid_squares(quantale, len(carrier)):
        yield _space(carrier, monad, quantale, square)


def all_valid_spaces_upto(quantale, monad, max_size, include_empty=True):
    start = 0 if include_empty else 1
    for size in range(start, max_size + 1):
        yield from all_valid_spaces(quantale, monad, standard_carrier(size))


def _refined_cells(sq):
    """The points of a square grouped by refined colour, by rank."""
    pairs = list(zip(sq, zip(*sq)))           # row x and column x
    colour, count = [row[x] for x, row in enumerate(sq)], -1
    while True:
        rank = {c: r for r, c in enumerate(sorted(set(colour)))}
        colour = [rank[c] for c in colour]
        if len(rank) in (count, len(sq)):     # stable, or all singletons
            break
        count = len(rank)
        colour = [(c, tuple(sorted(zip(colour, row, col))))
                  for c, (row, col) in zip(colour, pairs)]
    cells = [[] for _ in rank]
    for x, c in enumerate(colour):
        cells[c].append(x)
    return cells


def iso_canonical_key(space):
    """A key equal for two spaces over one quantale exactly when they are
    isomorphic: the least matrix of the square over the orders of its
    refined cells.

    See the module docstring for why it is a canonical form.  The key's
    form is not part of the contract; compare keys only for equality.
    """
    structure = space.structure
    sq = structure.rows if space.quantale.is_finite else structure.tokens()
    cells = _refined_cells(sq)
    if len(cells) == len(sq):               # all singletons: one order
        order = [x for (x,) in cells]
        return (len(sq), tuple([tuple([sq[x][y] for y in order])
                                for x in order]))
    best = None
    for parts in itertools.product(*map(itertools.permutations, cells)):
        # a cell has two points or more, so pick returns tuples
        pick = operator.itemgetter(*[x for part in parts for x in part])
        candidate = tuple(map(pick, pick(sq)))
        if best is None or candidate < best:
            best = candidate
    return (len(sq), best)


@lru_cache(maxsize=16)
def _lawful(quantale):
    return validate_quantale(quantale).passed


def compact_hausdorff_spaces(quantale, monad, max_size):
    """All compact Hausdorff spaces on 1..max_size points, up to isomorphism.

    Finite quantales are enumerated honestly and filtered, the search
    pruned with the Hausdorff conditions (see the module docstring); the
    analytic cost quantales use the fact that over an integral quantale
    with a principal monad the compact Hausdorff spaces are exactly the
    discrete ones.
    """
    if max_size > len(_LETTERS):
        raise StructuralError(
            f"compact Hausdorff spaces are enumerated on at most "
            f"{len(_LETTERS)} points, not {max_size}")
    if not quantale.is_finite:
        return [discrete_space(standard_carrier(size), monad, quantale)
                for size in range(1, max_size + 1)]
    quantale.kernel(())           # refuses an order that is not a lattice
    # On an integral quantale row x of a valid structure has
    # a(x, x) >= k = top, so its join reaches top (x) top = k (x) k = k
    # and the structure is compact.  A table that breaks a quantale law
    # may fail that argument, so it keeps the test.
    test_compact = not (quantale.integral and _lawful(quantale))
    result, seen = [], set()
    for size in range(1, max_size + 1):
        carrier = standard_carrier(size)
        for square in _valid_squares(quantale, size,
                                     quantale._bottom_index):
            space = _space(carrier, monad, quantale, square)
            if test_compact and not is_compact(space):
                continue
            if not is_hausdorff(space):
                continue
            key = iso_canonical_key(space)
            if key not in seen:
                seen.add(key)
                result.append(space)
    return result
