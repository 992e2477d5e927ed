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

:func:`compact_hausdorff_spaces` needs no search on a lawful table: a
Hausdorff structure is the discrete one (Hofmann, Seal & Tholen, *Monoidal
Topology*, ch. V).  Take a valid structure ``a`` that passes the test of
``hausdorff_witness``: in every row ``t``, ``a(t, i) (x) a(t, j)`` is bottom
for ``i != j`` and at most the unit ``k`` for ``i = j``.  The tensor is
monotone with unit ``k``, and ``a(x, x) >= k``.  For ``x != y``, row ``x``
gives ``a(x, y) = k (x) a(x, y) <= a(x, x) (x) a(x, y)``, which is bottom.
For ``x = y``, ``a(x, x) = a(x, x) (x) k <= a(x, x) (x) a(x, x) <= k``.  So
``a`` is the unit on the diagonal and bottom elsewhere.  Conversely the
discrete structure is valid, compact (each row's join holds ``k (x) k =
k``) and Hausdorff (a product with a bottom factor is bottom), so there is
exactly one class on each size, and its only member is the discrete space.
A table that breaks a quantale law may break the argument, so it gets the
plain filter over every valid structure.

:func:`iso_canonical_key` refines a colouring of the points to a fixed
point (McKay & Piperno, "Practical graph isomorphism II", J. Symb. Comput.
2014).  The square is read as its entries: a finite quantale's stored
payloads (carrier indices), and a cost quantale's tokens, because a cost
payload ``INF`` has no order against a ``Fraction``.  A point starts with
the colour ``(a(x, x), sorted multiset of (a(y, y), a(x, y), a(y, x)))``;
each round its colour becomes the rank, among the sorted colours of all
points, of its colour and the sorted multiset of ``(colour of y, a(x, y),
a(y, x))`` over the points y.  The colours are computed from entries and
earlier ranks alone, so an isomorphism carries each point to a point of the
same colour, and each cell (the points of one colour) onto the cell of the
same rank.  The key is the least matrix of entries over the orders that
list the cells by rank, each cell in any order.  An isomorphism maps the
orders of one space one to one onto the orders of the other with equal
matrices, so isomorphic spaces get equal keys; and each matrix is the
square of a relabelling, so equal keys mean isomorphic spaces.  Keys are
only compared for equality, between spaces over one quantale.

Twins cut the orders down.  Points x and y are twins when ``a(x, x) =
a(y, y)``, ``a(x, y) = a(y, x)``, and ``a(x, z) = a(y, z)`` and ``a(z, x) =
a(z, y)`` for every other z.  Swapping twins maps every entry onto an equal
one, so it is an automorphism.  Twinhood is an equivalence: if x, y are
twins and y, z are twins, for three points, then x, z are twins:
``a(x, x) = a(y, y) = a(z, z)``; ``a(x, z) = a(y, z) = a(z, y) = a(z, x)``;
at y, ``a(x, y) = a(x, z) = a(z, x) = a(z, y)`` and ``a(y, x) = a(z, x) =
a(x, z) = a(y, z)``; and at every other w, ``a(x, w) = a(y, w) = a(z, w)``
and ``a(w, x) = a(w, y) = a(w, z)``.  Twins keep equal colours, as an
automorphism keeps colours, so each twin class lies in one cell, and every
permutation of a twin class, a product of swaps, is an automorphism.  Two
orders that differ by one give equal matrices, so the key takes the orders
up to twin swaps: each twin class keeps its points in one fixed order, and
only the positions of the classes inside a cell vary.  When every cell is
a single twin class there is one such order.  That also stops the
refinement: no later round can split a cell of twins, and a new colour
begins with the old one, so the cells and their ranks are already those of
the fixed point.  The discrete and the indiscrete spaces key at once,
where every order of a cell of look-alike points used to be tried.
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
    lists the triangles whose last cell is at position ``p``.
    """
    cells = [(x, x) for x in range(n)]
    cells += [(x, y) for x in range(n) for y in range(n) if x != y]
    pos = {cell: p for p, cell in enumerate(cells)}
    at = tuple(tuple(pos[x, y] for y in range(n)) for x in range(n))
    closes = [[] for _ in cells]
    for x, y, z in itertools.product(range(n), repeat=3):
        triangle = (pos[x, y], pos[y, z], pos[x, z])
        closes[max(triangle)].append(triangle)
    return at, tuple(map(tuple, closes))


def _valid_squares(quantale, n):
    """The squares of :func:`all_valid_spaces`, as index rows, in order."""
    if not quantale.is_finite:
        raise UnsupportedOperationError(
            "cannot enumerate structures over an infinite quantale")
    tensor, leq = quantale._tensor, quantale._leq
    unit = quantale._unit_index
    every = list(range(len(quantale.labels)))
    at, closes = _cell_order(n)
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
        a[depth] = choices[depth][k]
        for p, q, r in closes[depth]:
            if not leq[tensor[a[p]][a[q]]][a[r]]:
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


def _twins(sq, x, y):
    """Whether swapping points x and y maps the square onto itself."""
    rx, ry = sq[x], sq[y]
    return (rx[x] == ry[y] and rx[y] == ry[x]
            and all(rx[z] == ry[z] and row[x] == row[y]
                    for z, row in enumerate(sq) if z != x and z != y))


def _twin_classes(sq, cell):
    """The twin classes of a cell, each in carrier order."""
    classes = []
    for x in cell:
        for twins in classes:
            if _twins(sq, twins[0], x):
                twins.append(x)
                break
        else:
            classes.append([x])
    return classes


def _refined_cells(sq):
    """The points of a square grouped by refined colour, by rank, each
    cell as its list of twin classes."""
    pairs = list(zip(sq, zip(*sq)))           # row x and column x
    diag = [row[x] for x, row in enumerate(sq)]
    colour = [(d, tuple(sorted(zip(diag, row, col))))
              for d, (row, col) in zip(diag, pairs)]
    count = -1
    while True:
        rank = {c: r for r, c in enumerate(sorted(set(colour)))}
        colour = [rank[c] for c in colour]
        cells = [[] for _ in rank]
        for x, c in enumerate(colour):
            cells[c].append(x)
        # stable, or every cell one twin class (see the module docstring)
        if len(rank) == count or all(
                _twins(sq, cell[0], y) for cell in cells for y in cell[1:]):
            return [_twin_classes(sq, cell) for cell in cells]
        count = len(rank)
        colour = [(c, tuple(sorted(zip(colour, row, col))))
                  for c, (row, col) in zip(colour, pairs)]


def _arrangements(classes):
    """The orders of a cell up to permutations inside its twin classes:
    each distinct sequence of class positions, filled in class order."""
    seq = sorted(i for i, twins in enumerate(classes) for _ in twins)
    while True:
        points = [iter(twins) for twins in classes]
        yield [next(points[i]) for i in seq]
        # the next distinct permutation of seq, in lexicographic order
        i = len(seq) - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(seq) - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1:] = reversed(seq[i + 1:])


def iso_canonical_key(space):
    """A key equal for two spaces over one quantale exactly when they are
    isomorphic: the least matrix of the square over the orders of its
    refined cells, up to swaps of twins.

    See the module docstring for why it is a canonical form.  The key's
    form is not part of the contract; compare keys only for equality.
    """
    structure = space.structure
    sq = structure.rows if space.quantale.is_finite else structure.tokens()
    cells = _refined_cells(sq)
    if all(len(cell) == 1 for cell in cells):   # one order
        order = [x for (twins,) in cells for x in twins]
        return (len(sq), tuple([tuple([sq[x][y] for y in order])
                                for x in order]))
    best = None
    for parts in itertools.product(*map(_arrangements, cells)):
        # some cell has two points or more, so pick returns tuples
        pick = operator.itemgetter(*[x for part in parts for x in part])
        candidate = tuple(map(pick, pick(sq)))
        if best is None or candidate < best:
            best = candidate
    return (len(sq), best)


@lru_cache(maxsize=16)
def _lawful(quantale):
    """Whether the quantale laws hold: checked once for a finite table, and
    true of the cost quantales by their closed forms."""
    return validate_quantale(quantale).passed


def compact_hausdorff_spaces(quantale, monad, max_size):
    """All compact Hausdorff spaces on 1..max_size points, up to isomorphism.

    On a lawful table, and on the cost quantales, they are the discrete
    spaces on 1..max_size points (see the module docstring for the proof).
    A finite table that breaks a quantale law gets the plain filter: the
    first valid structure of each isomorphism class that is compact and
    Hausdorff, in the order of :func:`all_valid_spaces`.
    """
    if max_size > len(_LETTERS):
        raise StructuralError(
            f"compact Hausdorff spaces are enumerated on at most "
            f"{len(_LETTERS)} points, not {max_size}")
    quantale.kernel(())           # refuses an order that is not a lattice
    if _lawful(quantale):
        return [discrete_space(standard_carrier(size), monad, quantale)
                for size in range(1, max_size + 1)]
    result, seen = [], set()
    for size in range(1, max_size + 1):
        for space in all_valid_spaces(quantale, monad,
                                      standard_carrier(size)):
            if not (is_compact(space) and is_hausdorff(space)):
                continue
            key = iso_canonical_key(space)
            if key not in seen:
                seen.add(key)
                result.append(space)
    return result
