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
"""

import itertools
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
    """The positions of the cells in assignment order, and the triangles.

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


def all_valid_spaces(quantale, monad, carrier):
    """Every lax-algebra structure on the carrier, in deterministic order.

    The order is lexicographic in the diagonal cells, then the off-diagonal
    cells in row-major order, each ranging over ``carrier_values()`` (see
    the module docstring for why the search keeps it).
    """
    if not quantale.is_finite:
        raise UnsupportedOperationError(
            "cannot enumerate structures over an infinite quantale")
    n = len(carrier)
    values = quantale.carrier_values()
    tensor, leq = quantale._tensor, quantale._leq
    unit = quantale.unit.payload
    diag = [v.payload for v in values if leq[unit][v.payload]]
    every = [v.payload for v in values]
    at, closes = _cell_order(n)
    choices = [diag] * n + [every] * (n * n - n)
    # one DFS frame per cell: the index of its next choice to try
    a, nxt, depth, last = [0] * n * n, [0] * n * n, 0, n * n - 1
    while depth >= 0:
        if depth > last:                  # every cell is set: a structure
            rows = [[values[a[p]] for p in row] for row in at]
            yield Space(carrier, monad, quantale,
                        VRel(carrier, carrier, quantale, rows))
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


def all_valid_spaces_upto(quantale, monad, max_size, include_empty=True):
    start = 0 if include_empty else 1
    for size in range(start, max_size + 1):
        yield from all_valid_spaces(quantale, monad, standard_carrier(size))


def iso_canonical_key(space):
    """Least token matrix of the square form over carrier permutations."""
    sq = space.structure.tokens()
    n = len(space.carrier)
    best = None
    for perm in itertools.permutations(range(n)):
        candidate = tuple(tuple(sq[perm[i]][perm[j]] for j in range(n))
                          for i in range(n))
        if best is None or candidate < best:
            best = candidate
    return (n, best)


@lru_cache(maxsize=16)
def _lawful(quantale):
    return validate_quantale(quantale).passed


def compact_hausdorff_spaces(quantale, monad, max_size):
    """All compact Hausdorff spaces on 1..max_size points, up to isomorphism.

    Finite quantales are enumerated honestly and filtered; the analytic cost
    quantales use the fact that over an integral quantale with a principal
    monad the compact Hausdorff spaces are exactly the discrete ones.
    """
    if max_size > len(_LETTERS):
        raise StructuralError(
            f"compact Hausdorff spaces are enumerated on at most "
            f"{len(_LETTERS)} points, not {max_size}")
    result = []
    if quantale.is_finite:
        # On an integral quantale row x of a valid structure has
        # a(x, x) >= k = top, so its join reaches top (x) top = k (x) k = k
        # and the structure is compact.  A table that breaks a quantale law
        # may fail that argument, so it keeps the test.
        test_compact = not (quantale.integral and _lawful(quantale))
        seen = set()
        for size in range(1, max_size + 1):
            for space in all_valid_spaces(quantale, monad,
                                          standard_carrier(size)):
                if test_compact and not is_compact(space):
                    continue
                if not is_hausdorff(space):
                    continue
                key = iso_canonical_key(space)
                if key not in seen:
                    seen.add(key)
                    result.append(space)
    else:
        for size in range(1, max_size + 1):
            result.append(discrete_space(standard_carrier(size), monad,
                                         quantale))
    return result
