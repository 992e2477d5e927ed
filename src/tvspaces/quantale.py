"""Unital commutative quantales with exact arithmetic.

Two families are supported.  Finite quantales (``bool2``, chains, arbitrary
``finite-table`` lattices, ``lukasiewicz-grid(n)``) are table driven, so every
law can be checked by full enumeration.  The cost quantales ``cost-plus`` and
``cost-max`` live on ``[0, inf]`` with the order reversed: smaller cost means
larger quantale value, bottom is ``inf`` and top is ``0``.  Their residuation
uses closed forms over exact rationals; no floating point appears anywhere,
because downstream closure and structure computations are compared for exact
equality.

The reversed numeric order of the cost quantales is never exposed: all
comparisons go through :meth:`Quantale.leq`.

Scalars cross the public API as :class:`Value` objects, and every scalar
operation checks its arguments with ``_check``.  The matrix kernels behind
``vrel.compose``, the closure and the space predicates and constructions
(validation, continuity, initial and final structures, function spaces,
compactness, Hausdorffness, separatedness, exponentiability) instead work
on raw payloads, and this module alone decides their encoding:
:meth:`Quantale.encode` turns ``Value`` matrices into payload matrices plus
a kernel object for one operation (``Quantale.kernel`` and the kernel's
``row`` do the same one row at a time, for scans that may stop early), and
the kernel's ``decode`` turns the result back.

* Finite quantales use the carrier indices already stored in the tables;
  the kernel reads ``_tensor``, ``_join2`` and ``_leq`` directly.
* Cost quantales use integers over ``scale``, the lcm of the denominators of
  every entry of the operation, so ``+``, ``max`` and ``min`` on them are
  exact integer arithmetic.  ``inf`` becomes one sentinel integer set above
  every finite path sum the operation can form: the caller passes
  ``steps``, the most entries one sum adds up, and the sentinel is
  ``steps * M + 1`` for a bound ``M`` on every finite entry (the largest
  numerator times the scale).  A sum that involves the sentinel is at least
  the sentinel, and results are clamped back to it, so a finite sum is
  never read as ``inf`` and ``inf`` never as finite.
"""

import math
import operator
from fractions import Fraction
from functools import lru_cache

from .errors import (
    QuantaleMismatchError,
    StructuralError,
    UnsupportedOperationError,
)
from .validation import ValidationReport


class _Infinity:
    """Singleton marker for the infinite cost."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()


def _num_leq(a, b):
    # numeric order on [0, inf]
    if a is INF:
        return b is INF
    if b is INF:
        return True
    return a <= b


def _num_add(a, b):
    if a is INF or b is INF:
        return INF
    return a + b


def _num_max(a, b):
    return b if _num_leq(a, b) else a


def _num_min(a, b):
    return a if _num_leq(a, b) else b


class Value:
    """A scalar tagged with the quantale it belongs to.

    The payload is an index into the carrier for finite quantales and a
    nonnegative ``Fraction`` or ``INF`` for the cost quantales.
    """

    __slots__ = ("quantale", "payload")

    def __init__(self, quantale, payload):
        self.quantale = quantale
        self.payload = payload

    def __eq__(self, other):
        if not isinstance(other, Value):
            return NotImplemented
        return self.quantale is other.quantale and self.payload == other.payload

    def __hash__(self):
        return hash((id(self.quantale), self.payload))

    def __repr__(self):
        return self.quantale.value_token(self)

    @property
    def token(self):
        return self.quantale.value_token(self)


class Quantale:
    """Common interface of all quantale kinds."""

    kind = None

    def _check(self, *values):
        for v in values:
            if not isinstance(v, Value) or v.quantale is not self:
                raise QuantaleMismatchError(
                    f"value {v!r} does not belong to quantale {self.describe()}"
                )

    # subclasses implement: tensor, hom, leq, meet, join over iterables,
    # bottom/top/unit, value_token, parse_value, cache_key, and kernel

    def encode(self, matrices, steps=1):
        """The payload kernel for some Value matrices, and their payloads.

        ``steps`` bounds how many entries one sum of the operation adds up.
        """
        kernel = self.kernel(matrices, steps)
        row = kernel.row
        return kernel, [[row(r) for r in m] for m in matrices]

    def join(self, values):
        out = self.bottom
        for v in values:
            self._check(v)
            out = self.join2(out, v)
        return out

    def eq(self, u, v):
        self._check(u, v)
        return u.payload == v.payload

    @property
    def is_finite(self):
        return False

    def carrier_values(self):
        raise UnsupportedOperationError(
            f"quantale kind {self.kind!r} has no finite carrier enumeration"
        )

    def describe(self):
        return self.kind

    def __repr__(self):
        return f"<quantale {self.describe()}>"


class FiniteQuantale(Quantale):
    """Table-driven quantale on an explicitly listed carrier.

    Construction is tolerant: derived tables (joins, meets, residuals) may be
    partial when the supplied order is not a complete lattice, or when the
    tensor breaks a law.  Using a missing entry raises ``StructuralError``;
    :func:`validate_quantale` reports every broken law with a witness instead.
    """

    def __init__(self, kind, labels, leq_table, tensor_table, unit_index,
                 tokens=None):
        n = len(labels)
        if len(set(labels)) != n:
            raise StructuralError("carrier labels must be distinct")
        if len(leq_table) != n or any(len(row) != n for row in leq_table):
            raise StructuralError("order table is not square")
        if len(tensor_table) != n or any(len(row) != n for row in tensor_table):
            raise StructuralError("tensor table is not square")
        for row in tensor_table:
            for x in row:
                if not (0 <= x < n):
                    raise StructuralError(f"tensor table index {x} out of range")
        if not (0 <= unit_index < n):
            raise StructuralError(f"unit index {unit_index} out of range")
        self.kind = kind
        self.labels = tuple(labels)
        self._tokens = tuple(tokens) if tokens is not None else self.labels
        self._leq = tuple(tuple(bool(x) for x in row) for row in leq_table)
        self._tensor = tuple(tuple(row) for row in tensor_table)
        self._unit_index = unit_index
        self._values = tuple(Value(self, i) for i in range(n))
        self._join2 = self._derive_bound_table(upper=True)
        self._meet2 = self._derive_bound_table(upper=False)
        self._bottom_index = self._extremum(bottom=True)
        self._top_index = self._extremum(bottom=False)
        self._hom = self._derive_residual(self._tensor)
        self._heyting = self._derive_residual(self._meet2)
        self._kernel = _FiniteKernel(self)

    # -- table derivation -------------------------------------------------

    def _derive_bound_table(self, upper):
        n = len(self.labels)
        table = []
        for i in range(n):
            row = []
            for j in range(n):
                if upper:
                    bounds = [k for k in range(n)
                              if self._leq[i][k] and self._leq[j][k]]
                    best = [k for k in bounds
                            if all(self._leq[k][m] for m in bounds)]
                else:
                    bounds = [k for k in range(n)
                              if self._leq[k][i] and self._leq[k][j]]
                    best = [k for k in bounds
                            if all(self._leq[m][k] for m in bounds)]
                row.append(best[0] if len(best) == 1 else None)
            table.append(tuple(row))
        return tuple(table)

    def _extremum(self, bottom):
        n = len(self.labels)
        for i in range(n):
            if bottom and all(self._leq[i][j] for j in range(n)):
                return i
            if not bottom and all(self._leq[j][i] for j in range(n)):
                return i
        return None

    def _derive_residual(self, op_table):
        # residual(u, v) = join of { w | op(w, u) <= v }, None when undefined
        n = len(self.labels)
        table = []
        for i in range(n):
            row = []
            for j in range(n):
                candidates = [w for w in range(n)
                              if op_table[w][i] is not None
                              and self._leq[op_table[w][i]][j]]
                out = self._fold_join(candidates)
                row.append(out)
            table.append(tuple(row))
        return tuple(table)

    def _fold_join(self, indices):
        out = self._bottom_index
        for i in indices:
            if out is None:
                return None
            out = self._join2[out][i]
        return out

    def _undefined(self, what):
        return StructuralError(
            f"{what} undefined in quantale {self.describe()}: the order "
            "is not a complete lattice (run validate_quantale)"
        )

    def _lookup(self, table, u, v, what):
        self._check(u, v)
        out = table[u.payload][v.payload]
        if out is None:
            raise self._undefined(what)
        return self._values[out]

    def kernel(self, matrices, steps=1):
        """The index kernel, shared by every operation on this quantale."""
        return self._kernel

    # -- operations --------------------------------------------------------

    def tensor(self, u, v):
        self._check(u, v)
        return self._values[self._tensor[u.payload][v.payload]]

    def join2(self, u, v):
        return self._lookup(self._join2, u, v, "join")

    def meet(self, u, v):
        return self._lookup(self._meet2, u, v, "meet")

    def hom(self, u, v):
        return self._lookup(self._hom, u, v, "hom")

    def heyting(self, u, v):
        return self._lookup(self._heyting, u, v, "Heyting implication")

    def leq(self, u, v):
        self._check(u, v)
        return self._leq[u.payload][v.payload]

    @property
    def bottom(self):
        if self._bottom_index is None:
            raise StructuralError("order has no bottom element")
        return self._values[self._bottom_index]

    @property
    def top(self):
        if self._top_index is None:
            raise StructuralError("order has no top element")
        return self._values[self._top_index]

    @property
    def unit(self):
        return self._values[self._unit_index]

    @property
    def is_finite(self):
        return True

    def carrier_values(self):
        return list(self._values)

    @property
    def integral(self):
        return self._top_index == self._unit_index

    @property
    def lean(self):
        top = self._top_index
        bot = self._bottom_index
        if top is None or bot is None:
            return False
        n = len(self.labels)
        for u in range(n):
            for v in range(n):
                if self._join2[u][v] == top and self._tensor[u][v] == bot:
                    if u != top and v != top:
                        return False
        return True

    @property
    def totally_ordered(self):
        n = len(self.labels)
        return all(self._leq[i][j] or self._leq[j][i]
                   for i in range(n) for j in range(n))

    # -- tokens ------------------------------------------------------------

    def value_token(self, v):
        self._check(v)
        return self._tokens[v.payload]

    def parse_value(self, token):
        try:
            return self._values[self._tokens.index(token)]
        except ValueError:
            raise StructuralError(
                f"{token!r} is not an element of quantale {self.describe()}"
            ) from None

    def cache_key(self):
        return (self.kind, self.labels, self._tensor, self._leq,
                self._unit_index)

    def describe(self):
        if self.kind == "finite-table":
            return f"finite-table({','.join(self.labels)})"
        return self.kind


class CostQuantale(Quantale):
    """The quantales on ``[0, inf]`` with reversed order.

    ``cost-plus`` tensors by addition, ``cost-max`` by binary maximum; in both
    the unit is ``0``, which is also the top element, and ``inf`` is bottom.
    """

    def __init__(self, flavor):
        assert flavor in ("plus", "max")
        self.kind = "cost-plus" if flavor == "plus" else "cost-max"
        self._flavor = flavor
        self._zero = Value(self, Fraction(0))
        self._inf = Value(self, INF)

    def _coerce(self, raw):
        if raw is INF:
            return self._inf
        f = Fraction(raw)
        if f < 0:
            raise StructuralError(f"cost values must be nonnegative, got {f}")
        return Value(self, f)

    def value(self, raw):
        return self._coerce(raw)

    def tensor(self, u, v):
        self._check(u, v)
        if self._flavor == "plus":
            return Value(self, _num_add(u.payload, v.payload))
        return Value(self, _num_max(u.payload, v.payload))

    def join2(self, u, v):
        self._check(u, v)
        return Value(self, _num_min(u.payload, v.payload))

    def meet(self, u, v):
        self._check(u, v)
        return Value(self, _num_max(u.payload, v.payload))

    def hom(self, u, v):
        # largest w (smallest cost) with w (x) u <= v in the quantale order
        self._check(u, v)
        a, b = u.payload, v.payload
        if self._flavor == "plus":
            if _num_leq(b, a):
                return self._zero
            return self._inf if b is INF else Value(self, b - a)
        if _num_leq(b, a):
            return self._zero
        return Value(self, b)

    def heyting(self, u, v):
        # meet is numeric max for both flavors, so the implication coincides
        # with the cost-max residual
        self._check(u, v)
        if _num_leq(v.payload, u.payload):
            return self._zero
        return Value(self, v.payload)

    def kernel(self, matrices, steps=1):
        """A scaled-integer kernel for the entries of these matrices.

        The scale is the lcm of their denominators, and ``inf`` is set above
        ``steps`` times the largest numerator times the scale, so no finite
        sum of ``steps`` entries reaches it.
        """
        ratios = [p.as_integer_ratio() for m in matrices for row in m
                  for v in row if (p := v.payload) is not INF]
        scale = math.lcm(*{d for _, d in ratios})
        # n * (scale // d) <= n * scale bounds every entry
        largest = max(ratios, default=(0, 1))[0] * scale
        return _CostKernel(self, scale, max(steps, 1) * largest + 1)

    def _hom_payload(self, a, b):
        if _num_leq(b, a):
            return self._zero.payload
        if self._flavor == "plus":
            return INF if b is INF else b - a
        return b

    def leq(self, u, v):
        self._check(u, v)
        return _num_leq(v.payload, u.payload)

    @property
    def bottom(self):
        return self._inf

    @property
    def top(self):
        return self._zero

    @property
    def unit(self):
        return self._zero

    integral = True
    lean = True
    totally_ordered = True

    def value_token(self, v):
        self._check(v)
        return "inf" if v.payload is INF else str(v.payload)

    def parse_value(self, token):
        if token == "inf":
            return self._inf
        try:
            return self._coerce(Fraction(token))
        except (ValueError, ZeroDivisionError):
            raise StructuralError(f"malformed rational {token!r}") from None

    def cache_key(self):
        return (self.kind,)


# -- payload kernels ----------------------------------------------------------


def _rows_by(fold, rows, width, empty):
    """Entrywise ``fold`` (``max`` or ``min``) of equally long rows."""
    if not rows:
        return [empty] * width
    if len(rows) == 1:
        return list(rows[0])
    return list(map(fold, *rows))


# the most composite entries one block of the exponentiability scan holds
_EXP_BLOCK = 1 << 16


class _Kernel:
    """Matrix operations on the payloads of one quantale.

    Subclasses give ``unit``, ``bottom`` and ``top`` (payloads; a finite
    table without a bottom or top raises when one is read),
    ``row(values, indices=None)`` (the payloads of a row of Values, or of
    ``values[j]`` for j in ``indices``), ``value(p)`` (the Value of a
    payload), ``below(a, b)`` and ``row_below(ra, rb)`` (the quantale order
    on entries and on whole rows), ``tensor(a, b)``, ``meet(a, b)`` and
    ``heyting(a, b)`` on entries, ``compose(left, right, width)``,
    ``close(rows)``, and three folds: ``meet_rows(rows, width)`` (the
    entrywise meet of some rows, starting from top), ``join_all(payloads)``
    (the join of a sequence, starting from bottom) and
    ``join_at(acc, cols, row)`` (``acc[cols[j]]`` joined with ``row[j]`` in
    place, for j in order).  Matrices are lists of rows.  Built on these,
    ``function_space`` gives the function-space matrix on some maps and
    ``exponentiability_witness`` the first failure of the exponentiability
    inequality.
    """

    def decode(self, rows):
        value = self.value
        return [[value(p) for p in row] for row in rows]

    def row_failures(self, ra, rb):
        """Columns ``j`` where ``ra[j]`` is not below ``rb[j]``."""
        below = self.below
        return [j for j, (a, b) in enumerate(zip(ra, rb)) if not below(a, b)]

    def failures(self, left, right):
        """Positions ``(i, j)``, row by row, where left is not below right."""
        for i, (ra, rb) in enumerate(zip(left, right)):
            if not self.row_below(ra, rb):
                for j in self.row_failures(ra, rb):
                    yield i, j

    def function_space(self, b, c, images):
        """The function-space matrix on some maps Y -> Z.

        ``b`` and ``c`` are the squares of Y and Z, and each map is the list
        of its image indices.  Entry ``(g, h)`` is the meet, over the point
        pairs ``(y1, y2)`` in row-major order, of
        ``heyting(b[y1][y2], c[g[y1]][h[y2]])``.  Row g is the meet of one
        row over the maps h per point pair, and that row depends only on
        ``b[y1][y2]``, ``g[y1]`` and ``y2``, so it is built once per such
        triple.  This takes the meet to be a total, associative and
        commutative operation; the finite kernel overrides it for tables
        where it may not be.
        """
        heyting, width = self.heyting, len(images)
        at = list(zip(*images))       # at[y2]: h(y2) for every map h
        cache, out = {}, []
        for g in images:
            rows = []
            for y1, z in enumerate(g):
                cz = c[z]
                for y2, v in enumerate(b[y1]):
                    key = (v, z, y2)
                    r = cache.get(key)
                    if r is None:
                        hz = [heyting(v, w) for w in cz]
                        r = cache[key] = [hz[w] for w in at[y2]]
                    rows.append(r)
            out.append(self.meet_rows(rows, width))
        return out

    def exponentiability_witness(self, a, values):
        """The first ``(i, j, ui, vi)`` where exponentiability fails, or None.

        ``a`` is the square and ``values`` the payloads of the free values.
        Row i is one ``compose`` of ``M[u][k] = a(i, k) /\\ u`` with
        ``N[k][(j, v)] = a(k, j) /\\ v`` (see
        ``space.exponentiability_witness``), and failures rank by j, then u,
        then v.  M is composed in blocks of at most ``_EXP_BLOCK`` result
        entries, so a large value set costs time, not memory.  Meet and join
        are taken to be total; the finite kernel overrides this for tables
        where they may not be.
        """
        meet, tensor, row_below = self.meet, self.tensor, self.row_below
        nv = len(values)
        width = len(a) * nv
        right = [[meet(p, v) for p in row for v in values] for row in a]
        step = max(1, _EXP_BLOCK // max(width, 1))
        for i, row in enumerate(a):
            hits = []
            for start in range(0, nv, step):
                us = range(start, min(start + step, nv))
                lhs = self.compose(
                    [[meet(p, values[ui]) for p in row] for ui in us],
                    right, width)
                for ui, left in zip(us, lhs):
                    t = [tensor(values[ui], v) for v in values]
                    rhs = [meet(b, x) for b in row for x in t]
                    if not row_below(rhs, left):
                        c = self.row_failures(rhs, left)[0]
                        hits.append((c // nv, ui, c % nv))
            if hits:
                return (i,) + min(hits)
        return None


class _FiniteKernel(_Kernel):
    """Compose and closure on carrier indices, read from the tables.

    The shortcuts rest on laws a ``finite-table`` may break, so each is
    checked once, here, and taken only when it holds.  When the join table
    is ``max`` of the indices (bool2, the chains and the Lukasiewicz grids),
    whole rows are joined by ``max`` and compared by ``<=``, and when bottom
    (then index 0) also tensors every element to bottom, a bottom entry's
    terms are skipped.  Otherwise every join goes through the table in the
    order of the ``Value`` operations, so an undefined join raises the same
    ``StructuralError`` at the same point.
    """

    def __init__(self, q):
        n = len(q.labels)
        self._q = q
        self._leq = q._leq
        self._tensor = q._tensor
        self._join = q._join2
        self.unit = q._unit_index
        self._max_join = all(q._join2[a][b] == max(a, b)
                             for a in range(n) for b in range(n))
        self._skip = 0 if self._max_join and not any(q._tensor[0]) else None
        # a max join makes the order the index order, so the meet is min
        self.meet = min if self._max_join else self._meet2

    @property
    def bottom(self):
        return self._q.bottom.payload

    @property
    def top(self):
        return self._q.top.payload

    @staticmethod
    def row(values, indices=None):
        if indices is None:
            return [v.payload for v in values]
        return [values[j].payload for j in indices]

    def below(self, a, b):
        return self._leq[a][b]

    def tensor(self, a, b):
        return self._tensor[a][b]

    def row_below(self, ra, rb):
        if self._max_join:             # the order is then the index order
            return all(map(operator.le, ra, rb))
        return all(map(operator.getitem, map(self._leq.__getitem__, ra), rb))

    def value(self, p):
        return self._q._values[p]

    def _lookup(self, table, a, b, what):
        out = table[a][b]
        if out is None:
            raise self._q._undefined(what)
        return out

    def _join2(self, a, b):
        return self._lookup(self._join, a, b, "join")

    def _meet2(self, a, b):
        return self._lookup(self._q._meet2, a, b, "meet")

    def heyting(self, a, b):
        return self._lookup(self._q._heyting, a, b, "Heyting implication")

    def meet_rows(self, rows, width):
        if self._max_join:             # a chain: the meet is min
            return _rows_by(min, rows, width, self.top)
        out = [self.top] * width
        for row in rows:
            out = [self._meet2(a, b) for a, b in zip(out, row)]
        return out

    def join_all(self, payloads):
        if self._max_join:             # a chain: bottom is index 0
            return max(payloads, default=0)
        out = self.bottom
        for p in payloads:
            out = self._join2(out, p)
        return out

    def join_at(self, acc, cols, row):
        if self._max_join:
            for k, v in zip(cols, row):
                if v > acc[k]:
                    acc[k] = v
        else:
            join = self._join2
            for k, v in zip(cols, row):
                acc[k] = join(acc[k], v)

    def function_space(self, b, c, images):
        if self._max_join:
            return super().function_space(b, c, images)
        # entry by entry, in the order of the Value operations, so that an
        # undefined meet or implication raises at the same point
        meet, heyting = self._meet2, self.heyting
        out = []
        for g in images:
            row = []
            for h in images:
                acc = self.top
                for bi, z in zip(b, g):
                    cz = c[z]
                    for v, w in zip(bi, h):
                        acc = meet(acc, heyting(v, cz[w]))
                row.append(acc)
            out.append(row)
        return out

    def exponentiability_witness(self, a, values):
        if self._max_join:
            return super().exponentiability_witness(a, values)
        # entry by entry, in the order of the Value operations, so that an
        # undefined meet or join raises at the same point
        meet, join = self._meet2, self._join2
        tensor, leq = self._tensor, self._leq
        for i, ai in enumerate(a):
            for j, base in enumerate(ai):
                pairs = [(p, a[k][j]) for k, p in enumerate(ai)]
                for ui, u in enumerate(values):
                    for vi, v in enumerate(values):
                        rhs = meet(base, tensor[u][v])
                        lhs = self.bottom
                        for p, s in pairs:
                            lhs = join(lhs, tensor[meet(p, u)][meet(s, v)])
                        if not leq[rhs][lhs]:
                            return i, j, ui, vi
        return None

    def compose(self, left, right, width):
        if not (left and width):
            return [[] for _ in left]
        if not self._max_join:
            return self._fold_compose(left, right, width)
        tensor, skip = self._tensor, self._skip
        terms = [{} for _ in right]   # terms[m][a]: a tensored on right[m]
        out = []
        for row in left:
            rows = []
            for m, a in enumerate(row):
                if a == skip:
                    continue
                t = terms[m].get(a)
                if t is None:
                    ta = tensor[a]
                    t = terms[m][a] = [ta[x] for x in right[m]]
                rows.append(t)
            out.append(_rows_by(max, rows, width, 0))
        return out

    def _fold_compose(self, left, right, width):
        bot = self.bottom
        join, tensor = self._join2, self._tensor
        cols = list(zip(*right)) if right else [()] * width
        out = []
        for row in left:
            out_row = []
            for col in cols:
                acc = bot
                for a, b in zip(row, col):
                    acc = join(acc, tensor[a][b])
                out_row.append(acc)
            out.append(out_row)
        return out

    def close(self, c):
        """Floyd-Warshall in place, after joining the unit into the diagonal.

        Rows are updated whole, in the order of the entrywise sweep: a row
        before the pivot reads the pivot row as it was, a row after it reads
        the updated one.  Only exact for an integral quantale (see
        ``vrel.reflexive_transitive_closure``); any other is refused.
        """
        if not self._q.integral:
            raise UnsupportedOperationError(
                "closure is only exact for integral quantales")
        if not self._max_join:
            return self._fold_close(c)
        n, tensor, skip = len(c), self._tensor, self._skip
        for i in range(n):
            c[i][i] = max(c[i][i], self.unit)
        for p in range(n):
            terms = {}                # terms[v]: v tensored on row p
            for i in range(n):
                via = c[i][p]
                if via == skip:
                    continue
                t = terms.get(via)
                if t is None:
                    tv = tensor[via]
                    t = terms[via] = [tv[x] for x in c[p]]
                c[i] = [x if x >= y else y for x, y in zip(c[i], t)]
                if i == p:
                    terms = {}
        return c

    def _fold_close(self, c):
        n, join, tensor = len(c), self._join2, self._tensor
        for i in range(n):
            c[i][i] = join(c[i][i], self.unit)
        for p in range(n):
            cp = c[p]
            for i in range(n):
                ci = c[i]
                tv = tensor[ci[p]]
                for j in range(n):
                    ci[j] = join(ci[j], tv[cp[j]])
        return c


class _CostKernel(_Kernel):
    """Compose and closure on integers over ``scale``, ``inf`` a sentinel.

    The quantale order is the reversed numeric order, join is ``min`` and the
    tensor is ``+`` or ``max``.  An ``inf`` entry tensors every term to
    ``inf``, which the ``min`` ignores, so its terms are skipped.
    """

    def __init__(self, q, scale, inf):
        self._q = q
        self._plus = q._flavor == "plus"
        self.scale = scale
        self.inf = self.bottom = inf
        self.unit = self.top = 0
        self._values = {}

    def row(self, values, indices=None):
        if indices is not None:
            values = [values[j] for j in indices]
        scale, inf = self.scale, self.inf
        return [inf if (p := v.payload) is INF
                else (r := p.as_integer_ratio())[0] * (scale // r[1])
                for v in values]

    @staticmethod
    def below(a, b):
        return b <= a

    @staticmethod
    def row_below(ra, rb):
        return all(map(operator.le, rb, ra))

    def tensor(self, a, b):
        if self._plus:
            s = a + b
            return s if s < self.inf else self.inf
        return a if a > b else b

    @staticmethod
    def heyting(a, b):
        # meet is the numeric max, so the implication is the cost-max hom
        return 0 if b <= a else b

    # the meet is the numeric max
    meet = staticmethod(max)

    @staticmethod
    def meet_rows(rows, width):
        return _rows_by(max, rows, width, 0)

    def join_all(self, payloads):
        return min(payloads, default=self.inf)

    @staticmethod
    def join_at(acc, cols, row):
        for k, v in zip(cols, row):
            if v < acc[k]:
                acc[k] = v

    def value(self, p):
        v = self._values.get(p)
        if v is None:
            v = self._values[p] = (
                self._q.bottom if p >= self.inf
                else Value(self._q, Fraction(p, self.scale)))
        return v

    def _terms(self, a, row):
        if self._plus:
            return [a + x for x in row]
        return [a if a > x else x for x in row]

    def compose(self, left, right, width):
        inf = self.inf
        out = []
        for row in left:
            rows = [self._terms(a, right[m])
                    for m, a in enumerate(row) if a < inf]
            out.append([x if x < inf else inf
                        for x in _rows_by(min, rows, width, inf)])
        return out

    def close(self, c):
        n, inf = len(c), self.inf
        for i in range(n):
            c[i][i] = min(c[i][i], self.unit)
        for p in range(n):
            for i in range(n):
                via = c[i][p]
                if via < inf:
                    c[i] = [x if x <= y else y
                            for x, y in zip(c[i], self._terms(via, c[p]))]
        return c


# -- constructors ------------------------------------------------------------


@lru_cache(maxsize=None)
def bool2():
    """The two-element quantale: carrier {bot, top}, tensor = meet."""
    return FiniteQuantale(
        "bool2",
        labels=("0", "1"),
        leq_table=[[1, 1], [0, 1]],
        tensor_table=[[0, 0], [0, 1]],
        unit_index=1,
    )


@lru_cache(maxsize=None)
def chain(n, tensor="meet"):
    """A totally ordered quantale with n elements ``c0 < ... < c{n-1}``.

    The default tensor is the binary minimum, which makes the chain an
    integral Heyting quantale.
    """
    if n < 1:
        raise StructuralError("a chain needs at least one element")
    labels = tuple(f"c{i}" for i in range(n))
    leq = [[1 if i <= j else 0 for j in range(n)] for i in range(n)]
    if tensor == "meet":
        tens = [[min(i, j) for j in range(n)] for i in range(n)]
        unit = n - 1
    else:
        raise StructuralError(f"unknown chain tensor {tensor!r}")
    return FiniteQuantale("finite-table", labels, leq, tens, unit)


@lru_cache(maxsize=None)
def lukasiewicz_grid(n):
    """The Lukasiewicz tensor on the grid {0, 1/n, ..., 1}.

    ``u (*) v = max(0, u + v - 1)`` keeps grid points on the grid, as does
    the residual ``min(1, 1 - u + v)``.
    """
    if n < 1:
        raise StructuralError("grid resolution must be positive")
    tokens = tuple(str(Fraction(i, n)) for i in range(n + 1))
    leq = [[1 if i <= j else 0 for j in range(n + 1)] for i in range(n + 1)]
    tens = [[max(0, i + j - n) for j in range(n + 1)] for i in range(n + 1)]
    q = FiniteQuantale("lukasiewicz-grid", tokens, leq, tens,
                       unit_index=n, tokens=tokens)
    q.grid_resolution = n
    return q


@lru_cache(maxsize=None)
def cost_plus():
    """Nonnegative extended costs under addition (generalized metrics)."""
    return CostQuantale("plus")


@lru_cache(maxsize=None)
def cost_max():
    """Nonnegative extended costs under maximum (ultrametrics)."""
    return CostQuantale("max")


def finite_table(labels, leq_table, tensor_table, unit_index):
    """Build a finite quantale from explicit tables.

    ``leq_table[i][j]`` is truthy when element i is below element j;
    ``tensor_table`` holds carrier indices.  Laws are not enforced here, so
    deliberately broken tables can be fed to :func:`validate_quantale`.
    """
    return FiniteQuantale("finite-table", tuple(labels),
                          leq_table, tensor_table, unit_index)


# -- generated value sets -----------------------------------------------------


def generated_values(quantale, seeds, cap=10000):
    """Close a finite seed set under meet, join and hom.

    Used to bound the quantifiers of the exponentiability test on the cost
    quantales, whose carriers are infinite.  The closure always contains
    bottom, top and the unit.  Tensor is deliberately excluded: under
    ``cost-plus`` it generates unboundedly many sums, while the meet, join
    and residual closure of rationals with a common denominator is finite
    and contains every comparison breakpoint of the tests that use it.
    Exceeding ``cap`` raises ``UnsupportedOperationError``.
    """
    if quantale.is_finite:
        return quantale.carrier_values()
    for s in seeds:
        quantale._check(s)
    # frontier closure on raw payloads: meet and join of a chain add
    # nothing new, so only the residual produces fresh values
    current = {quantale.bottom.payload, quantale.top.payload,
               quantale.unit.payload}
    current.update(s.payload for s in seeds)
    frontier = set(current)
    while frontier:
        new = set()
        for u in frontier:
            for v in current:
                for w in (quantale._hom_payload(u, v),
                          quantale._hom_payload(v, u)):
                    if w not in current:
                        new.add(w)
        current.update(new)
        if len(current) > cap:
            raise UnsupportedOperationError(
                f"generated value set exceeds the cap of {cap} elements"
            )
        frontier = new
    return [Value(quantale, p)
            for p in sorted(current, key=lambda p: (p is INF,
                                                    0 if p is INF else p))]


# -- validation ---------------------------------------------------------------


def validate_quantale(q):
    """Check every quantale law by enumeration on a finite table.

    The analytic cost kinds return a trusted-axiomatic report: their laws
    hold by the closed forms and are exercised separately by sampled tests.
    """
    if not q.is_finite:
        return ValidationReport(notes=(
            "analytic kind: laws hold by closed form (trusted-axiomatic)",))

    violations = []
    vals = q.carrier_values()
    lab = q.value_token

    # order laws
    for u in vals:
        if not q.leq(u, u):
            violations.append(("order-reflexive", (lab(u),)))
    for u in vals:
        for v in vals:
            if u is not v and q.leq(u, v) and q.leq(v, u):
                violations.append(("order-antisymmetric", (lab(u), lab(v))))
            for w in vals:
                if q.leq(u, v) and q.leq(v, w) and not q.leq(u, w):
                    violations.append(("order-transitive",
                                       (lab(u), lab(v), lab(w))))

    # complete lattice: bottom plus all binary joins (finite case)
    if q._bottom_index is None:
        violations.append(("complete-lattice", ("no bottom element",)))
    for u in vals:
        for v in vals:
            if q._join2[u.payload][v.payload] is None:
                violations.append(("complete-lattice",
                                   (lab(u), lab(v), "no join")))
            if q._meet2[u.payload][v.payload] is None:
                violations.append(("complete-lattice",
                                   (lab(u), lab(v), "no meet")))
    if violations:
        # derived tables are unreliable; stop before using them
        return ValidationReport.collect(violations)

    for u in vals:
        for v in vals:
            if not q.eq(q.tensor(u, v), q.tensor(v, u)):
                violations.append(("tensor-commutative", (lab(u), lab(v))))
            for w in vals:
                lhs = q.tensor(q.tensor(u, v), w)
                rhs = q.tensor(u, q.tensor(v, w))
                if not q.eq(lhs, rhs):
                    violations.append(("tensor-associative",
                                       (lab(u), lab(v), lab(w))))
        if not q.eq(q.tensor(q.unit, u), u):
            violations.append(("tensor-unit", (lab(u),)))

    # distributivity over finite joins, including the empty join
    for u in vals:
        if not q.eq(q.tensor(u, q.bottom), q.bottom):
            violations.append(("tensor-join-distributive",
                               (lab(u), "empty join")))
        for v in vals:
            for w in vals:
                lhs = q.tensor(u, q.join2(v, w))
                rhs = q.join2(q.tensor(u, v), q.tensor(u, w))
                if not q.eq(lhs, rhs):
                    violations.append(("tensor-join-distributive",
                                       (lab(u), lab(v), lab(w))))

    # hom adjunction: u (x) v <= w iff u <= hom(v, w)
    for u in vals:
        for v in vals:
            for w in vals:
                left = q.leq(q.tensor(u, v), w)
                right = q.leq(u, q.hom(v, w))
                if left != right:
                    violations.append(("hom-adjunction",
                                       (lab(u), lab(v), lab(w))))

    # Heyting: meet has a right adjoint
    for u in vals:
        for v in vals:
            sup = q.heyting(u, v)
            if not q.leq(q.meet(sup, u), v):
                violations.append(("heyting", (lab(u), lab(v))))

    # flag consistency
    if q.integral != q.eq(q.unit, q.top):
        violations.append(("integral-flag", ()))
    lean_holds = True
    lean_witness = None
    for u in vals:
        for v in vals:
            if (q.eq(q.join2(u, v), q.top) and q.eq(q.tensor(u, v), q.bottom)
                    and not q.eq(u, q.top) and not q.eq(v, q.top)):
                lean_holds = False
                lean_witness = (lab(u), lab(v))
    if q.lean != lean_holds:
        violations.append(("lean-flag", lean_witness or ()))
    total = all(q.leq(u, v) or q.leq(v, u) for u in vals for v in vals)
    if q.totally_ordered != total:
        violations.append(("totally-ordered-flag", ()))

    notes = ()
    if q.is_finite:
        notes = ("complete distributivity not checked beyond the Heyting "
                 "condition",)
    return ValidationReport.collect(violations, notes)
