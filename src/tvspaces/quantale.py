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
operation checks its arguments with ``_check``.  A relation stores the bare
payloads of its entries (see :mod:`tvspaces.vrel`); ``value_of`` and
``token_of`` turn a stored payload into its ``Value`` or token unchecked.
The matrix kernels behind ``vrel.compose``, the closure and the space
predicates and constructions work on kernel rows, and this module alone
decides how: :meth:`Quantale.encode` gives the kernel for one operation on
some relations and the kernel rows of each (``Quantale.kernel`` and the
kernel's ``row`` do the same one row at a time, for scans that may stop
early), and the kernel's ``decode`` turns result rows into payloads.

* Finite quantales compute on the payloads, the carrier indices of the
  tables; the kernel reads ``_tensor``, ``_join2`` and ``_leq`` directly,
  and its ``decode`` hands rows back unchanged.  On a chain, ``compose`` and
  the closure pack each row into one int inside the operation, so that a
  join of rows is one bitwise OR (see ``_FiniteKernel``).
* Cost quantales use integers over ``scale``, the lcm of the denominators of
  every entry of the operation, so ``+``, ``max`` and ``min`` on them are
  exact integer arithmetic.  ``inf`` becomes one sentinel integer set above
  every finite path sum the operation can form: the caller passes
  ``steps``, the most entries one sum adds up, and the sentinel is
  ``steps * M + 1`` for a bound ``M`` on every finite entry (the largest
  numerator times the scale).  A sum that involves the sentinel is at least
  the sentinel, and results are clamped back to it, so a finite sum is
  never read as ``inf`` and ``inf`` never as finite.  Each relation is
  rescaled once: on its first kernel use it keeps its cost form (see
  ``_cost_form``), its rows as integers over its own scale, the lcm of its
  own denominators.  An operation's scale is the lcm of its relations'
  scales, so its kernel rows are the stored rows times a whole factor, and
  a relation already on that scale is copied, not multiplied.
"""

import math
import operator
from fractions import Fraction
from functools import lru_cache, reduce

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

    # subclasses implement: tensor, _hom_payload, leq, meet, join2,
    # bottom/top/unit, value_of, token_of, parse_value, cache_key,
    # kernel(relations, steps), and the flags integral, lean,
    # totally_ordered and meet_tensor (the tensor is the lattice meet)

    def encode(self, relations, steps=1):
        """The kernel for some relations, and the kernel rows of each.

        ``steps`` bounds how many entries one sum of the operation adds up.
        The rows are fresh lists, so a kernel operation may write to them.
        """
        kernel = self.kernel(relations, steps)
        return kernel, [kernel.rows(r) for r in relations]

    def value_token(self, v):
        self._check(v)
        return self.token_of(v.payload)

    def hom(self, u, v):
        self._check(u, v)
        return self.value_of(self._hom_payload(u.payload, v.payload))

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
    partial when the supplied order is not a complete lattice, and the tensor
    may break a law.  Whether the order is a complete lattice is decided
    once, here; :meth:`kernel` refuses a table whose order is not one with a
    ``StructuralError``, so every matrix operation does.  The ``Value``
    operations raise only on a missing entry, and :func:`validate_quantale`
    reports every broken law with a witness instead.
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
        # from lists, see vrel.VRel._from_rows
        self._leq = tuple([tuple([bool(x) for x in row]) for row in leq_table])
        self._tensor = tuple([tuple(row) for row in tensor_table])
        self._unit_index = unit_index
        self._values = tuple([Value(self, i) for i in range(n)])
        self._join2 = self._derive_bound_table(upper=True)
        self._meet2 = self._derive_bound_table(upper=False)
        self._bottom_index = self._extremum(bottom=True)
        self._top_index = self._extremum(bottom=False)
        self._hom = self._derive_residual(self._tensor)
        self._heyting = self._derive_residual(self._meet2)
        self._flaw = self._lattice_flaw()
        self._kernel = None if self._flaw else _FiniteKernel(self)
        self.meet_tensor = self._tensor == self._meet2

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

    def _lattice_flaw(self):
        """Why the order is not a complete lattice, or None when it is one.

        A finite order is a complete lattice exactly when it is a partial
        order whose join and meet tables are total; it then has a bottom, a
        top and total residuals.  Total tables alone are not enough: the
        3-cycle ``[[1,0,1],[1,1,0],[0,1,1]]`` has them.
        """
        for what, table in (("join", self._join2), ("meet", self._meet2)):
            if any(None in row for row in table):
                return f"{what} undefined"
        r = range(len(self.labels))
        ups = [{v for v in r if self._leq[u][v]} for u in r]
        for u, up in enumerate(ups):
            # reflexive, antisymmetric and transitive at u
            if u not in up or any(v != u and u in ups[v] or not ups[v] <= up
                                  for v in up):
                return "order not a partial order"
        return None

    def _not_a_lattice(self, flaw):
        return StructuralError(
            f"{flaw} in quantale {self.describe()}: the order "
            "is not a complete lattice (run validate_quantale)"
        )

    def _entry(self, table, a, b, what):
        out = table[a][b]
        if out is None:
            raise self._not_a_lattice(f"{what} undefined")
        return out

    def _lookup(self, table, u, v, what):
        self._check(u, v)
        return self._values[self._entry(table, u.payload, v.payload, what)]

    def _hom_payload(self, a, b):
        return self._entry(self._hom, a, b, "hom")

    def kernel(self, relations, steps=1):
        """The index kernel, shared by every operation on this quantale.

        Refused when the order is not a complete lattice.
        """
        if self._kernel is None:
            raise self._not_a_lattice(self._flaw)
        return self._kernel

    # -- operations --------------------------------------------------------

    def tensor(self, u, v):
        self._check(u, v)
        return self._values[self._tensor[u.payload][v.payload]]

    def join2(self, u, v):
        return self._lookup(self._join2, u, v, "join")

    def meet(self, u, v):
        return self._lookup(self._meet2, u, v, "meet")

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

    def value_of(self, p):
        return self._values[p]

    def token_of(self, p):
        return self._tokens[p]

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
        self.meet_tensor = flavor == "max"
        self._zero = Value(self, Fraction(0))
        self._inf = Value(self, INF)

    def value(self, raw):
        if raw is INF:
            return self._inf
        f = raw if type(raw) is Fraction else Fraction(raw)
        if f < 0:
            raise StructuralError(f"cost values must be nonnegative, got {f}")
        return Value(self, f)

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

    def heyting(self, u, v):
        # meet is numeric max for both flavors, so the implication coincides
        # with the cost-max residual
        self._check(u, v)
        if _num_leq(v.payload, u.payload):
            return self._zero
        return Value(self, v.payload)

    def kernel(self, relations, steps=1):
        """A scaled-integer kernel for the entries of these relations.

        The scale is the lcm of their denominators, and ``inf`` is set above
        ``steps`` times the largest numerator times the scale, so no finite
        sum of ``steps`` entries reaches it.
        """
        forms = [_cost_form(r) for r in relations]
        scale = math.lcm(*[s for s, _, _ in forms])
        # n * (scale // d) <= n * scale bounds every entry
        largest = max([n for _, n, _ in forms], default=0) * scale
        return _CostKernel(self, scale, max(steps, 1) * largest + 1)

    def _hom_payload(self, a, b):
        # largest w (smallest cost) with w (x) u <= v in the quantale order
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

    def value_of(self, p):
        return self._inf if p is INF else Value(self, p)

    @staticmethod
    def token_of(p):
        return "inf" if p is INF else str(p)

    def parse_value(self, token):
        if token == "inf":
            return self._inf
        try:
            return self.value(Fraction(token))
        except (ValueError, ZeroDivisionError):
            raise StructuralError(f"malformed rational {token!r}") from None

    def cache_key(self):
        return (self.kind,)


# -- payload kernels ----------------------------------------------------------


def _cost_form(rel):
    """A cost relation's kernel form, filled on its first kernel use.

    The form is ``(scale, largest, rows)``: the lcm of the denominators of
    the relation's entries, their largest numerator, and its rows as
    integers over that scale, ``None`` marking ``inf``.  It lives in the
    relation's ``_cost_form`` slot, which only this module reads or
    writes.  Threads that race on an empty slot each store the same form,
    and a relation never changes, so the form is never stale.
    """
    try:
        return rel._cost_form
    except AttributeError:
        pass
    ratios = [[None if p is INF else p.as_integer_ratio() for p in row]
              for row in rel.rows]
    finite = [r for row in ratios for r in row if r is not None]
    scale = math.lcm(*{d for _, d in finite})
    form = rel._cost_form = (
        scale, max(finite, default=(0, 1))[0],
        tuple([tuple([None if r is None else r[0] * (scale // r[1])
                      for r in row]) for row in ratios]))
    return form


def _rows_by(fold, rows, width, empty):
    """Entrywise ``fold`` (``max`` or ``min``) of equally long rows."""
    if not rows:
        return [empty] * width
    if len(rows) == 1:
        return list(rows[0])
    return list(map(fold, *rows))


def _rows_through(table, rows, width, start):
    """Entrywise fold of equally long rows through a binary ``table``."""
    out = [start] * width
    for row in rows:
        out = [table[a][b] for a, b in zip(out, row)]
    return out


def _image_pairs(a, images, bottom):
    """The pairs ``join_images`` joins, per entry, as ``(v, pairs)`` items.

    A lattice join is idempotent and order-free, so each distinct pair
    ``(f[i], f[j])`` is joined once per value ``v = a[i][j]``, and
    ``bottom`` entries, which join as no-ops, are skipped.
    """
    cols = list(zip(*images))         # cols[i]: the image of i under each map
    pairs = {}
    if images:
        for i, row in enumerate(a):
            for j, v in enumerate(row):
                if v != bottom:
                    pairs.setdefault(v, set()).update(zip(cols[i], cols[j]))
    return pairs.items()


# the most composite entries one block of the exponentiability scan holds
_EXP_BLOCK = 1 << 16

# _POPCOUNT[b]: the set bits of byte b, the index a one-byte code holds
_POPCOUNT = bytes(bin(b).count("1") for b in range(256))


class _Kernel:
    """Matrix operations on the kernel rows of one quantale.

    Subclasses give ``unit``, ``bottom`` and ``top`` (kernel entries),
    ``rows(rel)`` (the kernel rows of a relation the kernel was made for, as
    fresh lists), ``row(rel, i, indices=None)`` (its row i, or the entries
    of row i at ``indices``, as a fresh list), ``decode(rows)`` (the
    payload rows of kernel rows), ``below(a, b)`` and
    ``row_below(ra, rb)`` (the quantale order on entries and on whole rows),
    ``tensor(a, b)``, ``meet(a, b)`` and ``heyting(a, b)`` on entries,
    ``compose(left, right, width)``, ``close(rows)``, and three folds:
    ``meet_rows(rows, width)`` (the entrywise meet of some rows, starting
    from top), ``join_all(entries)`` (the join of a sequence, starting from
    bottom) and ``join_at(acc, cols, row)`` (``acc[cols[j]]`` joined with
    ``row[j]`` in place, for j in order), and ``join_images(acc, a,
    images)`` (``acc[f[i]][f[j]]`` joined with ``a[i][j]`` in place, for
    each map f of ``images``, given as image-index tuples out of the
    square ``a``).  Matrices are lists of rows, both going in and coming
    out; an operation may hold them in another form while it runs, as the
    finite kernel's packed rows.
    Built on these, ``function_space`` gives the function-space matrix on
    some maps and ``exponentiability_witness`` the first failure of the
    exponentiability inequality.
    """

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
        pairs ``(y1, y2)``, of ``heyting(b[y1][y2], c[g[y1]][h[y2]])``.
        Row g is the meet of one row over the maps h per point pair, and
        that row depends only on ``b[y1][y2]``, ``g[y1]`` and ``y2``, so it
        is built once per such triple.
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
        entries, so a large value set costs time, not memory.
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

    Only an order that is a complete lattice gets a kernel (see
    ``FiniteQuantale.kernel``), so every join, meet and implication is
    defined, bottom and top exist, and no fold depends on its order.  When
    the join table is ``max`` of the indices (bool2, the chains and the
    Lukasiewicz grids), the order is the index order: rows are met by
    ``min`` and compared by ``<=``, and ``compose`` and ``close`` work on
    packed rows.  A packed row is one int that holds, for each column j, the
    thermometer code ``(1 << v) - 1`` of its index v in the ``nbytes`` bytes
    from byte ``nbytes * j`` on, with ``8 * nbytes >= n - 1``.  On a chain
    two facts make this pay: a code is below another exactly when its bits
    are a subset of the other's (``x & ~y == 0``), so the max of two codes is
    their OR, and a whole row of joins is one ``|``.  Index rows go in and
    come out: each term row is packed once, straight from the index bytes
    through one translation table per tensor factor, and each result row is
    unpacked by one ``to_bytes`` and one ``translate`` to the popcount of
    each byte.  Any other lattice, and a chain too long for one-byte digits
    (see ``__init__``), folds its rows through the tables.  When bottom
    tensors every element to bottom, a bottom entry's terms are skipped.
    """

    def __init__(self, q):
        n = len(q.labels)
        self._leq = q._leq
        self._tensor = q._tensor
        self._join = q._join2
        self._meet = q._meet2
        self._heyting = q._heyting
        self._integral = q.integral
        self.unit = q._unit_index
        self.bottom = q._bottom_index
        self.top = q._top_index
        self._max_join = all(q._join2[a][b] == max(a, b)
                             for a in range(n) for b in range(n))
        bot = self.bottom
        self._skip = bot if all(x == bot for x in q._tensor[bot]) else None
        # a max join makes the order the index order, so the meet is min
        self.meet = min if self._max_join else self._meet2
        # a packed row gives each column nbytes digits, x * nbytes + k for
        # byte k of the code of index x, so the digits fit a byte when
        # n * nbytes <= 256; a longer chain folds through the tables
        nbytes = self._nbytes = max(1, (n + 6) // 8)
        self._packed = self._max_join and n * nbytes <= 256
        if self._packed:
            codes = [((1 << v) - 1).to_bytes(nbytes, "little")
                     for v in range(n)]
            # translation tables from digits to the code bytes of x and,
            # per a, of a (x) x
            self._code_table = b"".join(codes).ljust(256, b"\0")
            self._term_tables = [b"".join(map(codes.__getitem__, ta)).ljust(
                256, b"\0") for ta in q._tensor]
            self._spread = [bytes(range(x * nbytes, (x + 1) * nbytes))
                            for x in range(n)]

    @staticmethod
    def rows(rel):
        return list(map(list, rel.rows))

    @staticmethod
    def row(rel, i, indices=None):
        row = rel.rows[i]
        if indices is None:
            return list(row)
        return [row[j] for j in indices]

    @staticmethod
    def decode(rows):
        return rows

    def below(self, a, b):
        return self._leq[a][b]

    def tensor(self, a, b):
        return self._tensor[a][b]

    def row_below(self, ra, rb):
        if self._max_join:             # the order is then the index order
            return all(map(operator.le, ra, rb))
        return all(map(operator.getitem, map(self._leq.__getitem__, ra), rb))

    def _meet2(self, a, b):
        return self._meet[a][b]

    def heyting(self, a, b):
        return self._heyting[a][b]

    def meet_rows(self, rows, width):
        if self._max_join:             # a chain: the meet is min
            return _rows_by(min, rows, width, self.top)
        return _rows_through(self._meet, rows, width, self.top)

    def join_all(self, payloads):
        if self._max_join:             # a chain: bottom is index 0
            return max(payloads, default=0)
        join, out = self._join, self.bottom
        for p in payloads:
            out = join[out][p]
        return out

    def join_at(self, acc, cols, row):
        join = self._join
        for k, v in zip(cols, row):
            acc[k] = join[acc[k]][v]

    def join_images(self, acc, a, images):
        join = self._join
        for v, at in _image_pairs(a, images, self.bottom):
            for y, z in at:
                acc[y][z] = join[acc[y][z]][v]

    def _digits(self, row):
        """The digits of an index row, to translate into a packed row."""
        if self._nbytes == 1:
            return bytes(row)
        return b"".join(map(self._spread.__getitem__, row))

    def _unpack(self, rows, width):
        """The index rows of some packed rows of ``width`` columns."""
        nbytes = self._nbytes
        counts = [x.to_bytes(width * nbytes, "little").translate(_POPCOUNT)
                  for x in rows]
        if nbytes == 1:
            return list(map(list, counts))
        # an index is the sum of the set bits of its field's bytes
        return [list(map(sum, zip(*[c[k::nbytes] for k in range(nbytes)])))
                for c in counts]

    def compose(self, left, right, width):
        if not (left and width):
            return [[] for _ in left]
        tensor, skip = self._tensor, self._skip
        if self._packed:
            # terms[m][a]: a tensored on right[m], for each a of column m
            digits, tables, terms = self._digits, self._term_tables, []
            for rm, col in zip(right, zip(*left)):
                d, tm = digits(rm), [0] * len(tables)
                for a in set(col):
                    tm[a] = int.from_bytes(d.translate(tables[a]), "little")
                terms.append(tm)
            return self._unpack([reduce(operator.or_, map(
                list.__getitem__, terms, row), 0) for row in left], width)
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
            out.append(_rows_through(self._join, rows, width, self.bottom))
        return out

    def close(self, c):
        """Floyd-Warshall in place, after joining the unit into the diagonal.

        Rows are updated whole, in the order of the entrywise sweep: a row
        before the pivot reads the pivot row as it was, a row after it reads
        the updated one.  Only exact for an integral quantale (see
        ``vrel.reflexive_transitive_closure``); any other is refused.
        """
        if not self._integral:
            raise UnsupportedOperationError(
                "closure is only exact for integral quantales")
        n, tensor, skip, join = len(c), self._tensor, self._skip, self._join
        if self._packed:
            bits = 8 * self._nbytes
            mask, unit = (1 << bits) - 1, (1 << self.unit) - 1
            digits, unpack = self._digits, self._unpack
            codes, tables = self._code_table, self._term_tables
            rows = [int.from_bytes(digits(r).translate(codes), "little")
                    | unit << bits * i for i, r in enumerate(c)]
            for p in range(n):
                shift, terms, d = bits * p, {}, None
                for i in range(n):
                    x = rows[i]
                    # the code of bottom, index 0, is 0
                    via = x >> shift & mask
                    if via == skip:
                        continue
                    t = terms.get(via)
                    if t is None:
                        if d is None:
                            d = digits(unpack([rows[p]], n)[0])
                        t = terms[via] = int.from_bytes(
                            d.translate(tables[via.bit_count()]), "little")
                    rows[i] = x | t
                    if i == p:
                        terms, d = {}, None
            c[:] = unpack(rows, n)
            return c
        for i in range(n):
            c[i][i] = join[c[i][i]][self.unit]
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
                c[i] = [join[x][y] for x, y in zip(c[i], t)]
                if i == p:
                    terms = {}
        return c


class _CostKernel(_Kernel):
    """Compose and closure on integers over ``scale``, ``inf`` a sentinel.

    The quantale order is the reversed numeric order, join is ``min`` and the
    tensor is ``+`` or ``max``.  An ``inf`` entry tensors every term to
    ``inf``, which the ``min`` ignores, so its terms are skipped.  The rows
    of a relation are its stored cost form (see ``_cost_form``) times
    ``scale`` over the form's scale, with the sentinel for ``inf``, so no
    entry is rescaled from its ``Fraction``.  ``decode`` builds one payload
    per distinct integer of its rows.
    """

    def __init__(self, q, scale, inf):
        self._plus = q._flavor == "plus"
        self.scale = scale
        self.inf = self.bottom = inf
        self.unit = self.top = 0

    def _scaled(self, scale, entries):
        """Kernel entries of stored form entries over ``scale``."""
        inf, k = self.inf, self.scale // scale
        if k == 1:
            return [inf if x is None else x for x in entries]
        return [inf if x is None else x * k for x in entries]

    def rows(self, rel):
        scale, _, rows = rel._cost_form
        return [self._scaled(scale, row) for row in rows]

    def row(self, rel, i, indices=None):
        scale, _, rows = rel._cost_form
        row = rows[i]
        if indices is not None:
            row = [row[j] for j in indices]
        return self._scaled(scale, row)

    def decode(self, rows):
        scale, inf = self.scale, self.inf
        payload = {x: INF if x >= inf else Fraction(x, scale)
                   for x in set().union(*rows)}
        get = payload.__getitem__
        return [list(map(get, row)) for row in rows]

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

    def join_images(self, acc, a, images):
        for v, at in _image_pairs(a, images, self.inf):
            for y, z in at:
                if v < acc[y][z]:
                    acc[y][z] = v

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
    deliberately broken tables can be fed to :func:`validate_quantale`; an
    order that is not a complete lattice is refused by every matrix
    operation instead (see :meth:`FiniteQuantale.kernel`).
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
    return [Value(quantale, p) for p in _generated_payloads(
        quantale, [s.payload for s in seeds], cap)]


def _generated_payloads(quantale, seeds, cap=10000):
    """The payloads of :func:`generated_values`, from payload seeds."""
    if quantale.is_finite:
        return list(range(len(quantale.labels)))
    # frontier closure on raw payloads: meet and join of a chain add
    # nothing new, so only the residual produces fresh values
    current = {quantale.bottom.payload, quantale.top.payload,
               quantale.unit.payload}
    current.update(seeds)
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
    return sorted(current, key=lambda p: (p is INF, 0 if p is INF else p))


# -- validation ---------------------------------------------------------------


def validate_quantale(q):
    """Check every quantale law by enumeration on a finite table.

    The laws are read off the index tables.  Past the lattice check every
    table is total, so no lookup can meet an undefined entry.  The analytic
    cost kinds return a trusted-axiomatic report: their laws hold by the
    closed forms and are exercised separately by sampled tests.
    """
    if not q.is_finite:
        return ValidationReport(notes=(
            "analytic kind: laws hold by closed form (trusted-axiomatic)",))

    violations = []
    r = range(len(q.labels))
    lab = q.token_of
    leq = q._leq

    # order laws
    for u in r:
        if not leq[u][u]:
            violations.append(("order-reflexive", (lab(u),)))
    for u in r:
        for v in r:
            if u != v and leq[u][v] and leq[v][u]:
                violations.append(("order-antisymmetric", (lab(u), lab(v))))
            for w in r:
                if leq[u][v] and leq[v][w] and not leq[u][w]:
                    violations.append(("order-transitive",
                                       (lab(u), lab(v), lab(w))))

    # complete lattice: bottom plus all binary joins (finite case)
    if q._bottom_index is None:
        violations.append(("complete-lattice", ("no bottom element",)))
    for u in r:
        for v in r:
            if q._join2[u][v] is None:
                violations.append(("complete-lattice",
                                   (lab(u), lab(v), "no join")))
            if q._meet2[u][v] is None:
                violations.append(("complete-lattice",
                                   (lab(u), lab(v), "no meet")))
    if violations:
        # derived tables are unreliable; stop before using them
        return ValidationReport.collect(violations)

    tensor, join, meet = q._tensor, q._join2, q._meet2
    unit, bottom, top = q.unit.payload, q.bottom.payload, q.top.payload
    for u in r:
        tu = tensor[u]
        for v in r:
            if tu[v] != tensor[v][u]:
                violations.append(("tensor-commutative", (lab(u), lab(v))))
            tuv, tv = tensor[tu[v]], tensor[v]
            for w in r:
                if tuv[w] != tu[tv[w]]:
                    violations.append(("tensor-associative",
                                       (lab(u), lab(v), lab(w))))
        if tensor[unit][u] != u:
            violations.append(("tensor-unit", (lab(u),)))

    # distributivity over finite joins, including the empty join
    for u in r:
        tu = tensor[u]
        if tu[bottom] != bottom:
            violations.append(("tensor-join-distributive",
                               (lab(u), "empty join")))
        for v in r:
            for w in r:
                if tu[join[v][w]] != join[tu[v]][tu[w]]:
                    violations.append(("tensor-join-distributive",
                                       (lab(u), lab(v), lab(w))))

    # hom adjunction: u (x) v <= w iff u <= hom(v, w)
    hom = q._hom
    for u in r:
        for v in r:
            for w in r:
                if leq[tensor[u][v]][w] != leq[u][hom[v][w]]:
                    violations.append(("hom-adjunction",
                                       (lab(u), lab(v), lab(w))))

    # Heyting: meet has a right adjoint
    for u in r:
        for v in r:
            if not leq[meet[q._heyting[u][v]][u]][v]:
                violations.append(("heyting", (lab(u), lab(v))))

    # flag consistency
    if q.integral != (unit == top):
        violations.append(("integral-flag", ()))
    lean_holds = True
    lean_witness = None
    for u in r:
        for v in r:
            if (join[u][v] == top and tensor[u][v] == bottom
                    and u != top and v != top):
                lean_holds = False
                lean_witness = (lab(u), lab(v))
    if q.lean != lean_holds:
        violations.append(("lean-flag", lean_witness or ()))
    total = all(leq[u][v] or leq[v][u] for u in r for v in r)
    if q.totally_ordered != total:
        violations.append(("totally-ordered-flag", ()))

    notes = ("complete distributivity not checked beyond the Heyting "
             "condition",)
    return ValidationReport.collect(violations, notes)
