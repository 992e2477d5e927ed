"""Matrix algebra of quantale-valued relations over finite carriers.

Relations are dense matrices of :class:`~tvspaces.quantale.Value`; carriers
are ordered label lists and equality of carriers is equality of those lists.
Everything here is immutable and pure.

``Value`` and its ``_check`` live at this boundary only.  :func:`compose`
and :func:`reflexive_transitive_closure` encode their matrices once with
:meth:`~tvspaces.quantale.Quantale.encode`, run on raw payloads (carrier
indices for finite quantales, integers over a common denominator with an
``inf`` sentinel for the cost quantales, see :mod:`tvspaces.quantale`) and
decode the result once.  The answers are exactly those of the entrywise
``Value`` operations, errors from an incomplete lattice included.
"""

from .errors import (
    CarrierMismatchError,
    QuantaleMismatchError,
    StructuralError,
)


class Carrier:
    """An ordered list of distinct element labels; may be empty."""

    __slots__ = ("labels", "_index")

    def __init__(self, labels):
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise StructuralError(f"duplicate carrier labels in {labels}")
        self.labels = labels
        self._index = {x: i for i, x in enumerate(labels)}

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label):
        return label in self._index

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise StructuralError(f"label {label!r} not in carrier") from None

    def indices(self, labels):
        """The positions of some labels, in their order."""
        try:
            return list(map(self._index.__getitem__, labels))
        except KeyError as exc:
            raise StructuralError(
                f"label {exc.args[0]!r} not in carrier") from None

    def __eq__(self, other):
        return isinstance(other, Carrier) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"Carrier({list(self.labels)})"


class MapArrow:
    """A total function between carriers, given by its lookup table."""

    __slots__ = ("dom", "cod", "table")

    def __init__(self, dom, cod, table):
        missing = [x for x in dom.labels if x not in table]
        if missing:
            raise StructuralError(f"map not total, missing {missing}")
        for x, y in table.items():
            if x not in dom:
                raise StructuralError(f"map defined on foreign label {x!r}")
            if y not in cod:
                raise StructuralError(f"map hits foreign label {y!r}")
        self.dom = dom
        self.cod = cod
        self.table = {x: table[x] for x in dom.labels}

    @staticmethod
    def identity(carrier):
        return MapArrow(carrier, carrier, {x: x for x in carrier.labels})

    @staticmethod
    def constant(dom, cod, y):
        return MapArrow(dom, cod, {x: y for x in dom.labels})

    def __call__(self, label):
        return self.table[label]

    def then(self, other):
        """Post-compose: ``f.then(g)`` is the map x -> g(f(x))."""
        if self.cod != other.dom:
            raise CarrierMismatchError("composition carriers do not match")
        return MapArrow(self.dom, other.cod,
                        {x: other.table[y] for x, y in self.table.items()})

    def graph(self):
        return tuple(self.table[x] for x in self.dom.labels)

    def is_surjective(self):
        return set(self.table.values()) == set(self.cod.labels)

    def __eq__(self, other):
        return (isinstance(other, MapArrow) and self.dom == other.dom
                and self.cod == other.cod and self.table == other.table)

    def __hash__(self):
        return hash((self.dom.labels, self.cod.labels, self.graph()))

    def __repr__(self):
        assign = " ".join(f"{x}->{y}" for x, y in self.table.items())
        return f"MapArrow({assign or 'empty'})"


class VRel:
    """A quantale-valued matrix indexed by a pair of carriers."""

    __slots__ = ("dom", "cod", "quantale", "entries")

    def __init__(self, dom, cod, quantale, entries):
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != len(dom):
            raise StructuralError(
                f"expected {len(dom)} rows, got {len(entries)}")
        for row in entries:
            if len(row) != len(cod):
                raise StructuralError(
                    f"expected {len(cod)} columns, got {len(row)}")
            for v in row:
                if v.quantale is not quantale:
                    raise QuantaleMismatchError(
                        "matrix entry from a different quantale")
        self.dom = dom
        self.cod = cod
        self.quantale = quantale
        self.entries = entries

    @staticmethod
    def build(dom, cod, quantale, fn):
        """Tabulate ``fn(x_label, y_label) -> Value``."""
        return VRel(dom, cod, quantale,
                    [[fn(x, y) for y in cod.labels] for x in dom.labels])

    @staticmethod
    def constant(dom, cod, quantale, value):
        return VRel(dom, cod, quantale,
                    [[value] * len(cod) for _ in range(len(dom))])

    def get(self, x_label, y_label):
        return self.entries[self.dom.index(x_label)][self.cod.index(y_label)]

    def __eq__(self, other):
        return (isinstance(other, VRel) and self.dom == other.dom
                and self.cod == other.cod
                and self.quantale is other.quantale
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.dom, self.cod,
                     tuple(v.payload for row in self.entries for v in row)))

    def tokens(self):
        q = self.quantale
        return tuple(tuple(q.value_token(v) for v in row)
                     for row in self.entries)

    def __repr__(self):
        rows = [" ".join(ts) for ts in self.tokens()]
        return "VRel[" + "; ".join(rows) + "]"


def _same_shape(r, s):
    if r.quantale is not s.quantale:
        raise QuantaleMismatchError("relations over different quantales")
    if r.dom != s.dom or r.cod != s.cod:
        raise CarrierMismatchError("relation shapes do not match")


def from_map(f, quantale):
    """Embed a map as a relation: unit on the graph, bottom elsewhere."""
    k, bot = quantale.unit, quantale.bottom
    return VRel.build(f.dom, f.cod, quantale,
                      lambda x, y: k if f.table[x] == y else bot)


def identity_rel(carrier, quantale):
    return from_map(MapArrow.identity(carrier), quantale)


def compose(r, s):
    """Relational composite of ``r : X -/-> Y`` then ``s : Y -/-> Z``.

    Entry ``(x, z)`` is the join over y of ``r(x, y) (x) s(y, z)``.
    """
    if r.quantale is not s.quantale:
        raise QuantaleMismatchError("relations over different quantales")
    if r.cod != s.dom:
        raise CarrierMismatchError(
            f"cannot compose: {r.cod!r} != {s.dom!r}")
    q = r.quantale
    kernel, (left, right) = q.encode((r.entries, s.entries), steps=2)
    return VRel(r.dom, s.cod, q,
                kernel.decode(kernel.compose(left, right, len(s.cod))))


def transpose(r):
    return VRel(r.cod, r.dom, r.quantale,
                [[r.entries[i][j] for i in range(len(r.dom))]
                 for j in range(len(r.cod))])


def rel_leq(r, s):
    _same_shape(r, s)
    q = r.quantale
    return all(q.leq(a, b)
               for ra, sa in zip(r.entries, s.entries)
               for a, b in zip(ra, sa))


def rel_join(r, s):
    _same_shape(r, s)
    q = r.quantale
    return VRel(r.dom, r.cod, q,
                [[q.join2(a, b) for a, b in zip(ra, sa)]
                 for ra, sa in zip(r.entries, s.entries)])


def rel_meet(r, s):
    _same_shape(r, s)
    q = r.quantale
    return VRel(r.dom, r.cod, q,
                [[q.meet(a, b) for a, b in zip(ra, sa)]
                 for ra, sa in zip(r.entries, s.entries)])


def reflexive_transitive_closure(r):
    """Least reflexive transitive relation above a square relation.

    A single Floyd-Warshall sweep after joining in the identity.  Exact for
    integral quantales: ``u (x) v <= u /\\ v`` means a path that repeats a
    node is never better than the path with the loop cut out, so simple
    paths suffice and each pivot needs one pass.  A candidate joins two
    simple paths, so it adds up fewer than ``2 n`` entries.  The kernel
    refuses a quantale that is not integral.
    """
    if r.dom != r.cod:
        raise CarrierMismatchError("closure needs a square relation")
    q = r.quantale
    kernel, (c,) = q.encode((r.entries,), steps=2 * len(r.dom))
    return VRel(r.dom, r.cod, q, kernel.decode(kernel.close(c)))
