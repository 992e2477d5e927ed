"""Matrix algebra of quantale-valued relations over finite carriers.

A relation stores ``rows``: tuples of the payloads its entries'
:class:`~tvspaces.quantale.Value` objects carry (a finite quantale's carrier
index, a cost quantale's ``Fraction`` or ``INF``).  Carriers are ordered
label lists, equal when the lists are.  Everything here is immutable.

``VRel(dom, cod, quantale, entries)`` checks the shape and the quantale of
every entry and keeps their payloads; ``entries``, ``get`` and ``tokens``
build ``Value`` objects or tokens on demand.  Rows the library computes are
right by construction and go through ``VRel._from_rows`` unchecked.
:func:`compose`, the closure, joins and meets run the quantale's kernel
(see :mod:`tvspaces.quantale`) on the stored rows and store the rows it
returns: exactly the entrywise ``Value`` answers.  A cost relation keeps
its rows as kernel integers too, once a kernel has used it, so it is
rescaled once, not once per operation.  A finite table whose order is not
a complete lattice has no kernel, so they refuse it.

A map stores ``images``, its image indices in domain order, the same way:
``MapArrow(dom, cod, table)`` checks a label table, ``table``, ``__call__``
and ``graph`` read labels on demand, and ``MapArrow._from_images`` is the
unchecked constructor.
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
        labels = tuple(list(map(str, labels)))   # see VRel._from_rows
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
    """A total function between carriers: ``images[i]`` is the index in
    ``cod`` of the image of ``dom.labels[i]``."""

    __slots__ = ("dom", "cod", "images")

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
        self.images = tuple([cod._index[table[x]] for x in dom.labels])

    @staticmethod
    def _from_images(dom, cod, images):
        """These image indices, computed by the library, so unchecked."""
        f = object.__new__(MapArrow)
        f.dom, f.cod, f.images = dom, cod, tuple(images)
        return f

    @staticmethod
    def identity(carrier):
        return MapArrow._from_images(carrier, carrier, range(len(carrier)))

    @staticmethod
    def constant(dom, cod, y):
        if dom.labels and y not in cod:
            raise StructuralError(f"map hits foreign label {y!r}")
        return MapArrow._from_images(
            dom, cod, (cod._index[y],) * len(dom) if dom.labels else ())

    @property
    def table(self):
        """The images as a label dictionary, keyed in domain order."""
        return dict(zip(self.dom.labels, self.graph()))

    def __call__(self, label):
        return self.cod.labels[self.images[self.dom._index[label]]]

    def then(self, other):
        """Post-compose: ``f.then(g)`` is the map x -> g(f(x))."""
        if self.cod != other.dom:
            raise CarrierMismatchError("composition carriers do not match")
        return MapArrow._from_images(
            self.dom, other.cod, map(other.images.__getitem__, self.images))

    def graph(self):
        return tuple(map(self.cod.labels.__getitem__, self.images))

    def is_surjective(self):
        return len(set(self.images)) == len(self.cod)

    def __eq__(self, other):
        return (isinstance(other, MapArrow) and self.dom == other.dom
                and self.cod == other.cod and self.images == other.images)

    def __hash__(self):
        return hash((self.dom.labels, self.cod.labels, self.graph()))

    def __repr__(self):
        assign = " ".join(f"{x}->{y}"
                          for x, y in zip(self.dom.labels, self.graph()))
        return f"MapArrow({assign or 'empty'})"


class VRel:
    """A quantale-valued matrix indexed by a pair of carriers.

    ``_form`` holds the relation's kernel form once a kernel has used it
    (a cost relation's integer rows, a packed chain's codes);
    :mod:`tvspaces.quantale` alone fills and reads it.  It is derived from
    ``rows``, so equality and hashing ignore it.
    """

    __slots__ = ("dom", "cod", "quantale", "rows", "_form")

    def __init__(self, dom, cod, quantale, entries):
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != len(dom):
            raise StructuralError(
                f"expected {len(dom)} rows, got {len(entries)}")
        rows = []
        for row in entries:
            if len(row) != len(cod):
                raise StructuralError(
                    f"expected {len(cod)} columns, got {len(row)}")
            # one pass: an entry of another quantale leaves the row short
            payloads = tuple([v.payload for v in row
                              if v.quantale is quantale])
            if len(payloads) != len(row):
                raise QuantaleMismatchError(
                    "matrix entry from a different quantale")
            rows.append(payloads)
        self.dom = dom
        self.cod = cod
        self.quantale = quantale
        self.rows = tuple(rows)

    @staticmethod
    def _from_rows(dom, cod, quantale, rows):
        """These payload rows, computed by the library, so unchecked."""
        r = object.__new__(VRel)
        r.dom, r.cod, r.quantale = dom, cod, quantale
        # Tuples are built from lists here and on the other paths that
        # parse and print: a tuple built from an iterator of unknown length
        # is allocated at a default size and resized, and when freed it
        # joins the free list of its final size, which only a full garbage
        # collection empties: those lists, and the memory they hold, keep
        # growing between full collections.
        r.rows = tuple(list(map(tuple, rows)))
        return r

    @staticmethod
    def build(dom, cod, quantale, fn):
        """Tabulate ``fn(x_label, y_label) -> Value``."""
        return VRel(dom, cod, quantale,
                    [[fn(x, y) for y in cod.labels] for x in dom.labels])

    @staticmethod
    def constant(dom, cod, quantale, value):
        return VRel(dom, cod, quantale,
                    [[value] * len(cod) for _ in range(len(dom))])

    @property
    def entries(self):
        """The rows as ``Value`` objects."""
        value_of = self.quantale.value_of
        return tuple(tuple(map(value_of, row)) for row in self.rows)

    def get(self, x_label, y_label):
        return self.quantale.value_of(
            self.rows[self.dom.index(x_label)][self.cod.index(y_label)])

    def __eq__(self, other):
        return (isinstance(other, VRel) and self.dom == other.dom
                and self.cod == other.cod
                and self.quantale is other.quantale
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.dom, self.cod, self.rows))

    def tokens(self):
        token_of = self.quantale.token_of
        # from lists: see _from_rows
        return tuple([tuple(list(map(token_of, row))) for row in self.rows])

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
    k, bot = quantale.unit.payload, quantale.bottom.payload
    width = range(len(f.cod))
    return VRel._from_rows(f.dom, f.cod, quantale,
                           [[k if fx == y else bot for y in width]
                            for fx in f.images])


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
    kernel, (left, right) = q.encode((r, s), steps=2)
    return VRel._from_rows(r.dom, s.cod, q, kernel.decode(
        kernel.compose(left, right, len(s.cod))))


def transpose(r):
    return VRel._from_rows(r.cod, r.dom, r.quantale,
                           [[row[j] for row in r.rows]
                            for j in range(len(r.cod))])


def rel_leq(r, s):
    _same_shape(r, s)
    kernel, (a, b) = r.quantale.encode((r, s))
    return all(map(kernel.row_below, a, b))


def rel_join(r, s):
    _same_shape(r, s)
    q = r.quantale
    kernel, (a, b) = q.encode((r, s))
    for ra, rb in zip(a, b):
        kernel.join_at(ra, range(len(rb)), rb)
    return VRel._from_rows(r.dom, r.cod, q, kernel.decode(a))


def rel_meet(r, s):
    _same_shape(r, s)
    q = r.quantale
    kernel, (a, b) = q.encode((r, s))
    meet = kernel.meet
    return VRel._from_rows(r.dom, r.cod, q, kernel.decode(
        [list(map(meet, ra, rb)) for ra, rb in zip(a, b)]))


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
    kernel, (c,) = q.encode((r,), steps=2 * len(r.dom))
    return VRel._from_rows(r.dom, r.cod, q, kernel.decode(kernel.close(c)))
