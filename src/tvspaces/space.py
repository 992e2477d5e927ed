"""Generalized spaces on finite carriers and their structural operations.

A space is a carrier, a monad tag and a square structure relation
``a : X -/-> X`` satisfying the lax reflexivity and transitivity
inequalities.  Both shipped monads are carrier-isomorphic to the identity
(see :mod:`tvspaces.monad`), so the paper's structure ``TX -/-> X`` has the
rows of the square in carrier order, and ``TTX`` does too; the tag only
names the points of ``TX`` and ``TTX`` in witnesses.  This module validates
the axioms, decides continuity, builds subspaces, products, coproducts,
initial and final liftings and function spaces, and decides the
compactness, Hausdorff, separatedness and exponentiability predicates.

Structure equality is exact entrywise payload equality; there are no
tolerances anywhere.

The predicates and constructions hand a structure's payload rows (see
:mod:`tvspaces.vrel`) to the quantale's kernel (see :mod:`tvspaces.quantale`)
and store the rows it returns unchecked.  A construction over a source or
sink of maps encodes each distinct target or domain structure once, however
many maps share it (a coreflection has thousands of probes out of a handful
of class objects).  That is exact because the encoding is fixed for the
whole operation: a finite table's kernel entry is the carrier index itself,
and the cost kernel puts every entry of the operation over one common
scale, so two entries are equal exactly when they are the same value, and
the kernel's order, tensor, join, meet and implication agree with the
``Value`` ones.  Encoding a matrix again per map would give the same rows.

A map is the tuple of its image indices in domain order: a
:class:`~tvspaces.vrel.MapArrow` stores that tuple, and the predicates and
constructions read and build it with no label in between.  The
continuous-map search (``_continuous_images``) yields such tuples, and the
final-structure core (``_final_space``) takes them, grouped by domain
space.  The probe classes cache their probes and class maps as tuples, and
the quasi-spaces store their admissible maps as tuples and compose them, so
a coreflection, a reflection or a quasi axiom builds no map object.
"""

import itertools

from .errors import CarrierMismatchError, PreconditionError, StructuralError
from .quantale import _generated_payloads
from .validation import ValidationReport
from .vrel import Carrier, MapArrow, VRel, identity_rel


class Space:
    """A finite carrier, a monad tag and a reflexive, transitive square.

    ``cache_key`` is built on its first call and kept in ``_key``; a space
    never changes, so the key is never stale, and threads that race on it
    store equal keys.
    """

    __slots__ = ("carrier", "monad", "quantale", "structure", "_key")

    def __init__(self, carrier, monad, quantale, structure):
        if structure.dom != carrier or structure.cod != carrier:
            raise StructuralError(
                f"square form on {list(structure.dom.labels)} x "
                f"{list(structure.cod.labels)} does not match the carrier "
                f"{list(carrier.labels)}")
        if structure.quantale is not quantale:
            raise StructuralError("structure uses a different quantale")
        self.carrier = carrier
        self.monad = monad
        self.quantale = quantale
        self.structure = structure

    @staticmethod
    def from_square(carrier, monad, quantale, square):
        """The space with this square structure; the constructor, by name."""
        return Space(carrier, monad, quantale, square)

    def cache_key(self):
        try:
            return self._key
        except AttributeError:
            pass
        key = self._key = (self.quantale.cache_key(), self.monad.name,
                           self.carrier.labels, self.structure.rows)
        return key

    def __eq__(self, other):
        return (isinstance(other, Space)
                and self.carrier == other.carrier
                and self.monad is other.monad
                and self.quantale is other.quantale
                and self.structure == other.structure)

    def __hash__(self):
        return hash(self.cache_key())

    def __repr__(self):
        return (f"Space({list(self.carrier.labels)}, {self.monad.name}, "
                f"{self.structure!r})")


def _encode_distinct(quantale, spaces, steps=1):
    """The kernel for some spaces' structures, and each one's kernel rows.

    Each distinct structure is encoded once; the rows come back keyed by
    the ``id`` of the structure.
    """
    distinct = {id(s.structure): s.structure for s in spaces}
    kernel, rows = quantale.encode(list(distinct.values()), steps)
    return kernel, dict(zip(distinct, rows))


def _check_compatible(*spaces):
    base = spaces[0]
    for s in spaces[1:]:
        if s.monad is not base.monad:
            raise CarrierMismatchError("spaces use different monads")
        if s.quantale is not base.quantale:
            raise CarrierMismatchError("spaces use different quantales")


# -- validation ----------------------------------------------------------------


def validate_space(space):
    """Check lax reflexivity and transitivity entrywise, with witnesses.

    Reflexivity is ``k <= a(x, x)`` and transitivity is ``a . a <= a``; a
    transitivity witness names the point of ``TTX`` of its row.
    """
    q, rows = space.quantale, space.structure.rows
    labels = space.carrier.labels
    kernel, (a,) = q.encode((space.structure,), steps=2)
    violations = []
    for i, x in enumerate(labels):
        if not kernel.below(kernel.unit, a[i][i]):
            violations.append(("reflexivity", (x, q.token_of(rows[i][i]))))

    lhs = kernel.compose(a, a, len(labels))
    row_label = space.monad.row_label
    for i, j in kernel.failures(lhs, a):
        lhs_token = q.token_of(kernel.decode([lhs[i]])[0][j])
        violations.append(("transitivity", (row_label(labels[i], 2),
                                            labels[j], lhs_token,
                                            q.token_of(rows[i][j]))))
    return ValidationReport.collect(violations)


# -- morphisms -----------------------------------------------------------------


def continuity_witness(f, x_space, y_space):
    """None when continuous, else the offending ``(tx, x)`` pair."""
    _check_compatible(x_space, y_space)
    if f.dom != x_space.carrier or f.cod != y_space.carrier:
        raise CarrierMismatchError("map endpoints do not match the spaces")
    a, b = x_space.structure, y_space.structure
    kernel = x_space.quantale.kernel((a, b))
    row, row_below = kernel.row, kernel.row_below
    indices = f.images
    pulled = {}                       # image row fi of b, pulled back along f
    # row by row, so that a map failing early is rejected early
    for i, fi in enumerate(indices):
        rb = pulled.get(fi)
        if rb is None:
            rb = pulled[fi] = row(b, fi, indices)
        ra = row(a, i)
        if not row_below(ra, rb):
            j = kernel.row_failures(ra, rb)[0]
            labels = x_space.carrier.labels
            return (x_space.monad.row_label(labels[i]), labels[j])
    return None


def is_continuous(f, x_space, y_space):
    return continuity_witness(f, x_space, y_space) is None


def is_fully_faithful(f, x_space, y_space):
    """Strict commutation: the structure equals its pullback along f."""
    _check_compatible(x_space, y_space)
    if f.dom != x_space.carrier or f.cod != y_space.carrier:
        raise CarrierMismatchError("map endpoints do not match the spaces")
    a, b = x_space.structure, y_space.structure
    row = x_space.quantale.kernel((a, b)).row
    indices = f.images
    return all(row(a, i) == row(b, fi, indices)
               for i, fi in enumerate(indices))


def all_maps(dom, cod):
    """Every total map between two carriers, in deterministic order."""
    for images in itertools.product(range(len(cod)), repeat=len(dom)):
        yield MapArrow._from_images(dom, cod, images)


def _continuous_images(x_space, y_space):
    """The search behind :func:`continuous_maps`, on carrier indices.

    Returns each continuous map as the tuple of its image indices, in
    :func:`all_maps` order.  Its errors are those of :func:`is_continuous` on
    the first candidate map, and, as in a loop over :func:`all_maps`,
    nothing is checked when there is no candidate map (X nonempty, Y empty).
    Out of a discrete X no pair of distinct points constrains a map, so
    the maps are all those into the y with ``k <= b(y, y)``: no search.
    """
    n, m = len(x_space.carrier), len(y_space.carrier)
    if n and not m:
        return []
    _check_compatible(x_space, y_space)
    kernel, (a, b) = x_space.quantale.encode(
        (x_space.structure, y_space.structure))
    below = kernel.below
    ys = range(m)
    if _is_discrete(x_space):
        return list(itertools.product(
            [y for y in ys if below(kernel.unit, b[y][y])], repeat=n))
    # per entry v of a and point y of Y, as bitsets over Y:
    # out_of[v][y] holds the y' with v <= b(y, y'), into[v][y] those with
    # v <= b(y', y)
    out_of, into = {}, {}
    for v in {p for r in a for p in r}:
        out_of[v] = [sum(1 << z for z in ys if below(v, b[y][z]))
                     for y in ys]
        into[v] = [sum(1 << z for z in ys if below(v, b[z][y])) for y in ys]
    loops = [sum(1 << y for y in ys if below(a[i][i], b[y][y]))
             for i in range(n)]
    found, images = [], [0] * n
    # opens[i]: the open images of every point once x0 .. x(i-1) are mapped;
    # untried[i]: the open images of xi not tried yet
    opens, untried = [loops] + [None] * n, loops[:1] + [0] * n
    i = 0
    while i >= 0:
        if i == n:
            found.append(tuple(images))
            i -= 1
            continue
        choices = untried[i]
        if not choices:
            i -= 1
            continue
        low = choices & -choices
        untried[i] = choices ^ low
        y = images[i] = low.bit_length() - 1
        narrowed, ai = list(opens[i]), a[i]
        for k in range(i + 1, n):
            narrowed[k] &= into[a[k][i]][y] & out_of[ai[k]][y]
            if not narrowed[k]:
                break
        else:
            i += 1
            opens[i] = narrowed
            if i < n:
                untried[i] = narrowed[i]
    return found


def _is_discrete(space):
    """Whether a space is discrete: the unit on the diagonal, bottom off
    it.  A table with no bottom has no discrete space on two points."""
    q, rows = space.quantale, space.structure.rows
    unit = q.unit.payload
    bottom = q._bottom_index if q.is_finite else q.bottom.payload
    return all(p == (unit if i == j else bottom)
               for i, row in enumerate(rows) for j, p in enumerate(row))


def continuous_maps(x_space, y_space):
    """Every continuous map from X to Y, in :func:`all_maps` order.

    With the structures read as squares ``a`` and ``b``, continuity of f is
    pairwise: ``a(x, x') <= b(fx, fx')`` for every pair of points.  So the
    images ``f(x0), f(x1), ...`` are chosen depth first, the first point
    most significant and the points of Y in carrier order, which is the
    order of :func:`all_maps`.  Each point keeps the images still open to
    it, as a bitset over Y: at first the y with ``a(x, x) <= b(y, y)``, and
    choosing ``f(xi) = y`` removes from every later point xk each y' with
    ``a(xk, xi) </= b(y', y)`` or ``a(xi, xk) </= b(y, y')`` (forward
    checking).  A branch ends when a point is left with no image, so every
    map that gets an image for each point passes every pair, and no other
    map does.  The entries are compared as kernel payloads.
    """
    return [MapArrow._from_images(x_space.carrier, y_space.carrier, f)
            for f in _continuous_images(x_space, y_space)]


# -- liftings and constructions ------------------------------------------------


def subspace(space, labels):
    """Restrict to a subset of the carrier; the inclusion is fully faithful."""
    labels = list(labels)
    for x in labels:
        if x not in space.carrier:
            raise StructuralError(f"label {x!r} is not in the carrier")
    sub = Carrier(labels)
    indices = space.carrier.indices(labels)
    incl = MapArrow._from_images(sub, space.carrier, indices)
    a = space.structure.rows
    rows = [[a[i][j] for j in indices] for i in indices]
    return Space(sub, space.monad, space.quantale,
                 VRel._from_rows(sub, sub, space.quantale, rows)), incl


def initial_structure(carrier, source, monad, quantale):
    """Greatest structure making every map of the source continuous.

    ``source`` is a list of ``(map, target_space)`` pairs sharing ``carrier``
    as domain; the empty source yields the indiscrete space.  Entry
    ``(x, x')`` is the meet, over the source in order, of
    ``b(f(x), f(x'))``: row x meets the rows ``b[f(x)]`` pulled back along
    each f, starting from top.  Each distinct target structure is encoded
    once, and a pulled-back row once per image point.
    """
    for f, y in source:
        if f.dom != carrier:
            raise CarrierMismatchError("source map domain mismatch")
        if f.cod != y.carrier:
            raise CarrierMismatchError("source map codomain mismatch")
        if y.monad is not monad or y.quantale is not quantale:
            raise CarrierMismatchError("source space monad/quantale mismatch")
    kernel, payloads = _encode_distinct(quantale, [y for _, y in source])
    pulled = []                       # per map, row x of b pulled back
    for f, y in source:
        b, indices = payloads[id(y.structure)], f.images
        rows = {fi: [b[fi][j] for j in indices] for fi in set(indices)}
        pulled.append([rows[fi] for fi in indices])
    n = len(carrier)
    meets = [kernel.meet_rows([rows[i] for rows in pulled], n)
             for i in range(n)]
    return Space(carrier, monad, quantale, VRel._from_rows(
        carrier, carrier, quantale, kernel.decode(meets)))


def final_structure(carrier, sink, monad, quantale):
    """Least structure making every map of the sink continuous.

    Computed as the reflexive-transitive closure of the joined pushforward
    relations; restricted to integral quantales, where the closure is exact.
    The empty sink gives the discrete space.  The maps become image tuples,
    grouped in runs that share a domain space, and each domain structure is
    encoded once (see ``_final_space``).
    """
    for f, x in sink:
        if f.cod != carrier:
            raise CarrierMismatchError("sink map codomain mismatch")
        if f.dom != x.carrier:
            raise CarrierMismatchError("sink map domain mismatch")
        if x.monad is not monad or x.quantale is not quantale:
            raise CarrierMismatchError("sink space monad/quantale mismatch")
    groups = []
    for f, x in sink:
        if groups and groups[-1][0] is x:
            groups[-1][1].append(f.images)
        else:
            groups.append((x, [f.images]))
    return _final_space(carrier, monad, quantale, groups)


def _final_space(carrier, monad, quantale, groups):
    """The final structure of a sink given as ``(space, images)`` groups.

    Each group is a domain space and the image-index tuples of its maps
    into ``carrier``, in the order of the sink.  Each distinct domain
    structure is encoded once, with room for the closure's sums, and the
    kernel joins each group's square into the image rows and columns
    (``join_images``) before the closure.
    """
    n = len(carrier)
    kernel, payloads = _encode_distinct(quantale, [x for x, _ in groups],
                                        steps=2 * n)
    joined = [[kernel.bottom] * n for _ in range(n)]
    for x, images in groups:
        kernel.join_images(joined, payloads[id(x.structure)], images)
    closed = kernel.close(joined)
    return Space(carrier, monad, quantale, VRel._from_rows(
        carrier, carrier, quantale, kernel.decode(closed)))


def pair_label(x, y):
    """The label of the point ``(x, y)`` of a product carrier."""
    return f"({x},{y})"


def pair_carrier(x_carrier, y_carrier):
    """The carrier of ``X x Y``: the pairs in row-major order."""
    return Carrier(pair_label(x, y) for x in x_carrier.labels
                   for y in y_carrier.labels)


def product(x_space, y_space):
    """Binary product: initial lifting along the two projections."""
    _check_compatible(x_space, y_space)
    carrier = pair_carrier(x_space.carrier, y_space.carrier)
    n, m = len(x_space.carrier), len(y_space.carrier)
    p1 = MapArrow._from_images(carrier, x_space.carrier,
                               [x for x in range(n) for _ in range(m)])
    p2 = MapArrow._from_images(carrier, y_space.carrier,
                               [y for _ in range(n) for y in range(m)])
    space = initial_structure(carrier, [(p1, x_space), (p2, y_space)],
                              x_space.monad, x_space.quantale)
    return space, (p1, p2)


def coproduct_many(spaces):
    """Disjoint union with componentwise structure, bottom across summands."""
    if not spaces:
        raise PreconditionError("coproduct of an empty family: use a carrier")
    _check_compatible(*spaces)
    monad, quantale = spaces[0].monad, spaces[0].quantale
    labels = [f"{i}:{x}" for i, s in enumerate(spaces)
              for x in s.carrier.labels]
    carrier = Carrier(labels)
    bot = quantale.bottom.payload
    rows, injections, before = [], [], 0
    for s in spaces:
        after = len(carrier) - before - len(s.carrier)
        rows.extend((bot,) * before + row + (bot,) * after
                    for row in s.structure.rows)
        injections.append(MapArrow._from_images(
            s.carrier, carrier, range(before, before + len(s.carrier))))
        before += len(s.carrier)
    return Space(carrier, monad, quantale, VRel._from_rows(
        carrier, carrier, quantale, rows)), injections


def coproduct(x_space, y_space):
    space, injections = coproduct_many([x_space, y_space])
    return space, (injections[0], injections[1])


def copairing(maps, carrier):
    """The map out of a disjoint union induced by one map per summand;
    ``carrier`` is the union's, as :func:`coproduct_many` labels it."""
    if not maps:
        return None
    labels = tuple(f"{i}:{x}" for i, f in enumerate(maps) for x in f.dom)
    if carrier.labels != labels or any(f.cod != maps[0].cod for f in maps):
        raise CarrierMismatchError(
            "copairing needs the union carrier and one codomain")
    return MapArrow._from_images(carrier, maps[0].cod,
                                 [y for f in maps for y in f.images])


# -- predicates ----------------------------------------------------------------


def compactness_witness(space):
    """None when compact, else an element of TX missing a convergence point.

    Row tx is compact when the unit is below the join over x of
    ``a(tx, x) (x) a(tx, x)``; rows are tested in order.
    """
    kernel, (a,) = space.quantale.encode((space.structure,), steps=2)
    tensor, unit = kernel.tensor, kernel.unit
    for x, row in zip(space.carrier.labels, a):
        total = kernel.join_all([tensor(v, v) for v in row])
        if not kernel.below(unit, total):
            return (space.monad.row_label(x),)
    return None


def is_compact(space):
    return compactness_witness(space) is None


def hausdorff_witness(space):
    """None when Hausdorff, else ``(x, y, tx)`` with a double convergence.

    ``a(tx, x) (x) a(tx, y)`` must be bottom for x != y and below the unit
    for x = y; pairs are tested with x outermost and tx innermost.
    """
    kernel, (a,) = space.quantale.encode((space.structure,), steps=2)
    bot, unit = kernel.bottom, kernel.unit
    tensor, below = kernel.tensor, kernel.below
    labels = space.carrier.labels
    for i, x in enumerate(labels):
        for j, y in enumerate(labels):
            for t, row in zip(labels, a):
                value = tensor(row[i], row[j])
                if value != bot if i != j else not below(value, unit):
                    return (x, y, space.monad.row_label(t))
    return None


def is_hausdorff(space):
    return hausdorff_witness(space) is None


def point_order_leq(space, y1, y2):
    """The induced preorder on points: the unit below ``a(y1, y2)``."""
    return space.quantale.leq(space.quantale.unit,
                              space.structure.get(y1, y2))


def separatedness_witness(space):
    """None when the point preorder is antisymmetric, else the cycle pair.

    Pairs ``(y1, y2)`` of distinct points are tested in row-major order.
    """
    kernel, (a,) = space.quantale.encode((space.structure,))
    unit, below = kernel.unit, kernel.below
    up = [[below(unit, p) for p in row] for row in a]
    labels = space.carrier.labels
    for i, y1 in enumerate(labels):
        for j, y2 in enumerate(labels):
            if i != j and up[i][j] and up[j][i]:
                return (y1, y2)
    return None


def is_separated(space):
    return separatedness_witness(space) is None


def map_order_leq(f, g, x_space, y_space):
    """Pointwise order on parallel continuous maps into ``y_space``."""
    if f.dom != g.dom or f.cod != g.cod:
        raise CarrierMismatchError("maps are not parallel")
    if f.dom != x_space.carrier or f.cod != y_space.carrier:
        raise CarrierMismatchError("map endpoints do not match the spaces")
    q = y_space.quantale
    b = y_space.structure
    return all(q.leq(q.unit, b.get(f(x), g(x)))
               for x in x_space.carrier.labels)


# -- canonical spaces ----------------------------------------------------------


def discrete_space(carrier, monad, quantale):
    """The least structure: the unit on the diagonal, bottom elsewhere."""
    return Space(carrier, monad, quantale, identity_rel(carrier, quantale))


def indiscrete_space(carrier, monad, quantale):
    """The greatest structure: constantly top."""
    return Space(carrier, monad, quantale,
                 VRel.constant(carrier, carrier, quantale, quantale.top))


def sierpinski_space(quantale, monad, grid=None):
    """The quantale carrier with the residuation structure.

    For finite quantales the carrier is the whole quantale; analytic kinds
    need an explicit finite ``grid`` of values.  The structure entry at
    ``(u, v)`` is ``hom(u, v)``: the algebra ``TV -> V`` is the identity on
    points, as the monad is carrier-isomorphic to the identity.
    """
    if quantale.is_finite:
        payloads = range(len(quantale.labels))
    else:
        if not grid:
            raise StructuralError(
                "analytic quantales need an explicit value grid")
        values = list(grid)
        for v in values:
            quantale._check(v)
        if len(set(values)) != len(values):
            raise StructuralError("grid values must be distinct")
        payloads = [v.payload for v in values]
    carrier = Carrier(map(quantale.token_of, payloads))
    hom = quantale._hom_payload
    return Space(carrier, monad, quantale, VRel._from_rows(
        carrier, carrier, quantale,
        [[hom(u, v) for v in payloads] for u in payloads]))


# -- exponentiability and exponentials ------------------------------------------


def exponentiability_witness(space):
    """Search the exponentiability inequality for a counterexample.

    Quantifies the pair of free values over the whole carrier when the
    quantale is finite, and over the meet/join/hom closure of the structure
    entries otherwise.  The point ``big`` of ``TTX`` over x_i multiplies to
    the point of ``TX`` over x_i, and the lifted structure gives it row i of
    the square, so the inequality at ``(big, x_j)`` reads
    ``a(x_i, x_j) /\\ (u (x) v) <= join_k (a(x_i, x_k) /\\ u) (x)
    (a(x_k, x_j) /\\ v)``.  Fixing i, the right side is entry
    ``(u, (j, v))`` of one composite ``M . N`` with
    ``M[u][k] = a(x_i, x_k) /\\ u`` and ``N[k][(j, v)] = a(x_k, x_j) /\\ v``,
    so the kernel composes once per row i (see
    ``_Kernel.exponentiability_witness``) and scans j, u and v in that
    order.  The entries and the values, a one-row relation, are encoded
    together, so the cost kernel puts both over one scale, and each side
    sums at most two of them below the ``inf`` sentinel.  Returns
    ``(big, x, u, v)`` for the first failure, else None.

    When the tensor is the meet (bool2, ``chain(n)``, cost-max, any table
    whose tensor table is its meet table) and every diagonal entry is top,
    nothing fails, and nothing is searched: the term ``k = i`` of the right
    side is ``(top /\\ u) (x) (a(x_i, x_j) /\\ v)``, which with ``(x)`` the
    meet is ``a(x_i, x_j) /\\ u /\\ v``, the left side, and a join is above
    each of its terms (the y = x argument of Clementino & Hofmann,
    "Exponentiation in V-categories", 2006).  The order is checked first,
    so an order that is not a complete lattice is refused as before.
    """
    q, rows = space.quantale, space.structure.rows
    q.kernel(())                      # refuses an order that is not a lattice
    top = q.top.payload
    if q.meet_tensor and all(row[i] == top for i, row in enumerate(rows)):
        return None
    values = _generated_payloads(q, [p for row in rows for p in row])
    free = VRel._from_rows(Carrier(["values"]), Carrier(map(
        q.token_of, values)), q, [values])
    kernel, (a, (payloads,)) = q.encode((space.structure, free), steps=2)
    hit = kernel.exponentiability_witness(a, payloads)
    if hit is None:
        return None
    i, j, ui, vi = hit
    labels = space.carrier.labels
    return (space.monad.row_label(labels[i], 2), labels[j],
            q.value_of(values[ui]), q.value_of(values[vi]))


def is_exponentiable(space):
    return exponentiability_witness(space) is None


def map_label(f):
    """Canonical carrier label of a map: its images in domain order."""
    return "[" + ",".join(map(f.cod.labels.__getitem__, f.images)) + "]"


def _curry(f, x_carrier, y_carrier, z_carrier, fn_carrier, kind):
    """Transpose ``f : X x Y -> Z`` into ``X -> fn_carrier``, a function
    space on maps ``Y -> Z`` labelled by :func:`map_label`: each slice
    ``y -> f(x, y)`` goes to its point, and a slice with none is not
    ``kind`` and raises."""
    if f.dom != pair_carrier(x_carrier, y_carrier):
        raise CarrierMismatchError(
            "transpose needs the canonical product carrier as domain")
    if f.cod != z_carrier:
        raise CarrierMismatchError("transpose codomain mismatch")
    point, m, images = fn_carrier._index, len(y_carrier), []
    for i, x in enumerate(x_carrier.labels):
        k = point.get(map_label(MapArrow._from_images(
            y_carrier, z_carrier, f.images[i * m:(i + 1) * m])))
        if k is None:
            raise StructuralError(f"slice at {x!r} is not {kind}")
        images.append(k)
    return MapArrow._from_images(x_carrier, fn_carrier, images)


def exponential(y_space, z_space):
    """Function space on the continuous maps, for exponentiable ``y_space``.

    The structure between maps g, h is the largest value v such that
    ``b(y, y') /\\ v <= c(g(y), h(y'))`` for all points.  That value is the
    meet of the Heyting implications ``b(y, y') => c(g(y), h(y'))``,
    because meet distributes over joins here; the kernel computes the whole
    matrix from the two squares.
    """
    _check_compatible(y_space, z_space)
    monad, q = y_space.monad, y_space.quantale
    witness = exponentiability_witness(y_space)
    if witness is not None:
        raise PreconditionError(
            f"base space is not exponentiable, witness {witness}")
    maps = continuous_maps(y_space, z_space)
    carrier = Carrier(map_label(f) for f in maps)
    by_label = {map_label(f): f for f in maps}
    kernel, (b, c) = q.encode((y_space.structure, z_space.structure))
    rows = kernel.function_space(b, c, [f.images for f in maps])
    return Space(carrier, monad, q, VRel._from_rows(
        carrier, carrier, q, kernel.decode(rows))), by_label
