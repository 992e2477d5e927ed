"""Extensional quasi-space structures over a fixed generating class.

A quasi-space stores, per class object, the explicit set of admissible maps
into the carrier.  The three axioms are: all constant maps are admissible
(QS1); admissible maps absorb precomposition with continuous maps between
class objects (QS2); and a map is admissible exactly when it is covered by a
finite family of admissible maps through a surjective continuous comparison
out of the family's coproduct (QS3).  QS3 is decided exactly, with no bound
on the family, by the joint images of class maps (see :func:`_joint_cover`).

A map is the tuple of its image indices (see :mod:`tvspaces.space`), which
a returned :class:`~tvspaces.vrel.MapArrow` stores as ``images``, so the
axioms and constructions compose tuples: ``g`` after ``h`` is
``tuple(map(g.__getitem__, h))``.  Labels are built only for witnesses and
the :attr:`QuasiSpace.admissible` view.

Over a class of discrete objects, the only quasi-structure on a finite
carrier is the indiscrete one: every map is admissible.  The source paper
(arXiv 1908.04287) takes quasi-spaces over the compact Hausdorff spaces,
which on a finite carrier over a lawful table are the discrete spaces (see
:mod:`tvspaces.enumeration`); Spanier's axioms give the same on finite
discrete objects ("Quasi-topologies", Duke Math. J. 30, 1963).  Proof:
every map between discrete objects is continuous, as distinct points have
entry bottom and a point has the unit ``k``, which its image has too.
Take ``alpha: C -> X``.  If C is empty, the empty family covers alpha (the
empty comparison is onto C), so QS3 admits it.  Otherwise each point c of
C is the image of the constant map ``h_c: C -> C``, a class map since C
is a nonempty discrete object; ``alpha . h_c`` is constant, so QS1 admits
it, and these maps cover alpha, so QS3 admits alpha.

So :func:`discrete_quasi` and :func:`quotient_quasi` return every map, and
refuse a class with an object that is not discrete: it is not compact
Hausdorff, or its table breaks a quantale law.  With no lemma, full
admissible sets pass every axiom and take in every composite, so
:func:`validate_quasi`, :func:`quasi_continuous_maps` and
:func:`exponential_quasi` answer them with no loop.
"""

import functools
import itertools
import warnings

from .errors import (
    CarrierMismatchError,
    PreconditionError,
    StructuralError,
)
from .space import (
    _continuous_images,
    _curry,
    _final_space,
    is_compact,
    is_hausdorff,
    map_label,
    product,
    subspace,
    validate_space,
)
from .enumeration import iso_canonical_key
from .validation import ValidationReport
from .vrel import Carrier, MapArrow


def _class_faults(cls):
    """The class-object violations of :func:`validate_quasi`.  They depend
    on the class objects alone, so they are computed once per class and
    cached on it."""
    def compute():
        faults = []
        for i, obj in enumerate(cls.objects):
            if not (is_compact(obj) and is_hausdorff(obj)):
                faults.append(("class-compact-hausdorff", (i,)))
            if not validate_space(obj).passed:
                faults.append(("class-object-valid", (i,)))
        return tuple(faults)
    return cls._cached(("faults",), compute)


def _check_class(cls):
    for kind, (i,) in _class_faults(cls):
        if kind == "class-compact-hausdorff":
            raise PreconditionError(
                f"class object #{i} is not compact Hausdorff")


class QuasiSpace:
    """A carrier with one admissible-map set per class object: ``images[i]``
    holds the maps out of object i as image tuples.  The constructor takes
    label graphs and checks them."""

    __slots__ = ("carrier", "cls", "images")

    def __init__(self, carrier, cls, admissible, check_class=True):
        if check_class:
            _check_class(cls)
        if len(admissible) != len(cls.objects):
            raise StructuralError("need one admissible set per class object")
        sets = []
        for obj, maps in zip(cls.objects, admissible):
            graphs = {tuple(g) for g in maps}
            for g in graphs:
                if len(g) != len(obj.carrier) or any(
                        y not in carrier for y in g):
                    raise StructuralError(f"bad admissible graph {g}")
            sets.append(frozenset(tuple(carrier.indices(g)) for g in graphs))
        self.carrier, self.cls, self.images = carrier, cls, tuple(sets)

    @staticmethod
    def _from_images(carrier, cls, images, check_class=False):
        """Image-tuple sets the library computed: unchecked."""
        if check_class:
            _check_class(cls)
        q = object.__new__(QuasiSpace)
        q.carrier, q.cls, q.images = carrier, cls, tuple(map(frozenset, images))
        return q

    @property
    def admissible(self):
        """The admissible maps as label graphs, one frozenset per object."""
        return tuple(frozenset(_graph(g, self.carrier.labels) for g in s)
                     for s in self.images)

    def contains(self, i, f):
        return f.cod == self.carrier and f.images in self.images[i]

    def arrows(self, i):
        dom = self.cls.objects[i].carrier
        return sorted((MapArrow._from_images(dom, self.carrier, g)
                       for g in self.images[i]), key=MapArrow.graph)

    def __eq__(self, other):
        return (isinstance(other, QuasiSpace)
                and self.carrier == other.carrier
                and self.cls is other.cls
                and self.images == other.images)

    def __repr__(self):
        sizes = [len(s) for s in self.images]
        return f"QuasiSpace({list(self.carrier.labels)}, sizes={sizes})"


def _shared_class(qx, qy):
    if qx.cls is not qy.cls:
        raise CarrierMismatchError(
            "quasi-spaces must share one probe class instance")
    return qx.cls


def _all_images(n, m):
    """Every map from n points to m points, in :func:`all_maps` order."""
    return itertools.product(range(m), repeat=n)


def _every_map(carrier, cls):
    """The indiscrete structure's image-tuple sets."""
    return [frozenset(_all_images(len(obj.carrier), len(carrier)))
            for obj in cls.objects]


def _full(quasi):
    """Whether every map is admissible: object i's set holds all
    |X|^|C_i| image tuples."""
    m = len(quasi.carrier)
    return all(len(s) == m ** len(obj.carrier)
               for s, obj in zip(quasi.images, quasi.cls.objects))


def _graph(g, labels):
    """The label graph of an image tuple."""
    return tuple(map(labels.__getitem__, g))


# -- covers ---------------------------------------------------------------------


def _joint_cover(quasi, i, alpha):
    """A family of admissible maps covering alpha: C -> X (QS3), or None.

    A comparison out of a coproduct is continuous exactly when each of its
    components h: C_j -> C is.  So alpha is covered exactly when the class
    maps h with alpha.h admissible jointly cover C, one h per point: no
    bound on the family and no search over comparisons.  Each point of C
    not yet covered, in order, takes the first such (j, h) whose image
    holds it; the family is the sorted set of (j, label graph of alpha.h),
    and it is empty for an empty C.
    """
    cls, images = quasi.cls, quasi.images
    image = alpha.__getitem__
    family, covered = set(), set()
    for c in range(len(alpha)):
        if c in covered:
            continue
        found = next(((j, h) for j in range(len(cls.objects))
                      for h in cls._hom_images(j, i)
                      if c in h and tuple(map(image, h)) in images[j]),
                     None)
        if found is None:
            return None
        j, h = found
        family.add((j, tuple(map(image, h))))
        covered.update(h)
    return sorted((j, _graph(g, quasi.carrier.labels)) for j, g in family)


def _precompositions(quasi):
    """Each (i, j, h, alpha, alpha.h) with alpha.h not admissible (QS2),
    alpha admissible out of object j in label-graph order, h: C_i -> C_j."""
    cls, images, labels = quasi.cls, quasi.images, quasi.carrier.labels
    for j in range(len(cls.objects)):
        for alpha in sorted(images[j], key=lambda g: _graph(g, labels)):
            image = alpha.__getitem__
            for i in range(len(cls.objects)):
                for h in cls._hom_images(i, j):
                    g = tuple(map(image, h))
                    if g not in images[i]:
                        yield i, j, h, alpha, g


def _covered(quasi):
    """Each (i, alpha, family) with alpha out of object i covered but not
    admissible (QS3), in :func:`all_maps` order."""
    for i, obj in enumerate(quasi.cls.objects):
        for alpha in _all_images(len(obj.carrier), len(quasi.carrier)):
            if alpha not in quasi.images[i]:
                family = _joint_cover(quasi, i, alpha)
                if family is not None:
                    yield i, alpha, family


# -- validation -----------------------------------------------------------------


def validate_quasi(quasi):
    """Check the class precondition and the three axioms, with witnesses."""
    cls, images, labels = quasi.cls, quasi.images, quasi.carrier.labels
    closure = class_closure_report(cls)
    notes = ([] if closure.passed
             else [f"class closure gaps: {closure.violations[:3]}"])
    violations = list(_class_faults(cls))

    if _full(quasi):      # every constant, composite and covered map
        return ValidationReport.collect(violations, notes)

    # QS1
    for i, obj in enumerate(cls.objects):
        for y, label in enumerate(labels):
            if (y,) * len(obj.carrier) not in images[i]:
                violations.append(("QS1-constants", (i, label)))

    # QS2
    for i, j, h, alpha, _ in _precompositions(quasi):
        violations.append(("QS2-precomposition", (
            i, j, _graph(h, cls.objects[j].carrier.labels),
            _graph(alpha, labels))))

    # QS3
    for i, alpha, family in _covered(quasi):
        violations.append(("QS3-cover-closure", (
            i, _graph(alpha, labels), [g for _, g in family])))
    return ValidationReport.collect(violations, notes)


# -- canonical structures ---------------------------------------------------------


def associated_quasi(space, cls):
    """Admissible maps are exactly the continuous ones."""
    if space.monad is not cls.monad or space.quantale is not cls.quantale:
        raise CarrierMismatchError("space and class monad/quantale mismatch")
    sets = [_continuous_images(obj, space) for obj in cls.objects]
    return QuasiSpace._from_images(space.carrier, cls, sets, check_class=True)


def discrete_quasi(carrier, cls):
    """The least quasi-structure: the closure of the constant maps under
    the axioms, which is every map over a class of discrete objects (see
    the module docstring); any other class is refused."""
    _check_class(cls)
    if not cls._discrete:
        raise PreconditionError(
            "the least quasi-structure needs discrete class objects")
    return QuasiSpace._from_images(carrier, cls, _every_map(carrier, cls))


def indiscrete_quasi(carrier, cls):
    """The greatest quasi-structure: every map is admissible."""
    return QuasiSpace._from_images(carrier, cls, _every_map(carrier, cls),
                                   check_class=True)


def is_quasi_continuous(f, qx, qy):
    """Composition with every admissible map stays admissible."""
    _shared_class(qx, qy)
    if f.dom != qx.carrier or f.cod != qy.carrier:
        raise CarrierMismatchError("map endpoints do not match")
    image = f.images.__getitem__
    return all(tuple(map(image, g)) in adm_y
               for adm_x, adm_y in zip(qx.images, qy.images)
               for g in adm_x)


def _quasi_continuous_images(qx, qy):
    """The quasi-continuous maps as image tuples, in :func:`all_maps` order;
    as in a loop over them, the class is checked only given a candidate."""
    n, m = len(qx.carrier), len(qy.carrier)
    if n and not m:
        return []
    _shared_class(qx, qy)
    if _full(qy):
        return list(_all_images(n, m))
    pairs = list(zip(qx.images, qy.images))
    return [f for f in _all_images(n, m)
            if all(tuple(map(f.__getitem__, g)) in adm_y
                   for adm_x, adm_y in pairs for g in adm_x)]


def quasi_continuous_maps(qx, qy):
    """Every quasi-continuous map, in :func:`all_maps` order."""
    return [MapArrow._from_images(qx.carrier, qy.carrier, f)
            for f in _quasi_continuous_images(qx, qy)]


# -- constructions -----------------------------------------------------------------


def subspace_quasi(quasi, labels):
    """Admissible into the subset iff admissible after the inclusion:
    the admissible maps of the quasi-space that land in the subset."""
    labels = list(labels)
    sub = Carrier(labels)
    for x in labels:
        if x not in quasi.carrier:
            raise StructuralError(f"label {x!r} not in the carrier")
    incl = MapArrow._from_images(sub, quasi.carrier,
                                 quasi.carrier.indices(labels))
    back = {y: k for k, y in enumerate(incl.images)}
    sets = [{tuple(map(back.__getitem__, g)) for g in adm
             if all(y in back for y in g)} for adm in quasi.images]
    return QuasiSpace._from_images(sub, quasi.cls, sets), incl


def quotient_quasi(quasi, f):
    """Final quasi-structure along a surjection: every map, the only
    structure over a class of discrete objects (see the module docstring);
    any other class is refused.  A class missing pullbacks is warned
    about."""
    if f.dom != quasi.carrier:
        raise CarrierMismatchError("quotient map domain mismatch")
    if not f.is_surjective():
        raise PreconditionError("quotient maps must be surjective")
    least = discrete_quasi(f.cod, quasi.cls)
    closure = class_closure_report(quasi.cls)
    if not closure.passed:
        warnings.warn(
            f"class is missing pullbacks {closure.violations[:3]}",
            stacklevel=2)
    return least


def initial_quasi(carrier, source, cls):
    """Admissible iff admissible after every map of the source."""
    for f, qx in source:
        if f.dom != carrier or f.cod != qx.carrier:
            raise CarrierMismatchError("initial source endpoints mismatch")
        if qx.cls is not cls:
            raise CarrierMismatchError("source spaces must share the class")
    pulls = [(f.images.__getitem__, qx.images) for f, qx in source]
    sets = [[alpha for alpha in _all_images(len(obj.carrier), len(carrier))
             if all(tuple(map(image, alpha)) in images[i]
                    for image, images in pulls)]
            for i, obj in enumerate(cls.objects)]
    return QuasiSpace._from_images(carrier, cls, sets)


def product_quasi(factors, cls=None):
    """Product carrier with the initial structure along the projections."""
    if not factors:
        if cls is None:
            raise PreconditionError("empty product needs an explicit class")
        one = Carrier(["()"])
        return initial_quasi(one, [], cls), ()
    cls = factors[0].cls
    for q in factors[1:]:
        _shared_class(factors[0], q)
    combos = list(itertools.product(*[range(len(q.carrier))
                                      for q in factors]))
    carrier = Carrier(
        "(" + ",".join(q.carrier.labels[x] for q, x in zip(factors, combo))
        + ")" for combo in combos)
    projections = tuple(
        MapArrow._from_images(carrier, q.carrier, [c[k] for c in combos])
        for k, q in enumerate(factors))
    source = list(zip(projections, factors))
    return initial_quasi(carrier, source, cls), projections


# -- exponentials -------------------------------------------------------------------


def class_closure_report(cls):
    """Binary products and pullbacks of class maps, up to isomorphism.

    A ``compact-hausdorff-upto:N`` class is a size-bounded window onto a
    class that is closed by the standard compactness facts, so it reports
    clean; every other class, the Sierpinski one included, is checked.  The
    report depends on the class objects alone, so it is computed once per
    class and cached on it.
    """
    if cls.is_enumerated_window():
        return ValidationReport(notes=(
            "ambient class closed under products and pullbacks; "
            "the enumerated window is a size truncation",))
    return cls._cached(("closure",),
                       lambda: ValidationReport.collect(_closure_gaps(cls)))


def _closure_gaps(cls):
    keys = {iso_canonical_key(obj) for obj in cls.objects}
    violations, products = [], {}
    for i, a in enumerate(cls.objects):
        for j, b in enumerate(cls.objects):
            prod = products[i, j] = product(a, b)[0]
            if iso_canonical_key(prod) not in keys:
                violations.append(("product-closure", (i, j)))
    for (i, j), prod in products.items():
        # the point (x, y) of the product has index x * |b| + y
        labels, nb = prod.carrier.labels, len(cls.objects[j].carrier)
        for k in range(len(cls.objects)):
            for h in cls._hom_images(i, k):
                for g in cls._hom_images(j, k):
                    pts = [labels[x * nb + y] for x, hx in enumerate(h)
                           for y, gy in enumerate(g) if hx == gy]
                    pullback, _ = subspace(prod, pts)
                    if iso_canonical_key(pullback) not in keys:
                        violations.append(("pullback-closure", (i, j, k)))
    return violations


def exponential_quasi(qx, qy):
    """Quasi-structure on the quasi-continuous maps.

    A map into the function space is admissible when evaluating it against
    every admissible map of the source, along every continuous reindexing
    inside the class, lands in the admissible maps of the target.
    """
    cls = _shared_class(qx, qy)
    closure = class_closure_report(cls)
    if not closure.passed:
        raise PreconditionError(
            f"class is not closed under products/pullbacks: "
            f"{closure.violations[:3]}")
    graphs = _quasi_continuous_images(qx, qy)
    maps = [MapArrow._from_images(qx.carrier, qy.carrier, g) for g in graphs]
    carrier = Carrier(map(map_label, maps))
    by_label = dict(zip(carrier.labels, maps))
    if _full(qy):     # every evaluation lands in qy
        return (QuasiSpace._from_images(carrier, cls,
                                        _every_map(carrier, cls)), by_label)

    # The graph of b -> beta(h(b))(alpha(b)) must be admissible for every
    # h: j -> i and admissible alpha out of j.  It depends on beta only
    # through gamma = beta . h, a map out of object j into the function
    # space, so each (j, gamma) is decided once.
    @functools.cache
    def lands(j, gamma):
        return all(tuple([graphs[m][x] for m, x in zip(gamma, alpha)])
                   in qy.images[j] for alpha in qx.images[j])

    sets = [[beta for beta in _all_images(len(obj.carrier), len(maps))
             if all(lands(j, tuple(map(beta.__getitem__, h)))
                    for j in range(len(cls.objects))
                    for h in cls._hom_images(j, i))]
            for i, obj in enumerate(cls.objects)]
    return QuasiSpace._from_images(carrier, cls, sets), by_label


def evaluation_quasi(exp_quasi, by_label, qx, qy):
    """The evaluation map out of the product with the source."""
    prod, _ = product_quasi([exp_quasi, qx])
    return prod, MapArrow._from_images(
        prod.carrier, qy.carrier,
        [y for g in exp_quasi.carrier for y in by_label[g].images])


def transpose_quasi(f, qz, qx, qy, exp=None):
    """Curry a map off a product of quasi-spaces into the function space."""
    if exp is None:
        exp = exponential_quasi(qx, qy)
    return _curry(f, qz.carrier, qx.carrier, qy.carrier, exp[0].carrier,
                  "quasi-continuous")


# -- reflection into generated spaces -------------------------------------------------


def reflect_to_cgenerated(quasi):
    """Final lifting of the admissible sink; lands in the generated spaces."""
    cls = quasi.cls
    return _final_space(quasi.carrier, cls.monad, cls.quantale,
                        list(zip(cls.objects, quasi.images)))
