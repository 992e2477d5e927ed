"""Extensional quasi-space structures over a fixed generating class.

A quasi-space stores, per class object, the explicit set of admissible maps
into the carrier.  The three axioms are: all constant maps are admissible
(QS1); admissible maps absorb precomposition with continuous maps between
class objects (QS2); and a map is admissible exactly when it is covered by a
finite family of admissible maps through a surjective continuous comparison
out of the family's coproduct (QS3).  QS3 is decided exactly, with no bound
on the family, by the joint images of class maps (see :func:`_joint_cover`).
"""

import itertools
import warnings
from dataclasses import dataclass

from .errors import (
    BudgetExceededError,
    CarrierMismatchError,
    PreconditionError,
    StructuralError,
)
from .space import (
    _continuous_images,
    _final_space,
    all_maps,
    coproduct_many,
    copairing,
    is_compact,
    is_continuous,
    is_hausdorff,
    map_label,
    pair_label,
    product,
    subspace,
    validate_space,
)
from .enumeration import iso_canonical_key
from .validation import ValidationReport
from .vrel import Carrier, MapArrow

DEFAULT_ETA_BUDGET = 20_000


@dataclass(frozen=True)
class Cover:
    """A witnessed cover: the family plus the surjective comparison."""

    family: tuple
    eta: object

    def verify(self, alpha):
        """The triangle commutes and the comparison is onto."""
        if not self.eta.is_surjective():
            return False
        offset = 0
        for _, piece in self.family:
            for c in piece.dom.labels:
                if alpha(self.eta(f"{offset}:{c}")) != piece(c):
                    return False
            offset += 1
        return True


class QuasiSpace:
    """A carrier with one admissible-map set per class object."""

    __slots__ = ("carrier", "cls", "admissible")

    def __init__(self, carrier, cls, admissible, check_class=True):
        if check_class:
            for i, obj in enumerate(cls.objects):
                if not (is_compact(obj) and is_hausdorff(obj)):
                    raise PreconditionError(
                        f"class object #{i} is not compact Hausdorff")
        if len(admissible) != len(cls.objects):
            raise StructuralError(
                "need one admissible set per class object")
        sets = []
        for obj, maps in zip(cls.objects, admissible):
            graphs = {tuple(g) for g in maps}
            for g in graphs:
                if len(g) != len(obj.carrier) or any(
                        y not in carrier for y in g):
                    raise StructuralError(f"bad admissible graph {g}")
            sets.append(frozenset(graphs))
        self.carrier = carrier
        self.cls = cls
        self.admissible = tuple(sets)

    def contains(self, i, f):
        return f.graph() in self.admissible[i]

    def arrows(self, i):
        # __init__ checked each graph's arity and labels
        obj = self.cls.objects[i]
        return [MapArrow._trusted(obj.carrier, self.carrier,
                                  dict(zip(obj.carrier.labels, g)))
                for g in sorted(self.admissible[i])]

    def __eq__(self, other):
        return (isinstance(other, QuasiSpace)
                and self.carrier == other.carrier
                and self.cls is other.cls
                and self.admissible == other.admissible)

    def __repr__(self):
        sizes = [len(s) for s in self.admissible]
        return f"QuasiSpace({list(self.carrier.labels)}, sizes={sizes})"


def _shared_class(qx, qy):
    if qx.cls is not qy.cls:
        raise CarrierMismatchError(
            "quasi-spaces must share one probe class instance")
    return qx.cls


def _index_graphs(quasi, i):
    """The admissible maps out of object i as lists of image indices."""
    return list(map(quasi.carrier.indices, quasi.admissible[i]))


# -- covers ---------------------------------------------------------------------


def is_covered(alpha, family, cls, eta_budget=DEFAULT_ETA_BUDGET):
    """Search for a surjective continuous comparison realizing a cover.

    ``alpha`` is a map out of a class object's carrier; ``family`` is a list
    of ``(space, map)`` pairs with the same codomain.  Returns the witness
    map out of the family coproduct, or None.  The candidate count is fiber
    constrained; exceeding ``eta_budget`` raises, which is distinct from a
    definitive negative.  The empty family covers only an empty class object.
    """
    target = None
    for obj in cls.objects:
        if obj.carrier == alpha.dom:
            target = obj
            break
    if target is None:
        raise PreconditionError("the covered map must start at a class object")
    for src, _ in family:
        if not any(src is obj or src.carrier == obj.carrier
                   and src == obj for obj in cls.objects):
            raise PreconditionError("family sources must be class objects")
    if not family:
        return (None if len(alpha.dom)
                else Cover((), MapArrow.identity(alpha.dom)))
    summed, injections = coproduct_many([src for src, _ in family])
    copair = copairing([f for _, f in family], summed.carrier)
    fibers = []
    for p in summed.carrier.labels:
        want = copair(p)
        fiber = [c for c in alpha.dom.labels if alpha(c) == want]
        if not fiber:
            return None
        fibers.append(fiber)
    count = 1
    for fiber in fibers:
        count *= len(fiber)
        if count > eta_budget:
            raise BudgetExceededError(
                f"cover search needs {count}+ candidate comparisons, "
                f"budget is {eta_budget}")
    for choice in itertools.product(*fibers):
        eta = MapArrow(summed.carrier, alpha.dom,
                       dict(zip(summed.carrier.labels, choice)))
        if not eta.is_surjective():
            continue
        if is_continuous(eta, summed, target):
            return Cover(tuple(family), eta)
    return None


def _joint_cover(quasi, i, alpha):
    """A family of admissible maps covering alpha: C -> X (QS3), or None.

    A comparison out of a coproduct is continuous exactly when each of its
    components h: C_j -> C is.  So alpha is covered exactly when the class
    maps h with alpha.h admissible jointly cover C, one h per point: no
    bound on the family and no search over comparisons.  Each point of C
    not yet covered, in label order, takes the first such (j, h) whose
    image holds it; the family is the sorted set of (j, graph of alpha.h),
    and it is empty for an empty C.
    """
    cls = quasi.cls
    family, covered = set(), set()
    for c in cls.objects[i].carrier.labels:
        if c in covered:
            continue
        found = next(((j, h) for j in range(len(cls.objects))
                      for h in cls.homs(j, i)
                      if c in h.table.values()
                      and h.then(alpha).graph() in quasi.admissible[j]),
                     None)
        if found is None:
            return None
        j, h = found
        family.add((j, h.then(alpha).graph()))
        covered.update(h.table.values())
    return sorted(family)


def saturate_admissible(carrier, cls, seed_sets):
    """Close seed sets under the three axioms; the least valid structure."""
    sets = [set(s) for s in seed_sets]
    for i, obj in enumerate(cls.objects):
        for y in carrier.labels:
            sets[i].add(MapArrow.constant(obj.carrier, carrier, y).graph())
    changed = True
    while changed:
        changed = False
        # precomposition closure
        for j in range(len(cls.objects)):
            for graph in list(sets[j]):
                alpha = MapArrow(cls.objects[j].carrier, carrier,
                                 dict(zip(cls.objects[j].carrier.labels,
                                          graph)))
                for i in range(len(cls.objects)):
                    for h in cls.homs(i, j):
                        g = h.then(alpha).graph()
                        if g not in sets[i]:
                            sets[i].add(g)
                            changed = True
        # cover closure
        current = QuasiSpace(carrier, cls,
                             [frozenset(s) for s in sets], check_class=False)
        for i, obj in enumerate(cls.objects):
            for alpha in all_maps(obj.carrier, carrier):
                if alpha.graph() in sets[i]:
                    continue
                if _joint_cover(current, i, alpha) is not None:
                    sets[i].add(alpha.graph())
                    changed = True
    return [frozenset(s) for s in sets]


# -- validation -----------------------------------------------------------------


def validate_quasi(quasi):
    """Check the class precondition and the three axioms, with witnesses."""
    cls = quasi.cls
    carrier = quasi.carrier
    violations = []
    closure = class_closure_report(cls)
    notes = ([] if closure.passed
             else [f"class closure gaps: {closure.violations[:3]}"])

    for i, obj in enumerate(cls.objects):
        if not (is_compact(obj) and is_hausdorff(obj)):
            violations.append(("class-compact-hausdorff", (i,)))
        if not validate_space(obj).passed:
            violations.append(("class-object-valid", (i,)))

    # QS1
    for i, obj in enumerate(cls.objects):
        for y in carrier.labels:
            g = MapArrow.constant(obj.carrier, carrier, y).graph()
            if g not in quasi.admissible[i]:
                violations.append(("QS1-constants", (i, y)))

    # QS2
    for j in range(len(cls.objects)):
        for alpha in quasi.arrows(j):
            for i in range(len(cls.objects)):
                for h in cls.homs(i, j):
                    if not quasi.contains(i, h.then(alpha)):
                        violations.append(
                            ("QS2-precomposition",
                             (i, j, h.graph(), alpha.graph())))

    # QS3; an admissible map covers itself through the identity
    for i, obj in enumerate(cls.objects):
        for alpha in all_maps(obj.carrier, carrier):
            if quasi.contains(i, alpha):
                continue
            family = _joint_cover(quasi, i, alpha)
            if family is not None:
                violations.append(
                    ("QS3-cover-closure",
                     (i, alpha.graph(), [g for _, g in family])))
    return ValidationReport.collect(violations, notes)


# -- canonical structures ---------------------------------------------------------


def associated_quasi(space, cls):
    """Admissible maps are exactly the continuous ones."""
    if space.monad is not cls.monad or space.quantale is not cls.quantale:
        raise CarrierMismatchError("space and class monad/quantale mismatch")
    labels = space.carrier.labels
    sets = [[tuple(map(labels.__getitem__, f))
             for f in _continuous_images(obj, space)]
            for obj in cls.objects]
    return QuasiSpace(space.carrier, cls, sets)


def discrete_quasi(carrier, cls):
    """The least quasi-structure: the cover closure of the constant maps.

    Constants alone need not satisfy the cover axiom (a family of constants
    can cover a nonconstant map out of a disconnected class object), so the
    closure is taken; on classes where constants are already closed this is
    just the constants.
    """
    sets = saturate_admissible(carrier, cls, [set() for _ in cls.objects])
    return QuasiSpace(carrier, cls, sets)


def indiscrete_quasi(carrier, cls):
    """The greatest quasi-structure: every map is admissible."""
    sets = [[f.graph() for f in all_maps(obj.carrier, carrier)]
            for obj in cls.objects]
    return QuasiSpace(carrier, cls, sets)


def is_quasi_continuous(f, qx, qy):
    """Composition with every admissible map stays admissible.

    The composites are taken on the graphs, as label tuples.
    """
    _shared_class(qx, qy)
    if f.dom != qx.carrier or f.cod != qy.carrier:
        raise CarrierMismatchError("map endpoints do not match")
    image = f.table.__getitem__
    return all(tuple(map(image, g)) in adm_y
               for adm_x, adm_y in zip(qx.admissible, qy.admissible)
               for g in adm_x)


def quasi_continuous_maps(qx, qy):
    """Every quasi-continuous map, in :func:`all_maps` order.

    A candidate is its tuple of image labels, composed with the admissible
    graphs of ``qx`` as index lists; only the maps kept are built.  As in
    a loop of :func:`is_quasi_continuous` over :func:`all_maps`, the class is
    checked only when there is a candidate map.
    """
    dom, cod = qx.carrier, qy.carrier
    if len(dom) and not len(cod):
        return []
    _shared_class(qx, qy)
    admissible = [(_index_graphs(qx, i), adm_y)
                  for i, adm_y in enumerate(qy.admissible)]
    kept = []
    for f in itertools.product(cod.labels, repeat=len(dom)):
        image = f.__getitem__
        if all(tuple(map(image, g)) in adm_y
               for graphs, adm_y in admissible for g in graphs):
            kept.append(MapArrow._trusted(dom, cod, dict(zip(dom.labels, f))))
    return kept


# -- constructions -----------------------------------------------------------------


def subspace_quasi(quasi, labels):
    """Admissible into the subset iff admissible after the inclusion."""
    labels = list(labels)
    sub = Carrier(labels)
    for x in labels:
        if x not in quasi.carrier:
            raise StructuralError(f"label {x!r} not in the carrier")
    incl = MapArrow(sub, quasi.carrier, {x: x for x in labels})
    sets = []
    for i, obj in enumerate(quasi.cls.objects):
        sets.append([f.graph() for f in all_maps(obj.carrier, sub)
                     if quasi.contains(i, f.then(incl))])
    return QuasiSpace(sub, quasi.cls, sets, check_class=False), incl


def quotient_quasi(quasi, f):
    """Final quasi-structure along a surjection.

    The base rule admits a map when it factors through an admissible map
    over a surjective comparison inside the class; the result is then
    saturated so the axioms hold even when the class is missing pullbacks,
    which keeps the map a final morphism.
    """
    if f.dom != quasi.carrier:
        raise CarrierMismatchError("quotient map domain mismatch")
    if not f.is_surjective():
        raise PreconditionError("quotient maps must be surjective")
    cls = quasi.cls
    closure = class_closure_report(cls)
    if not closure.passed:
        warnings.warn(
            f"class is missing pullbacks {closure.violations[:3]}; the "
            "quotient structure is saturated to restore the axioms",
            stacklevel=2)
    target = f.cod
    sets = [set() for _ in cls.objects]
    for i, obj in enumerate(cls.objects):
        for j, src in enumerate(cls.objects):
            surjections = [h for h in cls.homs(j, i) if h.is_surjective()]
            if not surjections:
                continue
            for alpha_prime in quasi.arrows(j):
                pushed = alpha_prime.then(f)
                for h in surjections:
                    # alpha . h = pushed determines alpha on the image of h,
                    # which is all of obj, as h is onto
                    assignment = {}
                    for c in src.carrier.labels:
                        want = pushed(c)
                        if assignment.setdefault(h(c), want) != want:
                            break
                    else:
                        sets[i].add(tuple(assignment[c]
                                          for c in obj.carrier.labels))
    sets = saturate_admissible(target, cls, sets)
    return QuasiSpace(target, cls, sets, check_class=False)


def initial_quasi(carrier, source, cls):
    """Admissible iff admissible after every map of the source."""
    for f, qx in source:
        if f.dom != carrier or f.cod != qx.carrier:
            raise CarrierMismatchError("initial source endpoints mismatch")
        if qx.cls is not cls:
            raise CarrierMismatchError("source spaces must share the class")
    sets = []
    for i, obj in enumerate(cls.objects):
        sets.append(
            [alpha.graph() for alpha in all_maps(obj.carrier, carrier)
             if all(qx.contains(i, alpha.then(f)) for f, qx in source)])
    return QuasiSpace(carrier, cls, sets, check_class=False)


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
    combos = list(itertools.product(*[q.carrier.labels for q in factors]))
    labels = ["(" + ",".join(combo) + ")" for combo in combos]
    carrier = Carrier(labels)
    projections = [
        MapArrow._trusted(carrier, q.carrier,
                          {label: combo[idx]
                           for label, combo in zip(labels, combos)})
        for idx, q in enumerate(factors)]
    source = list(zip(projections, factors))
    return initial_quasi(carrier, source, cls), tuple(projections)


# -- exponentials -------------------------------------------------------------------


def class_closure_report(cls):
    """Binary products and pullbacks of class maps, up to isomorphism.

    Only meaningful for explicit classes; the compact-Hausdorff mode is a
    size-bounded window onto a class that is closed by the standard
    compactness facts, so it reports clean.
    """
    if cls.mode != "explicit":
        return ValidationReport(notes=(
            "ambient class closed under products and pullbacks; "
            "the enumerated window is a size truncation",))
    keys = {iso_canonical_key(obj) for obj in cls.objects}
    violations = []
    products = {}
    for i, a in enumerate(cls.objects):
        for j, b in enumerate(cls.objects):
            prod, _ = products[i, j] = product(a, b)
            if iso_canonical_key(prod) not in keys:
                violations.append(("product-closure", (i, j)))
    for (i, j), (prod, (p1, p2)) in products.items():
        for k in range(len(cls.objects)):
            for h in cls.homs(i, k):
                for g in cls.homs(j, k):
                    pts = [p for p in prod.carrier.labels
                           if h(p1(p)) == g(p2(p))]
                    pullback, _ = subspace(prod, pts)
                    if iso_canonical_key(pullback) not in keys:
                        violations.append(("pullback-closure", (i, j, k)))
    return ValidationReport.collect(violations)


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
    maps = quasi_continuous_maps(qx, qy)
    carrier = Carrier(map_label(f) for f in maps)
    by_label = {map_label(f): f for f in maps}
    graphs = [f.graph() for f in maps]
    objects = cls.objects
    admissible = [_index_graphs(qx, j) for j in range(len(objects))]
    # The graph of b -> beta(h(b))(alpha(b)) must be admissible for every
    # h: j -> i and admissible alpha out of j.  It depends on beta only
    # through gamma = beta . h, a map out of object j into the function
    # space, so each (j, gamma) is decided once.
    decided = {}

    def lands(j, gamma):
        ok = decided.get((j, gamma))
        if ok is None:
            ok = decided[j, gamma] = all(
                tuple([graphs[m][x] for m, x in zip(gamma, alpha)])
                in qy.admissible[j] for alpha in admissible[j])
        return ok

    sets = []
    for i, obj in enumerate(objects):
        homs = [(j, [obj.carrier.indices(h.table.values())
                     for h in cls.homs(j, i)])
                for j in range(len(objects))]
        sets.append({tuple(map(carrier.labels.__getitem__, beta))
                     for beta in itertools.product(range(len(maps)),
                                                   repeat=len(obj.carrier))
                     if all(lands(j, tuple(map(beta.__getitem__, h)))
                            for j, hs in homs for h in hs)})
    return QuasiSpace(carrier, cls, sets, check_class=False), by_label


def evaluation_quasi(exp_quasi, by_label, qx, qy):
    """The evaluation map out of the product with the source."""
    prod, _ = product_quasi([exp_quasi, qx])
    table = {}
    for gl in exp_quasi.carrier.labels:
        g = by_label[gl]
        for x in qx.carrier.labels:
            table[pair_label(gl, x)] = g(x)
    return prod, MapArrow(prod.carrier, qy.carrier, table)


def transpose_quasi(f, qz, qx, qy, exp=None):
    """Curry a map off a product of quasi-spaces into the function space."""
    if exp is None:
        exp = exponential_quasi(qx, qy)
    exp_quasi, by_label = exp
    table = {}
    for z in qz.carrier.labels:
        slice_map = MapArrow(qx.carrier, qy.carrier,
                             {x: f(pair_label(z, x))
                              for x in qx.carrier.labels})
        label = map_label(slice_map)
        if label not in exp_quasi.carrier:
            raise StructuralError(
                f"slice at {z!r} is not quasi-continuous")
        table[z] = label
    return MapArrow(qz.carrier, exp_quasi.carrier, table)


# -- reflection into generated spaces -------------------------------------------------


def reflect_to_cgenerated(quasi):
    """Final lifting of the admissible sink; lands in the generated spaces."""
    cls = quasi.cls
    indices = quasi.carrier.indices
    groups = [(obj, [indices(g) for g in sorted(quasi.admissible[i])])
              for i, obj in enumerate(cls.objects)]
    return _final_space(quasi.carrier, cls.monad, cls.quantale, groups)
