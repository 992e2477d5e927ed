"""Class-generated structures: probes, coreflection, function spaces.

A probe class is a finite list of validated generating spaces.  The
coreflection replaces a structure by the final structure of all probes into
it; class-continuity, the function space of class-continuous maps, and the
specialization/expansion pair between plain quantale spaces and monad spaces
all live here.

A probe class finds the probes into a target once, as each object's image
tuples (see :mod:`tvspaces.space`).  The coreflection joins those tuples
straight into the final structure; :meth:`ProbeClass.probes_into` builds
``(map, object)`` pairs from them only for callers that want maps.

A class whose objects are all discrete, such as every compact Hausdorff
class over a lawful table (see :mod:`tvspaces.enumeration`), coreflects
onto the discrete space with no search, on a lawful integral table.  A
discrete object's entries are the unit ``k`` on the diagonal and bottom
off it.  So a probe ``f`` joins ``k`` into a diagonal cell ``(fx, fx)`` and
bottom into every other cell it reaches: the joined square is at most the
discrete one.  The closure joins the unit into the diagonal, and on an
integral table it is the reflexive transitive closure, whose powers of a
square below the discrete one stay below it (``k (x) k = k``, and bottom
absorbs).  So the final structure is the discrete space, whatever the
target and its probes.  A table that breaks a law may break this (a tensor
that is the join, say, closes the discrete square to the indiscrete one),
and a non-integral one is refused by the closure, so both keep the search.

Everything computed is an immutable value.  The probe class memoises its
answers in one dict; see :class:`ProbeClass` for why it is safe to share.
"""

import warnings

from .enumeration import _lawful, compact_hausdorff_spaces, iso_canonical_key
from .errors import (
    BudgetExceededError,
    CarrierMismatchError,
    PreconditionError,
    StructuralError,
)
from .monad import identity_monad
from .space import (
    Space,
    _continuous_images,
    _curry,
    _final_space,
    _is_discrete,
    continuous_maps,
    discrete_space,
    exponential,
    exponentiability_witness,
    initial_structure,
    is_continuous,
    map_label,
    product,
    pair_carrier,
    sierpinski_space,
    validate_space,
)
from .vrel import Carrier, MapArrow

DEFAULT_MAP_BUDGET = 2_000_000
_MISSING = object()     # a memo miss; a cached None is a hit


class ProbeClass:
    """A finite generating class sharing one monad and quantale.

    Objects are validated at construction and deduplicated up to carrier
    relabeling, which leaves every final structure unchanged;
    :meth:`compact_hausdorff_upto` takes the spaces of
    :func:`~tvspaces.enumeration.compact_hausdorff_spaces`, valid and
    pairwise non-isomorphic, without checking them again.

    When every object is discrete (decided once, from the objects), the
    table is lawful and integral, and the target shares the class's monad
    and quantale, :meth:`coreflect` answers in closed form (see the module
    docstring); every other class and target keeps the search.  The quasi
    layer reads the same flag (see :mod:`tvspaces.quasi`).

    ``spec`` is the specifier the named constructors set: ``explicit``,
    ``sierpinski`` or ``compact-hausdorff-upto:N``.  Only
    :meth:`compact_hausdorff_upto` makes a :meth:`is_enumerated_window`
    class, whose closure the quasi layer trusts.

    One memo.  Every class-derived answer is computed once and kept in one
    dict by :meth:`_cached`.  An answer on the objects alone (class maps,
    witnesses, the (EP) report, the quasi layer's object checks and
    closure report) is always kept.  An answer for a target space is keyed
    by its :meth:`~tvspaces.space.Space.cache_key` and kept only when the
    target is over the class's own monad and quantale instances, so an
    equal target over other instances gets its own answer or error.  The
    objects are immutable and the keys are whole values, so an entry never
    goes stale and a race on a missing entry stores equal values: the memo
    is safe to share, but never evicted.  A cached ``None`` is a hit.  The
    budget is checked only on a miss, so a small budget gets the answer of
    an earlier, larger one; a call that raises caches nothing.  Cached
    values are returned, not copied, and must not be modified.
    """

    __slots__ = ("objects", "spec", "monad", "quantale", "_discrete", "_memo")

    def __init__(self, objects):
        objects = list(objects)
        deduped, seen = [], set()
        for obj in objects:
            if (obj.monad is not objects[0].monad
                    or obj.quantale is not objects[0].quantale):
                raise CarrierMismatchError(
                    "probe class objects must share monad and quantale")
            report = validate_space(obj)
            if not report.passed:
                raise PreconditionError(
                    f"generating space is not a valid space: "
                    f"{report.violations[0]}")
            key = iso_canonical_key(obj)
            if key not in seen:
                seen.add(key)
                deduped.append(obj)
        self._fill(deduped, "explicit")

    @staticmethod
    def _trusted(objects, spec):
        """A class on valid, pairwise non-isomorphic spaces that share one
        monad and quantale: unchecked."""
        cls = object.__new__(ProbeClass)
        cls._fill(objects, spec)
        return cls

    def _fill(self, objects, spec):
        if not objects:
            raise PreconditionError("a probe class needs at least one object")
        if all(len(obj.carrier) == 0 for obj in objects):
            raise PreconditionError(
                "a probe class needs a nonempty generating space")
        self.objects = tuple(objects)
        self.spec = spec
        self.monad = objects[0].monad
        self.quantale = objects[0].quantale
        self._discrete = all(map(_is_discrete, objects))
        self._memo = {}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def explicit(spaces):
        return ProbeClass(spaces)

    @staticmethod
    def compact_hausdorff_upto(n, quantale, monad):
        objects = compact_hausdorff_spaces(quantale, monad, n)
        return ProbeClass._trusted(objects, f"compact-hausdorff-upto:{n}")

    @staticmethod
    def sierpinski(quantale, monad, grid=None):
        cls = ProbeClass([sierpinski_space(quantale, monad, grid)])
        cls.spec = "sierpinski"
        return cls

    def spec_token(self):
        return self.spec

    def is_enumerated_window(self):
        """Whether the class is a size-bounded window of all compact
        Hausdorff spaces over its table, as :meth:`compact_hausdorff_upto`
        builds."""
        return self.spec.startswith("compact-hausdorff-upto:")

    def _cached(self, key, compute, space=None):
        """``compute()``, memoised under ``key``; with a target ``space``,
        only when it is over the class's own monad and quantale instances
        (see the class docstring)."""
        if space is not None and not self._shares_tables(space):
            return compute()
        value = self._memo.get(key, _MISSING)
        if value is _MISSING:
            value = self._memo[key] = compute()
        return value

    def _shares_tables(self, space):
        return space.monad is self.monad and space.quantale is self.quantale

    # -- probes -------------------------------------------------------------

    def probes_into(self, space, budget=DEFAULT_MAP_BUDGET):
        """All probes over a space, in deterministic order.

        Returns a tuple of ``(map, object)`` pairs: the continuous maps out
        of each class object in turn, in :func:`all_maps` order.  They are
        pairwise distinct: the objects are pairwise non-isomorphic and the
        search yields each map once.  The candidate count |Y|^|X| over the
        objects is checked against the budget before anything is searched;
        overflowing raises instead of truncating.
        """
        def build():
            images = self._images_into(space, budget)
            return tuple(
                (MapArrow._from_images(obj.carrier, space.carrier, f), obj)
                for obj, fs in zip(self.objects, images) for f in fs)
        return self._cached(("probes", space.cache_key()), build, space)

    def _images_into(self, space, budget):
        """Per object, its continuous maps into a space as image-index
        tuples (see ``space._continuous_images``), cached.  The budget is
        checked before any search."""
        def search():
            self._check_budget(space, budget)
            return tuple(_continuous_images(obj, space)
                         for obj in self.objects)
        return self._cached(("images", space.cache_key()), search, space)

    def _check_budget(self, space, budget):
        n = len(space.carrier)
        total = sum(n ** len(obj.carrier) for obj in self.objects)
        if total > budget:
            raise BudgetExceededError(
                f"probe enumeration needs {total} candidate maps, "
                f"budget is {budget}")

    def _hom_images(self, i, j):
        """The continuous maps from object i to object j as image tuples."""
        return self._cached(("homs", i, j), lambda: _continuous_images(
            self.objects[i], self.objects[j]))

    def homs(self, i, j):
        """Continuous maps between class objects."""
        dom, cod = self.objects[i].carrier, self.objects[j].carrier
        return [MapArrow._from_images(dom, cod, f)
                for f in self._hom_images(i, j)]

    def exponentiability_witness(self, i):
        """The exponentiability witness of object i, cached."""
        return self._cached(("witness", i), lambda: exponentiability_witness(
            self.objects[i]))

    def coreflect(self, space, budget=DEFAULT_MAP_BUDGET):
        """The final structure of the probes into a space, cached.

        The probes stay image tuples: each object's are joined into the
        result in :meth:`probes_into` order, with no map built, unless
        the closed form applies (see the class docstring); it makes the
        same budget check.
        """
        key, q = space.cache_key(), space.quantale

        def compute():
            if (self._shares_tables(space) and self._discrete
                    and q.integral and _lawful(q)):
                if ("images", key) not in self._memo:
                    self._check_budget(space, budget)
                return discrete_space(space.carrier, space.monad, q)
            return _final_space(space.carrier, space.monad, q, list(
                zip(self.objects, self._images_into(space, budget))))
        return self._cached(("coreflect", key), compute, space)

    def exponential_with(self, i, z_space):
        return self._cached(("exp", i, z_space.cache_key()),
                            lambda: exponential(self.objects[i], z_space),
                            z_space)


def c_generated_structure(space, probe_class, budget=DEFAULT_MAP_BUDGET):
    """The coreflection: final structure with respect to all probes."""
    return probe_class.coreflect(space, budget)


def is_c_generated(space, probe_class, budget=DEFAULT_MAP_BUDGET):
    return space.structure == probe_class.coreflect(space, budget).structure


def is_c_continuous(f, x_space, y_space, probe_class,
                    budget=DEFAULT_MAP_BUDGET):
    """Class-continuity: ``f`` is continuous after every probe into
    ``x_space``, which holds exactly when it is continuous out of the
    coreflection, the final structure of those probes."""
    return is_continuous(f, probe_class.coreflect(x_space, budget), y_space)


def check_ep(probe_class):
    """Report on condition (EP) for the class.

    Returns ``(non_exponentiable, non_generated_products)`` where the first
    lists indices of class objects that fail the exponentiability criterion
    and the second lists pairs whose binary product is not class-generated.
    The report is computed once per class and cached on it.
    """
    def compute():
        objects = probe_class.objects
        non_expo = [i for i in range(len(objects))
                    if probe_class.exponentiability_witness(i) is not None]
        bad_products = []
        for i in range(len(objects)):
            for j in range(i, len(objects)):
                prod, _ = product(objects[i], objects[j])
                if not is_c_generated(prod, probe_class):
                    bad_products.append((i, j))
        return tuple(non_expo), tuple(bad_products)
    non_expo, bad_products = probe_class._cached(("ep",), compute)
    return list(non_expo), list(bad_products)


def cmap_space(y_space, z_space, probe_class, budget=DEFAULT_MAP_BUDGET):
    """Function space of class-continuous maps with the initial structure.

    Every class object must be exponentiable; the product half of condition
    (EP) is checked and surfaced as a warning when it fails.  Returns the
    space together with a label-to-map dictionary for its carrier.
    """
    for i, obj in enumerate(probe_class.objects):
        witness = probe_class.exponentiability_witness(i)
        if witness is not None:
            raise PreconditionError(
                f"class object #{i} ({list(obj.carrier.labels)}) is not "
                f"exponentiable, witness {witness}")
    _, bad_products = check_ep(probe_class)
    if bad_products:
        warnings.warn(
            f"products of class objects {bad_products} are not "
            "class-generated; the currying bijection may fail",
            stacklevel=2)
    y_core = probe_class.coreflect(y_space, budget)
    maps = continuous_maps(y_core, z_space)
    carrier = Carrier(map(map_label, maps))
    by_label = dict(zip(carrier.labels, maps))
    source = []
    # probe p sends g to g . p, a continuous map out of the probe's object
    # and so a point of that object's exponential
    for i, probes in enumerate(probe_class._images_into(y_space, budget)):
        exp_space, exp_maps = probe_class.exponential_with(i, z_space)
        point = {g.images: k for k, g in enumerate(exp_maps.values())}
        arrows = dict.fromkeys(
            tuple([point[tuple(map(g.images.__getitem__, p))] for g in maps])
            for p in probes)
        source.extend((MapArrow._from_images(carrier, exp_space.carrier, f),
                       exp_space) for f in arrows)
    space = initial_structure(carrier, source, y_space.monad,
                              y_space.quantale)
    return space, by_label


def transpose_cmap(f, x_space, y_space, z_space, probe_class, cmap=None):
    """Curry ``f : X x Y -> Z`` into a map ``X -> CMap(Y, Z)``.

    The domain of ``f`` must be the canonical product carrier.  When ``f``
    is class-continuous every slice lands in the function-space carrier; a
    slice that is not class-continuous has no carrier point and raises.
    """
    if cmap is None:
        cmap = cmap_space(y_space, z_space, probe_class)
    return _curry(f, x_space.carrier, y_space.carrier, z_space.carrier,
                  cmap[0].carrier, "class-continuous; the transpose does "
                  "not land in the function space")


def untranspose_cmap(g, x_space, y_space, z_space, probe_class, cmap=None):
    """Uncurry ``g : X -> CMap(Y, Z)`` onto the canonical product carrier."""
    if cmap is None:
        cmap = cmap_space(y_space, z_space, probe_class)
    cmap_sp, by_label = cmap
    if g.dom != x_space.carrier or g.cod != cmap_sp.carrier:
        raise CarrierMismatchError("untranspose endpoints mismatch")
    labels = cmap_sp.carrier.labels
    return MapArrow._from_images(
        pair_carrier(x_space.carrier, y_space.carrier), z_space.carrier,
        [z for k in g.images for z in by_label[labels[k]].images])


# -- the specialization / expansion pair ----------------------------------------


def specialization(space):
    """Restrict a monad space to the plain quantale space on its points."""
    return Space(space.carrier, identity_monad(), space.quantale,
                 space.structure)


def alexandroff_expansion(v_space, monad):
    """Freely expand a plain quantale space along a monad.

    The structure is the lifted relation evaluated against the unit, which
    for the shipped principal monads is the square itself: the expansion
    re-tags the space, and is inverse to :func:`specialization`.
    """
    if v_space.monad is not identity_monad():
        raise CarrierMismatchError(
            "expansion starts from an identity-monad space")
    return Space(v_space.carrier, monad, v_space.quantale, v_space.structure)


def is_alexandroff(space, grid=None, budget=DEFAULT_MAP_BUDGET):
    """Generated by the one-object class of the residuation space."""
    cls = ProbeClass.sierpinski(space.quantale, space.monad, grid)
    return is_c_generated(space, cls, budget)
