"""Differential tests of the image-tuple paths against the map-object code.

The coreflection and the whole quasi layer (the axioms, the joint covers,
the saturation, the canonical structures, quasi-continuity, the
constructions and the exponential) run on image-index tuples, and build
``MapArrow`` objects only for what they return.  The functions prefixed
``ref_`` below are the versions they replaced, kept as the oracle: the
per-probe ``join_at`` loop of ``final_structure``, and the quasi functions
that compose ``MapArrow`` objects.  Every answer and witness must equal
theirs, in the same order, and every error must have the same type and
message.
"""

import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvspaces import (
    BudgetExceededError,
    CarrierMismatchError,
    PreconditionError,
    StructuralError,
    TvsError,
    UnsupportedOperationError,
    ValidationReport,
    bool2,
    chain,
    cost_max,
    cost_plus,
    finite_table,
    lukasiewicz_grid,
)
from tvspaces import generation
from tvspaces.generation import ProbeClass
from tvspaces.monad import finite_ultrafilter_monad, identity_monad
from tvspaces.suite import non_integral_quantale
from tvspaces.quasi import (
    QuasiSpace,
    _joint_cover,
    associated_quasi,
    class_closure_report,
    discrete_quasi,
    exponential_quasi,
    indiscrete_quasi,
    initial_quasi,
    is_quasi_continuous,
    quasi_continuous_maps,
    quotient_quasi,
    reflect_to_cgenerated,
    subspace_quasi,
    validate_quasi,
)
from tvspaces.space import (
    Space,
    _continuous_images,
    _encode_distinct,
    _final_space,
    _is_discrete,
    all_maps,
    continuous_maps,
    discrete_space,
    exponential,
    final_structure,
    is_compact,
    is_continuous,
    is_hausdorff,
    map_label,
    validate_space,
)
from tvspaces.vrel import Carrier, MapArrow, VRel, reflexive_transitive_closure

IM = identity_monad()

# -- the map-object reference -------------------------------------------------


def ref_final_structure(carrier, sink, monad, quantale):
    """The per-probe loop: each map joins its domain's whole square into
    the rows and columns of its images, in the order of the sink."""
    for f, x in sink:
        if f.cod != carrier:
            raise CarrierMismatchError("sink map codomain mismatch")
        if f.dom != x.carrier:
            raise CarrierMismatchError("sink map domain mismatch")
        if x.monad is not monad or x.quantale is not quantale:
            raise CarrierMismatchError("sink space monad/quantale mismatch")
    n = len(carrier)
    kernel, payloads = _encode_distinct(quantale, [x for _, x in sink],
                                        steps=2 * n)
    bot = kernel.bottom
    joined = [[bot] * n for _ in range(n)]
    for f, x in sink:
        indices = carrier.indices(f.table.values())
        for fi, row in zip(indices, payloads[id(x.structure)]):
            kernel.join_at(joined[fi], indices, row)
    closed = kernel.close(joined)
    return Space(carrier, monad, quantale, VRel._from_rows(
        carrier, carrier, quantale, kernel.decode(closed)))


def ref_coreflect(cls, space, budget=generation.DEFAULT_MAP_BUDGET):
    """The search that a class of discrete objects skips: the budget
    check, every object's continuous maps as image tuples, the sink check
    and their final structure."""
    n = len(space.carrier)
    total = sum(n ** len(obj.carrier) for obj in cls.objects)
    if total > budget:
        raise BudgetExceededError(
            f"probe enumeration needs {total} candidate maps, "
            f"budget is {budget}")
    images = [_continuous_images(obj, space) for obj in cls.objects]
    if any(images) and (space.monad is not cls.monad
                        or space.quantale is not cls.quantale):
        raise CarrierMismatchError("sink space monad/quantale mismatch")
    return _final_space(space.carrier, space.monad, space.quantale,
                        list(zip(cls.objects, images)))


def ref_reflect_to_cgenerated(quasi):
    cls = quasi.cls
    sink = [(alpha, obj) for i, obj in enumerate(cls.objects)
            for alpha in quasi.arrows(i)]
    return ref_final_structure(quasi.carrier, sink, cls.monad, cls.quantale)


def ref_associated_quasi(space, cls):
    if space.monad is not cls.monad or space.quantale is not cls.quantale:
        raise CarrierMismatchError("space and class monad/quantale mismatch")
    sets = []
    for obj in cls.objects:
        sets.append([f.graph()
                     for f in all_maps(obj.carrier, space.carrier)
                     if is_continuous(f, obj, space)])
    return QuasiSpace(space.carrier, cls, sets)


def ref_shared_class(qx, qy):
    if qx.cls is not qy.cls:
        raise CarrierMismatchError(
            "quasi-spaces must share one probe class instance")
    return qx.cls


def ref_is_quasi_continuous(f, qx, qy):
    cls = ref_shared_class(qx, qy)
    if f.dom != qx.carrier or f.cod != qy.carrier:
        raise CarrierMismatchError("map endpoints do not match")
    for i in range(len(cls.objects)):
        for alpha in qx.arrows(i):
            if not qy.contains(i, alpha.then(f)):
                return False
    return True


def ref_quasi_continuous_maps(qx, qy):
    return [f for f in all_maps(qx.carrier, qy.carrier)
            if ref_is_quasi_continuous(f, qx, qy)]


def ref_exponential_quasi(qx, qy):
    cls = ref_shared_class(qx, qy)
    closure = class_closure_report(cls)
    if not closure.passed:
        raise generation.PreconditionError(
            f"class is not closed under products/pullbacks: "
            f"{closure.violations[:3]}")
    maps = ref_quasi_continuous_maps(qx, qy)
    carrier = Carrier(map_label(f) for f in maps)
    by_label = {map_label(f): f for f in maps}
    sets = []
    for i, obj in enumerate(cls.objects):
        sets.append({beta.graph() for beta in all_maps(obj.carrier, carrier)
                     if all(tuple(by_label[beta(h(b))](alpha(b))
                                  for b in src.carrier.labels)
                            in qy.admissible[j]
                            for j, src in enumerate(cls.objects)
                            for h in cls.homs(j, i)
                            for alpha in qx.arrows(j))})
    return QuasiSpace(carrier, cls, sets, check_class=False), by_label


def ref_joint_cover(quasi, i, alpha):
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


def ref_saturate_admissible(carrier, cls, seed_sets):
    """On label graphs; the answer is one frozenset of them per object."""
    sets = [set(s) for s in seed_sets]
    for i, obj in enumerate(cls.objects):
        for y in carrier.labels:
            sets[i].add(MapArrow.constant(obj.carrier, carrier, y).graph())
    changed = True
    while changed:
        changed = False
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
        current = QuasiSpace(carrier, cls,
                             [frozenset(s) for s in sets], check_class=False)
        for i, obj in enumerate(cls.objects):
            for alpha in all_maps(obj.carrier, carrier):
                if alpha.graph() in sets[i]:
                    continue
                if ref_joint_cover(current, i, alpha) is not None:
                    sets[i].add(alpha.graph())
                    changed = True
    return [frozenset(s) for s in sets]


def ref_validate_quasi(quasi):
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
    for i, obj in enumerate(cls.objects):
        for y in carrier.labels:
            g = MapArrow.constant(obj.carrier, carrier, y).graph()
            if g not in quasi.admissible[i]:
                violations.append(("QS1-constants", (i, y)))
    for j in range(len(cls.objects)):
        for alpha in quasi.arrows(j):
            for i in range(len(cls.objects)):
                for h in cls.homs(i, j):
                    if not quasi.contains(i, h.then(alpha)):
                        violations.append(
                            ("QS2-precomposition",
                             (i, j, h.graph(), alpha.graph())))
    for i, obj in enumerate(cls.objects):
        for alpha in all_maps(obj.carrier, carrier):
            if quasi.contains(i, alpha):
                continue
            family = ref_joint_cover(quasi, i, alpha)
            if family is not None:
                violations.append(
                    ("QS3-cover-closure",
                     (i, alpha.graph(), [g for _, g in family])))
    return ValidationReport.collect(violations, notes)


def ref_subspace_quasi(quasi, labels):
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


def ref_quotient_quasi(quasi, f):
    if f.dom != quasi.carrier:
        raise CarrierMismatchError("quotient map domain mismatch")
    if not f.is_surjective():
        raise PreconditionError("quotient maps must be surjective")
    cls = quasi.cls
    closure = class_closure_report(cls)
    if not closure.passed:
        warnings.warn(
            f"class is missing pullbacks {closure.violations[:3]}",
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
                    assignment = {}
                    for c in src.carrier.labels:
                        want = pushed(c)
                        if assignment.setdefault(h(c), want) != want:
                            break
                    else:
                        sets[i].add(tuple(assignment[c]
                                          for c in obj.carrier.labels))
    sets = ref_saturate_admissible(target, cls, sets)
    return QuasiSpace(target, cls, sets, check_class=False)


def ref_initial_quasi(carrier, source, cls):
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


# -- quantales and seeded inputs ----------------------------------------------


def diamond():
    """0 < a, b < 1 with meet as tensor: its join is total but not max."""
    meet = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]
    leq = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    return finite_table(["0", "a", "b", "1"], leq, meet, unit_index=3)


def no_join():
    """z < x, y < u, v < t: x and y have two least upper bounds, u and v.

    The unit is the top t, so closure accepts the table."""
    labels = ["z", "x", "y", "u", "v", "t"]
    above = {"z": "zxyuvt", "x": "xuvt", "y": "yuvt", "u": "ut", "v": "vt",
             "t": "t"}
    leq = [[int(b in above[a]) for b in labels] for a in labels]
    tensor = [[b if a == 5 else a if b in (a, 5) else 0 for b in range(6)]
              for a in range(6)]
    return finite_table(labels, leq, tensor, unit_index=5)


def no_bottom():
    """x, y < t with x and y incomparable: no bottom element."""
    leq = [[1, 0, 1], [0, 1, 1], [0, 0, 1]]
    tensor = [[0, 2, 0], [2, 1, 1], [0, 1, 2]]
    return finite_table(["x", "y", "t"], leq, tensor, unit_index=2)


QUANTALES = {
    "bool2": bool2,
    "chain4": lambda: chain(4),
    "luk4": lambda: lukasiewicz_grid(4),
    "cost-plus": cost_plus,
    "cost-max": cost_max,
    "diamond": diamond,
}
COSTS = [Fraction(1, 3), Fraction(2, 7), Fraction(5, 12), Fraction(2),
         Fraction(0), Fraction(11, 7)]


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except TvsError as exc:
        return (type(exc), str(exc))


def carrier(prefix, n):
    return Carrier([f"{prefix}{i}" for i in range(n)])


def random_value(q, rng):
    if q.is_finite:
        values = q.carrier_values()
        return values[0] if rng.random() < 0.4 else rng.choice(values)
    return q.bottom if rng.random() < 0.4 else q.value(rng.choice(COSTS))


def random_space(q, c, rng, mon=IM):
    """A seeded valid space on ``c``: the closure of a random square."""
    sq = VRel(c, c, q, [[random_value(q, rng) for _ in c] for _ in c])
    return Space.from_square(c, mon, q, reflexive_transitive_closure(sq))


def random_map(dom, cod, rng):
    return MapArrow(dom, cod, {x: rng.choice(cod.labels) for x in dom.labels})


def classes(q, rng, mon=IM):
    """A shipped class, explicit ones with a 0-point object, and a class of
    two 2-point objects, one not discrete, that is taken as closed under
    products and pullbacks without a check (its spec is
    ``compact-hausdorff-upto:2``)."""
    empty = discrete_space(Carrier([]), mon, q)
    point = discrete_space(carrier("o", 1), mon, q)
    return [ProbeClass.compact_hausdorff_upto(2, q, mon),
            ProbeClass.explicit([empty, point]),
            ProbeClass.explicit([random_space(q, carrier("r", 2), rng, mon),
                                 empty, point]),
            ProbeClass._trusted(
                [point, discrete_space(carrier("d", 2), mon, q),
                 Space.from_square(carrier("s", 2), mon, q, VRel(
                     carrier("s", 2), carrier("s", 2), q,
                     [[q.top, q.top], [q.bottom, q.top]]))],
                "compact-hausdorff-upto:2")]


def random_quasi(cls, c, rng, keep=0.5):
    """A seeded quasi-structure, each map admissible with probability
    ``keep``: with 0.5, hom-sets and admissible sets of every size occur."""
    sets = [[f.graph() for f in all_maps(obj.carrier, c)
             if rng.random() < keep] for obj in cls.objects]
    return QuasiSpace(c, cls, sets, check_class=False)


# -- probes and coreflections -------------------------------------------------


@pytest.mark.parametrize("qname", list(QUANTALES))
def test_probes_come_from_the_map_search_in_order(qname):
    q, rng = QUANTALES[qname](), random.Random(f"probes/{qname}")
    for cls in classes(q, rng):
        for n in (0, 1, 3, 4):
            space = random_space(q, carrier("x", n), rng)
            probes = cls.probes_into(space)
            want = [(f, obj) for obj in cls.objects
                    for f in continuous_maps(obj, space)]
            assert list(probes) == want
            assert all(p[1] is w[1] for p, w in zip(probes, want))
            assert cls.probes_into(space) is probes


@pytest.mark.parametrize("qname", list(QUANTALES))
def test_coreflections_match_the_per_probe_loop(qname):
    q, rng = QUANTALES[qname](), random.Random(f"coreflect/{qname}")
    for cls in classes(q, rng):
        for n in (0, 1, 2, 4, 5):
            space = random_space(q, carrier("x", n), rng)
            got = cls.coreflect(space)
            want = ref_final_structure(space.carrier, cls.probes_into(space),
                                       IM, q)
            assert got == want
            # the probes, once cached, give the same answer to a new class
            fresh = ProbeClass._trusted(cls.objects, cls.spec)
            fresh.probes_into(space)
            assert fresh.coreflect(space) == want


@pytest.mark.parametrize("qname", list(QUANTALES))
@pytest.mark.parametrize("monad", [identity_monad, finite_ultrafilter_monad])
def test_final_structures_match_the_per_probe_loop(qname, monad):
    """Runs of one domain, interleaved domains and repeated maps."""
    q, mon = QUANTALES[qname](), monad()
    rng = random.Random(f"final/{qname}/{mon.name}")
    objects = [random_space(q, carrier(f"o{k}_", m), rng, mon)
               for k, m in enumerate((2, 3, 1, 0))]
    for n in (0, 1, 3, 5):
        c = carrier("x", n)
        if n:
            runs = [(random_map(o.carrier, c, rng), o)
                    for o in objects for _ in range(6)]
            mixed = [(random_map(o.carrier, c, rng), o) for o in objects * 4]
        else:
            runs = mixed = [(MapArrow(objects[3].carrier, c, {}),
                             objects[3])] * 3
        for sink in ([], runs, mixed, runs[:1] * 5):
            assert (outcome(final_structure, c, sink, mon, q)
                    == outcome(ref_final_structure, c, sink, mon, q))
        assert final_structure(c, [], mon, q) == discrete_space(c, mon, q)


def test_final_structure_keeps_its_mismatch_errors():
    q, rng = bool2(), random.Random("mismatch")
    c, other = carrier("p", 2), carrier("q", 2)
    sp = random_space(q, c, rng)
    ident = MapArrow.identity(c)
    for args in ((c, [(MapArrow.identity(other), sp)], IM, q),
                 (c, [(ident, random_space(q, other, rng))], IM, q),
                 (c, [(ident, sp)], finite_ultrafilter_monad(), q),
                 (c, [(ident, sp)], IM, chain(3))):
        got = outcome(final_structure, *args)
        assert got[0] is CarrierMismatchError
        assert got == outcome(ref_final_structure, *args)


NO_JOIN_ERROR = ("join undefined in quantale finite-table(z,x,y,u,v,t): the "
                 "order is not a complete lattice (run validate_quantale)")


def test_an_empty_carrier_is_refused_too():
    q, empty = no_bottom(), Carrier([])
    got = outcome(final_structure, empty, [], IM, q)
    assert got == (StructuralError,
                   "meet undefined in quantale finite-table(x,y,t): the order "
                   "is not a complete lattice (run validate_quantale)")
    assert got == outcome(ref_final_structure, empty, [], IM, q)


def test_final_structure_refuses_an_order_that_is_not_a_lattice():
    """Every sink and coreflection over a table with an undefined join
    raises the lattice error, before any join: also the sinks that never
    meet the undefined join, such as u joined before x and y."""
    q = no_join()
    z, x, y, u, v, t = q.carrier_values()
    rng = random.Random("no-join")
    edge = Carrier(["e0", "e1"])
    spaces = [Space.from_square(edge, IM, q, VRel(edge, edge, q, m))
              for m in ([[t, x], [z, t]], [[t, y], [z, t]], [[t, u], [z, t]],
                        [[t, z], [z, t]])]
    one, two, three, _ = spaces
    ident = MapArrow.identity(edge)
    want = (StructuralError, NO_JOIN_ERROR)
    for sink in ([(ident, one), (ident, two), (ident, three)],
                 [(ident, three), (ident, one), (ident, two)],
                 [(ident, three), (ident, three)], []):
        assert outcome(final_structure, edge, sink, IM, q) == want
    for n in (1, 2, 3):
        c = carrier("p", n)
        for _ in range(10):
            sink = [(random_map(edge, c, rng), rng.choice(spaces))
                    for _ in range(rng.randrange(1, 6))]
            assert outcome(final_structure, c, sink, IM, q) == want
        cls = ProbeClass._trusted(spaces[:2], "explicit")
        target = Space.from_square(c, IM, q, VRel(c, c, q, [
            [t if i == j else x for j in range(n)] for i in range(n)]))
        assert outcome(cls.coreflect, target) == want


def join_tensor():
    """A two-chain whose tensor is the join: the unit law fails, and the
    closure takes a discrete square to the indiscrete one."""
    return finite_table(["0", "1"], [[1, 1], [0, 1]], [[0, 1], [1, 1]],
                        unit_index=1)


# tables off the closed form: a law fails, or the closure refuses them
OFF_FORM = {"join-tensor": join_tensor, "non-integral": non_integral_quantale}


def coreflect_targets(q, mon, rng):
    """Closed targets on 0 to 4 points, reflexive squares that are not
    transitive, squares with a diagonal entry below the unit, and targets
    over the other monad or another instance of an equal table."""
    other = (finite_ultrafilter_monad() if mon is IM else IM)
    targets = []
    if q.integral:
        targets += [random_space(q, carrier("x", n), rng, mon)
                    for n in range(5)]
        targets += [random_space(q, carrier("z", n), rng, other)
                    for n in (0, 2)]
    for n in (1, 2, 3, 4):
        c = carrier("y", n)
        square = [[random_value(q, rng) for _ in c] for _ in c]
        for i in range(n):
            square[i][i] = q.top
        targets.append(Space.from_square(c, mon, q, VRel(c, c, q, square)))
        square = [row[:] for row in square]
        square[rng.randrange(n)][rng.randrange(n)] = q.bottom
        square[n - 1][n - 1] = q.bottom
        targets.append(Space.from_square(c, mon, q, VRel(c, c, q, square)))
    if q.cache_key() == diamond().cache_key():
        targets += [discrete_space(carrier("w", n), mon, diamond())
                    for n in (0, 2)]
    return targets


@pytest.mark.parametrize("qname", list(QUANTALES) + list(OFF_FORM))
@pytest.mark.parametrize("monad", [identity_monad, finite_ultrafilter_monad])
def test_closed_form_coreflections_match_the_search(qname, monad):
    """The closed form of a class of discrete objects against the search,
    on every class of ``classes`` and a class of discrete objects:
    answers, budget errors, mismatch errors and the closure's refusal."""
    q, mon = {**QUANTALES, **OFF_FORM}[qname](), monad()
    rng = random.Random(f"closed-form/{qname}/{mon.name}")
    discrete = ProbeClass._trusted(
        [discrete_space(carrier("e", n), mon, q) for n in range(4)],
        "explicit")
    assert discrete._discrete
    tried = [discrete, ProbeClass.compact_hausdorff_upto(2, q, mon)]
    if qname in QUANTALES:
        tried += classes(q, rng, mon)
    answers = set()
    for cls in tried:
        for target in coreflect_targets(q, mon, rng):
            n = len(target.carrier)
            total = sum(n ** len(obj.carrier) for obj in cls.objects)
            for budget in (total - 1, total, generation.DEFAULT_MAP_BUDGET):
                fresh = ProbeClass._trusted(cls.objects, cls.spec)
                want = outcome(ref_coreflect, cls, target, budget)
                assert outcome(fresh.coreflect, target, budget) == want
            answers.add(want[0] if want[0] != "ok" else
                        want[1] == discrete_space(target.carrier, mon, q))
            if want[0] != "ok":
                continue
            assert generation.is_c_generated(target, fresh) == (
                target.structure == want[1].structure)
            # probes cached by a call with a larger budget: no budget check
            fresh = ProbeClass._trusted(cls.objects, cls.spec)
            fresh.probes_into(target)
            assert fresh.coreflect(target, 0) == want[1]
    if qname == "join-tensor":
        assert False in answers       # the search's answer is not discrete
    if qname == "non-integral":
        assert UnsupportedOperationError in answers


def test_budget_is_checked_before_any_search(monkeypatch):
    q = bool2()
    cls = ProbeClass.compact_hausdorff_upto(2, q, IM)
    space = discrete_space(carrier("x", 3), IM, q)

    def no_search(*args):
        raise AssertionError("searched before the budget check")

    monkeypatch.setattr(generation, "_continuous_images", no_search)
    for fn in (cls.probes_into, cls.coreflect):
        with pytest.raises(BudgetExceededError) as exc:
            fn(space, 11)
        assert str(exc.value) == ("probe enumeration needs 12 candidate "
                                  "maps, budget is 11")


def test_cached_images_keep_the_sink_check():
    """A target equal to one whose probes are cached, but over another
    instance of an equal table, gets what a fresh class gives."""
    q1, q2 = diamond(), diamond()
    assert q1 is not q2 and q1.cache_key() == q2.cache_key()
    cls = ProbeClass.compact_hausdorff_upto(2, q1, IM)
    c = carrier("x", 2)
    cls.probes_into(discrete_space(c, IM, q1))
    other = discrete_space(c, IM, q2)
    fresh = ProbeClass.compact_hausdorff_upto(2, q1, IM)
    want = outcome(fresh.coreflect, other)
    assert want == (CarrierMismatchError, "spaces use different quantales")
    assert outcome(cls.coreflect, other) == want
    assert outcome(fresh.probes_into, other) == want
    assert outcome(cls.probes_into, other) == want


# -- quasi-spaces -------------------------------------------------------------


@pytest.mark.parametrize("qname", list(QUANTALES))
def test_associated_quasi_matches_the_map_filter(qname):
    q, rng = QUANTALES[qname](), random.Random(f"associated/{qname}")
    for cls in classes(q, rng):
        for n in (0, 1, 2, 3):
            space = random_space(q, carrier("x", n), rng)
            got = outcome(associated_quasi, space, cls)
            assert got == outcome(ref_associated_quasi, space, cls)
            if got[0] == "ok":
                quasi = got[1]
                assert (reflect_to_cgenerated(quasi)
                        == ref_reflect_to_cgenerated(quasi))
    for cls in classes(q, rng):
        for n in (0, 1, 3):
            quasi = random_quasi(cls, carrier("x", n), rng)
            assert (reflect_to_cgenerated(quasi)
                    == ref_reflect_to_cgenerated(quasi))
    ultra = random_space(q, carrier("x", 2), rng, finite_ultrafilter_monad())
    cls = classes(q, rng)[0]
    assert outcome(associated_quasi, ultra, cls) == outcome(
        ref_associated_quasi, ultra, cls)


@pytest.mark.parametrize("qname", list(QUANTALES))
def test_quasi_hom_sets_and_exponentials_match_the_map_objects(qname):
    q, rng = QUANTALES[qname](), random.Random(f"quasi/{qname}")
    for cls in classes(q, rng)[::3] + classes(q, rng)[1:2]:
        for nx, ny in ((0, 2), (1, 2), (2, 0), (2, 2), (2, 3)):
            cx, cy = carrier("x", nx), carrier("y", ny)
            qxs = [random_quasi(cls, cx, rng), random_quasi(cls, cx, rng, 1)]
            qys = [random_quasi(cls, cy, rng),
                   random_quasi(cls, cy, rng, 0.9)]
            for qx in qxs:
                for qy in qys:
                    maps = quasi_continuous_maps(qx, qy)
                    assert maps == ref_quasi_continuous_maps(qx, qy)
                    for f in all_maps(cx, cy):
                        assert (is_quasi_continuous(f, qx, qy)
                                == ref_is_quasi_continuous(f, qx, qy))
                    assert outcome(exponential_quasi, qx, qy) == outcome(
                        ref_exponential_quasi, qx, qy)


def test_empty_hom_sets():
    q, rng = bool2(), random.Random("empty")
    cls = ProbeClass.compact_hausdorff_upto(2, q, IM)
    cx, cy = carrier("x", 2), carrier("y", 2)
    qx = indiscrete_quasi(cx, cls)
    bare = QuasiSpace(cy, cls, [set(), set()], check_class=False)
    assert quasi_continuous_maps(qx, bare) == [] == ref_quasi_continuous_maps(
        qx, bare)
    exp, by_label = exponential_quasi(qx, bare)
    assert (exp, by_label) == ref_exponential_quasi(qx, bare)
    assert len(exp.carrier) == 0 and exp.admissible == (frozenset(),) * 2


def test_shared_class_is_checked_only_with_a_candidate_map():
    q = bool2()
    one, other = (ProbeClass.compact_hausdorff_upto(2, q, IM)
                  for _ in range(2))
    qx = indiscrete_quasi(carrier("x", 2), one)
    empty = indiscrete_quasi(Carrier([]), other)
    assert quasi_continuous_maps(qx, empty) == []
    assert ref_quasi_continuous_maps(qx, empty) == []
    for args in ((qx, indiscrete_quasi(carrier("y", 1), other)),
                 (indiscrete_quasi(Carrier([]), one), empty)):
        got = outcome(quasi_continuous_maps, *args)
        assert got[0] is CarrierMismatchError
        assert got == outcome(ref_quasi_continuous_maps, *args)


def test_exponential_checks_the_class_closure_first():
    q, rng = bool2(), random.Random("closure")
    two = discrete_space(carrier("d", 2), IM, q)
    cls = ProbeClass.explicit([discrete_space(carrier("o", 1), IM, q), two])
    assert not class_closure_report(cls).passed
    qx = random_quasi(cls, carrier("x", 2), rng)
    qy = random_quasi(cls, carrier("y", 2), rng)
    got = outcome(exponential_quasi, qx, qy)
    assert got[0] is generation.PreconditionError
    assert got == outcome(ref_exponential_quasi, qx, qy)


# -- the quasi axioms, saturation and constructions ---------------------------


def axiom_classes():
    """The shipped classes up to 2 and 3 points over three quantales, an
    explicit bool2 class that is not closed under products and holds a
    Sierpinski object, which is not compact Hausdorff and whose class maps
    are not all maps, and the class of one such object over a non-integral
    table, whose only class map is the identity: its least structure is
    the constants, not every map."""
    b = bool2()
    sierpinski = Carrier(["s1", "s0"])
    explicit = ProbeClass.explicit([
        discrete_space(Carrier(["o"]), IM, b),
        Space.from_square(sierpinski, IM, b, VRel(
            sierpinski, sierpinski, b, [[b.top, b.top], [b.bottom, b.top]])),
        discrete_space(Carrier(["d1", "d0"]), IM, b)])
    q = non_integral_quantale()
    rigid = ProbeClass.explicit([Space.from_square(sierpinski, IM, q, VRel(
        sierpinski, sierpinski, q, [[q.unit, q.top], [q.bottom, q.unit]]))])
    return [ProbeClass.compact_hausdorff_upto(n, q, IM)
            for q in (b, chain(3), lukasiewicz_grid(3)) for n in (2, 3)] + [
        explicit, rigid]


AXIOM_CLASSES = axiom_classes()
# label orders other than the sorted one, so that the witness orders, sorted
# by label graph (QS2) or taken in carrier order (QS3), differ
AXIOM_CARRIERS = [[], ["x"], ["y", "x"], ["b10", "b9", "b2"]]


@st.composite
def quasi_spaces(draw, cls=None):
    """A quasi-space whose admissible sets are random sets of maps."""
    if cls is None:
        cls = draw(st.sampled_from(AXIOM_CLASSES))
    c = Carrier(draw(st.sampled_from(AXIOM_CARRIERS)))
    sets = [[f.graph() for f in all_maps(obj.carrier, c)
             if draw(st.booleans())] for obj in cls.objects]
    return QuasiSpace(c, cls, sets, check_class=False)


def image_tuple(f):
    return tuple(f.cod.indices(f.table.values()))


def labelled(quasi, sets):
    labels = quasi.carrier.labels
    return [frozenset(tuple(labels[y] for y in g) for g in s) for s in sets]


@settings(max_examples=150, deadline=None)
@given(quasi=quasi_spaces())
def test_axioms_and_covers_match_the_map_objects(quasi):
    """The same violations and witnesses in the same order: QS2 takes the
    admissible maps in label-graph order, QS3 the others in all_maps order,
    and each cover family is sorted by label graph."""
    cls = quasi.cls
    assert validate_quasi(quasi) == ref_validate_quasi(quasi)
    for i, obj in enumerate(cls.objects):
        for alpha in all_maps(obj.carrier, quasi.carrier):
            if not quasi.contains(i, alpha):
                assert (_joint_cover(quasi, i, image_tuple(alpha))
                        == ref_joint_cover(quasi, i, alpha))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_constructions_match_the_map_objects(data):
    quasi = data.draw(quasi_spaces())
    cls, labels = quasi.cls, quasi.carrier.labels
    # a subset of the carrier in any order, and a label it lacks
    picked = data.draw(st.permutations(labels))[:data.draw(
        st.integers(0, len(labels)))]
    for sub in (picked, picked + ["w"]):
        assert (outcome(subspace_quasi, quasi, sub)
                == outcome(ref_subspace_quasi, quasi, sub))
    # the initial structure along maps into quasi-spaces over the class
    c = Carrier(data.draw(st.sampled_from(AXIOM_CARRIERS)))
    source = []
    for _ in range(data.draw(st.integers(0, 2))):
        qx = data.draw(quasi_spaces(cls))
        if len(c) and not len(qx.carrier):
            continue
        source.append((MapArrow(c, qx.carrier, {
            x: data.draw(st.sampled_from(qx.carrier.labels))
            for x in c.labels}), qx))
    assert initial_quasi(c, source, cls) == ref_initial_quasi(c, source, cls)
    # the quotient along a surjection onto a carrier in reverse label order
    n = data.draw(st.integers(min(1, len(labels)), len(labels)))
    target = Carrier([f"q{k}" for k in range(n)][::-1])
    images = list(target.labels) + [
        data.draw(st.sampled_from(target.labels))
        for _ in range(len(labels) - n)]
    f = MapArrow(quasi.carrier, target,
                 dict(zip(labels, data.draw(st.permutations(images)))))
    if not cls._discrete:
        assert outcome(quotient_quasi, quasi, f)[0] is PreconditionError
        return
    got, want = [], []
    for fn, caught in ((quotient_quasi, got), (ref_quotient_quasi, want)):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            caught.append(fn(quasi, f))
        caught.append([str(w.message) for w in seen])
    assert got == want


# -- closed forms over classes of discrete objects ----------------------------


def mid_unit_chain():
    """bot < mid < top with tensor min and unit mid: the unit law fails."""
    leq = [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    tensor = [[0, 0, 0], [0, 1, 1], [0, 1, 2]]
    return finite_table(["bot", "mid", "top"], leq, tensor, unit_index=1)


@pytest.mark.parametrize("qname", list(QUANTALES) + ["mid-unit"])
@pytest.mark.parametrize("monad", [identity_monad, finite_ultrafilter_monad])
def test_maps_out_of_a_discrete_space_are_a_product(qname, monad):
    """Out of a discrete domain, the maps taken with no search are those
    of the filter over every map, in order, with its errors; targets
    include squares with a diagonal entry below the unit, into whose
    points not every map is continuous."""
    q = {**QUANTALES, "mid-unit": mid_unit_chain}[qname]()
    mon = monad()
    rng = random.Random(f"discrete-domain/{qname}/{mon.name}")
    other = finite_ultrafilter_monad() if mon is IM else IM
    narrowed = False
    for n in range(4):
        dom = discrete_space(carrier("d", n), mon, q)
        assert _is_discrete(dom)
        targets = [discrete_space(carrier("t", 2), other, q)]
        for m in range(4):
            c = carrier("y", m)
            if q.integral:
                targets.append(random_space(q, c, rng, mon))
            square = [[random_value(q, rng) for _ in c] for _ in c]
            targets.append(Space.from_square(c, mon, q,
                                             VRel(c, c, q, square)))
        for target in targets:
            want = outcome(lambda: [
                image_tuple(f) for f in all_maps(dom.carrier, target.carrier)
                if is_continuous(f, dom, target)])
            assert outcome(_continuous_images, dom, target) == want
            if want[0] == "ok" and n:
                narrowed |= (len(want[1]) < len(target.carrier) ** n)
    assert narrowed


DISCRETE_TABLES = {"bool2": bool2, "chain3": lambda: chain(3),
                   "luk3": lambda: lukasiewicz_grid(3),
                   "mid-unit": mid_unit_chain}


def discrete_classes():
    """The compact-Hausdorff classes up to 1, 2 and 3 points over four
    tables, one of them unlawful, under both monads, and explicit classes
    of discrete objects with an empty one: one closed under products and
    pullbacks, one not."""
    out = []
    for make in DISCRETE_TABLES.values():
        q = make()
        for mon in (IM, finite_ultrafilter_monad()):
            out += [ProbeClass.compact_hausdorff_upto(n, q, mon)
                    for n in (1, 2, 3)]
            empty, point, two = (discrete_space(carrier(p, k), mon, q)
                                 for p, k in (("e", 0), ("o", 1), ("d", 2)))
            out += [ProbeClass.explicit([empty, point]),
                    ProbeClass.explicit([two, empty, point])]
    return out


DISCRETE_CLASSES = discrete_classes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_quasi_closed_forms_match_the_saturation_and_the_filters(data):
    """Over a class of discrete objects: the least structure over random
    seeds and the least structure are every map, as the saturation finds;
    validation, quasi-continuous maps, initial structures, quotients and
    exponentials equal the map-object versions, with and without full
    admissible sets."""
    cls = data.draw(st.sampled_from(DISCRETE_CLASSES))
    assert cls._discrete
    seeded = data.draw(quasi_spaces(cls))
    c = seeded.carrier
    full = indiscrete_quasi(c, cls)
    assert ref_saturate_admissible(c, cls, seeded.admissible) == list(
        full.admissible)
    assert discrete_quasi(c, cls) == full
    assert full.admissible == tuple(ref_saturate_admissible(
        c, cls, [()] * len(cls.objects)))
    for quasi in (seeded, full):
        assert validate_quasi(quasi) == ref_validate_quasi(quasi)
    # hom-sets and the initial structure, out of or along full and seeded
    # quasi-spaces on a second carrier
    other = data.draw(quasi_spaces(cls))
    d = other.carrier
    others = [indiscrete_quasi(d, cls), other]
    for qx in (seeded, full):
        for qy in others:
            assert (quasi_continuous_maps(qx, qy)
                    == ref_quasi_continuous_maps(qx, qy))
    maps = list(all_maps(c, d))
    if maps:
        source = [(data.draw(st.sampled_from(maps)), qy) for qy in others]
        for picked in ([], source[:1], source):
            assert (initial_quasi(c, picked, cls)
                    == ref_initial_quasi(c, picked, cls))
    # the quotient along a surjection onto a prefix of the carrier
    labels = c.labels
    if labels:
        target = Carrier(labels[:data.draw(st.integers(1, len(labels)))])
        f = MapArrow(c, target, {x: target.labels[k % len(target)]
                                 for k, x in enumerate(labels)})
        got, want = [], []
        for fn, caught in ((quotient_quasi, got), (ref_quotient_quasi, want)):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                caught.append(fn(seeded, f))
            caught.append([str(w.message) for w in seen])
        assert got == want
    # the exponential, where its function space stays small
    if len(c) <= 2 and len(d) <= 2 and max(
            len(obj.carrier) for obj in cls.objects) <= 2:
        for qy in others:
            assert outcome(exponential_quasi, seeded, qy) == outcome(
                ref_exponential_quasi, seeded, qy)


def test_a_target_over_other_table_instances_misses_the_caches():
    """A target equal to a cached one but over another instance of an
    equal table gets what a fresh class gives, not the cached answer over
    the class's table."""
    q1, q2 = diamond(), diamond()
    assert q1 is not q2 and q1.cache_key() == q2.cache_key()
    c = carrier("x", 2)
    cls = ProbeClass.compact_hausdorff_upto(2, q1, IM)
    own = discrete_space(c, IM, q1)
    assert cls.coreflect(own).quantale is q1
    cls.exponential_with(1, own)
    identity = MapArrow.identity(c)
    assert generation.is_c_continuous(identity, own, own, cls)
    assert len(generation.cmap_space(own, own, cls)[0].carrier) == 4
    other = discrete_space(c, IM, q2)
    assert other.cache_key() == own.cache_key()
    fresh = ProbeClass.compact_hausdorff_upto(2, q1, IM)
    want = (CarrierMismatchError, "spaces use different quantales")
    for call in (lambda k: k.coreflect(other),
                 lambda k: k.probes_into(other),
                 lambda k: generation.is_c_continuous(identity, other, other,
                                                      k),
                 lambda k: generation.cmap_space(other, own, k),
                 lambda k: generation.cmap_space(own, other, k)):
        assert outcome(call, fresh) == want
        assert outcome(call, cls) == want
    assert outcome(generation.is_c_generated, other, cls) == want
    assert outcome(exponential, cls.objects[1], other) == want
    assert outcome(cls.exponential_with, 1, other) == want
    assert cls.coreflect(own).quantale is q1


def test_classes_with_an_object_that_is_not_discrete_are_refused():
    """The least and the quotient structure need a class of discrete
    objects: over the rigid class of ``axiom_classes`` the saturation of
    the constants is not every map."""
    explicit, rigid = AXIOM_CLASSES[-2:]
    c = Carrier(["y", "x"])
    assert ref_saturate_admissible(c, rigid, [()]) == [
        frozenset({("y", "y"), ("x", "x")})]
    for cls, index in ((explicit, 1), (rigid, 0)):
        assert not cls._discrete
        quasi = random_quasi(cls, c, random.Random("refused"))
        want = (PreconditionError,
                f"class object #{index} is not compact Hausdorff")
        assert outcome(discrete_quasi, c, cls) == want
        assert outcome(quotient_quasi, quasi,
                       MapArrow.identity(c)) == want
    # a compact Hausdorff object that is not discrete needs a table that
    # breaks a law; the flag stands in for one here
    cls = ProbeClass.compact_hausdorff_upto(2, bool2(), IM)
    cls._discrete = False
    want = (PreconditionError,
            "the least quasi-structure needs discrete class objects")
    assert outcome(discrete_quasi, c, cls) == want
    assert outcome(quotient_quasi, indiscrete_quasi(c, cls),
                   MapArrow.identity(c)) == want
