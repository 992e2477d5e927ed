"""Differential tests of the payload constructions against the Value loops.

Initial and final structures (and so products, coreflections and the
reflection of a quasi-space), subspaces, coproducts, the compactness,
Hausdorff, separatedness and exponentiability witnesses and the
function-space entries of ``exponential`` run on kernel payloads.
The functions prefixed ``ref_`` below are the entrywise ``Value``
implementations they replaced, kept as the oracle: every answer must equal
theirs, with witnesses in the same order, and every error must have the same
type and message.  An order that is not a complete lattice has no kernel,
so on such a table every kernel operation raises one lattice error instead.
"""

import random
from fractions import Fraction

import pytest

from tvspaces import (
    CarrierMismatchError,
    PreconditionError,
    StructuralError,
    TvsError,
    bool2,
    chain,
    cost_max,
    cost_plus,
    finite_table,
    lukasiewicz_grid,
)
from tvspaces import quantale as quantale_module
from tvspaces.generation import ProbeClass
from tvspaces.quantale import generated_values
from tvspaces.monad import finite_ultrafilter_monad, identity_monad
from tvspaces.space import (
    Space,
    compactness_witness,
    continuous_maps,
    coproduct_many,
    discrete_space,
    exponential,
    exponentiability_witness,
    final_structure,
    hausdorff_witness,
    initial_structure,
    map_label,
    product,
    separatedness_witness,
    subspace,
)
from tvspaces.suite import non_integral_quantale
from tvspaces.vrel import Carrier, MapArrow, VRel, reflexive_transitive_closure

# -- the Value-level reference ------------------------------------------------


def ref_meet_all(q, values):
    out = q.top
    for v in values:
        q._check(v)
        out = q.meet(out, v)
    return out


def ref_from_square(carrier, monad, quantale, square):
    return Space(carrier, monad, quantale,
                 VRel.build(carrier, carrier, quantale, square.get))


def ref_subspace(space, labels):
    labels = list(labels)
    for x in labels:
        if x not in space.carrier:
            raise StructuralError(f"label {x!r} is not in the carrier")
    sub = Carrier(labels)
    incl = MapArrow(sub, space.carrier, {x: x for x in labels})
    structure = VRel.build(
        sub, sub, space.quantale,
        lambda x, y: space.structure.get(incl(x), incl(y)))
    return Space(sub, space.monad, space.quantale, structure), incl


def ref_initial_structure(carrier, source, monad, quantale):
    for f, y in source:
        if f.dom != carrier:
            raise CarrierMismatchError("source map domain mismatch")
        if f.cod != y.carrier:
            raise CarrierMismatchError("source map codomain mismatch")
        if y.monad is not monad or y.quantale is not quantale:
            raise CarrierMismatchError("source space monad/quantale mismatch")
    def entry(x1, x2):
        return ref_meet_all(quantale, (
            y.structure.get(f(x1), f(x2)) for f, y in source))

    return Space(carrier, monad, quantale,
                 VRel.build(carrier, carrier, quantale, entry))


def ref_product(x_space, y_space):
    labels = [f"({x},{y})" for x in x_space.carrier.labels
              for y in y_space.carrier.labels]
    carrier = Carrier(labels)
    table1, table2 = {}, {}
    for x in x_space.carrier.labels:
        for y in y_space.carrier.labels:
            table1[f"({x},{y})"] = x
            table2[f"({x},{y})"] = y
    p1 = MapArrow(carrier, x_space.carrier, table1)
    p2 = MapArrow(carrier, y_space.carrier, table2)
    space = ref_initial_structure(carrier, [(p1, x_space), (p2, y_space)],
                                  x_space.monad, x_space.quantale)
    return space, (p1, p2)


def ref_final_structure(carrier, sink, monad, quantale):
    for f, x in sink:
        if f.cod != carrier:
            raise CarrierMismatchError("sink map codomain mismatch")
        if f.dom != x.carrier:
            raise CarrierMismatchError("sink map domain mismatch")
        if x.monad is not monad or x.quantale is not quantale:
            raise CarrierMismatchError("sink space monad/quantale mismatch")
    bot = quantale.bottom
    rows = {x: {y: bot for y in carrier.labels} for x in carrier.labels}
    for f, x_space in sink:
        sq = x_space.structure
        for x1 in x_space.carrier.labels:
            for x2 in x_space.carrier.labels:
                tgt = rows[f(x1)]
                tgt[f(x2)] = quantale.join2(tgt[f(x2)], sq.get(x1, x2))
    joined = VRel(carrier, carrier, quantale,
                  [[rows[x][y] for y in carrier.labels]
                   for x in carrier.labels])
    closed = reflexive_transitive_closure(joined)
    return ref_from_square(carrier, monad, quantale, closed)


def ref_coproduct_many(spaces):
    monad, quantale = spaces[0].monad, spaces[0].quantale
    labels = [f"{i}:{x}" for i, s in enumerate(spaces)
              for x in s.carrier.labels]
    carrier = Carrier(labels)
    injections = [
        MapArrow(s.carrier, carrier, {x: f"{i}:{x}" for x in s.carrier.labels})
        for i, s in enumerate(spaces)]
    bot = quantale.bottom
    squares = [s.structure for s in spaces]

    def entry(p, r):
        i, x = p.split(":", 1)
        j, y = r.split(":", 1)
        if i != j:
            return bot
        return squares[int(i)].get(x, y)

    sq = VRel.build(carrier, carrier, quantale, entry)
    return ref_from_square(carrier, monad, quantale, sq), injections


def ref_compactness_witness(space):
    q = space.quantale
    a = space.structure
    for tx in space.carrier.labels:
        total = q.join(q.tensor(a.get(tx, x), a.get(tx, x))
                       for x in space.carrier.labels)
        if not q.leq(q.unit, total):
            return (space.monad.row_label(tx),)
    return None


def ref_hausdorff_witness(space):
    q = space.quantale
    a = space.structure
    bot, k = q.bottom, q.unit
    for x in space.carrier.labels:
        for y in space.carrier.labels:
            for tx in space.carrier.labels:
                value = q.tensor(a.get(tx, x), a.get(tx, y))
                if x != y and not q.eq(value, bot):
                    return (x, y, space.monad.row_label(tx))
                if x == y and not q.leq(value, k):
                    return (x, y, space.monad.row_label(tx))
    return None


def ref_point_order_leq(space, y1, y2):
    return space.quantale.leq(space.quantale.unit,
                              space.structure.get(y1, y2))


def ref_separatedness_witness(space):
    for y1 in space.carrier.labels:
        for y2 in space.carrier.labels:
            if y1 != y2 and ref_point_order_leq(space, y1, y2) \
                    and ref_point_order_leq(space, y2, y1):
                return (y1, y2)
    return None


def ref_exponentiability_witness(space):
    """The loop over ``TTX x X``, with the points of TX and TTX as labels.

    Under the principal identification the retraction sends ``U(x)`` to x,
    the multiplication ``U(U(x))`` to ``U(x)``, and the lifted structure has
    ``Ta(U(U(x)), U(y)) = a(x, y)``.
    """
    q = space.quantale
    a = space.structure
    if space.monad.name == "ultrafilter-finite":
        def wrap(x):
            return f"U({x})"
    else:
        def wrap(x):
            return x
    retract = {wrap(x): x for x in space.carrier.labels}
    mult = {wrap(tx): tx for tx in retract}
    values = generated_values(q, [v for row in a.entries for v in row])
    for big, m_big in mult.items():
        for x in space.carrier.labels:
            base = a.get(retract[m_big], x)
            pairs = [(a.get(retract[m_big], retract[tx]),
                      a.get(retract[tx], x)) for tx in retract]
            for u in values:
                for v in values:
                    rhs = q.meet(base, q.tensor(u, v))
                    lhs = q.join(q.tensor(q.meet(p, u), q.meet(s, v))
                                 for p, s in pairs)
                    if not q.leq(rhs, lhs):
                        return (big, x, u, v)
    return None


def ref_function_space_join(quantale, pairs):
    out = quantale.top
    for b, c in pairs:
        out = quantale.meet(out, quantale.heyting(b, c))
    return out


def ref_function_space(y_space, z_space, maps):
    """The function-space square on some maps, entry by entry."""
    q = y_space.quantale
    carrier = Carrier(map_label(f) for f in maps)
    by_label = {map_label(f): f for f in maps}
    b, c = y_space.structure, z_space.structure
    points = y_space.carrier.labels

    def entry(gl, hl):
        g, h = by_label[gl], by_label[hl]
        return ref_function_space_join(
            q, ((b.get(y1, y2), c.get(g(y1), h(y2)))
                for y1 in points for y2 in points))

    return VRel.build(carrier, carrier, q, entry), by_label


def ref_exponential(y_space, z_space):
    monad, q = y_space.monad, y_space.quantale
    if y_space.monad is not z_space.monad:
        raise CarrierMismatchError("spaces use different monads")
    if y_space.quantale is not z_space.quantale:
        raise CarrierMismatchError("spaces use different quantales")
    witness = exponentiability_witness(y_space)
    if witness is not None:
        raise PreconditionError(
            f"base space is not exponentiable, witness {witness}")
    sq, by_label = ref_function_space(
        y_space, z_space, continuous_maps(y_space, z_space))
    return ref_from_square(sq.dom, monad, q, sq), by_label


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except TvsError as exc:
        return (type(exc), str(exc))


def assert_round_trips(got):
    """A space's structure is ``VRel`` of its own entries, with the same
    hash and tokens, and its tokens parse back to its entries."""
    if got[0] == "ok":
        space = got[1][0] if isinstance(got[1], tuple) else got[1]
        r = space.structure
        again = VRel(r.dom, r.cod, r.quantale, r.entries)
        assert again == r and hash(again) == hash(r)
        assert again.tokens() == r.tokens()
        parse = r.quantale.parse_value
        assert tuple(tuple(map(parse, row))
                     for row in r.tokens()) == r.entries


# -- quantales and seeded inputs -----------------------------------------------


def diamond():
    """0 < a, b < 1 with meet as tensor: a lattice that is not a chain."""
    meet = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]
    leq = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    return finite_table(["0", "a", "b", "1"], leq, meet, unit_index=3)


def nilpotent_diamond():
    """The diamond with a tensor that sends a, b and their products to 0.

    Not a quantale (the tensor does not distribute over a v b = 1), so it
    tells ``a (x) a`` from ``a`` in the compactness join."""
    nil = [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 2], [0, 1, 2, 3]]
    leq = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    return finite_table(["0", "a", "b", "1"], leq, nil, unit_index=3)


def no_join():
    """z < x, y < u, v < t: x and y have two least upper bounds, u and v,
    and u and v two greatest lower bounds; the tensor is idempotent."""
    labels = ["z", "x", "y", "u", "v", "t"]
    above = {"z": "zxyuvt", "x": "xuvt", "y": "yuvt", "u": "ut", "v": "vt",
             "t": "t"}
    leq = [[int(b in above[a]) for b in labels] for a in labels]
    tensor = [[b if a == 5 else a if b in (a, 5) else 0 for b in range(6)]
              for a in range(6)]
    return finite_table(labels, leq, tensor, unit_index=5)


def no_top():
    """b < x, y with x and y incomparable: no top element, no join of x, y."""
    leq = [[1, 1, 1], [0, 1, 0], [0, 0, 1]]
    tensor = [[0, 0, 0], [0, 1, 0], [0, 0, 2]]
    return finite_table(["b", "x", "y"], leq, tensor, unit_index=1)


def no_bottom():
    """x, y < t with x and y incomparable: no bottom element, no meet."""
    leq = [[1, 0, 1], [0, 1, 1], [0, 0, 1]]
    tensor = [[0, 2, 0], [2, 1, 1], [0, 1, 2]]
    return finite_table(["x", "y", "t"], leq, tensor, unit_index=2)


def pentagon():
    """N5: 0 < a < c < 1 and 0 < b < 1, with meet as tensor.

    Not distributive: ``c /\\ (a \\/ b) = c``, but
    ``(c /\\ a) \\/ (c /\\ b) = a``."""
    leq = [[1, 1, 1, 1, 1], [0, 1, 0, 1, 1], [0, 0, 1, 0, 1],
           [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]]
    meet = [[0, 0, 0, 0, 0], [0, 1, 0, 1, 1], [0, 0, 2, 0, 2],
            [0, 1, 0, 3, 3], [0, 1, 2, 3, 4]]
    return finite_table(["0", "a", "b", "c", "1"], leq, meet, unit_index=4)


def m3():
    """M3: three incomparable atoms a, b, c below 1, with meet as tensor.

    Not distributive: ``a /\\ (b \\/ c) = a``, but
    ``(a /\\ b) \\/ (a /\\ c) = 0``."""
    leq = [[1, 1, 1, 1, 1], [0, 1, 0, 0, 1], [0, 0, 1, 0, 1],
           [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]]
    meet = [[0, 0, 0, 0, 0], [0, 1, 0, 0, 1], [0, 0, 2, 0, 2],
            [0, 0, 0, 3, 3], [0, 1, 2, 3, 4]]
    return finite_table(["0", "a", "b", "c", "1"], leq, meet, unit_index=4)


# the five shipped quantales, lattices that are not chains (the last two
# not distributive), three orders that are not lattices and a chain whose
# unit is not its top
QUANTALES = {
    "bool2": bool2,
    "chain4": lambda: chain(4),
    "luk4": lambda: lukasiewicz_grid(4),
    "cost-plus": cost_plus,
    "cost-max": cost_max,
    "diamond": diamond,
    "nilpotent-diamond": nilpotent_diamond,
    "pentagon": pentagon,
    "m3": m3,
    "no-join": no_join,
    "no-top": no_top,
    "no-bottom": no_bottom,
    "non-integral": non_integral_quantale,
}
# the error every kernel operation raises on an order that is not a lattice
LATTICE_ERRORS = {
    "no-join": "join undefined in quantale finite-table(z,x,y,u,v,t): the "
               "order is not a complete lattice (run validate_quantale)",
    "no-top": "join undefined in quantale finite-table(b,x,y): the order is "
              "not a complete lattice (run validate_quantale)",
    "no-bottom": "meet undefined in quantale finite-table(x,y,t): the order "
                 "is not a complete lattice (run validate_quantale)",
}
LATTICES = [qname for qname in QUANTALES if qname not in LATTICE_ERRORS]
MONADS = (identity_monad, finite_ultrafilter_monad)
SIZES = (0, 1, 2, 5, 12)
# denominators 3, 7 and 12, so the common scale is their lcm (84)
COSTS = [Fraction(1, 3), Fraction(2, 7), Fraction(5, 12), Fraction(2),
         Fraction(0), Fraction(11, 7), Fraction(7, 12)]


def random_value(q, rng):
    """Index 0 (the bottom of every table that has one) or inf, a third of
    the time, so that bottom entries and separated points occur."""
    if q.is_finite:
        values = q.carrier_values()
        return values[0] if rng.random() < 0.35 else rng.choice(values)
    if rng.random() < 0.35:
        return q.bottom
    return q.value(rng.choice(COSTS))


def carrier(prefix, n):
    return Carrier([f"{prefix}{i}" for i in range(n)])


def random_space(q, mon, c, rng, closed=False):
    """A seeded structure on ``c``, closed when the closure exists."""
    sq = VRel(c, c, q, [[random_value(q, rng) for _ in c] for _ in c])
    if closed:
        try:
            sq = reflexive_transitive_closure(sq)
        except TvsError:
            pass
    return Space.from_square(c, mon, q, sq)


def random_map(dom, cod, rng):
    return MapArrow(dom, cod, {x: rng.choice(cod.labels) for x in dom.labels})


def cases(sizes=SIZES, qnames=LATTICES):
    for qname in qnames:
        for monad in MONADS:
            for n in sizes:
                yield pytest.param(qname, monad, n,
                                   id=f"{qname}-{monad().name}-{n}")


def seeded(qname, monad, n, what):
    q, mon = QUANTALES[qname](), monad()
    return q, mon, random.Random(f"{what}/{qname}/{mon.name}/{n}")


# -- differential tests ---------------------------------------------------------


@pytest.mark.parametrize("qname,monad,n", cases(qnames=QUANTALES))
def test_square_forms_and_subspaces_match_reference(qname, monad, n):
    q, mon, rng = seeded(qname, monad, n, "square")
    c = carrier("p", n)
    for closed in (False, True):
        sp = random_space(q, mon, c, rng, closed)
        assert (Space.from_square(c, mon, q, sp.structure)
                == ref_from_square(c, mon, q, sp.structure) == sp)
        picks = [[], list(c.labels), list(reversed(c.labels)),
                 rng.sample(c.labels, n // 2)]
        for labels in picks:
            assert subspace(sp, labels) == ref_subspace(sp, labels)
        for labels in (["nope"], ["p0", "p0"]):
            assert outcome(subspace, sp, labels) == outcome(
                ref_subspace, sp, labels)


@pytest.mark.parametrize("qname,monad,n", cases())
def test_initial_structures_match_reference(qname, monad, n):
    q, mon, rng = seeded(qname, monad, n, "initial")
    c = carrier("x", n)
    targets = [random_space(q, mon, carrier(f"y{k}_", m), rng, closed)
               for k, (m, closed) in enumerate(((3, True), (4, False),
                                                (1, True)))]
    if n:
        # one target repeated many times, as in a space of continuous maps
        repeated = [(random_map(c, targets[0].carrier, rng), targets[0])
                    for _ in range(12)]
        mixed = [(random_map(c, t.carrier, rng), t)
                 for t in targets + targets]
    else:
        repeated = [(MapArrow(c, targets[0].carrier, {}), targets[0])]
        mixed = [(MapArrow(c, t.carrier, {}), t) for t in targets]
    for source in ([], repeated[:1], repeated, mixed):
        assert outcome(initial_structure, c, source, mon, q) == outcome(
            ref_initial_structure, c, source, mon, q)
    if qname in ("bool2", "cost-plus") and n:
        assert initial_structure(c, [], mon, q).structure.entries == tuple(
            (q.top,) * n for _ in range(n))

    x_space = random_space(q, mon, carrier("a", min(n, 5)), rng, True)
    got = outcome(product, x_space, targets[1])
    assert got == outcome(ref_product, x_space, targets[1])
    assert_round_trips(got)


@pytest.mark.parametrize("qname,monad,n", cases())
def test_final_structures_match_reference(qname, monad, n):
    q, mon, rng = seeded(qname, monad, n, "final")
    c = carrier("x", n)
    objects = [random_space(q, mon, carrier(f"o{k}_", m), rng, closed)
               for k, (m, closed) in enumerate(((2, True), (3, False),
                                                (1, True), (0, True)))]
    if n:
        # one object repeated many times, as the probes of a coreflection
        repeated = [(random_map(objects[0].carrier, c, rng), objects[0])
                    for _ in range(30)]
        mixed = [(random_map(o.carrier, c, rng), o) for o in objects * 3]
    else:
        repeated = [(MapArrow(objects[3].carrier, c, {}), objects[3])] * 3
        mixed = repeated
    for sink in ([], repeated, mixed):
        got = outcome(final_structure, c, sink, mon, q)
        assert got == outcome(ref_final_structure, c, sink, mon, q)
        assert_round_trips(got)
    if qname in ("bool2", "chain4", "cost-plus"):
        assert final_structure(c, [], mon, q) == discrete_space(c, mon, q)


def test_long_paths_in_a_final_structure_stay_finite():
    """A 12-step path of 2s closes to 24, far above any single entry."""
    q, mon = cost_plus(), identity_monad()
    c, edge = carrier("p", 13), carrier("e", 2)
    step = Space.from_square(edge, mon, q, VRel(edge, edge, q, [
        [q.value(0), q.value(2)], [q.bottom, q.value(0)]]))
    sink = [(MapArrow(edge, c, {"e0": f"p{i}", "e1": f"p{i + 1}"}), step)
            for i in range(12)]
    got = final_structure(c, sink, mon, q)
    assert got == ref_final_structure(c, sink, mon, q)
    assert got.structure.entries[0][12] == q.value(24)
    assert got.structure.entries[12][0] == q.bottom


@pytest.mark.parametrize("qname,monad,n", cases(qnames=QUANTALES))
def test_coproducts_match_reference(qname, monad, n):
    q, mon, rng = seeded(qname, monad, n, "coproduct")
    family = [random_space(q, mon, carrier("p", m), rng, closed)
              for m, closed in ((n, True), (0, True), (2, False), (n, False))]
    for spaces in (family[:1], family[:2], family):
        assert outcome(coproduct_many, spaces) == outcome(
            ref_coproduct_many, spaces)


@pytest.mark.parametrize("qname,monad,n", cases())
def test_witnesses_match_reference(qname, monad, n):
    q, mon, rng = seeded(qname, monad, n, "witness")
    c = carrier("p", n)
    spaces = [random_space(q, mon, c, rng, closed)
              for closed in (False, True, True)]
    got = outcome(discrete_space, c, mon, q)
    if got[0] == "ok":
        discrete = got[1]
        spaces.append(discrete)
        if n:
            # one extra entry makes a discrete space fail late
            rows = [list(r) for r in discrete.structure.entries]
            rows[n - 1][rng.randrange(n)] = random_value(q, rng)
            spaces.append(Space.from_square(c, mon, q, VRel(c, c, q, rows)))
    for sp in spaces:
        for fn, ref in ((compactness_witness, ref_compactness_witness),
                        (hausdorff_witness, ref_hausdorff_witness),
                        (separatedness_witness, ref_separatedness_witness)):
            assert outcome(fn, sp) == outcome(ref, sp)


@pytest.mark.parametrize("qname,monad,n", cases(sizes=(0, 1, 2, 3)))
def test_exponentiability_witnesses_match_reference(qname, monad, n):
    q, mon, rng = seeded(qname, monad, n, "exponentiability")
    c = carrier("p", n)
    for closed in (False, True):
        sp = random_space(q, mon, c, rng, closed)
        assert outcome(exponentiability_witness, sp) == outcome(
            ref_exponentiability_witness, sp)


def exponentiability_spaces(q, mon, c, rng):
    """An open and a closed seeded space, and the closed one with one entry
    of its last row changed, so that a failure can come late."""
    spaces = [random_space(q, mon, c, rng, closed) for closed in (False, True)]
    if len(c):
        rows = [list(r) for r in spaces[1].structure.entries]
        rows[-1][rng.randrange(len(c))] = random_value(q, rng)
        spaces.append(Space.from_square(c, mon, q, VRel(c, c, q, rows)))
    return spaces


@pytest.mark.parametrize("qname,monad,n", [
    pytest.param(qname, monad, n, id=f"{qname}-{monad().name}-{n}")
    for qname in ("bool2", "chain4", "luk4") for monad in MONADS
    for n in (8, 12)])
def test_exponentiability_witnesses_match_reference_on_larger_spaces(
        qname, monad, n):
    q, mon, rng = seeded(qname, monad, n, "exponentiability-large")
    for sp in exponentiability_spaces(q, mon, carrier("p", n), rng):
        assert exponentiability_witness(sp) == ref_exponentiability_witness(
            sp)


# entries over one denominator, or over the three of COSTS together
COST_POOLS = {
    "integers": [Fraction(k) for k in range(4)],
    "thirds": [Fraction(k, 3) for k in range(5)],
    "sevenths": [Fraction(k, 7) for k in range(9)],
    "twelfths": [Fraction(k, 12) for k in range(14)],
    "mixed": [Fraction(0)] + COSTS[:3],
}


@pytest.mark.parametrize("qname,monad,pool", [
    pytest.param(qname, monad, pool, id=f"{qname}-{monad().name}-{pool}")
    for qname in ("cost-plus", "cost-max") for monad in MONADS
    for pool in COST_POOLS])
def test_cost_exponentiability_witnesses_match_reference(qname, monad, pool):
    """Open and closed spaces on 2-4 points, with inf a third of the time."""
    q, mon = QUANTALES[qname](), monad()
    rng = random.Random(f"exponentiability-cost/{qname}/{mon.name}/{pool}")
    for n in (2, 3, 4):
        c = carrier("p", n)
        for _ in range(3):
            sq = VRel(c, c, q, [[q.bottom if rng.random() < 0.3
                                 else q.value(rng.choice(COST_POOLS[pool]))
                                 for _ in c] for _ in c])
            # closed spaces are often exponentiable: scans that run through
            closed = [] if n == 4 else [reflexive_transitive_closure(sq)]
            for sq in [sq] + closed:
                sp = Space.from_square(c, mon, q, sq)
                assert exponentiability_witness(sp) == \
                    ref_exponentiability_witness(sp)


def test_cost_exponentiability_witness_on_a_three_point_metric():
    """x-y 1, x-z 3, y-z inf fails at u = v = 1, with a value set that needs
    one scale for the entries and the generated values."""
    q, mon = cost_plus(), identity_monad()
    c, v = carrier("p", 3), q.value
    sp = Space.from_square(c, mon, q, VRel(c, c, q, [
        [v(0), v(1), v(3)], [v(1), v(0), q.bottom], [v(3), q.bottom, v(0)]]))
    assert exponentiability_witness(sp) == ("p0", "p2", v(1), v(1))
    assert exponentiability_witness(sp) == ref_exponentiability_witness(sp)


@pytest.mark.parametrize("qname,monad", [
    pytest.param(qname, monad, id=f"{qname}-{monad().name}")
    for qname in ("diamond", "nilpotent-diamond", "pentagon", "m3")
    for monad in MONADS])
def test_exponentiability_on_tables_without_a_max_join(qname, monad):
    for n in (4, 6):
        q, mon, rng = seeded(qname, monad, n, "exponentiability-tables")
        for sp in exponentiability_spaces(q, mon, carrier("p", n), rng):
            assert outcome(exponentiability_witness, sp) == outcome(
                ref_exponentiability_witness, sp)


@pytest.mark.parametrize("qname,monad", [
    pytest.param(qname, monad, id=f"{qname}-{monad().name}")
    for qname in LATTICE_ERRORS for monad in MONADS])
def test_constructions_refuse_an_order_that_is_not_a_lattice(qname, monad):
    """Each construction and witness that runs the kernel raises the
    lattice error on the seeded spaces, on any carrier and with or without
    maps, whether or not it would read an undefined entry."""
    q, mon, rng = seeded(qname, monad, 3, "not-a-lattice")
    want = (StructuralError, LATTICE_ERRORS[qname])
    y = random_space(q, mon, carrier("y", 2), rng)
    for n in (0, 1, 3):
        c = carrier("p", n)
        sp = random_space(q, mon, c, rng)
        into_y = [(random_map(c, y.carrier, rng), y)]
        out_of_y = [(random_map(y.carrier, c, rng), y)] if n else []
        calls = [(initial_structure, c, [], mon, q),
                 (initial_structure, c, into_y, mon, q),
                 (product, sp, y),
                 (final_structure, c, [], mon, q),
                 (final_structure, c, out_of_y, mon, q),
                 (compactness_witness, sp),
                 (hausdorff_witness, sp),
                 (separatedness_witness, sp),
                 (exponentiability_witness, sp),
                 (exponential, y, sp)]
        for fn, *args in calls:
            assert outcome(fn, *args) == want, fn.__name__


@pytest.mark.parametrize("block", [1, 50, 75])
def test_exponentiability_blocks_keep_the_scan_order(monkeypatch, block):
    """Composed in blocks of one, two or three rows of M (the composites
    here are 20 to 25 entries wide), the first witness is the same."""
    monkeypatch.setattr(quantale_module, "_EXP_BLOCK", block)
    for qname in ("luk4", "chain4"):
        q, mon, rng = seeded(qname, identity_monad, 5, "exponentiability")
        for sp in exponentiability_spaces(q, mon, carrier("p", 5), rng):
            assert exponentiability_witness(sp) == \
                ref_exponentiability_witness(sp)
    q, mon = cost_plus(), identity_monad()
    rng = random.Random("exponentiability-blocks")
    c = carrier("p", 4)
    for _ in range(4):
        sp = Space.from_square(c, mon, q, VRel(c, c, q, [
            [q.value(rng.choice(COST_POOLS["thirds"])) for _ in c]
            for _ in c]))
        assert exponentiability_witness(sp) == ref_exponentiability_witness(
            sp)


@pytest.mark.parametrize("qname,n", [
    pytest.param(qname, n, id=f"{qname}-{n}")
    for qname in LATTICES for n in SIZES])
def test_function_space_entries_match_reference(qname, n):
    """The entries on seeded maps, continuous or not, Y up to 3 points."""
    q, mon, rng = seeded(qname, identity_monad, n, "function-space")
    y_space = random_space(q, mon, carrier("y", min(n, 3)), rng, True)
    z_space = random_space(q, mon, carrier("z", n), rng)
    if n or not len(y_space.carrier):
        maps = [random_map(y_space.carrier, z_space.carrier, rng)
                for _ in range(6)]
    else:
        maps = []
    maps = list({map_label(f): f for f in maps}.values())

    def payload_entries():
        kernel, (b, c) = q.encode((y_space.structure, z_space.structure))
        images = [z_space.carrier.indices(f.table.values()) for f in maps]
        return [tuple(r) for r in kernel.decode(
            kernel.function_space(b, c, images))]

    want = outcome(ref_function_space, y_space, z_space, maps)
    if want[0] == "ok":
        want = ("ok", list(want[1][0].rows))
    assert outcome(payload_entries) == want


@pytest.mark.parametrize("qname,monad,n", cases(sizes=(0, 1, 2)))
def test_exponentials_match_reference(qname, monad, n):
    q, mon, rng = seeded(qname, monad, n, "exponential")
    for closed in (True, False):
        y_space = random_space(q, mon, carrier("y", n), rng, closed)
        z_space = random_space(q, mon, carrier("z", 2), rng, True)
        got = outcome(exponential, y_space, z_space)
        assert got == outcome(ref_exponential, y_space, z_space)
        assert_round_trips(got)


@pytest.mark.parametrize("qname", ["bool2", "chain4", "luk4", "cost-plus",
                                   "cost-max", "diamond"])
def test_coreflections_match_reference(qname):
    """Coreflection is the final structure over every probe."""
    q, mon = QUANTALES[qname](), identity_monad()
    rng = random.Random(qname)
    cls = ProbeClass.explicit([
        random_space(q, mon, carrier("o", 2), rng, True),
        discrete_space(carrier("d", 1), mon, q)])
    for n in (1, 3, 4):
        x_space = random_space(q, mon, carrier("x", n), rng, True)
        probes = cls.probes_into(x_space)
        assert cls.coreflect(x_space) == ref_final_structure(
            x_space.carrier, probes, mon, q)


def test_mismatches_match_reference():
    b, ch = bool2(), chain(3)
    ident, ultra = identity_monad(), finite_ultrafilter_monad()
    c, other = carrier("p", 2), carrier("q", 2)
    sp = discrete_space(c, ident, b)
    ident_map = MapArrow.identity(c)
    wrong_dom = MapArrow.identity(other)
    for args in ((c, [(wrong_dom, sp)], ident, b),
                 (c, [(ident_map, discrete_space(other, ident, b))], ident,
                  b),
                 (c, [(ident_map, sp)], ultra, b),
                 (c, [(ident_map, sp)], ident, ch)):
        for fn, ref in ((initial_structure, ref_initial_structure),
                        (final_structure, ref_final_structure)):
            got = outcome(fn, *args)
            assert got[0] is CarrierMismatchError
            assert got == outcome(ref, *args)


def test_from_square_refuses_a_square_on_other_labels():
    q, mon = bool2(), identity_monad()
    ab, abc = Carrier(["a", "b"]), Carrier(["a", "b", "c"])
    larger = VRel(abc, abc, q, [[q.top, q.bottom, q.bottom],
                                [q.bottom, q.top, q.bottom],
                                [q.top, q.top, q.top]])
    reordered = VRel(Carrier(["b", "a"]), Carrier(["b", "a"]), q,
                     [[q.top, q.bottom], [q.top, q.top]])
    # the Value loop read the a,b block and re-indexed by label
    assert ref_from_square(ab, mon, q, larger).structure.entries == (
        (q.top, q.bottom), (q.bottom, q.top))
    assert ref_from_square(ab, mon, q, reordered).structure.entries == (
        (q.top, q.top), (q.bottom, q.top))
    for square, shape in ((larger, "['a', 'b', 'c'] x ['a', 'b', 'c']"),
                          (reordered, "['b', 'a'] x ['b', 'a']")):
        with pytest.raises(StructuralError) as exc:
            Space.from_square(ab, mon, q, square)
        assert str(exc.value) == (f"square form on {shape} does not match "
                                  "the carrier ['a', 'b']")
