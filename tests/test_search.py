"""Differential tests of the searches against generate-and-test.

``all_valid_spaces`` and the continuous-map search behind
``continuous_maps`` and ``ProbeClass.probes_into`` enumerate only the
candidates that survive partial checks.  The functions prefixed ``ref_``
below are the loops they replaced, kept as the oracle: each builds every
candidate and tests it whole.  The searches must give equal objects in
equal order, and raise the same errors under the same conditions.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvspaces import (
    INF,
    BudgetExceededError,
    CarrierMismatchError,
    TvsError,
    UnsupportedOperationError,
    bool2,
    chain,
    cost_max,
    cost_plus,
    finite_table,
    lukasiewicz_grid,
)
from tvspaces.enumeration import all_valid_spaces, standard_carrier
from tvspaces.generation import DEFAULT_MAP_BUDGET, ProbeClass
from tvspaces.monad import finite_ultrafilter_monad, identity_monad
from tvspaces.space import (
    Space,
    all_maps,
    continuous_maps,
    is_continuous,
)
from tvspaces.vrel import (
    Carrier,
    MapArrow,
    VRel,
    reflexive_transitive_closure,
)

# -- the generate-and-test reference ------------------------------------------


def ref_square_is_lax_algebra(quantale, labels, cell):
    """Validity of a square matrix as a reflexive transitive relation."""
    k = quantale.unit
    for x in labels:
        if not quantale.leq(k, cell[x, x]):
            return False
    for x in labels:
        for y in labels:
            for z in labels:
                if not quantale.leq(quantale.tensor(cell[x, y], cell[y, z]),
                                    cell[x, z]):
                    return False
    return True


def ref_all_valid_spaces(quantale, monad, carrier):
    if not quantale.is_finite:
        raise UnsupportedOperationError(
            "cannot enumerate structures over an infinite quantale")
    labels = carrier.labels
    values = quantale.carrier_values()
    diag_choices = [v for v in values if quantale.leq(quantale.unit, v)]
    off_cells = [(x, y) for x in labels for y in labels if x != y]
    diag_cells = [(x, x) for x in labels]
    for diag in itertools.product(diag_choices, repeat=len(diag_cells)):
        for off in itertools.product(values, repeat=len(off_cells)):
            cell = dict(zip(diag_cells, diag))
            cell.update(zip(off_cells, off))
            if not ref_square_is_lax_algebra(quantale, labels, cell):
                continue
            sq = VRel(carrier, carrier, quantale,
                      [[cell[x, y] for y in labels] for x in labels])
            yield Space.from_square(carrier, monad, quantale, sq)


def ref_continuous_maps(x_space, y_space):
    return [f for f in all_maps(x_space.carrier, y_space.carrier)
            if is_continuous(f, x_space, y_space)]


def ref_probes_into(probe_class, space, budget=DEFAULT_MAP_BUDGET):
    n = len(space.carrier)
    total = sum(n ** len(obj.carrier) for obj in probe_class.objects)
    if total > budget:
        raise BudgetExceededError(
            f"probe enumeration needs {total} candidate maps, "
            f"budget is {budget}")
    return tuple((f, obj) for obj in probe_class.objects
                 for f in all_maps(obj.carrier, space.carrier)
                 if is_continuous(f, obj, space))


def assert_public(f):
    """A map the library built equals the checked map on its table."""
    g = MapArrow(f.dom, f.cod, f.table)
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)


def outcome(fn, *args):
    """The result of a call, or the type and message of its error."""
    try:
        return fn(*args)
    except TvsError as exc:
        return (type(exc), str(exc))


# -- structures ---------------------------------------------------------------

MONADS = (identity_monad, finite_ultrafilter_monad)


def mid_unit_chain():
    """bot < mid < top with tensor min and unit mid, which is not top."""
    leq = [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    tensor = [[0, 0, 0], [0, 1, 1], [0, 1, 2]]
    return finite_table(["bot", "mid", "top"], leq, tensor, unit_index=1)


ENUMERATED = {
    "bool2": bool2,
    "chain4": lambda: chain(4),
    "luk4": lambda: lukasiewicz_grid(4),
    "mid-unit": mid_unit_chain,
}


def structure_cases():
    for qname in ENUMERATED:
        for monad in MONADS:
            for n in (0, 1, 2, 3):
                yield pytest.param(qname, monad, n,
                                   id=f"{qname}-{monad().name}-{n}")
    yield pytest.param("bool2", identity_monad, 4, id="bool2-identity-4")


@pytest.mark.parametrize("qname,monad,n", structure_cases())
def test_structures_match_generate_and_test(qname, monad, n):
    q, mon = ENUMERATED[qname](), monad()
    carrier = standard_carrier(n)
    found = list(all_valid_spaces(q, mon, carrier))
    assert found == list(ref_all_valid_spaces(q, mon, carrier))
    for sp in found:
        r = sp.structure
        again = VRel(carrier, carrier, q, r.entries)
        assert again == r and hash(again) == hash(r)
        assert again.tokens() == r.tokens()
        parse = r.quantale.parse_value
        assert tuple(tuple(map(parse, row)) for row in r.tokens()) == r.entries


def test_structure_counts():
    q, mon = bool2(), identity_monad()
    assert len(list(all_valid_spaces(q, mon, standard_carrier(4)))) == 355
    mid = mid_unit_chain()
    assert [len(list(all_valid_spaces(mid, mon, standard_carrier(n))))
            for n in range(4)] == [1, 2, 33, 1385]


def test_enumeration_refusals_are_lazy():
    search = all_valid_spaces(cost_plus(), identity_monad(),
                              standard_carrier(2))    # nothing raised yet
    with pytest.raises(UnsupportedOperationError) as exc:
        next(search)
    assert str(exc.value) == (
        "cannot enumerate structures over an infinite quantale")


def test_enumeration_is_lazy():
    search = all_valid_spaces(chain(4), identity_monad(), standard_carrier(3))
    first = next(search)
    reference = next(ref_all_valid_spaces(chain(4), identity_monad(),
                                          standard_carrier(3)))
    assert first == reference


# -- maps and probes ----------------------------------------------------------

QUANTALES = {
    "bool2": bool2,
    "chain4": lambda: chain(4),
    "luk4": lambda: lukasiewicz_grid(4),
    "cost-plus": cost_plus,
    "cost-max": cost_max,
}
# denominators 3, 7 and 12, so the common scale is their lcm (84)
COSTS = [Fraction(1, 3), Fraction(1, 7), Fraction(5, 12), Fraction(2),
         Fraction(7, 4), Fraction(0), Fraction(11, 7)]
SIZE_PAIRS = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 5), (5, 1), (2, 4),
              (3, 3), (4, 2), (4, 5), (5, 4), (5, 5)]


def random_value(q, rng, bottom):
    if rng.random() < bottom:
        return q.bottom
    if q.is_finite:
        return rng.choice(q.carrier_values())
    return q.value(rng.choice(COSTS))


def seeded_space(q, monad, prefix, n, rng, bottom):
    """The closure of a seeded matrix: sparse for a high ``bottom``."""
    c = Carrier([f"{prefix}{i}" for i in range(n)])
    raw = VRel(c, c, q, [[random_value(q, rng, bottom) for _ in range(n)]
                         for _ in range(n)])
    return Space.from_square(c, monad, q, reflexive_transitive_closure(raw))


def map_cases():
    for qname in QUANTALES:
        for monad in MONADS:
            yield pytest.param(qname, monad, id=f"{qname}-{monad().name}")


@pytest.mark.parametrize("qname,monad", map_cases())
def test_maps_match_generate_and_test(qname, monad):
    q, mon = QUANTALES[qname](), monad()
    rng = random.Random(f"maps/{qname}/{mon.name}")
    for n, m in SIZE_PAIRS:
        for bottom in (0.3, 0.8):
            x = seeded_space(q, mon, "x", n, rng, bottom)
            y = seeded_space(q, mon, "y", m, rng, 1.1 - bottom)
            found = continuous_maps(x, y)
            assert found == ref_continuous_maps(x, y)
            for f in found + list(all_maps(x.carrier, y.carrier)):
                assert_public(f)


def test_maps_with_infinite_and_mixed_denominator_entries():
    q, mon = cost_plus(), identity_monad()
    c = Carrier(["p", "q", "r"])
    x = Space.from_square(c, mon, q, VRel(c, c, q, [
        [q.value(0), q.value(Fraction(1, 3)), q.bottom],
        [q.value(INF), q.value(0), q.value(Fraction(5, 12))],
        [q.bottom, q.value(Fraction(1, 7)), q.value(0)]]))
    y = Space.from_square(c, mon, q, VRel(c, c, q, [
        [q.value(0), q.value(Fraction(2, 7)), q.value(Fraction(1, 12))],
        [q.value(Fraction(1, 3)), q.value(0), q.bottom],
        [q.value(Fraction(5, 12)), q.value(Fraction(1, 7)), q.value(0)]]))
    for a, b in ((x, y), (y, x), (x, x), (y, y)):
        assert continuous_maps(a, b) == ref_continuous_maps(a, b)
    assert continuous_maps(x, x)        # the identity at least


@pytest.mark.parametrize("qname,monad", map_cases())
def test_probes_match_generate_and_test(qname, monad):
    q, mon = QUANTALES[qname](), monad()
    rng = random.Random(f"probes/{qname}/{mon.name}")
    objects = [seeded_space(q, mon, "o", n, rng, 0.5) for n in (0, 1, 2, 3)]
    objects.append(objects[2])          # a repeated object is deduplicated
    classes = [ProbeClass.explicit(objects)]
    if q.is_finite:
        classes.append(ProbeClass.compact_hausdorff_upto(2, q, mon))
    for cls in classes:
        for n in (0, 1, 3, 5):
            target = seeded_space(q, mon, "t", n, rng, 0.6)
            probes = cls.probes_into(target)
            assert probes == ref_probes_into(cls, target)
            for f, _ in probes:
                assert_public(f)


def small_matrices():
    """A closed square over bool2, chain(3) or cost-plus, up to 4 points."""
    quantales = st.sampled_from([bool2(), chain(3), cost_plus()])

    def values(q):
        if q.is_finite:
            return st.sampled_from(q.carrier_values())
        return st.one_of(
            st.just(q.bottom),
            st.builds(lambda k, d: q.value(Fraction(k, d)),
                      st.integers(0, 6), st.sampled_from([1, 3, 7, 12])))

    def square(q):
        return st.integers(0, 4).flatmap(lambda n: st.lists(
            st.lists(values(q), min_size=n, max_size=n),
            min_size=n, max_size=n))

    return quantales.flatmap(lambda q: st.tuples(st.just(q), square(q),
                                                 square(q)))


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_maps_match_on_small_closed_matrices(case):
    q, rows_x, rows_y = case
    mon = identity_monad()
    spaces = []
    for prefix, rows in (("x", rows_x), ("y", rows_y)):
        c = Carrier([f"{prefix}{i}" for i in range(len(rows))])
        closed = reflexive_transitive_closure(VRel(c, c, q, rows))
        spaces.append(Space.from_square(c, mon, q, closed))
    x, y = spaces
    for a, b in ((x, y), (y, x), (x, x)):
        assert continuous_maps(a, b) == ref_continuous_maps(a, b)


# -- errors and empty carriers ------------------------------------------------


def point_space(q, monad, labels):
    c = Carrier(labels)
    rows = [[q.top if i == j else q.bottom for j in range(len(c))]
            for i in range(len(c))]
    return Space.from_square(c, monad, q, VRel(c, c, q, rows))


def test_mismatches_raise_the_reference_error():
    b, ch = bool2(), chain(3)
    ident, ultra = identity_monad(), finite_ultrafilter_monad()
    quantales = (CarrierMismatchError, "spaces use different quantales")
    monads = (CarrierMismatchError, "spaces use different monads")
    cases = [
        (point_space(b, ident, "ab"), point_space(ch, ident, "pq"), quantales),
        (point_space(b, ident, "ab"), point_space(b, ultra, "pq"), monads),
        # the empty map is a candidate, so it is checked
        (point_space(b, ultra, ""), point_space(b, ident, "pq"), monads),
        (point_space(b, ident, ""), point_space(ch, ident, ""), quantales),
        (point_space(b, ident, ""), point_space(b, ident, ""), None),
        (point_space(b, ident, ""), point_space(b, ident, "pq"), None),
        # no candidate map, so no check and no error
        (point_space(b, ident, "ab"), point_space(ch, ultra, ""), []),
        (point_space(b, ident, "a"), point_space(b, ident, ""), []),
    ]
    for x, y, expected in cases:
        got = outcome(continuous_maps, x, y)
        assert got == outcome(ref_continuous_maps, x, y)
        if expected is not None:
            assert got == expected


def test_probe_mismatch_and_budget_errors_match_the_reference():
    b, ch, ident = bool2(), chain(3), identity_monad()
    cls = ProbeClass.explicit([point_space(b, ident, "ab"),
                               point_space(b, ident, "c")])
    for target, budget in ((point_space(ch, ident, "pq"), DEFAULT_MAP_BUDGET),
                           (point_space(ch, ident, ""), DEFAULT_MAP_BUDGET),
                           (point_space(b, ident, "pqr"), 11),
                           (point_space(b, ident, "pqr"), 12)):
        fresh = ProbeClass.explicit(cls.objects)
        expected = outcome(ref_probes_into, fresh, target, budget)
        assert outcome(fresh.probes_into, target, budget) == expected
    with pytest.raises(BudgetExceededError) as exc:
        cls.probes_into(point_space(b, ident, "pqr"), budget=11)
    assert str(exc.value) == ("probe enumeration needs 12 candidate maps, "
                              "budget is 11")
    with pytest.raises(CarrierMismatchError):
        cls.probes_into(point_space(ch, ident, "pq"))
