import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvspaces import (
    CarrierMismatchError,
    INF,
    StructuralError,
    UnsupportedOperationError,
    bool2,
    chain,
    cost_plus,
    lukasiewicz_grid,
)
from tvspaces.space import all_maps
from tvspaces.vrel import (
    Carrier,
    MapArrow,
    VRel,
    compose,
    from_map,
    identity_rel,
    rel_join,
    rel_leq,
    rel_meet,
    reflexive_transitive_closure,
    transpose,
)

B = bool2()
CP = cost_plus()


def minplus_product(left, right):
    """Hand-written min-plus oracle on raw payloads."""
    def add(a, b):
        return INF if (a is INF or b is INF) else a + b

    out = []
    for i in range(len(left)):
        row = []
        for j in range(len(right[0])):
            terms = [add(left[i][k], right[k][j]) for k in range(len(right))]
            finite = [t for t in terms if t is not INF]
            row.append(min(finite) if finite else INF)
        out.append(row)
    return out


def cp_rel(carrier_from, carrier_to, raw):
    return VRel(carrier_from, carrier_to, CP,
                [[CP.bottom if x is INF else CP.value(x) for x in row]
                 for row in raw])


def b_rel(carrier_from, carrier_to, raw):
    return VRel(carrier_from, carrier_to, B,
                [[B.top if x else B.bottom for x in row] for row in raw])


class TestCompose:
    def test_bool2_relational_composition(self):
        x = Carrier(["x"])
        ys = Carrier(["y1", "y2"])
        z = Carrier(["z"])
        r = b_rel(x, ys, [[1, 0]])
        s = b_rel(ys, z, [[1], [0]])
        assert compose(r, s).get("x", "z") == B.top

    def test_minplus_oracle(self):
        c = Carrier(["a", "b"])
        raw = [[Fraction(0), Fraction(1)], [INF, Fraction(0)]]
        r = cp_rel(c, c, raw)
        expected = minplus_product(raw, raw)
        assert compose(r, r) == cp_rel(c, c, expected)
        assert compose(r, r) == r  # this matrix is idempotent

    def test_map_embedding_functorial(self):
        a, b, c = Carrier(["a1", "a2"]), Carrier(["b1", "b2"]), Carrier(["c1"])
        f = MapArrow(a, b, {"a1": "b2", "a2": "b1"})
        g = MapArrow(b, c, {"b1": "c1", "b2": "c1"})
        assert compose(from_map(f, B), from_map(g, B)) == from_map(
            f.then(g), B)

    def test_carrier_mismatch(self):
        c2, c3 = Carrier(["a", "b"]), Carrier(["a", "b", "c"])
        with pytest.raises(CarrierMismatchError):
            compose(b_rel(c2, c2, [[1, 0], [0, 1]]),
                    b_rel(c3, c3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


class TestTranspose:
    def test_row_to_column(self):
        one, two = Carrier(["*"]), Carrier(["a", "b"])
        r = b_rel(one, two, [[1, 0]])
        assert transpose(r) == b_rel(two, one, [[1], [0]])

    def test_involution(self):
        c = Carrier(["a", "b"])
        r = b_rel(c, c, [[1, 0], [1, 1]])
        assert transpose(transpose(r)) == r
        assert transpose(identity_rel(c, B)) == identity_rel(c, B)

    def test_map_against_its_transpose_covers_identity(self):
        a, b = Carrier(["a1", "a2"]), Carrier(["b1"])
        f = from_map(MapArrow.constant(a, b, "b1"), B)
        assert rel_leq(identity_rel(a, B), compose(f, transpose(f)))


class TestFromMap:
    def test_identity(self):
        c = Carrier(["a", "b"])
        identity = MapArrow.identity(c)
        assert from_map(identity, B) == b_rel(c, c, [[1, 0], [0, 1]])
        checked = MapArrow(c, c, identity.table)
        assert identity == checked and repr(identity) == repr(checked)

    def test_constant_in_cost_quantale(self):
        dom, cod = Carrier(["a", "b"]), Carrier(["c"])
        rel = from_map(MapArrow.constant(dom, cod, "c"), CP)
        assert rel == cp_rel(dom, cod, [[Fraction(0)], [Fraction(0)]])

    def test_swap_is_antidiagonal(self):
        c = Carrier(["a", "b"])
        swap = MapArrow(c, c, {"a": "b", "b": "a"})
        assert from_map(swap, B) == b_rel(c, c, [[0, 1], [1, 0]])

    def test_partial_map_rejected(self):
        c = Carrier(["a", "b"])
        with pytest.raises(StructuralError):
            MapArrow(c, c, {"a": "b"})


class TestLatticeOps:
    def test_reflexive_order(self):
        c = Carrier(["a"])
        r = cp_rel(c, c, [[Fraction(2)]])
        assert rel_leq(r, r)

    def test_join_meet_entrywise(self):
        one, two = Carrier(["*"]), Carrier(["a", "b"])
        r = cp_rel(one, two, [[Fraction(0), Fraction(5)]])
        s = cp_rel(one, two, [[Fraction(3), Fraction(1)]])
        assert rel_join(r, s) == cp_rel(one, two, [[Fraction(0), Fraction(1)]])
        assert rel_meet(r, s) == cp_rel(one, two, [[Fraction(3), Fraction(5)]])

    def test_shape_mismatch(self):
        one, two = Carrier(["*"]), Carrier(["a", "b"])
        with pytest.raises(CarrierMismatchError):
            rel_join(cp_rel(one, two, [[Fraction(0), Fraction(1)]]),
                     cp_rel(two, one, [[Fraction(0)], [Fraction(1)]]))


def naive_closure(r):
    b = rel_join(r, identity_rel(r.dom, r.quantale))
    while True:
        nxt = rel_join(b, compose(b, b))
        if nxt == b:
            return b
        b = nxt


class TestClosure:
    def test_shortcut_found(self):
        c = Carrier(["p0", "p1", "p2"])
        r = cp_rel(c, c, [[Fraction(0), Fraction(1), Fraction(5)],
                          [INF, Fraction(0), Fraction(1)],
                          [INF, INF, Fraction(0)]])
        closed = reflexive_transitive_closure(r)
        assert closed == naive_closure(r)
        assert closed.get("p0", "p2") == CP.value(2)

    def test_fixed_point(self):
        c = Carrier(["a", "b"])
        r = b_rel(c, c, [[1, 1], [0, 1]])
        assert reflexive_transitive_closure(r) == r

    def test_reachability(self):
        c = Carrier(["a", "b", "c"])
        path = b_rel(c, c, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        closed = reflexive_transitive_closure(path)
        assert closed.get("a", "c") == B.top

    def test_non_square_rejected(self):
        one, two = Carrier(["*"]), Carrier(["a", "b"])
        with pytest.raises(CarrierMismatchError):
            reflexive_transitive_closure(b_rel(one, two, [[1, 0]]))

    def test_non_integral_rejected(self):
        from tvspaces.suite import non_integral_quantale

        q = non_integral_quantale()
        c = Carrier(["a"])
        r = VRel(c, c, q, [[q.unit]])
        with pytest.raises(UnsupportedOperationError):
            reflexive_transitive_closure(r)


QUANTALES = [bool2(), chain(4), lukasiewicz_grid(4), cost_plus()]


def rel_strategy(q, dom, cod):
    if q.is_finite:
        value = st.sampled_from(q.carrier_values())
    else:
        value = st.builds(
            lambda n, d, inf: q.bottom if inf else q.value(Fraction(n, d)),
            st.integers(0, 6), st.integers(1, 3), st.booleans())
    return st.lists(
        st.lists(value, min_size=len(cod), max_size=len(cod)),
        min_size=len(dom), max_size=len(dom)).map(
            lambda rows: VRel(dom, cod, q, rows))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_compose_associative(data):
    q = data.draw(st.sampled_from(QUANTALES))
    a, b, c, d = (Carrier([f"{tag}{i}" for i in range(size)])
                  for tag, size in zip("wxyz", (2, 3, 2, 2)))
    r = data.draw(rel_strategy(q, a, b))
    s = data.draw(rel_strategy(q, b, c))
    t = data.draw(rel_strategy(q, c, d))
    assert compose(compose(r, s), t) == compose(r, compose(s, t))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_involution_laws(data):
    q = data.draw(st.sampled_from(QUANTALES))
    a, b, c = (Carrier([f"{tag}{i}" for i in range(2)]) for tag in "xyz")
    r = data.draw(rel_strategy(q, a, b))
    s = data.draw(rel_strategy(q, b, c))
    assert transpose(compose(r, s)) == compose(transpose(s), transpose(r))
    assert transpose(transpose(r)) == r


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_closure_is_closure_operator(data):
    q = data.draw(st.sampled_from(QUANTALES))
    size = data.draw(st.integers(1, 4))
    c = Carrier([f"x{i}" for i in range(size)])
    r = data.draw(rel_strategy(q, c, c))
    closed = reflexive_transitive_closure(r)
    assert rel_leq(r, closed)
    assert reflexive_transitive_closure(closed) == closed
    bigger = rel_join(r, data.draw(rel_strategy(q, c, c)))
    assert rel_leq(closed, reflexive_transitive_closure(bigger))
    assert rel_leq(compose(closed, closed), closed)


# -- the dict-backed map, kept as the oracle of MapArrow -----------------------


class RefMapArrow:
    """A map stored as its label table: the form MapArrow had before it
    stored image indices."""

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
    def _trusted(dom, cod, table):
        f = object.__new__(RefMapArrow)
        f.dom, f.cod, f.table = dom, cod, table
        return f

    @staticmethod
    def identity(carrier):
        return RefMapArrow._trusted(carrier, carrier,
                                    {x: x for x in carrier.labels})

    @staticmethod
    def constant(dom, cod, y):
        return RefMapArrow(dom, cod, {x: y for x in dom.labels})

    def __call__(self, label):
        return self.table[label]

    def then(self, other):
        if self.cod != other.dom:
            raise CarrierMismatchError("composition carriers do not match")
        return RefMapArrow._trusted(
            self.dom, other.cod,
            {x: other.table[y] for x, y in self.table.items()})

    def graph(self):
        return tuple(self.table[x] for x in self.dom.labels)

    def is_surjective(self):
        return set(self.table.values()) == set(self.cod.labels)

    def __eq__(self, other):
        return (isinstance(other, RefMapArrow) and self.dom == other.dom
                and self.cod == other.cod and self.table == other.table)

    def __hash__(self):
        return hash((self.dom.labels, self.cod.labels, self.graph()))

    def __repr__(self):
        assign = " ".join(f"{x}->{y}" for x, y in self.table.items())
        return f"MapArrow({assign or 'empty'})"


def ref_all_maps(dom, cod):
    for images in itertools.product(cod.labels, repeat=len(dom)):
        yield RefMapArrow._trusted(dom, cod, dict(zip(dom.labels, images)))


# carriers whose label order is not sorted order, and the empty carrier
MAP_CARRIERS = [Carrier(labels) for labels in (
    [], ["a"], ["y", "x"], ["b10", "b9", "b2"], ["x", "a", "y"])]
FOREIGN = ["z", "b1", "A", ""]


def map_outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:          # the types and texts must agree
        return (type(exc), str(exc))


def assert_same_map(f, ref):
    """Every view of a new map equals the reference's."""
    assert type(f) is MapArrow
    assert (f.dom, f.cod) == (ref.dom, ref.cod)
    assert f.table == ref.table and list(f.table) == list(ref.table)
    assert f.graph() == ref.graph()
    assert f.images == tuple(ref.cod.index(y) for y in ref.graph())
    assert [f(x) for x in f.dom] == [ref(x) for x in ref.dom]
    for x in FOREIGN:
        assert map_outcome(f, x) == map_outcome(ref, x)
        assert map_outcome(f, x)[0] is KeyError
    assert f.is_surjective() == ref.is_surjective()
    assert hash(f) == hash(ref) and repr(f) == repr(ref)


@st.composite
def label_tables(draw, dom, cod):
    """A table that is usually a map: each domain label, sometimes left
    out, sent into the codomain, sometimes outside it, and sometimes a
    foreign key; or, rarely, no dict at all."""
    shape = draw(st.sampled_from(("dict",) * 8 + ("list", "pairs")))
    inside = list(cod) or FOREIGN
    table = {}
    for x in dom:
        if draw(st.integers(0, 9)):
            table[x] = draw(st.sampled_from(
                inside * 4 + FOREIGN[:1])) if draw(st.integers(0, 9)) \
                else draw(st.sampled_from(FOREIGN))
    if not draw(st.integers(0, 9)):
        table[draw(st.sampled_from(FOREIGN))] = draw(st.sampled_from(inside))
    if shape == "list":
        return list(table.values())
    if shape == "pairs":
        return list(table.items())
    return table


@settings(deadline=None, max_examples=400)
@given(st.data())
def test_map_arrows_match_the_dict_backed_reference(data):
    """Construction and its errors, the label views, composition and its
    error, identity, constants, equality, hash and repr."""
    dom, cod, far = (data.draw(st.sampled_from(MAP_CARRIERS))
                     for _ in range(3))
    table = data.draw(label_tables(dom, cod))
    got = map_outcome(MapArrow, dom, cod, table)
    want = map_outcome(RefMapArrow, dom, cod, table)
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got == want
        return
    f, ref = got[1], want[1]
    assert_same_map(f, ref)
    other = data.draw(label_tables(dom, cod).filter(
        lambda t: map_outcome(RefMapArrow, dom, cod, t)[0] == "ok"))
    g, ref_g = MapArrow(dom, cod, other), RefMapArrow(dom, cod, other)
    assert (f == g) == (ref == ref_g) and (f != g) == (ref != ref_g)
    assert f != ref_g and f != dict(f.table) and f != f.graph()
    for h, ref_h in zip(all_maps(dom, far), ref_all_maps(dom, far)):
        assert (f == h) == (ref == ref_h)
    for h, ref_h in zip(all_maps(cod, far), ref_all_maps(cod, far)):
        assert_same_map(f.then(h), ref.then(ref_h))
    for h, ref_h in zip(all_maps(far, cod), ref_all_maps(far, cod)):
        composed = map_outcome(f.then, h)
        assert composed[0] == (
            "ok" if far == cod else CarrierMismatchError)
        if composed[0] == "ok":
            assert_same_map(composed[1], ref.then(ref_h))
        else:
            assert composed == map_outcome(ref.then, ref_h)
    assert_same_map(MapArrow.identity(dom), RefMapArrow.identity(dom))
    assert f.then(MapArrow.identity(cod)) == f
    for y in list(cod) + FOREIGN:
        got = map_outcome(MapArrow.constant, dom, cod, y)
        want = map_outcome(RefMapArrow.constant, dom, cod, y)
        assert got[0] == want[0]
        if got[0] == "ok":
            assert_same_map(got[1], want[1])
        else:
            assert got == want


@pytest.mark.parametrize("dom", MAP_CARRIERS)
@pytest.mark.parametrize("cod", MAP_CARRIERS)
def test_all_maps_match_the_reference_order(dom, cod):
    got, want = list(all_maps(dom, cod)), list(ref_all_maps(dom, cod))
    assert len(got) == len(want) == len(cod) ** len(dom)
    for f, ref in zip(got, want):
        assert_same_map(f, ref)
    assert len(set(got)) == len(got)
