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
