import itertools
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvspaces import (
    Carrier,
    INF,
    QuantaleMismatchError,
    StructuralError,
    UnsupportedOperationError,
    VRel,
    bool2,
    chain,
    cost_max,
    cost_plus,
    finite_table,
    generated_values,
    lukasiewicz_grid,
    validate_quantale,
)
from tvspaces.textio import parse_workspace
from tvspaces.validation import ValidationReport


def brute_force_hom(q, u, v):
    """Independent oracle: the join of everything whose tensor stays below.

    For the analytic kinds the quantifier runs over the meet/join/hom
    closure of the operands, which contains the residual.
    """
    if q.is_finite:
        candidates = q.carrier_values()
    else:
        candidates = generated_values(q, [u, v])
    return q.join(w for w in candidates if q.leq(q.tensor(w, u), v))


class TestValidation:
    def test_bool2_all_laws(self):
        report = validate_quantale(bool2())
        assert report.passed
        assert bool2().integral and bool2().lean

    def test_three_chain(self):
        q = chain(3)
        assert validate_quantale(q).passed
        assert q.integral

    def test_non_associative_table_fails_with_witness(self):
        # {0,1} with an or-like tensor whose unit claim is wrong
        q = finite_table(
            ["x", "y"],
            leq_table=[[1, 1], [0, 1]],
            tensor_table=[[1, 0], [0, 1]],  # x*x = y, breaks several laws
            unit_index=1,
        )
        report = validate_quantale(q)
        assert not report.passed
        laws = {law for law, _ in report.violations}
        assert laws  # at least one law broken, each with a witness
        for _, witness in report.violations:
            assert isinstance(witness, tuple)

    def test_malformed_table_rejected(self):
        with pytest.raises(StructuralError):
            finite_table(["x", "y"], [[1, 1], [0, 1]], [[0, 0]], 1)
        with pytest.raises(StructuralError):
            finite_table(["x", "y"], [[1, 1], [0, 1]],
                         [[0, 5], [0, 1]], 1)
        with pytest.raises(StructuralError):
            finite_table(["x", "x"], [[1, 1], [0, 1]],
                         [[0, 0], [0, 1]], 1)

    def test_analytic_kinds_trusted(self):
        report = validate_quantale(cost_plus())
        assert report.passed and report.notes


class TestTensor:
    def test_bool2_bottom_absorbs(self):
        q = bool2()
        assert q.tensor(q.top, q.bottom) == q.bottom

    def test_lukasiewicz_clipped_sum(self):
        q = lukasiewicz_grid(10)
        u, v = q.parse_value("7/10"), q.parse_value("3/5")
        assert q.value_token(q.tensor(u, v)) == "3/10"

    def test_cost_plus_adds(self):
        q = cost_plus()
        assert q.tensor(q.value(2), q.value(3)) == q.value(5)

    def test_mixed_quantales_rejected(self):
        with pytest.raises(QuantaleMismatchError):
            cost_plus().tensor(cost_plus().value(1), cost_max().value(1))


class TestJoin:
    def test_bool2(self):
        q = bool2()
        assert q.join([q.bottom, q.top]) == q.top

    def test_cost_plus_join_is_min(self):
        q = cost_plus()
        assert q.join([q.value(3), q.value(5)]) == q.value(3)

    def test_empty_join_is_bottom(self):
        q = cost_plus()
        assert q.join([]).payload is INF


class TestHom:
    def test_cost_plus_truncated_difference(self):
        q = cost_plus()
        assert q.hom(q.value(3), q.value(5)) == q.value(2)

    def test_cost_max_collapses_below(self):
        q = cost_max()
        assert q.hom(q.value(5), q.value(2)) == q.value(0)
        assert q.hom(q.value(2), q.value(5)) == q.value(5)

    def test_lukasiewicz_closed_form(self):
        q = lukasiewicz_grid(10)
        u, v = q.parse_value("1/2"), q.parse_value("1/5")
        assert q.value_token(q.hom(u, v)) == "7/10"

    @pytest.mark.parametrize("q", [bool2(), chain(4), lukasiewicz_grid(4)])
    def test_unit_adjunction(self, q):
        for v in q.carrier_values():
            assert q.hom(q.unit, v) == v

    @pytest.mark.parametrize("q", [bool2(), chain(4), lukasiewicz_grid(4)])
    def test_hom_against_brute_force(self, q):
        for u in q.carrier_values():
            for v in q.carrier_values():
                assert q.hom(u, v) == brute_force_hom(q, u, v)

    def test_hom_extremes(self):
        for q in (bool2(), chain(3), lukasiewicz_grid(4)):
            for v in q.carrier_values():
                assert q.hom(q.bottom, v) == q.top
                assert q.hom(v, q.top) == q.top


class TestLeq:
    def test_bool2(self):
        q = bool2()
        assert q.leq(q.bottom, q.top)

    def test_cost_plus_reversed(self):
        q = cost_plus()
        assert q.leq(q.value(5), q.value(3))
        assert q.leq(q.bottom, q.value(100))

    def test_lukasiewicz(self):
        q = lukasiewicz_grid(10)
        assert not q.leq(q.parse_value("2/5"), q.parse_value("1/5"))


def cost_values(q):
    return st.builds(
        lambda num, den, inf: q.bottom if inf else q.value(
            Fraction(num, den)),
        st.integers(0, 20), st.integers(1, 5), st.booleans())


@settings(deadline=None)
@given(st.data())
def test_adjunction_property_finite(data):
    q = data.draw(st.sampled_from([bool2(), chain(5), lukasiewicz_grid(4)]))
    u, v, w = (data.draw(st.sampled_from(q.carrier_values()))
               for _ in range(3))
    assert q.leq(q.tensor(u, v), w) == q.leq(u, q.hom(v, w))


@settings(deadline=None)
@given(st.data())
def test_adjunction_property_cost(data):
    q = data.draw(st.sampled_from([cost_plus(), cost_max()]))
    u, v, w = (data.draw(cost_values(q)) for _ in range(3))
    assert q.leq(q.tensor(u, v), w) == q.leq(u, q.hom(v, w))
    assert q.hom(v, w) == brute_force_hom(q, v, w)


@settings(deadline=None)
@given(st.data())
def test_integral_tensor_below_meet(data):
    q = data.draw(st.sampled_from([bool2(), chain(5), lukasiewicz_grid(4),
                                   cost_plus(), cost_max()]))
    if q.is_finite:
        u, v = (data.draw(st.sampled_from(q.carrier_values()))
                for _ in range(2))
    else:
        u, v = (data.draw(cost_values(q)) for _ in range(2))
    assert q.leq(q.tensor(u, v), q.meet(u, v))


@pytest.mark.parametrize("n", range(1, 11))
def test_grid_closure(n):
    q = lukasiewicz_grid(n)
    values = q.carrier_values()
    for u in values:
        for v in values:
            assert q.tensor(u, v) in values
            assert q.join2(u, v) in values
            assert q.hom(u, v) in values


def test_generated_values_cap():
    q = cost_plus()
    with pytest.raises(UnsupportedOperationError):
        generated_values(q, [q.value(100), q.value(Fraction(1, 1000))],
                         cap=100)


def test_generated_values_contains_breakpoints():
    q = cost_plus()
    got = generated_values(q, [q.value(1), q.value(3)])
    assert q.value(2) in got and q.bottom in got and q.top in got


# -- validate_quantale against the Value loops it replaced ---------------------


def reference_validate_quantale(q):
    """The law check through ``Value`` operations, kept as the oracle."""
    violations = []
    vals = q.carrier_values()
    lab = q.value_token

    for u in vals:
        if not q.leq(u, u):
            violations.append(("order-reflexive", (lab(u),)))
    for u in vals:
        for v in vals:
            if u is not v and q.leq(u, v) and q.leq(v, u):
                violations.append(("order-antisymmetric", (lab(u), lab(v))))
            for w in vals:
                if q.leq(u, v) and q.leq(v, w) and not q.leq(u, w):
                    violations.append(("order-transitive",
                                       (lab(u), lab(v), lab(w))))

    if q._bottom_index is None:
        violations.append(("complete-lattice", ("no bottom element",)))
    for u in vals:
        for v in vals:
            if q._join2[u.payload][v.payload] is None:
                violations.append(("complete-lattice",
                                   (lab(u), lab(v), "no join")))
            if q._meet2[u.payload][v.payload] is None:
                violations.append(("complete-lattice",
                                   (lab(u), lab(v), "no meet")))
    if violations:
        return ValidationReport.collect(violations)

    for u in vals:
        for v in vals:
            if not q.eq(q.tensor(u, v), q.tensor(v, u)):
                violations.append(("tensor-commutative", (lab(u), lab(v))))
            for w in vals:
                lhs = q.tensor(q.tensor(u, v), w)
                rhs = q.tensor(u, q.tensor(v, w))
                if not q.eq(lhs, rhs):
                    violations.append(("tensor-associative",
                                       (lab(u), lab(v), lab(w))))
        if not q.eq(q.tensor(q.unit, u), u):
            violations.append(("tensor-unit", (lab(u),)))

    for u in vals:
        if not q.eq(q.tensor(u, q.bottom), q.bottom):
            violations.append(("tensor-join-distributive",
                               (lab(u), "empty join")))
        for v in vals:
            for w in vals:
                lhs = q.tensor(u, q.join2(v, w))
                rhs = q.join2(q.tensor(u, v), q.tensor(u, w))
                if not q.eq(lhs, rhs):
                    violations.append(("tensor-join-distributive",
                                       (lab(u), lab(v), lab(w))))

    for u in vals:
        for v in vals:
            for w in vals:
                left = q.leq(q.tensor(u, v), w)
                right = q.leq(u, q.hom(v, w))
                if left != right:
                    violations.append(("hom-adjunction",
                                       (lab(u), lab(v), lab(w))))

    for u in vals:
        for v in vals:
            sup = q.heyting(u, v)
            if not q.leq(q.meet(sup, u), v):
                violations.append(("heyting", (lab(u), lab(v))))

    if q.integral != q.eq(q.unit, q.top):
        violations.append(("integral-flag", ()))
    lean_holds = True
    lean_witness = None
    for u in vals:
        for v in vals:
            if (q.eq(q.join2(u, v), q.top) and q.eq(q.tensor(u, v), q.bottom)
                    and not q.eq(u, q.top) and not q.eq(v, q.top)):
                lean_holds = False
                lean_witness = (lab(u), lab(v))
    if q.lean != lean_holds:
        violations.append(("lean-flag", lean_witness or ()))
    total = all(q.leq(u, v) or q.leq(v, u) for u in vals for v in vals)
    if q.totally_ordered != total:
        violations.append(("totally-ordered-flag", ()))

    notes = ("complete distributivity not checked beyond the Heyting "
             "condition",)
    return ValidationReport.collect(violations, notes)


def report_or_error(check, q):
    try:
        report = check(q)
    except Exception as exc:
        return type(exc), str(exc)
    return report.passed, report.violations, report.notes


def _above(labels, above):
    return [[int(b in above[a]) for b in labels] for a in labels]


_SIX = ["z", "x", "y", "u", "v", "t"]
_IDEMPOTENT_SIX = [[b if a == 5 else a if b in (a, 5) else 0
                    for b in range(6)] for a in range(6)]
_DIAMOND = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
_CHAIN3 = [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
_CHAIN4 = [[int(a <= b) for b in range(4)] for a in range(4)]
_ONE_SIDED = [[0] * 4 for _ in range(4)]
_ONE_SIDED[3][3], _ONE_SIDED[1][3], _ONE_SIDED[3][2] = 3, 1, 2

# the broken and non-chain tables the other test modules build, as
# (labels, order, tensor, unit)
TABLES = {
    "non-associative": (["x", "y"], [[1, 1], [0, 1]], [[1, 0], [0, 1]], 1),
    "broken-integral": (["0", "1"], [[1, 1], [0, 1]], [[0, 0], [0, 0]], 1),
    "no-bottom": (["a", "b", "c"], [[1, 0, 1], [0, 1, 1], [0, 0, 1]],
                  [[0, 2, 0], [2, 1, 1], [0, 1, 2]], 2),
    "no-top": (["b", "x", "y"], [[1, 1, 1], [0, 1, 0], [0, 0, 1]],
               [[0, 0, 0], [0, 1, 0], [0, 0, 2]], 1),
    "no-join": (_SIX, _above(_SIX, {"z": "zxyuvt", "x": "xuvt",
                                    "y": "yuvt", "u": "ut", "v": "vt",
                                    "t": "t"}), _IDEMPOTENT_SIX, 5),
    "diamond": (["0", "a", "b", "1"], _DIAMOND,
                [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]], 3),
    "nilpotent-diamond": (["0", "a", "b", "1"], _DIAMOND,
                          [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 2],
                           [0, 1, 2, 3]], 3),
    "mid-unit-chain": (["bot", "mid", "top"], _CHAIN3,
                       [[0, 0, 0], [0, 1, 1], [0, 1, 2]], 1),
    "bottom-not-absorbing": (["0", "1", "2"], _CHAIN3,
                             [[0, 1, 2], [1, 1, 1], [2, 1, 2]], 2),
    "unit-law-broken": (["0", "1", "2"], _CHAIN3,
                        [[1, 0, 0], [1, 0, 1], [1, 2, 0]], 2),
    "one-sided": (["c0", "c1", "c2", "c3"], _CHAIN4, _ONE_SIDED, 3),
}


def workspace_c3():
    path = os.path.join(os.path.dirname(__file__), "fixtures",
                        "workspace.txt")
    with open(path, encoding="utf-8") as handle:
        return parse_workspace(handle.read()).quantales["C3"]


@pytest.mark.parametrize("make", [
    bool2, workspace_c3, *[lambda n=n: chain(n) for n in range(1, 7)],
    *[lambda n=n: lukasiewicz_grid(n) for n in (1, 2, 3, 4, 5, 10)],
    *[lambda t=t: finite_table(*t) for t in TABLES.values()],
], ids=["bool2", "C3", *[f"chain{n}" for n in range(1, 7)],
        *[f"luk{n}" for n in (1, 2, 3, 4, 5, 10)], *TABLES])
def test_validate_quantale_matches_the_value_loops(make):
    q = make()
    assert report_or_error(validate_quantale, q) == report_or_error(
        reference_validate_quantale, q)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_quantale_matches_the_value_loops_on_random_tables(data):
    n = data.draw(st.integers(1, 4))
    cells = st.lists(st.lists(st.integers(0, n - 1), min_size=n,
                              max_size=n), min_size=n, max_size=n)
    # a chain or a random relation as the order: the chain reaches the
    # tensor laws, the relation the order and lattice laws
    if data.draw(st.booleans()):
        leq = [[int(a <= b) for b in range(n)] for a in range(n)]
    else:
        leq = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n,
                                          max_size=n),
                                 min_size=n, max_size=n))
    q = finite_table([f"e{i}" for i in range(n)], leq, data.draw(cells),
                     data.draw(st.integers(0, n - 1)))
    assert report_or_error(validate_quantale, q) == report_or_error(
        reference_validate_quantale, q)


# -- the lattice check ----------------------------------------------------------

# the tables whose order is not a complete lattice, and the error their
# kernel raises: the three of TABLES, a 2-cycle (total order relation, no
# least upper bounds) and a 3-cycle (total join and meet tables, but not
# transitive)
NOT_LATTICES = {
    "no-bottom": (TABLES["no-bottom"], "meet undefined in quantale "
                  "finite-table(a,b,c): the order is not a complete lattice "
                  "(run validate_quantale)"),
    "no-top": (TABLES["no-top"], "join undefined in quantale "
               "finite-table(b,x,y): the order is not a complete lattice "
               "(run validate_quantale)"),
    "no-join": (TABLES["no-join"], "join undefined in quantale "
                "finite-table(z,x,y,u,v,t): the order is not a complete "
                "lattice (run validate_quantale)"),
    "2-cycle": ((["a", "b"], [[1, 1], [1, 1]], [[0, 0], [0, 1]], 1),
                "join undefined in quantale finite-table(a,b): the order is "
                "not a complete lattice (run validate_quantale)"),
    "3-cycle": ((["a", "b", "c"], [[1, 0, 1], [1, 1, 0], [0, 1, 1]],
                 [[0, 0, 0], [0, 1, 0], [0, 0, 2]], 2),
                "order not a partial order in quantale finite-table(a,b,c): "
                "the order is not a complete lattice (run validate_quantale)"),
}


@pytest.mark.parametrize("name", NOT_LATTICES)
def test_kernel_refuses_an_order_that_is_not_a_lattice(name):
    (labels, leq, tensor, unit), message = NOT_LATTICES[name]
    q = finite_table(labels, leq, tensor, unit)
    point = Carrier(["p"])
    for relations in ((), (VRel._from_rows(point, point, q, [[0]]),)):
        with pytest.raises(StructuralError) as exc:
            q.encode(relations)
        assert type(exc.value) is StructuralError
        assert str(exc.value) == message
    # the law check still reports the table in full, and the Value
    # operations that read only the given tables still work
    assert report_or_error(validate_quantale, q) == report_or_error(
        reference_validate_quantale, q)
    assert not validate_quantale(q).passed
    values = q.carrier_values()
    for u in values:
        for v in values:
            assert q.tensor(u, v) is values[tensor[u.payload][v.payload]]
            assert q.leq(u, v) == bool(leq[u.payload][v.payload])


def test_kernel_is_refused_exactly_for_the_orders_validate_quantale_rejects():
    """Every relation on one to three points as the order: the kernel is
    refused exactly when validate_quantale reports an order or lattice law."""
    lattice_laws = {"order-reflexive", "order-antisymmetric",
                    "order-transitive", "complete-lattice"}
    refused = 0
    for n in (1, 2, 3):
        tensor = [[0] * n for _ in range(n)]
        for bits in itertools.product((0, 1), repeat=n * n):
            leq = [bits[i * n:(i + 1) * n] for i in range(n)]
            q = finite_table([f"e{i}" for i in range(n)], leq, tensor, 0)
            broken = any(law in lattice_laws
                         for law, _ in validate_quantale(q).violations)
            try:
                q.kernel(())
            except StructuralError:
                assert broken
                refused += 1
            else:
                assert not broken
    # the lattices on one to three labelled points are the 1 + 2 + 6 chains
    assert refused == (2 - 1) + (16 - 2) + (512 - 6)
