import random

import pytest

from tvspaces import (
    PreconditionError,
    StructuralError,
    bool2,
    chain,
    cost_plus,
    lukasiewicz_grid,
)
from tvspaces.enumeration import (
    all_valid_spaces_upto,
    compact_hausdorff_spaces,
    standard_carrier,
)
from tvspaces.monad import finite_ultrafilter_monad, identity_monad
from tvspaces.space import (
    Space,
    all_maps,
    continuous_maps,
    coproduct,
    discrete_space,
    exponential,
    exponentiability_witness,
    final_structure,
    hausdorff_witness,
    indiscrete_space,
    initial_structure,
    is_compact,
    is_continuous,
    is_exponentiable,
    is_fully_faithful,
    is_hausdorff,
    is_separated,
    map_label,
    map_order_leq,
    pair_label,
    product,
    separatedness_witness,
    sierpinski_space,
    subspace,
    validate_space,
)
from tvspaces.vrel import (
    Carrier,
    MapArrow,
    VRel,
    rel_leq,
    reflexive_transitive_closure,
)

B = bool2()
CP = cost_plus()
IM = identity_monad()


def b_space(labels, raw, monad=IM):
    c = Carrier(labels)
    sq = VRel(c, c, B, [[B.top if x else B.bottom for x in row]
                        for row in raw])
    return Space.from_square(c, monad, B, sq)


def cp_space(labels, raw):
    c = Carrier(labels)
    sq = VRel(c, c, CP,
              [[CP.bottom if x == "inf" else CP.value(x) for x in row]
               for row in raw])
    return Space.from_square(c, IM, CP, sq)


ORD_CHAIN2 = b_space(["u", "v"], [[1, 1], [0, 1]])


class TestValidate:
    def test_discrete_passes(self):
        assert validate_space(discrete_space(Carrier(["a", "b"]), IM,
                                             B)).passed

    def test_metric_passes(self):
        space = cp_space(["a", "b"], [[0, 1], [1, 0]])
        assert validate_space(space).passed

    def test_missing_loop_gives_reflexivity_witness(self):
        c = Carrier(["x", "y"])
        structure = VRel(c, c, B, [[B.bottom, B.bottom],
                                   [B.bottom, B.top]])
        report = validate_space(Space(c, IM, B, structure))
        assert not report.passed
        law, witness = report.violations[0]
        assert law == "reflexivity" and witness[0] == "x"

    def test_shape_mismatch(self):
        c = Carrier(["x", "y"])
        with pytest.raises(StructuralError):
            Space(c, IM, B, VRel(Carrier(["x"]), c, B,
                                 [[B.top, B.top]]))
        # the structure is a square whatever the monad tag
        tc = Carrier(["U(x)", "U(y)"])
        with pytest.raises(StructuralError) as exc:
            Space(c, finite_ultrafilter_monad(), B,
                  VRel(tc, c, B, [[B.top, B.top], [B.top, B.top]]))
        assert str(exc.value) == (
            "square form on ['U(x)', 'U(y)'] x ['x', 'y'] does not match "
            "the carrier ['x', 'y']")

    def test_triangle_violation_caught(self):
        bad = Space.from_square(
            Carrier(["a", "b", "c"]), IM, CP,
            VRel(Carrier(["a", "b", "c"]), Carrier(["a", "b", "c"]), CP,
                 [[CP.value(0), CP.value(1), CP.value(5)],
                  [CP.bottom, CP.value(0), CP.value(1)],
                  [CP.bottom, CP.bottom, CP.value(0)]]))
        report = validate_space(bad)
        assert not report.passed
        assert report.violations[0][0] == "transitivity"


class TestContinuity:
    def test_identity_continuous(self):
        assert is_continuous(MapArrow.identity(ORD_CHAIN2.carrier),
                             ORD_CHAIN2, ORD_CHAIN2)

    def test_constants_continuous(self):
        x = cp_space(["a", "b"], [[0, 2], ["inf", 0]])
        y = cp_space(["p", "q"], [[0, 1], [1, 0]])
        for target in y.carrier.labels:
            const = MapArrow.constant(x.carrier, y.carrier, target)
            assert is_continuous(const, x, y)

    def test_expansion_is_discontinuous(self):
        tight = cp_space(["a", "b"], [[0, 1], [1, 0]])
        loose = cp_space(["a", "b"], [[0, 2], [2, 0]])
        f = MapArrow.identity(tight.carrier)
        assert not is_continuous(f, tight, loose)
        assert is_continuous(f, loose, tight)

    def test_composition_of_continuous_maps(self):
        rng = random.Random(5)
        spaces = list(all_valid_spaces_upto(B, IM, 2, include_empty=False))
        for _ in range(60):
            x, y, z = (rng.choice(spaces) for _ in range(3))
            for f in continuous_maps(x, y):
                for g in continuous_maps(y, z):
                    h = f.then(g)
                    assert is_continuous(h, x, z)
                    checked = MapArrow(h.dom, h.cod, h.table)
                    assert h == checked and repr(h) == repr(checked)


class TestFullyFaithful:
    def test_subspace_inclusion(self):
        space = cp_space(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        sub, incl = subspace(space, ["a", "c"])
        assert is_fully_faithful(incl, sub, space)

    def test_identity(self):
        assert is_fully_faithful(MapArrow.identity(ORD_CHAIN2.carrier),
                                 ORD_CHAIN2, ORD_CHAIN2)

    def test_collapse_is_not(self):
        point = b_space(["*"], [[1]])
        collapse = MapArrow.constant(ORD_CHAIN2.carrier, point.carrier, "*")
        assert is_continuous(collapse, ORD_CHAIN2, point)
        assert not is_fully_faithful(collapse, ORD_CHAIN2, point)


class TestSubspace:
    def test_full_carrier_same_structure(self):
        sub, _ = subspace(ORD_CHAIN2, ["u", "v"])
        assert sub.structure == ORD_CHAIN2.structure

    def test_empty_subspace_valid(self):
        sub, _ = subspace(ORD_CHAIN2, [])
        assert len(sub.carrier) == 0 and validate_space(sub).passed

    def test_single_point_metric(self):
        space = cp_space(["a", "b"], [[0, 3], [3, 0]])
        sub, _ = subspace(space, ["b"])
        assert sub.structure.get("b", "b") == CP.value(0)

    def test_foreign_label_rejected(self):
        with pytest.raises(StructuralError):
            subspace(ORD_CHAIN2, ["nope"])


def small_battery(q, monad, max_size=2):
    return list(all_valid_spaces_upto(q, monad, max_size,
                                      include_empty=False))


class TestInitialStructure:
    def test_identity_singleton_source(self):
        got = initial_structure(
            ORD_CHAIN2.carrier,
            [(MapArrow.identity(ORD_CHAIN2.carrier), ORD_CHAIN2)], IM, B)
        assert got == ORD_CHAIN2

    def test_empty_source_is_indiscrete(self):
        c = Carrier(["a", "b"])
        got = initial_structure(c, [], IM, B)
        assert got == indiscrete_space(c, IM, B)

    def test_universal_property(self):
        # continuity into the lifting is continuity of every composite
        spaces = small_battery(B, IM)
        rng = random.Random(11)
        for _ in range(40):
            y1, y2 = rng.choice(spaces), rng.choice(spaces)
            carrier = Carrier(["m", "n"])
            f1 = rng.choice(list(all_maps(carrier, y1.carrier)))
            f2 = rng.choice(list(all_maps(carrier, y2.carrier)))
            lifted = initial_structure(carrier, [(f1, y1), (f2, y2)], IM, B)
            assert validate_space(lifted).passed
            for w in spaces:
                for g in all_maps(w.carrier, carrier):
                    direct = is_continuous(g, w, lifted)
                    composite = (is_continuous(g.then(f1), w, y1)
                                 and is_continuous(g.then(f2), w, y2))
                    assert direct == composite


class TestFinalStructure:
    def test_empty_sink_is_discrete(self):
        c = Carrier(["a", "b"])
        assert final_structure(c, [], IM, B) == discrete_space(c, IM, B)

    def test_identity_sink_keeps_structure(self):
        got = final_structure(
            ORD_CHAIN2.carrier,
            [(MapArrow.identity(ORD_CHAIN2.carrier), ORD_CHAIN2)], IM, B)
        assert got == ORD_CHAIN2

    def test_collapsing_quotient(self):
        point = Carrier(["*"])
        collapse = MapArrow.constant(ORD_CHAIN2.carrier, point, "*")
        got = final_structure(point, [(collapse, ORD_CHAIN2)], IM, B)
        assert got == discrete_space(point, IM, B)

    def test_universal_property(self):
        spaces = small_battery(B, IM)
        rng = random.Random(13)
        for _ in range(40):
            x1, x2 = rng.choice(spaces), rng.choice(spaces)
            carrier = Carrier(["m", "n"])
            f1 = rng.choice(list(all_maps(x1.carrier, carrier)))
            f2 = rng.choice(list(all_maps(x2.carrier, carrier)))
            lifted = final_structure(carrier, [(f1, x1), (f2, x2)], IM, B)
            assert validate_space(lifted).passed
            for z in spaces:
                for g in all_maps(carrier, z.carrier):
                    direct = is_continuous(g, lifted, z)
                    composite = (is_continuous(f1.then(g), x1, z)
                                 and is_continuous(f2.then(g), x2, z))
                    assert direct == composite


class TestProductCoproduct:
    def test_product_with_point(self):
        point = b_space(["*"], [[1]])
        prod, (p1, _) = product(ORD_CHAIN2, point)
        for x in ORD_CHAIN2.carrier.labels:
            for y in ORD_CHAIN2.carrier.labels:
                assert prod.structure.get(f"({x},*)", f"({y},*)") \
                    == ORD_CHAIN2.structure.get(x, y)

    def test_ord_product_is_componentwise_order(self):
        prod, _ = product(ORD_CHAIN2, ORD_CHAIN2)
        sq = prod.structure
        for x1 in ("u", "v"):
            for y1 in ("u", "v"):
                for x2 in ("u", "v"):
                    for y2 in ("u", "v"):
                        expected = (B.top
                                    if (x1 <= x2 and y1 <= y2) else B.bottom)
                        assert sq.get(f"({x1},{y1})", f"({x2},{y2})") \
                            == expected

    def test_coproduct_of_points_in_met(self):
        a = cp_space(["x"], [[0]])
        b = cp_space(["x"], [[0]])
        summed, _ = coproduct(a, b)
        assert summed.structure.get("0:x", "1:x") == CP.bottom

    def test_coproduct_injections_fully_faithful(self):
        x = b_space(["a", "b"], [[1, 1], [0, 1]])
        y = b_space(["a"], [[1]])
        summed, (i1, i2) = coproduct(x, y)
        assert is_fully_faithful(i1, x, summed)
        assert is_fully_faithful(i2, y, summed)


class TestPredicates:
    def test_discrete_is_compact_hausdorff(self):
        for q in (B, chain(3), CP):
            d = discrete_space(Carrier(["a", "b", "c"]), IM, q)
            assert is_compact(d) and is_hausdorff(d)

    def test_indiscrete_two_point(self):
        ind = indiscrete_space(Carrier(["x", "y"]), IM, B)
        assert is_compact(ind)
        assert not is_hausdorff(ind)
        assert hausdorff_witness(ind) == ("x", "y", "x")

    def test_empty_space(self):
        empty = discrete_space(Carrier([]), IM, B)
        assert is_compact(empty) and is_hausdorff(empty)
        assert is_separated(empty)

    def test_separatedness(self):
        assert is_separated(sierpinski_space(B, IM))
        assert is_separated(sierpinski_space(chain(3), IM))
        ind = indiscrete_space(Carrier(["x", "y"]), IM, B)
        assert separatedness_witness(ind) == ("x", "y")
        assert is_separated(discrete_space(Carrier(["x", "y"]), IM, B))

    def test_products_of_compact_hausdorff(self):
        for q in (B, chain(3)):
            objects = compact_hausdorff_spaces(q, IM, 2)
            for a in objects:
                for b in objects:
                    prod, _ = product(a, b)
                    assert is_compact(prod) and is_hausdorff(prod)

    def test_surjection_from_compact_to_hausdorff_is_final(self):
        # proper-map consequence: such quotients carry the final structure
        spaces = small_battery(B, IM) + small_battery(chain(3), IM)
        for x in spaces:
            if not is_compact(x):
                continue
            for y in spaces:
                if y.quantale is not x.quantale or not is_hausdorff(y):
                    continue
                for f in continuous_maps(x, y):
                    if not f.is_surjective():
                        continue
                    lifted = final_structure(y.carrier, [(f, x)], IM,
                                             x.quantale)
                    assert lifted == y


class TestMapOrder:
    def test_reflexive(self):
        f = MapArrow.identity(ORD_CHAIN2.carrier)
        assert map_order_leq(f, f, ORD_CHAIN2, ORD_CHAIN2)

    def test_pointwise_into_sierpinski(self):
        s = sierpinski_space(B, IM)
        x = b_space(["a", "b"], [[1, 0], [0, 1]])
        maps = list(all_maps(x.carrier, s.carrier))
        for f in maps:
            for g in maps:
                pointwise = all(B.leq(B.parse_value(f(p)),
                                      B.parse_value(g(p)))
                                for p in x.carrier.labels)
                assert map_order_leq(f, g, x, s) == pointwise

    def test_bottom_below_top(self):
        s = sierpinski_space(B, IM)
        x = b_space(["a"], [[1]])
        bot = MapArrow.constant(x.carrier, s.carrier, "0")
        top = MapArrow.constant(x.carrier, s.carrier, "1")
        assert map_order_leq(bot, top, x, s)
        assert not map_order_leq(top, bot, x, s)


class TestSierpinski:
    def test_bool2_gives_two_chain(self):
        s = sierpinski_space(B, IM)
        assert s.carrier.labels == ("0", "1")
        assert s.structure.tokens() == (("1", "1"), ("0", "1"))

    def test_cost_plus_grid(self):
        grid = [CP.value(0), CP.value(1), CP.value(2), CP.bottom]
        s = sierpinski_space(CP, IM, grid)
        sq = s.structure
        for u in grid:
            for v in grid:
                assert sq.get(u.token, v.token) == CP.hom(u, v)
        assert sq.get("2", "1") == CP.value(0)
        assert sq.get("1", "2") == CP.value(1)

    def test_lukasiewicz_grid(self):
        q = lukasiewicz_grid(4)
        s = sierpinski_space(q, IM)
        sq = s.structure
        for u in q.carrier_values():
            for v in q.carrier_values():
                assert sq.get(u.token, v.token) == q.hom(u, v)

    def test_analytic_needs_grid(self):
        with pytest.raises(StructuralError):
            sierpinski_space(CP, IM)

    def test_valid_for_both_monads(self):
        for monad in (IM, finite_ultrafilter_monad()):
            assert validate_space(sierpinski_space(chain(3), monad)).passed


class TestDiscreteIndiscrete:
    def test_discrete_identity_relation(self):
        d = discrete_space(Carrier(["a", "b"]), IM, B)
        assert d.structure.tokens() == (("1", "0"), ("0", "1"))

    def test_indiscrete_cost_plus_all_zero(self):
        ind = indiscrete_space(Carrier(["a", "b"]), IM, CP)
        assert all(v == CP.value(0)
                   for row in ind.structure.entries for v in row)

    def test_structure_bounds(self):
        for space in all_valid_spaces_upto(B, IM, 2, include_empty=False):
            d = discrete_space(space.carrier, IM, B)
            ind = indiscrete_space(space.carrier, IM, B)
            assert rel_leq(d.structure, space.structure)
            assert rel_leq(space.structure, ind.structure)


class TestExponentiability:
    def test_compact_hausdorff_spaces_are_exponentiable(self):
        for q in (B, chain(3)):
            for space in compact_hausdorff_spaces(q, IM, 3):
                assert is_exponentiable(space)

    def test_sierpinski_is_exponentiable(self):
        assert is_exponentiable(sierpinski_space(B, IM))
        assert is_exponentiable(sierpinski_space(chain(3), IM))

    def test_cost_plus_counterexample_by_search(self):
        rng = random.Random(23)
        carrier = standard_carrier(3)
        pool = [CP.value(0), CP.value(1), CP.value(2), CP.value(3),
                CP.bottom]
        found = None
        for _ in range(500):
            raw = VRel(carrier, carrier, CP,
                       [[rng.choice(pool) for _ in range(3)]
                        for _ in range(3)])
            space = Space.from_square(
                carrier, IM, CP, reflexive_transitive_closure(raw))
            witness = exponentiability_witness(space)
            if witness is not None:
                found = (space, witness)
                break
        assert found is not None, "search should hit a non-exponentiable " \
            "metric space"
        space, (big, x, u, v) = found
        # confirm the witness by evaluating the inequality directly
        q = CP
        a = space.structure
        lhs = q.join(
            q.tensor(q.meet(a.get(big, t), u), q.meet(a.get(t, x), v))
            for t in space.carrier.labels)
        rhs = q.meet(a.get(big, x), q.tensor(u, v))
        assert not q.leq(rhs, lhs)


def exponential_join_oracle(q, pairs):
    """Spec formula run literally: join of every carrier value that fits."""
    return q.join(v for v in q.carrier_values()
                  if all(q.leq(q.meet(b, v), c) for b, c in pairs))


class TestExponential:
    def test_power_of_point(self):
        point = b_space(["*"], [[1]])
        for z in small_battery(B, IM):
            exp, by_label = exponential(point, z)
            assert len(exp.carrier) == len(z.carrier)
            for gl in exp.carrier.labels:
                for hl in exp.carrier.labels:
                    g, h = by_label[gl], by_label[hl]
                    assert exp.structure.get(gl, hl) == z.structure.get(
                        g("*"), h("*"))

    def test_two_chain_self_power(self):
        exp, _ = exponential(ORD_CHAIN2, ORD_CHAIN2)
        assert exp.carrier.labels == ("[u,u]", "[u,v]", "[v,v]")
        assert exp.structure.tokens() == (
            ("1", "1", "1"), ("0", "1", "1"), ("0", "0", "1"))

    def test_structure_matches_join_oracle(self):
        for q in (B, chain(3)):
            for y in small_battery(q, IM):
                for z in small_battery(q, IM):
                    exp, by_label = exponential(y, z)
                    ysq, zsq = y.structure, z.structure
                    for gl in exp.carrier.labels:
                        for hl in exp.carrier.labels:
                            g, h = by_label[gl], by_label[hl]
                            pairs = [
                                (ysq.get(y1, y2), zsq.get(g(y1), h(y2)))
                                for y1 in y.carrier.labels
                                for y2 in y.carrier.labels]
                            assert exp.structure.get(gl, hl) == \
                                exponential_join_oracle(q, pairs)

    def test_currying_bijection(self):
        # plain continuity adjunction, |Y|, |Z| <= 3, |W| <= 2 over Ord
        ys = [ORD_CHAIN2, b_space(["a", "b", "c"],
                                  [[1, 1, 1], [0, 1, 1], [0, 0, 1]])]
        zs = [ORD_CHAIN2, b_space(["p", "q"], [[1, 0], [0, 1]])]
        ws = small_battery(B, IM)
        for y in ys:
            for z in zs:
                exp, by_label = exponential(y, z)
                label_of = {map_label(f): f for f in by_label.values()}
                for w in ws:
                    prod, _ = product(w, y)
                    curried = set()
                    for f in continuous_maps(prod, z):
                        slices = {}
                        for x in w.carrier.labels:
                            s = MapArrow(
                                y.carrier, z.carrier,
                                {yy: f(f"({x},{yy})")
                                 for yy in y.carrier.labels})
                            assert map_label(s) in label_of
                            slices[x] = map_label(s)
                        g = MapArrow(w.carrier, exp.carrier, slices)
                        assert is_continuous(g, w, exp)
                        curried.add(g.graph())
                    direct = {g.graph()
                              for g in continuous_maps(w, exp)}
                    assert curried == direct

    def test_evaluation_continuous(self):
        exp, by_label = exponential(ORD_CHAIN2, ORD_CHAIN2)
        prod, _ = product(exp, ORD_CHAIN2)
        ev = MapArrow(prod.carrier, ORD_CHAIN2.carrier,
                      {pair_label(gl, y): by_label[gl](y)
                       for gl in exp.carrier.labels
                       for y in ORD_CHAIN2.carrier.labels})
        assert is_continuous(ev, prod, ORD_CHAIN2)

    def test_non_exponentiable_base_rejected(self):
        bad = cp_space(["a", "b", "c"],
                       [[0, 1, 3], ["inf", 0, 2], ["inf", "inf", 0]])
        assert exponentiability_witness(bad) is not None
        with pytest.raises(PreconditionError):
            exponential(bad, bad)


class TestUltrafilterInstance:
    def test_enumeration_matches_identity_instance(self):
        mu = finite_ultrafilter_monad()
        for q in (B, chain(3)):
            identity_count = sum(
                1 for _ in all_valid_spaces_upto(q, IM, 2))
            ultra_count = sum(
                1 for _ in all_valid_spaces_upto(q, mu, 2))
            assert identity_count == ultra_count

    def test_predicates_transport(self):
        mu = finite_ultrafilter_monad()
        for space in all_valid_spaces_upto(B, mu, 2, include_empty=False):
            square = Space(space.carrier, IM, B, space.structure)
            assert is_compact(space) == is_compact(square)
            assert is_hausdorff(space) == is_hausdorff(square)
            assert is_separated(space) == is_separated(square)


def test_coproducts_of_compact_hausdorff_are_compact_hausdorff():
    for q in (B, chain(3)):
        objects = compact_hausdorff_spaces(q, IM, 2)
        for a in objects:
            for b in objects:
                summed, _ = coproduct(a, b)
                assert is_compact(summed) and is_hausdorff(summed)


@pytest.mark.parametrize("q", [B, chain(3), lukasiewicz_grid(3)],
                         ids=["bool2", "chain3", "luk3"])
@pytest.mark.parametrize("monad", [identity_monad, finite_ultrafilter_monad])
def test_compact_hausdorff_spaces_skip_compactness_soundly(q, monad):
    """Every valid structure over an integral quantale is compact, so the
    compact Hausdorff spaces are the Hausdorff ones, up to isomorphism."""
    from tvspaces.enumeration import iso_canonical_key

    mon = monad()
    expected, seen = [], set()
    for space in all_valid_spaces_upto(q, mon, 3, include_empty=False):
        assert is_compact(space)
        key = iso_canonical_key(space)
        if is_hausdorff(space) and key not in seen:
            seen.add(key)
            expected.append(space)
    assert compact_hausdorff_spaces(q, mon, 3) == expected


def test_compact_hausdorff_spaces_keep_compactness_on_broken_tables():
    """An integral table whose unit tensors itself to bottom has Hausdorff
    structures that are not compact, and none of them is kept."""
    from tvspaces import finite_table

    broken = finite_table(["0", "1"], [[1, 1], [0, 1]], [[0, 0], [0, 0]],
                          unit_index=1)
    assert broken.integral
    for space in all_valid_spaces_upto(broken, IM, 2, include_empty=False):
        assert is_hausdorff(space) and not is_compact(space)
    assert compact_hausdorff_spaces(broken, IM, 2) == []


def test_enumeration_sizes_above_ten_points_raise():
    # the standard carriers have at most ten points; a larger size is an
    # error, never a silently smaller carrier
    spaces = compact_hausdorff_spaces(CP, IM, 10)
    assert [len(s.carrier) for s in spaces] == list(range(1, 11))
    with pytest.raises(StructuralError):
        compact_hausdorff_spaces(CP, IM, 11)
    assert len(standard_carrier(10)) == 10
    for size in (11, 12, -1):
        with pytest.raises(StructuralError):
            standard_carrier(size)


def test_singleton_admits_exactly_one_structure():
    # integral quantales: the only structure on one point is the top loop
    for q in (B, chain(3), lukasiewicz_grid(4)):
        from tvspaces.enumeration import all_valid_spaces

        singles = list(all_valid_spaces(q, IM, standard_carrier(1)))
        assert len(singles) == 1
        assert singles[0].structure.get("a", "a") == q.top


def test_residuation_space_point_order_matches_the_quantale():
    from tvspaces.space import point_order_leq

    for q in (B, chain(4), lukasiewicz_grid(4)):
        s = sierpinski_space(q, IM)
        for u in q.carrier_values():
            for v in q.carrier_values():
                assert point_order_leq(s, u.token, v.token) == q.leq(u, v)


def test_product_of_residuation_spaces_is_the_meet_of_residuals():
    q = chain(3)
    s = sierpinski_space(q, IM)
    squared, _ = product(s, s)
    sq = squared.structure
    for u1 in q.carrier_values():
        for v1 in q.carrier_values():
            for u2 in q.carrier_values():
                for v2 in q.carrier_values():
                    got = sq.get(f"({u1.token},{v1.token})",
                                 f"({u2.token},{v2.token})")
                    assert got == q.meet(q.hom(u1, u2), q.hom(v1, v2))


def test_final_structure_is_least_and_initial_is_greatest():
    rng = random.Random(97)
    spaces = small_battery(B, IM)
    carrier = standard_carrier(2)
    structures = [s for s in all_valid_spaces_upto(B, IM, 2)
                  if s.carrier == carrier]
    assert structures
    for _ in range(30):
        x1 = rng.choice(spaces)
        f1 = rng.choice(list(all_maps(x1.carrier, carrier)))
        final = final_structure(carrier, [(f1, x1)], IM, B)
        for other in structures:
            if is_continuous(f1, x1, other):
                assert rel_leq(final.structure, other.structure)
        y1 = rng.choice(spaces)
        g1 = rng.choice(list(all_maps(carrier, y1.carrier)))
        initial = initial_structure(carrier, [(g1, y1)], IM, B)
        for other in structures:
            if is_continuous(g1, other, y1):
                assert rel_leq(other.structure, initial.structure)


def test_cache_key_is_built_once_and_equals_a_fresh_key():
    for sp in (ORD_CHAIN2, cp_space(["a", "b"], [[0, "1/3"], ["inf", 0]]),
               b_space([], [], finite_ultrafilter_monad())):
        twin = Space.from_square(sp.carrier, sp.monad, sp.quantale,
                                 VRel(sp.carrier, sp.carrier, sp.quantale,
                                      sp.structure.entries))
        key = sp.cache_key()
        fresh = (sp.quantale.cache_key(), sp.monad.name, sp.carrier.labels,
                 sp.structure.rows)
        assert key == fresh and sp.cache_key() is key
        assert hash(twin) == hash(sp) == hash(fresh)
        assert twin.cache_key() == key and twin == sp
