import pytest

from tvspaces import (
    BudgetExceededError,
    CarrierMismatchError,
    PreconditionError,
    StructuralError,
    bool2,
    chain,
    cost_plus,
    lukasiewicz_grid,
)
from tvspaces import generation
from tvspaces.enumeration import all_valid_spaces_upto
from tvspaces.generation import (
    ProbeClass,
    alexandroff_expansion,
    c_generated_structure,
    check_ep,
    cmap_space,
    is_alexandroff,
    is_c_continuous,
    is_c_generated,
    specialization,
    transpose_cmap,
    untranspose_cmap,
)
from tvspaces.monad import finite_ultrafilter_monad, identity_monad
from tvspaces.space import (
    Space,
    continuous_maps,
    discrete_space,
    indiscrete_space,
    is_continuous,
    product,
    sierpinski_space,
    validate_space,
)
from tvspaces.space import all_maps, coproduct_many, copairing, final_structure
from tvspaces.vrel import Carrier, MapArrow, VRel

B = bool2()
IM = identity_monad()


def b_space(labels, raw):
    c = Carrier(labels)
    sq = VRel(c, c, B, [[B.top if x else B.bottom for x in row]
                        for row in raw])
    return Space.from_square(c, IM, B, sq)


ORD_CHAIN2 = b_space(["u", "v"], [[1, 1], [0, 1]])
POINT_CLASS = ProbeClass.explicit([b_space(["*"], [[1]])])
SIERP_CLASS = ProbeClass.sierpinski(B, IM)
CH2_CLASS = ProbeClass.compact_hausdorff_upto(2, B, IM)


class TestEnumerateProbes:
    def test_point_class_gives_constants(self):
        x = b_space(["a", "b", "c"], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        sink = POINT_CLASS.probes_into(x)
        assert len(sink) == 3
        assert all(len(src.carrier) == 1 for _, src in sink)

    def test_two_chain_into_itself(self):
        sink = SIERP_CLASS.probes_into(ORD_CHAIN2)
        assert len(sink) == 3  # two constants and the isomorphism

    def test_empty_target(self):
        empty = discrete_space(Carrier([]), IM, B)
        assert len(SIERP_CLASS.probes_into(empty)) == 0

    def test_budget_overflow_is_an_error(self):
        x = b_space(["a", "b", "c"], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(BudgetExceededError):
            CH2_CLASS.probes_into(x, budget=5)

    def test_probes_are_continuous(self):
        for _, src in CH2_CLASS.probes_into(ORD_CHAIN2):
            assert validate_space(src).passed

    @pytest.mark.parametrize("q", [B, chain(3), lukasiewicz_grid(4)],
                             ids=["bool2", "chain3", "luk4"])
    def test_probes_of_shipped_classes_are_pairwise_distinct(self, q):
        classes = [ProbeClass.compact_hausdorff_upto(3, q, IM),
                   ProbeClass.sierpinski(q, IM),
                   ProbeClass.explicit([sierpinski_space(q, IM),
                                        discrete_space(Carrier("xy"), IM, q),
                                        sierpinski_space(q, IM)])]
        targets = list(all_valid_spaces_upto(q, IM, 3 if q is B else 2))
        for cls in classes:
            for target in targets:
                probes = cls.probes_into(target)
                graphs = {(id(obj), f.graph()) for f, obj in probes}
                assert len(graphs) == len(probes)


class TestCoreflection:
    def test_generated_space_is_fixed(self):
        # the two-chain is generated by its own residuation class
        assert c_generated_structure(ORD_CHAIN2, SIERP_CLASS) == ORD_CHAIN2
        assert is_c_generated(ORD_CHAIN2, SIERP_CLASS)

    def test_compact_class_collapses_to_discrete(self):
        core = c_generated_structure(ORD_CHAIN2, CH2_CLASS)
        assert core == discrete_space(ORD_CHAIN2.carrier, IM, B)
        assert not is_c_generated(ORD_CHAIN2, CH2_CLASS)

    def test_generating_spaces_are_generated(self):
        for cls in (SIERP_CLASS, CH2_CLASS, POINT_CLASS):
            for obj in cls.objects:
                assert is_c_generated(obj, cls)

    def test_idempotent(self):
        for space in all_valid_spaces_upto(B, IM, 3):
            core = c_generated_structure(space, CH2_CLASS)
            assert c_generated_structure(core, CH2_CLASS) == core


class TestCContinuity:
    def test_continuous_implies_class_continuous(self):
        spaces = list(all_valid_spaces_upto(B, IM, 2, include_empty=False))
        for x in spaces:
            for y in spaces:
                for f in continuous_maps(x, y):
                    assert is_c_continuous(f, x, y, CH2_CLASS)

    def test_class_continuous_but_not_continuous(self):
        ind = indiscrete_space(Carrier(["x", "y"]), IM, B)
        sierp = sierpinski_space(B, IM)
        f = MapArrow(ind.carrier, sierp.carrier, {"x": "1", "y": "0"})
        assert not is_continuous(f, ind, sierp)
        assert is_c_continuous(f, ind, sierp, POINT_CLASS)

    def test_three_way_equivalence(self):
        # probewise == continuous from the coreflection
        #           == continuous between the coreflections
        spaces = list(all_valid_spaces_upto(B, IM, 2, include_empty=False))
        for cls in (SIERP_CLASS, CH2_CLASS):
            for x in spaces:
                xc = cls.coreflect(x)
                for y in spaces:
                    yc = cls.coreflect(y)
                    for f in all_maps(x.carrier, y.carrier):
                        probewise = all(
                            is_continuous(p.then(f), src, y)
                            for p, src in cls.probes_into(x))
                        assert probewise == is_continuous(f, xc, y)
                        assert probewise == is_continuous(f, xc, yc)


class TestColimitPresentation:
    def test_generated_space_is_quotient_of_generators(self):
        # rebuild every generated space from the coproduct of its probes
        for q in (B, chain(3)):
            cls = ProbeClass.compact_hausdorff_upto(2, q, IM)
            for space in all_valid_spaces_upto(q, IM, 2,
                                               include_empty=False):
                if not is_c_generated(space, cls):
                    continue
                sink = list(cls.probes_into(space))
                summed, _ = coproduct_many([src for _, src in sink])
                t = copairing([p for p, _ in sink], summed.carrier)
                assert t.is_surjective()
                rebuilt = final_structure(space.carrier, [(t, summed)],
                                          IM, q)
                assert rebuilt == space


class TestCMap:
    def test_cmap_from_point_is_the_space_itself(self):
        point = b_space(["*"], [[1]])
        for z in all_valid_spaces_upto(B, IM, 2, include_empty=False):
            cm, by_label = cmap_space(point, z, CH2_CLASS)
            assert len(cm.carrier) == len(z.carrier)
            sq, zsq = cm.structure, z.structure
            for gl in cm.carrier.labels:
                for hl in cm.carrier.labels:
                    assert sq.get(gl, hl) == zsq.get(
                        by_label[gl]("*"), by_label[hl]("*"))

    def test_ord_cmap_is_monotone_maps_pointwise(self):
        from tvspaces.space import exponential

        cm, _ = cmap_space(ORD_CHAIN2, ORD_CHAIN2, SIERP_CLASS)
        exp, _ = exponential(ORD_CHAIN2, ORD_CHAIN2)
        assert cm == exp

    def test_ep_holds_for_shipped_classes(self):
        for cls in (SIERP_CLASS, CH2_CLASS):
            non_expo, bad_products = check_ep(cls)
            assert non_expo == [] and bad_products == []

    def test_ep_runs_once_per_class(self, monkeypatch):
        """Two cmap_space calls and a check_ep compute each object's
        witness once and each pairwise product once."""
        calls = {"exponentiability_witness": 0, "product": 0}
        for name in calls:
            def counted(*args, fn=getattr(generation, name), name=name):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(generation, name, counted)
        cls = ProbeClass.compact_hausdorff_upto(2, B, IM)
        k = len(cls.objects)
        for _ in range(2):
            cmap_space(ORD_CHAIN2, ORD_CHAIN2, cls)
        assert check_ep(cls) == ([], [])
        assert calls == {"exponentiability_witness": k,
                         "product": k * (k + 1) // 2}

    def test_ep_refusal_and_warning_repeat_from_the_cache(self):
        L = lukasiewicz_grid(3)

        def l_space(labels, rows):
            c = Carrier(labels)
            return Space.from_square(c, IM, L, VRel(c, c, L, [
                [L.parse_value(t) for t in row] for row in rows]))

        point = discrete_space(Carrier(["*"]), IM, L)
        refused = ProbeClass.explicit([
            point, l_space("ab", [["1", "0"], ["1/3", "1"]])])
        warned = ProbeClass.explicit([l_space("abc", [
            ["1", "0", "0"], ["2/3", "1", "0"], ["1", "2/3", "1"]])])
        for _ in range(2):
            with pytest.raises(PreconditionError) as exc:
                cmap_space(point, point, refused)
            assert str(exc.value) == (
                "class object #1 (['a', 'b']) is not exponentiable, "
                "witness ('b', 'a', 2/3, 2/3)")
            with pytest.warns(UserWarning) as record:
                cmap_space(point, point, warned)
            assert [str(w.message) for w in record] == [
                "products of class objects [(0, 0)] are not "
                "class-generated; the currying bijection may fail"]
        assert check_ep(refused)[0] == [1]

    def test_transpose_round_trip(self):
        spaces = list(all_valid_spaces_upto(B, IM, 2, include_empty=False))
        for cls in (SIERP_CLASS, CH2_CLASS):
            for x in spaces[:3]:
                for y in spaces[:3]:
                    for z in spaces[:3]:
                        cm = cmap_space(y, z, cls)
                        prod, _ = product(x, y)
                        prod_core = cls.coreflect(prod)
                        for f in continuous_maps(prod_core, z):
                            g = transpose_cmap(f, x, y, z, cls, cmap=cm)
                            back = untranspose_cmap(g, x, y, z, cls, cmap=cm)
                            assert back == f
                            for h in (g, back):
                                checked = MapArrow(h.dom, h.cod, h.table)
                                assert h == checked
                                assert repr(h) == repr(checked)

    def test_currying_law_pointwise(self):
        # ev . (transpose(f) x 1) == f
        cls = SIERP_CLASS
        x = y = z = ORD_CHAIN2
        cm = cmap_space(y, z, cls)
        prod, _ = product(x, y)
        prod_core = cls.coreflect(prod)
        for f in continuous_maps(prod_core, z):
            g = transpose_cmap(f, x, y, z, cls, cmap=cm)
            for xl in x.carrier.labels:
                for yl in y.carrier.labels:
                    assert cm[1][g(xl)](yl) == f(f"({xl},{yl})")

    def test_transpose_of_evaluation_is_identity(self):
        cls = SIERP_CLASS
        y = z = ORD_CHAIN2
        cm_space_, by_label = cmap_space(y, z, cls)
        ev = untranspose_cmap(MapArrow.identity(cm_space_.carrier),
                              cm_space_, y, z, cls,
                              cmap=(cm_space_, by_label))
        again = transpose_cmap(ev, cm_space_, y, z, cls,
                               cmap=(cm_space_, by_label))
        assert again == MapArrow.identity(cm_space_.carrier)

    def test_non_class_continuous_slice_rejected(self):
        point = b_space(["*"], [[1]])
        prod, _ = product(point, ORD_CHAIN2)
        f = MapArrow(prod.carrier, ORD_CHAIN2.carrier,
                     {"(*,u)": "v", "(*,v)": "u"})
        with pytest.raises(StructuralError):
            transpose_cmap(f, point, ORD_CHAIN2, ORD_CHAIN2, SIERP_CLASS)

    def test_transposes_check_the_product_carrier(self):
        point = b_space(["*"], [[1]])
        cm = cmap_space(ORD_CHAIN2, ORD_CHAIN2, SIERP_CLASS)
        canonical = product(point, ORD_CHAIN2)[0].carrier
        swapped = product(ORD_CHAIN2, point)[0].carrier
        for f, message in (
                (MapArrow.constant(swapped, ORD_CHAIN2.carrier, "u"),
                 "transpose needs the canonical product carrier as domain"),
                (MapArrow.constant(canonical, point.carrier, "*"),
                 "transpose codomain mismatch")):
            with pytest.raises(CarrierMismatchError) as exc:
                transpose_cmap(f, point, ORD_CHAIN2, ORD_CHAIN2, SIERP_CLASS,
                               cmap=cm)
            assert str(exc.value) == message
        g = transpose_cmap(MapArrow.constant(canonical, ORD_CHAIN2.carrier,
                                             "v"),
                           point, ORD_CHAIN2, ORD_CHAIN2, SIERP_CLASS,
                           cmap=cm)
        back = untranspose_cmap(g, point, ORD_CHAIN2, ORD_CHAIN2, SIERP_CLASS,
                                cmap=cm)
        assert back.dom == canonical and set(back.graph()) == {"v"}
        with pytest.raises(CarrierMismatchError) as exc:
            untranspose_cmap(MapArrow.identity(point.carrier), point,
                             ORD_CHAIN2, ORD_CHAIN2, SIERP_CLASS, cmap=cm)
        assert str(exc.value) == "untranspose endpoints mismatch"


class TestSpecializationExpansion:
    def test_identity_monad_both_identity(self):
        for space in all_valid_spaces_upto(B, IM, 2):
            assert specialization(space) == space
            assert alexandroff_expansion(space, IM) == space

    def test_ultrafilter_round_trips(self):
        mu = finite_ultrafilter_monad()
        for q in (B, chain(3)):
            for space in all_valid_spaces_upto(q, mu, 2):
                assert alexandroff_expansion(specialization(space),
                                             mu) == space
            for vspace in all_valid_spaces_upto(q, IM, 2):
                assert specialization(
                    alexandroff_expansion(vspace, mu)) == vspace

    def test_expansion_preserves_continuity(self):
        mu = finite_ultrafilter_monad()
        spaces = list(all_valid_spaces_upto(B, IM, 2, include_empty=False))
        for x in spaces:
            for y in spaces:
                for f in continuous_maps(x, y):
                    assert is_continuous(f, alexandroff_expansion(x, mu),
                                         alexandroff_expansion(y, mu))


class TestAlexandroff:
    def test_every_preorder_is_alexandroff(self):
        for space in all_valid_spaces_upto(B, IM, 3):
            assert is_alexandroff(space)

    def test_sierpinski_is_alexandroff(self):
        assert is_alexandroff(sierpinski_space(B, IM))
        assert is_alexandroff(sierpinski_space(chain(4), IM))

    def test_residuation_square_for_chains(self):
        for n in (2, 3):
            q = chain(n)
            s = sierpinski_space(q, IM)
            squared, _ = product(s, s)
            assert is_alexandroff(squared)

    def test_metric_grid_alexandroff_check_runs(self):
        cp = cost_plus()
        grid = [cp.value(0), cp.value(1), cp.bottom]
        s = sierpinski_space(cp, IM, grid)
        assert is_alexandroff(s, grid=grid)


class TestProbeClassConstruction:
    def test_objects_must_share_quantale(self):
        from tvspaces.errors import CarrierMismatchError

        with pytest.raises(CarrierMismatchError):
            ProbeClass.explicit([b_space(["*"], [[1]]),
                                 discrete_space(Carrier(["*"]), IM,
                                                chain(3))])

    def test_needs_nonempty_object(self):
        from tvspaces.errors import PreconditionError

        with pytest.raises(PreconditionError):
            ProbeClass.explicit([discrete_space(Carrier([]), IM, B)])

    def test_invalid_object_rejected(self):
        from tvspaces.errors import PreconditionError

        c = Carrier(["x"])
        broken = Space(c, IM, B, VRel(c, c, B, [[B.bottom]]))
        with pytest.raises(PreconditionError):
            ProbeClass.explicit([broken])

    def test_duplicates_collapse(self):
        cls = ProbeClass.explicit([b_space(["*"], [[1]]),
                                   b_space(["x"], [[1]])])
        assert len(cls.objects) == 1


class TestCurryingNaturality:
    def test_natural_in_the_first_argument(self):
        # reindexing before currying equals composing after currying
        cls = CH2_CLASS
        y = z = ORD_CHAIN2
        cm = cmap_space(y, z, cls)
        xs = [b_space(["a", "b"], [[1, 1], [0, 1]]),
              b_space(["a", "b"], [[1, 0], [0, 1]])]
        for x in xs:
            for x_prime in xs:
                prod_x, _ = product(x, y)
                prod_xp, _ = product(x_prime, y)
                for h in continuous_maps(x_prime, x):
                    h_times_id = MapArrow(
                        prod_xp.carrier, prod_x.carrier,
                        {f"({a},{b})": f"({h(a)},{b})"
                         for a in x_prime.carrier.labels
                         for b in y.carrier.labels})
                    for f in continuous_maps(cls.coreflect(prod_x), z):
                        reindexed = h_times_id.then(f)
                        left = transpose_cmap(reindexed, x_prime, y, z,
                                              cls, cmap=cm)
                        right = h.then(
                            transpose_cmap(f, x, y, z, cls, cmap=cm))
                        assert left == right
