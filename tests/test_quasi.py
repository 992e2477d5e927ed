import pytest

from tvspaces import BudgetExceededError, PreconditionError, bool2
from tvspaces.enumeration import all_valid_spaces_upto
from tvspaces.generation import ProbeClass, is_c_generated
from tvspaces.monad import identity_monad
from tvspaces.quasi import (
    QuasiSpace,
    associated_quasi,
    discrete_quasi,
    evaluation_quasi,
    exponential_quasi,
    indiscrete_quasi,
    initial_quasi,
    is_covered,
    is_quasi_continuous,
    product_quasi,
    quasi_continuous_maps,
    quotient_quasi,
    reflect_to_cgenerated,
    subspace_quasi,
    transpose_quasi,
    validate_quasi,
)
from tvspaces.space import (
    Space,
    all_maps,
    continuous_maps,
    discrete_space,
    final_structure,
)
from tvspaces.vrel import Carrier, MapArrow, VRel

B = bool2()
IM = identity_monad()
CLS = ProbeClass.compact_hausdorff_upto(2, B, IM)
ONE, TWO = CLS.objects  # the singleton and the two-point discrete space


def b_space(labels, raw):
    c = Carrier(labels)
    sq = VRel(c, c, B, [[B.top if x else B.bottom for x in row]
                        for row in raw])
    return Space.from_square(c, IM, B, sq)


class TestCovers:
    def test_every_map_covered_by_itself(self):
        x = Carrier(["p", "q"])
        alpha = MapArrow(TWO.carrier, x, {"a": "p", "b": "q"})
        cover = is_covered(alpha, [(TWO, alpha)], CLS)
        assert cover is not None
        assert cover.eta.is_surjective()
        assert cover.verify(alpha)

    def test_wrong_images_cannot_cover(self):
        x = Carrier(["p", "q"])
        alpha = MapArrow(TWO.carrier, x, {"a": "p", "b": "q"})
        wrong = MapArrow.constant(TWO.carrier, x, "p")
        assert is_covered(alpha, [(TWO, wrong), (TWO, wrong)], CLS) is None

    def test_discrete_pair_split_into_points(self):
        x = Carrier(["p", "q"])
        alpha = MapArrow(TWO.carrier, x, {"a": "p", "b": "q"})
        family = [(ONE, MapArrow.constant(ONE.carrier, x, "p")),
                  (ONE, MapArrow.constant(ONE.carrier, x, "q"))]
        cover = is_covered(alpha, family, CLS)
        assert cover is not None and cover.verify(alpha)

    def test_budget_exceeded_is_distinct_from_false(self):
        x = Carrier(["p"])
        alpha = MapArrow.constant(TWO.carrier, x, "p")
        family = [(TWO, alpha), (TWO, alpha)]
        with pytest.raises(BudgetExceededError):
            is_covered(alpha, family, CLS, eta_budget=3)


class TestValidate:
    def test_associated_passes(self):
        for space in all_valid_spaces_upto(B, IM, 2, include_empty=False):
            report = validate_quasi(associated_quasi(space, CLS))
            assert report.passed

    def test_discrete_and_indiscrete_pass(self):
        carrier = Carrier(["p", "q", "r"])
        assert validate_quasi(discrete_quasi(carrier, CLS)).passed
        assert validate_quasi(indiscrete_quasi(carrier, CLS)).passed

    def test_missing_constant_is_a_qs1_violation(self):
        carrier = Carrier(["p", "q"])
        bare = QuasiSpace(carrier, CLS, [set(), set()])
        report = validate_quasi(bare)
        assert not report.passed
        assert report.violations[0][0] == "QS1-constants"

    def test_class_objects_must_be_compact_hausdorff(self):
        sierp_cls = ProbeClass.sierpinski(B, IM)
        with pytest.raises(PreconditionError):
            QuasiSpace(Carrier(["p"]), sierp_cls, [set()])


class TestAssociated:
    def test_everything_is_admissible_over_discrete_generators(self):
        x = b_space(["p", "q"], [[1, 1], [0, 1]])
        quasi = associated_quasi(x, CLS)
        for i, obj in enumerate(CLS.objects):
            assert len(quasi.admissible[i]) == \
                len(x.carrier) ** len(obj.carrier)
            arrows = quasi.arrows(i)
            assert [f.graph() for f in arrows] == sorted(quasi.admissible[i])
            for f in arrows:
                checked = MapArrow(f.dom, f.cod, f.table)
                assert f == checked and repr(f) == repr(checked)

    def test_identity_is_admissible_on_class_objects(self):
        quasi = associated_quasi(TWO, CLS)
        assert quasi.contains(1, MapArrow.identity(TWO.carrier))

    def test_admissible_equals_quasi_continuous_on_class_objects(self):
        # maps out of an associated class object: admissible == Qs == Cat
        target = associated_quasi(b_space(["p", "q"], [[1, 1], [0, 1]]), CLS)
        source = associated_quasi(TWO, CLS)
        quasi_maps = {f.graph()
                      for f in quasi_continuous_maps(source, target)}
        admissible = set(target.admissible[1])
        continuous = {f.graph()
                      for f in continuous_maps(
                          TWO, b_space(["p", "q"], [[1, 1], [0, 1]]))}
        assert quasi_maps == admissible == continuous


class TestQuasiContinuity:
    def test_identity(self):
        quasi = indiscrete_quasi(Carrier(["p", "q"]), CLS)
        assert is_quasi_continuous(MapArrow.identity(quasi.carrier),
                                   quasi, quasi)

    def test_out_of_discrete_and_into_indiscrete(self):
        dq = discrete_quasi(Carrier(["p", "q"]), CLS)
        iq = indiscrete_quasi(Carrier(["x", "y", "z"]), CLS)
        targets = [iq, indiscrete_quasi(Carrier(["w"]), CLS),
                   discrete_quasi(Carrier(["x", "y"]), CLS)]
        for target in targets:
            for f in all_maps(dq.carrier, target.carrier):
                assert is_quasi_continuous(f, dq, target)
        for source in targets:
            for f in all_maps(source.carrier, iq.carrier):
                assert is_quasi_continuous(f, source, iq)


class TestConstructions:
    def test_subspace_on_full_carrier(self):
        quasi = indiscrete_quasi(Carrier(["p", "q"]), CLS)
        sub, _ = subspace_quasi(quasi, ["p", "q"])
        assert sub.admissible == quasi.admissible

    def test_product_of_indiscrete_is_indiscrete(self):
        a = indiscrete_quasi(Carrier(["p", "q"]), CLS)
        b = indiscrete_quasi(Carrier(["x"]), CLS)
        prod, _ = product_quasi([a, b])
        expected = indiscrete_quasi(prod.carrier, CLS)
        assert prod.admissible == expected.admissible

    def test_quotient_requires_surjection(self):
        quasi = indiscrete_quasi(Carrier(["p", "q"]), CLS)
        into = MapArrow.constant(quasi.carrier, Carrier(["x", "y"]), "x")
        with pytest.raises(PreconditionError):
            quotient_quasi(quasi, into)

    def test_quotient_of_associated_matches_both_routes(self):
        # quotient the quasi-structure, or quotient the space and associate:
        # the two routes agree on the battery
        spaces = list(all_valid_spaces_upto(B, IM, 2, include_empty=False))
        for x in spaces:
            quasi = associated_quasi(x, CLS)
            point = Carrier(["*"])
            collapse = MapArrow.constant(x.carrier, point, "*")
            route_one = quotient_quasi(quasi, collapse)
            quotient_space = final_structure(point, [(collapse, x)], IM, B)
            route_two = associated_quasi(quotient_space, CLS)
            assert route_one.admissible == route_two.admissible

    def test_quotient_map_is_final(self):
        x = b_space(["p", "q"], [[1, 1], [0, 1]])
        quasi = associated_quasi(x, CLS)
        point = Carrier(["*"])
        collapse = MapArrow.constant(x.carrier, point, "*")
        quotient = quotient_quasi(quasi, collapse)
        targets = [indiscrete_quasi(Carrier(["x", "y"]), CLS),
                   discrete_quasi(Carrier(["x", "y"]), CLS)]
        for z in targets:
            for g in all_maps(point, z.carrier):
                through = collapse.then(g)
                assert is_quasi_continuous(g, quotient, z) == \
                    is_quasi_continuous(through, quasi, z)

    def test_initial_universal_property(self):
        # topologicity: quasi-continuity into the lifting is componentwise
        a = indiscrete_quasi(Carrier(["p", "q"]), CLS)
        b = discrete_quasi(Carrier(["x"]), CLS)
        carrier = Carrier(["m", "n"])
        f1 = MapArrow(carrier, a.carrier, {"m": "p", "n": "q"})
        f2 = MapArrow.constant(carrier, b.carrier, "x")
        lifted = initial_quasi(carrier, [(f1, a), (f2, b)], CLS)
        assert validate_quasi(lifted).passed
        for w in (indiscrete_quasi(Carrier(["w1", "w2"]), CLS),
                  discrete_quasi(Carrier(["w1"]), CLS)):
            for g in all_maps(w.carrier, carrier):
                direct = is_quasi_continuous(g, w, lifted)
                split = (is_quasi_continuous(g.then(f1), w, a)
                         and is_quasi_continuous(g.then(f2), w, b))
                assert direct == split

    def test_empty_product_is_singleton(self):
        singleton, _ = product_quasi([], CLS)
        assert len(singleton.carrier) == 1
        assert all(len(s) == 1 for s in singleton.admissible)


class TestExponential:
    def test_power_by_singleton(self):
        y = indiscrete_quasi(Carrier(["p", "q"]), CLS)
        one, _ = product_quasi([], CLS)
        exp, by_label = exponential_quasi(one, y)
        assert len(exp.carrier) == len(y.carrier)
        for i in range(len(CLS.objects)):
            assert len(exp.admissible[i]) == len(y.admissible[i])

    def test_transpose_of_evaluation_is_identity(self):
        x = indiscrete_quasi(Carrier(["p", "q"]), CLS)
        y = indiscrete_quasi(Carrier(["x", "y"]), CLS)
        exp, by_label = exponential_quasi(x, y)
        prod, ev = evaluation_quasi(exp, by_label, x, y)
        again = transpose_quasi(ev, exp, x, y, exp=(exp, by_label))
        assert again == MapArrow.identity(exp.carrier)

    def test_evaluation_quasi_continuous(self):
        x = indiscrete_quasi(Carrier(["p", "q"]), CLS)
        y = indiscrete_quasi(Carrier(["x", "y"]), CLS)
        exp, by_label = exponential_quasi(x, y)
        prod, ev = evaluation_quasi(exp, by_label, x, y)
        assert is_quasi_continuous(ev, prod, y)


class TestReflection:
    def test_reflect_recovers_generated_spaces(self):
        for space in all_valid_spaces_upto(B, IM, 2, include_empty=False):
            if not is_c_generated(space, CLS):
                continue
            assert reflect_to_cgenerated(associated_quasi(space, CLS)) \
                == space

    def test_discrete_quasi_reflects_to_discrete_space(self):
        carrier = Carrier(["p", "q"])
        reflected = reflect_to_cgenerated(discrete_quasi(carrier, CLS))
        assert reflected == discrete_space(carrier, IM, B)

    def test_indiscrete_quasi_reflects_to_discrete_space(self):
        carrier = Carrier(["p", "q"])
        reflected = reflect_to_cgenerated(indiscrete_quasi(carrier, CLS))
        assert reflected == discrete_space(carrier, IM, B)

    def test_reflection_is_generated_and_unit_quasi_continuous(self):
        for space in all_valid_spaces_upto(B, IM, 2, include_empty=False):
            quasi = associated_quasi(space, CLS)
            reflected = reflect_to_cgenerated(quasi)
            assert is_c_generated(reflected, CLS)
            unit = MapArrow.identity(quasi.carrier)
            assert is_quasi_continuous(unit, quasi,
                                       associated_quasi(reflected, CLS))

    def test_universal_property(self):
        # quasi-continuous maps into an associated generated space are
        # continuous out of the reflection
        target_space = discrete_space(Carrier(["x", "y"]), IM, B)
        target = associated_quasi(target_space, CLS)
        for space in all_valid_spaces_upto(B, IM, 2, include_empty=False):
            quasi = associated_quasi(space, CLS)
            reflected = reflect_to_cgenerated(quasi)
            from tvspaces.space import is_continuous

            for f in all_maps(quasi.carrier, target.carrier):
                assert is_quasi_continuous(f, quasi, target) == \
                    is_continuous(f, reflected, target_space)


class TestClassClosure:
    def test_compact_hausdorff_mode_reports_clean(self):
        from tvspaces.quasi import class_closure_report

        report = class_closure_report(CLS)
        assert report.passed and report.notes

    def test_explicit_class_missing_products_is_reported(self):
        from tvspaces.quasi import class_closure_report

        cls = ProbeClass.explicit([TWO])
        report = class_closure_report(cls)
        assert not report.passed
        assert report.violations[0][0] == "product-closure"

    def test_exponential_rejects_unclosed_explicit_class(self):
        cls = ProbeClass.explicit([TWO])
        quasi = indiscrete_quasi(Carrier(["p"]), cls)
        with pytest.raises(PreconditionError):
            exponential_quasi(quasi, quasi)

    def test_closed_explicit_class_accepted(self):
        from tvspaces.quasi import class_closure_report

        cls = ProbeClass.explicit([ONE])
        assert class_closure_report(cls).passed
        quasi = indiscrete_quasi(Carrier(["p", "q"]), cls)
        exp, _ = exponential_quasi(quasi, quasi)
        assert len(exp.carrier) == 4
