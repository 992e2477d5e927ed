import itertools
import os
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvspaces import BudgetExceededError, PreconditionError, bool2
from tvspaces.enumeration import all_valid_spaces_upto
from tvspaces.generation import ProbeClass, is_c_generated
from tvspaces.monad import identity_monad
from tvspaces.quantale import chain, lukasiewicz_grid
from tvspaces.quasi import (
    QuasiSpace,
    _joint_cover,
    associated_quasi,
    discrete_quasi,
    evaluation_quasi,
    exponential_quasi,
    indiscrete_quasi,
    initial_quasi,
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
    coproduct_many,
    copairing,
    discrete_space,
    final_structure,
    is_continuous,
)
from tvspaces.textio import parse_workspace
from tvspaces.vrel import Carrier, MapArrow, VRel

B = bool2()
IM = identity_monad()
CLS = ProbeClass.compact_hausdorff_upto(2, B, IM)
ONE, TWO = CLS.objects  # the singleton and the two-point discrete space


# -- the cover search, kept as the oracle of the joint-image test -------------

DEFAULT_ETA_BUDGET = 20_000


@dataclass(frozen=True)
class Cover:
    """A witnessed cover: the family plus the surjective comparison."""

    family: tuple
    eta: object

    def verify(self, alpha):
        """The triangle commutes and the comparison is onto."""
        if not self.eta.is_surjective():
            return False
        offset = 0
        for _, piece in self.family:
            for c in piece.dom.labels:
                if alpha(self.eta(f"{offset}:{c}")) != piece(c):
                    return False
            offset += 1
        return True


def is_covered(alpha, family, cls, eta_budget=DEFAULT_ETA_BUDGET):
    """Search for a surjective continuous comparison realizing a cover.

    ``alpha`` is a map out of a class object's carrier; ``family`` is a list
    of ``(space, map)`` pairs with the same codomain.  Returns the witness
    map out of the family coproduct, or None.  The candidate count is fiber
    constrained; exceeding ``eta_budget`` raises, which is distinct from a
    definitive negative.  The empty family covers only an empty class object.
    """
    target = next((obj for obj in cls.objects if obj.carrier == alpha.dom),
                  None)
    if target is None:
        raise PreconditionError("the covered map must start at a class object")
    for src, _ in family:
        if not any(src is obj or src.carrier == obj.carrier
                   and src == obj for obj in cls.objects):
            raise PreconditionError("family sources must be class objects")
    if not family:
        return (None if len(alpha.dom)
                else Cover((), MapArrow.identity(alpha.dom)))
    summed, _ = coproduct_many([src for src, _ in family])
    copair = copairing([f for _, f in family], summed.carrier)
    fibers = []
    for p in summed.carrier.labels:
        want = copair(p)
        fiber = [c for c in alpha.dom.labels if alpha(c) == want]
        if not fiber:
            return None
        fibers.append(fiber)
    count = 1
    for fiber in fibers:
        count *= len(fiber)
        if count > eta_budget:
            raise BudgetExceededError(
                f"cover search needs {count}+ candidate comparisons, "
                f"budget is {eta_budget}")
    for choice in itertools.product(*fibers):
        eta = MapArrow(summed.carrier, alpha.dom,
                       dict(zip(summed.carrier.labels, choice)))
        if not eta.is_surjective():
            continue
        if is_continuous(eta, summed, target):
            return Cover(tuple(family), eta)
    return None


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


def bounded_cover(quasi, i, alpha, cover_budget,
                  eta_budget=DEFAULT_ETA_BUDGET):
    """Search the families of at most ``cover_budget`` admissible maps for
    a cover of alpha; return the first :class:`Cover` or None, and whether
    a comparison search hit ``eta_budget``.  A cover needs at most |C|
    members, so at a budget of |C| the search is exact on a nonempty C: an
    oracle for the joint-image test."""
    cls = quasi.cls
    image = set(alpha.table.values())
    pool = []
    for j, obj in enumerate(cls.objects):
        for f in quasi.arrows(j):
            if set(f.table.values()) <= image:
                pool.append((obj, f))
    budget_hit = False
    for size in range(1, cover_budget + 1):
        for family in itertools.combinations_with_replacement(pool, size):
            if {y for _, f in family for y in f.table.values()} != image:
                continue
            try:
                cover = is_covered(alpha, list(family), cls, eta_budget)
            except BudgetExceededError:
                budget_hit = True
                continue
            if cover is not None:
                return cover, budget_hit
    return None, budget_hit


def bounded_saturation(carrier, cls):
    """The least structure, closed under covers found by
    :func:`bounded_cover` at budget |C|."""
    sets = [set() for _ in cls.objects]
    for i, obj in enumerate(cls.objects):
        for y in carrier.labels:
            sets[i].add(MapArrow.constant(obj.carrier, carrier, y).graph())
    changed = True
    while changed:
        changed = False
        for j, src in enumerate(cls.objects):
            for graph in list(sets[j]):
                alpha = MapArrow(src.carrier, carrier,
                                 dict(zip(src.carrier.labels, graph)))
                for i in range(len(cls.objects)):
                    for h in cls.homs(i, j):
                        g = h.then(alpha).graph()
                        if g not in sets[i]:
                            sets[i].add(g)
                            changed = True
        current = QuasiSpace(carrier, cls, sets, check_class=False)
        for i, obj in enumerate(cls.objects):
            for alpha in all_maps(obj.carrier, carrier):
                if alpha.graph() in sets[i]:
                    continue
                cover, _ = bounded_cover(current, i, alpha,
                                         len(obj.carrier))
                if cover is not None:
                    sets[i].add(alpha.graph())
                    changed = True
    return tuple(frozenset(s) for s in sets)


ORACLE_CLASSES = [ProbeClass.compact_hausdorff_upto(n, q, IM)
                  for q in (B, chain(3), lukasiewicz_grid(3)) for n in (2, 3)]


@st.composite
def random_quasi(draw):
    cls = draw(st.sampled_from(ORACLE_CLASSES))
    carrier = Carrier("xyz"[:draw(st.integers(1, 3))])
    sets = [[f.graph() for f in all_maps(obj.carrier, carrier)
             if draw(st.booleans())]
            for obj in cls.objects]
    return QuasiSpace(carrier, cls, sets)


class TestJointCover:
    @settings(max_examples=300, deadline=None)
    @given(quasi=random_quasi())
    def test_agrees_with_the_bounded_search(self, quasi):
        cls, carrier = quasi.cls, quasi.carrier
        for i, obj in enumerate(cls.objects):
            for alpha in all_maps(obj.carrier, carrier):
                if quasi.contains(i, alpha):
                    continue
                family = _joint_cover(quasi, i,
                                      tuple(carrier.indices(alpha.graph())))
                cover, budget_hit = bounded_cover(quasi, i, alpha,
                                                  len(obj.carrier))
                assert not budget_hit
                assert (family is None) == (cover is None)
                if family is None:
                    continue
                assert family == sorted(set(family))
                for j, g in family:
                    assert g in quasi.admissible[j]
                    assert any(h.then(alpha).graph() == g
                               for h in cls.homs(j, i))
                # the family lists distinct maps; a cover may use one twice,
                # so take one (j, h) with alpha.h in it per point of C
                pieces = []
                for c in obj.carrier.labels:
                    found = next(((j, h) for j, g in family
                                  for h in cls.homs(j, i)
                                  if c in h.table.values()
                                  and h.then(alpha).graph() == g), None)
                    assert found is not None
                    j, h = found
                    pieces.append((cls.objects[j], h.then(alpha)))
                witness = is_covered(alpha, pieces, cls)
                assert witness is not None and witness.verify(alpha)

    @pytest.mark.parametrize("cls, size", [
        (CLS, 1), (CLS, 2), (ORACLE_CLASSES[3], 2)])
    def test_discrete_quasi_is_the_bounded_saturation(self, cls, size):
        carrier = Carrier("xyz"[:size])
        assert discrete_quasi(carrier, cls).admissible == \
            bounded_saturation(carrier, cls)

    def test_cover_of_five_members_is_found(self):
        # only constants are admissible, so a bijection out of the discrete
        # 5-point object is covered by the five constant 1-point maps
        cls = ProbeClass.compact_hausdorff_upto(5, B, IM)
        carrier = Carrier("vwxyz")
        constants = [[MapArrow.constant(obj.carrier, carrier, y).graph()
                      for y in carrier.labels] for obj in cls.objects]
        big = len(cls.objects) - 1
        assert len(cls.objects[big].carrier) == 5
        report = validate_quasi(QuasiSpace(carrier, cls, constants))
        assert ("QS3-cover-closure",
                (big, tuple("vwxyz"), [(y,) for y in "vwxyz"])) \
            in report.violations
        # the bounded search misses it below five members
        point, five = cls.objects[0], cls.objects[big]
        pair = ProbeClass.explicit([point, five])
        quasi = QuasiSpace(carrier, pair, [constants[0], constants[big]])
        bijection = MapArrow(five.carrier, carrier,
                             dict(zip(five.carrier.labels, "vwxyz")))
        assert bounded_cover(quasi, 1, bijection, 4) == (None, False)
        assert bounded_cover(quasi, 1, bijection, 5)[0] is not None
        assert _joint_cover(quasi, 1, tuple(range(5))) == [
            (0, (y,)) for y in "vwxyz"]


class TestEmptyClassObject:
    """The empty family covers the empty map, so an empty class object's
    only map is admissible."""

    with open(os.path.join(os.path.dirname(__file__), "fixtures",
                           "workspace.txt"), encoding="utf-8") as fh:
        EMPTY = parse_workspace(fh.read()).space("Empty")
    POINT = discrete_space(Carrier(["o"]), EMPTY.monad, EMPTY.quantale)
    EMPTY_CLS = ProbeClass.explicit([EMPTY, POINT])

    def test_is_covered_by_the_empty_family(self):
        empty_map = MapArrow(self.EMPTY.carrier, Carrier(["p"]), {})
        cover = is_covered(empty_map, [], self.EMPTY_CLS)
        assert cover is not None and cover.family == ()
        assert cover.verify(empty_map)
        alpha = MapArrow.constant(TWO.carrier, Carrier(["p"]), "p")
        assert is_covered(alpha, [], CLS) is None

    def test_empty_map_into_an_empty_carrier_must_be_admissible(self):
        nothing = Carrier([])
        bare = QuasiSpace(nothing, self.EMPTY_CLS, [set(), set()])
        assert validate_quasi(bare).violations == (
            ("QS3-cover-closure", (0, (), [])),)
        least = discrete_quasi(nothing, self.EMPTY_CLS)
        assert least.admissible == (frozenset({()}), frozenset())
        assert validate_quasi(least).passed


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

    def test_class_objects_must_be_valid(self):
        # a point whose diagonal entry is below the unit, in a class that
        # takes its objects unchecked
        point = Carrier(["o"])
        bare = Space.from_square(point, IM, B,
                                 VRel(point, point, B, [[B.bottom]]))
        cls = ProbeClass._trusted([ONE, bare], "explicit")
        full = QuasiSpace(Carrier(["p"]), cls, [{("p",)}, {("p",)}],
                          check_class=False)
        assert validate_quasi(full).violations == (
            ("class-compact-hausdorff", (1,)), ("class-object-valid", (1,)))


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

    def test_report_lists_each_failing_pullback_in_order(self):
        from tvspaces.quasi import class_closure_report

        # one entry per failing pair (h, g), so (i, j, k) may repeat
        pullbacks = [(0, 0, 1)] * 2 + [(0, 1, 1)] * 2 + [(1, 0, 1)] * 2 \
            + [(1, 1, 0)] + [(1, 1, 1)] * 4
        report = class_closure_report(ProbeClass.explicit([ONE, TWO]))
        assert report.violations == (("product-closure", (1, 1)),) + tuple(
            ("pullback-closure", ijk) for ijk in pullbacks)

    def test_report_on_the_discrete_three_point_class(self):
        from tvspaces.enumeration import standard_carrier
        from tvspaces.quasi import class_closure_report

        # its product has 9 points, and 405 of the 27 x 27 pullbacks of
        # its maps have other than 3 points; the keys of those discrete
        # spaces take one order each, where they took up to 9! of them
        cls = ProbeClass.explicit([discrete_space(standard_carrier(3), IM,
                                                  B)])
        report = class_closure_report(cls)
        assert len(report.violations) == 406
        assert report.violations == (("product-closure", (0, 0)),) + (
            ("pullback-closure", (0, 0, 0)),) * 405

    def test_report_is_computed_once_per_class(self, monkeypatch):
        from tvspaces import quasi as quasi_module

        real, calls = quasi_module.product, []
        monkeypatch.setattr(quasi_module, "product",
                            lambda a, b: calls.append((a, b)) or real(a, b))
        cls = ProbeClass.explicit([ONE, TWO])
        quasi = indiscrete_quasi(Carrier(["p"]), cls)
        first = validate_quasi(quasi)
        assert len(calls) == 4
        assert validate_quasi(quasi) == first and len(calls) == 4
        report = quasi_module.class_closure_report(cls)
        assert first.notes == (
            f"class closure gaps: {report.violations[:3]}",)
        assert report.violations == quasi_module.class_closure_report(
            ProbeClass.explicit([ONE, TWO])).violations

    def test_sierpinski_class_is_checked_like_its_explicit_class(self):
        """Only a compact-Hausdorff window is taken as closed: the
        Sierpinski class reports the gaps of the explicit class on its one
        object, and the exponential refuses it."""
        from tvspaces.quasi import class_closure_report
        from tvspaces.space import sierpinski_space

        sierp = ProbeClass.sierpinski(B, IM)
        report = class_closure_report(sierp)
        assert report == class_closure_report(
            ProbeClass.explicit([sierpinski_space(B, IM)]))
        assert report.violations[0] == ("product-closure", (0, 0))
        assert any(kind == "pullback-closure"
                   for kind, _ in report.violations)
        quasi = QuasiSpace(Carrier(["p"]), sierp, [{("p", "p")}],
                           check_class=False)
        with pytest.raises(PreconditionError) as exc:
            exponential_quasi(quasi, quasi)
        assert str(exc.value).startswith(
            "class is not closed under products/pullbacks: "
            "(('product-closure', (0, 0))")

    def test_validation_reads_the_class_memo(self, monkeypatch):
        """Two validations on one class check each object once and search
        the class maps between two objects once per pair."""
        from tvspaces import generation
        from tvspaces import quasi as quasi_module

        calls = []
        for module, name in ((quasi_module, "is_compact"),
                             (quasi_module, "validate_space"),
                             (generation, "_continuous_images")):
            def counted(*args, fn=getattr(module, name), name=name):
                calls.append((name, *map(id, args)))
                return fn(*args)
            monkeypatch.setattr(module, name, counted)
        cls = ProbeClass.explicit([ONE, TWO])
        c = Carrier(["p", "q"])
        constants = [{(y,) * len(obj.carrier) for y in c.labels}
                     for obj in cls.objects]
        quasi = QuasiSpace(c, cls, constants, check_class=False)
        first = validate_quasi(quasi)
        assert any(kind == "QS3-cover-closure"
                   for kind, _ in first.violations)
        assert validate_quasi(quasi) == first
        ids = [id(obj) for obj in cls.objects]
        assert sorted(calls) == sorted(
            [("is_compact", i) for i in ids]
            + [("validate_space", i) for i in ids]
            + [("_continuous_images", i, j) for i in ids for j in ids])

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
