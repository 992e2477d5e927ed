"""Built-in law batteries: every lemma and property check at desk scale.

Each battery returns a :class:`SuiteResult`; the ``full`` level runs the
scopes used by the acceptance tests, ``fast`` trims sizes and sample counts.
All randomness is seeded, so reports are byte-identical across runs.
"""

import io
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .enumeration import (
    all_valid_spaces_upto,
    standard_carrier,
)
from .generation import (
    ProbeClass,
    alexandroff_expansion,
    cmap_space,
    is_alexandroff,
    is_c_continuous,
    is_c_generated,
    specialization,
    transpose_cmap,
    untranspose_cmap,
)
from .monad import finite_ultrafilter_monad, identity_monad
from .quantale import (
    bool2,
    chain,
    cost_max,
    cost_plus,
    finite_table,
    generated_values,
    lukasiewicz_grid,
    validate_quantale,
)
from .quasi import (
    associated_quasi,
    discrete_quasi,
    evaluation_quasi,
    exponential_quasi,
    indiscrete_quasi,
    is_quasi_continuous,
    product_quasi,
    quasi_continuous_maps,
    reflect_to_cgenerated,
    transpose_quasi,
    validate_quasi,
)
from .space import (
    Space,
    all_maps,
    continuous_maps,
    discrete_space,
    indiscrete_space,
    is_compact,
    is_continuous,
    is_hausdorff,
    product,
    sierpinski_space,
    validate_space,
)
from .vrel import (
    MapArrow,
    VRel,
    compose,
    identity_rel,
    reflexive_transitive_closure,
    rel_join,
    rel_leq,
)


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures

    def check(self, condition, message):
        self.checks += 1
        if not condition:
            self.failures.append(message)


# -- shared helpers -------------------------------------------------------------


def non_integral_quantale():
    """A three-chain whose unit is the middle element; all other laws hold."""
    labels = ("bot", "k", "top")
    leq = [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    tensor = [[0, 0, 0], [0, 1, 2], [0, 2, 2]]
    return finite_table(labels, leq, tensor, unit_index=1)


def random_value(q, rng):
    if q.is_finite:
        return rng.choice(q.carrier_values())
    if rng.random() < 0.2:
        return q.bottom
    return q.value(Fraction(rng.randint(0, 8), rng.choice((1, 1, 2, 4))))


def random_square(q, rng, size):
    carrier = standard_carrier(size)
    entries = [[random_value(q, rng) for _ in range(size)]
               for _ in range(size)]
    return VRel(carrier, carrier, q, entries)


def random_space(q, monad, rng, max_size=3):
    size = rng.randint(1, max_size)
    sq = reflexive_transitive_closure(random_square(q, rng, size))
    return Space.from_square(standard_carrier(size), monad, q, sq)


def naive_closure(r):
    """Fixed-point iteration ``b <- b v b.b`` from the reflexivized start."""
    b = rel_join(r, identity_rel(r.dom, r.quantale))
    while True:
        nxt = rel_join(b, compose(b, b))
        if nxt == b:
            return b
        b = nxt


def _finite_battery_quantales():
    return [bool2(), chain(3)]


# -- criterion 1: quantale laws ---------------------------------------------------


def battery_quantale_laws(level="full"):
    result = SuiteResult("quantale-laws")
    chain_sizes = range(2, 6) if level == "full" else range(2, 4)
    finite = [bool2(), lukasiewicz_grid(4)] + [chain(n) for n in chain_sizes]
    for q in finite:
        report = validate_quantale(q)
        result.checks += len(q.carrier_values()) ** 3
        result.check(report.passed,
                     f"{q.describe()}: {report.violations[:3]}")
        result.check(q.integral, f"{q.describe()} should be integral")
        result.check(q.lean, f"{q.describe()} should be lean")
        result.check(q.totally_ordered,
                     f"{q.describe()} should be totally ordered")
        # integral quantales sit below the meet
        for u in q.carrier_values():
            for v in q.carrier_values():
                result.check(q.leq(q.tensor(u, v), q.meet(u, v)),
                             f"{q.describe()}: tensor above meet at "
                             f"({u}, {v})")

    grid = lukasiewicz_grid(10)
    for u in grid.carrier_values():
        for v in grid.carrier_values():
            result.check(grid.tensor(u, v) in grid.carrier_values(),
                         "grid not closed under tensor")
            result.check(grid.join2(u, v) in grid.carrier_values(),
                         "grid not closed under join")

    samples = 2000 if level == "full" else 200
    rng = random.Random(1009)
    for q in (cost_plus(), cost_max()):
        for _ in range(samples):
            u, v, w = (random_value(q, rng) for _ in range(3))
            left = q.leq(q.tensor(u, v), w)
            right = q.leq(u, q.hom(v, w))
            result.check(left == right,
                         f"{q.kind}: adjunction fails at ({u}, {v}, {w})")
            subalgebra = generated_values(q, [v, w])
            brute = q.join(x for x in subalgebra
                           if q.leq(q.tensor(x, v), w))
            result.check(q.eq(brute, q.hom(v, w)),
                         f"{q.kind}: closed-form hom differs from brute "
                         f"force at ({v}, {w})")
    return result


# -- criterion 2: closure oracle ---------------------------------------------------


def battery_closure_oracle(level="full"):
    result = SuiteResult("closure-oracle")
    count = 200 if level == "full" else 50
    rng = random.Random(1013)
    for q in (bool2(), chain(4), lukasiewicz_grid(4), cost_plus()):
        for _ in range(count):
            r = random_square(q, rng, rng.randint(1, 6))
            fw = reflexive_transitive_closure(r)
            result.check(fw == naive_closure(r),
                         f"{q.describe()}: closure mismatch on {r!r}")
    return result


# -- criterion 3: the constant-maps condition --------------------------------------


def battery_constant_maps(level="full"):
    result = SuiteResult("constant-maps")
    monad = identity_monad()
    max_size = 3 if level == "full" else 2
    for q in _finite_battery_quantales():
        spaces = list(all_valid_spaces_upto(q, monad, max_size))
        for x_space in spaces:
            for y_space in spaces:
                for y0 in y_space.carrier.labels:
                    const = MapArrow.constant(x_space.carrier,
                                              y_space.carrier, y0)
                    result.check(
                        is_continuous(const, x_space, y_space),
                        f"{q.describe()}: constant {y0} discontinuous")

    nonint = non_integral_quantale()
    report = validate_quantale(nonint)
    result.check(report.passed, f"test quantale invalid: {report.violations}")
    result.check(not nonint.integral, "test quantale should not be integral")
    one = standard_carrier(1)
    top_space = indiscrete_space(one, monad, nonint)
    unit_space = Space.from_square(
        one, monad, nonint,
        VRel(one, one, nonint, [[nonint.unit]]))
    result.check(validate_space(top_space).passed
                 and validate_space(unit_space).passed,
                 "witness spaces over the non-integral quantale invalid")
    const = MapArrow.constant(one, one, "a")
    result.check(not is_continuous(const, top_space, unit_space),
                 "expected a constant discontinuity over the non-integral "
                 "quantale")
    return result


# -- criterion 4: compact Hausdorff = discrete --------------------------------------


def battery_compact_hausdorff_discrete(level="full"):
    result = SuiteResult("compact-hausdorff-discrete")
    monad = identity_monad()
    max_size = 3 if level == "full" else 2
    for q in _finite_battery_quantales():
        for space in all_valid_spaces_upto(q, monad, max_size):
            expected = space.structure == discrete_space(
                space.carrier, monad, q).structure
            got = is_compact(space) and is_hausdorff(space)
            result.check(got == expected,
                         f"{q.describe()}: CH/discrete mismatch on "
                         f"{space.structure!r}")
    return result


# -- criteria 5 and 6: coreflection and the collapse to Set --------------------------


def _coreflection_quantales():
    return [bool2(), chain(3), lukasiewicz_grid(4), cost_plus()]


def battery_coreflection(level="full"):
    result = SuiteResult("coreflection")
    monad = identity_monad()
    count = 100 if level == "full" else 25
    rng = random.Random(1019)
    for q in _coreflection_quantales():
        cls = ProbeClass.compact_hausdorff_upto(2, q, monad)
        previous = None
        for _ in range(count):
            space = random_space(q, monad, rng, max_size=3)
            core = cls.coreflect(space)
            result.check(rel_leq(core.structure, space.structure),
                         f"{q.describe()}: coreflection not below")
            result.check(cls.coreflect(core) == core,
                         f"{q.describe()}: coreflection not idempotent")
            result.check(validate_space(core).passed,
                         f"{q.describe()}: coreflection invalid")
            if previous is not None:
                for f in continuous_maps(previous, space):
                    result.check(
                        is_continuous(f, previous, core),
                        f"{q.describe()}: factorization through the "
                        "coreflection fails")
            previous = core
    return result


def battery_vcat_set(level="full"):
    result = SuiteResult("compactly-generated-collapse")
    monad = identity_monad()
    count = 100 if level == "full" else 25
    rng = random.Random(1021)
    for q in _coreflection_quantales():
        cls = ProbeClass.compact_hausdorff_upto(2, q, monad)
        spaces = [random_space(q, monad, rng, max_size=3)
                  for _ in range(count)]
        if q.is_finite:
            spaces.extend(all_valid_spaces_upto(q, monad, 2,
                                                include_empty=False))
        for space in spaces:
            core = cls.coreflect(space)
            discrete = discrete_space(space.carrier, monad, q)
            result.check(core.structure == discrete.structure,
                         f"{q.describe()}: coreflection is not discrete")
    return result


# -- criterion 7: cartesian closedness of the function space -------------------------


def battery_cmap_cartesian_closed(level="full"):
    result = SuiteResult("cmap-cartesian-closed")
    monad = identity_monad()
    max_size = 2 if level == "full" else 1
    for q in _finite_battery_quantales():
        spaces = list(all_valid_spaces_upto(q, monad, max_size))
        classes = [ProbeClass.sierpinski(q, monad),
                   ProbeClass.compact_hausdorff_upto(2, q, monad)]
        for cls in classes:
            cmap_cache = {}
            prod_cache = {}

            def get_cmap(y, z):
                key = (y, z)
                if key not in cmap_cache:
                    cmap_cache[key] = cmap_space(y, z, cls)
                return cmap_cache[key]

            def get_product(x, y):
                key = (x, y)
                if key not in prod_cache:
                    prod_cache[key] = product(x, y)[0]
                return prod_cache[key]

            for y_space in spaces:
                for z_space in spaces:
                    cm, by_label = get_cmap(y_space, z_space)
                    # evaluation is class-continuous
                    if len(cm.carrier) and len(y_space.carrier):
                        ev_prod = get_product(cm, y_space)
                        ev = untranspose_cmap(
                            MapArrow.identity(cm.carrier), cm, y_space,
                            z_space, cls, cmap=(cm, by_label))
                        result.check(
                            is_continuous(ev, cls.coreflect(ev_prod),
                                          z_space),
                            f"{q.describe()}/{cls.spec_token()}: evaluation "
                            "not class-continuous")
                    for x_space in spaces:
                        prod_space = get_product(x_space, y_space)
                        prod_core = cls.coreflect(prod_space)
                        x_core = cls.coreflect(x_space)
                        f_set = {f.images: f for f in
                                 continuous_maps(prod_core, z_space)}
                        g_all = {g.images for g in
                                 continuous_maps(x_core, cm)}
                        transposed = set()
                        for f in f_set.values():
                            g = transpose_cmap(f, x_space, y_space, z_space,
                                               cls, cmap=(cm, by_label))
                            result.check(g.images in g_all,
                                         "transpose not class-continuous")
                            back = untranspose_cmap(g, x_space, y_space,
                                                    z_space, cls,
                                                    cmap=(cm, by_label))
                            result.check(back == f,
                                         "untranspose . transpose != id")
                            transposed.add(g.images)
                        result.check(
                            transposed == g_all,
                            f"{q.describe()}/{cls.spec_token()}: currying "
                            f"is not a bijection at sizes "
                            f"({len(x_space.carrier)},{len(y_space.carrier)},"
                            f"{len(z_space.carrier)})")
                        if f_set:
                            # every map out of the coreflection passes the
                            # probe-by-probe test, which is_c_continuous
                            # no longer runs
                            probes = cls.probes_into(prod_space)
                            probe_f = next(iter(f_set.values()))
                            result.check(
                                is_c_continuous(probe_f, prod_space, z_space,
                                                cls)
                                and all(is_continuous(p.then(f), src, z_space)
                                        for f in f_set.values()
                                        for p, src in probes),
                                "probewise class-continuity disagrees")
    return result


# -- criterion 8: Alexandroff spaces -------------------------------------------------


def battery_alexandroff(level="full"):
    result = SuiteResult("alexandroff")
    monad = identity_monad()
    max_size = 4 if level == "full" else 3
    for space in all_valid_spaces_upto(bool2(), monad, max_size):
        result.check(is_alexandroff(space),
                     f"preordered space not Alexandroff: {space.structure!r}")

    chain_sizes = (2, 3, 4) if level == "full" else (2, 3)
    for n in chain_sizes:
        q = chain(n)
        sierp = sierpinski_space(q, monad)
        squared, _ = product(sierp, sierp)
        result.check(is_alexandroff(squared),
                     f"residuation square over chain({n}) not Alexandroff")

    ultra = finite_ultrafilter_monad()
    for q in _finite_battery_quantales():
        for space in all_valid_spaces_upto(q, ultra, 3):
            back = alexandroff_expansion(specialization(space), ultra)
            result.check(back == space,
                         f"{q.describe()}: expansion . specialization != id")
        for vspace in all_valid_spaces_upto(q, monad, 3):
            back = specialization(alexandroff_expansion(vspace, ultra))
            result.check(back == vspace,
                         f"{q.describe()}: specialization . expansion != id")
    return result


# -- criterion 9: quasi axioms and the adjoint chain ---------------------------------


def battery_quasi_adjoints(level="full"):
    result = SuiteResult("quasi-axioms-adjoints")
    monad = identity_monad()
    max_size = 3 if level == "full" else 2
    for q in _finite_battery_quantales():
        cls = ProbeClass.compact_hausdorff_upto(2, q, monad)
        quasi_battery = []
        for space in all_valid_spaces_upto(q, monad, 2):
            quasi_battery.append(associated_quasi(space, cls))
        for size in range(0, max_size + 1):
            carrier = standard_carrier(size)
            quasi_battery.append(discrete_quasi(carrier, cls))
            quasi_battery.append(indiscrete_quasi(carrier, cls))
        for quasi in quasi_battery:
            report = validate_quasi(quasi)
            result.check(report.passed,
                         f"{q.describe()}: battery quasi-structure invalid: "
                         f"{report.violations[:2]}")

        # D -| |-| -| I by enumeration
        for size in range(0, max_size + 1):
            carrier = standard_carrier(size)
            dq = discrete_quasi(carrier, cls)
            iq = indiscrete_quasi(carrier, cls)
            for target in quasi_battery:
                everything = {f.images
                              for f in all_maps(carrier, target.carrier)}
                got = {f.images
                       for f in quasi_continuous_maps(dq, target)}
                result.check(got == everything,
                             f"{q.describe()}: D adjunction fails at "
                             f"size {size}")
                everything = {f.images
                              for f in all_maps(target.carrier, carrier)}
                got = {f.images
                       for f in quasi_continuous_maps(target, iq)}
                result.check(got == everything,
                             f"{q.describe()}: I adjunction fails at "
                             f"size {size}")

        singleton, _ = product_quasi([], cls)
        result.check(all(len(s) == 1 for s in singleton.admissible),
                     f"{q.describe()}: singleton quasi-space admits more "
                     "than the unique map")
    return result


# -- criterion 10: quasi-space cartesian closedness ----------------------------------


def battery_quasi_cartesian_closed(level="full"):
    result = SuiteResult("quasi-cartesian-closed")
    monad = identity_monad()
    max_size = 2 if level == "full" else 1
    for q in _finite_battery_quantales():
        cls = ProbeClass.compact_hausdorff_upto(2, q, monad)
        battery = []
        seen = set()
        for space in all_valid_spaces_upto(q, monad, max_size):
            quasi = associated_quasi(space, cls)
            key = (quasi.carrier.labels, quasi.admissible)
            if key not in seen:
                seen.add(key)
                battery.append(quasi)
        for size in range(0, max_size + 1):
            for quasi in (discrete_quasi(standard_carrier(size), cls),
                          indiscrete_quasi(standard_carrier(size), cls)):
                key = (quasi.carrier.labels, quasi.admissible)
                if key not in seen:
                    seen.add(key)
                    battery.append(quasi)
        for qx in battery:
            for qy in battery:
                exp, by_label = exponential_quasi(qx, qy)
                prod, ev = evaluation_quasi(exp, by_label, qx, qy)
                result.check(is_quasi_continuous(ev, prod, qy),
                             f"{q.describe()}: evaluation not "
                             "quasi-continuous")
                for qz in battery:
                    zprod, _ = product_quasi([qz, qx])
                    f_graphs = {}
                    for f in quasi_continuous_maps(zprod, qy):
                        f_graphs[f.images] = f
                    g_graphs = {g.images
                                for g in quasi_continuous_maps(qz, exp)}
                    transposed = set()
                    for f in f_graphs.values():
                        g = transpose_quasi(f, qz, qx, qy,
                                            exp=(exp, by_label))
                        result.check(g.images in g_graphs,
                                     "quasi transpose not quasi-continuous")
                        back = MapArrow._from_images(
                            zprod.carrier, qy.carrier,
                            [y for k in g.images for y in
                             by_label[exp.carrier.labels[k]].images])
                        result.check(back == f,
                                     "quasi untranspose . transpose != id")
                        transposed.add(g.images)
                    result.check(transposed == g_graphs,
                                 f"{q.describe()}: quasi currying not a "
                                 "bijection")
    return result


# -- criterion 11: reflection and the hom-set equality -------------------------------


def battery_reflection(level="full"):
    result = SuiteResult("reflection-homset")
    monad = identity_monad()
    max_size = 3 if level == "full" else 2
    for q in _finite_battery_quantales():
        cls = ProbeClass.compact_hausdorff_upto(2, q, monad)
        spaces = list(all_valid_spaces_upto(q, monad, max_size))
        generated = [s for s in spaces if is_c_generated(s, cls)]
        result.check(bool(generated), "no generated spaces in the battery")
        for x_space in generated:
            reflected = reflect_to_cgenerated(associated_quasi(x_space, cls))
            result.check(reflected == x_space,
                         f"{q.describe()}: reflect(associate) != id on a "
                         "generated space")
        idempotence_battery = spaces if level == "full" else spaces[:10]
        for x_space in idempotence_battery:
            aq = associated_quasi(x_space, cls)
            reflected = reflect_to_cgenerated(aq)
            result.check(associated_quasi(reflected, cls).admissible
                         == aq.admissible,
                         f"{q.describe()}: associate . reflect . associate "
                         "!= associate")
        for x_space in generated:
            ax = associated_quasi(x_space, cls)
            for y_space in spaces:
                ay = associated_quasi(y_space, cls)
                cont = {f.images
                        for f in continuous_maps(x_space, y_space)}
                quasi = {f.images
                         for f in quasi_continuous_maps(ax, ay)}
                result.check(cont == quasi,
                             f"{q.describe()}: hom-set equality fails "
                             f"between {x_space.carrier.labels} and "
                             f"{y_space.carrier.labels}")
    return result


# -- criterion 12: the text front end ------------------------------------------------


SUITE_FIXTURE = """\
quantale B { kind bool2 }
quantale P { kind cost-plus }
space Disc3 {
  quantale B
  monad identity
  carrier p q r
  matrix 1 0 0 0 1 0 0 0 1
}
space Ind2 {
  quantale B
  monad identity
  carrier x y
  matrix 1 1 1 1
}
space Chain2 {
  quantale B
  monad identity
  carrier u v
  matrix 1 1 0 1
}
space Met2 {
  quantale P
  monad identity
  carrier a b
  matrix 0 1 1 0
}
map swap { dom a b; cod a b; a->b b->a }
"""

SUITE_BAD_FIXTURE = """\
quantale B { kind bool2 }
space Broken {
  quantale B
  monad identity
  carrier x y
  matrix 0 1 0 1
}
"""

SUITE_PARSE_ERROR_FIXTURE = """\
quantale P { kind cost-plus }
space Bad {
  quantale P
  monad identity
  carrier a
  matrix 3/
}
"""


def battery_cli(level="full"):
    import os
    import tempfile

    from .cli import main
    from .textio import parse_workspace, print_workspace

    result = SuiteResult("cli-roundtrip")

    ws = parse_workspace(SUITE_FIXTURE)
    printed = print_workspace(ws)
    reparsed = parse_workspace(printed)
    result.check(print_workspace(reparsed) == printed,
                 "print . parse . print is not stable")
    for name in ws.spaces:
        result.check(ws.spaces[name] == reparsed.spaces[name],
                     f"space {name} does not round-trip")
    for name in ws.maps:
        result.check(ws.maps[name] == reparsed.maps[name],
                     f"map {name} does not round-trip")

    def run(argv):
        out = io.StringIO()
        code = main(argv, out)
        return code, out.getvalue()

    with tempfile.TemporaryDirectory() as tmp:
        good = os.path.join(tmp, "good.txt")
        bad = os.path.join(tmp, "bad.txt")
        broken = os.path.join(tmp, "broken.txt")
        with open(good, "w", encoding="utf-8") as handle:
            handle.write(SUITE_FIXTURE)
        with open(bad, "w", encoding="utf-8") as handle:
            handle.write(SUITE_BAD_FIXTURE)
        with open(broken, "w", encoding="utf-8") as handle:
            handle.write(SUITE_PARSE_ERROR_FIXTURE)

        code, text = run(["validate", good])
        result.check(code == 0, f"validate on a clean file exited {code}")
        code2, text2 = run(["validate", good])
        result.check(text == text2, "validate output is not deterministic")

        code, text = run(["validate", bad])
        result.check(code == 1, f"validate on a violation exited {code}")
        result.check("reflexivity" in text and "witness" in text,
                     "violation witness missing from the report")

        code, text = run(["validate", broken])
        result.check(code == 2, f"validate on a parse error exited {code}")
        result.check("line" in text, "parse error lost its position")

        code, text = run(["check", "compact", "Disc3", "--in", good])
        result.check(code == 0 and text.strip() == "true",
                     "discrete space should check compact")
        code, text = run(["check", "hausdorff", "Ind2", "--in", good])
        result.check(code == 1 and text.startswith("false"),
                     "indiscrete space should fail hausdorff")
        result.check("witness" in text, "hausdorff witness missing")
        code, text = run(["check", "alexandroff", "Chain2", "--in", good])
        result.check(code == 0 and text.strip() == "true",
                     "preordered space should check alexandroff")

        code, text = run(["compute", "coreflect", "Met2", "--in", good,
                          "--class", "compact-hausdorff-upto:2",
                          "--name", "Out"])
        result.check(code == 0 and "matrix 0 inf inf 0" in text,
                     "coreflection of a metric space should be discrete")
        code, text = run(["compute", "subspace", "Chain2", "--in", good,
                          "--elements", "u,v", "--name", "Out"])
        result.check("matrix 1 1 0 1" in text,
                     "full subspace should keep the structure block")
        code, text = run(["compute", "exponential", "Chain2", "Chain2",
                          "--in", good, "--name", "Out"])
        result.check(code == 0 and "carrier [u,u] [u,v] [v,v]" in text,
                     "the self-exponential of the two-chain should have "
                     "three points")
        code2, text2 = run(["compute", "exponential", "Chain2", "Chain2",
                            "--in", good, "--name", "Out"])
        result.check(text == text2, "compute output is not deterministic")
    return result


ALL_BATTERIES = (
    battery_quantale_laws,
    battery_closure_oracle,
    battery_constant_maps,
    battery_compact_hausdorff_discrete,
    battery_coreflection,
    battery_vcat_set,
    battery_cmap_cartesian_closed,
    battery_alexandroff,
    battery_quasi_adjoints,
    battery_quasi_cartesian_closed,
    battery_reflection,
    battery_cli,
)


def run_suite(level="fast", out=None):
    results = []
    for battery in ALL_BATTERIES:
        result = battery(level)
        results.append(result)
        if out is not None:
            status = "PASS" if result.passed else "FAIL"
            out.write(f"{status}  {result.name} ({result.checks} checks)\n")
            for failure in result.failures[:5]:
                out.write(f"      {failure}\n")
    return results
