"""The three workloads: seeded lists of timed questions with their checks.

A workload builder takes the seed and returns a list of :class:`Op`.  Every
pass of a run executes the same list.  ``call`` is the timed call into the
program's public API; it resolves the program's functions through module
attributes at call time, so the tracer's wrappers see every call.
``answer`` turns the program's result into plain data outside the timed
region, ``check`` compares that data with the reference computation (or a
property the paper proves) and raises ``WrongAnswer``, and ``corrupt``
plants a wrong answer for the self-check in ``selfcheck.py``.

The shape of each list (operation kinds, quantales, monads, sizes) is fixed;
the seed picks the matrix entries, the maps, the planted violations and the
relabellings.  Each operation builds its own ``ProbeClass``, so no program
cache carries over from one operation to the next.
"""

import io
import itertools
import json
import os
import random
import re
import warnings
from fractions import Fraction

import oracle
from oracle import expect

from tvspaces import cli, enumeration, generation, monad, quantale, quasi
from tvspaces import space as spaces
from tvspaces import vrel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "fixtures")

QUANTALES = {
    "bool2": quantale.bool2,
    "chain4": lambda: quantale.chain(4),
    "luk4": lambda: quantale.lukasiewicz_grid(4),
    "cost-plus": quantale.cost_plus,
    "cost-max": quantale.cost_max,
}


class Op:
    """One question: a timed call, its answer extractor, check and corruptor."""

    __slots__ = ("name", "call", "answer", "check", "corrupt", "known_fault")

    def __init__(self, name, call, answer, check, corrupt, known_fault=None):
        self.name = name
        self.call = call
        self.answer = answer
        self.check = check
        self.corrupt = corrupt
        self.known_fault = known_fault


# -- shared helpers --------------------------------------------------------------


def _lazy(compute):
    """Compute a reference value on first use, outside set-up and timing."""
    box = []

    def get():
        if not box:
            box.append(compute())
        return box[0]
    return get


def random_dag(alg, n, rng, density):
    """A dense matrix whose non-bottom entries follow a seeded random order.

    Entries above the diagonal of a random permutation are drawn with the
    given density, so the closure is a non-trivial partial order rather
    than the all-top relation a strongly connected matrix would close to.
    """
    order = list(range(n))
    rng.shuffle(order)
    rank = {p: r for r, p in enumerate(order)}
    m = [[alg.bottom] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if rank[i] < rank[j] and rng.random() < density:
                m[i][j] = random_value(alg, rng)
    return m


def random_value(alg, rng):
    if alg.finite:
        return rng.randint(1, alg.top)
    return Fraction(rng.randint(1, 12), rng.choice((1, 2, 4)))


def to_vrel(q, carrier, alg, m):
    return vrel.VRel(carrier, carrier, q,
                     [[q.parse_value(alg.token(v)) for v in row] for row in m])


def make_space(q, mon, carrier, alg, m):
    return spaces.Space.from_square(carrier, mon, q, to_vrel(q, carrier, alg, m))


def labels(prefix, n):
    return vrel.Carrier([f"{prefix}{i}" for i in range(n)])


def base_label(label):
    while label.startswith("U(") and label.endswith(")"):
        label = label[2:-1]
    return label


def raw_of(alg, rel):
    return oracle.raw(alg, rel.tokens())


def raise_entry(alg, m):
    """A copy of the matrix with one entry raised, or lowered when all are top."""
    out = [list(row) for row in m]
    for row in out:
        for j, v in enumerate(row):
            if v != alg.top:
                row[j] = alg.top
                return out
    out[0][0] = alg.bottom
    return out


def all_graphs(n_dom, n_cod):
    return set(itertools.product(range(n_cod), repeat=n_dom))


def graph_indices(f, cod_labels):
    index = {x: i for i, x in enumerate(cod_labels)}
    return tuple(index[y] for y in f.graph())


def drop_one(items):
    items = list(items)
    return items[:-1] if items else [("planted",)]


# -- dense-kernel -----------------------------------------------------------------

# (quantale, monad, points).  The big cells go to the cheap finite
# quantales; three 48-point cells put the 90th percentile inside a group of
# like operations rather than on the gap between two kinds.
DENSE_CELLS = (
    ("bool2", "identity", 48), ("bool2", "ultrafilter-finite", 24),
    ("chain4", "identity", 48), ("chain4", "ultrafilter-finite", 32),
    ("luk4", "identity", 32), ("luk4", "ultrafilter-finite", 48),
    ("cost-plus", "identity", 24), ("cost-plus", "ultrafilter-finite", 16),
    ("cost-max", "identity", 16), ("cost-max", "ultrafilter-finite", 24),
)
# (windows, points per window) for exponentiability; a Lukasiewicz space
# usually fails early, so it is asked about several windows
DENSE_EXPONENTIABLE = {("bool2", "identity"): (1, 16),
                       ("bool2", "ultrafilter-finite"): (1, 12),
                       ("chain4", "identity"): (1, 12),
                       ("chain4", "ultrafilter-finite"): (1, 10),
                       ("luk4", "identity"): (4, 8),
                       ("luk4", "ultrafilter-finite"): (4, 8)}
CONTINUITY_MAPS = 6


def _plant_reflexivity(alg, c, rng):
    p = [list(row) for row in c]
    i = rng.randrange(len(p))
    p[i][i] = alg.bottom
    return p


def _plant_transitivity(alg, c, rng):
    """Lower one entry that a two-step path forces above bottom."""
    n = len(c)
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    rng.shuffle(cells)
    for i, j in cells:
        if c[i][j] == alg.bottom:
            continue
        if any(alg.tensor(c[i][p], c[p][j]) != alg.bottom
               for p in range(n) if p not in (i, j)):
            p = [list(row) for row in c]
            p[i][j] = alg.bottom
            return p
    raise RuntimeError("no two-step path to plant a transitivity violation")


def _violation_answer(report):
    out = set()
    for law, witness in report.violations:
        if law == "reflexivity":
            x = int(base_label(witness[0])[1:])
            out.add((law, x, x))
        else:
            out.add((law, int(base_label(witness[0])[1:]),
                     int(base_label(witness[1])[1:])))
    return out


def _check_violations(expected_get, planted_law=None):
    def check(got):
        expected = expected_get()
        expect(got == expected,
               f"violations {sorted(got)} != reference {sorted(expected)}")
        if planted_law:
            expect(any(v[0] == planted_law for v in got),
                   f"planted {planted_law} violation not named")
    return check


def _corrupt_violations(got):
    got = set(got)
    if got:
        got.pop()
    else:
        got.add(("transitivity", 0, 1))
    return got


def _witness_answer(witness):
    if witness is None:
        return None
    return tuple(int(base_label(w)[1:]) for w in witness)


def _corrupt_witness(got):
    return (0, 0) if got is None else None


def _equals_check(expected_get, what):
    def check(got):
        expect(got == expected_get(), f"{what} differs from the reference")
    return check


def dense_kernel(seed):
    rng = random.Random(seed)
    ops = []
    for cell, (qname, mname, n) in enumerate(DENSE_CELLS):
        q = QUANTALES[qname]()
        alg = oracle.ALGEBRAS[qname]
        mon = monad.monad_by_name(mname)
        carrier = labels("p", n)
        r = random_dag(alg, n, rng, density=0.5)
        c = oracle.closure(alg, r)
        rv, cv = to_vrel(q, carrier, alg, r), to_vrel(q, carrier, alg, c)
        closed = spaces.Space.from_square(carrier, mon, q, cv)
        tag = f"{qname}/{mname}/{n}"

        ops.append(Op(
            f"closure/{tag}",
            lambda rv=rv: vrel.reflexive_transitive_closure(rv),
            lambda res, alg=alg: raw_of(alg, res),
            _equals_check(lambda c=c: c, "closure"),
            lambda got, alg=alg: raise_entry(alg, got)))
        ops.append(Op(
            f"compose/{tag}",
            lambda cv=cv: vrel.compose(cv, cv),
            lambda res, alg=alg: raw_of(alg, res),
            _equals_check(lambda c=c: c, "compose(c, c) != c"),
            lambda got, alg=alg: raise_entry(alg, got)))
        ops.append(Op(
            f"validate-closed/{tag}",
            lambda sp=closed: spaces.validate_space(sp),
            _violation_answer,
            _check_violations(lambda: set()),
            _corrupt_violations))

        law = "reflexivity" if cell % 2 == 0 else "transitivity"
        planter = _plant_reflexivity if law == "reflexivity" \
            else _plant_transitivity
        planted = planter(alg, c, rng)
        planted_space = make_space(q, mon, carrier, alg, planted)
        ops.append(Op(
            f"validate-planted-{law}/{tag}",
            lambda sp=planted_space: spaces.validate_space(sp),
            _violation_answer,
            _check_violations(
                _lazy(lambda alg=alg, p=planted: oracle.violations(alg, p)),
                law),
            _corrupt_violations))

        # continuity: the pullback of c along a seeded map is continuous by
        # construction; raising its last entry below top plants a single
        # violation near the end of the scan
        xc = labels("x", n)
        maps, pulled_spaces, raised_spaces, raised_raw = [], [], [], []
        for _ in range(CONTINUITY_MAPS):
            f = [rng.randrange(n) for _ in range(n)]
            maps.append((f, vrel.MapArrow(xc, carrier, {
                f"x{i}": f"p{f[i]}" for i in range(n)})))
            pulled = [[c[f[i]][f[j]] for j in range(n)] for i in range(n)]
            pulled_spaces.append(make_space(q, mon, xc, alg, pulled))
            raised = [list(row) for row in pulled]
            i, j = next((i, j) for i in reversed(range(n))
                        for j in reversed(range(n))
                        if pulled[i][j] != alg.top)
            raised[i][j] = alg.top
            raised_raw.append(raised)
            raised_spaces.append(make_space(q, mon, xc, alg, raised))
        arrows = [fm for _, fm in maps]
        ops.append(Op(
            f"continuity/{tag}",
            lambda arrows=arrows, xs=pulled_spaces, ys=closed:
                [spaces.continuity_witness(fm, x, ys)
                 for fm, x in zip(arrows, xs)],
            lambda res: [_witness_answer(w) for w in res],
            _equals_check(lambda: [None] * CONTINUITY_MAPS,
                          "continuity witnesses"),
            lambda got: [_corrupt_witness(got[0])] + got[1:]))
        ops.append(Op(
            f"continuity-planted/{tag}",
            lambda arrows=arrows, xs=raised_spaces, ys=closed:
                [spaces.continuity_witness(fm, x, ys)
                 for fm, x in zip(arrows, xs)],
            lambda res: [_witness_answer(w) for w in res],
            _equals_check(_lazy(
                lambda alg=alg, raised=raised_raw, maps=maps, c=c:
                    [oracle.first_discontinuity(alg, a, c, f)
                     for a, (f, _) in zip(raised, maps)]),
                "continuity witnesses"),
            lambda got: [_corrupt_witness(got[0])] + got[1:]))

        # product of two mid-size subspaces of the closed space
        keep_a, keep_b = list(range(6)), list(range(n - 7, n))
        a_raw, b_raw = oracle.subspace(c, keep_a), oracle.subspace(c, keep_b)
        a_space = make_space(q, mon, labels("a", 6), alg, a_raw)
        b_space = make_space(q, mon, labels("b", 7), alg, b_raw)
        ops.append(Op(
            f"product/{tag}",
            lambda xs=a_space, ys=b_space: spaces.product(xs, ys),
            lambda res, alg=alg: (list(res[0].carrier.labels),
                                  raw_of(alg, res[0].structure)),
            _product_check(alg, a_raw, b_raw, "a", "b"),
            lambda got, alg=alg: (got[0], raise_entry(alg, got[1]))))

        windows = DENSE_EXPONENTIABLE.get((qname, mname))
        if windows:
            count, k = windows
            subs = [oracle.subspace(c, list(range(w * k, (w + 1) * k)))
                    for w in range(count)]
            subspaces = [make_space(q, mon, labels("e", k), alg, m)
                         for m in subs]
            ops.append(Op(
                f"exponentiable/{qname}/{mname}/{count}x{k}",
                lambda subspaces=subspaces:
                    [spaces.exponentiability_witness(sp) for sp in subspaces],
                lambda res, alg=alg: [_expo_answer(alg, w) for w in res],
                _expo_check(alg, subs),
                lambda got: [_corrupt_expo(got[0])] + got[1:]))
    return ops


def _product_check(alg, a_raw, b_raw, pa, pb):
    expected = _lazy(lambda: oracle.product(alg, a_raw, b_raw))
    names = [f"({pa}{x},{pb}{y})" for x in range(len(a_raw))
             for y in range(len(b_raw))]

    def check(got):
        got_labels, got_matrix = got
        expect(got_labels == names, "product carrier labels")
        expect(got_matrix == expected(), "product structure is not the meet")
    return check


def _expo_answer(alg, witness):
    if witness is None:
        return None
    big, x, u, v = witness
    return (int(base_label(big)[1:]), int(base_label(x)[1:]),
            alg.parse(u.token), alg.parse(v.token))


def _expo_check(alg, matrices):
    expected = _lazy(lambda: [oracle.exponentiable(alg, m) for m in matrices])

    def check(got):
        for m, witness, want in zip(matrices, got, expected()):
            expect((witness is None) == want,
                   f"exponentiable={witness is None}, reference {want}")
            if witness is not None:
                expect(oracle.exponentiability_violation(alg, m, *witness),
                       f"witness {witness} does not violate the inequality")
    return check


def _corrupt_expo(got):
    return (0, 0, 0, 0) if got is None else None


# -- search-sweep -----------------------------------------------------------------


def _small_matrix(qname, n, rng):
    alg = oracle.ALGEBRAS[qname]
    return oracle.closure(alg, random_dag(alg, n, rng, density=0.6))


def _identity_space(qname, m, prefix):
    return make_space(QUANTALES[qname](), monad.identity_monad(),
                      labels(prefix, len(m)), oracle.ALGEBRAS[qname], m)


def _small_space(qname, n, rng, prefix):
    m = _small_matrix(qname, n, rng)
    return _identity_space(qname, m, prefix), m


def _pair_near(qname, nx, ny, rng, target, prefixes=("x", "y")):
    """Of ``PAIR_DRAWS`` seeded pairs, the one with hom-set size nearest target.

    The work of a search question grows with the number of continuous maps,
    which is heavy-tailed over random spaces.  Taking the draw nearest a
    fixed target keeps each slot's work the same from seed to seed, and a
    fixed number of draws keeps the set-up time the same too.
    """
    alg = oracle.ALGEBRAS[qname]
    best = None
    for _ in range(PAIR_DRAWS):
        xm = _small_matrix(qname, nx, rng)
        ym = _small_matrix(qname, ny, rng)
        count = oracle.count_continuous_maps(alg, xm, ym, 2 * target)
        miss = abs(count - target)
        if best is None or miss < best[0]:
            best = (miss, xm, ym)
    _, xm, ym = best
    return (_identity_space(qname, xm, prefixes[0]), xm,
            _identity_space(qname, ym, prefixes[1]), ym)


def _maps_answer(maps, cod):
    return sorted(graph_indices(f, cod.carrier.labels) for f in maps)


def _exp_answer(alg, res):
    sp, by_label = res
    maps = [tuple(int(y[1:]) for y in by_label[lab].graph())
            for lab in sp.carrier.labels]
    return maps, raw_of(alg, sp.structure)


def _exp_check(alg, b, c):
    expected = _lazy(lambda: oracle.exponential(alg, b, c))

    def check(got):
        maps, matrix = expected()
        expect(got[0] == maps, "function-space carrier differs from the "
                               "continuous maps")
        expect(got[1] == matrix, "function-space structure differs")
    return check


def _class_objects(cls, alg):
    return [oracle.raw(alg, obj.structure.tokens()) for obj in cls.objects]


def _corrupt_discrete_list(objects):
    objects = [list(map(list, m)) for m in objects]
    for m in objects:
        if len(m) > 1:
            m[0][1] = m[0][0]
            return objects
    return objects + [[[0, 0], [0, 0]]]


# hom-set size targets, near the median over random spaces, per slot
HOM_TARGETS = {
    ("bool2", 4, 5): 72, ("bool2", 5, 5): 130,
    ("chain4", 4, 5): 38, ("chain4", 5, 5): 40,
    ("luk4", 4, 5): 27, ("luk4", 5, 5): 40,
    ("bool2", 3, 4): 22, ("bool2", 4, 4): 32,
    ("chain4", 3, 4): 15, ("chain4", 4, 4): 15,
    ("bool2", 4, 3): 14,
}
PAIR_DRAWS = 24


def search_sweep(seed):
    rng = random.Random(seed)
    ops = []

    # continuous maps between spaces of 4-5 points
    for qname in ("bool2", "chain4", "luk4"):
        alg = oracle.ALGEBRAS[qname]
        for nx, ny in ((4, 5), (5, 5)):
            xs, xm, ys, ym = _pair_near(qname, nx, ny, rng,
                                          HOM_TARGETS[qname, nx, ny])
            ops.append(Op(
                f"continuous-maps/{qname}/{nx}->{ny}",
                lambda xs=xs, ys=ys: spaces.continuous_maps(xs, ys),
                lambda res, ys=ys: _maps_answer(res, ys),
                _equals_check(_lazy(
                    lambda alg=alg, a=xm, b=ym:
                        oracle.continuous_maps(alg, a, b)),
                    "continuous maps"),
                drop_one))

    # exponentials of spaces of 3-4 points
    for qname in ("bool2", "chain4"):
        alg = oracle.ALGEBRAS[qname]
        for ny, nz in ((3, 4), (4, 4)):
            ys, ym, zs, zm = _pair_near(qname, ny, nz, rng,
                                          HOM_TARGETS[qname, ny, nz], "yz")
            ops.append(Op(
                f"exponential/{qname}/{ny}->{nz}",
                lambda ys=ys, zs=zs: spaces.exponential(ys, zs),
                lambda res, alg=alg: _exp_answer(alg, res),
                _exp_check(alg, ym, zm),
                lambda got, alg=alg: (got[0], raise_entry(alg, got[1]))))

    # compact-Hausdorff classes up to 3 points: exactly the discrete spaces
    for qname in ("bool2", "chain4"):
        alg = oracle.ALGEBRAS[qname]
        ops.append(Op(
            f"compact-hausdorff-class/{qname}/3",
            lambda qname=qname: generation.ProbeClass.compact_hausdorff_upto(
                3, QUANTALES[qname](), monad.identity_monad()),
            lambda res, alg=alg: _class_objects(res, alg),
            _discrete_objects_check(alg, 3),
            _corrupt_discrete_list))

    # iso classes of all 3- and 4-point preorders, and relabelling invariance
    for n, classes in ((3, 9), (4, 33)):
        perm = list(range(n))
        rng.shuffle(perm)
        ops.append(Op(
            f"iso-classes/bool2/{n}",
            lambda n=n, perm=perm: _iso_classes(n, perm),
            lambda res: res,
            _iso_check(classes),
            lambda got: (got[0] + 1, got[1])))

    # coreflection onto the compactly generated spaces: discrete (collapse).
    # The four chain(4) questions up to 3 points, each building its class,
    # form the group of like operations the 90th percentile falls in.
    for qname, k in (("bool2", 2), ("bool2", 3), ("chain4", 2),
                     ("chain4", 3), ("chain4", 3), ("chain4", 3),
                     ("chain4", 3), ("luk4", 2), ("cost-plus", 2)):
        alg = oracle.ALGEBRAS[qname]
        targets = [_small_space(qname, n, rng, prefix="t")[0]
                   for n in (4, 5, 6, 7)]
        ops.append(Op(
            f"coreflect/{qname}/upto{k}",
            lambda qname=qname, k=k, targets=targets:
                _coreflect_all(qname, k, targets),
            lambda res, alg=alg: [raw_of(alg, sp.structure) for sp in res],
            _all_discrete_check(alg),
            _corrupt_discrete_list))

    # Alexandroff-ness of every 3-point preorder
    ops.append(Op(
        "alexandroff/bool2/3",
        lambda: [generation.is_alexandroff(sp)
                 for sp in enumeration.all_valid_spaces(
                     quantale.bool2(), monad.identity_monad(),
                     enumeration.standard_carrier(3))],
        lambda res: res,
        _alexandroff_check,
        lambda got: [False] + list(got[1:])))

    # cmap_space with the Sierpinski class: every preorder is Alexandroff,
    # so the class-continuous function space is the exponential
    alg = oracle.BOOL2
    for ny, nz in ((4, 3), (4, 4)):
        ys, ym, zs, zm = _pair_near("bool2", ny, nz, rng,
                                      HOM_TARGETS["bool2", ny, nz], "yz")
        ops.append(Op(
            f"cmap-sierpinski/bool2/{ny}->{nz}",
            lambda ys=ys, zs=zs: _cmap(ys, zs),
            lambda res, alg=alg: _exp_answer(alg, res),
            _exp_check(alg, ym, zm),
            lambda got, alg=alg: (got[0], raise_entry(alg, got[1]))))

    # discrete, indiscrete and associated quasi-spaces, validated
    for qname in ("bool2", "chain4"):
        for n in (3, 4):
            xs, _ = _small_space(qname, n, rng, prefix="q")
            ops.append(Op(
                f"quasi-structures/{qname}/{n}",
                lambda xs=xs, qname=qname: _quasi_structures(qname, xs),
                _quasi_answer,
                _quasi_check(n),
                _corrupt_quasi))

    # hom-set equality, reflect(associate(X)) == X, exponential_quasi
    for qname in ("bool2", "chain4"):
        alg = oracle.ALGEBRAS[qname]
        xs, _ = _small_space(qname, 3, rng, prefix="g")
        ys, ym = _small_space(qname, 4, rng, prefix="h")
        ops.append(Op(
            f"homset-reflect/{qname}/3->4",
            lambda xs=xs, ys=ys, qname=qname: _homset(qname, xs, ys),
            lambda res, alg=alg, ys=ys: _homset_answer(alg, res, ys),
            _homset_check(alg, ym),
            lambda got: (got[0], drop_one(got[1]), got[2])))
        es, _ = _small_space(qname, 3, rng, prefix="e")
        fs, _ = _small_space(qname, 2, rng, prefix="f")
        ops.append(Op(
            f"exponential-quasi/{qname}/2->3",
            lambda es=es, fs=fs, qname=qname: _exp_quasi(qname, fs, es),
            _exp_quasi_answer,
            _exp_quasi_check(2, 3),
            lambda got: (got[0] + 1, got[1])))
    return ops


def _discrete_objects_check(alg, k):
    def check(objects):
        expect(sorted(len(m) for m in objects) == list(range(1, k + 1)),
               "expected one compact Hausdorff space per size 1..k")
        for m in objects:
            expect(oracle.is_discrete(alg, m),
                   "a compact Hausdorff class object is not discrete")
    return check


def _all_discrete_check(alg):
    def check(results):
        for m in results:
            expect(oracle.is_discrete(alg, m),
                   "coreflection of a plain-quantale space is not discrete")
    return check


def _iso_classes(n, perm):
    carrier = enumeration.standard_carrier(n)
    keys, relabelled = [], []
    for sp in enumeration.all_valid_spaces(quantale.bool2(),
                                           monad.identity_monad(), carrier):
        keys.append(enumeration.iso_canonical_key(sp))
        entries = sp.structure.entries
        moved = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                moved[perm[i]][perm[j]] = entries[i][j]
        other = spaces.Space.from_square(
            carrier, sp.monad, sp.quantale,
            vrel.VRel(carrier, carrier, sp.quantale, moved))
        relabelled.append(enumeration.iso_canonical_key(other))
    return len(set(keys)), keys == relabelled


def _iso_check(classes):
    def check(got):
        expect(got[0] == classes,
               f"{got[0]} iso classes, OEIS A001930 gives {classes}")
        expect(got[1], "iso key changed under a relabelling")
    return check


def _coreflect_all(qname, k, targets):
    cls = generation.ProbeClass.compact_hausdorff_upto(
        k, QUANTALES[qname](), monad.identity_monad())
    return [generation.c_generated_structure(t, cls) for t in targets]


def _alexandroff_check(got):
    expect(len(got) == 29, f"{len(got)} preorders on 3 points, expected 29")
    expect(all(got), "a preordered space is not Alexandroff")


def _cmap(ys, zs):
    cls = generation.ProbeClass.sierpinski(ys.quantale, ys.monad)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return generation.cmap_space(ys, zs, cls)


def _quasi_structures(qname, xs):
    cls = generation.ProbeClass.compact_hausdorff_upto(
        2, QUANTALES[qname](), monad.identity_monad())
    built = (quasi.discrete_quasi(xs.carrier, cls),
             quasi.indiscrete_quasi(xs.carrier, cls),
             quasi.associated_quasi(xs, cls))
    return [(qs, quasi.validate_quasi(qs)) for qs in built]


def _quasi_answer(res):
    out = []
    for qs, report in res:
        index = {x: i for i, x in enumerate(qs.carrier.labels)}
        sets = [{tuple(index[y] for y in g) for g in adm}
                for adm in qs.admissible]
        out.append((sets, report.passed))
    return out


def _quasi_check(n):
    # the class objects are the discrete spaces on 1 and 2 points, so every
    # map out of them is continuous and covered by constants
    def check(got):
        for sets, passed in got:
            expect(passed, "a canonical quasi-structure fails validate_quasi")
            expect(sets == [all_graphs(1, n), all_graphs(2, n)],
                   "admissible sets are not all maps out of discrete objects")
    return check


def _corrupt_quasi(got):
    sets, passed = got[0]
    sets = [set(s) for s in sets]
    sets[1].pop()
    return [(sets, passed)] + list(got[1:])


def _homset(qname, xs, ys):
    cls = generation.ProbeClass.compact_hausdorff_upto(
        2, QUANTALES[qname](), monad.identity_monad())
    generated = generation.c_generated_structure(xs, cls)
    ax = quasi.associated_quasi(generated, cls)
    ay = quasi.associated_quasi(ys, cls)
    return (spaces.continuous_maps(generated, ys),
            quasi.quasi_continuous_maps(ax, ay),
            generated, quasi.reflect_to_cgenerated(ax))


def _homset_answer(alg, res, ys):
    cont, qcont, generated, reflected = res
    return (_maps_answer(cont, ys), _maps_answer(qcont, ys),
            (raw_of(alg, generated.structure),
             raw_of(alg, reflected.structure)))


def _homset_check(alg, ym):
    def check(got):
        cont, qcont, (generated, reflected) = got
        expect(oracle.is_discrete(alg, generated),
               "a compactly generated plain-quantale space is not discrete")
        expect(cont == qcont, "continuous and quasi-continuous hom-sets differ")
        expect(cont == oracle.continuous_maps(alg, generated, ym),
               "hom-set differs from the brute force")
        expect(reflected == generated,
               "reflect(associate(X)) != X on a generated X")
    return check


def _exp_quasi(qname, fs, es):
    cls = generation.ProbeClass.compact_hausdorff_upto(
        2, QUANTALES[qname](), monad.identity_monad())
    return quasi.exponential_quasi(quasi.associated_quasi(fs, cls),
                                   quasi.associated_quasi(es, cls))


def _exp_quasi_answer(res):
    qs, _ = res
    return len(qs.carrier), [len(s) for s in qs.admissible]


def _exp_quasi_check(nx, ny):
    # every map between associated structures over discrete probes is
    # quasi-continuous, and every map into the function space is admissible
    def check(got):
        points = ny ** nx
        expect(got[0] == points, f"{got[0]} quasi-continuous maps, "
                                 f"expected {points}")
        expect(got[1] == [points, points ** 2],
               "function-space admissible sets are not all maps")
    return check


# -- cli-session -------------------------------------------------------------------

# quantale blocks as the generated workspace writes them
QUANTALE_BLOCKS = {
    "bool2": "quantale Q { kind bool2 }\n",
    "chain4": ("quantale Q {\n  kind finite-table\n  carrier c0 c1 c2 c3\n"
               "  unit c3\n  order " + " ".join(
                   "1" if i <= j else "0" for i in range(4) for j in range(4))
               + "\n  tensor " + " ".join(
                   f"c{min(i, j)}" for i in range(4) for j in range(4))
               + "\n}\n"),
    "luk4": "quantale Q { kind lukasiewicz-grid 4 }\n",
    "cost-plus": "quantale Q { kind cost-plus }\n",
    "cost-max": "quantale Q { kind cost-max }\n",
}
# (quantale, points of Big, points of Ufs, monad of the two small spaces)
CLI_FILES = (
    ("bool2", 32, 16, "identity"),
    ("chain4", 24, 24, "ultrafilter-finite"),
    ("luk4", 28, 12, "identity"),
    ("cost-plus", 20, 8, "ultrafilter-finite"),
    ("cost-max", 16, 20, "identity"),
)
SMALL = 8


def _space_block(name, mname, prefix, alg, m):
    flat = " ".join(alg.token(v) for row in m for v in row)
    carrier = " ".join(f"{prefix}{i}" for i in range(len(m)))
    return (f"space {name} {{\n  quantale Q\n  monad {mname}\n"
            f"  carrier {carrier}\n  matrix {flat}\n}}\n")


def _run_cli(argv):
    out = io.StringIO()
    code = cli.main(argv, out)
    return code, out.getvalue()


def cli_session(seed, workdir):
    """Golden commands plus commands on a seeded generated workspace."""
    rng = random.Random(seed)
    ops = []
    fixture = os.path.join(FIXTURES, "workspace.txt")
    with open(fixture, encoding="utf-8") as handle:
        fixture_ws = read_workspace(handle.read())
    with open(os.path.join(FIXTURES, "broken_space.txt"),
              encoding="utf-8") as handle:
        broken_ws = read_workspace(handle.read())
    with open(os.path.join(FIXTURES, "golden", "manifest.json"),
              encoding="utf-8") as handle:
        manifest = json.load(handle)
    for name in sorted(manifest):
        argv = [os.path.join(ROOT, a) if a.startswith("tests/fixtures") else a
                for a in manifest[name]["argv"]]
        ops.append(_golden_op(name, argv, fixture_ws, broken_ws))

    for qname, n_big, n_uf, small_monad in CLI_FILES:
        alg = oracle.ALGEBRAS[qname]
        big = oracle.closure(alg, random_dag(alg, n_big, rng, density=0.4))
        uf = oracle.closure(alg, random_dag(alg, n_uf, rng, density=0.4))
        sm1 = oracle.closure(alg, random_dag(alg, SMALL, rng, density=0.5))
        sm2 = oracle.closure(alg, random_dag(alg, SMALL, rng, density=0.5))
        text = (QUANTALE_BLOCKS[qname]
                + _space_block("Big", "identity", "b", alg, big)
                + _space_block("Ufs", "ultrafilter-finite", "u", alg, uf)
                + _space_block("Sm1", small_monad, "s", alg, sm1)
                + _space_block("Sm2", small_monad, "t", alg, sm2))
        path = os.path.join(workdir, f"ws-{qname}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        tag = qname
        ops.append(Op(
            f"cli validate/{tag}", lambda p=path: _run_cli(["validate", p]),
            lambda res: res,
            _validate_check(["Big", "Ufs", "Sm1", "Sm2"], {}),
            _corrupt_code))
        for predicate, target, m in (("compact", "Big", big),
                                     ("hausdorff", "Ufs", uf),
                                     ("separated", "Big", big)):
            fn = getattr(oracle, predicate)
            ops.append(Op(
                f"cli check {predicate}/{tag}",
                lambda p=path, pr=predicate, t=target:
                    _run_cli(["check", pr, t, "--in", p]),
                lambda res: res,
                _truth_check(_lazy(lambda fn=fn, alg=alg, m=m: fn(alg, m))),
                _corrupt_code))
        if alg.finite:
            ops.append(Op(
                f"cli check exponentiable/{tag}",
                lambda p=path: _run_cli(["check", "exponentiable", "Sm1",
                                         "--in", p]),
                lambda res: res,
                _truth_check(_lazy(
                    lambda alg=alg, m=sm1: oracle.exponentiable(alg, m))),
                _corrupt_code))
        ops.append(Op(
            f"cli compute product/{tag}",
            lambda p=path: _run_cli(["compute", "product", "Sm1", "Sm2",
                                     "--in", p, "--name", "Prod"]),
            lambda res: res,
            _printed_check(alg, _lazy(
                lambda alg=alg, a=sm1, b=sm2: oracle.product(alg, a, b)),
                [f"(s{x},t{y})" for x in range(SMALL) for y in range(SMALL)],
                small_monad),
            _corrupt_code))
        # coproducts need one monad, so the ultrafilter files sum Big twice
        second, second_m, second_prefix = (
            ("Sm1", sm1, "s") if small_monad == "identity" else
            ("Big", big, "b"))
        ops.append(Op(
            f"cli compute coproduct/{tag}",
            lambda p=path, second=second: _run_cli(
                ["compute", "coproduct", "Big", second, "--in", p,
                 "--name", "Sum"]),
            lambda res: res,
            _coproduct_check(alg, big, second_m, second_prefix),
            _corrupt_code))
        keep = sorted(rng.sample(range(n_big), n_big // 2))
        ops.append(Op(
            f"cli compute subspace/{tag}",
            lambda p=path, keep=keep: _run_cli(
                ["compute", "subspace", "Big", "--in", p, "--elements",
                 ",".join(f"b{i}" for i in keep), "--name", "Sub"]),
            lambda res: res,
            _printed_check(alg, _lazy(
                lambda m=big, keep=keep: oracle.subspace(m, keep)),
                [f"b{i}" for i in keep], "identity"),
            _corrupt_code))

    # a generated file with one planted transitivity violation
    alg = oracle.CHAIN4
    good = oracle.closure(alg, random_dag(alg, 16, rng, density=0.4))
    bad = _plant_transitivity(alg, good, rng)
    path = os.path.join(workdir, "ws-broken.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(QUANTALE_BLOCKS["chain4"]
                     + _space_block("Good", "identity", "g", alg, good)
                     + _space_block("Bad", "ultrafilter-finite", "d", alg, bad))
    ops.append(Op(
        "cli validate/planted", lambda: _run_cli(["validate", path]),
        lambda res: res,
        _validate_check(["Good", "Bad"], {"Bad": {"transitivity"}}),
        _corrupt_code))
    return ops


def _corrupt_code(got):
    code, text = got
    return (1 - code if code in (0, 1) else 0), text


def _truth_check(expected_get):
    def check(got):
        code, text = got
        want = expected_get()
        expect(code == (0 if want else 1),
               f"exit {code}, reference answer is {want}")
        expect(text.splitlines()[0] == ("true" if want else "false"),
               "printed answer does not match the exit code")
    return check


def _validate_check(names, broken_laws):
    def check(got):
        code, text = got
        expect(code == (1 if broken_laws else 0), f"validate exited {code}")
        for name in names:
            status = "violation" if name in broken_laws else "ok"
            expect(f"space {name}: {status}\n" in text,
                   f"space {name} not reported {status}")
        named = {line.split(":")[0].strip() for line in text.splitlines()
                 if line.startswith("  ")}
        want = set().union(*broken_laws.values()) if broken_laws else set()
        expect(named == want, f"laws named {named}, expected {want}")
    return check


def _printed_check(alg, expected_get, carrier, mname):
    def check(got):
        code, text = got
        expect(code == 0, f"compute exited {code}")
        labels_, rows, printed_monad = oracle.parse_printed_space(text)
        expect(labels_ == carrier, "printed carrier differs")
        expect(printed_monad == mname, "printed monad differs")
        expect(oracle.raw(alg, rows) == expected_get(),
               "printed matrix differs from the reference")
    return check


def _coproduct_check(alg, a, b, b_prefix):
    carrier = ([f"0:b{i}" for i in range(len(a))]
               + [f"1:{b_prefix}{i}" for i in range(len(b))])
    return _printed_check(alg, _lazy(lambda: oracle.coproduct(alg, a, b)),
                          carrier, "identity")


# -- golden commands ---------------------------------------------------------------


def read_workspace(text):
    """This module's own reader: named quantale kinds and space matrices."""
    body = re.sub(r"#[^\n]*", "", text)
    kinds, found = {}, {}
    for kind, name, inner in re.findall(r"(\w+)\s+(\S+)\s*\{(.*?)\}", body,
                                        flags=re.S):
        fields = {}
        for stmt in re.split(r"[;\n]", inner):
            words = stmt.split()
            if words:
                fields[words[0]] = words[1:]
        if kind == "quantale":
            kinds[name] = fields["kind"]
        elif kind == "space":
            found[name] = fields
    out = {}
    for name, fields in found.items():
        kind = kinds[fields["quantale"][0]]
        alg = {"bool2": oracle.BOOL2, "cost-plus": oracle.COST_PLUS,
               "cost-max": oracle.COST_MAX}.get(kind[0])
        if kind == ["lukasiewicz-grid", "4"]:
            alg = oracle.LUK4
        carrier = fields.get("carrier", [])
        n = len(carrier)
        flat = fields.get("matrix", [])
        m = [[alg.parse(flat[i * n + j]) for j in range(n)] for i in range(n)]
        out[name] = (alg, carrier, m, fields["monad"][0])
    return out


# golden commands whose answer is wrong today, kept and counted as failed
KNOWN_FAULTS = {
    "check_exponentiable_met3":
        "answers true, but the exponentiability inequality fails at "
        "(x,z)=(a,b), u=v=1/2: generated_values leaves out the breakpoints "
        "u (x) v = a(x,z)",
}


def _golden_op(name, argv, ws, broken_ws):
    """A golden command with an answer derived from the fixture's matrices."""
    if argv[0] == "validate":
        if "broken_space" in argv[1]:
            alg, _, m, _ = broken_ws["NoLoop"]
            laws = {v[0] for v in oracle.violations(alg, m)}
            check = _validate_check(["NoLoop"], {"NoLoop": laws})
        else:
            bad = {n: {v[0] for v in oracle.violations(a, m)}
                   for n, (a, _, m, _) in ws.items()
                   if oracle.violations(a, m)}
            check = _validate_check(sorted(ws), bad)
    elif argv[0] == "check":
        predicate, target = argv[1], argv[2]
        alg, _, m, _ = ws[target]
        if predicate in ("compact", "hausdorff", "separated"):
            want = getattr(oracle, predicate)(alg, m)
        elif predicate == "exponentiable":
            want = oracle.exponentiable(
                alg, m, None if alg.finite else oracle.cost_breakpoints(m))
        elif predicate == "c-generated":
            # compactly generated plain-quantale spaces are the discrete ones
            want = oracle.is_discrete(alg, m)
        elif alg is oracle.BOOL2:
            # every preordered space is Alexandroff
            want = True
        else:
            raise ValueError(f"no reference for {predicate} on {target}")
        check = _truth_check(lambda: want)
    else:
        op, operands = argv[1], argv[2:argv.index("--in")]
        check = _golden_compute_check(op, operands, argv, ws.__getitem__)
    return Op(f"golden {name}", lambda: _run_cli(argv), lambda res: res,
              check, _corrupt_code, known_fault=KNOWN_FAULTS.get(name))


def _golden_compute_check(op, operands, argv, space):
    if op == "reflect-quasi":
        # the probes are discrete, so the final structure is discrete
        return _printed_check(oracle.BOOL2, lambda: [[1, 0], [0, 1]],
                              ["x", "y"], "identity")
    alg, carrier, m, mname = space(operands[0])
    if op == "Ae":
        return _printed_check(alg, lambda: m, carrier, "identity")
    if op == "Aup":
        return _printed_check(alg, lambda: m, carrier, "ultrafilter-finite")
    if op == "coreflect":
        n = len(carrier)
        disc = [[alg.top if i == j else alg.bottom for j in range(n)]
                for i in range(n)]
        return _printed_check(alg, lambda: disc, carrier, mname)
    if op == "product":
        alg2, carrier2, m2, _ = space(operands[1])
        return _printed_check(
            alg, lambda: oracle.product(alg, m, m2),
            [f"({x},{y})" for x in carrier for y in carrier2], mname)
    if op == "coproduct":
        alg2, carrier2, m2, _ = space(operands[1])
        return _printed_check(
            alg, lambda: oracle.coproduct(alg, m, m2),
            [f"0:{x}" for x in carrier] + [f"1:{y}" for y in carrier2], mname)
    if op == "subspace":
        keep_labels = argv[argv.index("--elements") + 1].split(",")
        keep = [carrier.index(x) for x in keep_labels]
        return _printed_check(alg, lambda: oracle.subspace(m, keep),
                              keep_labels, mname)
    if op in ("exponential", "cmap"):
        _, carrier2, m2, _ = space(operands[1])
        maps, matrix = oracle.exponential(alg, m, m2)
        names = ["[" + ",".join(carrier2[y] for y in f) + "]" for f in maps]
        return _printed_check(alg, lambda: matrix, names, mname)
    if op == "associate":
        n = len(carrier)

        def check(got):
            code, text = got
            expect(code == 0, f"compute exited {code}")
            printed, admissible = oracle.parse_printed_quasi(text)
            expect(printed == carrier, "printed carrier differs")
            index = {x: i for i, x in enumerate(carrier)}
            sets = [{tuple(index[y] for y in g) for g in admissible.get(i, ())}
                    for i in range(2)]
            expect(sets == [all_graphs(1, n), all_graphs(2, n)],
                   "associated admissible sets are not all maps")
        return check
    raise ValueError(f"no reference for compute {op}")


def build(workload, seed, workdir):
    if workload == "dense-kernel":
        return dense_kernel(seed)
    if workload == "search-sweep":
        return search_sweep(seed)
    if workload == "cli-session":
        return cli_session(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("dense-kernel", "search-sweep", "cli-session")
