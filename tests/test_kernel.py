"""Differential tests of the payload kernels against the Value-level loops.

``compose``, the reflexive-transitive closure, ``validate_space``,
``continuity_witness`` and ``is_fully_faithful`` run on raw payloads (table
indices, or integers over a common denominator with an ``inf`` sentinel).
The functions prefixed ``ref_`` below are the entrywise ``Value``
implementations they replaced, kept as the oracle: every kernel answer must
equal theirs, violation lists and witnesses in the same order included.
``list_compose`` and ``list_close`` are the row-wise ``map(max)`` index
kernels that packed rows replaced on max-join tables, kept as a fast oracle
for large random matrices.  ``ref_cost_encode`` is the per-call rescale
that the stored cost forms replaced: every operation's scale, sentinel and
kernel rows must equal its.
"""

import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvspaces import (
    INF,
    StructuralError,
    bool2,
    chain,
    cost_max,
    cost_plus,
    finite_table,
    lukasiewicz_grid,
)
from tvspaces.monad import finite_ultrafilter_monad, identity_monad
from tvspaces.quantale import _CostKernel, _generated_payloads
from tvspaces.space import (
    Space,
    continuity_witness,
    exponentiability_witness,
    is_fully_faithful,
    pair_carrier,
    product,
    validate_space,
)
from tvspaces.validation import ValidationReport
from tvspaces.vrel import (
    Carrier,
    MapArrow,
    VRel,
    compose,
    reflexive_transitive_closure,
    rel_join,
    rel_leq,
    rel_meet,
)

# -- the Value-level reference ------------------------------------------------


def ref_compose(r, s):
    q = r.quantale
    a, b = r.entries, s.entries        # each read builds every Value
    out = []
    for i in range(len(r.dom)):
        row = []
        for j in range(len(s.cod)):
            row.append(q.join(q.tensor(a[i][m], b[m][j])
                              for m in range(len(r.cod))))
        out.append(row)
    return VRel(r.dom, s.cod, q, out)


def ref_closure(r):
    q = r.quantale
    n = len(r.dom)
    c = [list(row) for row in r.entries]
    for i in range(n):
        c[i][i] = q.join2(c[i][i], q.unit)
    for p in range(n):
        for i in range(n):
            via = c[i][p]
            for j in range(n):
                c[i][j] = q.join2(c[i][j], q.tensor(via, c[p][j]))
    return VRel(r.dom, r.cod, q, c)


def ref_validate(space):
    q = space.quantale
    a = space.structure.entries
    labels = space.carrier.labels
    n = len(labels)
    violations = []
    for i, x in enumerate(labels):
        if not q.leq(q.unit, a[i][i]):
            violations.append(("reflexivity", (x, a[i][i].token)))
    for i, big in enumerate(labels):
        for j, x in enumerate(labels):
            lhs = q.join(q.tensor(a[i][k], a[k][j]) for k in range(n))
            rhs = a[i][j]
            if not q.leq(lhs, rhs):
                violations.append(("transitivity",
                                   (space.monad.row_label(big, 2), x,
                                    lhs.token, rhs.token)))
    return ValidationReport.collect(violations)


def ref_continuity_witness(f, x_space, y_space):
    q = x_space.quantale
    a, b = x_space.structure, y_space.structure
    for tx in x_space.carrier.labels:
        for x in x_space.carrier.labels:
            if not q.leq(a.get(tx, x), b.get(f(tx), f(x))):
                return (x_space.monad.row_label(tx), x)
    return None


def ref_fully_faithful(f, x_space, y_space):
    a, b = x_space.structure, y_space.structure
    return all(a.get(tx, x) == b.get(f(tx), f(x))
               for tx in x_space.carrier.labels
               for x in x_space.carrier.labels)


def ref_cost_encode(q, matrices, steps=1):
    """The per-call rescale of payload matrices: ``(scale, inf, rows)``.

    The scale is the lcm of every denominator of the operation and the
    sentinel ``steps`` times the largest numerator times the scale, plus
    one; each entry is rescaled from its ``Fraction`` on every call.
    """
    ratios = [p.as_integer_ratio() for m in matrices for row in m
              for p in row if p is not INF]
    scale = math.lcm(*{d for _, d in ratios})
    inf = max(steps, 1) * max(ratios, default=(0, 1))[0] * scale + 1
    return scale, inf, [[[inf if p is INF
                          else (r := p.as_integer_ratio())[0] * (scale // r[1])
                          for p in row] for row in m] for m in matrices]


def ref_encode(q, matrices, steps=1):
    """A kernel and the kernel rows of payload matrices, rescaled per call."""
    if q.is_finite:
        return q.kernel(()), [[list(row) for row in m] for m in matrices]
    scale, inf, rows = ref_cost_encode(q, matrices, steps)
    return _CostKernel(q, scale, inf), rows


def ref_decode(kernel, rows):
    """Entry by entry: the payload of each kernel entry."""
    if not isinstance(kernel, _CostKernel):
        return rows
    return [[INF if x >= kernel.inf else Fraction(x, kernel.scale)
             for x in row] for row in rows]


def ref_kernel_compose(r, s):
    kernel, (left, right) = ref_encode(r.quantale, (r.rows, s.rows), 2)
    return VRel._from_rows(r.dom, s.cod, r.quantale, ref_decode(
        kernel, kernel.compose(left, right, len(s.cod))))


def ref_kernel_closure(r):
    kernel, (c,) = ref_encode(r.quantale, (r.rows,), 2 * len(r.dom))
    return VRel._from_rows(r.dom, r.cod, r.quantale,
                           ref_decode(kernel, kernel.close(c)))


def ref_product(x_space, y_space):
    """The meet of the two pulled-back structures, entry by entry."""
    q, a, b = x_space.quantale, x_space.structure, y_space.structure
    c = pair_carrier(x_space.carrier, y_space.carrier)
    return VRel(c, c, q, [[q.meet(a.get(x, x2), b.get(y, y2))
                           for x2 in x_space.carrier for y2 in y_space.carrier]
                          for x in x_space.carrier for y in y_space.carrier])


def ref_exponentiability_witness(space):
    """The kernel search, with entries and values rescaled per call and
    no shortcut for a meet tensor."""
    q, rows = space.quantale, space.structure.rows
    values = _generated_payloads(q, [p for row in rows for p in row])
    kernel, (a, (payloads,)) = ref_encode(q, (rows, [values]), steps=2)
    hit = kernel.exponentiability_witness(a, payloads)
    if hit is None:
        return None
    i, j, ui, vi = hit
    labels = space.carrier.labels
    return (space.monad.row_label(labels[i], 2), labels[j],
            q.value_of(values[ui]), q.value_of(values[vi]))


def _max_rows(rows, width):
    if not rows:
        return [0] * width
    if len(rows) == 1:
        return list(rows[0])
    return list(map(max, *rows))


def list_compose(q, left, right, width):
    """Compose on the index rows of a max-join table, one list per term."""
    if not (left and width):
        return [[] for _ in left]
    tensor = q._tensor
    skip = None if any(tensor[0]) else 0     # bottom is index 0
    terms = [{} for _ in right]   # terms[m][a]: a tensored on right[m]
    out = []
    for row in left:
        rows = []
        for m, a in enumerate(row):
            if a == skip:
                continue
            t = terms[m].get(a)
            if t is None:
                ta = tensor[a]
                t = terms[m][a] = [ta[x] for x in right[m]]
            rows.append(t)
        out.append(_max_rows(rows, width))
    return out


def list_close(q, c):
    """Floyd-Warshall on the index rows of a max-join table, in place."""
    n, tensor = len(c), q._tensor
    skip = None if any(tensor[0]) else 0
    for i in range(n):
        c[i][i] = max(c[i][i], q.unit.payload)
    for p in range(n):
        terms = {}                # terms[v]: v tensored on row p
        for i in range(n):
            via = c[i][p]
            if via == skip:
                continue
            t = terms.get(via)
            if t is None:
                tv = tensor[via]
                t = terms[via] = [tv[x] for x in c[p]]
            c[i] = [x if x >= y else y for x, y in zip(c[i], t)]
            if i == p:
                terms = {}
    return c


def assert_round_trip(r):
    """The public constructor on ``r.entries`` gives back ``r`` and its
    hash, and the tokens of ``r`` parse back to its entries."""
    again = VRel(r.dom, r.cod, r.quantale, r.entries)
    assert again == r and hash(again) == hash(r)
    assert again.tokens() == r.tokens()
    parse = r.quantale.parse_value
    assert tuple(tuple(map(parse, row)) for row in r.tokens()) == r.entries


# -- seeded inputs ------------------------------------------------------------

def diamond():
    """0 < a, b < 1 with meet as tensor: a lattice that is not a chain."""
    meet = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]
    leq = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    return finite_table(["0", "a", "b", "1"], leq, meet, unit_index=3)


def pentagon():
    """N5: 0 < a < c < 1 and 0 < b < 1, with meet as tensor: a lattice
    that is not distributive."""
    leq = [[1, 1, 1, 1, 1], [0, 1, 0, 1, 1], [0, 0, 1, 0, 1],
           [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]]
    meet = [[0, 0, 0, 0, 0], [0, 1, 0, 1, 1], [0, 0, 2, 0, 2],
            [0, 1, 0, 3, 3], [0, 1, 2, 3, 4]]
    return finite_table(["0", "a", "b", "c", "1"], leq, meet, unit_index=4)


def m3():
    """M3: three incomparable atoms a, b, c below 1, with meet as tensor: a
    lattice that is not distributive."""
    leq = [[1, 1, 1, 1, 1], [0, 1, 0, 0, 1], [0, 0, 1, 0, 1],
           [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]]
    meet = [[0, 0, 0, 0, 0], [0, 1, 0, 0, 1], [0, 0, 2, 0, 2],
            [0, 0, 0, 3, 3], [0, 1, 2, 3, 4]]
    return finite_table(["0", "a", "b", "c", "1"], leq, meet, unit_index=4)


# the five shipped quantales, and lattices whose join is not max of the
# indices, so that they take the table paths
QUANTALES = {
    "bool2": bool2,
    "chain4": lambda: chain(4),
    "luk4": lambda: lukasiewicz_grid(4),
    "cost-plus": cost_plus,
    "cost-max": cost_max,
    "diamond": diamond,
    "pentagon": pentagon,
    "m3": m3,
}
MONADS = (identity_monad, finite_ultrafilter_monad)
SIZES = (0, 1, 2, 5, 12)
# mixed denominators, so the common scale is their lcm (84)
COSTS = [Fraction(1, 3), Fraction(1, 7), Fraction(5, 12), Fraction(2),
         Fraction(7, 4), Fraction(0), Fraction(11, 7)]


def random_value(q, rng):
    if rng.random() < 0.35:
        return q.bottom
    if q.is_finite:
        return rng.choice(q.carrier_values())
    return q.value(rng.choice(COSTS))


def random_matrix(q, n, m, rng):
    return [[random_value(q, rng) for _ in range(m)] for _ in range(n)]


def carrier(prefix, n):
    return Carrier([f"{prefix}{i}" for i in range(n)])


def space_of(q, monad, c, rows):
    return Space.from_square(c, monad, q, VRel(c, c, q, rows))


def plant_transitivity(q, rows):
    """Lower an entry that a two-step path forces above bottom."""
    n = len(rows)
    for i in range(n):
        for j in range(n):
            if i == j or rows[i][j] == q.bottom:
                continue
            if any(q.tensor(rows[i][p], rows[p][j]) != q.bottom
                   for p in range(n) if p not in (i, j)):
                out = [list(row) for row in rows]
                out[i][j] = q.bottom
                return out
    return None


def cases():
    for qname in QUANTALES:
        for monad in MONADS:
            for n in SIZES:
                yield pytest.param(qname, monad, n,
                                   id=f"{qname}-{monad().name}-{n}")


# -- differential tests -------------------------------------------------------


@pytest.mark.parametrize("qname,monad,n", cases())
def test_kernels_match_reference(qname, monad, n):
    q, mon = QUANTALES[qname](), monad()
    rng = random.Random(f"{qname}/{mon.name}/{n}")
    c = carrier("p", n)
    raw = VRel(c, c, q, random_matrix(q, n, n, rng))
    raw_rows = [list(row) for row in raw.rows]
    closed = ref_closure(raw)
    assert reflexive_transitive_closure(raw) == closed
    assert compose(raw, raw) == ref_compose(raw, raw)
    assert compose(closed, closed) == ref_compose(closed, closed)
    other = carrier("z", 3)
    right = VRel(c, other, q, random_matrix(q, n, 3, rng))
    assert compose(raw, right) == ref_compose(raw, right)
    for r in (reflexive_transitive_closure(raw), compose(raw, raw),
              compose(raw, right)):
        assert_round_trip(r)

    spaces = [space_of(q, mon, c, raw.entries),
              space_of(q, mon, c, closed.entries)]
    if n:
        no_loop = [list(row) for row in closed.entries]
        no_loop[rng.randrange(n)][rng.randrange(n)] = q.bottom
        k = rng.randrange(n)
        no_loop[k][k] = q.bottom
        spaces.append(space_of(q, mon, c, no_loop))
    planted = plant_transitivity(q, closed.entries)
    if planted is not None:
        spaces.append(space_of(q, mon, c, planted))
    inputs = [raw, right] + [sp.structure for sp in spaces]
    before = [raw_rows] + [[list(row) for row in r.rows] for r in inputs[1:]]
    for sp in spaces:
        reflexive_transitive_closure(sp.structure)
        assert validate_space(sp) == ref_validate(sp)
    if planted is not None:
        assert any(law == "transitivity"
                   for law, _ in validate_space(spaces[-1]).violations)

    # continuity and full faithfulness of seeded maps into the closed space,
    # from pullbacks (continuous, fully faithful) and from perturbed copies
    y_space = spaces[1]
    xc = carrier("x", n)
    for _ in range(4):
        image = [rng.randrange(n) for _ in range(n)] if n else []
        f = MapArrow(xc, c, {f"x{i}": f"p{image[i]}" for i in range(n)})
        pulled = [[closed.entries[image[i]][image[j]] for j in range(n)]
                  for i in range(n)]
        perturbed = [[random_value(q, rng) if rng.random() < 0.2 else v
                      for v in row] for row in pulled]
        for rows in (pulled, perturbed):
            x_space = space_of(q, mon, xc, rows)
            assert (continuity_witness(f, x_space, y_space)
                    == ref_continuity_witness(f, x_space, y_space))
            assert (is_fully_faithful(f, x_space, y_space)
                    == ref_fully_faithful(f, x_space, y_space))
    # every kernel operation wrote only to its own copies of the rows
    assert [[list(row) for row in r.rows] for r in inputs] == before


def test_incomparable_entries_are_not_in_order():
    # a and b lie in index order 1 < 2, but not in the diamond's order
    q = diamond()
    zero, a, b, one = q.carrier_values()
    x_space = space_of(q, identity_monad(), carrier("x", 2),
                       [[one, a], [zero, one]])
    y_space = space_of(q, identity_monad(), carrier("p", 2),
                       [[one, b], [zero, one]])
    f = MapArrow(x_space.carrier, y_space.carrier, {"x0": "p0", "x1": "p1"})
    assert continuity_witness(f, x_space, y_space) == ("x0", "x1")
    assert ref_continuity_witness(f, x_space, y_space) == ("x0", "x1")


def cost_rel(q, raw):
    c = carrier("p", len(raw))
    return VRel(c, c, q, [[q.bottom if x is INF else q.value(x) for x in row]
                          for row in raw])


def test_long_finite_path_is_not_infinite():
    """A 12-step chain of 12s sums to 144, far above any single entry."""
    q = cost_plus()
    n = 13
    raw = [[INF] * n for _ in range(n)]
    for i in range(n - 1):
        raw[i][i + 1] = Fraction(12)
    r = cost_rel(q, raw)
    closed = reflexive_transitive_closure(r)
    assert closed == ref_closure(r)
    assert closed.entries[0][n - 1] == q.value(144)
    assert closed.entries[n - 1][0] == q.bottom
    assert compose(closed, closed) == ref_compose(closed, closed)
    sp = space_of(q, identity_monad(), r.dom, closed.entries)
    assert validate_space(sp).passed


def test_sums_into_infinity_stay_infinite():
    q = cost_plus()
    raw = [[Fraction(0), Fraction(5, 12), INF],
           [INF, Fraction(0), INF],
           [Fraction(1, 7), INF, Fraction(1, 3)]]
    r = cost_rel(q, raw)
    assert compose(r, r) == ref_compose(r, r)
    assert compose(r, r).entries[0][2] == q.bottom
    assert reflexive_transitive_closure(r) == ref_closure(r)
    two_steps = q.value(Fraction(1, 7) + Fraction(5, 12))
    assert compose(r, r).entries[2][1] == two_steps


def test_relations_with_different_denominators_compose():
    q = cost_plus()
    a, b = carrier("a", 2), carrier("b", 2)
    r = VRel(a, b, q, [[q.value(Fraction(1, 3)), q.bottom],
                       [q.value(Fraction(2)), q.value(Fraction(1, 7))]])
    s = VRel(b, a, q, [[q.value(Fraction(5, 12)), q.bottom],
                       [q.value(0), q.value(Fraction(3, 5))]])
    assert compose(r, s) == ref_compose(r, s)
    assert compose(s, r) == ref_compose(s, r)


# -- broken tables ------------------------------------------------------------

# a, b incomparable below c: no bottom element, so no meet of a and b
NO_BOTTOM = dict(labels=["a", "b", "c"],
                 leq_table=[[1, 0, 1], [0, 1, 1], [0, 0, 1]],
                 tensor_table=[[0, 2, 0], [2, 1, 1], [0, 1, 2]],
                 unit_index=2)


def _no_join_table():
    """z < x, y < u, v < t: x and y have two least upper bounds, u and v.

    The unit is the top t, and the tensor is idempotent and sends two
    different non-units to z.
    """
    labels = ["z", "x", "y", "u", "v", "t"]
    above = {"z": "zxyuvt", "x": "xuvt", "y": "yuvt", "u": "ut", "v": "vt",
             "t": "t"}
    leq = [[int(b in above[a]) for b in labels] for a in labels]
    t = 5
    tensor = [[b if a == t else a if b in (a, t) else 0 for b in range(6)]
              for a in range(6)]
    return dict(labels=labels, leq_table=leq, tensor_table=tensor,
                unit_index=t)


NO_JOIN = _no_join_table()
# a 3-cycle: total join and meet tables, but not a partial order
THREE_CYCLE = dict(labels=["a", "b", "c"],
                   leq_table=[[1, 0, 1], [1, 1, 0], [0, 1, 1]],
                   tensor_table=[[0, 0, 0], [0, 1, 0], [0, 0, 2]],
                   unit_index=2)


@pytest.mark.parametrize("table,message", [
    (NO_BOTTOM, "meet undefined in quantale finite-table(a,b,c): the order "
                "is not a complete lattice (run validate_quantale)"),
    (NO_JOIN, "join undefined in quantale finite-table(z,x,y,u,v,t): the "
              "order is not a complete lattice (run validate_quantale)"),
    (THREE_CYCLE, "order not a partial order in quantale finite-table(a,b,c):"
                  " the order is not a complete lattice (run "
                  "validate_quantale)"),
], ids=["no-bottom", "no-join", "3-cycle"])
def test_kernels_refuse_an_order_that_is_not_a_lattice(table, message):
    """Every kernel operation raises the lattice error, on every carrier
    and relation, the empty ones included."""
    q = finite_table(**table)
    v = q.carrier_values()
    unit = q.unit
    for n in (0, 1, 2, 3):
        c = carrier("p", n)
        rows = [[unit if i == j else v[(i + j) % len(v)] for j in range(n)]
                for i in range(n)]
        r = VRel(c, c, q, rows)
        diagonal = VRel(c, c, q, [[unit if i == j else v[0] for j in range(n)]
                                  for i in range(n)])
        sp = space_of(q, identity_monad(), c, rows)
        f = MapArrow.identity(c)
        for fn, *args in ((compose, r, r), (compose, diagonal, diagonal),
                          (reflexive_transitive_closure, r),
                          (reflexive_transitive_closure, diagonal),
                          (validate_space, sp),
                          (continuity_witness, f, sp, sp),
                          (is_fully_faithful, f, sp, sp),
                          (exponentiability_witness, sp),
                          (rel_leq, r, r), (rel_join, r, diagonal),
                          (rel_meet, r, diagonal)):
            with pytest.raises(StructuralError) as exc:
                fn(*args)
            assert type(exc.value) is StructuralError
            assert str(exc.value) == message


def test_bottom_that_does_not_absorb_gives_the_reference_answer():
    # a three-chain whose join is max, but bottom (*) anything is anything
    # and the unit 2 raises 0 to 2, so a pivot row changes while it is swept
    q = finite_table(["0", "1", "2"], [[1, 1, 1], [0, 1, 1], [0, 0, 1]],
                     [[0, 1, 2], [1, 1, 1], [2, 1, 2]], unit_index=2)
    rng = random.Random(7)
    for n in (1, 2, 3, 4, 5) * 12:
        c = carrier("p", n)
        r = VRel(c, c, q, random_matrix(q, n, n, rng))
        assert compose(r, r) == ref_compose(r, r)
        assert reflexive_transitive_closure(r) == ref_closure(r)
        for mon in MONADS:
            sp = space_of(q, mon(), c, r.entries)
            assert validate_space(sp) == ref_validate(sp)


def test_pivot_row_raised_by_its_own_sweep_is_read_after_it():
    # a tensor that breaks the unit law: sweeping the pivot row over itself
    # changes it, and the rows after the pivot must read the new row
    q = finite_table(["0", "1", "2"], [[1, 1, 1], [0, 1, 1], [0, 0, 1]],
                     [[1, 0, 0], [1, 0, 1], [1, 2, 0]], unit_index=2)
    v = q.carrier_values()
    c = carrier("p", 3)
    r = VRel(c, c, q, [[v[0], v[0], v[0]], [v[0], v[0], v[0]],
                       [v[0], v[1], v[0]]])
    assert reflexive_transitive_closure(r) == ref_closure(r)


def test_cost_kernel_results_are_canonical():
    """Every inf that compose or close produces is the sentinel itself."""
    q = cost_plus()
    r = cost_rel(q, [[Fraction(1, 3), INF, INF], [INF, INF, Fraction(5, 12)],
                     [INF, INF, INF]])
    kernel, (a,) = q.encode((r,), steps=2)
    for rows, ref in ((kernel.compose(a, a, 3), ref_compose(r, r)),
                      (kernel.close([list(x) for x in a]), ref_closure(r))):
        assert all(p <= kernel.inf for row in rows for p in row)
        assert kernel.decode(rows) == [list(row) for row in ref.rows]


# -- packed rows --------------------------------------------------------------

# max-join tables: every shipped finite family, with one-byte fields up to
# chain(9), two-byte fields from chain(10) on, and chain(43), the first
# whose rows fold through the tables
MAX_JOIN = {
    "bool2": bool2,
    "chain1": lambda: chain(1),
    "chain4": lambda: chain(4),
    "chain9": lambda: chain(9),
    "chain10": lambda: chain(10),
    "chain17": lambda: chain(17),
    "chain42": lambda: chain(42),
    "chain43": lambda: chain(43),
    "luk4": lambda: lukasiewicz_grid(4),
    "luk10": lambda: lukasiewicz_grid(10),
}


def index_matrix(q, n, m, rng, bottoms=0.35):
    top = len(q.labels) - 1
    return [[0 if rng.random() < bottoms else rng.randint(0, top)
             for _ in range(m)] for _ in range(n)]


@settings(max_examples=40, deadline=None)
@given(qname=st.sampled_from(sorted(MAX_JOIN)), n=st.integers(0, 64),
       m=st.integers(0, 64), width=st.integers(0, 64),
       bottoms=st.sampled_from([0.0, 0.35, 0.9]), seed=st.integers(0, 2**32))
def test_packed_rows_match_the_list_kernel(qname, n, m, width, bottoms,
                                           seed):
    q = MAX_JOIN[qname]()
    kernel, rng = q.kernel(()), random.Random(seed)
    left = index_matrix(q, n, m, rng, bottoms)
    right = index_matrix(q, m, width, rng, bottoms)
    square = index_matrix(q, n, n, rng, bottoms)
    before = [[list(row) for row in x] for x in (left, right)]
    assert (kernel.compose(left, right, width)
            == list_compose(q, left, right, width))
    # compose writes into no input row; close works in place
    assert [left, right] == before
    expected = list_close(q, [list(row) for row in square])
    assert kernel.close(square) == expected and square == expected


# each 48- and 64-point square is checked against one Value oracle, the
# three of them in turn, and against the list kernel
LONG_ROWS = [("bool2", 48, "closure"), ("bool2", 64, "compose"),
             ("chain4", 48, "compose"), ("chain4", 64, "validate"),
             ("luk4", 48, "validate"), ("luk4", 64, "closure")]


@pytest.mark.parametrize("qname,n,oracle", LONG_ROWS,
                         ids=[f"{q}-{n}-{o}" for q, n, o in LONG_ROWS])
def test_rows_longer_than_a_word_match_reference(qname, n, oracle):
    q = MAX_JOIN[qname]()
    rng = random.Random(f"long/{qname}/{n}")
    c = carrier("p", n)
    raw = VRel(c, c, q, random_matrix(q, n, n, rng))
    closed = reflexive_transitive_closure(raw)
    assert [list(row) for row in closed.rows] == list_close(
        q, [list(row) for row in raw.rows])
    both = compose(closed, raw)
    assert [list(row) for row in both.rows] == list_compose(
        q, closed.rows, raw.rows, n)
    if oracle == "closure":
        assert closed == ref_closure(raw)
    elif oracle == "compose":
        assert both == ref_compose(closed, raw)
    else:
        planted = plant_transitivity(q, closed.entries)
        sp = space_of(q, identity_monad(), c, planted)
        assert validate_space(sp) == ref_validate(sp)
        assert not validate_space(sp).passed


@pytest.mark.parametrize("qname", ["luk10", "chain17"])
def test_two_byte_fields_match_reference(qname):
    q = MAX_JOIN[qname]()
    rng = random.Random(f"wide/{qname}")
    for n in (1, 2, 7, 12):
        c = carrier("p", n)
        raw = VRel(c, c, q, random_matrix(q, n, n, rng))
        closed = ref_closure(raw)
        assert reflexive_transitive_closure(raw) == closed
        assert compose(raw, closed) == ref_compose(raw, closed)
        for rows in (raw.entries, closed.entries,
                     plant_transitivity(q, closed.entries)):
            if rows is not None:
                sp = space_of(q, finite_ultrafilter_monad(), c, rows)
                assert validate_space(sp) == ref_validate(sp)


@pytest.mark.parametrize("qname", ["bool2", "chain4", "luk10"])
def test_rectangular_and_empty_composes_match_reference(qname):
    q = MAX_JOIN[qname]()
    rng = random.Random(f"shapes/{qname}")
    for rows, mid, cols in ((5, 48, 3), (3, 48, 5), (5, 48, 0), (0, 48, 3),
                            (4, 0, 3), (0, 0, 0)):
        left = VRel(carrier("x", rows), carrier("y", mid), q,
                    random_matrix(q, rows, mid, rng))
        right = VRel(carrier("y", mid), carrier("z", cols), q,
                     random_matrix(q, mid, cols, rng))
        assert compose(left, right) == ref_compose(left, right)


@pytest.mark.parametrize("qname,n", [("bool2", 9), ("chain4", 6),
                                     ("luk10", 5), ("chain17", 4)])
def test_exponentiability_scan_rows_match_the_list_kernel(qname, n,
                                                          monkeypatch):
    """The scan composes rows n * |V| wide; its witness is the same when
    every compose goes through the list kernel."""
    q = MAX_JOIN[qname]()
    rng = random.Random(f"expo/{qname}/{n}")
    c = carrier("p", n)
    for closed in (False, True):
        r = VRel(c, c, q, random_matrix(q, n, n, rng))
        if closed:
            r = reflexive_transitive_closure(r)
        sp = space_of(q, identity_monad(), c, r.entries)
        # the scan's composite for one row, n * |V| columns wide
        values, a = q.carrier_values(), r.entries
        vs = carrier("v", len(values))
        pairs = carrier("jv", n * len(values))
        m = VRel(vs, c, q, [[q.meet(p, u) for p in a[0]] for u in values])
        nn = VRel(c, pairs, q, [[q.meet(p, v) for p in row for v in values]
                                for row in a])
        assert compose(m, nn) == ref_compose(m, nn)
        got = exponentiability_witness(sp)
        with monkeypatch.context() as patch:
            patch.setattr(type(q.kernel(())), "compose",
                          lambda self, left, right, width:
                          list_compose(q, left, right, width))
            assert exponentiability_witness(sp) == got


# -- stored cost forms --------------------------------------------------------

COST_QUANTALES = {"cost-plus": cost_plus, "cost-max": cost_max}
# mixed denominators up to 10, so scales up to their lcm 2520, and inf
COST_ENTRIES = st.one_of(
    st.just(INF), st.fractions(min_value=0, max_value=12, max_denominator=10))
# few values under meet, join and hom, for the exponentiability search
SMALL_COSTS = st.sampled_from([INF, Fraction(0), Fraction(1, 3),
                               Fraction(1, 2), Fraction(1), Fraction(5, 3)])


@st.composite
def cost_matrices(draw, n, m, entries=COST_ENTRIES):
    """n rows of m cost payloads; about one row in five is all ``inf``."""
    return [[INF] * m if draw(st.integers(0, 4)) == 0
            else draw(st.lists(entries, min_size=m, max_size=m))
            for _ in range(n)]


def cost_relation(q, dom, cod, rows):
    return VRel(dom, cod, q, [[q.bottom if p is INF else q.value(p)
                               for p in row] for row in rows])


@settings(max_examples=80, deadline=None)
@given(qname=st.sampled_from(sorted(COST_QUANTALES)),
       shapes=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                       min_size=1, max_size=3),
       steps=st.integers(1, 12), earlier_steps=st.integers(1, 12),
       data=st.data())
def test_encode_matches_the_per_call_rescale(qname, shapes, steps,
                                             earlier_steps, data):
    """Scale, sentinel and rows equal the per-call rescale's, for empty
    carriers and all-``inf`` rows too, whether or not a form was filled
    before by an operation with other companions and another ``steps``."""
    q = COST_QUANTALES[qname]()
    rels = [cost_relation(q, carrier("r", n), carrier("c", m),
                          data.draw(cost_matrices(n, m))) for n, m in shapes]
    companion = cost_relation(q, carrier("r", 2), carrier("c", 3),
                              data.draw(cost_matrices(2, 3)))
    for r in rels:
        if data.draw(st.booleans()):
            q.encode((r, companion), steps=earlier_steps)
    want = ref_cost_encode(q, [r.rows for r in rels], steps)
    payloads = [[list(row) for row in r.rows] for r in rels]
    for _ in range(2):                # the second pass reads stored forms
        kernel, rows = q.encode(rels, steps)
        assert (kernel.scale, kernel.inf, rows) == want
        assert [kernel.decode(m) for m in rows] == payloads
        for m in rows:                # the rows are the caller's to write
            for row in m:
                row[:] = [-1] * len(row)
    kernel = q.kernel(rels, steps)
    assert (kernel.scale, kernel.inf) == want[:2]
    for r, m in zip(rels, want[2]):
        for i, row in enumerate(m):
            assert kernel.row(r, i) == row
            indices = data.draw(st.lists(
                st.integers(0, len(row) - 1), max_size=7)) if row else []
            assert kernel.row(r, i, indices) == [row[j] for j in indices]


@settings(max_examples=60, deadline=None)
@given(qname=st.sampled_from(sorted(COST_QUANTALES)), n=st.integers(0, 4),
       m=st.integers(0, 3), monad=st.sampled_from(MONADS), data=st.data())
def test_cost_operations_match_the_reference(qname, n, m, monad, data):
    """Compose, closure, validation, continuity, products and the
    exponentiability search give the per-call rescale's answers."""
    q, mon = COST_QUANTALES[qname](), monad()
    c, z = carrier("p", n), carrier("z", m)
    r = cost_relation(q, c, c, data.draw(cost_matrices(n, n)))
    s = cost_relation(q, c, z, data.draw(cost_matrices(n, m)))
    closed = reflexive_transitive_closure(r)
    assert closed == ref_kernel_closure(r) == ref_closure(r)
    for left, right in ((r, s), (closed, closed), (r, closed), (closed, s)):
        assert (compose(left, right) == ref_kernel_compose(left, right)
                == ref_compose(left, right))
    x_space, y_space = Space(c, mon, q, r), Space(c, mon, q, closed)
    for sp in (x_space, y_space):
        assert validate_space(sp) == ref_validate(sp)
    k = m if n else 0                 # no map into an empty carrier
    xc = carrier("x", k)
    images = data.draw(st.lists(st.integers(0, n - 1), min_size=k,
                                max_size=k)) if n else []
    f = MapArrow._from_images(xc, c, images)
    pulled = [[closed.rows[fi][fj] for fj in images] for fi in images]
    for rows in (pulled, data.draw(cost_matrices(k, k))):
        w_space = Space(xc, mon, q, cost_relation(q, xc, xc, rows))
        for target in (x_space, y_space):
            assert (continuity_witness(f, w_space, target)
                    == ref_continuity_witness(f, w_space, target))
            assert (is_fully_faithful(f, w_space, target)
                    == ref_fully_faithful(f, w_space, target))
        assert (product(w_space, y_space)[0].structure
                == ref_product(w_space, y_space))
    e = carrier("e", min(n, 3))
    e_space = Space(e, mon, q, cost_relation(
        q, e, e, data.draw(cost_matrices(len(e), len(e), SMALL_COSTS))))
    assert (exponentiability_witness(e_space)
            == ref_exponentiability_witness(e_space))


def test_stored_forms_leave_equality_hashes_and_keys_alone():
    q = cost_plus()
    c = carrier("p", 3)
    rows = [[Fraction(0), Fraction(1, 3), INF],
            [Fraction(5, 12), Fraction(0), Fraction(2)],
            [INF, INF, Fraction(0)]]
    r, twin = cost_relation(q, c, c, rows), cost_relation(q, c, c, rows)
    sp, sp_twin = Space(c, identity_monad(), q, r), Space(
        c, identity_monad(), q, twin)
    before = (hash(r), hash(sp), sp.cache_key())
    compose(r, r)
    validate_space(sp)
    assert hasattr(r, "_cost_form") and not hasattr(twin, "_cost_form")
    assert r == twin and hash(r) == hash(twin) == before[0]
    assert sp == sp_twin and hash(sp) == hash(sp_twin) == before[1]
    assert sp.cache_key() == sp_twin.cache_key() == before[2]
    assert len({r, twin}) == 1 and len({sp, sp_twin}) == 1


def test_a_second_continuity_check_rescales_no_entry(monkeypatch):
    q = cost_plus()
    rng = random.Random("rescale once")
    n = 8
    c, xc = carrier("p", n), carrier("x", n)
    y_rows = ref_closure(VRel(c, c, q, random_matrix(q, n, n, rng))).entries
    images = [rng.randrange(n) for _ in range(n)]
    f = MapArrow._from_images(xc, c, images)
    x_rows = [[y_rows[fi][fj] for fj in images] for fi in images]
    x_space, y_space = space_of(q, identity_monad(), xc, x_rows), space_of(
        q, identity_monad(), c, y_rows)
    calls = []
    ratio = Fraction.as_integer_ratio

    def counted(self):
        calls.append(self)
        return ratio(self)

    monkeypatch.setattr(Fraction, "as_integer_ratio", counted)
    assert continuity_witness(f, x_space, y_space) is None
    assert calls                      # the first check fills both forms
    calls.clear()
    assert continuity_witness(f, x_space, y_space) is None
    assert is_fully_faithful(f, x_space, y_space)
    assert calls == []


def test_threads_sharing_relations_get_the_single_thread_answers():
    """Forms are stored without a lock: threads that race on an empty slot
    compute the form twice and store equal values."""

    def inputs():
        out, rng = [], random.Random("threads")
        for q in (cost_plus(), cost_max()):
            n = 7
            c = carrier("p", n)
            r = VRel(c, c, q, random_matrix(q, n, n, rng))
            closed = reflexive_transitive_closure(r)
            images = [rng.randrange(n) for _ in range(n)]
            f = MapArrow._from_images(c, c, images)
            x = Space(c, finite_ultrafilter_monad(), q, VRel._from_rows(
                c, c, q, [[closed.rows[fi][fj] for fj in images]
                          for fi in images]))
            y = Space(c, finite_ultrafilter_monad(), q, closed)
            out.append((r, f, x, y))
        return out

    def answers(cases):
        return [(reflexive_transitive_closure(r), compose(r, r),
                 compose(x.structure, y.structure), validate_space(x),
                 continuity_witness(f, x, y), is_fully_faithful(f, x, y),
                 product(x, y)[0], hash(x), x.cache_key())
                + ((exponentiability_witness(x),)
                   if x.quantale is cost_max() else ())
                for r, f, x, y in cases]

    want = answers(inputs())
    shared = inputs()
    got, errors = [], []

    def work():
        try:
            got.append(answers(shared))
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and got == [want] * 4


# -- exponentiability for a meet tensor ---------------------------------------

MEET_TENSORS = {
    "bool2": bool2,
    "chain3": lambda: chain(3),
    "chain4": lambda: chain(4),
    "m3": m3,
    "diamond": diamond,
}


def meet_squares(q, rng):
    """Index squares on up to 3 points: every one on up to 2 points; on 3,
    every one with a top diagonal (a seeded 4,096 of m3's 15,625), and a
    seeded sample of the others."""
    r, top = range(len(q.labels)), q.top.payload
    for n in (0, 1, 2):
        for entries in itertools.product(r, repeat=n * n):
            yield [list(entries[i * n:(i + 1) * n]) for i in range(n)]
    off = list(itertools.product(r, repeat=6))
    if len(off) > 4096:
        off = rng.sample(off, 4096)
    for entries in off:
        it = iter(entries)
        yield [[top if i == j else next(it) for j in range(3)]
               for i in range(3)]
    for _ in range(300):
        square = [[rng.choice(r) for _ in range(3)] for _ in range(3)]
        k = rng.randrange(3)
        square[k][k] = rng.choice([x for x in r if x != top])
        yield square


@pytest.mark.parametrize("qname", sorted(MEET_TENSORS))
@pytest.mark.parametrize("monad", MONADS, ids=["identity", "ultrafilter"])
def test_a_meet_tensor_is_exponentiable_by_proof(qname, monad):
    """With the tensor the meet and a top diagonal nothing is searched, and
    every answer, witnesses included, is the kernel search's."""
    q, mon = MEET_TENSORS[qname](), monad()
    assert q.meet_tensor
    rng = random.Random(f"meet/{qname}")
    for rows in meet_squares(q, rng):
        c = carrier("p", len(rows))
        sp = Space(c, mon, q, VRel._from_rows(c, c, q, rows))
        assert exponentiability_witness(sp) == ref_exponentiability_witness(sp)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 4), reflexive=st.booleans(),
       monad=st.sampled_from(MONADS), data=st.data())
def test_cost_max_is_exponentiable_by_proof(n, reflexive, monad, data):
    q = cost_max()
    assert q.meet_tensor and not cost_plus().meet_tensor
    rows = data.draw(cost_matrices(n, n, SMALL_COSTS))
    if reflexive:
        for i in range(n):
            rows[i][i] = Fraction(0)
    c = carrier("p", n)
    sp = Space(c, monad(), q, cost_relation(q, c, c, rows))
    assert exponentiability_witness(sp) == ref_exponentiability_witness(sp)
    if reflexive:
        assert exponentiability_witness(sp) is None


def test_exponentiability_by_proof_searches_nothing(monkeypatch):
    def no_search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(type(bool2().kernel(())), "exponentiability_witness",
                        no_search)
    monkeypatch.setattr(_CostKernel, "exponentiability_witness", no_search)
    for q in (bool2(), chain(4), m3(), cost_max()):
        n = 5
        c = carrier("p", n)
        rng = random.Random(f"no search/{q.describe()}")
        rows = [[q.top if i == j else random_value(q, rng) for j in range(n)]
                for i in range(n)]
        sp = Space(c, identity_monad(), q, VRel(c, c, q, rows))
        assert exponentiability_witness(sp) is None
    # the Lukasiewicz tensor is not the meet: it is searched
    assert not lukasiewicz_grid(3).meet_tensor
