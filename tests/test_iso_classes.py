"""Differential tests of the canonical key and the compact Hausdorff class.

``iso_canonical_key`` permutes only twin classes inside the cells of a
refined colouring, and ``compact_hausdorff_spaces`` returns the discrete
spaces on a lawful table.  The functions prefixed ``ref_`` below are the
code they replaced, kept as the oracle: the least token matrix over every
permutation of the carrier, and the Hausdorff filter over every valid
structure.  The keys may differ from the oracle's, but they must split the
structures into the same classes; the class lists must be equal, in equal
order, and raise the same errors.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvspaces import (
    StructuralError,
    TvsError,
    bool2,
    chain,
    cost_plus,
    finite_table,
    lukasiewicz_grid,
)
from tvspaces.enumeration import (
    _arrangements,
    all_valid_spaces,
    compact_hausdorff_spaces,
    iso_canonical_key,
    standard_carrier,
)
from tvspaces.generation import ProbeClass
from tvspaces.monad import finite_ultrafilter_monad, identity_monad
from tvspaces.quantale import validate_quantale
from tvspaces.space import (
    Space,
    discrete_space,
    indiscrete_space,
    is_compact,
    is_hausdorff,
)
from tvspaces.suite import non_integral_quantale
from tvspaces.vrel import VRel, reflexive_transitive_closure

IM = identity_monad()

# -- the replaced code --------------------------------------------------------


def ref_iso_canonical_key(space):
    """Least token matrix of the square form over carrier permutations."""
    sq = space.structure.tokens()
    n = len(space.carrier)
    best = None
    for perm in itertools.permutations(range(n)):
        candidate = tuple(tuple(sq[perm[i]][perm[j]] for j in range(n))
                          for i in range(n))
        if best is None or candidate < best:
            best = candidate
    return (n, best)


def ref_compact_hausdorff_spaces(quantale, monad, max_size):
    """The filter over every valid structure, deduplicated by the n! key."""
    if not quantale.is_finite:
        return [discrete_space(standard_carrier(size), monad, quantale)
                for size in range(1, max_size + 1)]
    test_compact = not (quantale.integral
                        and validate_quantale(quantale).passed)
    result, seen = [], set()
    for size in range(1, max_size + 1):
        for space in all_valid_spaces(quantale, monad,
                                      standard_carrier(size)):
            if test_compact and not is_compact(space):
                continue
            if not is_hausdorff(space):
                continue
            key = ref_iso_canonical_key(space)
            if key not in seen:
                seen.add(key)
                result.append(space)
    return result


def outcome(fn, *args):
    """The result of a call, or the type and message of its error."""
    try:
        return fn(*args)
    except TvsError as exc:
        return (type(exc), str(exc))


def first_seen(spaces, keys):
    reps = {}
    for space, key in zip(spaces, keys):
        reps.setdefault(key, space)
    return list(reps.values())


def relabelled(space, perm):
    """The same space with point i moved to position perm[i]."""
    n = len(space.carrier)
    moved = [[None] * n for _ in range(n)]
    for i, row in enumerate(space.structure.entries):
        for j, v in enumerate(row):
            moved[perm[i]][perm[j]] = v
    carrier, q = space.carrier, space.quantale
    return Space.from_square(carrier, space.monad, q,
                             VRel(carrier, carrier, q, moved))


# -- the canonical key --------------------------------------------------------


@pytest.mark.parametrize("q,sizes", [
    (bool2(), range(5)),
    (chain(3), range(4)),
    (lukasiewicz_grid(4), range(3)),
], ids=["bool2", "chain3", "luk4"])
def test_key_gives_the_reference_classes(q, sizes):
    for n in sizes:
        spaces = list(all_valid_spaces(q, IM, standard_carrier(n)))
        new = [iso_canonical_key(s) for s in spaces]
        old = [ref_iso_canonical_key(s) for s in spaces]
        # the pairing of the two keys is one to one: the same partition
        assert len(set(new)) == len(set(old)) == len(set(zip(new, old)))
        assert first_seen(spaces, new) == first_seen(spaces, old)


def test_preorder_counts_match_oeis():
    labelled, classes = [], []
    for n in range(6):
        spaces = list(all_valid_spaces(bool2(), IM, standard_carrier(n)))
        labelled.append(len(spaces))
        classes.append(len({iso_canonical_key(s) for s in spaces}))
    assert labelled == [1, 1, 4, 29, 355, 6942]         # OEIS A000798
    assert classes == [1, 1, 3, 9, 33, 139]             # OEIS A001930


@st.composite
def closed_spaces(draw):
    """A closed square on up to 5 points over bool2, chain(3) or cost-plus."""
    q = draw(st.sampled_from([bool2(), chain(3), cost_plus()]))
    if q.is_finite:
        value = st.sampled_from(q.carrier_values())
    else:
        value = st.one_of(st.just(q.bottom), st.builds(
            lambda k, d: q.value(Fraction(k, d)),
            st.integers(0, 4), st.sampled_from([1, 2, 3])))
    n = draw(st.integers(0, 5))
    carrier = standard_carrier(n)
    raw = VRel(carrier, carrier, q,
               [[draw(value) for _ in range(n)] for _ in range(n)])
    return Space.from_square(carrier, IM, q,
                             reflexive_transitive_closure(raw))


@settings(max_examples=150, deadline=None)
@given(closed_spaces(), st.data())
def test_key_is_invariant_under_relabelling(space, data):
    n = len(space.carrier)
    perm = data.draw(st.permutations(range(n)))
    other = relabelled(space, perm)
    assert iso_canonical_key(other) == iso_canonical_key(space)
    # and it separates exactly what the n! key separates
    third = data.draw(closed_spaces())
    if third.quantale is space.quantale:
        assert ((iso_canonical_key(third) == iso_canonical_key(space))
                == (ref_iso_canonical_key(third)
                    == ref_iso_canonical_key(space)))


def blocks(q, sizes, forward):
    """Indiscrete blocks of these sizes: top inside a block, ``forward``
    from a block to a later one, bottom back.  Points of one block are
    twins; blocks of one size look alike when ``forward`` is bottom."""
    where = [b for b, size in enumerate(sizes) for _ in range(size)]
    carrier = standard_carrier(len(where))
    square = [[q.top if b == c else forward if b < c else q.bottom
               for c in where] for b in where]
    return Space.from_square(carrier, IM, q,
                             VRel(carrier, carrier, q, square))


@pytest.mark.parametrize("sizes", [(2, 2), (3, 1, 3), (2, 2, 2), (1, 2, 1, 2)])
def test_twin_blocks_give_the_reference_classes(sizes):
    q = chain(3)
    bottom, middle, _ = q.carrier_values()
    rng = random.Random(f"blocks/{sizes}")
    spaces = []
    for forward in (bottom, middle):
        space = blocks(q, sizes, forward)
        n = len(space.carrier)
        spaces += [relabelled(space, rng.sample(range(n), n))
                   for _ in range(4)]
    new = [iso_canonical_key(s) for s in spaces]
    old = [ref_iso_canonical_key(s) for s in spaces]
    assert len(set(new)) == len(set(old)) == len(set(zip(new, old))) == 2


def test_twins_key_without_trying_their_orders():
    """A discrete or indiscrete space is one cell of twins: one order, where
    the ten-point key used to try 10! of them."""
    for make in (discrete_space, indiscrete_space):
        keys = [iso_canonical_key(make(standard_carrier(n), IM, bool2()))
                for n in range(11)]
        assert len(set(keys)) == 11


@pytest.mark.parametrize("classes", [[[0]], [[0, 1]], [[0], [1], [2]],
                                     [[0, 3], [1], [2, 4]], [[0, 1, 2], [3]]])
def test_arrangements_are_the_orders_up_to_twin_swaps(classes):
    got = [tuple(order) for order in _arrangements(classes)]
    n = sum(map(len, classes))
    # one order per sequence of class positions: n! over the twin orders
    want = math.factorial(n)
    for twins in classes:
        want //= math.factorial(len(twins))
    assert len(got) == len(set(got)) == want
    rank = {x: i for i, twins in enumerate(classes) for x in twins}
    assert {tuple(rank[x] for x in order) for order in got} == {
        tuple(rank[x] for x in order)
        for order in itertools.permutations(range(n))}
    # each twin class keeps its own order
    for order in got:
        for twins in classes:
            assert [x for x in order if x in twins] == twins


# -- the compact Hausdorff class ----------------------------------------------


def _broken_integral():
    """An integral lattice whose unit tensors itself to bottom."""
    return finite_table(["0", "1"], [[1, 1], [0, 1]], [[0, 0], [0, 0]],
                        unit_index=1)


def _no_bottom():
    """a, b incomparable below c: no bottom element, so no empty join."""
    return finite_table(["a", "b", "c"], [[1, 0, 1], [0, 1, 1], [0, 0, 1]],
                        [[0, 2, 0], [2, 1, 1], [0, 1, 2]], unit_index=2)


def _no_top():
    """b < x, y with x and y incomparable: no join of x and y."""
    return finite_table(["b", "x", "y"], [[1, 1, 1], [0, 1, 0], [0, 0, 1]],
                        [[0, 0, 0], [0, 1, 0], [0, 0, 2]], unit_index=1)


def _no_join():
    """z < x, y < u, v < t: x and y have two least upper bounds."""
    labels = ["z", "x", "y", "u", "v", "t"]
    above = {"z": "zxyuvt", "x": "xuvt", "y": "yuvt", "u": "ut", "v": "vt",
             "t": "t"}
    leq = [[int(b in above[a]) for b in labels] for a in labels]
    tensor = [[b if a == 5 else a if b in (a, 5) else 0 for b in range(6)]
              for a in range(6)]
    return finite_table(labels, leq, tensor, unit_index=5)


def _one_sided():
    """A four-chain whose tensor is bottom but for 3 (x) 3, 1 (x) 3, 3 (x) 2.

    Its pairs of unit and c1 or c2 are bottom in one order only, so it
    tells whether both orders of a pair are tested.
    """
    tensor = [[0] * 4 for _ in range(4)]
    tensor[3][3], tensor[1][3], tensor[3][2] = 3, 1, 2
    return finite_table(["c0", "c1", "c2", "c3"],
                        [[int(a <= b) for b in range(4)] for a in range(4)],
                        tensor, unit_index=3)


# the finite quantales of the suite, then tables that break a law; the
# Lukasiewicz grid on eleven values stops at 2 points, as its 603,877
# three-point structures take the oracle about 15 s
CLASS_CASES = [
    ("bool2", bool2, 3),
    ("chain2", lambda: chain(2), 3),
    ("chain3", lambda: chain(3), 3),
    ("chain4", lambda: chain(4), 3),
    ("chain5", lambda: chain(5), 3),
    ("luk2", lambda: lukasiewicz_grid(2), 3),
    ("luk3", lambda: lukasiewicz_grid(3), 3),
    ("luk4", lambda: lukasiewicz_grid(4), 3),
    ("luk10", lambda: lukasiewicz_grid(10), 2),
    ("non-integral", non_integral_quantale, 3),
    ("broken-integral", _broken_integral, 3),
    ("one-sided", _one_sided, 3),
]
# orders that are not complete lattices: the class is refused before the
# search, with the error every kernel operation on them raises
NOT_LATTICE_CASES = [
    ("no-bottom", _no_bottom, 3, "meet undefined in quantale "
     "finite-table(a,b,c): the order is not a complete lattice "
     "(run validate_quantale)"),
    ("no-top", _no_top, 3, "join undefined in quantale finite-table(b,x,y): "
     "the order is not a complete lattice (run validate_quantale)"),
    ("no-join", _no_join, 2, "join undefined in quantale "
     "finite-table(z,x,y,u,v,t): the order is not a complete lattice "
     "(run validate_quantale)"),
]


@pytest.mark.parametrize("name,make,max_size", CLASS_CASES,
                         ids=[c[0] for c in CLASS_CASES])
def test_lawful_hausdorff_squares_are_the_discrete_square(name, make,
                                                          max_size):
    """The lemma behind the closed form, on every valid square: over a
    lawful table the only Hausdorff structure is the discrete one."""
    q = make()
    lawful = validate_quantale(q).passed
    assert lawful == (name not in ("broken-integral", "one-sided"))
    for n in range(max_size + 1):
        carrier = standard_carrier(n)
        hausdorff = [s.structure.rows
                     for s in all_valid_spaces(q, IM, carrier)
                     if is_hausdorff(s)]
        if lawful:
            assert hausdorff == [discrete_space(carrier, IM, q).structure.rows]
    if name == "broken-integral":
        # its unit tensors itself to bottom: every valid square is Hausdorff
        assert len(hausdorff) == 64


@pytest.mark.parametrize("monad", [identity_monad, finite_ultrafilter_monad])
@pytest.mark.parametrize("name,make,max_size", CLASS_CASES,
                         ids=[c[0] for c in CLASS_CASES])
def test_class_search_matches_the_filter(name, make, max_size, monad):
    q, mon = make(), monad()
    for size in range(max_size + 1):
        want = outcome(ref_compact_hausdorff_spaces, q, mon, size)
        assert outcome(compact_hausdorff_spaces, q, mon, size) == want



@pytest.mark.parametrize("monad", [identity_monad, finite_ultrafilter_monad])
@pytest.mark.parametrize("name,make,max_size,message", NOT_LATTICE_CASES,
                         ids=[c[0] for c in NOT_LATTICE_CASES])
def test_class_search_refuses_an_order_that_is_not_a_lattice(
        name, make, max_size, message, monad):
    q, mon = make(), monad()
    for size in range(max_size + 1):
        assert outcome(compact_hausdorff_spaces, q, mon, size) == (
            StructuralError, message)


# bool2 and chain(3) up to 4 points, the other tables as in CLASS_CASES
TRUSTED_CASES = [(name, make, 4 if name in ("bool2", "chain3") else size)
                 for name, make, size, *_ in CLASS_CASES + NOT_LATTICE_CASES]


@pytest.mark.parametrize("monad", [identity_monad, finite_ultrafilter_monad])
@pytest.mark.parametrize("name,make,max_size", TRUSTED_CASES,
                         ids=[c[0] for c in TRUSTED_CASES])
def test_trusted_class_matches_the_checked_class(name, make, max_size,
                                                 monad):
    q, mon = make(), monad()
    for size in range(max_size + 1):
        checked = outcome(lambda: ProbeClass(
            compact_hausdorff_spaces(q, mon, size)).objects)
        trusted = outcome(lambda: ProbeClass.compact_hausdorff_upto(
            size, q, mon).objects)
        assert trusted == checked


def test_size_bound_comes_before_the_search():
    with pytest.raises(StructuralError, match="at most 10 points, not 11"):
        compact_hausdorff_spaces(_no_bottom(), IM, 11)
