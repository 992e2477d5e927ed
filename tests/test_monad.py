import itertools

import pytest

from tvspaces import UnsupportedOperationError
from tvspaces.monad import (
    finite_ultrafilter_monad,
    identity_monad,
    monad_by_name,
)


def brute_force_ultrafilters(points):
    """Enumerate ultrafilters on a finite set from first principles.

    A family of subsets is an ultrafilter when it is proper, upward closed,
    closed under intersection, and contains one of A, complement(A) for
    every A.  On a finite set this must produce exactly the principal ones.
    """
    universe = frozenset(points)
    subsets = [frozenset(c) for r in range(len(points) + 1)
               for c in itertools.combinations(points, r)]
    ultrafilters = []
    for bits in itertools.product((0, 1), repeat=len(subsets)):
        family = {s for s, b in zip(subsets, bits) if b}
        if frozenset() in family or universe not in family:
            continue
        if any((a & b) not in family for a in family for b in family):
            continue
        if any(a <= b and b not in family for a in family for b in subsets):
            continue
        if any(s not in family and (universe - s) not in family
               for s in subsets):
            continue
        ultrafilters.append(frozenset(family))
    return ultrafilters


def test_every_ultrafilter_on_three_points_is_principal():
    points = ("x", "y", "z")
    ultrafilters = brute_force_ultrafilters(points)
    assert len(ultrafilters) == len(points)
    for u in ultrafilters:
        smallest = min(u, key=len)
        assert len(smallest) == 1  # generated by one point


def test_names():
    assert identity_monad().name == "identity"
    assert finite_ultrafilter_monad().name == "ultrafilter-finite"
    assert repr(finite_ultrafilter_monad()) == "<monad ultrafilter-finite>"


def test_monad_by_name():
    assert monad_by_name("identity") is identity_monad()
    assert monad_by_name("ultrafilter-finite") is finite_ultrafilter_monad()


def test_unknown_monad_name_is_refused():
    with pytest.raises(UnsupportedOperationError) as exc:
        monad_by_name("ultrafilter")
    assert str(exc.value) == "unknown monad 'ultrafilter'"


def test_row_labels():
    ident, ultra = identity_monad(), finite_ultrafilter_monad()
    assert ident.row_label("x") == ident.row_label("x", 2) == "x"
    assert ultra.row_label("x") == "U(x)"
    assert ultra.row_label("x", 2) == "U(U(x))"
    assert ultra.row_label("(a,b)", 2) == "U(U((a,b)))"
