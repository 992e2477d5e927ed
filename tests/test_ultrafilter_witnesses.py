"""Witness labels of the finite ultrafilter monad, pinned literally.

A point of ``TX`` is written ``U(x)`` and a point of ``TTX`` ``U(U(x))``;
these cases fix the labels every witness reports, whatever representation
the structures use inside.
"""

from tvspaces import bool2, lukasiewicz_grid
from tvspaces.monad import finite_ultrafilter_monad
from tvspaces.space import (
    Space,
    compactness_witness,
    continuity_witness,
    discrete_space,
    exponentiability_witness,
    hausdorff_witness,
    indiscrete_space,
    validate_space,
)
from tvspaces.vrel import Carrier, MapArrow, VRel

UF = finite_ultrafilter_monad()
AB = Carrier(["a", "b"])


def uf_space(q, rows):
    square = VRel(AB, AB, q, [[q.parse_value(t) for t in row]
                              for row in rows])
    return Space.from_square(AB, UF, q, square)


def test_validation_witnesses():
    report = validate_space(uf_space(bool2(), [["0", "1"], ["1", "1"]]))
    assert report.violations == (
        ("reflexivity", ("a", "0")),
        ("transitivity", ("U(U(a))", "a", "1", "0")),
    )


def test_hausdorff_witness():
    space = uf_space(bool2(), [["1", "1"], ["0", "1"]])
    assert hausdorff_witness(space) == ("a", "b", "U(a)")


def test_continuity_witness():
    q = bool2()
    f = MapArrow.identity(AB)
    assert continuity_witness(f, indiscrete_space(AB, UF, q),
                              discrete_space(AB, UF, q)) == ("U(a)", "b")


def test_exponentiability_witness():
    q = lukasiewicz_grid(3)
    big, x, u, v = exponentiability_witness(
        uf_space(q, [["1", "0"], ["1/3", "1"]]))
    assert (big, x, u.token, v.token) == ("U(U(b))", "a", "2/3", "2/3")


def test_compactness_witness():
    space = uf_space(bool2(), [["0", "0"], ["0", "1"]])
    assert compactness_witness(space) == ("U(a)",)

