"""The monads a space can be tagged with.

A (T,V)-space has a structure ``TX -/-> X``.  Both monads that ship are
carrier-isomorphic to the identity: the identity monad, and the ultrafilter
monad on finite carriers, where every ultrafilter is principal (Hofmann,
Seal & Tholen, *Monoidal Topology*, ch. III).  Under that isomorphism the
unit, the multiplication and the lax extension act as the identity on
points, so every structure is a square ``X -/-> X`` and a monad is only a
tag: its name, and the way witnesses write the point of ``TX`` or ``TTX``
over a point ``x`` (``x`` itself, or ``U(x)`` and ``U(U(x))``).
"""

from .errors import UnsupportedOperationError


class Monad:
    """A monad tag: a name and the row labels of ``TX`` and ``TTX``."""

    __slots__ = ("name", "_wrapper")

    def __init__(self, name, wrapper=None):
        self.name = name
        self._wrapper = wrapper

    def row_label(self, label, depth=1):
        """The point of ``TX`` (depth 1) or ``TTX`` (depth 2) over a point."""
        if self._wrapper is None:
            return label
        return f"{self._wrapper}(" * depth + label + ")" * depth

    def __repr__(self):
        return f"<monad {self.name}>"


_MONADS = {m.name: m for m in (Monad("identity"),
                               Monad("ultrafilter-finite", "U"))}


def identity_monad():
    return _MONADS["identity"]


def finite_ultrafilter_monad():
    return _MONADS["ultrafilter-finite"]


def monad_by_name(name):
    try:
        return _MONADS[name]
    except KeyError:
        raise UnsupportedOperationError(f"unknown monad {name!r}") from None
