"""Independent reference computations on raw matrices.

Nothing here calls into ``tvspaces``.  A relation arrives as its printed
tokens (``VRel.tokens()`` or the text a command prints), is turned into plain
Python scalars by this module's own algebra, and every answer the benchmark
checks is recomputed from those scalars:

* the finite quantales ``bool2``, ``chain(4)`` and ``lukasiewicz_grid(4)``
  are chains, held as integer levels with their own tensor table;
* ``cost_plus`` and ``cost_max`` are held as ``Fraction`` costs with an
  ``INF`` sentinel, in min-plus and min-max form.

Each check raises :class:`WrongAnswer` with a short reason.
"""

import itertools
from fractions import Fraction


class WrongAnswer(Exception):
    """The program's answer disagrees with the reference."""


def expect(condition, message):
    if not condition:
        raise WrongAnswer(message)


# -- scalar algebras -------------------------------------------------------------


class ChainAlgebra:
    """A finite chain 0 < 1 < ... < top; the unit is the top (integral)."""

    finite = True

    def __init__(self, name, tokens, tensor):
        self.name = name
        self.tokens = tuple(tokens)
        self.levels = {t: i for i, t in enumerate(self.tokens)}
        self.top = len(self.tokens) - 1
        self.bottom = 0
        self.unit = self.top
        self.tensor_table = tuple(tuple(tensor(a, b) for b in range(self.top + 1))
                                  for a in range(self.top + 1))

    def parse(self, token):
        return self.levels[token]

    def token(self, value):
        return self.tokens[value]

    def values(self):
        return range(self.top + 1)

    def tensor(self, a, b):
        return self.tensor_table[a][b]

    join = staticmethod(max)
    meet = staticmethod(min)

    @staticmethod
    def leq(a, b):
        return a <= b

    def heyting(self, a, b):
        return self.top if a <= b else b


class _Inf:
    def __repr__(self):
        return "inf"


INF = _Inf()


def _num_le(a, b):
    if b is INF:
        return True
    if a is INF:
        return False
    return a <= b


class CostAlgebra:
    """Costs in [0, inf] with the quantale order reversed (0 is the top)."""

    finite = False

    def __init__(self, flavor):
        self.name = "cost-" + flavor
        self.plus = flavor == "plus"
        self.top = Fraction(0)
        self.bottom = INF
        self.unit = self.top

    @staticmethod
    def parse(token):
        return INF if token == "inf" else Fraction(token)

    @staticmethod
    def token(value):
        return "inf" if value is INF else str(value)

    def tensor(self, a, b):
        if a is INF or b is INF:
            return INF
        if self.plus:
            return a + b
        return a if a >= b else b

    @staticmethod
    def join(a, b):
        return a if _num_le(a, b) else b

    @staticmethod
    def meet(a, b):
        return b if _num_le(a, b) else a

    @staticmethod
    def leq(a, b):
        return _num_le(b, a)


BOOL2 = ChainAlgebra("bool2", ("0", "1"), min)
CHAIN4 = ChainAlgebra("chain4", ("c0", "c1", "c2", "c3"), min)
LUK4 = ChainAlgebra("luk4", ("0", "1/4", "1/2", "3/4", "1"),
                    lambda a, b: max(0, a + b - 4))
COST_PLUS = CostAlgebra("plus")
COST_MAX = CostAlgebra("max")

ALGEBRAS = {a.name: a for a in (BOOL2, CHAIN4, LUK4, COST_PLUS, COST_MAX)}


def raw(algebra, token_rows):
    """Parse a token matrix into the algebra's scalars."""
    return [[algebra.parse(t) for t in row] for row in token_rows]


# -- relations and space axioms -----------------------------------------------------


def closure(alg, m):
    """Floyd-Warshall: reflexive-transitive closure over an integral algebra."""
    n = len(m)
    c = [list(row) for row in m]
    for i in range(n):
        c[i][i] = alg.join(c[i][i], alg.unit)
    for p in range(n):
        cp = c[p]
        for i in range(n):
            via = c[i][p]
            ci = c[i]
            for j in range(n):
                ci[j] = alg.join(ci[j], alg.tensor(via, cp[j]))
    return c


def violations(alg, m):
    """Every broken space axiom of a square matrix, as hashable tuples."""
    n = len(m)
    out = set()
    for x in range(n):
        if not alg.leq(alg.unit, m[x][x]):
            out.add(("reflexivity", x, x))
    for x in range(n):
        for z in range(n):
            lhs = alg.bottom
            for y in range(n):
                lhs = alg.join(lhs, alg.tensor(m[x][y], m[y][z]))
            if not alg.leq(lhs, m[x][z]):
                out.add(("transitivity", x, z))
    return out


def first_discontinuity(alg, a, b, f):
    """First (i, j) in row-major order with a[i][j] above b[f i][f j]."""
    for i, row in enumerate(a):
        brow = b[f[i]]
        for j, v in enumerate(row):
            if not alg.leq(v, brow[f[j]]):
                return (i, j)
    return None


def continuous_maps(alg, a, b):
    """Images tuples of every continuous map, in lexicographic order."""
    return [f for f in itertools.product(range(len(b)), repeat=len(a))
            if first_discontinuity(alg, a, b, f) is None]


def count_continuous_maps(alg, a, b, limit):
    """Number of continuous maps, by backtracking; stops once above ``limit``."""
    n, m = len(a), len(b)
    images = [0] * n
    found = 0

    def extend(k):
        nonlocal found
        if k == n:
            found += 1
            return
        for y in range(m):
            if found > limit:
                return
            if all(alg.leq(a[k][j], b[y][images[j]])
                   and alg.leq(a[j][k], b[images[j]][y])
                   for j in range(k)) and alg.leq(a[k][k], b[y][y]):
                images[k] = y
                extend(k + 1)
    extend(0)
    return found


def product(alg, a, b):
    """Meet of the two pulled-back structures, pairs in row-major order."""
    pairs = [(x, y) for x in range(len(a)) for y in range(len(b))]
    return [[alg.meet(a[x][x2], b[y][y2]) for x2, y2 in pairs]
            for x, y in pairs]


def coproduct(alg, a, b):
    n, m = len(a), len(b)
    out = [[alg.bottom] * (n + m) for _ in range(n + m)]
    for i in range(n):
        out[i][:n] = a[i]
    for i in range(m):
        out[n + i][n:] = b[i]
    return out


def subspace(m, keep):
    return [[m[i][j] for j in keep] for i in keep]


def is_discrete(alg, m):
    n = len(m)
    return all(m[i][j] == (alg.top if i == j else alg.bottom)
               for i in range(n) for j in range(n))


# -- predicates ------------------------------------------------------------------


def compact(alg, m):
    return all(
        alg.leq(alg.unit, _join_all(alg, (alg.tensor(v, v) for v in row)))
        for row in m)


def hausdorff(alg, m):
    n = len(m)
    for t in range(n):
        for x in range(n):
            if not alg.leq(alg.tensor(m[t][x], m[t][x]), alg.unit):
                return False
            for y in range(n):
                if x != y and alg.tensor(m[t][x], m[t][y]) != alg.bottom:
                    return False
    return True


def separated(alg, m):
    n = len(m)
    return not any(alg.leq(alg.unit, m[x][y]) and alg.leq(alg.unit, m[y][x])
                   for x in range(n) for y in range(n) if x != y)


def _join_all(alg, values):
    acc = alg.bottom
    for v in values:
        acc = alg.join(acc, v)
    return acc


def exponentiability_violation(alg, m, x, z, u, v):
    """True when ``m(x,z) /\\ (u (x) v)`` is not below the join over y."""
    rhs = alg.meet(m[x][z], alg.tensor(u, v))
    lhs = _join_all(alg, (alg.tensor(alg.meet(m[x][y], u), alg.meet(m[y][z], v))
                          for y in range(len(m))))
    return not alg.leq(rhs, lhs)


def exponentiable(alg, m, values=None):
    """Search the exponentiability inequality over ``values`` (all, if finite).

    For a finite algebra the search is exhaustive, so the answer is exact.
    For a cost algebra a found violation proves non-exponentiability; the
    caller supplies the candidate values.
    """
    values = list(alg.values()) if values is None else list(values)
    n = len(m)
    for x in range(n):
        for z in range(n):
            for u in values:
                for v in values:
                    if exponentiability_violation(alg, m, x, z, u, v):
                        return False
    return True


def cost_breakpoints(m):
    """Entries, their halves and their differences: candidate (u, v) values."""
    finite = {v for row in m for v in row if v is not INF}
    out = {Fraction(0), INF}
    out.update(finite)
    out.update(v / 2 for v in finite)
    out.update(a - b for a in finite for b in finite if a >= b)
    return sorted(out, key=lambda v: (v is INF, 0 if v is INF else v))


def exponential(alg, b, c):
    """Function space of a finite-chain space: maps and Heyting-meet structure."""
    maps = continuous_maps(alg, b, c)
    n = len(b)
    points = [(y1, y2) for y1 in range(n) for y2 in range(n)]
    matrix = []
    for g in maps:
        row = []
        for h in maps:
            acc = alg.top
            for y1, y2 in points:
                acc = alg.meet(acc, alg.heyting(b[y1][y2], c[g[y1]][h[y2]]))
            row.append(acc)
        matrix.append(row)
    return maps, matrix


# -- printed text ------------------------------------------------------------------


def parse_printed_space(text):
    """Carrier labels and token rows of the one ``space`` block in ``text``."""
    carrier, flat, monad = None, None, None
    for line in text.splitlines():
        words = line.split()
        if not words:
            continue
        if words[0] == "carrier":
            carrier = words[1:]
        elif words[0] == "matrix":
            flat = words[1:]
        elif words[0] == "monad":
            monad = words[1]
    expect(carrier is not None and flat is not None, "no space block printed")
    n = len(carrier)
    expect(len(flat) == n * n, f"printed matrix has {len(flat)} entries")
    return carrier, [flat[i * n:(i + 1) * n] for i in range(n)], monad


def parse_printed_quasi(text):
    """Carrier labels and admissible graphs per object of a ``quasi`` block."""
    carrier, admissible = None, {}
    for line in text.splitlines():
        words = line.split()
        if not words:
            continue
        if words[0] == "carrier":
            carrier = words[1:]
        elif words[0] == "admissible":
            admissible.setdefault(int(words[1]), set()).add(tuple(words[2:]))
    expect(carrier is not None, "no quasi block printed")
    return carrier, admissible
