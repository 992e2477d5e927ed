"""Line-oriented text format for quantales, spaces, maps and quasi-spaces.

Blocks look like ``space Name { key tokens; ... }``; statements are
separated by newlines or semicolons, comments run from ``#`` to the end of
the line.  Rationals print as ``p/q``, infinity as ``inf``.  Printing is
canonical, so ``parse(print(x)) == x`` and repeated prints are
byte-identical.
"""

import re

from .errors import ParseError, StructuralError, UnsupportedOperationError
from .generation import ProbeClass
from .monad import monad_by_name
from .quantale import bool2, cost_max, cost_plus, finite_table, lukasiewicz_grid
from .quasi import QuasiSpace
from .space import Space
from .vrel import Carrier, MapArrow, VRel


class Token:
    __slots__ = ("text", "line", "column")

    def __init__(self, text, line, column):
        self.text = text
        self.line = line
        self.column = column


_TOKEN = re.compile(r"(#[^\n]*)?\n|#[^\n]*|[{};]|[^ \t\r\n{};#]+")


def tokenize(text):
    """Words, braces, semicolons and newlines, each with its 1-based position.

    Blanks (space, tab, carriage return) match no alternative of
    ``_TOKEN`` and comments are matched and dropped.  A newline that ends a
    comment reports the column of its ``#``.
    """
    tokens = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        tok, start = match.group(), match.start()
        if tok[-1] == "\n":
            tokens.append(Token("\n", line, start - line_start + 1))
            line += 1
            line_start = match.end()
        elif tok[0] != "#":
            tokens.append(Token(tok, line, start - line_start + 1))
    return tokens


class Workspace:
    """Named objects loaded from one or more files."""

    def __init__(self):
        self.quantales = {}
        self.spaces = {}
        self.maps = {}
        self.quasis = {}
        self.order = []
        # (kind, name) -> the names a printed block refers to
        self.references = {}

    def add(self, kind, name, obj, *references):
        store = getattr(self, kind + "s")
        if name in store:
            raise StructuralError(f"duplicate {kind} name {name!r}")
        store[name] = obj
        self.order.append((kind, name))
        self.references[kind, name] = references

    def space(self, name):
        if name not in self.spaces:
            raise StructuralError(f"unknown space {name!r}")
        return self.spaces[name]

    def quasi(self, name):
        if name not in self.quasis:
            raise StructuralError(f"unknown quasi-space {name!r}")
        return self.quasis[name]


def _error(message, tok):
    return ParseError(message, tok.line, tok.column)


def _statements(tokens, pos):
    """Split the token stream of a block body into statements."""
    statements = []
    current = []
    while pos < len(tokens):
        tok = tokens[pos]
        if tok.text == "}":
            if current:
                statements.append(current)
            return statements, pos + 1
        if tok.text in (";", "\n"):
            if current:
                statements.append(current)
                current = []
            pos += 1
            continue
        if tok.text == "{":
            raise _error("unexpected '{'", tok)
        current.append(tok)
        pos += 1
    last = tokens[-1] if tokens else Token("", 1, 1)
    raise _error("missing closing '}'", last)


def _fields(statements):
    out = {}
    for stmt in statements:
        out.setdefault(stmt[0].text, []).append(stmt)
    return out


def _single(fields, key, block_tok):
    if key not in fields:
        raise _error(f"missing field {key!r}", block_tok)
    if len(fields[key]) > 1:
        dup = fields[key][1][0]
        raise _error(f"duplicate field {key!r}", dup)
    return fields[key][0]


def _square(fields, key, block_tok, n, entry):
    """An n-by-n field in row-major order, each token read by ``entry``."""
    stmt = _single(fields, key, block_tok)
    if len(stmt) != n * n + 1:
        raise _error(f"{key} needs {n * n} entries", stmt[0])
    return [[entry(stmt[1 + i * n + j]) for j in range(n)] for i in range(n)]


def _value(fields, key, block_tok):
    """The first value token of a single-valued field."""
    stmt = _single(fields, key, block_tok)
    if len(stmt) < 2:
        raise _error(f"field {key!r} needs a value", stmt[0])
    return stmt[1]


def _header(fields, block_tok, ws):
    """The quantale, monad and carrier fields of a space or quasi block."""
    q_tok = _value(fields, "quantale", block_tok)
    if q_tok.text not in ws.quantales:
        raise _error(f"unknown quantale {q_tok.text!r}", q_tok)
    m_tok = _value(fields, "monad", block_tok)
    try:
        monad = monad_by_name(m_tok.text)
    except UnsupportedOperationError:
        raise _error(f"unknown monad {m_tok.text!r}", m_tok) from None
    carrier_stmt = _single(fields, "carrier", block_tok)
    carrier = Carrier(t.text for t in carrier_stmt[1:])
    return q_tok.text, ws.quantales[q_tok.text], monad, carrier


def _parse_quantale(statements, block_tok):
    fields = _fields(statements)
    kind_stmt = _single(fields, "kind", block_tok)
    kind = kind_stmt[1].text if len(kind_stmt) > 1 else ""
    if kind == "bool2":
        return bool2()
    if kind == "cost-plus":
        return cost_plus()
    if kind == "cost-max":
        return cost_max()
    if kind == "lukasiewicz-grid":
        if len(kind_stmt) < 3:
            raise _error("lukasiewicz-grid needs a resolution", kind_stmt[0])
        try:
            n = int(kind_stmt[2].text)
        except ValueError:
            raise _error(f"bad grid resolution {kind_stmt[2].text!r}",
                         kind_stmt[2]) from None
        return lukasiewicz_grid(n)
    if kind != "finite-table":
        raise _error(f"unknown quantale kind {kind!r}", kind_stmt[0])
    carrier_stmt = _single(fields, "carrier", block_tok)
    labels = [t.text for t in carrier_stmt[1:]]
    n = len(labels)
    unit_stmt = _single(fields, "unit", block_tok)
    if len(unit_stmt) != 2 or unit_stmt[1].text not in labels:
        raise _error("unit must name one carrier element", unit_stmt[0])

    def bit(tok):
        if tok.text not in ("0", "1"):
            raise _error(f"order entries are 0 or 1, got {tok.text!r}", tok)
        return int(tok.text)

    def label_index(tok):
        if tok.text not in labels:
            raise _error(f"tensor entry {tok.text!r} not in carrier", tok)
        return labels.index(tok.text)

    leq = _square(fields, "order", block_tok, n, bit)
    tens = _square(fields, "tensor", block_tok, n, label_index)
    return finite_table(labels, leq, tens, labels.index(unit_stmt[1].text))


def _parse_value(quantale, token):
    try:
        return quantale.parse_value(token.text)
    except StructuralError as exc:
        raise _error(str(exc), token) from None


def _parse_space(statements, block_tok, ws):
    fields = _fields(statements)
    q_name, quantale, monad, carrier = _header(fields, block_tok, ws)
    entries = _square(fields, "matrix", block_tok, len(carrier),
                      lambda tok: _parse_value(quantale, tok))
    structure = VRel(carrier, carrier, quantale, entries)
    return Space(carrier, monad, quantale, structure), q_name


def _parse_map(statements, block_tok):
    fields = _fields(statements)
    dom_stmt = _single(fields, "dom", block_tok)
    cod_stmt = _single(fields, "cod", block_tok)
    dom = Carrier(t.text for t in dom_stmt[1:])
    cod = Carrier(t.text for t in cod_stmt[1:])
    table = {}
    for stmt in statements:
        if stmt[0].text in ("dom", "cod"):
            continue
        for tok in stmt:
            if "->" not in tok.text:
                raise _error(f"expected x->y assignment, got {tok.text!r}",
                             tok)
            left, right = tok.text.split("->", 1)
            if left not in dom or right not in cod:
                raise _error(f"assignment {tok.text!r} uses foreign labels",
                             tok)
            table[left] = right
    try:
        return MapArrow(dom, cod, table)
    except StructuralError as exc:
        raise _error(str(exc), block_tok) from None


def resolve_class(spec, quantale, monad, ws=None, grid=None):
    """Build a probe class from a CLI class specifier.

    ``compact-hausdorff-upto:N`` expands all compact Hausdorff spaces with
    at most N points, ``sierpinski`` is the one-object residuation class,
    and ``explicit:NameA,NameB`` references named workspace spaces.
    """
    if spec.startswith("compact-hausdorff-upto:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError:
            raise StructuralError(
                f"class specifier {spec!r} needs an integer size") from None
        return ProbeClass.compact_hausdorff_upto(n, quantale, monad)
    if spec == "sierpinski":
        grid_values = None
        if grid:
            grid_values = [quantale.parse_value(tok) for tok in grid]
        return ProbeClass.sierpinski(quantale, monad, grid_values)
    if spec.startswith("explicit:"):
        if ws is None:
            raise StructuralError("explicit classes need a workspace")
        names = [n for n in spec.split(":", 1)[1].split(",") if n]
        return ProbeClass.explicit([ws.space(n) for n in names])
    raise StructuralError(f"unknown class specifier {spec!r}")


def _parse_quasi(statements, block_tok, ws):
    fields = _fields(statements)
    q_name, quantale, monad, carrier = _header(fields, block_tok, ws)
    class_spec = _value(fields, "class", block_tok).text
    cls = resolve_class(class_spec, quantale, monad, ws)
    sets = [set() for _ in cls.objects]
    for stmt in fields.get("admissible", []):
        if len(stmt) < 2:
            raise _error("admissible needs an object index", stmt[0])
        try:
            idx = int(stmt[1].text)
        except ValueError:
            raise _error(f"bad object index {stmt[1].text!r}",
                         stmt[1]) from None
        if not 0 <= idx < len(cls.objects):
            raise _error(f"object index {idx} out of range", stmt[1])
        graph = tuple(t.text for t in stmt[2:])
        if len(graph) != len(cls.objects[idx].carrier):
            raise _error("admissible graph has the wrong arity", stmt[0])
        for tok in stmt[2:]:
            if tok.text not in carrier:
                raise _error(f"label {tok.text!r} not in carrier", tok)
        sets[idx].add(graph)
    quasi = QuasiSpace(carrier, cls, sets, check_class=False)
    return quasi, q_name, class_spec


# each parser returns the object and the names its printed block refers to
_PARSERS = {
    "quantale": lambda statements, tok, ws: (
        _parse_quantale(statements, tok),),
    "space": _parse_space,
    "map": lambda statements, tok, ws: (_parse_map(statements, tok),),
    "quasi": _parse_quasi,
}


def parse_workspace(text, ws=None):
    ws = ws or Workspace()
    tokens = tokenize(text)
    pos = 0
    while pos < len(tokens):
        tok = tokens[pos]
        if tok.text == "\n":
            pos += 1
            continue
        kind = tok.text
        if kind not in _PARSERS:
            raise _error(f"unknown block kind {kind!r}", tok)
        if pos + 1 >= len(tokens):
            raise _error("missing block name", tok)
        name_tok = tokens[pos + 1]
        if name_tok.text in ("{", "}", ";", "\n"):
            raise _error("missing block name", name_tok)
        pos += 2
        while pos < len(tokens) and tokens[pos].text == "\n":
            pos += 1
        if pos >= len(tokens) or tokens[pos].text != "{":
            raise _error("expected '{'", name_tok)
        statements, pos = _statements(tokens, pos + 1)
        parsed = _PARSERS[kind](statements, tok, ws)
        ws.add(kind, name_tok.text, *parsed)
    return ws


# -- printing -------------------------------------------------------------------


def _line(prefix, tokens):
    joined = " ".join(tokens)
    return prefix + " " + joined if joined else prefix


def print_quantale(name, q):
    lines = [f"quantale {name} {{"]
    if q.kind == "lukasiewicz-grid":
        lines.append(f"  kind lukasiewicz-grid {q.grid_resolution}")
    elif q.kind in ("bool2", "cost-plus", "cost-max"):
        lines.append(f"  kind {q.kind}")
    else:
        lines.append("  kind finite-table")
        lines.append(_line("  carrier", q.labels))
        lines.append(f"  unit {q.labels[q._unit_index]}")
        n = len(q.labels)
        lines.append(_line("  order", ["1" if q._leq[i][j] else "0"
                                       for i in range(n) for j in range(n)]))
        lines.append(_line("  tensor", [q.labels[q._tensor[i][j]]
                                        for i in range(n)
                                        for j in range(n)]))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _header_lines(kind, name, quantale_name, monad, carrier):
    return [f"{kind} {name} {{", f"  quantale {quantale_name}",
            f"  monad {monad.name}", _line("  carrier", carrier.labels)]


def print_space(name, space, quantale_name):
    lines = _header_lines("space", name, quantale_name, space.monad,
                          space.carrier)
    flat = [tok for row in space.structure.tokens() for tok in row]
    lines.append(_line("  matrix", flat))
    lines.append("}")
    return "\n".join(lines) + "\n"


def print_map(name, f):
    lines = [f"map {name} {{"]
    lines.append(_line("  dom", f.dom.labels))
    lines.append(_line("  cod", f.cod.labels))
    assigns = " ".join(f"{x}->{f.table[x]}" for x in f.dom.labels)
    lines.append("  " + assigns if assigns else "")
    lines.append("}")
    return "\n".join(line for line in lines if line) + "\n"


def print_quasi(name, quasi, quantale_name, class_spec):
    lines = _header_lines("quasi", name, quantale_name, quasi.cls.monad,
                          quasi.carrier)
    lines.append(f"  class {class_spec}")
    for i, graphs in enumerate(quasi.admissible):
        for graph in sorted(graphs):
            lines.append(f"  admissible {i} " + " ".join(graph))
    lines.append("}")
    return "\n".join(lines) + "\n"


def print_workspace(ws):
    printers = {"quantale": print_quantale, "space": print_space,
                "map": print_map, "quasi": print_quasi}
    return "\n".join(
        printers[kind](name, getattr(ws, kind + "s")[name],
                       *ws.references[kind, name])
        for kind, name in ws.order)
