"""Line-oriented text format for quantales, spaces, maps and quasi-spaces.

Blocks look like ``space Name { key tokens; ... }``; statements are
separated by newlines or semicolons, comments run from ``#`` to the end of
the line.  Rationals print as ``p/q``, infinity as ``inf``.  Printing is
canonical, so ``parse(print(x)) == x`` and repeated prints are
byte-identical.
"""

from .errors import ParseError, StructuralError
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


def tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    current = ""
    start = (1, 1)

    def flush():
        nonlocal current
        if current:
            tokens.append(Token(current, *start))
            current = ""

    while i < len(text):
        ch = text[i]
        if ch == "#":
            flush()
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            flush()
            tokens.append(Token("\n", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            flush()
            col += 1
            i += 1
            continue
        if ch in "{};":
            flush()
            tokens.append(Token(ch, line, col))
            col += 1
            i += 1
            continue
        if not current:
            start = (line, col)
        current += ch
        col += 1
        i += 1
    flush()
    return tokens


class Workspace:
    """Named objects loaded from one or more files."""

    def __init__(self):
        self.quantales = {}
        self.spaces = {}
        self.maps = {}
        self.quasis = {}
        self.space_quantale = {}
        self.quasi_meta = {}
        self.order = []

    def add(self, kind, name, obj):
        store = getattr(self, kind + "s" if kind != "quasi" else "quasis")
        if name in store:
            raise StructuralError(f"duplicate {kind} name {name!r}")
        store[name] = obj
        self.order.append((kind, name))

    def space(self, name):
        if name not in self.spaces:
            raise StructuralError(f"unknown space {name!r}")
        return self.spaces[name]

    def quasi(self, name):
        if name not in self.quasis:
            raise StructuralError(f"unknown quasi-space {name!r}")
        return self.quasis[name]


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
            raise ParseError("unexpected '{'", tok.line, tok.column)
        current.append(tok)
        pos += 1
    last = tokens[-1] if tokens else Token("", 1, 1)
    raise ParseError("missing closing '}'", last.line, last.column)


def _fields(statements):
    out = {}
    for stmt in statements:
        key = stmt[0].text
        out.setdefault(key, []).append(stmt)
    return out


def _single(fields, key, block_tok):
    if key not in fields:
        raise ParseError(f"missing field {key!r}", block_tok.line,
                         block_tok.column)
    if len(fields[key]) > 1:
        dup = fields[key][1][0]
        raise ParseError(f"duplicate field {key!r}", dup.line, dup.column)
    return fields[key][0]


def _parse_quantale(name, statements, block_tok):
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
            raise ParseError("lukasiewicz-grid needs a resolution",
                             kind_stmt[0].line, kind_stmt[0].column)
        try:
            n = int(kind_stmt[2].text)
        except ValueError:
            raise ParseError(f"bad grid resolution {kind_stmt[2].text!r}",
                             kind_stmt[2].line, kind_stmt[2].column) from None
        return lukasiewicz_grid(n)
    if kind != "finite-table":
        raise ParseError(f"unknown quantale kind {kind!r}",
                         kind_stmt[0].line, kind_stmt[0].column)
    carrier_stmt = _single(fields, "carrier", block_tok)
    labels = [t.text for t in carrier_stmt[1:]]
    n = len(labels)
    unit_stmt = _single(fields, "unit", block_tok)
    if len(unit_stmt) != 2 or unit_stmt[1].text not in labels:
        raise ParseError("unit must name one carrier element",
                         unit_stmt[0].line, unit_stmt[0].column)
    order_stmt = _single(fields, "order", block_tok)
    order_toks = order_stmt[1:]
    if len(order_toks) != n * n:
        raise ParseError(f"order needs {n * n} entries",
                         order_stmt[0].line, order_stmt[0].column)
    for t in order_toks:
        if t.text not in ("0", "1"):
            raise ParseError(f"order entries are 0 or 1, got {t.text!r}",
                             t.line, t.column)
    leq = [[int(order_toks[i * n + j].text) for j in range(n)]
           for i in range(n)]
    tensor_stmt = _single(fields, "tensor", block_tok)
    tensor_toks = tensor_stmt[1:]
    if len(tensor_toks) != n * n:
        raise ParseError(f"tensor needs {n * n} entries",
                         tensor_stmt[0].line, tensor_stmt[0].column)
    tens = []
    for i in range(n):
        row = []
        for j in range(n):
            t = tensor_toks[i * n + j]
            if t.text not in labels:
                raise ParseError(f"tensor entry {t.text!r} not in carrier",
                                 t.line, t.column)
            row.append(labels.index(t.text))
        tens.append(row)
    return finite_table(labels, leq, tens, labels.index(unit_stmt[1].text))


def _parse_value(quantale, token):
    try:
        return quantale.parse_value(token.text)
    except StructuralError as exc:
        raise ParseError(str(exc), token.line, token.column) from None


def _parse_space(name, statements, block_tok, ws):
    fields = _fields(statements)
    q_stmt = _single(fields, "quantale", block_tok)
    q_name = q_stmt[1].text
    if q_name not in ws.quantales:
        raise ParseError(f"unknown quantale {q_name!r}",
                         q_stmt[1].line, q_stmt[1].column)
    quantale = ws.quantales[q_name]
    m_stmt = _single(fields, "monad", block_tok)
    try:
        monad = monad_by_name(m_stmt[1].text)
    except Exception:
        raise ParseError(f"unknown monad {m_stmt[1].text!r}",
                         m_stmt[1].line, m_stmt[1].column) from None
    carrier_stmt = _single(fields, "carrier", block_tok)
    carrier = Carrier(t.text for t in carrier_stmt[1:])
    matrix_stmt = _single(fields, "matrix", block_tok)
    toks = matrix_stmt[1:]
    n = len(carrier)
    if len(toks) != n * n:
        raise ParseError(f"matrix needs {n * n} entries",
                         matrix_stmt[0].line, matrix_stmt[0].column)
    entries = [[_parse_value(quantale, toks[i * n + j]) for j in range(n)]
               for i in range(n)]
    structure = VRel(carrier, carrier, quantale, entries)
    return Space(carrier, monad, quantale, structure), q_name


def _parse_map(name, statements, block_tok):
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
                raise ParseError(f"expected x->y assignment, got {tok.text!r}",
                                 tok.line, tok.column)
            left, right = tok.text.split("->", 1)
            if left not in dom or right not in cod:
                raise ParseError(f"assignment {tok.text!r} uses foreign "
                                 "labels", tok.line, tok.column)
            table[left] = right
    try:
        return MapArrow(dom, cod, table)
    except StructuralError as exc:
        raise ParseError(str(exc), block_tok.line, block_tok.column) from None


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


def _parse_quasi(name, statements, block_tok, ws):
    fields = _fields(statements)
    q_stmt = _single(fields, "quantale", block_tok)
    if q_stmt[1].text not in ws.quantales:
        raise ParseError(f"unknown quantale {q_stmt[1].text!r}",
                         q_stmt[1].line, q_stmt[1].column)
    quantale = ws.quantales[q_stmt[1].text]
    m_stmt = _single(fields, "monad", block_tok)
    monad = monad_by_name(m_stmt[1].text)
    carrier_stmt = _single(fields, "carrier", block_tok)
    carrier = Carrier(t.text for t in carrier_stmt[1:])
    class_stmt = _single(fields, "class", block_tok)
    cls = resolve_class(class_stmt[1].text, quantale, monad, ws)
    sets = [set() for _ in cls.objects]
    for stmt in fields.get("admissible", []):
        if len(stmt) < 2:
            raise ParseError("admissible needs an object index",
                             stmt[0].line, stmt[0].column)
        try:
            idx = int(stmt[1].text)
        except ValueError:
            raise ParseError(f"bad object index {stmt[1].text!r}",
                             stmt[1].line, stmt[1].column) from None
        if not 0 <= idx < len(cls.objects):
            raise ParseError(f"object index {idx} out of range",
                             stmt[1].line, stmt[1].column)
        graph = tuple(t.text for t in stmt[2:])
        if len(graph) != len(cls.objects[idx].carrier):
            raise ParseError("admissible graph has the wrong arity",
                             stmt[0].line, stmt[0].column)
        for tok in stmt[2:]:
            if tok.text not in carrier:
                raise ParseError(f"label {tok.text!r} not in carrier",
                                 tok.line, tok.column)
        sets[idx].add(graph)
    quasi = QuasiSpace(carrier, cls, sets, check_class=False)
    return quasi, q_stmt[1].text, class_stmt[1].text


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
        if kind not in ("quantale", "space", "map", "quasi"):
            raise ParseError(f"unknown block kind {kind!r}", tok.line,
                             tok.column)
        if pos + 1 >= len(tokens):
            raise ParseError("missing block name", tok.line, tok.column)
        name_tok = tokens[pos + 1]
        if name_tok.text in ("{", "}", ";", "\n"):
            raise ParseError("missing block name", name_tok.line,
                             name_tok.column)
        pos += 2
        while pos < len(tokens) and tokens[pos].text == "\n":
            pos += 1
        if pos >= len(tokens) or tokens[pos].text != "{":
            raise ParseError("expected '{'", name_tok.line, name_tok.column)
        statements, pos = _statements(tokens, pos + 1)
        name = name_tok.text
        if kind == "quantale":
            ws.add("quantale", name, _parse_quantale(name, statements, tok))
        elif kind == "space":
            space, q_name = _parse_space(name, statements, tok, ws)
            ws.add("space", name, space)
            ws.space_quantale[name] = q_name
        elif kind == "map":
            ws.add("map", name, _parse_map(name, statements, tok))
        else:
            quasi, q_name, class_spec = _parse_quasi(name, statements, tok,
                                                     ws)
            ws.add("quasi", name, quasi)
            ws.quasi_meta[name] = (q_name, class_spec)
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


def print_space(name, space, quantale_name):
    lines = [f"space {name} {{"]
    lines.append(f"  quantale {quantale_name}")
    lines.append(f"  monad {space.monad.name}")
    lines.append(_line("  carrier", space.carrier.labels))
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
    lines = [f"quasi {name} {{"]
    lines.append(f"  quantale {quantale_name}")
    lines.append(f"  monad {quasi.cls.monad.name}")
    lines.append(_line("  carrier", quasi.carrier.labels))
    lines.append(f"  class {class_spec}")
    for i, graphs in enumerate(quasi.admissible):
        for graph in sorted(graphs):
            lines.append(f"  admissible {i} " + " ".join(graph))
    lines.append("}")
    return "\n".join(lines) + "\n"


def print_workspace(ws):
    chunks = []
    for kind, name in ws.order:
        if kind == "quantale":
            chunks.append(print_quantale(name, ws.quantales[name]))
        elif kind == "space":
            chunks.append(print_space(name, ws.spaces[name],
                                      ws.space_quantale[name]))
        elif kind == "map":
            chunks.append(print_map(name, ws.maps[name]))
        else:
            q_name, class_spec = ws.quasi_meta[name]
            chunks.append(print_quasi(name, ws.quasis[name], q_name,
                                      class_spec))
    return "\n".join(chunks)
