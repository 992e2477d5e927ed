"""Line-oriented text format for quantales, spaces, maps and quasi-spaces.

Blocks look like ``space Name { key tokens; ... }``; statements are
separated by newlines or semicolons, comments run from ``#`` to the end of
the line.  The blanks between words are space, tab and carriage return and
nothing else: a vertical tab, form feed or no-break space is part of a word.
Rationals print as ``p/q``, infinity as ``inf``.  Printing is canonical, so
``parse(print(x)) == x`` and repeated prints are byte-identical.

:func:`parse_workspace` drops the comments, splits the text once at braces,
semicolons and newlines, and reads the words of each statement with one
regex; a matrix field parses each distinct entry once.  It keeps no
positions.  A ``ParseError``'s line and column are computed when it is
raised, from the index of its token in :func:`tokenize`, which is the one
definition of a position.
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
    comment reports the column of its ``#``.  Parse errors take their
    positions from here.
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


class _TokenError(Exception):
    """``(message, index)``: a parse error at ``tokenize(text)[index]``."""


def _fields(statements):
    out = {}
    for stmt in statements:
        out.setdefault(stmt[1][0], []).append(stmt)
    return out


def _single(fields, key, block):
    if key not in fields:
        raise _TokenError(f"missing field {key!r}", block)
    if len(fields[key]) > 1:
        raise _TokenError(f"duplicate field {key!r}", fields[key][1][0])
    return fields[key][0]


def _square(fields, key, block, n, entry):
    """An n-by-n field as rows of ``entry(word)``, in row-major order.

    ``entry`` runs once per distinct word, in order of first occurrence, so
    the ``StructuralError`` it raises on a bad word is reported at the
    first bad entry.
    """
    start, words = _single(fields, key, block)
    if len(words) != n * n + 1:
        raise _TokenError(f"{key} needs {n * n} entries", start)
    read = {}
    for word in dict.fromkeys(words[1:]):
        try:
            read[word] = entry(word)
        except StructuralError as exc:
            raise _TokenError(str(exc), start + words.index(word, 1)) from None
    get = read.__getitem__
    return [list(map(get, words[1 + i * n:1 + (i + 1) * n]))
            for i in range(n)]


def _value(fields, key, block):
    """The index and text of the first value of a single-valued field."""
    start, words = _single(fields, key, block)
    if len(words) < 2:
        raise _TokenError(f"field {key!r} needs a value", start)
    return start + 1, words[1]


def _header(fields, block, ws):
    """The quantale, monad and carrier fields of a space or quasi block."""
    q_index, q_name = _value(fields, "quantale", block)
    if q_name not in ws.quantales:
        raise _TokenError(f"unknown quantale {q_name!r}", q_index)
    m_index, m_name = _value(fields, "monad", block)
    try:
        monad = monad_by_name(m_name)
    except UnsupportedOperationError:
        raise _TokenError(f"unknown monad {m_name!r}", m_index) from None
    carrier = Carrier(_single(fields, "carrier", block)[1][1:])
    return q_name, ws.quantales[q_name], monad, carrier


def _parse_quantale(statements, block):
    fields = _fields(statements)
    kind_start, kind_words = _single(fields, "kind", block)
    kind = kind_words[1] if len(kind_words) > 1 else ""
    if kind == "bool2":
        return bool2()
    if kind == "cost-plus":
        return cost_plus()
    if kind == "cost-max":
        return cost_max()
    if kind == "lukasiewicz-grid":
        if len(kind_words) < 3:
            raise _TokenError("lukasiewicz-grid needs a resolution",
                              kind_start)
        try:
            n = int(kind_words[2])
        except ValueError:
            raise _TokenError(f"bad grid resolution {kind_words[2]!r}",
                              kind_start + 2) from None
        return lukasiewicz_grid(n)
    if kind != "finite-table":
        raise _TokenError(f"unknown quantale kind {kind!r}", kind_start)
    labels = _single(fields, "carrier", block)[1][1:]
    n = len(labels)
    unit_start, unit_words = _single(fields, "unit", block)
    if len(unit_words) != 2 or unit_words[1] not in labels:
        raise _TokenError("unit must name one carrier element", unit_start)

    def bit(word):
        if word not in ("0", "1"):
            raise StructuralError(f"order entries are 0 or 1, got {word!r}")
        return int(word)

    def label_index(word):
        if word not in labels:
            raise StructuralError(f"tensor entry {word!r} not in carrier")
        return labels.index(word)

    leq = _square(fields, "order", block, n, bit)
    tens = _square(fields, "tensor", block, n, label_index)
    return finite_table(labels, leq, tens, labels.index(unit_words[1]))


def _parse_space(statements, block, ws):
    fields = _fields(statements)
    q_name, quantale, monad, carrier = _header(fields, block, ws)
    rows = _square(fields, "matrix", block, len(carrier),
                   lambda word: quantale.parse_value(word).payload)
    # every payload came from parse_value, and the square is n by n
    structure = VRel._from_rows(carrier, carrier, quantale, rows)
    return Space(carrier, monad, quantale, structure), q_name


def _parse_map(statements, block):
    fields = _fields(statements)
    dom_words = _single(fields, "dom", block)[1]
    cod_words = _single(fields, "cod", block)[1]
    dom, cod = Carrier(dom_words[1:]), Carrier(cod_words[1:])
    table = {}
    for start, words in statements:
        if words[0] in ("dom", "cod"):
            continue
        for index, word in enumerate(words, start):
            if "->" not in word:
                raise _TokenError(f"expected x->y assignment, got {word!r}",
                                  index)
            left, right = word.split("->", 1)
            if left not in dom or right not in cod:
                raise _TokenError(f"assignment {word!r} uses foreign labels",
                                  index)
            if left in table:
                raise _TokenError(f"label {left!r} assigned twice", index)
            table[left] = right
    try:
        return MapArrow(dom, cod, table)
    except StructuralError as exc:
        raise _TokenError(str(exc), block) from None


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


def _parse_quasi(statements, block, ws):
    fields = _fields(statements)
    q_name, quantale, monad, carrier = _header(fields, block, ws)
    class_spec = _value(fields, "class", block)[1]
    cls = resolve_class(class_spec, quantale, monad, ws)
    sets = [set() for _ in cls.objects]
    for start, words in fields.get("admissible", []):
        if len(words) < 2:
            raise _TokenError("admissible needs an object index", start)
        try:
            idx = int(words[1])
        except ValueError:
            raise _TokenError(f"bad object index {words[1]!r}",
                              start + 1) from None
        if not 0 <= idx < len(cls.objects):
            raise _TokenError(f"object index {idx} out of range", start + 1)
        graph = tuple(words[2:])
        if len(graph) != len(cls.objects[idx].carrier):
            raise _TokenError("admissible graph has the wrong arity", start)
        for index, label in enumerate(graph, start + 2):
            if label not in carrier:
                raise _TokenError(f"label {label!r} not in carrier", index)
        sets[idx].add(graph)
    quasi = QuasiSpace(carrier, cls, sets, check_class=False)
    return quasi, q_name, class_spec


# each parser takes the block's statements, the index of its kind word and
# the workspace, and returns the object and the names its printed block
# refers to
_PARSERS = {
    "quantale": lambda statements, block, ws: (
        _parse_quantale(statements, block),),
    "space": _parse_space,
    "map": lambda statements, block, ws: (_parse_map(statements, block),),
    "quasi": _parse_quasi,
}

_COMMENT = re.compile(r"#[^\n]*")
_DELIMITER = re.compile(r"([{};\n])")
_WORD = re.compile(r"[^ \t\r]+")


def _blocks(text):
    """Each block as its kind, name, kind index and statements, in order.

    A statement is the index of its first word and its words.  An index
    counts the tokens of ``tokenize(text)``: the words of each stretch
    between delimiters are consecutive tokens, and each delimiter is one.
    Blocks come one at a time, so an error inside a block is raised before
    any error in the text after it, as in a token-by-token reading.
    """
    pieces = _DELIMITER.split(_COMMENT.sub("", text))
    words = [_WORD.findall(piece) for piece in pieces[::2]]
    delimiters = pieces[1::2]      # delimiters[i] follows words[i]
    last = len(delimiters)
    i = start = 0                  # a stretch, and its first token's index
    while True:
        head = words[i]
        if not head:
            if i == last:
                return
            if delimiters[i] != "\n":
                raise _TokenError(f"unknown block kind {delimiters[i]!r}",
                                  start)
            i, start = i + 1, start + 1
            continue
        kind = head[0]
        if kind not in _PARSERS:
            raise _TokenError(f"unknown block kind {kind!r}", start)
        if len(head) == 1:         # at the delimiter after it, or the end
            raise _TokenError("missing block name",
                              start + 1 if i < last else start)
        if len(head) > 2:
            raise _TokenError("expected '{'", start + 1)
        pos = start + 2            # the index of delimiters[i]
        while i < last and delimiters[i] == "\n" and not words[i + 1]:
            i, pos = i + 1, pos + 1
        if i == last or delimiters[i] != "{":
            raise _TokenError("expected '{'", start + 1)
        statements = []
        while True:
            i, pos = i + 1, pos + 1
            if words[i]:
                statements.append((pos, words[i]))
            if i == last:
                raise _TokenError("missing closing '}'", -1)
            pos += len(words[i])
            if delimiters[i] == "}":
                break
            if delimiters[i] == "{":
                raise _TokenError("unexpected '{'", pos)
        yield kind, head[1], start, statements
        i, start = i + 1, pos + 1


def parse_workspace(text, ws=None):
    ws = ws or Workspace()
    try:
        for kind, name, block, statements in _blocks(text):
            ws.add(kind, name, *_PARSERS[kind](statements, block, ws))
    except _TokenError as exc:
        message, index = exc.args
        tok = tokenize(text)[index]
        raise ParseError(message, tok.line, tok.column) from None
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
    assigns = " ".join(f"{x}->{y}" for x, y in zip(f.dom.labels, f.graph()))
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
