"""Command-line front end.

Subcommands: ``validate`` (run the appropriate validator on every object in
a file), ``check`` (decide a predicate of one space, printing a witness on
false), ``compute`` (construct a derived object and print or write it in the
text format), and ``suite`` (run the built-in law batteries).

Exit codes: 0 for pass/true/success; 1 for violation/false and for
``precondition failed: ...``; 2 for ``parse error: ...``, ``io error: ...``,
``error: ...``, for the refusals printed without a prefix (``check`` on an
invalid space, missing operand names, an invalid result name) and for
argparse usage errors.  ``main`` is the one place that turns an exception
into a message and an exit code.  Output is deterministic: identical inputs
give byte-identical reports.
"""

import argparse
import sys

from .errors import ParseError, PreconditionError, StructuralError, TvsError
from .generation import (
    DEFAULT_MAP_BUDGET,
    alexandroff_expansion,
    c_generated_structure,
    cmap_space,
    is_alexandroff,
    is_c_generated,
    specialization,
)
from .monad import monad_by_name
from .quantale import validate_quantale
from .quasi import (
    DEFAULT_COVER_BUDGET,
    QuasiSpace,
    associated_quasi,
    discrete_quasi,
    indiscrete_quasi,
    reflect_to_cgenerated,
    validate_quasi,
)
from .space import (
    compactness_witness,
    coproduct,
    exponential,
    exponentiability_witness,
    hausdorff_witness,
    product,
    separatedness_witness,
    subspace,
    validate_space,
)
from .textio import (
    Workspace,
    parse_workspace,
    print_quasi,
    print_space,
    resolve_class,
)


class Refusal(TvsError):
    """An input a command refuses with a message of its own (exit 2)."""


def _load(paths):
    ws = Workspace()
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: byte {exc.start} is not UTF-8 "
                                 f"({exc.reason})") from None
        parse_workspace(text, ws)
    return ws


def _require_valid(what, report, error=StructuralError):
    if not report.passed:
        raise error(f"{what} is not valid: {report.violations[0]}")


def _class_for(ws, space, args):
    spec = args.probe_class
    if not spec:
        raise PreconditionError("this operation needs --class")
    grid = args.grid.split(",") if args.grid else None
    return resolve_class(spec, space.quantale, space.monad, ws, grid)


def _probe_budget(args):
    return args.budget if args.budget else DEFAULT_MAP_BUDGET


def cmd_validate(args, out):
    ws = _load(args.files)
    validators = {
        "quantale": validate_quantale,
        "space": validate_space,
        "quasi": lambda quasi: validate_quasi(quasi,
                                              cover_budget=args.budget),
    }
    failed = False
    for kind, name in ws.order:
        if kind == "map":
            out.write(f"map {name}: ok\n")
            continue
        report = validators[kind](getattr(ws, kind + "s")[name])
        status = "ok" if report.passed else "violation"
        out.write(f"{kind} {name}: {status}\n")
        for law, witness in report.violations:
            out.write(f"  {law}: witness {witness!r}\n")
            failed = True
    return 1 if failed else 0


# -- check: each predicate maps (workspace, space, args) to a witness or None

_NOT_COREFLECTIVE = ("structure differs from its coreflection",)


def _exponentiable(ws, space, args):
    witness = exponentiability_witness(space)
    return None if witness is None else tuple(
        getattr(x, "token", x) for x in witness)


def _c_generated(ws, space, args):
    cls = _class_for(ws, space, args)
    return (None if is_c_generated(space, cls, _probe_budget(args))
            else _NOT_COREFLECTIVE)


def _alexandroff(ws, space, args):
    grid = ([space.quantale.parse_value(tok) for tok in args.grid.split(",")]
            if args.grid else None)
    return (None if is_alexandroff(space, grid, _probe_budget(args))
            else _NOT_COREFLECTIVE)


PREDICATES = {
    "compact": lambda ws, space, args: compactness_witness(space),
    "hausdorff": lambda ws, space, args: hausdorff_witness(space),
    "separated": lambda ws, space, args: separatedness_witness(space),
    "exponentiable": _exponentiable,
    "c-generated": _c_generated,
    "alexandroff": _alexandroff,
}


def cmd_check(args, out):
    ws = _load(args.files)
    space = ws.space(args.space)
    _require_valid(f"space {args.space}", validate_space(space), Refusal)
    witness = PREDICATES[args.predicate](ws, space, args)
    if witness is None:
        out.write("true\n")
        return 0
    out.write(f"false\nwitness: {witness!r}\n")
    return 1


# -- compute: each operation maps (workspace, args) to a space or quasi-space


def _operand(args, i):
    if i >= len(args.args):
        raise Refusal("missing operand names")
    return args.args[i]


def _space(ws, args, i):
    name = _operand(args, i)
    space = ws.space(name)
    _require_valid(f"space {name}", validate_space(space))
    return space


def _quasi(ws, args, i):
    name = _operand(args, i)
    quasi = ws.quasi(name)
    _require_valid(f"quasi-space {name}", validate_quasi(quasi))
    return quasi


def _spaces(ws, args, count):
    return [_space(ws, args, i) for i in range(count)]


def _space_and_class(ws, args):
    x = _space(ws, args, 0)
    return x, _class_for(ws, x, args)


def _carrier_and_class(ws, args):
    x, cls = _space_and_class(ws, args)
    return x.carrier, cls


def _cmap(ws, args):
    y, z = _spaces(ws, args, 2)
    return cmap_space(y, z, _class_for(ws, y, args), _probe_budget(args))[0]


def _subspace(ws, args):
    if not args.elements:
        raise PreconditionError("subspace needs --elements")
    return subspace(_space(ws, args, 0), args.elements.split(","))[0]


def _aup(ws, args):
    monad = monad_by_name(args.monad or "ultrafilter-finite")
    return alexandroff_expansion(_space(ws, args, 0), monad)


OPERATIONS = {
    "coreflect": lambda ws, args: c_generated_structure(
        *_space_and_class(ws, args), _probe_budget(args)),
    "exponential": lambda ws, args: exponential(*_spaces(ws, args, 2))[0],
    "cmap": _cmap,
    "product": lambda ws, args: product(*_spaces(ws, args, 2))[0],
    "coproduct": lambda ws, args: coproduct(*_spaces(ws, args, 2))[0],
    "subspace": _subspace,
    "reflect-quasi": lambda ws, args: reflect_to_cgenerated(
        _quasi(ws, args, 0)),
    "Ae": lambda ws, args: specialization(_space(ws, args, 0)),
    "Aup": _aup,
    "associate": lambda ws, args: associated_quasi(
        *_space_and_class(ws, args)),
    "discrete-quasi": lambda ws, args: discrete_quasi(
        *_carrier_and_class(ws, args)),
    "indiscrete-quasi": lambda ws, args: indiscrete_quasi(
        *_carrier_and_class(ws, args)),
}


def _result_quantale_name(ws, space):
    return next((name for name, q in ws.quantales.items()
                 if q is space.quantale), "Q")


def cmd_compute(args, out):
    ws = _load(args.files)
    result = OPERATIONS[args.op](ws, args)
    name = args.name or (args.op.replace("-", "_") + "_" + "_".join(args.args))
    if any(ch in name for ch in " \t\n{};#"):
        raise Refusal(f"invalid result name {name!r}")
    if isinstance(result, QuasiSpace):
        text = print_quasi(name, result, _result_quantale_name(
            ws, result.cls.objects[0]), args.probe_class)
    else:
        text = print_space(name, result, _result_quantale_name(ws, result))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        out.write(f"wrote {args.out}\n")
    else:
        out.write(text)
    return 0


def cmd_suite(args, out):
    from .suite import run_suite

    results = run_suite(args.level, out)
    return 0 if all(r.passed for r in results) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tvspaces",
        description="Exact computations with quantale-enriched spaces")
    sub = parser.add_subparsers(dest="command", required=True)
    on_a_space = argparse.ArgumentParser(add_help=False)
    on_a_space.add_argument("--in", dest="files", action="append",
                            required=True)
    on_a_space.add_argument("--class", dest="probe_class", default=None)
    on_a_space.add_argument("--grid", default=None)
    on_a_space.add_argument("--budget", type=int, default=None,
                            help="probe enumeration budget")

    p_validate = sub.add_parser("validate", help="validate a workspace file")
    p_validate.set_defaults(run=cmd_validate)
    p_validate.add_argument("files", nargs="+")
    p_validate.add_argument("--budget", type=int,
                            default=DEFAULT_COVER_BUDGET,
                            help="cover-family budget for quasi validation")

    p_check = sub.add_parser("check", parents=[on_a_space],
                             help="decide a predicate of a space")
    p_check.set_defaults(run=cmd_check)
    p_check.add_argument("predicate", choices=PREDICATES)
    p_check.add_argument("space")

    p_compute = sub.add_parser("compute", parents=[on_a_space],
                               help="construct a derived object")
    p_compute.set_defaults(run=cmd_compute)
    p_compute.add_argument("op", choices=OPERATIONS)
    p_compute.add_argument("args", nargs="*")
    p_compute.add_argument("--elements", default=None)
    p_compute.add_argument("--monad", default=None)
    p_compute.add_argument("--name", default=None)
    p_compute.add_argument("--out", default=None)

    p_suite = sub.add_parser("suite", help="run the built-in law batteries")
    p_suite.set_defaults(run=cmd_suite)
    p_suite.add_argument("--level", choices=("fast", "full"), default="fast")
    return parser


# (exception type, message prefix, exit code); the first match wins
_FAILURES = (
    (ParseError, "parse error: ", 2),
    (OSError, "io error: ", 2),
    (PreconditionError, "precondition failed: ", 1),
    (Refusal, "", 2),
    (TvsError, "error: ", 2),
)


def main(argv=None, out=None):
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.run(args, out)
    except (OSError, TvsError) as exc:
        for kind, prefix, code in _FAILURES:
            if isinstance(exc, kind):
                out.write(f"{prefix}{exc}\n")
                return code


if __name__ == "__main__":
    sys.exit(main())
