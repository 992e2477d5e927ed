"""Command-line front end.

Subcommands: ``validate`` (run the appropriate validator on every object in
a file), ``check`` (decide a predicate of one space, printing a witness on
false), ``compute`` (construct a derived object and print or write it in the
text format), and ``suite`` (run the built-in law batteries).

Exit codes: 0 for pass/true/success, 1 for violation/false/precondition
failure, 2 for parse or structural errors.  Output is deterministic:
identical inputs give byte-identical reports.
"""

import argparse
import sys

from .errors import ParseError, PreconditionError, StructuralError, TvsError
from .generation import (
    alexandroff_expansion,
    c_generated_structure,
    cmap_space,
    is_alexandroff,
    is_c_generated,
    specialization,
)
from .monad import finite_ultrafilter_monad, monad_by_name
from .quantale import validate_quantale
from .quasi import (
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


def _load(paths):
    ws = Workspace()
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            parse_workspace(handle.read(), ws)
    return ws


def _class_for(ws, space, args):
    spec = args.probe_class
    if not spec:
        raise PreconditionError("this operation needs --class")
    grid = args.grid.split(",") if args.grid else None
    return resolve_class(spec, space.quantale, space.monad, ws, grid)


def _probe_budget(args):
    from .generation import DEFAULT_MAP_BUDGET

    return args.budget if args.budget else DEFAULT_MAP_BUDGET


def cmd_validate(args, out):
    try:
        ws = _load(args.files)
    except ParseError as exc:
        out.write(f"parse error: {exc}\n")
        return 2
    except OSError as exc:
        out.write(f"io error: {exc}\n")
        return 2
    failed = False
    for kind, name in ws.order:
        if kind == "quantale":
            report = validate_quantale(ws.quantales[name])
        elif kind == "space":
            report = validate_space(ws.spaces[name])
        elif kind == "quasi":
            report = validate_quasi(ws.quasis[name],
                                    cover_budget=args.budget)
        else:
            out.write(f"map {name}: ok\n")
            continue
        status = "ok" if report.passed else "violation"
        out.write(f"{kind} {name}: {status}\n")
        for law, witness in report.violations:
            out.write(f"  {law}: witness {witness!r}\n")
            failed = True
    return 1 if failed else 0


_PREDICATES = ("compact", "hausdorff", "separated", "exponentiable",
               "c-generated", "alexandroff")


def cmd_check(args, out):
    try:
        ws = _load(args.files)
        space = ws.space(args.space)
        report = validate_space(space)
        if not report.passed:
            out.write(f"space {args.space} is not valid: "
                      f"{report.violations[0]}\n")
            return 2
        witness = None
        if args.predicate == "compact":
            witness = compactness_witness(space)
        elif args.predicate == "hausdorff":
            witness = hausdorff_witness(space)
        elif args.predicate == "separated":
            witness = separatedness_witness(space)
        elif args.predicate == "exponentiable":
            witness = exponentiability_witness(space)
            if witness is not None:
                witness = tuple(
                    x.token if hasattr(x, "token") else x for x in witness)
        elif args.predicate == "c-generated":
            cls = _class_for(ws, space, args)
            if not is_c_generated(space, cls, _probe_budget(args)):
                witness = ("structure differs from its coreflection",)
        elif args.predicate == "alexandroff":
            grid = args.grid.split(",") if args.grid else None
            grid_values = ([space.quantale.parse_value(tok) for tok in grid]
                           if grid else None)
            if not is_alexandroff(space, grid_values, _probe_budget(args)):
                witness = ("structure differs from its coreflection",)
        else:
            out.write(f"unknown predicate {args.predicate!r}\n")
            return 2
    except ParseError as exc:
        out.write(f"parse error: {exc}\n")
        return 2
    except OSError as exc:
        out.write(f"io error: {exc}\n")
        return 2
    except PreconditionError as exc:
        out.write(f"precondition failed: {exc}\n")
        return 1
    except TvsError as exc:
        out.write(f"error: {exc}\n")
        return 2
    if witness is None:
        out.write("true\n")
        return 0
    out.write("false\n")
    out.write(f"witness: {witness!r}\n")
    return 1


def _result_quantale_name(ws, space):
    for name, q in ws.quantales.items():
        if q is space.quantale:
            return name
    return "Q"


def cmd_compute(args, out):
    try:
        ws = _load(args.files)
        op = args.op
        names = args.args
        result_space = None
        result_quasi = None

        def checked_space(name):
            space = ws.space(name)
            report = validate_space(space)
            if not report.passed:
                raise StructuralError(
                    f"space {name} is not valid: {report.violations[0]}")
            return space

        def checked_quasi(name):
            quasi = ws.quasi(name)
            report = validate_quasi(quasi)
            if not report.passed:
                raise StructuralError(
                    f"quasi-space {name} is not valid: "
                    f"{report.violations[0]}")
            return quasi
        if op == "coreflect":
            x = checked_space(names[0])
            cls = _class_for(ws, x, args)
            result_space = c_generated_structure(x, cls,
                                                 _probe_budget(args))
        elif op == "exponential":
            y, z = checked_space(names[0]), checked_space(names[1])
            result_space, _ = exponential(y, z)
        elif op == "cmap":
            y, z = checked_space(names[0]), checked_space(names[1])
            cls = _class_for(ws, y, args)
            result_space, _ = cmap_space(y, z, cls, _probe_budget(args))
        elif op == "product":
            result_space, _ = product(checked_space(names[0]), checked_space(names[1]))
        elif op == "coproduct":
            result_space, _ = coproduct(checked_space(names[0]),
                                        checked_space(names[1]))
        elif op == "subspace":
            if not args.elements:
                raise PreconditionError("subspace needs --elements")
            result_space, _ = subspace(checked_space(names[0]),
                                       args.elements.split(","))
        elif op == "reflect-quasi":
            result_space = reflect_to_cgenerated(checked_quasi(names[0]))
        elif op == "Ae":
            result_space = specialization(checked_space(names[0]))
        elif op == "Aup":
            monad = (monad_by_name(args.monad) if args.monad
                     else finite_ultrafilter_monad())
            result_space = alexandroff_expansion(checked_space(names[0]), monad)
        elif op == "associate":
            x = checked_space(names[0])
            cls = _class_for(ws, x, args)
            result_quasi = associated_quasi(x, cls)
        elif op == "discrete-quasi":
            x = checked_space(names[0])
            cls = _class_for(ws, x, args)
            result_quasi = discrete_quasi(x.carrier, cls)
        elif op == "indiscrete-quasi":
            x = checked_space(names[0])
            cls = _class_for(ws, x, args)
            result_quasi = indiscrete_quasi(x.carrier, cls)
        else:
            out.write(f"unknown operation {op!r}\n")
            return 2
    except ParseError as exc:
        out.write(f"parse error: {exc}\n")
        return 2
    except OSError as exc:
        out.write(f"io error: {exc}\n")
        return 2
    except (PreconditionError,) as exc:
        out.write(f"precondition failed: {exc}\n")
        return 1
    except TvsError as exc:
        out.write(f"error: {exc}\n")
        return 2
    except IndexError:
        out.write("missing operand names\n")
        return 2

    result_name = args.name or (op.replace("-", "_") + "_" + "_".join(names))
    if any(ch in result_name for ch in " \t\n{};#"):
        out.write(f"invalid result name {result_name!r}\n")
        return 2
    if result_space is not None:
        q_name = _result_quantale_name(ws, result_space)
        text = print_space(result_name, result_space, q_name)
    else:
        q_name = _result_quantale_name(
            ws, result_quasi.cls.objects[0])
        text = print_quasi(result_name, result_quasi, q_name,
                           args.probe_class)
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

    p_validate = sub.add_parser("validate", help="validate a workspace file")
    p_validate.add_argument("files", nargs="+")
    p_validate.add_argument("--budget", type=int, default=None,
                            help="cover-family budget for quasi validation")

    p_check = sub.add_parser("check", help="decide a predicate of a space")
    p_check.add_argument("predicate", choices=_PREDICATES)
    p_check.add_argument("space")
    p_check.add_argument("--in", dest="files", action="append", required=True)
    p_check.add_argument("--class", dest="probe_class", default=None)
    p_check.add_argument("--grid", default=None)
    p_check.add_argument("--budget", type=int, default=None,
                         help="probe enumeration budget")

    p_compute = sub.add_parser("compute", help="construct a derived object")
    p_compute.add_argument("op", choices=(
        "coreflect", "exponential", "cmap", "product", "coproduct",
        "subspace", "reflect-quasi", "Ae", "Aup", "associate",
        "discrete-quasi", "indiscrete-quasi"))
    p_compute.add_argument("args", nargs="*")
    p_compute.add_argument("--in", dest="files", action="append",
                           required=True)
    p_compute.add_argument("--class", dest="probe_class", default=None)
    p_compute.add_argument("--grid", default=None)
    p_compute.add_argument("--elements", default=None)
    p_compute.add_argument("--monad", default=None)
    p_compute.add_argument("--name", default=None)
    p_compute.add_argument("--out", default=None)
    p_compute.add_argument("--budget", type=int, default=None,
                           help="probe enumeration budget")

    p_suite = sub.add_parser("suite", help="run the built-in law batteries")
    p_suite.add_argument("--level", choices=("fast", "full"), default="fast")
    return parser


def main(argv=None, out=None):
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args, out)
    if args.command == "check":
        return cmd_check(args, out)
    if args.command == "compute":
        return cmd_compute(args, out)
    return cmd_suite(args, out)


if __name__ == "__main__":
    sys.exit(main())
