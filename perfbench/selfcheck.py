"""Check that every oracle rejects a planted wrong answer.

    python3 perfbench/selfcheck.py [--seed N]

For each operation of each workload (one pass, seed 1 by default) it runs
the operation, checks that the program's answer passes (or, for a known
fault, that it fails), then plants a wrong answer with the operation's
corruptor -- a closure with one entry raised, a map list missing one map,
a non-discrete coreflection, a flipped exit code -- and checks that the
oracle rejects it.  It also checks a few oracle building blocks against
hand-computed values.  Exits 1 when any oracle accepts a wrong answer.
"""

import argparse
import os
import shutil
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_building_blocks():
    """Hand-computed cases for the reference algebra."""
    import oracle

    problems = []
    cp, inf = oracle.COST_PLUS, oracle.INF
    closed = oracle.closure(cp, [[inf, Fraction(1), inf],
                                 [inf, inf, Fraction(2)],
                                 [inf, inf, inf]])
    if closed[0][2] != 3 or closed[2][0] is not inf or closed[1][1] != 0:
        problems.append("min-plus closure of a 3-path")
    cm = oracle.COST_MAX
    closed = oracle.closure(cm, [[inf, Fraction(1), inf],
                                 [inf, inf, Fraction(2)],
                                 [inf, inf, inf]])
    if closed[0][2] != 2:
        problems.append("min-max closure of a 3-path")
    met3 = [[Fraction(v) for v in row] for row in ((0, 1, 2), (1, 0, 1),
                                                     (2, 1, 0))]
    if not oracle.exponentiability_violation(cp, met3, 0, 1, Fraction(1, 2),
                                             Fraction(1, 2)):
        problems.append("Met3 violates exponentiability at u=v=1/2")
    if oracle.exponentiable(cp, met3, oracle.cost_breakpoints(met3)):
        problems.append("the breakpoint search misses the Met3 witness")
    chain2 = [[1, 1], [0, 1]]
    if len(oracle.continuous_maps(oracle.BOOL2, chain2, chain2)) != 3:
        problems.append("the two-chain has three monotone self-maps")
    if oracle.violations(oracle.BOOL2, [[0, 1], [0, 1]]) != {
            ("reflexivity", 0, 0)}:
        problems.append("the NoLoop matrix breaks reflexivity only")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import oracle
    import workloads

    problems = check_building_blocks()
    checked = 0
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=out_dir)
    try:
        for workload in workloads.WORKLOADS:
            for op in workloads.build(workload, args.seed, workdir):
                answer = op.answer(op.call())
                try:
                    op.check(answer)
                    accepted = True
                except oracle.WrongAnswer:
                    accepted = False
                if accepted == bool(op.known_fault):
                    problems.append(f"{workload}/{op.name}: program answer "
                                    f"{'accepted' if accepted else 'rejected'}")
                try:
                    op.check(op.corrupt(answer))
                    problems.append(f"{workload}/{op.name}: planted wrong "
                                    "answer accepted")
                except oracle.WrongAnswer:
                    checked += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in problems:
        print(line)
    print(f"{checked} planted wrong answers rejected, "
          f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
