"""Command-line entry point.

Subcommands: reduce (rewrite into a monotone target class, writing the
text and trace comments that the target renders), validate (profile
check), solve (satisfiability verdict with witness), verify-gadget
(exhaustive forcing check of the 25-clause gadget), gen (seeded random
3-SAT-4 instance), check-equisat (compare two formulas' verdicts, by the
reduction scheme's lemma when it applies, else by DPLL),
blowup (CSV growth report over a seed range).

Stdout carries machine-readable results; diagnostics go to stderr.
Exit codes: 0 success or check holds, 1 check failed, 2 usage error,
3 malformed or unsuitable input.
"""

from __future__ import annotations

import argparse
import csv
import gc
import sys
from itertools import islice
from typing import NoReturn, Sequence

from . import bench, dimacs
from .bench import GenConfig, GenerationError
from .dimacs import DimacsDocument, DimacsError, _clip
from .formula import FormulaError
from .profiles import PROFILES, check_blocks
from .reduce import FORCE_FALSE_GADGET, FORCE_TRUE_GADGET, GADGET_DESIGNATED, TARGETS, ProfileError
from .solve import (
    WITNESS_VAR_LIMIT,
    VariableLimitError,
    check_equisat_body,
    solve_dpll,
    solve_exhaustive,
    verify_forcing,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INPUT = 3


def _cmd_reduce(args: argparse.Namespace) -> int:
    if args.compact_r3 and args.target != "mono3sat5":
        print("error: --compact-r3 applies only to --target mono3sat5", file=sys.stderr)
        return EXIT_USAGE
    target = TARGETS["mono3sat5-compact" if args.compact_r3 else args.target]
    formula = dimacs.load(args.input).formula
    num_vars, num_clauses, runs = target.runs(formula)  # checks the input before the output opens
    comments = target.trace(runs) if args.trace else ()
    dimacs.dump_parts(args.output, comments, num_vars, num_clauses, target.text(runs))
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as handle:
        body = dimacs.Body(handle.read())
    # a list of occurrence counts takes at most 8 bytes per character of text
    report = check_blocks(body, PROFILES[args.profile], len(body.text))
    for violation in report:
        print(violation)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _cmd_solve(args: argparse.Namespace) -> int:
    doc = dimacs.load(args.input)
    if args.method == "exhaustive":
        verdict = solve_exhaustive(doc.formula)
    else:
        verdict = solve_dpll(doc.formula)
    if verdict.witness is None:
        print("UNSAT")
    else:
        print("SAT")
        # one write per 65,536 literals: print writes each argument apart
        literals = map(str, (v if value else -v for v, value in verdict.witness.items()))
        sys.stdout.write("v")
        while chunk := " ".join(islice(literals, 1 << 16)):
            sys.stdout.write(f" {chunk}")
        print(" 0")
    return EXIT_OK


def _cmd_verify_gadget(args: argparse.Namespace) -> int:
    force_true = args.sign == "true"
    gadget = FORCE_TRUE_GADGET if force_true else FORCE_FALSE_GADGET
    report = verify_forcing(gadget.clauses, GADGET_DESIGNATED)
    print(f"sign: {args.sign}")
    print(f"designated: {GADGET_DESIGNATED}")
    print(f"satisfiable: {str(report.satisfiable).lower()}")
    print(f"model_count: {report.model_count}")
    print("forced_true:", " ".join(map(str, sorted(report.forced_true))) or "-")
    print("forced_false:", " ".join(map(str, sorted(report.forced_false))) or "-")
    expected = report.forced_true if force_true else report.forced_false
    holds = report.satisfiable and GADGET_DESIGNATED in expected
    print(f"forcing_holds: {str(holds).lower()}")
    return EXIT_OK if holds else EXIT_CHECK_FAILED


def _cmd_gen(args: argparse.Namespace) -> int:
    cfg = GenConfig(variable_count=args.vars, clause_count=args.clauses, seed=args.seed)
    formula = bench.generate(cfg)
    comment = f"gen vars={args.vars} clauses={args.clauses} seed={args.seed}"
    dimacs.dump(DimacsDocument(formula, (comment,)), args.output)
    return EXIT_OK


def _cmd_check_equisat(args: argparse.Namespace) -> int:
    original = dimacs.load(args.original).formula
    with open(args.reduced, "rb") as handle:
        body = dimacs.Body(handle.read())
    same = check_equisat_body(original, body)
    print("equisatisfiable" if same else "not equisatisfiable")
    return EXIT_OK if same else EXIT_CHECK_FAILED


def _cmd_blowup(args: argparse.Namespace) -> int:
    if args.seeds < 0:
        print(f"error: --seeds must be non-negative, got {_clip(str(args.seeds))}", file=sys.stderr)
        return EXIT_USAGE
    GenConfig(args.vars, args.clauses, 0)  # a usage error leaves stdout empty
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(bench.CSV_HEADER)
    for seed in range(args.seeds):
        formula = bench.generate(GenConfig(args.vars, args.clauses, seed))
        writer.writerows(bench.blowup_rows(seed, formula))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Clips its error message, which echoes the bad argument whole, however
    many digits it has.  Subparsers are built from this class too."""

    def error(self, message: str) -> NoReturn:
        super().error(_clip(message, 200))  # room for a whole list of choices


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="monocnf",
        description="CNF reduction toolkit: monotone 3-SAT rewrites with bounded occurrences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="rewrite a DIMACS formula into a monotone target class")
    p.add_argument(
        "--target", required=True, choices=[name for name in TARGETS if name != "mono3sat5-compact"],
        help="output class to produce",
    )
    p.add_argument(
        "--compact-r3", action="store_true", dest="compact_r3",
        help=f"use the {len(TARGETS['mono3sat5-compact'].template)}-clause 2-clause expansion (mono3sat5 only)",
    )
    p.add_argument("--trace", action="store_true", help="embed per-clause provenance comments")
    p.add_argument("input", help="input DIMACS CNF file")
    p.add_argument("output", help="output DIMACS CNF file")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("validate", help="check a DIMACS formula against a profile")
    p.add_argument("--profile", required=True, choices=sorted(PROFILES))
    p.add_argument("input", help="input DIMACS CNF file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("solve", help="decide satisfiability and print a witness")
    p.add_argument(
        "--method", choices=("exhaustive", "dpll"), default="dpll",
        help="decision procedure (default: dpll)",
    )
    p.add_argument("input", help="input DIMACS CNF file")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("verify-gadget", help="exhaustively check the forcing gadget")
    p.add_argument(
        "--sign", choices=("true", "false"), default="true",
        help="which forcing direction to verify (default: true)",
    )
    p.set_defaults(handler=_cmd_verify_gadget)

    p = sub.add_parser("gen", help="generate a seeded random 3-SAT-4 instance")
    p.add_argument("--vars", type=int, required=True, help="number of variables (at least 3)")
    p.add_argument("--clauses", type=int, required=True, help="number of clauses")
    p.add_argument("--seed", type=int, required=True, help="64-bit generator seed")
    p.add_argument("output", help="output DIMACS CNF file")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser(
        "check-equisat", help="compare the SAT verdicts of two formulas",
        description="Compare the SAT verdicts of two formulas. When the reduced formula is an output of "
        "the reduction scheme on the original, the verdicts are equal by the scheme's lemma, checked "
        "exhaustively once per target on each of its rows, and neither side is solved, at any size; otherwise "
        f"DPLL decides both, and then both formulas must declare at most {WITNESS_VAR_LIMIT:,} variables, "
        "DPLL's witness bound.",
    )
    p.add_argument("original", help="original DIMACS CNF file")
    p.add_argument("reduced", help="reduced DIMACS CNF file")
    p.set_defaults(handler=_cmd_check_equisat)

    p = sub.add_parser("blowup", help="emit a CSV growth report over a seed range")
    p.add_argument("--seeds", type=int, required=True, help="run seeds 0 through K-1")
    p.add_argument("--vars", type=int, required=True, help="variables per instance")
    p.add_argument("--clauses", type=int, required=True, help="clauses per instance")
    p.set_defaults(handler=_cmd_blowup)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # a command may hold millions of clauses; each holds only ints, so none
    # is in a cycle, but every full collection would walk them all again
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except GenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DimacsError, FormulaError, ProfileError, VariableLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:  # the input is too large for this machine
        print("error: out of memory", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if collecting:
            gc.enable()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
