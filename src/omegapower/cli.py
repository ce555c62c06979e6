"""Command line interface.

Verbs: enum (pair enumeration and block offsets), erase (the erasing map),
member (finite-word language membership), omega-member (omega-power
membership of lassos and carrier words), verify (dual-route suites).

Exit codes: 0 true/pass, 1 false/fail, 2 usage or domain error,
3 inconclusive (also when the input is too large to decide in memory).
"""

import argparse
import math
import sys

from . import pairs
from .automata import (
    accepts_finite,
    lasso_accepts,
    omega_power_automaton,
    xi1_sigma_witness,
    zero_star_one_automaton,
    zero_word_automaton,
)
from .construction import (
    a_member,
    a_omega_member,
    mu0_member,
    mu1_member,
    mu_member,
    pi_member,
)
from .erasing import (
    DEFAULT_BUDGET,
    _e_depth,
    a3_member,
    a3_omega_member,
    e_def_member,
    erase_fin,
    erase_lasso,
    t_member,
)
from .errors import WorkbenchError
from .literals import format_word, parse_word_literal
from .rtree import load_tree
from .suites import SUITES, check_run, run_suite
from .verdicts import Member
from .words import FiniteWord, KnjEncodedWord, LassoWord

_MEMBER_LANGS = {
    "E": (3, lambda w, r: e_def_member(w)),
    "A3": (3, lambda w, r: a3_member(w)),
    "B2": (2, lambda w, r: accepts_finite(xi1_sigma_witness(), w)),
    "T": (3, lambda w, r: t_member(w)),
    "pi": (4, lambda w, r: pi_member(w, r) is not None),
    "mu": (4, lambda w, r: mu_member(w)),
    "mu0": (4, lambda w, r: mu0_member(w)),
    "mu1": (4, lambda w, r: mu1_member(w)),
    "A4": (4, lambda w, r: a_member(w, r)),
}

_TREE_LANGS = ("pi", "A4")


def _count(text, signed=False):
    """An int in ASCII digits, after one "-" only when signed: int() alone
    also takes "+", spaces, "_" and other scripts' digits."""
    digits = text[1:] if signed and text.startswith("-") else text
    try:
        if digits.isascii() and digits.isdigit():
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    kind = "an integer" if signed else "an integer >= 0"
    raise argparse.ArgumentTypeError(f"expected {kind} in ASCII digits, got {text!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one stderr line, without the usage block; subparsers inherit it
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(
        prog="omegapower",
        description="Workbench for omega-power constructions over small alphabets.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_enum = sub.add_parser("enum", help="pair enumeration and block offsets")
    enum_sub = p_enum.add_subparsers(dest="what", required=True)
    p_q = enum_sub.add_parser("q", help="the indexed pair q_n")
    p_q.add_argument("--index", type=_count, required=True)
    p_m = enum_sub.add_parser("m", help="the block offset M_j")
    p_m.add_argument("--j", type=_count, required=True)

    p_erase = sub.add_parser("erase", help="apply the erasing map")
    group = p_erase.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", help="finite word over {0,1,2}")
    group.add_argument("--lasso", help="lasso over {0,1,2}, e.g. 1(12)")

    p_member = sub.add_parser("member", help="finite-word membership")
    p_member.add_argument("--lang", choices=sorted(_MEMBER_LANGS), required=True)
    p_member.add_argument("--word", required=True)
    p_member.add_argument("--rtree", default="full", help="full, diag, or a JSON file")

    p_omega = sub.add_parser("omega-member", help="omega-power membership")
    p_omega.add_argument("--construction", choices=sorted(_OMEGA), required=True)
    p_omega.add_argument("--input", required=True, help="lasso or K[N,j]m literal")
    p_omega.add_argument("--rtree", default="full")
    p_omega.add_argument("--budget", type=_count, default=DEFAULT_BUDGET)

    p_verify = sub.add_parser("verify", help="run a dual-route suite")
    p_verify.add_argument("--suite", choices=sorted(SUITES), required=True)
    p_verify.add_argument("--bound", type=_count)
    p_verify.add_argument("--seed", type=lambda text: _count(text, signed=True))
    p_verify.add_argument("--budget", type=_count)
    p_verify.add_argument("--rtree", default="full")
    p_verify.add_argument("--out", help="write the JSON report here")
    return parser


def _finite_arg(text, size):
    w = parse_word_literal(text, size)
    if not isinstance(w, FiniteWord):
        raise WorkbenchError(f"expected a finite word, got {format_word(w)}")
    return w


def _cmd_enum(args):
    if args.what == "q":
        print(pairs.q_of_index(args.index))
        return 0
    # M_j has about (j+1) log10(4) digits; refuse before building one that
    # cannot be printed
    limit = sys.get_int_max_str_digits()
    if limit and (args.j + 1) * math.log10(4) - math.log10(3) >= limit:
        raise WorkbenchError(f"M_j for j = {args.j} has more than {limit} digits")
    print(pairs.m_offset(args.j))
    return 0


def _cmd_erase(args):
    if args.word is not None:
        print(format_word(erase_fin(_finite_arg(args.word, 3))))
        return 0
    w = parse_word_literal(args.lasso, 3)
    if not isinstance(w, LassoWord):
        raise WorkbenchError(f"expected a lasso, got {format_word(w)}")
    print(format_word(erase_lasso(w)))
    return 0


def _cmd_member(args):
    size, fn = _MEMBER_LANGS[args.lang]
    w = _finite_arg(args.word, size)
    tree = load_tree(args.rtree) if args.lang in _TREE_LANGS else None
    verdict = fn(w, tree)
    print("true" if verdict else "false")
    return 0 if verdict else 1


def _sigma2_verdict(w, args):
    if not isinstance(w, LassoWord):
        raise WorkbenchError("sigma2 expects a lasso over {0,1,2}")
    verdict = a3_omega_member(w, args.budget)
    if verdict is Member.INCONCLUSIVE:
        depth = _e_depth(w.spoke.letters, w.cycle.letters)
        print(f"inconclusive: needs E-depth {depth}, budget {args.budget}", file=sys.stderr)
    return verdict


def _theorem2_verdict(w, args):
    if not isinstance(w, (LassoWord, KnjEncodedWord)):
        raise WorkbenchError("theorem2 expects a lasso or a K[N,j] literal")
    return a_omega_member(w, load_tree(args.rtree))


def _xi_verdict(w, args, witness):
    if not isinstance(w, LassoWord):
        raise WorkbenchError(f"{args.construction} expects a binary lasso")
    return Member.of(lasso_accepts(omega_power_automaton(witness()), w))


# construction: (alphabet size, decider of a parsed literal)
_OMEGA = {
    "sigma2": (3, _sigma2_verdict),
    "xi1-sigma": (2, lambda w, args: _xi_verdict(w, args, xi1_sigma_witness)),
    "xi1-pi": (2, lambda w, args: _xi_verdict(w, args, zero_word_automaton)),
    "xi2-pi": (2, lambda w, args: _xi_verdict(w, args, zero_star_one_automaton)),
    "theorem2": (4, _theorem2_verdict),
}


def _cmd_omega(args):
    size, decide = _OMEGA[args.construction]
    verdict = decide(parse_word_literal(args.input, size), args)
    print(verdict.value)
    if verdict is Member.YES:
        return 0
    if verdict is Member.NO:
        return 1
    return 3


def _cmd_verify(args):
    suite = check_run(args.suite, args.bound, seed=args.seed, budget=args.budget)
    # --rtree has a default, so only a suite that reads a tree gets one
    tree = load_tree(args.rtree) if "tree" in suite.reads else None
    out = None
    if args.out:
        # open before the run, so a bad path fails at once
        try:
            out = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            raise WorkbenchError(f"cannot write {args.out!r}: {exc.strerror}") from None
    try:
        report = run_suite(
            args.suite, bound=args.bound, seed=args.seed, tree=tree, budget=args.budget
        )
        if out:
            out.write(report.to_json())
    finally:
        if out:
            out.close()
    print(report.summary())
    for literal, expected, got in report.counterexamples:
        print(f"  counterexample {literal}: expected {expected}, got {got}")
    if report.cases_failed:
        return 1
    if report.cases_inconclusive:
        return 3
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    handler = {
        "enum": _cmd_enum,
        "erase": _cmd_erase,
        "member": _cmd_member,
        "omega-member": _cmd_omega,
        "verify": _cmd_verify,
    }[args.verb]
    try:
        return handler(args)
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError) as exc:
        # no verdict: exit 1 would read as "no"
        print(f"inconclusive: input too large to decide ({type(exc).__name__})", file=sys.stderr)
        return 3


def console():
    sys.exit(main())
