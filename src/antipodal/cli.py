"""Command-line interface.

Exit codes: 0 when the requested checks pass, 1 when a verifier found a
mathematical violation or counterexample, 2 for usage, regime, or input
errors (malformed or unreadable family files included).  Every
subcommand is deterministic given its seed flag; output never includes
wall-clock readings, so identical invocations produce byte-identical
output.  Everything runs in-process, the exhaustive sweeps included:
--threads is accepted and checked (>= 1) for every command but has no
effect at the capped sweep sizes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bounds import bound_table
from .circle import DEFAULT_SAMPLES, DEFAULT_SEED, double_count_check, lemma3_sweep, theorem2_certify
from .constructions import circle_family, example1, example2
from .errors import AntipodalError, InvalidParams, RegimeError, TooLarge
from .familyfile import family_to_json, family_to_text, load_family, save_family
from .search import DEFAULT_BUDGET, max_antipodal_free, max_intersecting
from .setfamilies import verify_prop1_exhaustive
from .theorem1 import antipodal_free_precheck, certify_theorem1, check_pair_cap, lemma1_check, lemma2_check
from .vectors import Params, VectorFamily, enumerate_v, parse_codes

__all__ = ["main"]

_CONSTRUCTORS = {"example1": example1, "example2": example2, "circle": circle_family}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="antipodal",
        description="Enumeration, exact optimization, and certified bounds for "
        "antipodal-free families of (0,+1,-1)-vectors.",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker cap, >= 1; sweeps run in-process, so it has no effect",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enum_p = sub.add_parser("enumerate", help="emit all of V(n,k,l) as a family file")
    for name in ("n", "k", "l"):
        enum_p.add_argument(name, type=int)
    enum_p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    enum_p.add_argument("--output", "-o", metavar="FILE", help="write to FILE instead of stdout")
    enum_p.set_defaults(func=_cmd_enumerate)

    con_p = sub.add_parser("construct", help="emit a named family as a family file")
    con_p.add_argument("which", choices=sorted(_CONSTRUCTORS))
    for name in ("n", "k", "l"):
        con_p.add_argument(name, type=int)
    con_p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    con_p.add_argument("--output", "-o", metavar="FILE", help="write to FILE instead of stdout")
    con_p.set_defaults(func=_cmd_construct)

    bounds_p = sub.add_parser("bounds", help="all applicable bounds at (n,k,l)")
    for name in ("n", "k", "l"):
        bounds_p.add_argument(name, type=int)
    bounds_p.add_argument("--json", action="store_true")
    bounds_p.set_defaults(func=_cmd_bounds)

    verify_p = sub.add_parser("verify", help="run one of the verifiers")
    vsub = verify_p.add_subparsers(dest="check", required=True)

    prop1_p = vsub.add_parser("prop1", help="exhaustive cross-intersecting sweep at (m,a,b)")
    for name in ("m", "a", "b"):
        prop1_p.add_argument(name, type=int)
    prop1_p.set_defaults(func=_cmd_prop1)

    for check in ("lemma1", "lemma2"):
        lp = vsub.add_parser(
            check,
            help=(
                "antipodal-free precheck, then |F(A,B)| for every ordered disjoint pair"
                if check == "lemma1"
                else "post-deletion per-support intersecting families"
            ),
        )
        lp.add_argument("--family", required=True, metavar="FILE")
        lp.add_argument("--trace", action="store_true", help="dump the full JSON trace")
        lp.set_defaults(func=_cmd_lemma12, check_name=check)

    for check, help_, family_help, func in (
        ("lemma3", "interval cap |H(sigma) cap F| <= k", "default: the example2 family", _cmd_lemma3),
        ("double-count", "permutation double-counting identity", "default: all of V(n,k,l)", _cmd_double_count),
    ):
        sp = vsub.add_parser(check, help=help_)
        for name in ("n", "k", "l"):
            sp.add_argument(name, type=int)
        sp.add_argument("--family", metavar="FILE", help=family_help)
        sp.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--exhaustive", action="store_true", help="all n! permutations (n <= 8)")
        sp.set_defaults(func=func)

    certify_p = sub.add_parser("certify", help="run a full certification pipeline")
    csub = certify_p.add_subparsers(dest="what", required=True)

    t1_p = csub.add_parser("thm1", help="two-term bound via the deletion pipeline")
    t1_p.add_argument("--family", required=True, metavar="FILE")
    t1_p.add_argument("--trace", action="store_true", help="dump the full JSON trace")
    t1_p.set_defaults(func=_cmd_certify_thm1)

    t2_p = csub.add_parser("thm2", help="circle bound k|V|/n in its regime")
    t2_p.add_argument("--family", required=True, metavar="FILE")
    t2_p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    t2_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    t2_p.add_argument("--trace", action="store_true", help="dump the full JSON report")
    t2_p.set_defaults(func=_cmd_certify_thm2)

    search_p = sub.add_parser("search", help="exact maximum via branch and bound")
    search_p.add_argument("params", type=int, nargs="+", help="n k l (or n k with --kneser)")
    search_p.add_argument("--kneser", action="store_true", help="max intersecting k-family over [n]")
    search_p.add_argument("--budget", type=float, default=DEFAULT_BUDGET, metavar="SECS")
    search_p.add_argument("--witness", metavar="FILE", help="write the witness family to FILE")
    search_p.add_argument("--json", action="store_true")
    search_p.set_defaults(func=_cmd_search)

    table_p = sub.add_parser("table", help="bounds vs exact optimum over a parameter sweep")
    table_p.add_argument("nmax", type=int)
    table_p.add_argument("kmax", type=int)
    table_p.add_argument("--budget", type=float, default=DEFAULT_BUDGET, metavar="SECS")
    table_p.add_argument("--json", action="store_true")
    table_p.set_defaults(func=_cmd_table)

    return parser


def _emit_family(fam, args) -> int:
    text = family_to_json(fam) if args.json else family_to_text(fam)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {len(fam)} vectors to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_enumerate(args) -> int:
    return _emit_family(enumerate_v(Params(args.n, args.k, args.l)), args)


def _cmd_construct(args) -> int:
    fam = _CONSTRUCTORS[args.which](Params(args.n, args.k, args.l))
    return _emit_family(fam, args)


def _cmd_bounds(args) -> int:
    table = bound_table(Params(args.n, args.k, args.l))
    if args.json:
        print(json.dumps(table.as_dict(), indent=2))
    else:
        print(f"bounds at (n,k,l) = ({args.n},{args.k},{args.l})")
        for entry in table.entries:
            print(f"  {entry.name:<9} {entry.render()}")
    return 0


def _cmd_prop1(args) -> int:
    report = verify_prop1_exhaustive(args.m, args.a, args.b)
    print(f"caps: |A| <= {report.cap_a} or |B| <= {report.cap_b}")
    print(f"maximal pairs examined: {report.pairs_examined}")
    print(f"counterexamples: {report.counterexamples}")
    for w in report.witnesses:
        print(f"  witness: {w}")
    return 0 if report.holds else 1


def _verdict(report, passed: str, trace: bool = False) -> int:
    """Print the report's violations, then `passed` or FAILED, then the
    JSON trace if asked for; return the exit code."""
    for v in report.violations:
        print(f"violation [{v.stage}]: {v.message} {json.dumps(v.data)}")
    print(passed if report.ok else "FAILED")
    if trace:
        print(json.dumps(report.as_dict(), indent=2))
    return 0 if report.ok else 1


def _cmd_lemma12(args) -> int:
    fam = load_family(args.family)
    check_pair_cap(fam.params)
    precheck = antipodal_free_precheck(fam)
    if precheck:
        v = precheck[0]
        print(f"violation [{v.stage}]: {v.message} {', '.join(v.data['pair'])}")
        return 1
    if args.check_name == "lemma1":
        # A lemma-1 violation is an antipodal pair, so past the precheck
        # lemma 1 holds by its proof; this stage reports |F(A,B)| for
        # every ordered disjoint pair (in the --trace output).
        report = lemma1_check(fam)
        print(f"family size: {report.family_size}")
        print(f"disjoint pairs checked: {len(report.pair_counts)}")
    else:
        report = lemma2_check(fam)
        print(f"family size: {report.family_size}")
        print(f"survivors: {report.survivor_size}")
        print(f"supports with survivors: {len(report.family_b_sizes)}")
    return _verdict(report, "ok", args.trace)


def _cmd_lemma3(args) -> int:
    p = Params(args.n, args.k, args.l)
    if not p.circle_regime:
        raise RegimeError(
            f"interval cap holds for 2k <= n <= 3k - l, got (n,k,l)=({p.n},{p.k},{p.l})"
        )
    fam = load_family(args.family) if args.family else example2(p)
    if fam.params != p:
        raise InvalidParams(f"family file has params {fam.params}, expected {p}")
    report = lemma3_sweep(fam, exhaustive=args.exhaustive, samples=args.samples, seed=args.seed)
    print(f"permutations checked: {report.sigmas_checked} ({report.mode})")
    print(f"max |H(sigma) cap F|: {report.max_observed} (cap {p.k})")
    if report.max_observed > p.k:
        print("FAILED")
        return 1
    print("ok")
    return 0


def _cmd_double_count(args) -> int:
    p = Params(args.n, args.k, args.l)
    fam = load_family(args.family) if args.family else enumerate_v(p)
    if fam.params != p:
        raise InvalidParams(f"family file has params {fam.params}, expected {p}")
    report = double_count_check(fam, exhaustive=args.exhaustive, samples=args.samples, seed=args.seed)
    print(f"permutations checked: {report.sigmas_checked} ({report.mode})")
    if args.exhaustive:
        print(f"sum over sigma: {report.identity_lhs}")
        print(f"closed form:    {report.identity_rhs}")
    else:
        print(f"mean observed: {report.mean_observed:.6f}")
        print(f"mean expected: {report.mean_expected:.6f}")
    return _verdict(report, "ok")


def _cmd_certify_thm1(args) -> int:
    fam = load_family(args.family)
    report = certify_theorem1(fam)
    print(f"family size: {report.family_size}")
    if report.final_bound is not None:
        print(f"deletion threshold: {report.threshold}")
        print(f"survivors: {report.survivor_size}")
        print(f"accounting lower bound: {report.accounting_lower_bound}")
        print(f"two-term bound: {report.final_bound}")
    return _verdict(report, "certified", args.trace)


def _cmd_certify_thm2(args) -> int:
    fam = load_family(args.family)
    report = theorem2_certify(fam, samples=args.samples, seed=args.seed)
    print(f"family size: {report.family_size}")
    print(f"circle bound: {report.bound_value}")
    print(f"permutations checked: {report.sigmas_checked} ({report.mode})")
    print(f"max |H(sigma) cap F|: {report.max_observed} (cap {report.cap})")
    return _verdict(report, "certified", args.trace)


def _cmd_search(args) -> int:
    if args.kneser:
        if len(args.params) != 2:
            raise InvalidParams("search --kneser takes exactly two integers: n k")
        if args.witness:
            raise InvalidParams("--witness applies to vector search only")
        n, k = args.params
        result = max_intersecting(n, k, budget=args.budget)
        headline = f"max intersecting {k}-sets of [{n}] = {result.optimum}"
    else:
        if len(args.params) != 3:
            raise InvalidParams("search takes exactly three integers: n k l")
        p = Params(*args.params)
        result = max_antipodal_free(p, budget=args.budget)
        headline = f"alpha({p.n},{p.k},{p.l}) = {result.optimum}"
    if args.witness:
        # Written before anything is printed, so a failed write leaves stdout empty.
        save_family(VectorFamily.from_pairs(p, parse_codes(result.witness)), args.witness)
    if args.json:
        payload = result.as_dict()
        payload["exact"] = result.proof_of_optimality
        print(json.dumps(payload, indent=2))
    else:
        print(headline + ("" if result.proof_of_optimality else "  (lower bound, budget exhausted)"))
        print(f"proved optimal: {'yes' if result.proof_of_optimality else 'no'}")
        print(f"nodes explored: {result.nodes_explored}")
    if args.witness:
        print(f"witness written to {args.witness}")
    return 0


def _cmd_table(args) -> int:
    if args.nmax < 2 or args.kmax < 1:
        raise InvalidParams(f"table needs NMAX >= 2 and KMAX >= 1, got NMAX={args.nmax}, KMAX={args.kmax}")
    rows = []
    for n in range(2, args.nmax + 1):
        for k in range(1, args.kmax + 1):
            for l in range(1, k + 1):
                if k + l > n:
                    continue
                p = Params(n, k, l)
                bt = bound_table(p)
                row: dict = {"n": n, "k": k, "l": l, **bt.as_dict()["entries"]}
                try:
                    result = max_antipodal_free(p, budget=args.budget)
                    row["alpha"] = result.optimum
                    row["exact"] = result.proof_of_optimality
                    tight = []
                    if result.proof_of_optimality:
                        short = {"example1": "ex1", "example2": "ex2"}
                        for e in bt.entries:
                            if e.name == "V" or not e.applicable:
                                continue
                            if e.value == result.optimum:
                                tight.append("=" + short.get(e.name, e.name))
                    row["tight"] = tight
                except TooLarge:
                    row["alpha"] = None
                    row["exact"] = False
                    row["tight"] = []
                rows.append(row)
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    header = f"{'n':>3} {'k':>3} {'l':>3} {'|V|':>7} {'ex1':>7} {'ex2':>7} {'thm1':>7} {'thm2':>7} {'fk1':>7} {'alpha':>9}  tight"
    print(header)
    print("-" * len(header))
    for row in rows:
        def cell(name: str) -> str:
            return "-" if row[name] is None else str(row[name])

        if row["alpha"] is None:
            alpha = "skipped"
        elif row["exact"]:
            alpha = str(row["alpha"])
        else:
            alpha = f">={row['alpha']}"
        print(
            f"{row['n']:>3} {row['k']:>3} {row['l']:>3} {cell('V'):>7} {cell('example1'):>7} "
            f"{cell('example2'):>7} {cell('thm1'):>7} {cell('thm2'):>7} {cell('fk1'):>7} "
            f"{alpha:>9}  {' '.join(row['tight'])}"
        )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return exc.code
    try:
        if args.threads < 1:
            raise InvalidParams(f"thread count must be >= 1, got {args.threads}")
        return args.func(args)
    except (AntipodalError, OSError) as exc:  # OSError: unreadable or unwritable FILE arguments
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
