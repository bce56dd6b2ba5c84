"""Command-line front end.

Exit codes: 0 when the requested computation succeeds (and, for verify
commands, every report passes), 1 when a verify command finds failures,
2 for usage errors, computational dead ends (divergent values, bad
indices, a bound that certifies no digit) and a report file that cannot
be written.

Each command runs at the precision --prec-bits names, 256 bits by
default.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import mpmath

from . import ak_zeta, level2, pbn, verify
from .index_algebra import require_index, require_int, require_signed_parts, require_tolerance
from .mzv_numeric import _DEFAULT_PREC, EvalResult, configure, mzv, mzsv, t0_value, t_value
from .reports import DEFAULT_TOLERANCE, any_failure, reports_to_document, summarize, write_json

__all__ = ["parse_index", "certified_digits", "run_command", "main"]


def parse_index(text: str) -> tuple[str, tuple[int, ...]]:
    """Split an index argument into a sign convention and its parts.

    Plain "2,1" means the positive index (2, 1); the "neg:" prefix, as in
    "neg:1,2", selects the negated-exponent convention with nonnegative
    parts.

    >>> parse_index("2,1")
    ('pos', (2, 1))
    >>> parse_index("neg:1,2")
    ('neg', (1, 2))
    """
    sign = "pos"
    body = text.strip()
    if body.startswith("neg:"):
        sign = "neg"
        body = body[len("neg:") :]
    if not body:
        raise ValueError(f"empty index in {text!r}")
    try:
        parts = tuple(int(piece) for piece in body.split(","))
    except ValueError:
        raise ValueError(f"index {text!r} is not a comma-separated integer list") from None
    return sign, (require_signed_parts if sign == "neg" else require_index)(parts)


def certified_digits(res: EvalResult) -> int | float:
    """How many significant digits of res.value its error bound certifies:
    the most d for which the bound is at most half a unit in the d-th
    digit, so the value rounded to d digits is within one unit in its
    last place of the true value.

    >>> certified_digits(EvalResult(mpmath.mpf(1.5), mpmath.mpf(0.0006), "test"))
    3
    """
    if not res.error_bound:
        return math.inf
    if not res.value:
        return 0
    leading = mpmath.floor(mpmath.log10(abs(res.value)))
    return int(mpmath.floor(leading + 1 - mpmath.log10(2 * res.error_bound)))


def _print_result(res: EvalResult, digits: int) -> None:
    certified = certified_digits(res)
    if certified < 1:
        raise RuntimeError(f"the error bound {mpmath.nstr(res.error_bound, 3)} certifies no digit")
    if certified < digits:
        print(f"note: the error bound certifies {certified} of {digits} digits", file=sys.stderr)
    print(mpmath.nstr(res.value, min(digits, certified)))


def _print_reports(reports, as_json: str | None) -> int:
    if as_json == "-":
        json.dump(reports_to_document(reports), sys.stdout, indent=2)
        print()
    elif as_json:
        write_json(reports, as_json)
        print(f"wrote {len(reports)} reports to {as_json}")
    else:
        for r in reports:
            print(r.one_line())
        counts = summarize(reports)
        print(
            "summary: "
            + ", ".join(f"{k}={v}" for k, v in counts.items() if k != "total")
            + f", total={counts['total']}"
        )
    return 1 if any_failure(reports) else 0


def _cmd_pbn(args) -> int:
    if args.index is not None:
        sign, parts = parse_index(args.index)
        exps = tuple(-p for p in parts) if sign == "neg" else parts
        print(pbn.multi_poly_bernoulli(args.n, exps, args.kind))
        return 0
    if args.k is None:
        raise ValueError("pbn needs --k (or --index for multi-indices)")
    fn = pbn.poly_bernoulli_B if args.kind == "B" else pbn.poly_bernoulli_C
    print(fn(args.n, args.k))
    return 0


def _cmd_mzv(args) -> int:
    sign, parts = parse_index(args.index)
    if sign == "neg":
        raise ValueError("multiple zeta values take positive indices")
    res = mzsv(parts) if args.star else mzv(parts)
    _print_result(res, args.digits)
    return 0


def _cmd_tval(args) -> int:
    sign, parts = parse_index(args.index)
    if sign == "neg":
        raise ValueError("T values take positive indices")
    res = t0_value(parts) if args.t0 else t_value(parts)
    _print_result(res, args.digits)
    return 0


def _cmd_akzeta(args) -> int:
    sign, parts = parse_index(args.index)
    if sign == "neg":
        closed = (
            ak_zeta.eta_closed_nonpositive(parts)
            if args.which == "eta"
            else ak_zeta.xitilde_closed(parts)
        )
        if args.symbolic:
            print(closed)
        elif args.at is not None:
            print(closed.evaluate_exact(args.at))
        else:
            raise ValueError("negated index needs --symbolic or --at")
        return 0
    if args.symbolic:
        raise ValueError("--symbolic only applies to neg: indices")
    if args.at is None:
        raise ValueError("positive index needs --at")
    fn = ak_zeta.eta_at_positive if args.which == "eta" else ak_zeta.xi_at_positive
    _print_result(fn(parts, args.at), args.digits)
    return 0


def _cmd_level2_psi(args) -> int:
    _print_result(level2.psi_at_positive(args.r, args.k, args.at), args.digits)
    return 0


_LEVEL2_TARGETS = {
    "ht1": lambda args: level2.height_one_duality_check(max_rk=args.max, tolerance=args.tol),
    "psi": lambda args: level2.psi_formula_crosscheck(
        max_r=args.max, max_k=args.max, tolerance=args.tol
    ),
    "tbinom": lambda args: level2.t_binomial_identity_check(tolerance=args.tol),
    "integral": lambda args: level2.psi_depth1_integral_check(tolerance=args.tol),
    "oddzeta": lambda args: level2.odd_zeta_relation_check(tolerance=args.tol),
    "ath": lambda args: level2.ath_series_identities(),
}


def _cmd_level2_verify(args) -> int:
    if args.target == "all":
        reports = []
        for fn in _LEVEL2_TARGETS.values():
            reports.extend(fn(args))
    else:
        reports = _LEVEL2_TARGETS[args.target](args)
    return _print_reports(reports, args.json)


def _cmd_verify_all(args) -> int:
    reports = verify.verify_all(
        jobs=args.jobs,
        tolerance=args.tol,
        max_weight=args.max_weight,
        inject_perturbation=args.inject_perturbation,
    )
    return _print_reports(reports, args.json)


def _checked(parse_and_check):
    """An argparse type from a function that parses its text and applies
    a validator of index_algebra: a ValueError from either step is a
    usage error that carries its message."""

    def parse(text: str):
        try:
            return parse_and_check(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _int_at_least(low: int):
    """An argparse type for integers of at least `low`, so that a range
    that would run no check, or print no digit, is a usage error."""
    return _checked(lambda text: require_int(int(text), "value", low))


# A tolerance of inf would pass every row and nan or a negative one would
# fail every row, so require_tolerance refuses them.
_tolerance = _checked(lambda text: require_tolerance(float(text)))


def _json_target(text: str) -> str:
    """An argparse type for a report path: '-' for stdout, or a file in a
    directory that exists and can be written, so that a report that
    cannot be written is a usage error before the first check runs."""
    folder = os.path.dirname(os.path.abspath(text))
    writable = os.path.isdir(folder) and os.access(folder, os.W_OK) and not os.path.isdir(text)
    if text != "-" and not writable:
        raise argparse.ArgumentTypeError(f"cannot write a report to {text!r}")
    return text


def _add_digits(parser) -> None:
    parser.add_argument(
        "--digits",
        type=_int_at_least(1),
        default=30,
        help="significant digits to print, at most as many as the error bound certifies",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="akzkit",
        description="poly-Bernoulli numbers, multiple zeta values, and their interpolations",
    )
    parser.add_argument(
        "--prec-bits", type=int, default=_DEFAULT_PREC, help="working precision in bits (default %(default)s)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pbn", help="poly-Bernoulli numbers, both kinds")
    p.add_argument("--kind", choices=("B", "C"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--index", default=None, help="multi-index, e.g. 2,1 or neg:1,2")
    p.set_defaults(func=_cmd_pbn)

    p = sub.add_parser("mzv", help="multiple zeta (or zeta-star) values")
    p.add_argument("--index", required=True)
    p.add_argument("--star", action="store_true", help="coarsening-summed variant")
    _add_digits(p)
    p.set_defaults(func=_cmd_mzv)

    p = sub.add_parser("tval", help="parity-restricted multiple zeta values")
    p.add_argument("--index", required=True)
    p.add_argument("--t0", action="store_true", help="without the 2^depth factor")
    _add_digits(p)
    p.set_defaults(func=_cmd_tval)

    p = sub.add_parser("akzeta", help="the xi / eta interpolations")
    p.add_argument("which", choices=("xi", "eta"))
    p.add_argument("--index", required=True, help="e.g. 2,1 or neg:1")
    p.add_argument("--at", type=int, default=None, help="integer argument")
    p.add_argument(
        "--symbolic", action="store_true", help="print the closed Dirichlet form (neg: only)"
    )
    _add_digits(p)
    p.set_defaults(func=_cmd_akzeta)

    p = sub.add_parser("level2", help="parity-level analogues")
    level2_sub = p.add_subparsers(dest="level2_command", required=True)

    q = level2_sub.add_parser("psi", help="height-one psi values")
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--at", type=int, required=True)
    _add_digits(q)
    q.set_defaults(func=_cmd_level2_psi)

    q = level2_sub.add_parser("verify", help="run the level-two identity checks")
    q.add_argument("target", choices=tuple(_LEVEL2_TARGETS) + ("all",))
    q.add_argument(
        "--max", type=_int_at_least(1), default=4, help="range cap where the target takes one"
    )
    q.add_argument("--tol", type=_tolerance, default=DEFAULT_TOLERANCE)
    q.add_argument(
        "--json", type=_json_target, default=None, help="write reports as JSON ('-' for stdout)"
    )
    q.set_defaults(func=_cmd_level2_verify)

    p = sub.add_parser("verify-all", help="run every identity check in the package")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOLERANCE)
    p.add_argument(
        "--max-weight",
        type=_int_at_least(2),
        default=8,
        help="largest weight of the plain duality sweep (its first index has weight 2)",
    )
    p.add_argument("--jobs", type=int, default=1, help="accepted; tasks run serially")
    p.add_argument(
        "--json", type=_json_target, default=None, help="write reports as JSON ('-' for stdout)"
    )
    p.add_argument(
        "--inject-perturbation",
        action="store_true",
        help="deliberately nudge one value for this run, to prove the checks can fail",
    )
    p.set_defaults(func=_cmd_verify_all)

    return parser


def run_command(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        configure(args.prec_bits)
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
