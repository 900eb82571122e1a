"""Command-line frontend.

Every subcommand maps onto one library operation and emits JSON with a
stable key order (or aligned text with ``--format text``).  Exit codes:
0 success / check passed, 1 check failed, 2 malformed input or usage,
3 resource guard tripped, 4 internal error (any other exception, with its
traceback on stderr), so that 1 only ever means a check failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .jsonio import FormatError, format_partition, parse_partition
from .words import (
    ResourceLimitError,
    lie_dim,
    lyndon_words,
    num_standard,
    partitions,
    schur_dim,
    w_module_dim,
    word_to_string,
)

# Each handler imports the library modules it uses once its input has been
# read, so a process loads only what its subcommand needs, and malformed
# input exits before any of the algebra is loaded.

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

# Python 3.10.7+ refuses to convert an int of more than a set number of
# digits (4300 by default) to or from a decimal string, as the conversion is
# quadratic.  Input is parsed under that limit.  An answer computed from it
# may exceed the limit, so _read lifts it once the input is read (handlers
# format their payload before _emit prints it), and main restores it.  The
# commands that read no file print numbers far below the limit.
_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")


def _emit(payload, fmt: str, text_renderer=None) -> None:
    if fmt == "json" or text_renderer is None:
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        text_renderer(payload)


def _read(path: str, what: str, parse):
    """The input file at ``path``, decoded by ``parse`` under the digit limit."""
    try:
        with open(path) as file:
            obj = json.load(file)
    except OSError as exc:  # missing, a directory, unreadable
        raise FormatError(what, f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # bad JSON, or an integer literal over the digit limit
        raise FormatError(what, f"invalid JSON in {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise FormatError(what, f"expected a JSON object, got {type(obj).__name__}")
    value = parse(obj, what)
    if _DIGIT_LIMIT:
        sys.set_int_max_str_digits(0)
    return value


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_dims(args) -> int:
    d, k = args.d, args.k
    payload = {
        "d": d,
        "k": k,
        "lie_dims": {str(i): lie_dim(d, i) for i in range(1, k + 1)},
        "w_dims": {format_partition(lam): w_module_dim(lam, d) for lam in partitions(k)},
        "schur_dims": {format_partition(mu): schur_dim(mu, d) for mu in partitions(k)},
        "multiplicities": {
            format_partition(mu): num_standard(mu) for mu in partitions(k)
        },
    }

    def text(p):
        print(f"graded Lie dimensions for d={d}:")
        for i, v in p["lie_dims"].items():
            print(f"  degree {i}: {v}")
        print(f"graded module dimensions at k={k}:")
        for lam, v in p["w_dims"].items():
            print(f"  ({lam}): {v}")
        print("Schur dims / multiplicities:")
        for mu in p["schur_dims"]:
            print(f"  ({mu}): {p['schur_dims'][mu]} x {p['multiplicities'][mu]}")

    _emit(payload, args.format, text)
    return EXIT_OK


def cmd_lyndon(args) -> int:
    # k < 1 takes the one-length route, where lyndon_words refuses it
    lengths = range(1, args.k + 1) if args.upto and args.k >= 1 else [args.k]
    words = [word_to_string(w) for k in lengths for w in lyndon_words(args.d, k)]
    _emit({"d": args.d, "k": args.k, "words": words}, args.format,
          lambda p: print(" ".join(p["words"])))
    return EXIT_OK


def cmd_idempotent(args) -> int:
    lam = parse_partition(args.partition, "partition")
    if sum(lam) != args.k:
        raise FormatError("partition", f"{lam} is not a partition of k={args.k}")
    from .group_algebra import higher_lie_idempotent, intersection_projector

    if args.intersect_mu:
        mu = parse_partition(args.intersect_mu, "intersect-mu")
        element = intersection_projector(lam, mu)
    else:
        element = higher_lie_idempotent(lam)
    payload = jsonio.group_element_to_json(element)

    def text(p):
        for term in p["terms"]:
            cyc = "".join("(" + "".join(map(str, c)) + ")" for c in term["cycles"]) or "id"
            print(f"  {term['coeff']:>8}  {cyc}")

    _emit(payload, args.format, text)
    return EXIT_OK


def cmd_thrall_coeffs(args) -> int:
    if args.partition:
        lam = parse_partition(args.partition, "partition")
        if sum(lam) != args.k:
            raise FormatError("partition", f"{lam} is not a partition of k={args.k}")
        lams = [lam]
    else:
        lams = list(partitions(args.k))
    from .symfun import thrall_coefficients

    table = {
        format_partition(lam): {
            format_partition(mu): a for mu, a in sorted(thrall_coefficients(lam).items(), reverse=True)
        }
        for lam in lams
    }

    def text(p):
        for lam, row in p.items():
            cells = ", ".join(f"({mu}): {a}" for mu, a in row.items())
            print(f"({lam}) -> {cells}")

    _emit(table, args.format, text)
    return EXIT_OK


def cmd_decompose(args) -> int:
    tensor = _read(args.tensor, "tensor", jsonio.tensor_from_json)
    from .free_lie import thrall_decompose

    components = thrall_decompose(tensor, method=args.method)
    payload = {
        format_partition(lam): jsonio.tensor_to_json(component)
        for lam, component in components.items()
    }
    _emit(payload, args.format)
    return EXIT_OK


def cmd_invariants(args) -> int:
    from .invariants import path_invariants

    table = path_invariants(args.d, args.ell)
    payload = {
        format_partition(lam): [
            jsonio.functional_to_json(beta, grading=lam) for beta in basis
        ]
        for lam, basis in table.items()
    }

    def text(p):
        for lam, basis in p.items():
            if not basis:
                continue
            print(f"({lam}):")
            for b in basis:
                terms = " + ".join(f"{c}*T_{w}" for w, c in b["terms"].items())
                print(f"  {terms}")

    _emit(payload, args.format, text)
    return EXIT_OK


def cmd_ambient_invariants(args) -> int:
    from .invariants import sl_invariant_space

    basis = sl_invariant_space(args.d, args.k)
    payload = [jsonio.functional_to_json(beta) for beta in basis]
    _emit(payload, args.format)
    return EXIT_OK


def cmd_signature(args) -> int:
    path = _read(args.path, "path", jsonio.path_from_json)
    from .shuffle_sig import log_signature, signature

    series = (
        log_signature(path, args.level) if args.log else signature(path, args.level)
    )
    _emit(jsonio.series_to_json(series), args.format)
    return EXIT_OK


def cmd_check(args) -> int:
    what = args.what
    if what == "group-like":
        series = _read(args.input, "series", jsonio.series_from_json)
        from .shuffle_sig import is_group_like

        passed = is_group_like(series)
        payload = {"check": what, "passed": passed}
    elif what == "symmetric":
        tensor = _read(args.input, "tensor", jsonio.tensor_from_json)
        from .tensors import is_symmetric

        passed = is_symmetric(tensor)
        payload = {"check": what, "passed": passed}
    elif what == "rank1":
        tensor = _read(args.input, "tensor", jsonio.tensor_from_json)
        from .rank_variety import is_rank_one
        from .tensors import is_symmetric

        result = is_rank_one(tensor)
        passed = bool(result)
        payload = {"check": what, "passed": passed}
        if result.factors is not None:
            payload["witness"] = [
                [jsonio.format_fraction(x) for x in factor] for factor in result.factors
            ]
        payload["symmetric"] = is_symmetric(tensor)
    elif what == "lie":
        tensor = _read(args.input, "tensor", jsonio.tensor_from_json)
        from .free_lie import is_lie_element

        passed = is_lie_element(tensor)
        payload = {"check": what, "passed": passed}
    elif what == "fls":
        path = _read(args.input, "path", jsonio.path_from_json)
        from .rank_variety import fls_check

        report = fls_check(path, args.level)
        passed = report.is_segment
        payload = {"check": what, "passed": passed, **report.as_dict()}
    else:  # unreachable through argparse choices
        raise FormatError("check", f"unknown check {what!r}")
    _emit(payload, args.format)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_hdet_pullback(args) -> int:
    from .rank_variety import hdet_pullback_check

    report = hdet_pullback_check(seed=args.seed, samples=args.samples)
    _emit(report.as_dict(), args.format)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_paper_suite(args) -> int:
    from .reference_suite import run_reference_checks

    results = run_reference_checks()
    payload = {
        "passed": all(r.passed for r in results),
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
    }

    def text(p):
        width = max(len(c["name"]) for c in p["checks"])
        for c in p["checks"]:
            marker = "PASS" if c["passed"] else "FAIL"
            print(f"{c['name']:<{width}}  {marker}  {c['detail']}")
        print("overall:", "PASS" if p["passed"] else "FAIL")

    _emit(payload, args.format, text)
    return EXIT_OK if payload["passed"] else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser


def _int_option(text: str) -> int:
    """``int`` on ASCII text (:data:`~thrallkit.jsonio.ASCII_ONLY`), with
    argparse's own message for a value it refuses."""
    if text.isascii():
        try:
            return int(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thrallkit",
        description="Exact computations with signature tensors, graded "
        "decompositions, projectors, invariants and rank diagnostics.",
    )
    parser.add_argument("--format", choices=["json", "text"], default="json")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("dims", help="dimension tables")
    p.add_argument("--d", type=_int_option, required=True)
    p.add_argument("--k", type=_int_option, required=True)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("lyndon", help="Lyndon words")
    p.add_argument("--d", type=_int_option, required=True)
    p.add_argument("--k", type=_int_option, required=True)
    p.add_argument("--upto", action="store_true", help="all lengths 1..k")
    p.set_defaults(func=cmd_lyndon)

    p = sub.add_parser("idempotent", help="graded projector in the group algebra")
    p.add_argument("--k", type=_int_option, required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--intersect-mu", default=None)
    p.set_defaults(func=cmd_idempotent)

    p = sub.add_parser("thrall-coeffs", help="graded multiplicity tables")
    p.add_argument("--k", type=_int_option, required=True)
    p.add_argument("--partition", default=None)
    p.set_defaults(func=cmd_thrall_coeffs)

    p = sub.add_parser("decompose", help="graded components of a tensor")
    p.add_argument("--tensor", required=True, help="tensor JSON file")
    p.add_argument("--method", choices=["auto", "idempotent", "solve"], default="auto")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("invariants", help="graded invariant functionals")
    p.add_argument("--d", type=_int_option, required=True)
    p.add_argument("--ell", type=_int_option, required=True)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("invariant-space", help="ambient invariant functionals")
    p.add_argument("--d", type=_int_option, required=True)
    p.add_argument("--k", type=_int_option, required=True)
    p.set_defaults(func=cmd_ambient_invariants)

    p = sub.add_parser("signature", help="signature of a piecewise-linear path")
    p.add_argument("--path", required=True, help="path JSON file")
    p.add_argument("--level", type=_int_option, required=True)
    p.add_argument("--log", action="store_true")
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("check", help="boolean checks with exit code 0/1")
    p.add_argument("what", choices=["group-like", "symmetric", "rank1", "fls", "lie"])
    p.add_argument("--input", required=True)
    p.add_argument("--level", type=_int_option, default=4)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("hdet-pullback", help="sampled pullback factorization check")
    p.add_argument("--seed", type=_int_option, required=True)
    p.add_argument("--samples", type=_int_option, default=20)
    p.set_defaults(func=cmd_hdet_pullback)

    p = sub.add_parser("paper-suite", help="run all reference-value regressions")
    p.set_defaults(func=cmd_paper_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    limit = sys.get_int_max_str_digits() if _DIGIT_LIMIT else None
    try:
        if getattr(args, "d", None) is not None:
            jsonio.check_wire_dimension(args.d, "d")
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL
    finally:
        if _DIGIT_LIMIT:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
