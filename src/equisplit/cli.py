"""Command-line surface.

Every command prints exactly one JSON document to stdout (sorted keys, exact
integers only) and human-readable notes to stderr.  Exit codes: 0 success,
1 check failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .bundle import LineSummand, TorusAction, degree, random_instance, validate
from .cohomology import cech_cohomology, h0_character
from .jsonio import (
    ParseError,
    certificate_from_json,
    certificate_to_json,
    dumps_canonical,
    instance_from_json,
    instance_to_json,
    load_json_file,
    summands_to_json,
)
from .selftest import run_all
from .splitting import InvariantViolation, equivariant_split, verify_certificate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _emit(doc) -> None:
    sys.stdout.write(dumps_canonical(doc))


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _load_instance(path: str):
    doc = load_json_file(path)
    return instance_from_json(doc)


def cmd_validate(args) -> int:
    E, _ = _load_instance(args.file)
    report = validate(E)
    _emit({"valid": report.ok, "violations": report.violations})
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_cohomology(args) -> int:
    E, _ = _load_instance(args.file)
    report = validate(E)
    if not report.ok:
        _emit({"error": {"message": "invalid instance", "violations": report.violations}})
        return EXIT_CHECK_FAILED
    h0 = h0_character(E)
    cech_h0, h1 = cech_cohomology(E)
    if cech_h0 != h0.total():
        raise InvariantViolation(
            f"H^0 dimension {h0.total()} from the inverse route != {cech_h0} from the Cech complex"
        )
    _emit(
        {
            "rank": E.rank,
            "degree": degree(E),
            "h0_dim": h0.total(),
            "h1_dim": h1.total(),
            "h0_character": h0.to_json(),
            "h1_character": h1.to_json(),
        }
    )
    return EXIT_OK


def cmd_split(args) -> int:
    E, expected = _load_instance(args.file)
    report = validate(E)
    if not report.ok:
        _emit({"error": {"message": "invalid instance", "violations": report.violations}})
        return EXIT_CHECK_FAILED
    summands, cert = equivariant_split(E)
    if args.certificate:
        with open(args.certificate, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(certificate_to_json(cert)))
        _log(f"certificate written to {args.certificate}")
    _emit({"summands": summands_to_json(summands)})
    if expected is not None:
        if summands != sorted(expected, key=LineSummand.sort_key):
            _log("warning: split disagrees with the file's expected block")
            return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_verify(args) -> int:
    E, _ = _load_instance(args.file)
    cert = certificate_from_json(load_json_file(args.cert), E.torus.rank)
    report = verify_certificate(E, cert)
    _emit(report.to_json())
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _parse_summands(text: str, r: int) -> list[LineSummand]:
    out = []
    for k, part in enumerate(text.split(",")):
        fields = part.strip().split(":")
        try:
            n = int(fields[0])
            lam = tuple(int(x) for x in fields[1:])
        except ValueError as exc:
            raise ParseError(f"--summands[{k}]", f"bad summand {part!r}: {exc}") from exc
        if len(lam) != r:
            raise ParseError(
                f"--summands[{k}]", f"summand {part!r} needs {r} weight component(s)"
            )
        out.append(LineSummand(n, lam))
    return out


def _parse_torus(text: str) -> tuple[int, ...]:
    """The base character a; the empty text means no torus."""
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ParseError("--torus", f"bad base character {text!r}: {exc}") from exc


def cmd_random(args) -> int:
    a = _parse_torus(args.torus)
    torus = TorusAction(len(a), a)
    summands = _parse_summands(args.summands, torus.rank)
    if args.ops < 0:
        raise ParseError("--ops", f"op count must be non-negative, got {args.ops}")
    E, hidden = random_instance(args.seed, summands, args.ops, torus)
    _emit(instance_to_json(E, expected=hidden))
    return EXIT_OK


def cmd_selftest(args) -> int:
    counts = {}
    if args.fast:
        counts = {1: 40, 2: 20, 3: 80, 4: 40, 5: 25, 6: 10, 9: 10}
    results = run_all(counts)
    for r in results:
        _log(r.line())
    _emit({"all_pass": all(r.passed for r in results), "criteria": [r.to_json() for r in results]})
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors raised as ParseError, so they print JSON.

    Subparsers inherit the class; usage text still goes to stderr.
    """

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ParseError(self.prog, message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.

    Parsing keeps no state between calls, so in-process callers that run
    ``main`` many times pay for the subparsers once.
    """
    parser = _Parser(
        prog="equisplit",
        description="Exact equivariant splitting of vector bundles on the projective line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file against the bundle invariants")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("cohomology", help="H^0/H^1 dimensions and characters")
    p.add_argument("file")
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("split", help="equivariant splitting with optional certificate output")
    p.add_argument("file")
    p.add_argument("--certificate", metavar="OUT.json", help="write the frame certificate here")
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("verify", help="check a splitting certificate against an instance")
    p.add_argument("file")
    p.add_argument("cert")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("random", help="generate a seeded instance with hidden answer")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--summands",
        required=True,
        help='comma-separated "n:w1:w2:..." with one w per torus dimension, e.g. "1:0,1:-1"',
    )
    p.add_argument("--ops", type=int, default=6, help="number of elementary operations")
    p.add_argument("--torus", default="", help='base character, e.g. "1" or "1,0"')
    p.set_defaults(fn=cmd_random)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--fast", action="store_true", help="reduced instance counts")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ParseError as exc:
        _emit({"error": {"pointer": exc.pointer, "message": exc.message}})
        return EXIT_USAGE
    except OSError as exc:  # missing, unreadable or directory paths
        _emit({"error": {"message": str(exc)}})
        return EXIT_USAGE
    except InvariantViolation as exc:
        _emit({"error": {"message": "internal invariant failed", "invariant": str(exc)}})
        return EXIT_CHECK_FAILED
    except MemoryError:  # the work an input needs can exceed the process's memory limit
        _emit({"error": {"message": "out of memory"}})
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
