"""Command-line interface: deterministic reports over algebra and group files.

Exit codes: 0 success (all requested checks pass), 1 parse/validation failure
(a malformed command line included) or failing checks, 2 completion bound
exceeded, 3 search size exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebra import is_algebra_map
from .endomorphisms import (
    DEFAULT_MAX_SEARCH,
    _require_search_size,
    automorphism_group,
    enumerate_endomorphisms,
    enumerate_homs,
)
from .errors import (
    CompletionBoundError,
    InputError,
    PresentationContradiction,
    SearchSizeError,
)
from .gradings import (
    Grading,
    classify,
    enumerate_gradings_oracle,
    enumerate_points,
    grading_from_point,
    point_from_grading,
)
from .io import (
    Report,
    cyclic_order,
    grading_json,
    grading_point_json,
    grading_point_text,
    grading_text,
    load_algebra,
    load_group,
    matrix_json,
    presentation_json,
    presentation_text,
)
from .linalg import format_matrix
from .universal import (
    DEFAULT_DEGREE_BOUND,
    build_presentation,
    check_bialgebra,
    check_comodule,
)

ENV_MAX_SEARCH = "USYM_MAX_SEARCH"


def _max_search() -> int:
    value = os.environ.get(ENV_MAX_SEARCH)
    if value is None:
        return DEFAULT_MAX_SEARCH
    try:
        bound = int(value)
    except ValueError as exc:
        raise InputError(f"{ENV_MAX_SEARCH} must be an integer, got {value!r}") from exc
    if bound < 0:
        raise InputError(f"{ENV_MAX_SEARCH} must not be negative, got {value!r}")
    return bound


def _require_degree(value: int) -> int:
    if value < 2:
        raise InputError(f"--max-degree must be at least 2, got {value}")
    return value


def _header(args, *metas) -> Report:
    """A report with its header: the command line echoed with each input file
    by name, then the options that are set in parser order, and one input
    line for the algebra and one for the group, if metas has one."""
    inputs = [(role, m.name, m.digest) for role, m in zip(("algebra", "group"), metas)]
    names = {role: name for role, name, _ in inputs}
    options = ""
    for flag, _ in args.options:
        dest = flag[2:].replace("-", "_")
        value = names.get(dest, getattr(args, dest))
        if value is not False:
            options += f" {flag}" if value is True else f" {flag} {value}"
    return Report(f"{args.command} {metas[0].name}{options} --format {args.format}", inputs)


def _describe(report: Report, algebra, checks: list, payload: dict, lines: list[str]) -> Report:
    """Fill in the checks, and the payload and the text lines, each led by
    the field and the dimension of the algebra."""
    field = algebra.field.spec_string()
    report.checks = checks
    report.payload = {"field": field, "dimension": algebra.n, **payload}
    report.text_lines = [f"field: {field}", f"dimension: {algebra.n}", *lines]
    return report


def _cmd_present(args) -> Report:
    algebra, meta = load_algebra(args.file)
    presentation = build_presentation(algebra, _require_degree(args.max_degree))
    report = _header(args, meta)
    report.payload = presentation_json(presentation) if args.format == "json" else {}
    report.text_lines = presentation_text(presentation) if args.format == "text" else []
    return report


def _cmd_check(args) -> Report:
    algebra, meta = load_algebra(args.file)
    presentation = build_presentation(algebra, _require_degree(args.max_degree))
    items = check_bialgebra(presentation).items + check_comodule(presentation).items
    checks = [(item.name, item.passed) for item in items]
    payload = {
        "max_degree": presentation.degree_bound,
        "generators": [list(g) for g in presentation.gens],
    }
    lines = [f"max-degree: {presentation.degree_bound}"]
    return _describe(_header(args, meta), algebra, checks, payload, lines)


def _endo_like(args) -> Report:
    algebra, meta = load_algebra(args.file)
    bound = _max_search()
    group_like = args.command == "aut"
    monoid = (automorphism_group if group_like else enumerate_endomorphisms)(algebra, bound)
    checks: list[tuple[str, bool]] = [
        ("closure", monoid.is_closed()),
        ("identity", monoid.has_identity()),
    ]
    if group_like:
        checks.append(("inverses", monoid.inverses_in_set()))
    if args.field_check:
        # automorphism_group has already required each inverse to be a point
        gamma_ok = all(is_algebra_map(algebra, algebra, m) for m in monoid.points)
        checks.append(("gamma-algebra-map", gamma_ok))
    if args.oracle:
        homs = enumerate_homs(algebra, algebra, bound)
        if group_like:
            homs = tuple(m for m in homs if m.is_invertible())
        checks.append(("oracle-match", homs == monoid.points))
    payload = {
        "count": len(monoid.points),
        "identity_index": monoid.identity_index,
        "points": [matrix_json(m) for m in monoid.points],
    }
    lines = [
        f"points ({len(monoid.points)}):",
        *[f"  {format_matrix(m)}" for m in monoid.points],
        f"identity-index: {monoid.identity_index}",
    ]
    return _describe(_header(args, meta), algebra, checks, payload, lines)


def _cmd_gradings(args) -> Report:
    algebra, meta = load_algebra(args.file)
    order = cyclic_order(args.group)
    bound = _max_search()
    if order is not None:
        # refuse a cyclic:m whose m x m table exceeds the bound before building it
        _require_search_size(order * order, bound, "cyclic group table")
    group, group_meta = load_group(args.group)
    # the searches in a fixed order, points, oracle gradings, Aut, so that each
    # flag set meets the same SearchSizeError first
    points = enumerate_points(algebra, group, bound)
    oracle = enumerate_gradings_oracle(algebra, group, bound) if args.oracle else ()
    induced = tuple(grading_from_point(algebra, group, p) for p in points)
    result = classify(algebra, points, induced, bound) if args.classify else None
    checks: list[tuple[str, bool]] = []
    payload = {
        "group_order": group.order,
        "count": len(points),
        "points": [grading_point_json(group, p) for p in points],
        "gradings": [grading_json(group, g) for g in induced],
    }
    lines = [
        f"group: {group_meta.name} order={group.order}",
        f"points ({len(points)}):",
        *[f"  point {k}: {grading_point_text(group, p)}" for k, p in enumerate(points)],
        f"gradings ({len(induced)}):",
        *[f"  grading {k}: {grading_text(group, g)}" for k, g in enumerate(induced)],
    ]
    if args.oracle:
        checks.append(("oracle-match", sorted(induced, key=Grading.sort_key) == list(oracle)))
        roundtrip = all(point_from_grading(algebra, group, g) == p for p, g in zip(points, induced))
        checks.append(("roundtrip", roundtrip))
        payload["oracle_count"] = len(oracle)
    if result is not None:
        checks.append(("orbit-count-agreement", result.counts_agree))
        checks.append(("orbit-correspondence", result.correspondence_ok))
        payload["classification"] = {
            "point_orbits": [list(o) for o in result.point_orbits],
            "class_count": result.class_count,
            "grading_class_count": len(result.grading_orbits),
        }
        lines.append("classification:")
        orbit_text = " ".join(
            "[" + ",".join(str(i) for i in orbit) + "]" for orbit in result.point_orbits
        )
        lines.append(f"  point-orbits ({result.class_count}): {orbit_text}")
        lines.append(f"  grading-classes: {len(result.grading_orbits)}")
    return _describe(_header(args, meta, group_meta), algebra, checks, payload, lines)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as other parse failures
    do; argparse's own exit code 2 means a completion bound here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_FLAG = {"action": "store_true"}
_MAX_DEGREE = ("--max-degree", {"type": int, "default": DEFAULT_DEGREE_BOUND})
_ENDO_OPTIONS = (("--field-check", _FLAG), ("--oracle", _FLAG))
_GRADINGS_OPTIONS = (
    ("--group", {"required": True, "help": "group file or cyclic:m"}),
    ("--classify", _FLAG),
    ("--oracle", _FLAG),
)

# (command, help, handler, options after the file and --format, in parser order)
_COMMANDS = (
    ("present", "presentation of the universal bialgebra", _cmd_present, (_MAX_DEGREE,)),
    ("check", "verify bialgebra and comodule axioms", _cmd_check, (_MAX_DEGREE,)),
    ("endo", "enumerate the endomorphism monoid", _endo_like, _ENDO_OPTIONS),
    ("aut", "enumerate the automorphism group", _endo_like, _ENDO_OPTIONS),
    ("gradings", "enumerate and classify group gradings", _cmd_gradings, _GRADINGS_OPTIONS),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="usym",
        description="Exact universal-bialgebra computations for finite-dimensional algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text, run, options in _COMMANDS:
        p = sub.add_parser(command, help=help_text)
        p.add_argument("file", help="algebra file (JSON)")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
        for flag, spec in options:
            p.add_argument(flag, **spec)
        p.set_defaults(run=run, options=options)
    return parser


# built by the first main call and reused by the later ones in the process:
# parse_args leaves a parser as it found it
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        report = args.run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PresentationContradiction as exc:
        print(f"error: inconsistent presentation: {exc}", file=sys.stderr)
        return 1
    except CompletionBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SearchSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(report.render(args.format))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
