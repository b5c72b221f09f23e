"""Input file formats, canonical serialization, and deterministic reports.

Scalars travel as strings ("3/2", "4") in every file and report, so the
formats are exact and portable.  Reports carry no timestamps or absolute
paths; identical inputs give byte-identical output.  `_write_json` writes a
JSON report as json.dumps(doc, indent=2, sort_keys=True) does (tests pin it),
plus a newline: 2-space indent, sorted keys, ASCII escapes, str/int/bool/null.
Every object key is a str; an object keyed by group elements takes each
label's key text (`_label_key`), and sorts by that text.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii as _quote
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .algebra import FinAlgebra, validate_algebra
from .errors import InputError
from .fields import Scalar, field_from_spec
from .gradings import Grading, GradingPoint
from .groups import FiniteGroup, cyclic_group, validate_group
from .linalg import Matrix, Subspace, format_matrix, format_subspace
from .ncpoly import (
    NCPoly,
    TensorPoly,
    Word,
    format_genid,
    format_poly,
    format_tensor,
    format_word,
)
from .universal import Presentation


def digest_bytes(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


@dataclass
class LoadedInput:
    name: str
    digest: str


def _is_int(x) -> bool:
    """A JSON integer; true and false are not integers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_label(x) -> bool:
    """Hashable, so usable as a group element label (JSON lists are not)."""
    try:
        hash(x)
    except TypeError:
        return False
    return True


def _label_key(label) -> str:
    """The JSON object key text of a group element label."""
    return label if isinstance(label, str) else json.dumps(label)


def _read_json(path: Path) -> tuple[object, LoadedInput]:
    """The decoded contents of a JSON file, with its name and digest."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        # ValueError: bad UTF-8, bad JSON, or an integer longer than Python converts;
        # RecursionError: arrays or objects nested deeper than the decoder recurses
        return json.loads(raw.decode("utf-8")), LoadedInput(path.name, digest_bytes(raw))
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path.name}: not valid JSON: {exc}") from exc


def load_algebra(path: str | Path) -> tuple[FinAlgebra, LoadedInput]:
    data, meta = _read_json(Path(path))
    return algebra_from_dict(data, meta.name), meta


def algebra_from_dict(data, source: str = "<algebra>") -> FinAlgebra:
    if not isinstance(data, dict):
        raise InputError(f"{source}: expected a JSON object")
    for key in ("field", "dimension", "basis", "unit_index", "tau"):
        if key not in data:
            raise InputError(f"{source}: missing key {key!r}")
    try:
        fld = field_from_spec(str(data["field"]))
    except ValueError as exc:
        raise InputError(f"{source}: {exc}") from exc
    n = data["dimension"]
    if not _is_int(n) or n < 1:
        raise InputError(f"{source}: dimension must be a positive integer")
    if not _is_int(data["unit_index"]) or data["unit_index"] != 1:
        raise InputError(f"{source}: unit_index must be 1 (basis is not re-based)")
    labels = data["basis"]
    if (
        not isinstance(labels, list)
        or len(labels) != n
        or not all(isinstance(s, str) for s in labels)
    ):
        raise InputError(f"{source}: basis must list {n} label strings")
    tau: dict[tuple[int, int, int], Scalar] = {}
    if not isinstance(data["tau"], list):
        raise InputError(f"{source}: tau must be a list of [i, j, s, value] entries")
    for entry in data["tau"]:
        if not (isinstance(entry, list) and len(entry) == 4):
            raise InputError(f"{source}: bad tau entry {entry!r}")
        i, j, s, value = entry
        for idx in (i, j, s):
            if not _is_int(idx) or not (1 <= idx <= n):
                raise InputError(f"{source}: tau index out of range in {entry!r}")
        key = (i - 1, j - 1, s - 1)
        if key in tau:
            raise InputError(f"{source}: duplicate tau entry for {entry[:3]}")
        try:
            tau[key] = fld.parse(str(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{source}: bad scalar {value!r}: {exc}") from exc
    algebra = FinAlgebra(fld, n, tau, tuple(labels))
    violation = validate_algebra(algebra)
    if violation is not None:
        raise InputError(
            f"{source}: not a valid algebra: {violation.kind} axiom fails at "
            f"{violation.where} ({violation.detail})"
        )
    return algebra


def cyclic_order(spec: str) -> int | None:
    """m for the shorthand 'cyclic:m', None for any other group spec."""
    if not spec.startswith("cyclic:"):
        return None
    body = spec.split(":", 1)[1]
    try:
        m = int(body) if body.isdigit() else 0
    except ValueError:  # more digits than Python converts, or a digit int() refuses
        m = 0
    if m < 1:
        raise InputError(f"bad cyclic group spec {spec!r}")
    return m


def load_group(spec: str) -> tuple[FiniteGroup, LoadedInput]:
    """A group file path, or the shorthand 'cyclic:m'."""
    m = cyclic_order(spec)
    if m is not None:
        return cyclic_group(m), LoadedInput(spec, digest_bytes(spec.encode("utf-8")))
    data, meta = _read_json(Path(spec))
    return group_from_dict(data, meta.name), meta


def group_from_dict(data, source: str = "<group>") -> FiniteGroup:
    if not isinstance(data, dict):
        raise InputError(f"{source}: expected a JSON object")
    for key in ("elements", "identity", "table"):
        if key not in data:
            raise InputError(f"{source}: missing key {key!r}")
    labels = data["elements"]
    if (
        not isinstance(labels, list)
        or not labels
        or not all(map(_is_label, labels))
        or not len(labels) == len(set(labels)) == len(set(map(_label_key, labels)))
    ):
        raise InputError(f"{source}: elements must be a list of distinct labels")
    # keyed by type too: JSON true and 1.0 hash and compare equal to 1
    index = {(type(lab), lab): k for k, lab in enumerate(labels)}
    identity = data["identity"]
    if not _is_label(identity) or (type(identity), identity) not in index:
        raise InputError(f"{source}: identity label not among elements")
    table_rows = data["table"]
    m = len(labels)
    if not isinstance(table_rows, list) or len(table_rows) != m:
        raise InputError(f"{source}: table must have {m} rows")
    table = []
    for r, row in enumerate(table_rows):
        if not isinstance(row, list) or len(row) != m:
            raise InputError(f"{source}: table row {r + 1} must have {m} entries")
        unknown = [lab for lab in row if not _is_label(lab) or (type(lab), lab) not in index]
        if unknown:
            raise InputError(f"{source}: unknown label {unknown[0]!r} in table row {r + 1}")
        table.append([index[type(lab), lab] for lab in row])
    group = FiniteGroup(labels, table)
    violation = validate_group(group)
    if violation is not None:
        raise InputError(
            f"{source}: not a group: {violation.kind} fails at {violation.where} "
            f"({violation.detail})"
        )
    if group.identity != index[type(identity), identity]:
        raise InputError(f"{source}: declared identity does not match the table")
    return group


# ---------------------------------------------------------------------------
# JSON payload builders


def word_json(w: Word) -> list[list[int]]:
    return [[s, i] for (s, i) in w]


def poly_json(p: NCPoly) -> list[dict]:
    return [{"coeff": str(c), "word": word_json(w)} for w, c in p.sorted_terms()]


def tensor_json(t: TensorPoly) -> list[dict]:
    return [
        {"coeff": str(c), "left": word_json(l), "right": word_json(r)}
        for (l, r), c in t.sorted_terms()
    ]


def matrix_json(m: Matrix) -> list[list[str]]:
    # the text of an int residue is that of its FpElement
    return [[str(x) for x in row] for row in m.residues]


def subspace_json(s: Subspace) -> list[list[str]]:
    return [[str(x) for x in row] for row in s.residues]


def presentation_json(p: Presentation) -> dict:
    # each view builds its field scalars when read, so it is read once
    delta, eps = p.delta, p.eps
    return {
        "field": p.algebra.field.spec_string(),
        "dimension": p.algebra.n,
        "max_degree": p.degree_bound,
        "generators": [list(g) for g in p.gens],
        "eliminated": [
            {"generator": list(g), "value": poly_json(q)}
            for g, q in p.system.subs.items()
        ],
        "rules": [
            {"lead": word_json(r.lead), "rest": poly_json(r.rest)}
            for r in p.system.rules
        ],
        "delta": [{"generator": list(g), "value": tensor_json(delta[g])} for g in p.gens],
        "eps": [{"generator": list(g), "value": str(eps[g])} for g in p.gens],
        "coaction": [
            {
                "basis_index": i + 1,
                "value": [
                    {"basis_index": s + 1, "poly": poly_json(q)} for s, q in entries
                ],
            }
            for i, entries in enumerate(p.coaction)
        ],
    }


def grading_point_json(g: FiniteGroup, point: GradingPoint) -> dict:
    return dict(zip(map(_label_key, g.labels), map(matrix_json, point.matrices)))


def grading_json(g: FiniteGroup, grading: Grading) -> dict:
    keys = [_label_key(label) for label in g.labels]
    return {keys[sigma]: subspace_json(comp) for sigma, comp in grading.components.items()}


# ---------------------------------------------------------------------------
# Presentation text rendering


def presentation_text(p: Presentation) -> list[str]:
    # each view builds its field scalars when read, so it is read once
    subs, rules, delta, eps = p.system.subs, p.system.rules, p.delta, p.eps
    lines = [
        f"field: {p.algebra.field.spec_string()}",
        f"dimension: {p.algebra.n}",
        f"max-degree: {p.degree_bound}",
        f"generators ({len(p.gens)}):"
        + (" " + " ".join(format_genid(g) for g in p.gens) if p.gens else " none"),
        f"eliminated ({len(subs)}):",
    ]
    for g, q in subs.items():
        lines.append(f"  {format_genid(g)} -> {format_poly(q)}")
    lines.append(f"rules ({len(rules)}):")
    for r in rules:
        lines.append(f"  {format_word(r.lead)} -> {format_poly(r.rest)}")
    lines.append("delta:")
    for g in p.gens:
        lines.append(f"  {format_genid(g)} -> {format_tensor(delta[g])}")
    lines.append("eps:")
    for g in p.gens:
        lines.append(f"  {format_genid(g)} -> {eps[g]}")
    lines.append("coaction:")
    for i, entries in enumerate(p.coaction):
        parts = " + ".join(f"e[{s + 1}] (x) ({format_poly(q)})" for s, q in entries)
        lines.append(f"  e[{i + 1}] -> {parts}")
    return lines


def grading_point_text(g: FiniteGroup, point: GradingPoint) -> str:
    return " ; ".join(
        f"{g.labels[sigma]} -> {format_matrix(mat)}"
        for sigma, mat in enumerate(point.matrices)
    )


def grading_text(g: FiniteGroup, grading: Grading) -> str:
    return " ; ".join(
        f"{g.labels[sigma]} -> {format_subspace(comp)}"
        for sigma, comp in grading.components.items()
    )


# ---------------------------------------------------------------------------
# Reports


def _write_json(x, newline: str, out: list[str]) -> list[str]:
    """out, with x appended as json.dumps(x, indent=2, sort_keys=True) writes it."""
    if isinstance(x, str):
        out.append(_quote(x))
    elif isinstance(x, int) or x is None:
        out.append(int.__repr__(x) if type(x) is int else _label_key(x))
    elif not isinstance(x, (list, tuple, dict)):
        raise TypeError(f"{type(x).__name__} is not a report value")
    else:
        is_dict, inner = isinstance(x, dict), newline + "  "
        for k, item in enumerate(sorted(x.items()) if is_dict else x):
            out.append(("," if k else "[{"[is_dict]) + inner)
            if is_dict:
                key, item = item
                if not isinstance(key, str):
                    raise TypeError(f"{type(key).__name__} is not a report key")
                out.append(_quote(key) + ": ")
            _write_json(item, inner, out)
        out.append((newline if x else "[{"[is_dict]) + "]}"[is_dict])
    return out


@dataclass
class Report:
    command: str
    inputs: list[tuple[str, str, str]]  # (role, name, digest)
    checks: list[tuple[str, bool]] = dc_field(default_factory=list)
    payload: dict = dc_field(default_factory=dict)
    text_lines: list[str] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for role, name, digest in self.inputs:
            lines.append(f"input: {role} {name} {digest}")
        lines.append(f"status: {'ok' if self.ok else 'fail'}")
        lines.extend(self.text_lines)
        if self.checks:
            lines.append(f"checks ({len(self.checks)}):")
            for name, passed in self.checks:
                lines.append(f"  {name}: {'pass' if passed else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "inputs": {
                role: {"name": name, "digest": digest}
                for role, name, digest in self.inputs
            },
            "status": "ok" if self.ok else "fail",
            "checks": {name: passed for name, passed in self.checks},
            "result": self.payload,
        }
        return "".join(_write_json(doc, "\n", [])) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        return self.to_text()
