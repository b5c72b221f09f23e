"""Input generators for the benchmark.

Each generator returns an algebra document in the package's input format
(``name``, ``field``, ``dimension``, ``basis``, ``unit_index``, ``tau``) with
the unit as basis element 1.  ``relabel`` permutes the other basis elements
and ``rescale`` multiplies each by a nonzero scalar.  Every answer the
benchmark checks (|End|, |Aut|, surviving generators, grading and class
counts) is unchanged by either.  A permutation can change the cost of a job
many times over; a rescaling keeps the search tree and the leading words, so
the seed draws only rescalings.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

# Nonzero rationals a rescaled basis element of an algebra over QQ may take.
QQ_SCALES = tuple(Fraction(a, b) for a in (1, -1, 2, -2, 3) for b in (1, 2))


def _doc(name: str, field: str, labels: list[str], tau: dict) -> dict:
    p = None if field == "QQ" else int(field[3:-1])
    entries = []
    for (i, j, s), c in sorted(tau.items()):
        if p is not None:
            c %= p
        if c:
            entries.append([i + 1, j + 1, s + 1, str(c)])
    return {
        "name": name,
        "field": field,
        "dimension": len(labels),
        "basis": labels,
        "unit_index": 1,
        "tau": entries,
    }


def truncated_polynomial(n: int, field: str) -> dict:
    """k[x]/(x^n) on the basis 1, x, ..., x^(n-1)."""
    labels = ["1"] + ["x" if k == 1 else f"x^{k}" for k in range(1, n)]
    tau = {(i, j, i + j): 1 for i in range(n) for j in range(n) if i + j < n}
    return _doc(f"poly{n}", field, labels, tau)


def cyclic_group_algebra(m: int, field: str) -> dict:
    """k[C_m] on the basis 1, g, ..., g^(m-1)."""
    labels = ["1"] + ["g" if k == 1 else f"g^{k}" for k in range(1, m)]
    tau = {(i, j, (i + j) % m): 1 for i in range(m) for j in range(m)}
    return _doc(f"cyclic{m}", field, labels, tau)


def matrix_algebra(n: int, field: str, upper: bool = False) -> dict:
    """M_n(k), or the upper-triangular T_n(k) when ``upper``, on the basis
    1, then the matrix units E_ij of the algebra except E_nn = 1 - sum E_ii."""
    units = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if (i <= j or not upper) and (i, j) != (n - 1, n - 1)
    ]
    index = {u: k + 1 for k, u in enumerate(units)}

    def unit_coords(i: int, j: int) -> dict[int, int]:
        if (i, j) != (n - 1, n - 1):
            return {index[(i, j)]: 1}
        coords = {0: 1}
        for d in range(n - 1):
            coords[index[(d, d)]] = -1
        return coords

    size = len(units) + 1
    tau: dict[tuple[int, int, int], int] = {}
    for a in range(size):
        for b in range(size):
            if a == 0 or b == 0:
                tau[(a, b, a + b)] = 1
                continue
            (i, j), (k, l) = units[a - 1], units[b - 1]
            if j == k:
                for s, c in unit_coords(i, l).items():
                    tau[(a, b, s)] = c
    labels = ["1"] + [f"E{i + 1}{j + 1}" for i, j in units]
    return _doc(f"{'T' if upper else 'M'}{n}", field, labels, tau)


def relabel(doc: dict, perm: list[int]) -> dict:
    """The same algebra with basis element k renamed perm[k]."""
    labels = [""] * doc["dimension"]
    for k, lab in enumerate(doc["basis"]):
        labels[perm[k]] = lab
    tau = sorted(
        [perm[i - 1] + 1, perm[j - 1] + 1, perm[s - 1] + 1, c]
        for i, j, s, c in doc["tau"]
    )
    return dict(doc, basis=labels, tau=tau)


def draw_rescaling(rng: random.Random, doc: dict) -> list[Fraction]:
    """Nonzero factors c_k, with c_0 = 1, for the basis change e_k -> c_k e_k."""
    field = doc["field"]
    if field == "QQ":
        choices = QQ_SCALES
    else:
        choices = tuple(Fraction(c) for c in range(1, int(field[3:-1])))
    return [Fraction(1)] + [rng.choice(choices) for _ in range(doc["dimension"] - 1)]


def rescale(doc: dict, scales: list[Fraction]) -> dict:
    """The same algebra on the basis c_k e_k: tau[i,j,s] becomes
    c_i c_j tau[i,j,s] / c_s, so no structure constant changes from zero to
    nonzero or back."""
    p = None if doc["field"] == "QQ" else int(doc["field"][3:-1])
    tau = []
    for i, j, s, c in doc["tau"]:
        value = Fraction(c) * scales[i - 1] * scales[j - 1] / scales[s - 1]
        if p is None:
            text = str(value)
        else:
            text = str(value.numerator * pow(value.denominator, -1, p) % p)
        tau.append([i, j, s, text])
    return dict(doc, tau=tau)


def check_algebra(usym, doc: dict) -> None:
    """Raise unless the document is a valid unital associative algebra."""
    fld = usym.field_from_spec(doc["field"])
    tau = {(i - 1, j - 1, s - 1): fld.parse(c) for i, j, s, c in doc["tau"]}
    algebra = usym.FinAlgebra(fld, doc["dimension"], tau, tuple(doc["basis"]))
    violation = usym.validate_algebra(algebra)
    if violation is not None:
        raise ValueError(f"generated algebra {doc['name']} is invalid: {violation}")


def check_group(usym, doc: dict) -> None:
    """Raise unless the document's Cayley table is a group."""
    labels = doc["elements"]
    index = {lab: k for k, lab in enumerate(labels)}
    table = [[index[lab] for lab in row] for row in doc["table"]]
    violation = usym.validate_group(usym.FiniteGroup(labels, table))
    if violation is not None:
        raise ValueError(f"group {doc['name']} is invalid: {violation}")


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
