"""Shared builders for the standard small algebras, constructed by hand so the
tests do not depend on the packaged fixture files."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import operator

import pytest
from hypothesis import settings

from usym import (
    QQ,
    FinAlgebra,
    GradingPoint,
    Matrix,
    NCPoly,
    Subspace,
    TensorPoly,
    classify,
    enumerate_points,
    grading_from_point,
)
from usym.cli import main
from usym.groups import FiniteGroup
from usym.linalg import _eliminate, _residue_ops
from usym.ncpoly import word_key

# pytest --hypothesis-profile=deep: ten times the default examples, for the
# property tests that leave the example count to the profile
settings.register_profile("deep", max_examples=1000, deadline=None)


def dual_numbers(field) -> FinAlgebra:
    """k[X]/(X^2): basis {1, t} with t^2 = 0."""
    one = field.one
    return FinAlgebra(
        field,
        2,
        {(0, 0, 0): one, (0, 1, 1): one, (1, 0, 1): one},
        ("1", "t"),
    )


def triangular(field) -> FinAlgebra:
    """Upper-triangular 2x2 matrices: basis {e1=I, e2, e3} with
    e2 e3 = e2, e3 e3 = e3, e2 e2 = e3 e2 = 0."""
    one = field.one
    tau = {}
    for j in range(3):
        tau[(0, j, j)] = one
        tau[(j, 0, j)] = one
    tau[(1, 2, 1)] = one
    tau[(2, 2, 2)] = one
    return FinAlgebra(field, 3, tau, ("e1", "e2", "e3"))


def ground_field(field) -> FinAlgebra:
    """The base field as a one-dimensional algebra."""
    return FinAlgebra(field, 1, {(0, 0, 0): field.one}, ("1",))


@pytest.fixture
def dual_q():
    return dual_numbers(QQ)


@pytest.fixture
def triangular_q():
    return triangular(QQ)


def truncated_cubic(field) -> FinAlgebra:
    """k[X]/(X^3): basis {1, x, x^2} with x*x = x^2 and x*x^2 = 0."""
    one = field.one
    tau = {}
    for j in range(3):
        tau[(0, j, j)] = one
        tau[(j, 0, j)] = one
    tau[(1, 1, 2)] = one
    return FinAlgebra(field, 3, tau, ("1", "x", "x2"))


def truncated_polynomial(field, n: int) -> FinAlgebra:
    """k[X]/(X^n): basis {1, x, ..., x^(n-1)}."""
    tau = {(i, j, i + j): field.one for i in range(n) for j in range(n) if i + j < n}
    return FinAlgebra(field, n, tau)


def full_matrices(field) -> FinAlgebra:
    """M_2(k): basis {I, E11, E12, E21}, with E22 = I - E11."""
    one = field.one
    tau = {}
    for j in range(4):
        tau[(0, j, j)] = one
        tau[(j, 0, j)] = one
    tau[(1, 1, 1)] = one  # E11 E11 = E11
    tau[(1, 2, 2)] = one  # E11 E12 = E12
    tau[(2, 3, 1)] = one  # E12 E21 = E11
    tau[(3, 1, 3)] = one  # E21 E11 = E21
    tau[(3, 2, 0)] = one  # E21 E12 = E22 = I - E11
    tau[(3, 2, 1)] = -one
    return FinAlgebra(field, 4, tau, ("I", "E11", "E12", "E21"))


def upper_triangular(field, n: int) -> FinAlgebra:
    """T_n(k): basis {I} then the matrix units E_ab, a <= b, except
    E_nn = I - sum of the other E_aa."""
    units = [(a, b) for a in range(n) for b in range(a, n) if (a, b) != (n - 1, n - 1)]
    index = {u: k + 1 for k, u in enumerate(units)}
    one = field.one
    tau = {}
    for k in range(len(units) + 1):
        tau[(0, k, k)] = one
        tau[(k, 0, k)] = one
    for (a, b), x in index.items():
        for (c, d), y in index.items():
            if b == c:  # E_ab E_bd = E_ad, never E_nn: that needs E_ab = E_nn
                tau[(x, y, index[(a, d)])] = one
    return FinAlgebra(field, len(units) + 1, tau)


def cyclic_group_algebra(field, m: int) -> FinAlgebra:
    """k[C_m]: basis {1, g, ..., g^(m-1)} with g^i g^j = g^((i+j) mod m)."""
    tau = {(i, j, (i + j) % m): field.one for i in range(m) for j in range(m)}
    return FinAlgebra(field, m, tau)


def permuted(algebra: FinAlgebra, perm: list[int]) -> FinAlgebra:
    """The same algebra with basis element k moved to position perm[k];
    perm[0] must be 0, so the unit stays first."""
    assert perm[0] == 0 and sorted(perm) == list(range(algebra.n))
    labels = [""] * algebra.n
    for k, label in enumerate(algebra.labels):
        labels[perm[k]] = label
    tau = {(perm[i], perm[j], perm[s]): c for (i, j, s), c in algebra.tau.items()}
    return FinAlgebra(algebra.field, algebra.n, tau, tuple(labels))


def rescaled(algebra: FinAlgebra, scales) -> FinAlgebra:
    """The same algebra in the basis s_k e_k, for scales s (s_0 = 1 keeps
    the unit first): tau[i,j,k] becomes tau[i,j,k] s_i s_j / s_k."""
    s = [algebra.field(x) for x in scales]
    tau = {(i, j, k): c * s[i] * s[j] / s[k] for (i, j, k), c in algebra.tau.items()}
    return FinAlgebra(algebra.field, algebra.n, tau, algebra.labels)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """m in reduced row-echelon form, and its pivot columns."""
    rows, pivots, _ = _eliminate([list(r) for r in m.residues], _residue_ops(m.field))
    return Matrix._of_residues(m.field, rows), tuple(pivots)


def apply(m: Matrix, vec) -> tuple:
    """m times the column vector vec, on field scalars."""
    return tuple(sum((a * b for a, b in zip(row, vec)), m.field.zero) for row in m.rows)


def dense_multiply(a: FinAlgebra, x, y) -> tuple:
    """The product x y in a, summed over the whole constant table on field
    scalars."""
    if len(x) != a.n or len(y) != a.n:
        raise ValueError("element length does not match algebra dimension")
    out = [a.field.zero] * a.n
    for (i, j, s), c in a.tau.items():
        if x[i] and y[j]:
            out[s] = out[s] + x[i] * y[j] * c
    return tuple(out)


def scalar_rref(field, rows):
    """Reduced row echelon form by row operations on the field's own scalars
    (FpElement over GF(p)): the oracle for the elimination on residues, and
    for the Subspace operations on residue rows."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.one / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def scalar_basis(field, vectors):
    """The canonical basis of the span of vectors, on field scalars."""
    rows, pivots = scalar_rref(field, [list(v) for v in vectors])
    return tuple(tuple(row) for row in rows[: len(pivots)])


def scalar_contains(basis, vec):
    """Does the span of basis, a canonical basis on field scalars, hold vec?"""
    v = list(vec)
    for row in basis:
        pivot = next(j for j, x in enumerate(row) if x)
        if v[pivot]:
            f = v[pivot]
            v = [a - f * b for a, b in zip(v, row)]
    return not any(v)


def full_space(field, n: int) -> Subspace:
    """The whole of k^n."""
    return Subspace.from_vectors(field, n, Matrix.identity(field, n).rows)


# S_3 = <r, s | r^3 = s^2 = e, r s = s r^2>, elements e, r, r^2, s, sr, sr^2
S3 = FiniteGroup(
    ("e", "r", "r2", "s", "sr", "sr2"),
    (
        (0, 1, 2, 3, 4, 5),
        (1, 2, 0, 5, 3, 4),
        (2, 0, 1, 4, 5, 3),
        (3, 4, 5, 0, 1, 2),
        (4, 5, 3, 2, 0, 1),
        (5, 3, 4, 1, 2, 0),
    ),
)


def trivial_point(a: FinAlgebra, g) -> GradingPoint:
    """The grading point of the trivial grading: the identity at the group's
    identity, zero elsewhere."""
    mats = [Matrix.zeros(a.field, a.n, a.n) for _ in range(g.order)]
    mats[g.identity] = Matrix.identity(a.field, a.n)
    return GradingPoint(tuple(mats))


def classified(a: FinAlgebra, g):
    """The grading points of A over G and their classification, as the
    gradings command forms them: classify on the points and the gradings
    they induce."""
    points = enumerate_points(a, g)
    return points, classify(a, points, tuple(grading_from_point(a, g, pt) for pt in points))


def end_units(monoid) -> tuple:
    """The members of monoid with a two-sided inverse for its identity_index,
    read off its table: End's units, the oracle for automorphism_group."""
    t, e = monoid._table, monoid.identity_index
    return tuple(
        monoid.points[i]
        for i, row in enumerate(t)
        if any(x == e and t[j][i] == e for j, x in enumerate(row))
    )


def algebra_file(tmp_path, name, algebra):
    """Write algebra in the input format and return the path."""
    doc = {
        "field": algebra.field.spec_string(),
        "dimension": algebra.n,
        "basis": list(algebra.labels),
        "unit_index": 1,
        "tau": [[i + 1, j + 1, s + 1, str(c)] for (i, j, s), c in sorted(algebra.tau.items())],
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc, sort_keys=True))
    return str(path)


def report_output(argv):
    """The stdout of a CLI call that must exit 0 with empty stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0 and err.getvalue() == ""
    return out.getvalue()


def report_digest(argv):
    """The sha256 of the stdout of a CLI call that must exit 0 with empty stderr."""
    return hashlib.sha256(report_output(argv).encode("utf-8")).hexdigest()


def tensor_term(*legs_and_coeff) -> TensorPoly:
    """tensor_term(w1, ..., wk, c) is c * w1 (x) ... (x) wk."""
    *legs, coeff = legs_and_coeff
    return TensorPoly({tuple(legs): coeff})


def legwise_product(table, legs, w, field):
    """The image of the word w under a table of legs-leg tensors, formed term
    by term with every coefficient multiplied."""
    want = {((),) * legs: field.one}
    for g in w:
        product = {}
        for a, c in want.items():
            for b, d in table[g].terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                product[key] = product.get(key, field.zero) + c * d
        want = product
    return want


def semisimple_derivations(a: FinAlgebra) -> list[tuple[tuple[int, ...], ...]]:
    """The derivations d of a over GF(p) with d^p = d, as residue matrices
    (column i = d(e_i)).  Der(A) is the kernel of the n^3 equations
    d(e_i e_j) = d(e_i) e_j + e_i d(e_j) in the n^2 entries of d, solved here
    by its own elimination mod p.  Such a d is a C_p-grading, A_k its
    eigenspace of k, since t^p - t splits over GF(p); r pairwise commuting
    ones are a (C_p)^r-grading."""
    p, n = a.field.characteristic, a.n
    tau = {key: c.v for key, c in a.tau.items()}
    # column k * n + i holds the unknown d[k][i], the e_k coordinate of d(e_i)
    rows = []
    for i, j, l in itertools.product(range(n), repeat=3):
        row = [0] * (n * n)
        for u in range(n):
            row[l * n + u] += tau.get((i, j, u), 0)
        for k in range(n):
            row[k * n + i] -= tau.get((k, j, l), 0)
            row[k * n + j] -= tau.get((i, k, l), 0)
        rows.append([x % p for x in row])
    pivots: list[int] = []
    for col in range(n * n):
        r = next((r for r in range(len(pivots), len(rows)) if rows[r][col]), None)
        if r is None:
            continue
        rows[len(pivots)], rows[r] = rows[r], rows[len(pivots)]
        pivot = rows[len(pivots)]
        inv = pow(pivot[col], -1, p)
        pivot[:] = [x * inv % p for x in pivot]
        for row in rows:
            if row is not pivot and row[col]:
                f = row[col]
                row[:] = [(x - f * y) % p for x, y in zip(row, pivot)]
        pivots.append(col)
    basis = []
    for free in (c for c in range(n * n) if c not in pivots):
        v = [0] * (n * n)
        v[free] = 1
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free] % p
        basis.append(v)
    out = []
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        v = [sum(c * b[x] for c, b in zip(coeffs, basis)) % p for x in range(n * n)]
        d = tuple(tuple(v[k * n : k * n + n]) for k in range(n))
        power = d
        for _ in range(p - 1):
            power = residue_product(power, d, p)
        if power == d:
            out.append(d)
    return out


def residue_product(x, y, p: int) -> tuple[tuple[int, ...], ...]:
    """The product of two square residue matrices mod p."""
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) % p for col in zip(*y)) for row in x)


def iter_words(gens, max_degree):
    """All words over gens of degree <= max_degree, in deglex order."""
    level = [()]
    yield ()
    ordered = sorted(gens, key=lambda g: word_key((g,)))
    for _ in range(max_degree):
        level = [w + (g,) for w in level for g in ordered]
        level.sort(key=word_key)
        yield from level


# Naive scalar arithmetic of the free algebra, term by term on field scalars:
# the oracles below build their products, shifts, tensors and substitutions
# with these, never with ncpoly's int core (_on_leg, _substituted, _reduce,
# _tensor_nf), which is the code they check.


def poly_product(p, q):
    """The product p q of two polynomials."""
    out = {}
    for (u, a), (v, b) in itertools.product(p.terms.items(), q.terms.items()):
        out[u + v] = out[u + v] + a * b if u + v in out else a * b
    return NCPoly(out)


def shifted(p, left, right):
    """left p right, for words left and right."""
    return NCPoly({left + w + right: c for w, c in p.terms.items()})


def tensor_of(*factors):
    """The tensor product p1 (x) ... (x) pk of polynomials."""
    out = {}
    for combo in itertools.product(*(f.terms.items() for f in factors)):
        legs, coeffs = zip(*combo)
        out[legs] = functools.reduce(operator.mul, coeffs)
    return TensorPoly(out)


def substituted(p, subs):
    """p with each generator of subs replaced by its image polynomial, word
    by word, generator by generator."""
    out = NCPoly()
    for w, c in p.terms.items():
        term = NCPoly({(): c})
        for g in w:
            term = poly_product(term, subs[g]) if g in subs else shifted(term, (), (g,))
        out = out + term
    return out


def rule_relation(rule, one):
    """The relation lead - rest of a rewrite rule over the field whose 1 is one."""
    return NCPoly({rule.lead: one}) - rule.rest


def _scan_find(word, factor, leftmost):
    span = len(word) - len(factor)
    positions = range(span + 1) if leftmost else range(span, -1, -1)
    for p in positions:
        if word[p : p + len(factor)] == factor:
            return p
    return None


def scan_reduce(p, rules, strategy):
    """The reference reduction: sort the words, scan every rule at every
    position.  standard: largest reducible word, lowest rule index, leftmost
    position; reverse: smallest reducible word, highest rule index,
    rightmost.  Modulo a confluent system the two agree (diamond lemma)."""
    forward = strategy == "standard"
    while True:
        site = None
        for w in sorted(p.terms, key=word_key, reverse=forward):
            for rule in rules if forward else list(reversed(rules)):
                pos = _scan_find(w, rule.lead, forward)
                if pos is not None:
                    site = (w, rule, pos)
                    break
            if site:
                break
        if site is None:
            return p
        w, rule, pos = site
        c = p.terms[w]
        rest = shifted(rule.rest, w[:pos], w[pos + len(rule.lead) :])
        rewritten = poly_product(NCPoly({(): c}), rest)
        p = (p - NCPoly({w: c})) + rewritten


def overlap_candidates(rules, degree_bound):
    """The reference overlap scan: every proper overlap u = ...w, v = w... of
    two leads (a lead with itself included) whose overlap word u + v[k:] has
    degree <= degree_bound, as tuples (word_key of the overlap word, u, v, k,
    rule_u, rule_v), sorted by the first four."""
    out = []
    for ri in rules:
        for rj in rules:
            u, v = ri.lead, rj.lead
            for k in range(1, min(len(u), len(v))):
                if u[len(u) - k :] == v[:k]:
                    w = u + v[k:]
                    if len(w) <= degree_bound:
                        out.append((word_key(w), u, v, k, ri, rj))
    out.sort(key=lambda t: t[:4])
    return out


def macaulay_rows(relations, degree_bound):
    """The reduced row echelon form of the Macaulay matrix.  Its rows are the
    products u r v of degree <= degree_bound of each relation r with words u
    and v; its columns are the words, largest first.  Returns {pivot word:
    row}, each row a dict {word: scalar} that holds its pivot with
    coefficient 1 and no other pivot word.  So modulo V_D, the span of the
    rows (see macaulay_system), the normal form of a pivot word is the
    word minus its row, and every other word of degree <= degree_bound is
    its own.  Only dicts and field scalars; no linalg and no ncpoly
    reduction."""
    gens = sorted({g for r in relations for w in r.terms for g in w}, key=lambda g: word_key((g,)))
    words = list(iter_words(gens, degree_bound))
    rank = {w: k for k, w in enumerate(words)}  # deglex: iter_words' order
    of_length = [[w for w in words if len(w) == d] for d in range(degree_bound + 1)]

    def add(row, w, x):
        y = row[w] + x if w in row else x
        if y:
            row[w] = y
        else:
            row.pop(w, None)

    # row echelon form, each row monic at its pivot, its largest word
    pivots = {}
    for r in relations:
        for shift in range(degree_bound - r.degree() + 1):
            for left in range(shift + 1):
                for u in of_length[left]:
                    for v in of_length[shift - left]:
                        row = {u + w + v: c for w, c in r.terms.items()}
                        while row:
                            lead = max(row, key=rank.__getitem__)
                            c = row[lead]
                            if lead not in pivots:
                                pivots[lead] = {w: x / c for w, x in row.items()}
                                break
                            for w, x in pivots[lead].items():
                                add(row, w, -c * x)
    # reduced, smallest pivot first: the pivots in a row's rest are smaller,
    # and their rows already hold no pivot but their own
    for lead in sorted(pivots, key=rank.__getitem__):
        row = {}
        for w, x in pivots[lead].items():
            if w == lead or w not in pivots:
                add(row, w, x)
            else:
                for v, y in pivots[w].items():
                    if v != w:
                        add(row, v, -x * y)
        pivots[lead] = row
    return pivots


def macaulay_system(relations, degree_bound):
    """The oracle for completion: the substitutions and rules that
    build_presentation's system must hold, read off the reduced row echelon
    form of the Macaulay matrix (macaulay_rows).  Reductions never raise a
    word's degree, so complete's claim at D, canonical normal forms on words
    of degree <= D, is reduction modulo V_D, the span of the matrix's rows
    (not the whole of the ideal's degree <= D part, which products of higher
    degree may reach).  The pivot words are then exactly the words that the
    system rewrites, and a pivot with no other pivot as a factor is an
    eliminated generator or a rule's lead (Bergman's diamond lemma).
    Returns (subs, rules): each such pivot (a generator, or a lead of
    degree >= 2) mapped to minus the rest of its row, as NCPolys."""
    pivots = macaulay_rows(relations, degree_bound)
    subs, rules = {}, {}
    for lead, row in pivots.items():
        factors = {lead[i:j] for i in range(len(lead)) for j in range(i + 1, len(lead) + 1)}
        if len(factors & pivots.keys()) == 1:
            rest = NCPoly({w: -x for w, x in row.items() if w != lead})
            if len(lead) == 1:
                subs[lead[0]] = rest
            else:
                rules[lead] = rest
    return subs, rules
