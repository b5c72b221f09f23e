import functools
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from usym import (
    GF,
    QQ,
    EndoMonoid,
    InputError,
    Matrix,
    SearchSizeError,
    automorphism_group,
    counit_point,
    cyclic_group,
    enumerate_endomorphisms,
    enumerate_homs,
    enumerate_measuring_points,
    enumerate_points,
    fixture_path,
    is_algebra_map,
    validate_algebra,
)
from usym.endomorphisms import ONE, _cell_values, _compile_cell
from usym.io import load_algebra, load_group
from conftest import (
    apply,
    cyclic_group_algebra,
    dual_numbers,
    end_units,
    full_matrices,
    ground_field,
    triangular,
    truncated_cubic,
    truncated_polynomial,
    upper_triangular,
)


def fmat(field, rows):
    return Matrix(field, [[field(x) for x in row] for row in rows])


def test_identity_is_point(dual_q, triangular_q):
    for a in (dual_q, triangular_q):
        assert is_algebra_map(a, a, counit_point(a))


def test_dual_point_constraint_alpha_zero(dual_q):
    # [[1, a], [0, b]] is a point iff a = 0 (from x[1,2]^2 = 0)
    assert is_algebra_map(dual_q, dual_q, fmat(QQ, [[1, 0], [0, 7]]))
    assert not is_algebra_map(dual_q, dual_q, fmat(QQ, [[1, 1], [0, 1]]))
    assert not is_algebra_map(dual_q, dual_q, fmat(QQ, [[1, "1/2"], [0, "1/3"]]))


def test_dual_point_over_gf5(dual_q):
    f5 = GF(5)
    a5 = dual_numbers(f5)
    assert is_algebra_map(a5, a5, fmat(f5, [[1, 0], [0, 3]]))


def test_point_wrong_first_column(dual_q):
    assert not is_algebra_map(dual_q, dual_q, fmat(QQ, [[0, 0], [1, 0]]))
    with pytest.raises(ValueError):
        is_algebra_map(dual_q, dual_q, Matrix.identity(QQ, 3))


def test_gamma_counit_is_identity(dual_q):
    # gamma reads a point as the matrix of its endomorphism
    w = counit_point(dual_q)
    assert is_algebra_map(dual_q, dual_q, w)
    assert w == Matrix.identity(QQ, 2)


def test_gamma_dual_scales_t(dual_q):
    w = fmat(QQ, [[1, 0], [0, 9]])
    assert is_algebra_map(dual_q, dual_q, w)
    t = dual_q.basis_vector(1)
    assert apply(w, t) == (QQ(0), QQ(9))
    not_a_point = fmat(QQ, [[1, 1], [0, 1]])
    assert not is_algebra_map(dual_q, dual_q, not_a_point)


def test_convolve_is_matrix_product():
    # the convolution of points is their matrix product
    f7 = GF(7)
    a = dual_numbers(f7)
    m1 = fmat(f7, [[1, 0], [0, 2]])
    m2 = fmat(f7, [[1, 0], [0, 3]])
    prod = m1 * m2
    assert prod == fmat(f7, [[1, 0], [0, 6]])
    assert is_algebra_map(a, a, prod)
    assert m1 * counit_point(a) == m1


def test_convolution_preserves_noninvertibility():
    f5 = GF(5)
    a = dual_numbers(f5)
    degenerate = fmat(f5, [[1, 0], [0, 0]])
    assert is_algebra_map(a, a, degenerate)
    for beta in range(1, 5):
        m = fmat(f5, [[1, 0], [0, beta]])
        assert not (degenerate * m).is_invertible()
        assert not (m * degenerate).is_invertible()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_dual_endomorphism_monoid_is_diagonal(p):
    f = GF(p)
    a = dual_numbers(f)
    monoid = enumerate_endomorphisms(a)
    assert len(monoid) == p
    expected = [fmat(f, [[1, 0], [0, b]]) for b in range(p)]
    assert list(monoid.points) == expected
    assert monoid.points[monoid.identity_index] == counit_point(a)


def test_ground_field_single_point():
    a = ground_field(GF(3))
    monoid = enumerate_endomorphisms(a)
    assert len(monoid) == 1
    group = automorphism_group(a)
    assert len(group) == 1


@pytest.mark.parametrize("p", [2, 3])
def test_triangular_points_equal_brute_force_maps(p):
    a = triangular(GF(p))
    points = enumerate_endomorphisms(a).points
    homs = enumerate_homs(a, a)
    assert tuple(m.rows for m in points) == tuple(m.rows for m in homs)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_dual_automorphism_group_order(p):
    a = dual_numbers(GF(p))
    group = automorphism_group(a)
    assert len(group) == p - 1


@pytest.mark.parametrize("p", [2, 3])
def test_triangular_aut_equals_bijective_map_count(p):
    a = triangular(GF(p))
    group = automorphism_group(a)
    bijective = [m for m in enumerate_homs(a, a) if m.is_invertible()]
    assert tuple(m.rows for m in group.points) == tuple(m.rows for m in bijective)


def test_monoid_isomorphism_property():
    for p in (2, 3):
        a = triangular(GF(p))
        monoid = enumerate_endomorphisms(a)
        pts = monoid.points
        keys = {m.rows for m in pts}
        for m1, m2 in itertools.product(pts, repeat=2):
            prod = m1 * m2
            assert prod.rows in keys
            # gamma is multiplicative: applying the composite matches
            # composing the applications
            for i in range(a.n):
                v = a.basis_vector(i)
                assert apply(prod, v) == apply(m1, apply(m2, v))
        # gamma is a bijection onto the brute-force algebra maps
        assert tuple(m.rows for m in pts) == tuple(
            m.rows for m in enumerate_homs(a, a)
        )


def test_invertible_points_closed_under_product_and_inverse():
    a = triangular(GF(3))
    group = automorphism_group(a)
    keys = {m.rows for m in group.points}
    for m1, m2 in itertools.product(group.points, repeat=2):
        assert (m1 * m2).rows in keys
    for m in group.points:
        inv = m.inverse()
        assert inv.rows in keys
        assert is_algebra_map(a, a, inv)


def test_enumerate_homs_base_field_domain(dual_q):
    f3 = GF(3)
    a = dual_numbers(f3)
    k = ground_field(f3)
    homs = enumerate_homs(k, a)
    assert len(homs) == 1
    assert homs[0].transpose().rows[0] == a.unit


def test_homs_dual_to_dual_count():
    a = dual_numbers(GF(3))
    assert len(enumerate_homs(a, a)) == 3


def test_cross_algebra_routes_agree():
    f2 = GF(2)
    b = dual_numbers(f2)
    a = triangular(f2)
    direct = enumerate_homs(b, a)
    # t^2 = 0 sends t to a square-zero element of T_2: 0 or e2
    assert [m.transpose().rows[1] for m in direct] == [(f2(0),) * 3, (f2(0), f2(1), f2(0))]
    for m in direct:
        assert is_algebra_map(b, a, m)


def test_search_size_guard():
    a = triangular(GF(3))
    with pytest.raises(SearchSizeError):
        enumerate_endomorphisms(a, max_search=10)
    with pytest.raises(SearchSizeError):
        enumerate_homs(a, a, max_search=10)


def test_enumeration_requires_prime_field(dual_q):
    from usym import InputError

    with pytest.raises(InputError):
        enumerate_endomorphisms(dual_q)


def test_multiplication_table_on_demand():
    a = dual_numbers(GF(3))
    monoid = enumerate_endomorphisms(a)
    table = monoid.multiplication_table()
    assert len(table) == len(monoid)
    e = monoid.identity_index
    assert all(table[e][k] == k and table[k][e] == k for k in range(len(monoid)))
    # diag(1,b1) * diag(1,b2) = diag(1, b1 b2)
    lookup = {m.rows: k for k, m in enumerate(monoid.points)}
    for i, m1 in enumerate(monoid.points):
        for j, m2 in enumerate(monoid.points):
            assert table[i][j] == lookup[(m1 * m2).rows]


def test_truncated_cubic_known_orders():
    # maps are x -> a x + b x^2 with no constraint, invertible iff a != 0
    from conftest import truncated_cubic

    a = truncated_cubic(GF(3))
    assert len(enumerate_endomorphisms(a)) == 9
    assert len(automorphism_group(a)) == 6
    assert len(enumerate_homs(a, a)) == 9


def rows(matrices):
    return tuple(m.rows for m in matrices)


@pytest.mark.parametrize(
    "build, p",
    [
        *(
            pytest.param(lambda f, n=n: truncated_polynomial(f, n), p, id=f"poly{n}-GF{p}")
            for n, p in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3))
        ),
        pytest.param(full_matrices, 2, id="M2-GF2"),
    ],
)
def test_points_equal_homs_oracle(build, p):
    # T_2 is test_triangular_points_equal_brute_force_maps; k[x]/(x^4) and
    # M_2 over GF(3) are left out: the oracle tries 3^12 maps
    a = build(GF(p))
    assert validate_algebra(a) is None
    assert rows(enumerate_measuring_points(a)) == rows(enumerate_homs(a, a))


def test_hom_oracle_tests_every_candidate(monkeypatch, tmp_path):
    # endo --oracle on k[x]/(x^3) over GF(3): enumerate_homs tests each of the
    # 3^(3*2) = 729 matrices with a unit first column once
    import usym.cli
    import usym.endomorphisms
    from conftest import algebra_file

    calls = []

    def counted(b, a, f, _original=is_algebra_map):
        calls.append(f)
        return _original(b, a, f)

    monkeypatch.setattr(usym.endomorphisms, "is_algebra_map", counted)
    monkeypatch.setattr(usym.cli, "is_algebra_map", counted)
    path = algebra_file(tmp_path, "x3", truncated_polynomial(GF(3), 3))
    assert usym.cli.main(["endo", path, "--oracle"]) == 0
    assert len(calls) == 729 and len(set(calls)) == 729


def test_search_bound_counts_values_tried():
    # T_2(GF(3)) tries 35 values; the bound trips as soon as the count passes it
    a = triangular(GF(3))
    assert len(enumerate_endomorphisms(a, max_search=35)) == 14
    with pytest.raises(SearchSizeError) as info:
        enumerate_endomorphisms(a, max_search=34)
    assert (info.value.needed, info.value.bound) == (35, 34)


def _klein():
    return load_group(str(fixture_path("group_klein.json")))[0]


@pytest.mark.parametrize(
    "search, tried, count",
    [
        (lambda bound: enumerate_endomorphisms(full_matrices(GF(3)), bound), 410, 24),
        (lambda bound: enumerate_points(triangular(GF(3)), cyclic_group(3), bound), 327, 7),
        (lambda bound: enumerate_points(truncated_cubic(GF(7)), cyclic_group(3), bound), 2203, 15),
        (lambda bound: enumerate_points(cyclic_group_algebra(GF(5), 4), cyclic_group(2), bound), 9051, 10),
        (lambda bound: enumerate_points(_fixture("dual_gf5")(), _klein(), bound), 103, 4),
        (lambda bound: enumerate_points(full_matrices(GF(2)), cyclic_group(2), bound), 333, 5),
        (lambda bound: enumerate_points(truncated_polynomial(GF(3), 3), _klein(), bound), 1871, 10),
    ],
    ids=["end-M2-GF3", "T2-GF3-C3", "cubic-GF7-C3", "C4-GF5-C2", "dual-GF5-Klein", "M2-GF2-C2", "x3-GF3-Klein"],
)
def test_values_tried_are_exact(search, tried, count):
    # a value solved from an equation linear in its cell, or left by a forward
    # check of the cell's quadratic equations, counts as one value tried
    assert len(search(tried)) == count
    with pytest.raises(SearchSizeError) as info:
        search(tried - 1)
    assert (info.value.needed, info.value.bound) == (tried, tried - 1)


def search_setup_digest(monkeypatch, search) -> str:
    """sha256 of the JSON of the search's cell order and of the equations
    compiled at each depth, keyed by the depths of their cells, read with the
    bound at 0, which stops the search at its first value."""
    import usym.endomorphisms as endo

    seen = []

    def cell_order(named, free, _original=endo._cell_order):
        seen.append(_original(named, free))
        return seen[0]

    def compile_cell(equations, d, p, _original=endo._compile_cell):
        seen.append([list(eq.items()) for eq in equations])
        return _original(equations, d, p)

    monkeypatch.setattr(endo, "_cell_order", cell_order)
    monkeypatch.setattr(endo, "_compile_cell", compile_cell)
    with pytest.raises(SearchSizeError):
        search(0)
    return hashlib.sha256(json.dumps([seen[0], seen[1:]]).encode()).hexdigest()


@pytest.mark.parametrize(
    "search, digest, tried, count",
    [
        (lambda bound: enumerate_points(truncated_polynomial(GF(3), 3), _klein(), bound),
         "b320cff2f0859a1dfa76a77ef684ec4c830c24d41646e10d7d47c266ccea0986", 1871, 10),
        (lambda bound: enumerate_measuring_points(full_matrices(GF(2)), bound),
         "f12b8d7235959f9237cc2f90f461f99eea6e1b57d0bb9e041047e804b6899d08", 137, 6),
        (lambda bound: enumerate_points(triangular(GF(3)), cyclic_group(2), bound),
         "1dff8430ed1f8b8a1b2e7284af123d0791a653c9846e621e306ba9b7979f469f", 75, 4),
        (lambda bound: enumerate_points(full_matrices(GF(2)), cyclic_group(3), bound),
         "7e3e4388dc3c1eb7e9926bffd99b29ffe69cc63518a770bc0c8d59dd381e8ef6", 1685, 7),
        (lambda bound: enumerate_points(cyclic_group_algebra(GF(2), 3), cyclic_group(2), bound),
         "00f787f36f64f52ae9b391c1e68bf4545ea32dcd311eb45dd9063192dd6cae3c", 32, 1),
        # searches of 3.9 s and 14 s: their set-up only
        (lambda bound: enumerate_points(upper_triangular(GF(2), 3), cyclic_group(3), bound),
         "7b9258c2d79b1b95d08c5babc886c637655e086f6008cc32e933e865b969d06f", None, None),
        (lambda bound: enumerate_points(full_matrices(GF(3)), _klein(), bound),
         "d87958f6c8849392a5afb23222fa830efc46c98cb69e10b775a20bd6ebc96491", None, None),
    ],
    ids=["x3-GF3-Klein", "end-M2-GF2", "T2-GF3-C2", "M2-GF2-C3", "C3-GF2-C2", "T3-GF2-C3",
         "M2-GF3-Klein"],
)
def test_relation_keys_on_fixed_cells_leave_the_search_as_it_was(
    monkeypatch, search, digest, tried, count
):
    # a relation's products with a column-0 cell fixed at 0 get no key, but
    # their cells still count in the cell order: the order, the equations at
    # each depth, the values tried and the points found are pinned as they
    # were when every product had a key.  Naming only the cells of the keys
    # left would change the order on end-M2-GF2, T2-GF3-C2, M2-GF2-C3 and
    # C3-GF2-C2.
    assert search_setup_digest(monkeypatch, search) == digest
    if tried is not None:
        assert len(search(tried)) == count
        with pytest.raises(SearchSizeError):
            search(tried - 1)


@st.composite
def cell_systems(draw):
    """(p, d, x, equations): random equations of degree <= 2 in the cells at
    depths 0..d, keyed as search_points keys them, and values x of the
    cells before depth d (x[d] is not read, x[ONE] = 1)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(0, 3))
    x = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d)) + [0, 1]
    ends = [ONE, *range(d + 1)]
    keys = [(u, w) for u in ends for w in ends if u <= w]
    equation = st.dictionaries(st.sampled_from(keys), st.integers(0, p - 1), max_size=5)
    return p, d, x, draw(st.lists(equation, max_size=4))


@given(cell_systems())
@example((3, 0, [0, 1], [{(0, 0): 1, (ONE, ONE): 1}]))  # x^2 + 1: a != 0, b = 0, c != 0
@example((5, 0, [0, 1], [{(0, 0): 1, (ONE, ONE): 1}]))  # x^2 + 1 = (x - 2)(x - 3)
@example((7, 1, [3, 0, 1], [{(0, 1): 2, (ONE, ONE): 1}, {(ONE, 1): 1, (ONE, 0): 4}]))
@example((5, 1, [2, 0, 1], [{(ONE, 1): 1, (ONE, ONE): 4}, {(1, 1): 1, (ONE, ONE): 3}]))
@example((2, 1, [1, 0, 1], [{(0, 0): 1, (ONE, ONE): 1}, {(1, 1): 0}, {}]))  # all zero
def test_cell_values_match_a_scan_of_every_residue(system):
    # the compiled solve and forward check give exactly the residues at
    # which every equation vanishes
    p, d, x, equations = system

    def vanishes(v):
        y = x[:d] + [v] + x[d + 1 :]
        return all(sum(k * y[u] * y[w] for (u, w), k in eq.items()) % p == 0 for eq in equations)

    values = _cell_values(*_compile_cell(equations, d, p), x, p)
    assert list(values) == [v for v in range(p) if vanishes(v)]


def test_aut_refused_by_the_old_estimate_now_runs():
    # p^(n(n-1)) = 2^30 candidates exceeded the default bound; |Aut| = (p-1) p^(n-2)
    a = truncated_polynomial(GF(2), 6)
    assert len(automorphism_group(a)) == 16


def test_table_checks_false_branches():
    # End(dual_gf3) = {diag(1,0), I, diag(1,2)}
    a = dual_numbers(GF(3))
    end = enumerate_endomorphisms(a)
    assert [m.rows for m in end.points] == [
        m.rows for m in (fmat(a.field, [[1, 0], [0, b]]) for b in (0, 1, 2))
    ]
    assert not end.inverses_in_set()  # diag(1,0) has no inverse
    assert automorphism_group(a).inverses_in_set()
    # without I: diag(1,2)^2 = I falls outside the set
    partial = EndoMonoid(a, (end.points[0], end.points[2]), 0)
    assert not partial.is_closed()
    with pytest.raises(KeyError):
        partial.multiplication_table()
    assert not partial.inverses_in_set()  # the counit point is missing


def test_endo_monoid_requires_prime_field(dual_q):
    # the table is formed on residues mod p, which QQ has not
    with pytest.raises(InputError, match="prime fields"):
        EndoMonoid(dual_q, (counit_point(dual_q),), 0)


def _fixture(name):
    return lambda: load_algebra(fixture_path(f"{name}.json"))[0]


# (id, builder, |Aut| or None, deep); |Aut k[x]/(x^n)| = (p - 1) p^(n - 2): x
# goes to c1 x + ... + c(n-1) x^(n-1) with c1 != 0; |Aut T_3(GF(p))| =
# (p - 1)^2 p^3; GF(5)[C_4] is GF(5)^4 (x^4 - 1 splits over GF(5)), whose
# automorphisms permute its 4 primitive idempotents: 24
TABLE_CASES = (
    [(f"fixture-{name}", _fixture(name), None, False)
     for name in ("dual_gf2", "dual_gf3", "dual_gf5", "dual_gf7", "triangular_gf2", "triangular_gf3")]
    + [(f"poly{n}-gf{p}", lambda p=p, n=n: truncated_polynomial(GF(p), n), (p - 1) * p ** (n - 2), False)
       for p in (2, 3, 5) for n in (2, 3, 4)]
    + [
        ("m2-gf2", lambda: full_matrices(GF(2)), None, False),
        ("t3-gf2", lambda: upper_triangular(GF(2), 3), 8, False),
        ("c4-gf5", lambda: cyclic_group_algebra(GF(5), 4), 24, False),
        # the |End|² Matrix products checked here take 10-50 s: deep profile only
        ("t3-gf3", lambda: upper_triangular(GF(3), 3), 108, True),
        ("poly5-gf5", lambda: truncated_polynomial(GF(5), 5), 500, True),
    ]
)


@pytest.mark.parametrize(
    "build, aut_order, deep", [c[1:] for c in TABLE_CASES], ids=[c[0] for c in TABLE_CASES]
)
def test_int_table_matches_matrix_products(build, aut_order, deep, request):
    if deep and request.config.getoption("--hypothesis-profile") != "deep":
        pytest.skip("runs under --hypothesis-profile=deep")
    a = build()
    end = enumerate_endomorphisms(a)
    table = end.multiplication_table()
    index = {m: k for k, m in enumerate(end.points)}
    for i, m1 in enumerate(end.points):
        assert table[i] == tuple(index[m1 * m2] for m2 in end.points)
    # Aut = the units of End, read off End's table: they are End's points of
    # nonzero determinant, and Aut's own table is End's restricted to them
    aut = automorphism_group(a)
    units = end_units(end)
    assert units == tuple(m for m in end.points if m.is_invertible())
    assert aut.points == units
    assert aut.points[aut.identity_index] == counit_point(a)
    keep = [index[m] for m in units]
    position = {k: u for u, k in enumerate(keep)}
    assert aut.multiplication_table() == tuple(
        tuple(position[table[i][j]] for j in keep) for i in keep
    )
    if aut_order is not None:
        assert len(aut) == aut_order


def naive_table(points):
    """table[i][j]: points[i] * points[j] as one Matrix product, looked up
    among the points; None when outside them."""
    index = {m: k for k, m in enumerate(points)}
    return tuple(tuple(index.get(m1 * m2) for m2 in points) for m1 in points)


TIER1_TABLE_CASES = [c for c in TABLE_CASES if not c[3]]


@pytest.mark.parametrize(
    "case_id, build", [c[:2] for c in TIER1_TABLE_CASES], ids=[c[0] for c in TIER1_TABLE_CASES]
)
def test_table_of_any_point_set_matches_products(case_id, build):
    # Aut below is closed; the other sets in general are not, so they have
    # cells outside the set, and cells a composed column cannot reach
    a = build()
    points = enumerate_measuring_points(a)
    ident = counit_point(a)
    others = [m for m in points if m != ident]
    rng = random.Random(case_id)
    third = rng.sample(points, max(1, len(points) // 3))  # in drawn order
    sets = [
        third,
        sorted(third, key=Matrix.sort_key),
        rng.sample(others, max(1, len(others) // 3)),  # without the counit point
        [rng.choice(others)],
        [m for m in points if m.is_invertible()][::-1],  # Aut, in reverse order
    ]
    for s in sets:
        assert EndoMonoid(a, tuple(s), 0)._table == naive_table(s)


@functools.lru_cache(maxsize=None)
def tier1_end(k):
    a = TIER1_TABLE_CASES[k][1]()
    return a, enumerate_measuring_points(a)


@settings(deadline=None)
@given(st.data())
def test_table_of_drawn_point_sets_matches_products(data):
    a, points = tier1_end(data.draw(st.integers(0, len(TIER1_TABLE_CASES) - 1)))
    picks = st.lists(st.integers(0, len(points) - 1), min_size=1, max_size=12, unique=True)
    subset = tuple(points[i] for i in data.draw(picks))
    assert EndoMonoid(a, subset, 0)._table == naive_table(subset)


def test_cells_a_composed_column_cannot_reach_are_products(monkeypatch):
    # g = diag(1, 2) over GF(5) has order 4; in {g, g^2, g^3} every column is
    # composed from g's, but g^3 * g^2 and g^2 * g^3 (both g) follow from
    # g^3 * g and g^2 * g^2 = I, which lie outside the set
    import usym.endomorphisms as endo_mod

    calls = []

    def column(b, rows, *args, _original=endo_mod._column):
        calls.append(len(rows))
        return _original(b, rows, *args)

    monkeypatch.setattr(endo_mod, "_column", column)
    a = dual_numbers(GF(5))
    powers = tuple(fmat(a.field, [[1, 0], [0, d]]) for d in (2, 4, 3))
    table = EndoMonoid(a, powers, 0)._table
    assert table == naive_table(powers) == ((1, 2, None), (2, None, 0), (None, 0, 1))
    # g's column, then one product for each of the two cells
    assert calls == [3, 1, 1]


@pytest.mark.parametrize(
    "build, monoid, formed, size",
    [
        (lambda: full_matrices(GF(3)), enumerate_endomorphisms, 4, 24),
        (lambda: full_matrices(GF(3)), automorphism_group, 4, 24),
        (lambda: cyclic_group_algebra(GF(5), 4), enumerate_endomorphisms, 6, 256),
        (lambda: truncated_polynomial(GF(3), 4), enumerate_endomorphisms, 13, 27),
    ],
    ids=["end-m2-gf3", "aut-m2-gf3", "end-c4-gf5", "end-poly4-gf3"],
)
def test_table_forms_only_the_generators_columns(monkeypatch, build, monoid, formed, size):
    import usym.endomorphisms as endo_mod

    calls = []

    def column(b, rows, *args, _original=endo_mod._column):
        calls.append(len(rows))
        return _original(b, rows, *args)

    monkeypatch.setattr(endo_mod, "_column", column)
    assert len(monoid(build())) == size
    # whole columns only: these sets are closed
    assert calls == [size] * formed


def test_units_need_two_sided_inverses():
    # In a finite monoid a one-sided inverse is two-sided, so no End table
    # tells the two apart; a table that is not a monoid's does.  Here
    # b * c = e but c * b = c: b has a right inverse and no two-sided one.
    a = dual_numbers(GF(3))
    e, b, c = (fmat(a.field, [[1, 0], [0, d]]) for d in (1, 0, 2))
    monoid = EndoMonoid(a, (e, b, c), 0)
    monoid._table = ((0, 1, 2), (1, 1, 0), (2, 2, 2))
    assert end_units(monoid) == (e,)
    assert not monoid.inverses_in_set()


def test_aut_looks_each_inverse_up_among_the_points(monkeypatch):
    # diag(1,2) and diag(1,3) are inverse points of dual_gf5; with diag(1,3)
    # left out of the points, diag(1,2) is invertible but no unit
    import usym.endomorphisms as endo_mod

    a = _fixture("dual_gf5")()
    dropped = fmat(a.field, [[1, 0], [0, 3]])
    enumerate_all = endo_mod.enumerate_measuring_points

    def without_dropped(a, max_search):
        points = enumerate_all(a, max_search)
        assert dropped in points
        return tuple(m for m in points if m != dropped)

    monkeypatch.setattr(endo_mod, "enumerate_measuring_points", without_dropped)
    with pytest.raises(RuntimeError, match="inverse of a point is not a point"):
        automorphism_group(a)
