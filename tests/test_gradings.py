import itertools

import pytest

from usym import (
    GF,
    QQ,
    FinAlgebra,
    Grading,
    GradingPoint,
    Matrix,
    SearchSizeError,
    Subspace,
    automorphism_group,
    conjugate_point,
    cyclic_group,
    enumerate_endomorphisms,
    enumerate_gradings_oracle,
    enumerate_points,
    fixture_path,
    grading_from_point,
    is_grading_point,
    point_from_grading,
    validate_grading,
    validate_group,
)
from usym.endomorphisms import DEFAULT_MAX_SEARCH, search_points
from usym.gradings import _decompositions, _projections, apply_automorphism
from usym.groups import FiniteGroup
from usym.io import load_algebra, load_group
from usym.unionfind import orbit_partition
from conftest import (
    S3,
    classified,
    cyclic_group_algebra,
    dual_numbers,
    full_matrices,
    full_space,
    residue_product,
    semisimple_derivations,
    triangular,
    trivial_point,
    truncated_cubic,
    upper_triangular,
)


def dimension_profile(grading):
    """(group element, dimension) for each nonzero component."""
    return tuple((k, v.dim) for k, v in grading.components.items())


def fmat(field, rows):
    return Matrix(field, [[field(x) for x in row] for row in rows])


def span(field, n, *vectors):
    return Subspace.from_vectors(
        field, n, [tuple(field(x) for x in v) for v in vectors]
    )


KLEIN = FiniteGroup(
    ("e", "a", "b", "c"),
    ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)),
)

GRID = [
    (dual_numbers, 2, cyclic_group(2)),
    (dual_numbers, 3, cyclic_group(2)),
    (dual_numbers, 2, cyclic_group(3)),
    (triangular, 2, cyclic_group(2)),
]


def test_trivial_point_is_point():
    for build, p, group in GRID:
        a = build(GF(p))
        assert is_grading_point(a, group, trivial_point(a, group))


def test_dual_c2_diagonal_point():
    f = GF(3)
    a = dual_numbers(f)
    c2 = cyclic_group(2)
    good = GradingPoint((fmat(f, [[1, 0], [0, 0]]), fmat(f, [[0, 0], [0, 1]])))
    assert is_grading_point(a, c2, good)
    # swapped family violates the unit-column condition
    bad = GradingPoint((fmat(f, [[0, 0], [0, 1]]), fmat(f, [[1, 0], [0, 0]])))
    assert not is_grading_point(a, c2, bad)


def test_point_shape_mismatch():
    f = GF(3)
    a = dual_numbers(f)
    c2 = cyclic_group(2)
    with pytest.raises(ValueError):
        is_grading_point(a, c2, trivial_point(a, cyclic_group(3)))


def test_grading_from_trivial_point():
    f = GF(3)
    a = dual_numbers(f)
    c2 = cyclic_group(2)
    g = grading_from_point(a, c2, trivial_point(a, c2))
    assert tuple(g.components) == (0,)
    assert g.component(0) == full_space(f, 2)


def test_grading_from_diagonal_point():
    f = GF(3)
    a = dual_numbers(f)
    c2 = cyclic_group(2)
    point = GradingPoint((fmat(f, [[1, 0], [0, 0]]), fmat(f, [[0, 0], [0, 1]])))
    g = grading_from_point(a, c2, point)
    assert g.component(0) == span(f, 2, (1, 0))
    assert g.component(1) == span(f, 2, (0, 1))
    assert sum(dim for _, dim in dimension_profile(g)) == 2


def test_point_from_grading_projections():
    f = GF(3)
    a = dual_numbers(f)
    c2 = cyclic_group(2)
    g = Grading(2, 2, {0: span(f, 2, (1, 0)), 1: span(f, 2, (0, 1))})
    point = point_from_grading(a, c2, g)
    assert point.matrices[0] == fmat(f, [[1, 0], [0, 0]])
    assert point.matrices[1] == fmat(f, [[0, 0], [0, 1]])


def test_validate_grading_examples():
    f = GF(3)
    a = dual_numbers(f)
    c2 = cyclic_group(2)
    trivial = Grading(2, 2, {0: full_space(f, 2)})
    assert validate_grading(a, c2, trivial)
    good = Grading(2, 2, {0: span(f, 2, (1, 0)), 1: span(f, 2, (0, 1))})
    assert validate_grading(a, c2, good)
    # unit not in the identity component
    swapped = Grading(2, 2, {0: span(f, 2, (0, 1)), 1: span(f, 2, (1, 0))})
    assert not validate_grading(a, c2, swapped)
    # components that do not sum to the whole space
    short = Grading(2, 2, {0: span(f, 2, (1, 0))})
    assert not validate_grading(a, c2, short)


def test_enumerate_points_c1():
    a = dual_numbers(GF(3))
    pts = enumerate_points(a, cyclic_group(1))
    assert len(pts) == 1
    assert pts[0] == trivial_point(a, cyclic_group(1))


def test_enumerate_dual_c2_gf3():
    a = dual_numbers(GF(3))
    pts = enumerate_points(a, cyclic_group(2))
    assert len(pts) == 2
    oracle = enumerate_gradings_oracle(a, cyclic_group(2))
    assert len(oracle) == 2


def test_enumerate_dual_c2_gf2_char_divides_order():
    # char 2, |G| = 2: an extra grading A_g = span(t+1) appears
    f = GF(2)
    a = dual_numbers(f)
    c2 = cyclic_group(2)
    pts = enumerate_points(a, c2)
    oracle = enumerate_gradings_oracle(a, c2)
    assert len(pts) == len(oracle) == 3
    shifted = Grading(2, 2, {0: span(f, 2, (1, 0)), 1: span(f, 2, (1, 1))})
    assert shifted in oracle


def test_bijection_grid():
    for build, p, group in GRID:
        a = build(GF(p))
        pts = enumerate_points(a, group)
        oracle = enumerate_gradings_oracle(a, group)
        induced = sorted(
            (grading_from_point(a, group, pt) for pt in pts), key=lambda g: g.sort_key()
        )
        assert list(induced) == list(oracle)
        for pt in pts:
            assert point_from_grading(a, group, grading_from_point(a, group, pt)) == pt


def _decomposition_route(a, group):
    """The grading points as the projection families of the ordered
    direct-sum decompositions, kept when they are points."""
    zeromat = Matrix.zeros(a.field, a.n, a.n)
    out = []
    for support, comps in _decompositions(a, group):
        projections = _projections(a.field, list(zip(support, comps)))
        pt = GradingPoint(tuple(projections.get(s, zeromat) for s in range(group.order)))
        if is_grading_point(a, group, pt):
            out.append(pt)
    return sorted(out, key=lambda pt: pt.sort_key())


def test_point_search_matches_decomposition_route():
    for build, p, group in GRID + [(triangular, 2, KLEIN)]:
        a = build(GF(p))
        assert list(enumerate_points(a, group)) == _decomposition_route(a, group)
    # the bound counts the values tried: T_2(GF(3)) with C3 tries 327
    with pytest.raises(SearchSizeError) as info:
        enumerate_points(triangular(GF(3)), cyclic_group(3), max_search=100)
    assert (info.value.needed, info.value.bound) == (101, 100)


def test_grading_oracle_validates_each_decomposition(monkeypatch):
    # M_2(GF(2)) with C2: 802 ordered direct-sum decompositions, each checked
    # once for multiplicativity, 5 of them gradings
    import usym.gradings

    a, c2 = full_matrices(GF(2)), cyclic_group(2)
    calls = []

    def counted(alg, group, grading, _original=validate_grading):
        calls.append(grading)
        return _original(alg, group, grading)

    monkeypatch.setattr(usym.gradings, "validate_grading", counted)
    assert len(enumerate_gradings_oracle(a, c2)) == 5
    assert len(calls) == 802 == sum(1 for _ in _decompositions(a, c2))


def test_grading_oracle_makes_no_field_scalars(monkeypatch):
    # the same 802 decompositions, eliminated and checked on residue rows:
    # no FpElement is constructed until a caller reads a component's basis,
    # which builds its n x dim entries
    from usym.fields import FpElement

    a, c2 = full_matrices(GF(2)), cyclic_group(2)
    made = []
    original = FpElement.__init__

    def counted(self, p, v):
        made.append(v)
        original(self, p, v)

    monkeypatch.setattr(FpElement, "__init__", counted)
    gradings = enumerate_gradings_oracle(a, c2)
    assert len(gradings) == 5 and len(made) == 0
    comps = [comp for gr in gradings for comp in gr.components.values()]
    assert all(comp.basis for comp in comps)
    assert len(made) == 5 * 4 * 4


@pytest.mark.parametrize("name", ["dual_gf3", "triangular_gf3"])
def test_point_searches_make_no_field_scalars(name, monkeypatch):
    # the searches hand out their points as Matrix residues, and End's table
    # and the re-check of each grading point run on those: no FpElement is
    # constructed
    from usym.fields import FpElement

    a, _ = load_algebra(str(fixture_path(f"{name}.json")))
    made = []
    original = FpElement.__init__

    def counted(self, p, v):
        made.append(v)
        original(self, p, v)

    monkeypatch.setattr(FpElement, "__init__", counted)
    assert len(enumerate_endomorphisms(a)) > 1 and made == []
    assert len(enumerate_points(a, cyclic_group(2))) > 1 and made == []


def test_enumerate_points_builds_the_tensor_algebra_once(monkeypatch):
    # enumerate_points re-checks each of its points with is_grading_point,
    # which builds A (x) k[G] once per algebra and group
    import usym.gradings

    built = []

    def counted(a, g, _original=usym.gradings._tensor_group_algebra):
        built.append((a, g))
        return _original(a, g)

    monkeypatch.setattr(usym.gradings, "_tensor_group_algebra", counted)
    a, b, c2, c3 = full_matrices(GF(2)), triangular(GF(3)), cyclic_group(2), cyclic_group(3)
    assert len(enumerate_points(a, c2)) == 5 and built == [(a, c2)]
    assert len(enumerate_points(b, c2)) > 1 and built == [(a, c2), (b, c2)]
    assert is_grading_point(a, c2, trivial_point(a, c2)) and len(built) == 2
    assert is_grading_point(a, c3, trivial_point(a, c3)) and built[2:] == [(a, c3)]
    # an equal group read again is the same key
    assert is_grading_point(a, cyclic_group(3), trivial_point(a, c3)) and len(built) == 3


def test_oracle_search_guard():
    a = triangular(GF(3))
    with pytest.raises(SearchSizeError):
        enumerate_gradings_oracle(a, cyclic_group(4), max_search=100)


def conjugate(point, m):
    return conjugate_point(point, m, m.inverse())


def test_conjugation_by_counit_fixes_points():
    a = dual_numbers(GF(3))
    c2 = cyclic_group(2)
    for pt in enumerate_points(a, c2):
        assert conjugate(pt, Matrix.identity(a.field, 2)) == pt


def test_conjugation_by_diagonal_fixes_diagonal_point():
    f = GF(3)
    a = dual_numbers(f)
    c2 = cyclic_group(2)
    diag_point = GradingPoint((fmat(f, [[1, 0], [0, 0]]), fmat(f, [[0, 0], [0, 1]])))
    m = fmat(f, [[1, 0], [0, 2]])
    assert conjugate(diag_point, m) == diag_point


def test_conjugation_is_group_action():
    for build, p, group in GRID:
        a = build(GF(p))
        pts = enumerate_points(a, group)
        aut = automorphism_group(a)
        for pt in pts:
            for m1, m2 in itertools.product(aut.points, repeat=2):
                assert conjugate(pt, m1 * m2) == conjugate(conjugate(pt, m2), m1)


def test_conjugate_of_point_is_point_and_moves_grading():
    for build, p, group in GRID:
        a = build(GF(p))
        pts = enumerate_points(a, group)
        aut = automorphism_group(a)
        for pt in pts:
            for m in aut.points:
                moved = conjugate(pt, m)
                assert is_grading_point(a, group, moved)
                expected = apply_automorphism(grading_from_point(a, group, pt), m)
                assert grading_from_point(a, group, moved) == expected


def test_conjugation_preserves_dimension_profile():
    for build, p, group in GRID:
        a = build(GF(p))
        pts = enumerate_points(a, group)
        aut = automorphism_group(a)
        for pt in pts:
            profile = sorted(
                d for _, d in dimension_profile(grading_from_point(a, group, pt))
            )
            for m in aut.points:
                moved = grading_from_point(a, group, conjugate(pt, m))
                assert sorted(d for _, d in dimension_profile(moved)) == profile


def test_conjugacy_is_equivalence_on_fixtures():
    a = triangular(GF(2))
    c2 = cyclic_group(2)
    pts = list(enumerate_points(a, c2))
    aut = automorphism_group(a)
    index = {pt.sort_key(): k for k, pt in enumerate(pts)}
    related = {
        (i, index[conjugate(pt, m).sort_key()])
        for i, pt in enumerate(pts)
        for m in aut.points
    }
    # reflexive (counit point), symmetric (inverse point), transitive (product)
    for i in range(len(pts)):
        assert (i, i) in related
    for i, j in list(related):
        assert (j, i) in related
    for i, j in list(related):
        for j2, k in list(related):
            if j2 == j:
                assert (i, k) in related


def test_classify_c1_single_class():
    _, result = classified(dual_numbers(GF(3)), cyclic_group(1))
    assert result.class_count == 1
    assert result.counts_agree and result.correspondence_ok


def test_classify_dual_c2_gf3_two_classes():
    _, result = classified(dual_numbers(GF(3)), cyclic_group(2))
    assert result.class_count == 2
    assert len(result.grading_orbits) == 2
    assert result.correspondence_ok


def test_classify_grid_agreement():
    for build, p, group in GRID:
        _, result = classified(build(GF(p)), group)
        assert result.counts_agree
        assert result.correspondence_ok


def t3(field):
    return upper_triangular(field, 3)


@pytest.mark.parametrize(
    "build, p, group",
    # T_2 over GF(3) with C2: 6 automorphisms, 4 points, 2 classes; T_3 over
    # GF(2) with C2: 8 automorphisms, 13 points, 4 classes, where the
    # decomposition oracle would walk 2825^2 subspace tuples
    GRID + [(triangular, 3, cyclic_group(2)), (t3, 2, cyclic_group(2))],
)
def test_class_count_is_burnside_count(build, p, group):
    # the orbit count is the mean number of points each automorphism fixes,
    # counted without orbit_partition
    points, result = classified(build(GF(p)), group)
    aut = result.automorphisms.points
    fixed = sum(conjugate(pt, m) == pt for m in aut for pt in points)
    assert fixed % len(aut) == 0
    assert result.class_count == fixed // len(aut)


def test_orbit_partition_of_s3_by_conjugation():
    # g x g^-1 for each g in S_3 (e, r, r^2, s, sr, sr^2): the conjugacy
    # classes {e}, the rotations, the reflections
    def conjugation(g):
        return lambda x: S3.mul(S3.mul(g, x), S3.inverses[g])

    actions = [conjugation(g) for g in range(S3.order)]
    assert orbit_partition(S3.order, actions) == ((0,), (1, 2), (3, 4, 5))


def test_orbit_partition_of_c4_rotating_two_cycles():
    # the rotation by k on each of the 4-cycles 0..3 and 4..7
    def rotation(k):
        return lambda x: x - x % 4 + (x + k) % 4

    actions = [rotation(k) for k in range(4)]
    assert orbit_partition(8, actions) == ((0, 1, 2, 3), (4, 5, 6, 7))


@pytest.mark.parametrize(
    "maps",
    [
        # no identity: 0 is not among its own images
        [lambda x: (x + 1) % 3],
        # the identity and a map sending 1 into the earlier orbit {0}
        [lambda x: x, lambda x: 0 if x < 2 else x],
    ],
    ids=["no-identity", "orbits-overlap"],
)
def test_orbit_partition_refuses_maps_that_are_not_a_group(maps):
    with pytest.raises(RuntimeError, match="do not act as a group"):
        orbit_partition(3, maps)


# An oracle for the comodule-algebra structure of a point, independent of the
# search: rho(e_i) = sum_{s, sigma} P^sigma[s][i] e_s (x) sigma in A (x) k[G].
# Elements of A (x) k[G] are {(s, sigma): c} dicts, those of
# A (x) k[G] (x) k[G] are {(s, sigma, tau): c} dicts, both without zeros.


def _accumulate(out, key, c):
    out[key] = out[key] + c if key in out else c


def _nonzero(d):
    return {key: c for key, c in d.items() if c}


def coaction(a, g, point, vec):
    """rho(x) for x = sum_i vec[i] e_i."""
    out = {}
    for i, x in enumerate(vec):
        for s in range(a.n):
            for sigma in range(g.order):
                _accumulate(out, (s, sigma), x * point.matrices[sigma].rows[s][i])
    return _nonzero(out)


def akg_mul(a, g, x, y):
    """The product of A (x) k[G]: (e_s (x) sigma)(e_t (x) tau) = e_s e_t (x) sigma tau."""
    out = {}
    for (s, sigma), c1 in x.items():
        for (t, tau), c2 in y.items():
            for u, c in a.basis_product(s, t).items():
                _accumulate(out, (u, g.mul(sigma, tau)), c * c1 * c2)
    return _nonzero(out)


def coaction_checks(a, g, point):
    """The five comodule-algebra axioms of rho, each True or False."""
    f, n = a.field, a.n
    basis = [a.basis_vector(i) for i in range(n)]
    rho = [coaction(a, g, point, v) for v in basis]

    def rho_then_id(x):  # (rho (x) id) x
        out = {}
        for (s, tau), c in x.items():
            for (u, sigma), d in rho[s].items():
                _accumulate(out, (u, sigma, tau), c * d)
        return _nonzero(out)

    def product(i, j):
        e_ij = a.basis_product(i, j)
        return coaction(a, g, point, [e_ij.get(u, f.zero) for u in range(n)])

    grading = grading_from_point(a, g, point)
    return {
        # (id (x) eps) rho = id, with eps(sigma) = 1
        "counit": all(
            tuple(sum((c for (s, _), c in rho[i].items() if s == t), f.zero) for t in range(n))
            == basis[i]
            for i in range(n)
        ),
        # rho(1) = 1 (x) e
        "unit": rho[0] == {(0, g.identity): f.one},
        # (rho (x) id) rho = (id (x) Delta) rho, with Delta(sigma) = sigma (x) sigma
        "coassoc": all(
            rho_then_id(r) == {(s, sigma, sigma): c for (s, sigma), c in r.items()}
            for r in rho
        ),
        # rho(e_i e_j) = rho(e_i) rho(e_j)
        "mult": all(
            akg_mul(a, g, rho[i], rho[j]) == product(i, j)
            for i in range(n)
            for j in range(n)
        ),
        # x in A_sigma has rho(x) = x (x) sigma
        "homogeneous": all(
            coaction(a, g, point, vec) == _nonzero({(s, sigma): vec[s] for s in range(n)})
            for sigma, comp in grading.components.items()
            for vec in comp.basis
        ),
    }


def test_coaction_trivial_point():
    f = GF(3)
    a = dual_numbers(f)
    c2 = cyclic_group(2)
    point = trivial_point(a, c2)
    assert all(coaction_checks(a, c2, point).values())
    # rho(e_i) = e_i (x) e
    for i in range(2):
        assert coaction(a, c2, point, a.basis_vector(i)) == {(i, 0): f.one}


def test_coaction_diagonal_point_reads_off_degree():
    f = GF(3)
    a = dual_numbers(f)
    c2 = cyclic_group(2)
    point = GradingPoint((fmat(f, [[1, 0], [0, 0]]), fmat(f, [[0, 0], [0, 1]])))
    assert all(coaction_checks(a, c2, point).values())
    # rho(t) = t (x) g
    assert coaction(a, c2, point, a.basis_vector(1)) == {(1, 1): f.one}


def test_coaction_checks_on_grid():
    for build, p, group in GRID:
        a = build(GF(p))
        for pt in enumerate_points(a, group):
            assert all(coaction_checks(a, group, pt).values())


@pytest.mark.parametrize(
    "build, matrices, failing",
    [
        # two idempotents that are not orthogonal and do not sum to 1
        (dual_numbers, ([[1, 0], [0, 1]], [[0, 0], [0, 1]]), {"counit", "coassoc", "homogeneous"}),
        # the unit put in degree g
        (dual_numbers, ([[0, 0], [0, 1]], [[1, 0], [0, 0]]), {"unit", "mult"}),
        # the idempotent e3 of T_2 put in degree g: e3 e3 = e3 lands in degree e
        (triangular, ([[1, 0, 0], [0, 1, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 1]]), {"mult"}),
    ],
)
def test_coaction_checks_fail_off_grading_points(build, matrices, failing):
    f = GF(3)
    a = build(f)
    c2 = cyclic_group(2)
    point = GradingPoint(tuple(fmat(f, rows) for rows in matrices))
    assert not is_grading_point(a, c2, point)
    checks = coaction_checks(a, c2, point)
    assert {name for name, ok in checks.items() if not ok} == failing


def test_homogeneous_membership_iff_coaction_fixes():
    # x in A_sigma iff rho(x) = x (x) sigma
    f = GF(2)
    a = triangular(f)
    c2 = cyclic_group(2)

    def rho(pt, vec):
        return [
            [
                sum((vec[i] * pt.matrices[tg].rows[s][i] for i in range(a.n)), f.zero)
                for tg in range(c2.order)
            ]
            for s in range(a.n)
        ]

    for pt in enumerate_points(a, c2):
        grading = grading_from_point(a, c2, pt)
        # forward: a homogeneous basis vector is fixed with its own degree
        for sigma, comp in grading.components.items():
            for vec in comp.basis:
                want = [
                    [vec[s] if tg == sigma else f.zero for tg in range(c2.order)]
                    for s in range(a.n)
                ]
                assert rho(pt, vec) == want
        # reverse: rho(x) = x (x) sigma forces membership in A_sigma,
        # checked over every nonzero vector of GF(2)^3
        import itertools as it

        for coords in it.product((f.zero, f.one), repeat=a.n):
            if not any(coords):
                continue
            for sigma in range(c2.order):
                fixed = rho(pt, coords) == [
                    [coords[s] if tg == sigma else f.zero for tg in range(c2.order)]
                    for s in range(a.n)
                ]
                comp = grading.component(sigma)
                member = comp is not None and comp.contains(coords)
                assert fixed == member


def test_enumerated_points_are_orthogonal_idempotent_families():
    for build, p, group in GRID:
        f = GF(p)
        a = build(f)
        for pt in enumerate_points(a, group):
            assert is_grading_point(a, group, pt)
            grading = grading_from_point(a, group, pt)
            assert validate_grading(a, group, grading)
            assert sum(comp.dim for comp in grading.components.values()) == a.n


def test_validate_grading_rejects_overlapping_components():
    f = GF(3)
    a = dual_numbers(f)
    c2 = cyclic_group(2)
    overlapping = Grading(
        2, 2, {0: full_space(f, 2), 1: span(f, 2, (0, 1))}
    )
    assert not validate_grading(a, c2, overlapping)


def test_klein_four_gradings_of_dual():
    from usym.groups import FiniteGroup

    k4 = FiniteGroup(
        ("e", "a", "b", "c"),
        ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)),
    )
    a = dual_numbers(GF(2))
    pts = enumerate_points(a, k4)
    oracle = enumerate_gradings_oracle(a, k4)
    assert len(pts) == len(oracle)
    _, result = classified(a, k4)
    assert result.counts_agree and result.correspondence_ok


def test_truncated_cubic_c2_classification():
    # the three lines span(x + c x^2) form one automorphism orbit, so the
    # four points fall into two classes (trivial + split)
    from conftest import truncated_cubic

    a = truncated_cubic(GF(3))
    points, result = classified(a, cyclic_group(2))
    assert len(points) == 4
    assert result.class_count == 2
    assert result.counts_agree and result.correspondence_ok


GF_FIXTURES = ["dual_gf2", "dual_gf3", "dual_gf5", "dual_gf7", "triangular_gf2", "triangular_gf3"]


@pytest.mark.parametrize(
    "name, group_name",
    [
        (name, group_name)
        for name in GF_FIXTURES
        for group_name in ("group_c2", "group_c3", "group_klein", "S3")
        # left out: the oracle's 28^6 subspace tuples exceed the default bound
        if (name, group_name) != ("triangular_gf3", "S3")
    ],
)
def test_points_equal_gradings_oracle_on_fixtures(name, group_name):
    a, _ = load_algebra(str(fixture_path(f"{name}.json")))
    group = S3 if group_name == "S3" else load_group(str(fixture_path(f"{group_name}.json")))[0]
    induced = sorted(
        (grading_from_point(a, group, pt) for pt in enumerate_points(a, group)),
        key=lambda g: g.sort_key(),
    )
    assert induced == list(enumerate_gradings_oracle(a, group))


def test_triangular_gf3_s3_point_count():
    # the case the oracle test above leaves out: 16 grading points
    assert len(enumerate_points(triangular(GF(3)), S3)) == 16


def dual_group_counts(aut, group):
    """The number of G-grading points and of their classes, read off Aut's
    multiplication table alone.  When G is abelian and k holds its
    characters, a G-grading is an action of the character group, which is
    isomorphic to G, on A by automorphisms, and isomorphic gradings are
    conjugate actions (Elduque & Kochetov, Gradings on Simple Lie Algebras,
    AMS 2013, 1.4).  So for G = C_m with m | p - 1 the points are the phi with
    phi^m = 1, and for the Klein group with p odd the commuting pairs
    (phi, psi) with phi^2 = psi^2 = 1; the classes are their orbits under
    simultaneous conjugation."""
    table = aut.multiplication_table()
    e, units = aut.identity_index, range(len(table))

    def power(x, k):
        y = e
        for _ in range(k):
            y = table[y][x]
        return y

    def order(sigma):  # of sigma in the group
        k, x = 1, sigma
        while x != group.identity:
            k, x = k + 1, group.mul(x, sigma)
        return k

    if any(order(sigma) == group.order for sigma in range(group.order)):
        actions = [(x,) for x in units if power(x, group.order) == e]
    else:
        assert group.order == 4  # the Klein group
        involutions = [x for x in units if power(x, 2) == e]
        actions = [(x, y) for x in involutions for y in involutions if table[x][y] == table[y][x]]
    inverse = [row.index(e) for row in table]
    classes = {
        min(tuple(table[table[g][x]][inverse[g]] for x in action) for g in units)
        for action in actions
    }
    return len(actions), len(classes)


def split_abelian_cases():
    """Each GF(p) fixture with each cyclic group of order dividing p - 1
    and, for p odd, the Klein group."""
    klein = load_group(str(fixture_path("group_klein.json")))[0]
    for name in GF_FIXTURES:
        p = int(name.rsplit("gf", 1)[1])
        for m in range(1, p):
            if (p - 1) % m == 0:
                yield pytest.param(name, cyclic_group(m), id=f"{name}-cyclic:{m}")
        if p % 2:
            yield pytest.param(name, klein, id=f"{name}-klein")


@pytest.mark.parametrize("name, group", split_abelian_cases())
def test_dual_group_counts_match_classify(name, group):
    a, _ = load_algebra(str(fixture_path(f"{name}.json")))
    points, result = classified(a, group)
    assert dual_group_counts(result.automorphisms, group) == (len(points), result.class_count)


@pytest.mark.parametrize(
    "a, group, counts",
    [
        (truncated_cubic(GF(7)), cyclic_group(3), (15, 3)),
        (cyclic_group_algebra(GF(5), 4), cyclic_group(2), (10, 3)),
    ],
    ids=["cubic_gf7-cyclic:3", "c4_gf5-cyclic:2"],
)
def test_dual_group_counts_beyond_the_oracle(a, group, counts):
    # the classes taken directly, as the conjugation orbits of the points,
    # are the oracle for classify's
    points, aut = enumerate_points(a, group), automorphism_group(a)
    pairs = [(m, m.inverse()) for m in aut.points]
    classes = {min(conjugate_point(pt, m, minv).sort_key() for m, minv in pairs) for pt in points}
    assert dual_group_counts(aut, group) == (len(points), len(classes)) == counts
    _, result = classified(a, group)
    assert result.class_count == len(classes)
    assert result.counts_agree and result.correspondence_ok


# name: (C_p-grading points, their classes); in characteristic p these are
# the derivations d with d^p = d and their Aut-conjugation orbits
DERIVATION_COUNTS = {
    "dual_gf2": (3, 3),
    "dual_gf3": (3, 3),
    "dual_gf5": (5, 5),
    "dual_gf7": (7, 7),
    "triangular_gf2": (3, 2),
    "triangular_gf3": (7, 3),
}


@pytest.mark.parametrize("name", GF_FIXTURES)
def test_semisimple_derivations_are_the_cyclic_p_gradings(name):
    a, _ = load_algebra(str(fixture_path(f"{name}.json")))
    p = a.field.characteristic
    points, result = classified(a, cyclic_group(p))
    derivations = semisimple_derivations(a)
    # d and d' are conjugate when m d = d' m for some m in Aut
    aut = [m.residues for m in result.automorphisms.points]
    classes: list = []
    for d in derivations:
        if not any(
            residue_product(m, c, p) == residue_product(d, m, p) for c in classes for m in aut
        ):
            classes.append(d)
    counts = (len(points), result.class_count)
    assert (len(derivations), len(classes)) == counts == DERIVATION_COUNTS[name]


def elementary_abelian(p: int) -> FiniteGroup:
    """C_p x C_p, element (a, b) at index a * p + b."""
    labels = [f"({a},{b})" for a in range(p) for b in range(p)]
    table = [
        [(x // p + y // p) % p * p + (x + y) % p for y in range(p * p)] for x in range(p * p)
    ]
    return FiniteGroup(labels, table)


@pytest.mark.parametrize(
    "name, group, count",
    [
        ("dual_gf2", "klein", 7),
        ("triangular_gf2", "klein", 7),
        ("dual_gf3", "C3xC3", 9),
    ],
)
def test_commuting_semisimple_derivations_are_the_cp_squared_gradings(name, group, count):
    a, _ = load_algebra(str(fixture_path(f"{name}.json")))
    p = a.field.characteristic
    if group == "klein":
        g = load_group(str(fixture_path("group_klein.json")))[0]
    else:
        g = elementary_abelian(p)
        assert validate_group(g) is None
    derivations = semisimple_derivations(a)
    pairs = [
        (d, e)
        for d in derivations
        for e in derivations
        if residue_product(d, e, p) == residue_product(e, d, p)
    ]
    assert len(pairs) == len(enumerate_points(a, g)) == count


@pytest.mark.parametrize("p, order", [(7, 7), (5, 8)])
def test_counit_forces_last_coefficient(p, order):
    # the counit fixes each entry's last coefficient: 494 and 399 values
    # find the gradings of the dual numbers, t in any one degree
    a, group = dual_numbers(GF(p)), cyclic_group(order)
    points = enumerate_points(a, group, max_search=10_000)
    profiles = sorted(dimension_profile(grading_from_point(a, group, pt)) for pt in points)
    assert profiles == [((0, 1), (k, 1)) for k in range(1, order)] + [((0, 2),)]


def test_point_search_convolves_in_group_order():
    # in k<x,y>/(x^2, y^2, yx), x in A_r and y in A_s put xy in A_rs; pin
    # every cell to the grading with xy in A_rs or the one with xy in A_sr
    # (r s != s r in S_3): the search keeps only the first
    f = GF(2)
    tau = {(0, j, j): f.one for j in range(4)}
    tau.update({(j, 0, j): f.one for j in range(4)})
    tau[(1, 2, 3)] = f.one
    a = FinAlgebra(f, 4, tau, ("1", "x", "y", "xy"))
    r, s = 1, 3
    assert validate_group(S3) is None
    assert S3.mul(r, s) != S3.mul(s, r)

    def point(degrees):
        return tuple(
            Matrix(f, [[f(int(i == j and degrees[j] == k)) for j in range(4)] for i in range(4)])
            for k in range(S3.order)
        )

    good, bad = point((0, r, s, S3.mul(r, s))), point((0, r, s, S3.mul(s, r)))
    assert is_grading_point(a, S3, GradingPoint(good))
    assert not is_grading_point(a, S3, GradingPoint(bad))
    # each cell x pinned by the equation (x - a)(x - b) = x^2 - (a + b) x + a b
    pins = []
    for i in range(4):
        for j in range(4):
            for k in range(S3.order):
                cell, u, v = (i, j, k), good[k].residues[i][j], bad[k].residues[i][j]
                pins.append([{(cell, cell): 1, (cell,): -(u + v), (): u * v}])
    assert search_points(a, S3, pins, DEFAULT_MAX_SEARCH, "pinned search") == [good]


def test_constant_conditions():
    # an equation with no free cell is a constant: nonzero, it leaves no
    # point; zero, it changes nothing.  The unit cell (0, 0, e) is 1 and the
    # other column-0 cells are 0, so an equation in them is a constant too
    a, group = dual_numbers(GF(3)), cyclic_group(2)

    def search(extra):
        return search_points(a, group, extra, DEFAULT_MAX_SEARCH, "constant condition")

    everything = search([])
    assert len(everything) == 9  # the algebra maps A -> A (x) k[C_2]
    assert search([[{(): 1}]]) == [] and search([[{(): 3}]]) == everything
    assert search([[{(): 0}]]) == everything
    assert search([[{((0, 0, 0),): 1}]]) == [] and search([[{((0, 0, 0),): 1, (): -1}]]) == everything
    assert search([[{((1, 0, 1),): 1, (): 2}]]) == [] and search([[{((1, 0, 1),): 1}]]) == everything
    assert search([[{((0, 0, 0), (0, 0, 0)): 1, ((1, 0, 0), (0, 1, 0)): 1}]]) == []
    assert search([[{(): 0}, {(): 2}]]) == [] and search([[{(): 0}], [{(): 2}]]) == []


@pytest.mark.parametrize("other", [GF(3), QQ], ids=["GF3", "QQ"])
def test_grading_point_of_another_field_is_refused(other):
    # the trivial point's residues read the same over GF(5); is_algebra_map
    # refuses the same mistake
    a, group = dual_numbers(GF(5)), cyclic_group(2)
    assert is_grading_point(a, group, trivial_point(a, group))
    foreign = trivial_point(dual_numbers(other), group)
    with pytest.raises(ValueError, match="share one field"):
        is_grading_point(a, group, foreign)
