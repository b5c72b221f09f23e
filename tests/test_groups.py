from usym import FiniteGroup, cyclic_group, validate_group


def test_cyclic_groups():
    c1 = cyclic_group(1)
    assert c1.order == 1 and c1.identity == 0
    c2 = cyclic_group(2)
    assert validate_group(c2) is None
    assert c2.mul(1, 1) == 0
    assert c2.inverses == (0, 1)
    c6 = cyclic_group(6)
    assert validate_group(c6) is None
    assert c6.inverses[1] == 5
    assert c6.labels == ("e", "g", "g^2", "g^3", "g^4", "g^5")


def test_klein_four_group():
    k4 = FiniteGroup(
        ("e", "a", "b", "c"),
        ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)),
    )
    assert validate_group(k4) is None
    assert k4.identity == 0
    assert k4.inverses == (0, 1, 2, 3)
    assert all(k4.mul(i, i) == 0 for i in range(4))


def test_broken_associativity_rejected():
    # swap one entry of C3's table: associativity fails
    g = FiniteGroup(("e", "g", "h"), ((0, 1, 2), (1, 2, 0), (2, 1, 0)))
    violation = validate_group(g)
    assert violation is not None
    assert violation.kind in ("associativity", "identity", "inverses")


def test_no_identity_rejected():
    g = FiniteGroup(("a", "b"), ((1, 0), (0, 1)))
    # table is C2 with labels swapped: 'b' acts as identity? here table[0][0]=1
    # means a*a=b, a*b=a ... identity is b at index 1, so this IS a group
    assert validate_group(g) is None
    assert g.identity == 1
    bad = FiniteGroup(("a", "b"), ((1, 1), (1, 1)))
    assert validate_group(bad) is not None


def test_table_shape_violations():
    bad = FiniteGroup(("e", "g"), ((0, 1),))
    assert validate_group(bad).kind == "shape"
    bad2 = FiniteGroup(("e", "g"), ((0, 5), (1, 0)))
    assert validate_group(bad2).kind == "shape"
