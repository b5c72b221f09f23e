import functools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import usym.ncpoly as ncpoly_mod
from usym import (
    GF,
    QQ,
    FpElement,
    NCPoly,
    PresentationContradiction,
    RewriteSystem,
    complete,
    ideal_member_bounded,
    interreduce,
    tensor_normal_form,
    TensorPoly,
)
from usym.errors import CompletionBoundError, InputError
from usym.ncpoly import (
    RewriteRule,
    _PairQueue,
    _RuleIndex,
    _decode,
    _encode,
    _entry,
    _ints,
    _on_leg,
    _reduce,
    _relation,
    _scalars,
    _tensor_nf,
    format_poly,
    format_tensor,
    format_word,
    word_key,
)
from conftest import (
    cyclic_group_algebra,
    full_matrices,
    dual_numbers,
    iter_words,
    legwise_product,
    macaulay_rows,
    macaulay_system,
    overlap_candidates,
    permuted,
    poly_product,
    rescaled,
    rule_relation,
    scan_reduce,
    shifted,
    substituted,
    tensor_of,
    tensor_term,
    triangular,
    truncated_cubic,
    truncated_polynomial,
    upper_triangular,
)

ONE = QQ.one

X = (1, 2)  # x[1,2]
Y = (2, 2)  # x[2,2]


def poly(*terms):
    acc = {}
    for coeff, word in terms:
        acc[word] = acc.get(word, QQ.zero) + QQ(coeff)
    return NCPoly(acc)


def nilsquare_rules():
    """The system {x^2 -> 0, xy -> -yx} with xy chosen as the second lead
    (the opposite orientation to what deglex would pick)."""
    return RewriteSystem({}, [hand_rule((X, X)), hand_rule((X, Y), (-1, (Y, X)))], 0)


def test_order_precedence():
    # column-major precedence: x[a,1] generators are smallest
    assert word_key(((2, 1),)) < word_key(((1, 2),))
    assert word_key(((1, 2),)) < word_key(((2, 2),))
    assert word_key((X,)) < word_key((Y,))
    assert word_key((X, Y)) < word_key((Y, X))
    assert word_key(()) < word_key((X,))
    assert word_key((Y,)) < word_key((X, X))


# generators across the encoder's whole range, and a few close together so
# that words share prefixes and tie on length
GENERATORS = st.one_of(
    st.tuples(st.integers(1, 4095), st.integers(1, 271)),
    st.sampled_from([(1, 1), (2, 1), (1, 2), (4095, 1), (1, 271), (4095, 271)]),
)
TUPLE_WORDS = st.lists(GENERATORS, max_size=6).map(tuple)


@given(TUPLE_WORDS, TUPLE_WORDS)
def test_encoded_words_round_trip_in_word_key_order(u, v):
    # the int core's str words: one character per generator, decoded back to
    # the tuple word, and (len, str) ordering words as word_key does
    a, b = _encode(u), _encode(v)
    assert (_decode(a), _decode(b)) == (u, v) and (len(a), len(b)) == (len(u), len(v))
    assert ((len(a), a) < (len(b), b)) == (word_key(u) < word_key(v))
    assert (a == b) == (u == v)


def test_encoder_range_ends_at_the_last_character():
    # x[4095,271] is the last code point; one past on either index, or an
    # index below 1, raises instead of colliding with another generator
    corner = ((4095, 271), (1, 1), (4095, 1), (1, 271))
    w = _encode(corner)
    assert w[0] == chr(sys.maxunicode) and _decode(w) == corner
    assert _decode(_ints(NCPoly({corner: ONE}))[0].popitem()[0]) == corner
    for g in ((4096, 1), (1, 272), (0, 1), (1, 0)):
        with pytest.raises(InputError, match=rf"generator x\[{g[0]},{g[1]}\] is past"):
            _encode((X, g))
        with pytest.raises(InputError):
            interreduce([NCPoly({(g, X): ONE})])


def test_normal_form_kills_x_squared():
    system = nilsquare_rules()
    assert system.normal_form(poly((1, (X, X)))).is_zero()


def test_normal_form_empty_system_is_identity():
    p = poly((3, (X, Y, X)), (-2, ()))
    assert RewriteSystem().normal_form(p) == p


def test_normal_form_xyx_two_steps():
    # xyx -> -yx^2 -> 0 under the xy-lead orientation
    system = nilsquare_rules()
    assert system.normal_form(poly((1, (X, Y, X)))).is_zero()


def test_interreduce_substitutions():
    x21 = ((2, 1),)
    x11 = ((1, 1),)
    rels = [
        poly((1, x21)),
        poly((1, x11), (-1, ())),
        poly((1, (X, X))),
    ]
    system = interreduce(rels)
    assert set(system.subs) == {(2, 1), (1, 1)}
    assert system.subs[(1, 1)] == poly((1, ()))
    assert system.subs[(2, 1)].is_zero()
    assert len(system.rules) == 1
    assert system.rules[0].lead == (X, X)
    assert system.rules[0].rest.is_zero()


def test_interreduce_empty():
    system = interreduce([])
    assert not system.rules and not system.subs


def test_interreduce_contradiction():
    x = ((1, 1),)
    with pytest.raises(PresentationContradiction):
        interreduce([poly((1, x), (-1, ())), poly((1, x))])


@pytest.mark.parametrize(
    "field, interreduced, completed", [(QQ, "7/15", "-1/12"), (GF(11), "10", "10")], ids=["QQ", "GF11"]
)
def test_contradiction_message_shows_the_scalar(field, interreduced, completed):
    # the scalar is read back from the ints exactly, also where a step or a
    # pair scaled them: xy = 2/3 and xy = 1/5 force 2/3 - 1/5 = 7/15 = 0; with
    # xy -> 2/3 z, yz -> 5/4 x, zz -> 1/2 and xx -> 1/3, the overlap xyz gives
    # 2/3 zz - 5/4 xx = 1/3 - 5/12 = -1/12, formed on ints as 12 times that
    z = (1, 3)

    def rule(lead, c, w):
        return RewriteRule(lead, NCPoly({w: field(c)}))

    relations = [rule_relation(rule((X, Y), c, ()), field.one) for c in ("2/3", "1/5")]
    with pytest.raises(PresentationContradiction) as info:
        interreduce(relations)
    assert str(info.value) == f"relations force the scalar equation {interreduced} * 1 = 0"
    rules = [
        rule((X, Y), "2/3", (z,)), rule((Y, z), "5/4", (X,)),
        rule((z, z), "1/2", ()), rule((X, X), "1/3", ()),
    ]
    with pytest.raises(PresentationContradiction) as info:
        complete(RewriteSystem(rules=rules), 3)
    assert str(info.value) == f"relations force the scalar equation {completed} * 1 = 0"


def test_interreduce_cascaded_substitution():
    # y - x and x - 1 force both substitutions y -> 1 and x -> 1
    rels = [poly((1, (Y,)), (-1, (X,))), poly((1, (X,)), (-1, ()))]
    system = interreduce(rels)
    assert system.subs[(1, 2)] == poly((1, ()))
    assert system.subs[(2, 2)] == poly((1, ()))


def test_complete_resolves_overlap_without_new_rules():
    system = complete(nilsquare_rules(), 3)
    assert len(system.rules) == 2
    assert system.degree_bound == 3


def test_complete_single_rule_unchanged():
    system = RewriteSystem({}, [hand_rule((X, X))], 0)
    done = complete(system, 4)
    assert len(done.rules) == 1


def test_complete_char2_commutation_rule():
    f = GF(2)
    one = f.one
    xx = NCPoly({(X, X): one})
    xy_yx = NCPoly({(X, Y): one, (Y, X): one})  # xy + yx = 0, i.e. xy = yx in char 2
    system = complete(interreduce([xx, xy_yx]), 3)
    assert len(system.rules) == 2
    assert system.normal_form(NCPoly({(X, X, Y): one})).is_zero()


def test_complete_degree_bound_too_small():
    with pytest.raises(ValueError):
        complete(nilsquare_rules(), 1)


def test_ideal_member_bounded():
    system = complete(nilsquare_rules(), 4)
    member = poly((1, (X, X)), (1, (X, Y)), (1, (Y, X)))
    assert ideal_member_bounded(member, system, 4) is True
    assert system.normal_form(member).is_zero()
    assert ideal_member_bounded(NCPoly(), system, 4) is True
    assert ideal_member_bounded(poly((1, (Y,))), system, 4) is False
    assert system.normal_form(poly((1, (Y,)))) == poly((1, (Y,)))
    with pytest.raises(ValueError):
        ideal_member_bounded(poly((1, (Y,) * 6)), system, 4)


def test_tensor_normal_form():
    system = complete(nilsquare_rules(), 4)
    t = tensor_term((X, X), (Y,), ONE)
    assert tensor_normal_form(t, system).is_zero()
    keep = tensor_term((), (), QQ(5))
    assert tensor_normal_form(keep, system) == keep
    cancel = TensorPoly({((X, Y), ()): ONE, ((Y, X), ()): ONE})
    assert tensor_normal_form(cancel, system).is_zero()
    # three legs: a zero leg other than the first kills the whole term
    assert tensor_normal_form(tensor_term((Y,), (X, X), (Y,), ONE), system).is_zero()
    # xy -> -yx on the middle leg makes the two terms cancel
    cancel3 = TensorPoly({((Y,), (X, Y), (X,)): ONE, ((Y,), (Y, X), (X,)): ONE})
    assert tensor_normal_form(cancel3, system).is_zero()
    # the coefficient is reduced with the first leg and survives
    coeff3 = tensor_normal_form(tensor_term((X, Y), (Y,), (Y,), QQ(3)), system)
    assert coeff3 == tensor_term((Y, X), (Y,), (Y,), QQ(-3))
    assert format_tensor(coeff3) == "-3 * x[2,2] x[1,2] (x) x[2,2] (x) x[2,2]"


def test_polynomials_and_tensors_share_arithmetic_not_equality():
    # the empty word and the 0-leg key are both (): only the type tells
    # the constant polynomial 1 from the 0-leg tensor 1
    const, tensor = NCPoly({(): ONE}), TensorPoly({(): ONE})
    assert const.terms == tensor.terms
    assert const != tensor and tensor != const
    assert len({const, tensor}) == 2
    for t in (const, tensor, poly((2, (X, Y)), (-1, ())), tensor_term((X,), (Y,), QQ(3))):
        same = type(t)(dict(t.terms))
        assert same == t and hash(same) == hash(t)
        assert type(t + same) is type(t - same) is type(-t) is type(t)
        assert t + same == type(t)({k: c + c for k, c in t.terms.items()})
        assert (t - same).is_zero() and -(-t) == t
        assert type(t)({k: QQ.zero for k in t.terms}).is_zero()


def test_substitute():
    subs = {(1, 1): poly((1, ())), (2, 1): NCPoly()}
    p = poly((1, ((1, 1), (2, 2))), (1, ((2, 1),)), (2, ()))
    assert RewriteSystem(subs, []).normal_form(p) == poly((1, ((2, 2),)), (2, ()))


def test_rule_free_system_keeps_the_modulus(tmp_path):
    # a system with substitutions and no rules still reduces mod p: over
    # GF(3), x[2,1] -> 2 x[2,2] makes x[2,1] x[2,1] 4 x[2,2] x[2,2], and the
    # word table holds the residue 1, not 4; the legs of a tensor likewise
    from usym import build_presentation
    from conftest import algebra_file, ground_field, report_output

    f = GF(3)
    x21, x22 = (2, 1), (2, 2)
    system = RewriteSystem({x21: NCPoly({(x22,): f(2)})}, [])
    assert format_poly(system.normal_form(NCPoly({(x21, x21): f.one}))) == "1 * x[2,2] x[2,2]"
    assert system._nf[_encode((x21, x21))] == ({_encode((x22, x22)): 1}, 1)
    t = tensor_normal_form(TensorPoly({((x21, x21), (x21,)): f.one}), system)
    assert format_tensor(t) == "2 * x[2,2] x[2,2] (x) x[2,2]"
    assert system._nf[_encode((x21,))] == ({_encode((x22,)): 2}, 1)
    # k as an algebra over GF(3) eliminates its one generator and keeps no
    # rule: its tables hold GF(3) scalars
    p = build_presentation(ground_field(f), 3)
    assert not p.system.rules and p.system.subs == {(1, 1): NCPoly({(): f.one})}
    scalars = [*p.system.subs[1, 1].terms.values(), *p.delta[1, 1].terms.values()]
    scalars += [c for _, q in p.coaction[0] for c in q.terms.values()]
    assert scalars and all(type(c) is FpElement and c.p == 3 for c in scalars)
    assert p.delta[1, 1] == TensorPoly({((), ()): f.one})
    text = report_output(["present", algebra_file(tmp_path, "k", ground_field(f))])
    assert "eliminated (1):\n  x[1,1] -> 1 * 1\nrules (0):\n" in text


def test_format_round_trip_examples():
    assert format_word(()) == "1"
    assert format_poly(NCPoly()) == "0"
    assert format_poly(poly((1, (X, Y)), (1, (Y, X)))) == "1 * x[2,2] x[1,2] + 1 * x[1,2] x[2,2]"


def test_iter_words_deglex_order():
    words = list(iter_words([X, Y], 2))
    assert words == [(), (X,), (Y,), (X, X), (X, Y), (Y, X), (Y, Y)]
    keys = [word_key(w) for w in words]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# property tests


@st.composite
def small_polys(draw):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        length = draw(st.integers(min_value=0, max_value=3))
        word = tuple(draw(st.sampled_from([X, Y])) for _ in range(length))
        coeff = draw(st.integers(min_value=-3, max_value=3))
        terms[word] = terms.get(word, QQ.zero) + QQ(coeff)
    return NCPoly(terms)


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p - p).is_zero()


@settings(max_examples=40, deadline=None)
@given(small_polys())
def test_reduction_reaches_fixpoint_and_is_sound(p):
    system = complete(nilsquare_rules(), 8)
    nf = system.normal_form(p)
    # a normal form contains no occurrence of any leading word
    for word in nf.terms:
        for rule in system.rules:
            for k in range(len(word) - len(rule.lead) + 1):
                assert word[k : k + len(rule.lead)] != rule.lead
    # reducing again changes nothing
    assert system.normal_form(nf) == nf


def test_interreduce_preserves_ideal_membership(triangular_q):
    from usym import build_relations, build_presentation

    presentation = build_presentation(triangular_q, 4)
    for rel in build_relations(triangular_q):
        assert presentation.system.normal_form(rel).is_zero()


def test_strategy_independence_after_completion():
    rng = random.Random(3)
    system = complete(nilsquare_rules(), 6)
    gens = [X, Y]
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            word = tuple(rng.choice(gens) for _ in range(rng.randint(0, 4)))
            terms[word] = QQ(rng.randint(-4, 4))
        p = NCPoly(terms)
        assert system.normal_form(p) == scan_reduce(
            substituted(p, system.subs), list(system.rules), "reverse"
        )


def test_complete_random_systems_reach_confluence():
    rng = random.Random(5)
    gens = [X, Y, (1, 3)]
    for _ in range(12):
        rels = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                w = tuple(rng.choice(gens) for _ in range(rng.randint(0, 2)))
                terms[w] = terms.get(w, QQ.zero) + QQ(rng.randint(-2, 2))
            p = NCPoly(terms)
            if not p.is_zero():
                rels.append(p)
        try:
            system = complete(interreduce(rels), 6)
        except PresentationContradiction:
            continue
        for _ in range(20):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                w = tuple(rng.choice(gens) for _ in range(rng.randint(0, 4)))
                terms[w] = QQ(rng.randint(-3, 3))
            p = NCPoly(terms)
            assert system.normal_form(p) == scan_reduce(
                substituted(p, system.subs), list(system.rules), "reverse"
            )


def test_complete_discovers_substitutions_through_overlaps():
    # xy = 1 and yx = x force x = y = 1; the linear consequence only appears
    # while resolving the degree-3 overlap xyx
    rels = [
        poly((1, (X, Y)), (-1, ())),
        poly((1, (Y, X)), (-1, (X,))),
    ]
    base = interreduce(rels)
    assert not base.subs and len(base.rules) == 2
    done = complete(base, 4)
    assert done.subs == {X: poly((1, ())), Y: poly((1, ()))}
    assert not done.rules
    assert done.normal_form(poly((1, (X, Y, X, Y)))) == poly((1, ()))


@pytest.mark.parametrize(
    "build",
    [
        lambda: truncated_polynomial(QQ, 4),
        lambda: full_matrices(QQ),
        lambda: cyclic_group_algebra(QQ, 3),
        lambda: upper_triangular(QQ, 2),
        lambda: truncated_polynomial(GF(3), 3),
    ],
    ids=["poly4", "m2", "c3", "t2", "poly3_gf3"],
)
def test_completion_does_not_depend_on_relation_order(build):
    # the reduced basis truncated at the bound is unique (Bergman's diamond
    # lemma), so the order in which interreduction takes the relations, and
    # so the order in which completion meets its overlaps, cannot show
    from usym import build_relations

    relations = build_relations(build())
    want = complete(interreduce(relations), 3)
    for seed in range(8):
        shuffled = list(relations)
        random.Random(seed).shuffle(shuffled)
        assert complete(interreduce(shuffled), 3) == want


def test_completion_round_cap(monkeypatch):
    # xy = 1, yx = x (as above) takes exactly 3 rounds at degree 4: two that
    # add an S-polynomial and one that finds no new one
    base = interreduce([poly((1, (X, Y)), (-1, ())), poly((1, (Y, X)), (-1, (X,)))])
    monkeypatch.setattr(ncpoly_mod, "_COMPLETION_ROUND_CAP", 3)
    assert complete(base, 4).subs == {X: poly((1, ())), Y: poly((1, ()))}
    monkeypatch.setattr(ncpoly_mod, "_COMPLETION_ROUND_CAP", 2)
    with pytest.raises(CompletionBoundError) as info:
        complete(base, 4)
    assert str(info.value) == "no completion fixpoint within 2 rounds at degree bound 4"


# ---------------------------------------------------------------------------
# the rule index against the scan it replaced


def hand_rule(lead, *rest_terms):
    return RewriteRule(lead, poly(*rest_terms))


def rule_index(rules):
    """The _RuleIndex of a list of scalar rules, ranked by their places; its
    modulus is read off the rests, as RewriteSystem reads it."""
    read = [(_encode(r.lead), *_ints(r.rest)) for r in rules]
    m = max([x[3] for x in read], default=0)
    entries = [_entry(_relation(lead, d, ints, m)[0], lead, m) for lead, ints, d, _ in read]
    return _RuleIndex(entries, m)


def reduced(p, index):
    """_reduce on the ints of p, read back as field scalars."""
    ints, d, m = _ints(p)
    return NCPoly(_scalars(ints, d * _reduce(ints, index), m))


def assert_matches_scan(p, rules):
    """Indexed reduction equals the scan, term order included; returns it
    with the reverse-order scan's normal form."""
    got = reduced(p, rule_index(rules))
    want = scan_reduce(p, list(rules), "standard")
    assert got == want and list(got.terms) == list(want.terms)
    return got, scan_reduce(p, list(rules), "reverse")


def test_index_picks_lowest_rank_then_leftmost():
    # x y x holds two different leads; x y x y holds the lead xy twice
    xy_y = hand_rule((X, Y), (1, (Y,)))
    yx_2x = hand_rule((Y, X), (2, (X,)))
    for rules in ([xy_y, yx_2x], [yx_2x, xy_y]):
        for word in ((X, Y, X), (X, Y, X, Y), (Y, X, Y, X, Y)):
            standard, reverse = assert_matches_scan(poly((1, word)), rules)
            assert standard != reverse
    # one rule without self-overlaps is confluent, so only the order of the
    # terms shows which occurrence was rewritten first
    only = [hand_rule((X, Y), (1, (Y, Y)), (1, (X,)))]
    standard, reverse = assert_matches_scan(poly((1, (X, Y, X, Y))), only)
    assert standard == reverse and list(standard.terms) != list(reverse.terms)


def test_index_rules_sharing_a_lead():
    # a hand-built system may hold two rules with the same lead: reduction
    # applies the first, as the scan does, and the reverse scan the last
    first = hand_rule((X, Y), (1, (Y,)))
    second = hand_rule((X, Y), (3, (X,)))
    system = RewriteSystem({}, [first, second], 0)
    assert system.rules == (first, second)
    p = poly((1, (X, Y)), (2, (Y, Y, X)))
    assert system.normal_form(p) == poly((1, (Y,)), (2, (Y, Y, X)))
    assert system.normal_form(p) == scan_reduce(p, list(system.rules), "standard")
    reverse = scan_reduce(substituted(p, system.subs), list(system.rules), "reverse")
    assert reverse == poly((3, (X,)), (2, (Y, Y, X)))
    assert_matches_scan(poly((1, (X, Y, X, Y)), (1, (Y, X, Y))), [first, second])
    # and the word table reads the standard reduction of each word
    for q in (p, poly((1, (X, Y, X, Y)), (1, (Y, X, Y)))):
        assert_table_matches_reduce(RewriteSystem(rules=[first, second]), q)


def random_rule_list(rng, field):
    """1-5 rules over field on three generators, with leads of degree 2-3,
    in random order and not completed, and a polynomial of degree <= 6 to
    reduce modulo them."""
    gens = [X, Y, (1, 3)]

    def word(lo, hi):
        return tuple(rng.choice(gens) for _ in range(rng.randint(lo, hi)))

    rules = []
    for _ in range(rng.randint(1, 5)):
        lead = word(2, 3)
        rest = {}
        for _ in range(rng.randint(0, 3)):
            w = word(0, len(lead))
            if word_key(w) < word_key(lead):
                rest[w] = field(rng.randint(-3, 3))
        rules.append(RewriteRule(lead, NCPoly(rest)))
    terms = {word(0, 6): field(rng.randint(1, 4)) for _ in range(rng.randint(1, 4))}
    return rules, NCPoly(terms)


def test_index_matches_scan_on_random_rule_lists():
    # the choice of word, rule and position shows in the result
    rng = random.Random(11)
    differ = 0
    for _ in range(150):
        rules, p = random_rule_list(rng, QQ)
        standard, reverse = assert_matches_scan(p, rules)
        differ += standard != reverse
        assert_table_matches_reduce(RewriteSystem(rules=rules), p)
    assert differ >= 20  # 21 of the 150 with this seed


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF3"])
def test_reduction_is_linear_on_random_rule_lists(field):
    # completion reduces left - right of an overlap in one call, which is
    # NF(left) - NF(right) because the step taken on a word depends only on
    # that word, also modulo a rule list that is not confluent
    rng = random.Random(11)
    overlaps = irreducible = 0
    for _ in range(150):
        rules, p = random_rule_list(rng, field)
        index = rule_index(rules)
        for _, u, v, k, ri, rj in overlap_candidates(rules, 5):
            left = shifted(ri.rest, (), v[k:])
            right = shifted(rj.rest, u[: len(u) - k], ())
            assert reduced(left - right, index) == reduced(left, index) - reduced(right, index)
            overlaps += 1
        # the words of a normal form are irreducible: the word table marks
        # them, and both normal forms hand them back with their coefficients
        system = RewriteSystem(rules=rules)
        for w, c in reduced(p, index).terms.items():
            assert system.normal_form(NCPoly({w: c})) == NCPoly({w: c})
            assert system._nf[_encode(w)] is None
            t = tensor_term(w, (), w, c)
            assert tensor_normal_form(t, system) == t
            irreducible += 1
    # 619 overlaps with this seed, and 345 (QQ) or 237 (GF(3)) normal-form words
    assert overlaps >= 300 and irreducible >= 200


def coefficients(field):
    """Nonzero scalars of field; over QQ mostly neither 1 nor integers."""
    if field == QQ:
        return st.sampled_from(["7/3", "-1/2", "5/4", "-2/9", "3", "-1"]).map(QQ)
    return st.sampled_from(list(field.elements())[1:])


@st.composite
def rule_lists(draw, field):
    """1-4 rules on three generators, leads of degree 2-3, not completed, and
    a polynomial of degree <= 6 to reduce modulo them; over QQ most
    coefficients are neither 1 nor integers, so most rules have lc > 1 on
    ints."""
    gens = [X, Y, (1, 3)]

    def terms(lo, hi, size):
        word = st.lists(st.sampled_from(gens), min_size=lo, max_size=hi).map(tuple)
        return st.lists(st.tuples(word, coeffs), min_size=1, max_size=size).map(dict)

    coeffs = coefficients(field)
    leads = st.lists(st.sampled_from(gens), min_size=2, max_size=3).map(tuple)
    rules = []
    for lead in draw(st.lists(leads, min_size=1, max_size=4)):
        rest = draw(terms(0, len(lead), 3))
        rest = NCPoly({w: c for w, c in rest.items() if word_key(w) < word_key(lead)})
        rules.append(RewriteRule(lead, rest))
    return rules, NCPoly(draw(terms(0, 6, 4)))


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF3"])
@settings(deadline=None)
@given(data=st.data())
def test_int_reduction_matches_scalar_scan(field, data):
    # _reduce runs on ints and returns its scale s; the scan on field scalars
    # is the oracle: the ints end as d s times its normal form (d from
    # _ints), term order included, and over GF(p) s is 1
    rules, p = data.draw(rule_lists(field))
    ints, d, m = _ints(p)
    scale = _reduce(ints, rule_index(rules))
    want = scan_reduce(p, rules, "standard")
    assert _scalars(ints, d * scale, m) == want.terms
    assert [_decode(w) for w in ints] == list(want.terms)
    assert scale >= 1 and (m == 0 or scale == 1)


def test_reduce_scales_by_the_lead_coefficient_over_the_gcd():
    # xy -> 2/3 yx is 3 xy -> 2 yx on ints: a step on c xy scales the terms
    # by 3 / gcd(c, 3), so 1 xy scales them by 3 and 3 xy leaves them
    xy, yx, yy = _encode((X, Y)), _encode((Y, X)), _encode((Y, Y))
    index = rule_index([hand_rule((X, Y), ("2/3", (Y, X)))])
    assert index.first[xy][2:] == (3, {yx: 2})
    terms = {xy: 1, yy: 5}
    assert _reduce(terms, index) == 3 and terms == {yy: 15, yx: 2}
    terms = {xy: 3, yy: 5}
    assert _reduce(terms, index) == 1 and terms == {yy: 5, yx: 2}
    # over GF(p) the rule is its monic residues, and the terms never scale:
    # 4 xy + 3 yx -> 4 * 3 yx + 3 yx = 15 yx = 0 in GF(5)
    f = GF(5)
    index = rule_index([RewriteRule((X, Y), NCPoly({(Y, X): f(3)}))])
    assert index.modulus == 5 and index.first[xy][2:] == (1, {yx: 3})
    terms = {xy: 4, yx: 3}
    assert _reduce(terms, index) == 1 and terms == {}


def test_empty_rest_system_over_gf3():
    # rules with empty rests and no substitution carry no scalar, so the
    # system holds modulus 0 (see RewriteSystem): reduction only deletes
    # words, and normal forms keep the GF(3) scalars of the input
    f, z = GF(3), (1, 3)
    leads = [(X, X), (Y, z), (X, Y, X), (z, X, z)]
    system = RewriteSystem({}, [RewriteRule(lead, NCPoly()) for lead in leads])
    assert system._index.modulus == 0
    rng = random.Random(7)
    for _ in range(100):
        words = [tuple(rng.choice([X, Y, z]) for _ in range(rng.randint(0, 5))) for _ in range(4)]
        p = NCPoly({w: f(rng.randint(1, 2)) for w in words})
        got = system.normal_form(p)
        assert got == scan_reduce(p, list(system.rules), "standard")
        assert all(type(c) is FpElement and c.p == 3 for c in got.terms.values())
    # every overlap rewrites to zero both ways, so completion adds nothing:
    # the system comes back as it was, as the Macaulay oracle has it
    done = complete(system, 5)
    assert done == system and done.degree_bound == 5
    assert [(r.lead, r.rest) for r in done.rules] == [(lead, NCPoly()) for lead in leads]
    oracle = macaulay_system([NCPoly({lead: f.one}) for lead in leads], 5)
    assert same_as_macaulay(done, oracle)


def test_complete_reduces_a_second_rule_with_a_taken_lead():
    # a hand-built system may hold two rules with one lead; completion keeps
    # the first and reduces the second by it: xy - 3x -> y - 3x eliminates y
    first = hand_rule((X, Y), (1, (Y,)))
    second = hand_rule((X, Y), (3, (X,)))
    done = complete(RewriteSystem(rules=[first, second]), 4)
    assert done.subs == {Y: poly((3, (X,)))}
    assert [(r.lead, r.rest) for r in done.rules] == [((X, X), poly((1, (X,))))]
    for rule in (first, second):
        assert done.normal_form(rule_relation(rule, ONE)).is_zero()


def pair_queue_systems():
    from usym import build_presentation, fixture_path
    from usym.io import load_algebra

    rng = random.Random(11)
    for _ in range(150):
        yield random_rule_list(rng, QQ)[0]
    names = ["dual_q", "dual_gf3", "triangular_q", "triangular_gf2", "ground_field_q"]
    for name in names:
        algebra, _ = load_algebra(fixture_path(f"{name}.json"))
        yield build_presentation(algebra, 4).system.rules
    for build in (lambda: truncated_polynomial(QQ, 4), lambda: full_matrices(QQ)):
        yield build_presentation(build(), 4).system.rules


def test_pair_queue_matches_overlap_scan():
    # the queue forms each overlap pair once, from the prefix and suffix
    # maps of the leads, in whatever order the leads arrive; a discarded
    # lead leaves the maps, and one that comes back forms its pairs again
    rng = random.Random(4)
    pairs = 0
    for rules in pair_queue_systems():
        for bound in (4, 6):
            leads = list(dict.fromkeys(_encode(r.lead) for r in rules))
            rng.shuffle(leads)
            queue = _PairQueue(bound)
            for lead in leads:
                queue.add(lead)
            # the reference scan's overlaps, each once, as heap entries
            overlaps = {t[1:4] for t in overlap_candidates(rules, bound)}
            words = [(u + v[k:], u, v, k) for u, v, k in overlaps]
            want = sorted((len(w), *map(_encode, (w, u, v)), k) for w, u, v, k in words)
            assert sorted(queue.heap) == want
            pairs += len(want)
            gone = set(leads[: len(leads) // 2])
            for lead in gone:
                queue.discard(lead)
            queue.heap.clear()
            for lead in gone:
                queue.add(lead)
            assert sorted(queue.heap) == [t for t in want if t[2] in gone or t[3] in gone]
    assert pairs >= 1000


# ---------------------------------------------------------------------------
# the word table against the reduction it replaces


def assert_table_matches_reduce(system, p):
    """normal_form reads the word table; it must equal one _reduce of the
    whole substituted polynomial, also once every word is in the table."""
    want = reduced(substituted(p, system.subs), rule_index(system.rules))
    assert system.normal_form(p) == want
    for w, c in p.terms.items():
        single = NCPoly({w: c})
        assert system.normal_form(single) == reduced(
            substituted(single, system.subs), rule_index(system.rules)
        )
    assert system.normal_form(p) == want


def per_leg_tensor_normal_form(t, system):
    """The per-leg formula the word table replaced: each leg reduced as its
    own polynomial, the coefficient with the first leg, the others with 1."""
    def nf(word, c):
        return reduced(substituted(NCPoly({word: c}), system.subs), rule_index(system.rules))

    out = TensorPoly()
    for legs, c in t.terms.items():
        first = nf(legs[0], c)
        if not first.is_zero():
            out = out + tensor_of(first, *(nf(w, c / c) for w in legs[1:]))
    return out


def test_tensor_normal_form_matches_per_leg_formula():
    from usym import build_presentation
    from conftest import dual_numbers

    rng = random.Random(8)
    confluent = complete(nilsquare_rules(), 6)
    non_confluent = RewriteSystem(
        rules=[hand_rule((X, Y), (1, (Y,))), hand_rule((Y, X), (2, (X,))), hand_rule((Y, Y, Y))]
    )
    # a presentation's system also substitutes its eliminated generators
    presentation = build_presentation(dual_numbers(QQ), 3).system
    cases = [
        (confluent, [X, Y]),
        (non_confluent, [X, Y]),
        (presentation, [(1, 1), (2, 1), (1, 2), (2, 2)]),
    ]
    nonzero = 0
    for system, gens in cases:
        for legs in (2, 3):
            for _ in range(60):
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    key = tuple(
                        tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
                        for _ in range(legs)
                    )
                    terms[key] = QQ(rng.choice([-2, -1, 1, 3, "1/2"]))
                t = TensorPoly(terms)
                got = tensor_normal_form(t, system)
                assert got == per_leg_tensor_normal_form(t, system)
                nonzero += not got.is_zero()
    assert nonzero >= 100


FIELDS = pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["QQ", "GF3", "GF5"])


@FIELDS
@settings(deadline=None)
@given(data=st.data())
def test_int_tensor_core_matches_per_leg_formula(field, data):
    # _tensor_nf on the ints of a random 2- or 3-leg tensor, modulo a rule
    # list that is not confluent (over QQ most rules have lc > 1, so the
    # word table's normal forms carry denominators) and a substitution for
    # x[2,1]: ints / d are the per-leg formula's terms on field scalars, and
    # over GF(p) nonzero residues with d = 1, also once the words are in
    # the table
    rules, _ = data.draw(rule_lists(field))
    coeffs = coefficients(field)
    sub = {(): data.draw(coeffs), (X,): data.draw(coeffs), (Y, X): data.draw(coeffs)}
    system = RewriteSystem({(2, 1): NCPoly(sub)}, rules)
    word = st.lists(st.sampled_from([X, Y, (1, 3), (2, 1)]), max_size=3).map(tuple)
    legs = data.draw(st.sampled_from([2, 3]))
    t = TensorPoly(data.draw(st.dictionaries(st.tuples(*[word] * legs), coeffs, max_size=5)))
    ints, d, m = _ints(t)
    out, e = _tensor_nf(ints, m, system)
    assert _scalars(out, d * e, m) == per_leg_tensor_normal_form(t, system).terms
    assert m == 0 or (e == 1 and all(0 < v < m for v in out.values()))
    assert _tensor_nf(ints, m, system) == (out, e)


def legwise_image(table, legs, t, leg, field):
    """table applied to leg `leg` of t on field scalars, each word by its
    legwise product (see conftest); zero terms dropped."""
    out = {}
    for key, c in t.terms.items():
        for split, x in legwise_product(table, legs, key[leg], field).items():
            k = key[:leg] + split + key[leg + 1 :]
            out[k] = out.get(k, field.zero) + c * x
    return {k: c for k, c in out.items() if c}


@functools.cache
def triangular_presentation(field):
    from usym import build_presentation

    return build_presentation(triangular(field), 3)


@FIELDS
@settings(deadline=None)
@given(data=st.data())
def test_int_on_leg_matches_scalar_legwise_product(field, data):
    # the Delta and eps tables of T_2 with each term rescaled (over QQ by
    # scalars such as 7/3, so the tables have denominators > 1), as int
    # tables of the format the presentation holds (see _on_leg: one int
    # image over its own denominator per generator), applied to one leg of a
    # random tensor whose words on that leg have mixed lengths: the result /
    # its denominator is the legwise product on field scalars, and over
    # GF(p) nonzero residues over 1
    p = triangular_presentation(field)
    coeffs = coefficients(field)
    delta = {
        g: TensorPoly({k: c * data.draw(coeffs) for k, c in t.terms.items()})
        for g, t in p.delta.items()
    }
    values = st.one_of(st.just(field.zero), coeffs)
    eps = {g: data.draw(values) for g in p.eps}
    m = field.characteristic
    int_delta = {_encode((g,)): _ints(t)[:2] for g, t in delta.items()}
    int_eps = {_encode((g,)): _ints(TensorPoly({(): c}))[:2] for g, c in eps.items()}
    size = data.draw(st.sampled_from([1, 2, 3]))
    word = st.lists(st.sampled_from(list(p.delta)), max_size=3).map(tuple)
    t = TensorPoly(data.draw(st.dictionaries(st.tuples(*[word] * size), coeffs, max_size=5)))
    leg = data.draw(st.integers(0, size - 1))
    terms, den, _ = _ints(t)
    scalar_eps = {g: TensorPoly({(): c}) for g, c in eps.items()}
    for table, legs, scalars in ((int_delta, 2, delta), (int_eps, 0, scalar_eps)):
        got, got_den = _on_leg(table, legs, (terms, den), leg, m)
        assert _scalars(got, got_den, m) == legwise_image(scalars, legs, t, leg, field)
        assert m == 0 or (got_den == 1 and all(0 < v < m for v in got.values()))


def test_check_reduces_each_word_once(monkeypatch, tmp_path):
    from usym import build_presentation
    from usym.cli import main
    from conftest import algebra_file, truncated_polynomial

    calls = []

    def counted(ints, index, _original=_reduce):
        calls.append("standard")
        return _original(ints, index)

    monkeypatch.setattr(ncpoly_mod, "_reduce", counted)
    path = algebra_file(tmp_path, "x4", truncated_polynomial(QQ, 4))
    assert main(["check", path, "--max-degree", "4"]) == 0
    # completion (one reduction per overlap) and interreduction, then one
    # reduction per distinct word (3,316 when every normal_form and tensor
    # leg ran its own reduction, 559 when each overlap reduced its two sides
    # apart, 451 when interreduction took the unit relations last; 333
    # while coaction-mult substituted each raw relation first, so that its
    # words were already in the table: now each of the 74 raw words costs a
    # reduction as it enters the table once, cheaper than a substitution and
    # a read-back per relation; 407 while tensor normal forms reduced every
    # leg of every term, also the later legs of terms that cancel once their
    # first leg is reduced)
    assert len(calls) == 353
    system = build_presentation(truncated_polynomial(QQ, 4), 4).system
    # two reducible words and one with the eliminated generator x[2,1]
    p = poly((2, ((3, 2), (1, 2))), (-1, ((2, 1), (2, 2))), (1, ((2, 2), (1, 3))))
    calls.clear()
    first = system.normal_form(p)
    assert calls == ["standard"] * 3
    assert first == poly(
        (-2, ((2, 2), (2, 2))), (-2, ((1, 2), (3, 2))), (2, ((3, 3),)),
        (-1, ((1, 2), (2, 3))), (1, ((2, 4),)),
    )
    assert system.normal_form(p) == first
    three = NCPoly({(): QQ(3)})
    assert system.normal_form(poly_product(three, p)) == poly_product(three, first)
    assert len(calls) == 3


def test_scalar_work_of_present_and_check(monkeypatch, tmp_path):
    from fractions import Fraction
    from usym.cli import main
    from conftest import algebra_file, truncated_polynomial

    counts = {"mul": 0, "div": 0, "new": 0}

    def counted(name, original):
        def op(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return op

    monkeypatch.setattr(Fraction, "__mul__", counted("mul", Fraction.__mul__))
    monkeypatch.setattr(Fraction, "__truediv__", counted("div", Fraction.__truediv__))
    # "new" counts every Fraction constructed
    monkeypatch.setattr(Fraction, "__new__", counted("new", Fraction.__new__))
    if hasattr(Fraction, "_from_coprime_ints"):  # Python >= 3.12 makes results here
        original = Fraction._from_coprime_ints.__func__
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted("new", original)))
    path = algebra_file(tmp_path, "x4", truncated_polynomial(QQ, 4))
    assert main(["present", path, "--max-degree", "4"]) == 0
    # 714 and 415 when interreduction took the unit relations last and
    # completion sent every rule back through interreduction
    # 711 before Delta was tabulated on the eliminated generators too; 712
    # and 107 while reduction and completion ran on Fractions, not on ints;
    # 110 multiplications and 560 Fractions while the rule state read every
    # new rule into Fractions and back, build_relations summed each term
    # onto a zero, and Delta was tabulated by TensorPoly.of; 425 Fractions
    # while the rules view negated every rest into the relation lead - rest;
    # 358 while the Delta table held Delta(x[1,1]) = 1 (x) 1 as a Fraction
    # (the Delta view reads a lone term of coefficient one as the field's one);
    # 40 multiplications and 357 Fractions while validate_algebra ran its
    # associativity loop on Fractions
    # (and Python >= 3.12 made 20 more there, turning the int of each
    # int-by-Fraction operation into a Fraction first)
    assert counts == {"mul": 0, "div": 0, "new": 277}
    counts.update(mul=0, div=0, new=0)
    assert main(["check", path, "--max-degree", "4"]) == 0
    # 7,973 and 1,867 when each overlap reduced its two sides apart, every
    # reduction step scaled a shifted copy of the rule, and every normal-form
    # word was multiplied by its coefficient, even a word that is its own
    # normal form; 2,841 and 572 before degree-first interreduction, and
    # while Delta of a word multiplied coefficients equal to one; 1,724 and
    # 264 while coaction-coassoc read Delta of a generator where it now forms
    # (eta (x) id) eta; 1,789 and 338 while coaction-mult handed the raw
    # relations to the word table (a raw word costs a division as it enters);
    # 1,763 and 264 while reduction and completion ran on Fractions; 1,095
    # and 157 while the word table held Fractions (one division per word as
    # it entered) and the bialgebra checker applied Delta and eps and took
    # tensor normal forms on field scalars; 180 multiplications and 932
    # Fractions while the rule state and the word table read their ints
    # into Fractions and back, and substitute multiplied NCPolys; 80 and 554
    # while coaction-coassoc formed (eta (x) id) eta with TensorPoly.of on
    # field scalars and coaction-mult read each substituted relation back;
    # 292 while build_presentation tabulated Delta as field scalars (40 of
    # them) and read the substitutions' view (x[1,1] -> 1) for the coaction,
    # and the checkers read both straight back into ints; 40 and 251 while
    # validate_algebra ran on Fractions: the 171 left are build_relations'
    # 161 and the input's 10, and a passing check builds no table scalar
    assert counts == {"mul": 0, "div": 0, "new": 171}


# ---------------------------------------------------------------------------
# completion on ints, and against the Macaulay-matrix oracle


@pytest.mark.parametrize(
    "step, build, bound, confluent",
    [
        ("complete", lambda: full_matrices(QQ), 3, True),
        ("complete", lambda: truncated_polynomial(GF(3), 4), 4, True),
        ("complete", lambda: permuted(truncated_polynomial(QQ, 4), [0, 2, 1, 3]), 3, False),
        ("interreduce", lambda: full_matrices(QQ), 3, True),
        ("interreduce", lambda: truncated_polynomial(GF(3), 4), 4, True),
    ],
    ids=["m2_QQ", "poly4_GF3", "poly4_0213_QQ", "interreduce-m2_QQ", "interreduce-poly4_GF3"],
)
def test_complete_makes_no_scalars_on_a_confluent_system(
    step, build, bound, confluent, monkeypatch
):
    # the rule state holds its rules, substitutions and work items on ints.
    # Every critical pair of the m2 and poly4 systems reduces to zero, and
    # the pair loop forms and reduces each on the rules' ints; those of the
    # 28-round basis of k[x]/(x^4) do not, and each S-polynomial enters the
    # state as an int relation.  Interreduction reads its relations once.
    # So neither constructs a Fraction or an FpElement; reading the result's
    # rules and subs may
    from fractions import Fraction
    from usym import build_relations
    from usym.fields import FpElement

    relations = build_relations(build())
    system = interreduce(relations)
    assert len(overlap_candidates(list(system.rules), bound)) > 100
    made = []

    def counting(original):
        def made_one(*args, **kwargs):
            made.append(args[1:])
            return original(*args, **kwargs)
        return made_one

    monkeypatch.setattr(Fraction, "__new__", counting(Fraction.__new__))
    if hasattr(Fraction, "_from_coprime_ints"):  # Python >= 3.12 makes results here
        original = Fraction._from_coprime_ints.__func__
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting(original)))
    monkeypatch.setattr(FpElement, "__init__", counting(FpElement.__init__))
    done = complete(system, bound) if step == "complete" else interreduce(relations)
    assert made == []
    monkeypatch.undo()
    assert (done == system) == confluent
    assert done.degree_bound == (bound if step == "complete" else 0)


def macaulay_cases():
    """(name, algebra builder, degree bound, deep only): the fixtures, and
    the presentations that tests/test_rewrite_bytes.py pins by sha256, at
    D=3 where D=4 would cost the oracle more than a few seconds."""
    from usym import fixture_path
    from usym.io import load_algebra

    names = [
        "dual_gf2", "dual_gf3", "dual_gf5", "dual_gf7", "dual_q",
        "ground_field_q", "triangular_gf2", "triangular_gf3", "triangular_q",
    ]
    for name in names:
        yield name, lambda name=name: load_algebra(fixture_path(f"{name}.json"))[0], 3, False
    yield "triangular_q_D4", lambda: triangular(QQ), 4, True
    # bases with constants such as 7/3, so that rules have lc > 1 on ints
    yield "triangular_rescaled", lambda: rescaled(triangular(QQ), [1, "7/3", "-2/5"]), 3, False
    yield "cubic_rescaled", lambda: rescaled(truncated_cubic(QQ), [1, "2/3", "-5/4"]), 3, False
    yield "poly4_0213_rescaled", lambda: rescaled(
        permuted(truncated_polynomial(QQ, 4), [0, 2, 1, 3]), [1, "2/3", "-5/4", "7/2"]
    ), 3, True
    yield "poly4", lambda: truncated_polynomial(QQ, 4), 3, False
    yield "poly4_GF3", lambda: truncated_polynomial(GF(3), 4), 3, False
    yield "m2", lambda: full_matrices(QQ), 3, False
    yield "m2_reversed", lambda: permuted(full_matrices(QQ), [0, 3, 2, 1]), 3, True
    yield "c4", lambda: cyclic_group_algebra(QQ, 4), 3, True
    # bases whose completion takes 28 rounds (k[x]/(x^4)), and took 129
    # when each round resolved one S-polynomial (k[x]/(x^5))
    for n, perm, deep in ((4, [0, 2, 1, 3], False), (4, [0, 3, 2, 1], False),
                          (5, [0, 1, 4, 3, 2], True), (5, [0, 3, 4, 2, 1], True)):
        name = f"poly{n}_" + "".join(map(str, perm))
        yield name, lambda n=n, perm=perm: permuted(truncated_polynomial(QQ, n), perm), 3, deep


def same_as_macaulay(system, oracle):
    subs, rules = oracle
    ordered = sorted(rules.items(), key=lambda rule: word_key(rule[0]))
    return system.subs == subs and [(r.lead, r.rest) for r in system.rules] == ordered


MACAULAY = list(macaulay_cases())


@pytest.mark.parametrize("build, bound, deep", [c[1:] for c in MACAULAY], ids=[c[0] for c in MACAULAY])
def test_completion_matches_macaulay_oracle(build, bound, deep, request):
    # about 2 s in all; the cases marked deep (4 s more) run only under
    # --hypothesis-profile=deep
    from usym import build_presentation, build_relations

    if deep and request.config.getoption("--hypothesis-profile") != "deep":
        pytest.skip("runs under --hypothesis-profile=deep")
    algebra = build()
    oracle = macaulay_system(build_relations(algebra), bound)
    assert same_as_macaulay(build_presentation(algebra, bound).system, oracle)


def test_macaulay_comparison_catches_tampering():
    # a system with one rule dropped, or with one coefficient changed,
    # differs from the oracle
    from usym import build_presentation, build_relations

    algebra = permuted(truncated_polynomial(QQ, 4), [0, 2, 1, 3])
    system = build_presentation(algebra, 3).system
    oracle = macaulay_system(build_relations(algebra), 3)
    assert same_as_macaulay(system, oracle)
    rules = list(system.rules)
    k = next(k for k, r in enumerate(rules) if not r.rest.is_zero())
    dropped = rules[:k] + rules[k + 1 :]
    assert not same_as_macaulay(RewriteSystem(system.subs, dropped, 3), oracle)
    lead, rest = rules[k].lead, dict(rules[k].rest.terms)
    w = next(iter(rest))
    rest[w] = rest[w] + ONE
    changed = rules[:k] + [RewriteRule(lead, NCPoly(rest))] + rules[k + 1 :]
    assert not same_as_macaulay(RewriteSystem(system.subs, changed, 3), oracle)
    assert same_as_macaulay(RewriteSystem(system.subs, rules, 3), oracle)


@pytest.mark.parametrize("build", [triangular, truncated_cubic], ids=["T2", "cubic"])
def test_normal_forms_match_macaulay_rows(build):
    # on every word of degree <= D over the n^2 = 9 generators, normal_form
    # is reduction by the oracle's rows: a pivot word goes to itself minus
    # its row, any other word to itself
    from usym import build_presentation, build_relations

    algebra, bound = build(QQ), 3
    relations = build_relations(algebra)
    rows = macaulay_rows(relations, bound)
    system = build_presentation(algebra, bound).system
    gens = {g for r in relations for w in r.terms for g in w}
    words = list(iter_words(gens, bound))
    assert len(gens) == 9 and len(words) == 820 and len(rows) > 400
    for w in words:
        assert system.normal_form(NCPoly({w: ONE})) == NCPoly({w: ONE}) - NCPoly(rows.get(w, {}))


@pytest.mark.parametrize(
    "build, counts",
    [
        (lambda: dual_numbers(QQ), {2: 2, 3: 2, 4: 2}),
        # the basis whose completion takes 28 rounds: D = 3 adds 27 rules of degree 3
        (lambda: permuted(truncated_polynomial(QQ, 4), [0, 2, 1, 3]), {2: 36, 3: 63}),
    ],
    ids=["dual", "poly4_0213"],
)
def test_no_degree_fall_from_D_to_D_plus_1(build, counts):
    # completing at D + 1 keeps the substitutions and the rules of degree
    # <= D of the system completed at D and adds rules of degree D + 1 only;
    # so does the oracle.  counts: the number of rules at each D
    from usym import build_presentation, build_relations

    algebra = build()
    relations = build_relations(algebra)
    systems = {bound: build_presentation(algebra, bound).system for bound in counts}
    assert {bound: len(s.rules) for bound, s in systems.items()} == counts
    for bound in list(counts)[:-1]:
        low, high = systems[bound], systems[bound + 1]
        assert high.subs == low.subs
        assert [r for r in high.rules if len(r.lead) <= bound] == list(low.rules)
        subs, rules = macaulay_system(relations, bound + 1)
        assert same_as_macaulay(low, (subs, {w: r for w, r in rules.items() if len(w) <= bound}))
