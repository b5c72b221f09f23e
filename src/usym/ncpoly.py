"""Noncommutative polynomials on indexed generators, with deglex rewriting
and bounded overlap completion.

Generators are pairs ``(s, i)`` (1-based) printed ``x[s,i]``.  The monomial
order is degree-first, then left-to-right lexicographic on the generator
precedence ``(s, i) < (s', i')  iff  i < i' or (i = i' and s < s')``, so the
first-column generators ``x[a,1]`` are the smallest and get eliminated by
substitution.  Rewrite rules are stored monic with the leading word on the
left; a rewrite system also carries the substitutions for eliminated
generators, so together they generate the full defining ideal.

Reduction finds its steps through a rule index (``_RuleIndex``): a dict from
each lead word to its rule and rank, and the set of lead lengths, so a word
w is tested with O(|w| * #lengths) hash probes of its factors.  A
RewriteSystem builds its index once; interreduction keeps one in step with
its working rules.  Each step takes exactly what a scan of every word, rule
and position would: the largest reducible word, the rule of lowest rank whose
lead occurs in it, and that lead's leftmost occurrence.  By the diamond lemma
the choice cannot change a normal form modulo a confluent system, but it does
modulo an unfinished one, which is what interreduction and completion reduce
against.

Reduction runs on ints (``_ints``): residues over GF(p), and over QQ the
Fractions times their common denominator, each rule held as lc * lead ->
rest (lc = 1 over GF(p), and lc > 0 with content 1 over QQ).  A step on
c * w, g = gcd(c, lc), multiplies all terms by lc/g and adds c/g times the
shifted rest, so no division runs until the result is read back.  Scaling
keeps the set of words present, so each step and result is as on scalars.

Modulo a fixed rule list the step taken on a word depends only on that word,
so the normal form is a linear map (Bergman, *The diamond lemma for ring
theory*, 1978): NF(sum c_w w) = sum c_w NF(w).  A RewriteSystem therefore
keeps a word table, filled the first time a word is asked, with the normal
form of 1 * w (substituted, then reduced), or a mark that w is its own
normal form; ``normal_form`` and every leg of ``tensor_normal_form`` read it,
so each word is reduced once per system, and a marked word is copied with
its coefficient instead of multiplied by 1.  The polynomials given to one
system share its field.

Interreduction and completion work on one rule state (``_RuleState``): the
substitutions, the rule index and, for each lead, the factors of its rule's
words.  Interreduction takes the relations in order of degree, so the
linear ones become substitutions before any other is oriented; a new lead
sends back only the rules it occurs in.  Completion seeds the state with the
rules as they stand and keeps their critical pairs on a heap
(``_PairQueue``), formed once per new lead by probing maps of the leads'
prefixes and suffixes.  It resolves them smallest overlap word first, each
by one reduction of left - right (the two rewrites of the overlap word, so
the words the two sides share cancel before any step runs), and a nonzero
S-polynomial enters the state as one more relation.  The truncated reduced
basis this reaches is unique (Bergman), so neither the order of the
relations nor that of the pairs can show in a result.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import CompletionBoundError, PresentationContradiction
from .fields import Fraction, FpElement, Scalar

GenId = tuple[int, int]  # (s, i), 1-based: the generator x[s,i]
Word = tuple[GenId, ...]  # () is the multiplicative unit


def gen_key(g: GenId) -> tuple[int, int]:
    s, i = g
    return (i, s)


def word_key(w: Word):
    return (len(w), tuple([(i, s) for s, i in w]))


def format_genid(g: GenId) -> str:
    return f"x[{g[0]},{g[1]}]"


def format_word(w: Word) -> str:
    if not w:
        return "1"
    return " ".join(format_genid(g) for g in w)


def _accumulate(out: dict, items: Iterable[tuple]) -> dict:
    """Add (key, coefficient) pairs into out, dropping keys that cancel to zero."""
    for k, c in items:
        v = out.get(k)
        if v is None:
            out[k] = c
        else:
            v = v + c
            if v:
                out[k] = v
            else:
                del out[k]
    return out


class _Combination:
    """The arithmetic NCPoly (keys: words) and TensorPoly (keys: tuples of
    words) share: zero coefficients are never stored, results take the type
    of self, and only combinations of one type are equal."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        self.terms: dict = {k: c for k, c in (terms or {}).items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        return type(self)(_accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.terms == self.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))


class NCPoly(_Combination):
    """Finite scalar combination of words; zero coefficients are never stored."""

    __slots__ = ()

    @classmethod
    def constant(cls, coeff: Scalar) -> "NCPoly":
        return cls({(): coeff})

    @classmethod
    def gen(cls, g: GenId, one: Scalar) -> "NCPoly":
        return cls({(g,): one})

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(len(w) for w in self.terms)

    def generators(self) -> set[GenId]:
        return {g for w in self.terms for g in w}

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        if not isinstance(other, NCPoly):
            return NotImplemented
        pairs = itertools.product(self.terms.items(), other.terms.items())
        return NCPoly(_accumulate({}, ((w1 + w2, c1 * c2) for (w1, c1), (w2, c2) in pairs)))

    def shift(self, left: Word, right: Word) -> "NCPoly":
        """Multiply by bare words on both sides (no scalars involved)."""
        return NCPoly({left + w + right: c for w, c in self.terms.items()})

    def sorted_terms(self) -> list[tuple[Word, Scalar]]:
        return sorted(self.terms.items(), key=lambda t: word_key(t[0]), reverse=True)

    def __repr__(self) -> str:
        return format_poly(self)


def format_poly(p: NCPoly) -> str:
    if p.is_zero():
        return "0"
    return " + ".join(f"{c} * {format_word(w)}" for w, c in p.sorted_terms())


def substitute(p: NCPoly, subs: Mapping[GenId, NCPoly]) -> NCPoly:
    """Replace eliminated generators by their substitution polynomials."""
    if not subs or not any(g in subs for g in p.generators()):
        return p
    out = NCPoly()
    for word, c in p.terms.items():
        acc = NCPoly({(): c})
        for g in word:
            rep = subs.get(g)
            if rep is None:
                acc = acc.shift((), (g,))
            else:
                acc = acc * rep
        out = out + acc
    return out


@dataclass(frozen=True)
class RewriteRule:
    lead: Word
    rest: NCPoly  # rewrite lead -> rest; every word of rest is < lead
    poly: NCPoly  # the monic relation lead - rest

    def __repr__(self) -> str:
        return f"{format_word(self.lead)} -> {format_poly(self.rest)}"


def _ints(terms: Mapping[Word, Scalar]) -> tuple[dict[Word, int], int, int]:
    """(ints, d, m): over GF(p) the residues, d = 1 and m = p; over QQ the
    Fractions times the lcm d of their denominators, and m = 0."""
    c = next(iter(terms.values()), None)
    if isinstance(c, FpElement):
        return {w: c.v for w, c in terms.items()}, 1, c.p
    d = math.lcm(*[c.denominator for c in terms.values()])
    return {w: c.numerator * (d // c.denominator) for w, c in terms.items()}, d, 0


def _scalars(ints: Mapping[Word, int], d: int, m: int) -> dict[Word, Scalar]:
    """The field scalars ints / d, for d and m as _ints gives them."""
    if m:
        inv = pow(d, -1, m)
        return {w: FpElement(m, v * inv) for w, v in ints.items()}
    return {w: Fraction(v, d) for w, v in ints.items()}


def _make_rule(ints: Mapping[Word, int], m: int) -> RewriteRule:
    """The monic rule lead -> rest of the ints (see _ints), lead the largest."""
    lead = max(ints, key=word_key)
    monic = _scalars(ints, ints[lead], m)
    rest = NCPoly({w: -v for w, v in monic.items() if w != lead})
    return RewriteRule(lead, rest, NCPoly(monic))


class _RuleIndex:
    """The leads of a rule list, for finding a reduction site by hash probes.

    ``first`` maps each lead word to (rank, rule, lc, rest), where the rank
    is the rule's place in the list, or, in a rule state, its lead's
    ``word_key`` (the same order for a RewriteSystem's sorted rules), and
    lc * lead -> rest is the rule on ints (see _ints); when several rules
    share a lead (a hand-built RewriteSystem may), it keeps the first.
    ``lengths`` holds every lead length (after :meth:`discard`, perhaps some
    that no lead has any more), ``modulus`` the rules' m (see _ints).
    """

    __slots__ = ("first", "lengths", "modulus")

    def __init__(self, rules: Iterable[RewriteRule] = ()):
        self.first: dict[Word, tuple] = {}
        self.lengths: set[int] = set()
        self.modulus = 0
        for rank, rule in enumerate(rules):
            self.add(rank, rule)

    def add(self, rank, rule: RewriteRule) -> None:
        ints, _, m = _ints(rule.poly.terms)
        lc, rest = ints.pop(rule.lead), {w: -c % m if m else -c for w, c in ints.items()}
        self.first.setdefault(rule.lead, (rank, rule, lc, rest))
        self.lengths.add(len(rule.lead))
        self.modulus = m

    def discard(self, lead: Word) -> None:
        """Drop the lead; only for an index whose leads are distinct."""
        del self.first[lead]

    def site(self, w: Word) -> tuple[tuple, int] | None:
        """The entry of ``first`` and position a reduction step applies to w,
        or None if w is irreducible: the lowest rank, then the leftmost."""
        best = None
        for length in self.lengths:
            for pos in range(len(w) - length + 1):
                hit = self.first.get(w[pos : pos + length])
                if hit is not None:
                    key = (hit[0], pos)
                    if best is None or key < best[0]:
                        best = (key, hit, pos)
        return None if best is None else best[1:]


def _queue_key(w: Word):
    """Heap key that pops the largest word first."""
    return (-len(w), tuple([(-i, -s) for s, i in w]))


def _reduce(terms: dict[Word, int], index: _RuleIndex) -> int:
    """Make the int terms (see _ints; over GF(p) any nonzero residues) s times
    their normal form modulo the indexed rules, in place, and return s."""
    m, scale = index.modulus, 1
    # Every word of terms not yet found irreducible.  A step only brings in
    # words below the one it rewrites, and an irreducible word stays so, so
    # the first reducible word popped is the largest one.
    queue = [(_queue_key(w), w) for w in terms]
    heapq.heapify(queue)
    while queue:
        w = heapq.heappop(queue)[1]
        c = terms.get(w)
        if c is None:
            continue
        site = index.site(w)
        if site is None:
            continue
        (_, rule, lc, rest), pos = site
        del terms[w]
        if lc != 1:  # the terms times f = lc/g, then c/g times lc w -> rest
            f = lc // math.gcd(c, lc)
            c, scale = c * f // lc, scale * f
            if f != 1:
                terms.update({v: x * f for v, x in terms.items()})
        left, right = w[:pos], w[pos + len(rule.lead) :]
        for v, d in rest.items():
            v, d = left + v + right, c * d
            old = terms.get(v)
            if old is None:
                terms[v] = d % m if m else d
                heapq.heappush(queue, (_queue_key(v), v))
            else:
                d = (old + d) % m if m else old + d
                if d:
                    terms[v] = d
                else:
                    del terms[v]
    return scale


_UNASKED = object()  # a word not yet in a RewriteSystem's table


class RewriteSystem:
    """Substitutions for eliminated generators plus interreduced rewrite rules.

    ``degree_bound`` is the degree up to which overlap completion has
    certified confluence (0 before :func:`complete` has run).
    """

    __slots__ = ("subs", "rules", "degree_bound", "_index", "_nf")

    def __init__(
        self,
        subs: Mapping[GenId, NCPoly] | None = None,
        rules: Iterable[RewriteRule] = (),
        degree_bound: int = 0,
    ):
        ordered = sorted((subs or {}).items(), key=lambda kv: gen_key(kv[0]))
        self.subs: dict[GenId, NCPoly] = dict(ordered)
        self.rules: tuple[RewriteRule, ...] = tuple(
            sorted(rules, key=lambda r: word_key(r.lead))
        )
        self.degree_bound = degree_bound
        self._index = _RuleIndex(self.rules)
        # word -> terms of its normal form with coefficient 1, or None when
        # the word is its own normal form
        self._nf: dict[Word, dict[Word, Scalar] | None] = {}

    def max_rule_degree(self) -> int:
        return max((len(r.lead) for r in self.rules), default=0)

    def _word_nf(self, w: Word, c: Scalar) -> dict[Word, Scalar] | None:
        """The terms of the normal form of 1 * w (substituted, then reduced),
        formed the first time w is asked, or None if w is its own normal
        form (no eliminated generator and no rule applies), so that callers
        copy c * w without a multiplication.  c is any nonzero scalar of the
        system's field; c / c is the field's 1 on the first ask."""
        nf = self._nf.get(w, _UNASKED)
        if nf is _UNASKED:
            ints, d, m = _ints(substitute(NCPoly({w: c / c}), self.subs).terms)
            nf = _scalars(ints, d * _reduce(ints, self._index), m)
            # a step or a substitution only brings in words other than w
            nf = self._nf[w] = None if w in nf else nf
        return nf

    def normal_form(self, p: NCPoly) -> NCPoly:
        out: dict[Word, Scalar] = {}
        for w, c in p.terms.items():
            nf = self._word_nf(w, c)
            _accumulate(out, ((w, c),) if nf is None else ((v, c * d) for v, d in nf.items()))
        return NCPoly(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RewriteSystem)
            and other.subs == self.subs
            and other.rules == self.rules
        )

    def __repr__(self) -> str:
        subs = "; ".join(f"{format_genid(g)} -> {format_poly(q)}" for g, q in self.subs.items())
        rules = "; ".join(repr(r) for r in self.rules)
        return f"RewriteSystem(subs=[{subs}], rules=[{rules}], D={self.degree_bound})"


class _PairQueue:
    """The critical pairs of the current leads of a rule state: each proper
    overlap u = ...w, v = w... (a lead with itself included) whose overlap
    word u + v[k:] has degree <= degree_bound, on a heap keyed
    (word_key(u + v[k:]), u, v, k), so the smallest overlap word pops first.

    A lead forms its pairs once, when it is added, by probing ``prefixes``
    and ``suffixes``: each proper prefix (suffix) of a current lead mapped
    to the leads that start (end) with it.  A discarded lead leaves the maps,
    but its pairs stay on the heap; the popper skips a pair whose lead is
    gone, and a lead that comes back forms its pairs again.
    """

    __slots__ = ("degree_bound", "heap", "prefixes", "suffixes")

    def __init__(self, degree_bound: int):
        self.degree_bound = degree_bound
        self.heap: list[tuple] = []
        self.prefixes: dict[Word, set[Word]] = {}
        self.suffixes: dict[Word, set[Word]] = {}

    def add(self, lead: Word) -> None:
        m = len(lead)
        # lead on the right: the leads with a suffix lead[:k], before lead
        # itself is in the maps, so its self-overlaps are pushed once, below
        for k in range(1, m):
            for u in self.suffixes.get(lead[:k], ()):
                self._push(u, lead, k)
        for k in range(1, m):
            self.prefixes.setdefault(lead[:k], set()).add(lead)
            self.suffixes.setdefault(lead[m - k :], set()).add(lead)
        # lead on the left: the leads, lead included, with a prefix lead[m-k:]
        for k in range(1, m):
            for v in self.prefixes.get(lead[m - k :], ()):
                self._push(lead, v, k)

    def discard(self, lead: Word) -> None:
        m = len(lead)
        for k in range(1, m):
            self.prefixes[lead[:k]].discard(lead)
            self.suffixes[lead[m - k :]].discard(lead)

    def _push(self, u: Word, v: Word, k: int) -> None:
        w = u + v[k:]
        if len(w) <= self.degree_bound:
            heapq.heappush(self.heap, (word_key(w), u, v, k))


class _RuleState:
    """The working state that interreduction builds and completion continues:
    the substitutions, the rules in a _RuleIndex ranked by lead (so the
    lowest rank is the smallest lead, as in a RewriteSystem), and for each
    lead every factor of every word of its rule, so a new lead finds the
    rules it reduces by lookup.  ``pairs``, when given, follows every lead
    added and discarded."""

    __slots__ = ("subs", "index", "factors", "pairs")

    def __init__(self, subs: Mapping[GenId, NCPoly], pairs: _PairQueue | None = None):
        self.subs: dict[GenId, NCPoly] = dict(subs)
        self.index = _RuleIndex()
        self.factors: dict[Word, set[Word]] = {}
        self.pairs = pairs

    def rules(self) -> list[RewriteRule]:
        return [entry[1] for entry in self.index.first.values()]

    def add(self, rule: RewriteRule) -> None:
        self.index.add(word_key(rule.lead), rule)
        self.factors[rule.lead] = {
            w[i:j] for w in rule.poly.terms for i in range(len(w)) for j in range(i + 1, len(w) + 1)
        }
        if self.pairs is not None:
            self.pairs.add(rule.lead)

    def discard(self, lead: Word) -> None:
        self.index.discard(lead)
        del self.factors[lead]
        if self.pairs is not None:
            self.pairs.discard(lead)

    def run(self, work: Iterable[NCPoly]) -> None:
        """Substitute, reduce and orient each polynomial of work in turn;
        a polynomial that reduces to zero is dropped, one with a linear lead
        eliminates that generator, and a new lead sends back to work every
        rule with a word it occurs in."""
        work = deque(work)
        while work:
            ints, d, m = _ints(substitute(work.popleft(), self.subs).terms)
            d *= _reduce(ints, self.index)
            if not ints:
                continue
            rule = _make_rule(ints, m)
            lead = rule.lead
            if len(lead) == 0:
                p = format_poly(NCPoly(_scalars(ints, d, m)))
                raise PresentationContradiction(f"relations force the scalar equation {p} = 0")
            if len(lead) == 1:
                g = lead[0]
                single = {g: rule.rest}
                self.subs = {h: substitute(q, single) for h, q in self.subs.items()}
                self.subs[g] = rule.rest
                # the eliminated generator may occur in any rule
                olds = self.rules()
                work.extendleft(reversed([r.poly for r in olds]))
                for r in olds:
                    self.discard(r.lead)
            else:
                for old in [old for old, fs in self.factors.items() if lead in fs]:
                    work.append(self.index.first[old][1].poly)
                    self.discard(old)
                self.add(rule)


def interreduce(relations: Iterable[NCPoly]) -> RewriteSystem:
    """Orient and mutually reduce relations.

    Relations whose leading term is a single generator eliminate that
    generator by substitution everywhere; the remaining rules are pairwise
    irreducible.  The two-sided ideal generated by substitutions and rules
    together equals the ideal of the input relations.  The relations are
    taken in order of degree (stably), so linear relations become
    substitutions before any relation of higher degree is oriented.

    Raises PresentationContradiction if some relation reduces to a nonzero
    scalar.
    """
    state = _RuleState({})
    state.run(sorted(relations, key=NCPoly.degree))
    return RewriteSystem(state.subs, state.rules(), 0)


_COMPLETION_ROUND_CAP = 1000


def complete(system: RewriteSystem, degree_bound: int) -> RewriteSystem:
    """Bounded overlap completion (diamond lemma style).

    Resolves every overlap ambiguity whose overlap word has degree at most
    ``degree_bound``, adding oriented S-polynomials as rules until a fixpoint:
    the result gives canonical normal forms of all inputs of degree <= it.

    The rules of ``system`` are taken as they stand (a second rule with a
    lead already taken is reduced like a new relation) and their critical
    pairs put on a queue.  Pairs pop smallest overlap word first; a pair is
    resolved once, against the rules current when it pops, and skipped if
    one of its leads has gone.  A nonzero S-polynomial enters the same
    rule state as one more relation, which rewrites only the rules its lead
    occurs in, and the leads it adds bring their own pairs.

    Raises CompletionBoundError when the ``_COMPLETION_ROUND_CAP``-th
    nonzero S-polynomial is found; its message counts them as rounds.
    """
    if degree_bound < system.max_rule_degree():
        raise ValueError(
            f"degree bound {degree_bound} is below the maximal rule degree "
            f"{system.max_rule_degree()}"
        )
    pairs = _PairQueue(degree_bound)
    state = _RuleState(system.subs, pairs)
    taken = []
    for rule in system.rules:
        if rule.lead in state.index.first:
            taken.append(rule.poly)
        else:
            state.add(rule)
    state.run(taken)
    leads, m = state.index.first, state.index.modulus
    checked: set[tuple[Word, Word, int]] = set()
    found = 0
    while pairs.heap:
        _, u, v, k = heapq.heappop(pairs.heap)
        if u not in leads or v not in leads or (u, v, k) in checked:
            continue
        checked.add((u, v, k))
        # the overlap word u + v[k:] rewritten by the rule of u at 0 (left)
        # and of v at len(u) - k (right); NF is linear, so one reduction of
        # lc_u lc_v (left - right) on ints is lc_u lc_v (NF(left) - NF(right))
        # (over GF(p) lc = 1, and a word cancels iff its two residues agree)
        (_, _, lc_u, rest_u), (_, _, lc_v, rest_v) = leads[u], leads[v]
        head, tail = u[: len(u) - k], v[k:]
        diff = {w + tail: lc_v * c for w, c in rest_u.items()}
        _accumulate(diff, ((head + w, -lc_u * c) for w, c in rest_v.items()))
        scale = _reduce(diff, state.index) * lc_u * lc_v
        if diff:
            state.run([NCPoly(_scalars(diff, scale, m))])
            found += 1
            if found >= _COMPLETION_ROUND_CAP:
                raise CompletionBoundError(
                    f"no completion fixpoint within {_COMPLETION_ROUND_CAP} rounds "
                    f"at degree bound {degree_bound}"
                )
    return RewriteSystem(state.subs, state.rules(), degree_bound)


def ideal_member_bounded(p: NCPoly, system: RewriteSystem, degree_bound: int) -> bool:
    """Decide p in ideal(system) for degrees within the certified bound."""
    need = max(degree_bound, p.degree())
    if system.degree_bound < need:
        raise ValueError(
            f"system certified to degree {system.degree_bound}, need {need}"
        )
    return system.normal_form(p).is_zero()


class TensorPoly(_Combination):
    """Element of a tensor power of the free algebra: each key is a tuple of
    k words, one per leg (k = 0 for eps, 1 for a polynomial, 2 for Delta, 3
    for coassociativity)."""

    __slots__ = ()

    @classmethod
    def of(cls, *factors: NCPoly) -> "TensorPoly":
        """The tensor product p1 (x) ... (x) pk of polynomials."""
        out: dict[tuple[Word, ...], Scalar] = {}
        for combo in itertools.product(*(f.terms.items() for f in factors)):
            legs, coeffs = zip(*combo)
            out[legs] = functools.reduce(operator.mul, coeffs)
        return cls(out)

    def sorted_terms(self) -> list[tuple[tuple[Word, ...], Scalar]]:
        return sorted(
            self.terms.items(),
            key=lambda t: tuple(map(word_key, t[0])),
            reverse=True,
        )

    def __repr__(self) -> str:
        return format_tensor(self)


def format_tensor(t: TensorPoly) -> str:
    if t.is_zero():
        return "0"
    return " + ".join(
        f"{c} * " + " (x) ".join(map(format_word, legs)) for legs, c in t.sorted_terms()
    )


def tensor_normal_form(t: TensorPoly, system: RewriteSystem) -> TensorPoly:
    """Reduce every tensor leg independently and re-aggregate: the sum over
    terms c * w1 (x) ... (x) wk of c * NF(w1) (x) ... (x) NF(wk), each leg's
    normal form read off the system's word table.  A leg that is its own
    normal form is copied, and its term keeps its coefficient unmultiplied."""
    out: dict[tuple[Word, ...], Scalar] = {}
    for legs, c in t.terms.items():
        partial: list[tuple[tuple[Word, ...], Scalar]] = [((), c)]
        for w in legs:
            nf = system._word_nf(w, c)
            if nf is None:
                partial = [(k + (w,), a) for k, a in partial]
            else:
                partial = [(k + (v,), a * d) for k, a in partial for v, d in nf.items()]
        _accumulate(out, partial)
    return TensorPoly(out)
