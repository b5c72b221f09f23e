"""Noncommutative polynomials on indexed generators, with deglex rewriting
and bounded overlap completion.

Generators are pairs ``(s, i)`` (1-based) printed ``x[s,i]``.  The monomial
order is degree-first, then left-to-right lexicographic on the generator
precedence ``(s, i) < (s', i')  iff  i < i' or (i = i' and s < s')``, so the
first-column generators ``x[a,1]`` are the smallest and get eliminated by
substitution.  A rewrite system holds the substitutions for eliminated
generators and rules lead -> rest (every word of rest below lead), which
together generate the full defining ideal.

Inside the module every coefficient is an int (``_ints``): a residue over
GF(p), and over QQ a Fraction times a common denominator.  Each rule is held
once, as its entry lc * lead -> rest (``_entry``), and each substitution as
its image, int terms over a denominator.  Scalar polynomials and tensors
(NCPoly, TensorPoly) are values for input and reports: they add, subtract
and compare, and have no product.  Field scalars enter and leave only at
the edges: the relations ``interreduce`` reads, the RewriteSystem
constructor, its views ``subs`` and ``rules`` (built each time they are
read and kept by nothing), and the wrappers ``normal_form`` and
``tensor_normal_form``.  One routine, ``_on_leg``, applies an algebra map
of the free algebra to one leg of an int tensor: substitution (the map
fixing the surviving generators) here, and in ``universal`` Delta, eps and
the coaction's coordinates x[s,i] -> eta[s,i], which the presentation
holds as such int images.

Reduction finds its steps by hash probes of a word's factors in a rule index
(``_RuleIndex``), and takes exactly what a scan of every word, rule and
position would: the largest reducible word, the rule of lowest rank whose
lead occurs in it, and that lead's leftmost occurrence.  A step on c * w
scales all terms by lc / gcd(c, lc) instead of dividing.  Modulo a fixed
rule list the step taken on a word depends only on that word, so the normal
form is a linear map (Bergman, *The diamond lemma for ring theory*, 1978):
NF(sum c_w w) = sum c_w NF(w), and the scale of the ints never shows in a
result.  A RewriteSystem keeps a word table, filled the first time a word is
asked, with the normal form of 1 * w (substituted, then reduced), or a mark
that w is its own normal form; ``_tensor_nf`` reads every leg of a tensor
off it, so each word is reduced once per system.

Interreduction and completion work on one rule state (``_RuleState``) whose
work items are int relations over a denominator.  Interreduction takes the
relations in order of degree, so the linear ones become substitutions before
any other is oriented; a new lead sends back only the rules it occurs in.
Completion seeds the state with the system's entries and keeps their
critical pairs on a heap (``_PairQueue``).  It resolves them smallest
overlap word first, each by one reduction of left - right (the two rewrites
of the overlap word), and a nonzero S-polynomial enters the state as one
more relation.  The truncated reduced basis this reaches is unique (Bergman),
so neither the order of the relations nor that of the pairs can show in a
result; the choice of step can, modulo the unfinished rule lists that
interreduction and completion reduce against.
"""

from __future__ import annotations

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

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(len(w) for w in self.terms)

    def sorted_terms(self) -> list[tuple[Word, Scalar]]:
        return sorted(self.terms.items(), key=lambda t: word_key(t[0]), reverse=True)

    def __repr__(self) -> str:
        return format_poly(self)


def format_poly(p: NCPoly) -> str:
    if p.is_zero():
        return "0"
    return " + ".join(f"{c} * {format_word(w)}" for w, c in p.sorted_terms())


@dataclass(frozen=True)
class RewriteRule:
    lead: Word
    rest: NCPoly  # rewrite lead -> rest; every word of rest is < lead

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


def _mod(terms: dict, m: int) -> dict:
    """The nonzero residues mod m of the int terms, or the terms if m = 0."""
    return {k: v % m for k, v in terms.items() if v % m} if m else terms


def _one_leg(p: NCPoly) -> tuple[dict, int]:
    """(terms, d): the ints of a polynomial (see _ints) as 1-leg tensor terms."""
    ints, d, _ = _ints(p.terms)
    return {(w,): c for w, c in ints.items()}, d


def _sum(parts: list[tuple[Iterable[tuple], int]], m: int) -> tuple[dict, int]:
    """(ints, d): the sum of the int (terms, den) in parts over the lcm d of
    their dens, each scaled by d / den, as residues mod m over GF(p)."""
    d = math.lcm(*[den for _, den in parts])
    out: dict = {}
    for terms, den in parts:
        f = d // den
        _accumulate(out, terms if f == 1 else ((k, c * f) for k, c in terms))
    return _mod(out, m), d


def _on_leg(table: Mapping, legs: int, x: tuple, leg: int, m: int) -> tuple[dict, int]:
    """Apply an algebra map of the free algebra to leg `leg` of x = (terms,
    den), int tensor terms / den (see _ints).  The map sends a generator in
    `table` to its image (ints, d), int `legs`-leg tensor terms / d, and
    fixes the others (legs = 1: substitution); a word goes to the legwise
    product of its generators' images over the product of their d, the
    empty word to the unit tensor.  The result's legs replace leg `leg` in
    the keys; its denominator is den times the lcm of the words' (_sum)."""
    terms, den = x
    parts = []
    for key, c in terms.items():
        image, d = {((),) * legs: 1}, 1
        for g in key[leg]:
            factor, e = table.get(g) or ({((g,),): 1}, 1)
            products = itertools.product(image.items(), factor.items())
            image = _accumulate(
                {}, ((tuple(map(operator.add, a, b)), u * v) for (a, u), (b, v) in products)
            )
            d *= e
        head, tail = key[:leg], key[leg + 1 :]
        parts.append(([(head + split + tail, c * u) for split, u in image.items()], d))
    out, d = _sum(parts, m)
    return out, den * d


def _substituted(ints: dict[Word, int], d: int, subs: Mapping, m: int) -> tuple[dict, int]:
    """(ints, d) of the int terms / d with each generator of subs (1-leg
    images, see _on_leg) replaced; the terms themselves if none occurs."""
    if not any(g in subs for w in ints for g in w):
        return ints, d
    out, d = _on_leg(subs, 1, ({(w,): c for w, c in ints.items()}, d), 0, m)
    return {k[0]: c for k, c in out.items()}, d


def _entry(ints: Mapping[Word, int], lead: Word, m: int) -> tuple[Word, int, dict[Word, int]]:
    """(lead, lc, rest): the rule lc * lead -> rest of the int terms (see
    _ints) with the given lead; lc = 1 over GF(p), and over QQ lc > 0 with
    content 1, so that equal rules have equal entries."""
    lc = ints[lead]
    if m:
        inv = pow(lc, -1, m)
        return lead, 1, {w: -c * inv % m for w, c in ints.items() if w != lead}
    g = math.gcd(*ints.values()) if lc > 0 else -math.gcd(*ints.values())
    return lead, lc // g, {w: -c // g for w, c in ints.items() if w != lead}


def _relation(lead: Word, lc: int, rest: Mapping[Word, int], m: int) -> tuple[dict, int]:
    """(ints, lc): the monic relation lead - rest / lc of a rule entry."""
    return {lead: lc, **_mod({w: -c for w, c in rest.items()}, m)}, lc


class _RuleIndex:
    """The leads of a rule list, for finding a reduction site by hash probes.

    ``first`` maps each lead word to (rank, lead, lc, rest), where the rank
    is the rule's place in the list, or, in a rule state, its lead's
    ``word_key`` (the same order for a RewriteSystem's sorted rules), and
    lc * lead -> rest is the rule on ints (see _entry); when several rules
    share a lead (a hand-built RewriteSystem may), it keeps the first.
    ``lengths`` holds every lead length (in a rule state, perhaps some that
    no lead has any more), ``modulus`` the field's m (see _ints).
    """

    __slots__ = ("first", "lengths", "modulus")

    def __init__(self, rules: Iterable[tuple], modulus: int):
        self.first: dict[Word, tuple] = {}
        self.lengths: set[int] = set()
        self.modulus = modulus
        for rank, entry in enumerate(rules):
            self.add(rank, *entry)

    def add(self, rank, lead: Word, lc: int, rest: dict[Word, int]) -> None:
        self.first.setdefault(lead, (rank, lead, lc, rest))
        self.lengths.add(len(lead))

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
        (_, lead, lc, rest), pos = site
        del terms[w]
        if lc != 1:  # the terms times f = lc/g, then c/g times lc w -> rest
            f = lc // math.gcd(c, lc)
            c, scale = c * f // lc, scale * f
            if f != 1:
                terms.update({v: x * f for v, x in terms.items()})
        left, right = w[:pos], w[pos + len(lead) :]
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

    Held on ints with the field's modulus (see _ints): each substitution as
    its image (see _on_leg), each rule as its entry (see _entry), sorted by
    lead in a rule index.  ``subs`` and ``rules``, as field scalars, are
    built each time they are read; the constructor reads field scalars.
    ``degree_bound`` is the degree up to which completion has certified
    confluence (0 before :func:`complete`).
    """

    __slots__ = ("degree_bound", "_subs", "_rules", "_index", "_nf")

    def __init__(
        self,
        subs: Mapping[GenId, NCPoly] | None = None,
        rules: Iterable[RewriteRule] = (),
        degree_bound: int = 0,
    ):
        subs, rules = subs or {}, list(rules)
        # m is the field's, read off the first scalar of an image or a rest;
        # where there is none (every image and rest empty), substitution and
        # reduction only delete words and do no arithmetic, so m = 0 never shows
        polys = [*subs.values(), *(r.rest for r in rules)]
        c = next((c for q in polys for c in q.terms.values()), 0)
        m = c.p if isinstance(c, FpElement) else 0
        entries = []
        for r in rules:
            ints, d, _ = _ints(r.rest.terms)
            entries.append(_entry(_relation(r.lead, d, ints, m)[0], r.lead, m))
        self._hold({g: _one_leg(q) for g, q in subs.items()}, entries, m, degree_bound)

    @classmethod
    def _of_state(cls, state: "_RuleState", degree_bound: int) -> "RewriteSystem":
        """The system of a rule state's int substitutions and rules."""
        system, index = cls.__new__(cls), state.index
        rules = [entry[1:] for entry in index.first.values()]
        system._hold(state.subs, rules, index.modulus, degree_bound)
        return system

    def _hold(self, subs: Mapping, rules: Iterable[tuple], m: int, degree_bound: int) -> None:
        self._subs = dict(sorted(subs.items(), key=lambda kv: gen_key(kv[0])))
        self._rules = tuple(sorted(rules, key=lambda e: word_key(e[0])))
        self._index, self.degree_bound = _RuleIndex(self._rules, m), degree_bound
        # word -> (ints, d) of the normal form of 1 * word, or None if it is its own
        self._nf: dict[Word, tuple[dict[Word, int], int] | None] = {}

    @property
    def subs(self) -> dict[GenId, NCPoly]:
        m = self._index.modulus
        return {
            g: NCPoly(_scalars({k[0]: c for k, c in t.items()}, d, m))
            for g, (t, d) in self._subs.items()
        }

    @property
    def rules(self) -> tuple[RewriteRule, ...]:
        m = self._index.modulus
        return tuple(
            RewriteRule(lead, NCPoly(_scalars(rest, lc, m))) for lead, lc, rest in self._rules
        )

    def max_rule_degree(self) -> int:
        return max((len(lead) for lead, _, _ in self._rules), default=0)

    def _word_nf(self, w: Word) -> tuple[dict[Word, int], int] | None:
        """The normal form of 1 * w (substituted, then reduced) as (ints, d),
        see _ints, formed the first time w is asked, or None if w is its own
        normal form (no eliminated generator and no rule applies), so that
        callers copy c * w without a multiplication."""
        nf = self._nf.get(w, _UNASKED)
        if nf is _UNASKED:
            ints, d = _substituted({w: 1}, 1, self._subs, self._index.modulus)
            d *= _reduce(ints, self._index)
            # a step or a substitution only brings in words other than w
            nf = self._nf[w] = None if w in ints else (ints, d)
        return nf

    def normal_form(self, p: NCPoly) -> NCPoly:
        ints, d, m = _ints(p.terms)
        out, e = _tensor_nf({(w,): c for w, c in ints.items()}, m, self)
        return NCPoly(_scalars({k[0]: c for k, c in out.items()}, d * e, m) if out else {})

    def __eq__(self, other) -> bool:
        same = isinstance(other, RewriteSystem) and other._subs == self._subs
        return same and other._rules == self._rules

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
    rules it reduces by lookup.  ``pairs`` follows every lead added and
    discarded (interreduction's degree bound 0 makes no pairs)."""

    __slots__ = ("subs", "index", "factors", "pairs")

    def __init__(self, subs: Mapping, modulus: int, degree_bound: int):
        self.subs: dict[GenId, tuple[dict, int]] = dict(subs)
        self.index = _RuleIndex((), modulus)
        self.factors: dict[Word, set[Word]] = {}
        self.pairs = _PairQueue(degree_bound)

    def add(self, lead: Word, lc: int, rest: dict[Word, int]) -> None:
        self.index.add(word_key(lead), lead, lc, rest)
        self.factors[lead] = {
            w[i:j] for w in (lead, *rest) for i in range(len(w)) for j in range(i + 1, len(w) + 1)
        }
        self.pairs.add(lead)

    def discard(self, lead: Word) -> tuple[dict[Word, int], int]:
        """Drop the rule of lead and return it as a relation (see _relation)."""
        _, _, lc, rest = self.index.first.pop(lead)
        del self.factors[lead]
        self.pairs.discard(lead)
        return _relation(lead, lc, rest, self.index.modulus)

    def run(self, work: Iterable[tuple[dict[Word, int], int]]) -> None:
        """Substitute, reduce and orient each int relation (ints, d) of work
        in turn (see _ints): one that reduces to zero is dropped, one with a
        linear lead eliminates that generator, and a new lead sends back to
        work every rule with a word it occurs in."""
        work, m = deque(work), self.index.modulus
        while work:
            ints, d = _substituted(*work.popleft(), self.subs, m)
            d *= _reduce(ints, self.index)
            if not ints:
                continue
            lead, lc, rest = _entry(ints, max(ints, key=word_key), m)
            if len(lead) == 0:
                p = format_poly(NCPoly(_scalars(ints, d, m)))
                raise PresentationContradiction(f"relations force the scalar equation {p} = 0")
            if len(lead) == 1:
                single = {lead[0]: ({(w,): c for w, c in rest.items()}, lc)}
                for g, image in self.subs.items():
                    terms, e = _on_leg(single, 1, image, 0, m)
                    h = math.gcd(e, *terms.values())
                    self.subs[g] = ({k: c // h for k, c in terms.items()}, e // h)
                self.subs.update(single)
                # the eliminated generator may occur in any rule
                work.extendleft(reversed([self.discard(old) for old in list(self.index.first)]))
            else:
                for old in [old for old, fs in self.factors.items() if lead in fs]:
                    work.append(self.discard(old))
                self.add(lead, lc, rest)


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
    read = [_ints(p.terms) for p in sorted(relations, key=NCPoly.degree)]
    state = _RuleState({}, max([x[2] for x in read], default=0), 0)
    state.run([x[:2] for x in read])
    return RewriteSystem._of_state(state, 0)


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
    m = system._index.modulus
    state = _RuleState(system._subs, m, degree_bound)
    taken = []
    for lead, lc, rest in system._rules:
        if lead in state.index.first:
            taken.append(_relation(lead, lc, rest, m))
        else:
            state.add(lead, lc, rest)
    state.run(taken)
    leads = state.index.first
    checked: set[tuple[Word, Word, int]] = set()
    found = 0
    while state.pairs.heap:
        _, u, v, k = heapq.heappop(state.pairs.heap)
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
            state.run([(diff, scale)])
            found += 1
            if found >= _COMPLETION_ROUND_CAP:
                raise CompletionBoundError(
                    f"no completion fixpoint within {_COMPLETION_ROUND_CAP} rounds "
                    f"at degree bound {degree_bound}"
                )
    return RewriteSystem._of_state(state, degree_bound)


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


def _tensor_nf(terms: Mapping[tuple[Word, ...], int], m: int, system: RewriteSystem):
    """The int core of tensor_normal_form on int terms with modulus m (see
    _ints): (ints, d), ints / d the sum over terms c * w1 (x) ... (x) wk of
    c * NF(w1) (x) ... (x) NF(wk), each leg read off the system's word table
    (a leg that is its own normal form is copied, and its term keeps its
    coefficient unmultiplied).  A term's denominator is the product of its
    legs' (1 over GF(p)), and the terms are summed over their lcm (_sum)."""
    parts = []
    for legs, c in terms.items():
        partial, den = [((), c)], 1
        for w in legs:
            nf = system._word_nf(w)
            if nf is None:
                partial = [(k + (w,), a) for k, a in partial]
            else:
                ints, d = nf
                den *= d
                partial = [(k + (v,), a * e) for k, a in partial for v, e in ints.items()]
        parts.append((partial, den))
    return _sum(parts, m)


def tensor_normal_form(t: TensorPoly, system: RewriteSystem) -> TensorPoly:
    """Reduce every tensor leg independently and re-aggregate (see
    _tensor_nf), on the ints of t's scalars, read back as field scalars."""
    ints, d, m = _ints(t.terms)
    out, e = _tensor_nf(ints, m, system)
    return TensorPoly(_scalars(out, d * e, m) if out else {})
