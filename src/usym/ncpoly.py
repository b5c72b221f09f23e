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
GF(p), and over QQ a Fraction times a common denominator.  Every word is a
str with one character per generator, chr(i * 4096 + s) for x[s,i], so code
order is the precedence and (len(w), w) is ``word_key``'s order; slices,
concatenation and hashes run in C.  ``_encode`` raises InputError unless
s < 4096 and i <= 271, so no two generators share a character.  Each rule
is held once, as its entry lc * lead -> rest (``_entry``), and each
substitution as its image, int terms over a denominator.  NCPoly and
TensorPoly, with tuple words and field scalars, are values for input and
reports: they add, subtract and compare, and have no product.  Both enter
through ``_ints``, which encodes, and leave through ``_scalars``, which
decodes: in ``interreduce``, the RewriteSystem constructor and its views
``subs`` and ``rules`` (built each time they are read and kept by
nothing), ``normal_form``, ``tensor_normal_form`` and ``universal``'s int
tables.  One routine, ``_on_leg``, applies an algebra map of the free
algebra to one leg of an int tensor: substitution (the map fixing the
surviving generators) here, and in ``universal`` Delta, eps and the
coaction's coordinates x[s,i] -> eta[s,i], held as such int images.

Reduction finds its steps by hash probes of a word's factors in a rule index
(``_RuleIndex``), and takes exactly what a scan of every word, rule and
position would: the largest reducible word, the rule of lowest rank whose
lead occurs in it, and that lead's leftmost occurrence.  A step on c * w
scales all terms by lc / gcd(c, lc) instead of dividing.  Modulo a fixed
rule list the step taken on a word depends only on that word, so the normal
form is a linear map (Bergman, *The diamond lemma for ring theory*, 1978):
NF(sum c_w w) = sum c_w NF(w), and the scale of the ints never shows in a
result.  A RewriteSystem's word table holds the normal form of 1 * w
(substituted, then reduced), or a mark that w is its own, from the first
time w is asked; ``_tensor_nf`` reads a tensor's legs off it one at a time
(NF (x) NF = (id (x) NF)(NF (x) id)).  Both int tensor kernels sum in one
pass: each distinct word's image (``_on_leg``) or normal form
(``_tensor_nf``, per leg) is found first, so the lcm of their denominators
is known before the sum starts, and every term, scaled by lcm / den, is
added straight into one dict, reduced mod m at the end.

Interreduction and completion work on one rule state (``_RuleState``) whose
work items are int relations over a denominator.  Interreduction takes the
relations in order of degree, so the linear ones become substitutions before
any other is oriented; a new lead sends back only the rules it occurs in.
Completion keeps the critical pairs of the system's entries on a heap
(``_PairQueue``), resolves them smallest overlap word first, each by one
reduction of left - right, and enters a nonzero S-polynomial as one more
relation.  The truncated reduced basis this reaches is unique (Bergman), so
neither the order of the relations nor that of the pairs can show in a
result; the choice of step can, modulo the unfinished rule lists that
interreduction and completion reduce against.
"""

from __future__ import annotations

import heapq
import math
import operator
import sys
from bisect import insort
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import CompletionBoundError, InputError, PresentationContradiction
from .fields import Fraction, FpElement, Scalar

GenId = tuple[int, int]  # (s, i), 1-based: the generator x[s,i]
Word = tuple[GenId, ...]  # () is the multiplicative unit


def word_key(w: Word):
    return (len(w), tuple([(i, s) for s, i in w]))


def format_genid(g: GenId) -> str:
    return f"x[{g[0]},{g[1]}]"


def format_word(w: Word) -> str:
    return " ".join(map(format_genid, w)) if w else "1"


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
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return type(self)(out)

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
        return max(map(len, self.terms), default=-1)

    def sorted_terms(self) -> list[tuple[Word, Scalar]]:
        return sorted(self.terms.items(), key=lambda t: word_key(t[0]), reverse=True)

    def __repr__(self) -> str:
        return format_poly(self)


def format_poly(p: NCPoly) -> str:
    return " + ".join(f"{c} * {format_word(w)}" for w, c in p.sorted_terms()) or "0"


@dataclass(frozen=True)
class RewriteRule:
    lead: Word
    rest: NCPoly  # rewrite lead -> rest; every word of rest is < lead

    def __repr__(self) -> str:
        return f"{format_word(self.lead)} -> {format_poly(self.rest)}"


_SPAN = 4096  # x[s,i] is the character i * _SPAN + s, for s < _SPAN
_MAX_I = sys.maxunicode // _SPAN  # 271: the largest i with a character


def _encode(w: Word) -> str:
    """The int core's str of a tuple word (see the module docstring)."""
    for s, i in w:
        if not (0 < s < _SPAN and 0 < i <= _MAX_I):
            raise InputError(f"generator x[{s},{i}] is past the range s < {_SPAN}, i <= {_MAX_I}")
    return "".join([chr(i * _SPAN + s) for s, i in w])


def _decode(key):
    """The tuple word of a str word, or the tuple words of a tensor key."""
    if type(key) is str:
        return tuple([(o % _SPAN, o // _SPAN) for o in map(ord, key)])
    return tuple(map(_decode, key))


def _ints(p: "NCPoly | TensorPoly") -> tuple[dict, int, int]:
    """(ints, d, m): p's words encoded, each leg's for a tensor, and over
    GF(p) the residues, d = 1 and m = p; over QQ the Fractions times the
    lcm d of their denominators, and m = 0."""
    code = _encode if type(p) is NCPoly else lambda k: tuple(map(_encode, k))
    c = next(iter(p.terms.values()), None)
    if isinstance(c, FpElement):
        return {code(k): c.v for k, c in p.terms.items()}, 1, c.p
    d = math.lcm(*[c.denominator for c in p.terms.values()])
    return {code(k): c.numerator * (d // c.denominator) for k, c in p.terms.items()}, d, 0


def _scalars(ints: Mapping, d: int, m: int) -> dict:
    """The field scalars ints / d, for d and m as _ints gives them, keyed by
    the decoded words (see _decode)."""
    if m:
        inv = pow(d, -1, m)
        return {_decode(k): FpElement(m, v * inv) for k, v in ints.items()}
    return {_decode(k): Fraction(v, d) for k, v in ints.items()}


def _mod(terms: dict, m: int) -> dict:
    """The nonzero terms of the int terms, as residues mod m if m > 0."""
    if m:
        return {k: v % m for k, v in terms.items() if v % m}
    return {k: v for k, v in terms.items() if v}


def _one_leg(p: NCPoly) -> tuple[dict, int]:
    """(terms, d): the ints of a polynomial (see _ints) as 1-leg tensor terms."""
    ints, d, _ = _ints(p)
    return {(w,): c for w, c in ints.items()}, d


def _on_leg(table: Mapping, legs: int, x: tuple, leg: int, m: int) -> tuple[dict, int]:
    """Apply an algebra map of the free algebra to leg `leg` of x = (terms,
    den), int tensor terms / den (see _ints).  The map sends a generator in
    `table` to its image (ints, d), int `legs`-leg tensor terms / d, and
    fixes the others (legs = 1: substitution); a word goes to the legwise
    product of its generators' images over the product of their d, the
    empty word to the unit tensor.  Each distinct word's image is formed
    first, once per call; then each term c * key adds c * e / d times its
    word's image, its legs in place of leg `leg`, into one dict, for the
    lcm e of the images' d.  The result's denominator is den * e."""
    terms, den = x
    images = {"": ({("",) * legs: 1}, 1)}
    for key in terms:
        w = key[leg]
        if w not in images:
            image, d = table.get(w[0]) or ({(w[0],): 1}, 1)
            for g in w[1:]:
                factor, e = table.get(g) or ({(g,): 1}, 1)
                product: dict = {}
                get = product.get
                if legs == 1:
                    for (a,), u in image.items():
                        for (b,), v in factor.items():
                            k = (a + b,)
                            product[k] = get(k, 0) + u * v
                elif legs == 2:
                    for (a0, a1), u in image.items():
                        for (b0, b1), v in factor.items():
                            k = (a0 + b0, a1 + b1)
                            product[k] = get(k, 0) + u * v
                else:
                    for a, u in image.items():
                        for b, v in factor.items():
                            k = tuple(map(operator.add, a, b))
                            product[k] = get(k, 0) + u * v
                image, d = product, d * e
            images[w] = image, d
    e = math.lcm(*[d for _, d in images.values()])
    out: dict = {}
    get, one = out.get, len(next(iter(terms), ())) == 1
    for key, c in terms.items():
        image, d = images[key[leg]]
        c *= e // d
        if one:  # a 1-leg key's image keys are the output's keys
            for k, u in image.items():
                out[k] = get(k, 0) + c * u
        else:
            head, tail = key[:leg], key[leg + 1 :]
            for split, u in image.items():
                k = head + split + tail
                out[k] = get(k, 0) + c * u
    return _mod(out, m), den * e


def _substituted(ints: dict[str, int], d: int, subs: Mapping, m: int) -> tuple[dict, int]:
    """(ints, d) of the int terms / d with each generator of subs (1-leg
    images, see _on_leg) replaced; the terms themselves if none occurs."""
    if not any(g in subs for w in ints for g in w):
        return ints, d
    out, d = _on_leg(subs, 1, ({(w,): c for w, c in ints.items()}, d), 0, m)
    return {k[0]: c for k, c in out.items()}, d


def _entry(ints: Mapping[str, int], lead: str, m: int) -> tuple[str, int, dict[str, int]]:
    """(lead, lc, rest): the rule lc * lead -> rest of the int terms (see
    _ints) with the given lead; lc = 1 over GF(p), and over QQ lc > 0 with
    content 1, so that equal rules have equal entries."""
    lc = ints[lead]
    if m:
        inv = pow(lc, -1, m)
        return lead, 1, {w: -c * inv % m for w, c in ints.items() if w != lead}
    g = math.gcd(*ints.values()) if lc > 0 else -math.gcd(*ints.values())
    return lead, lc // g, {w: -c // g for w, c in ints.items() if w != lead}


def _relation(lead: str, lc: int, rest: Mapping[str, int], m: int) -> tuple[dict, int]:
    """(ints, lc): the monic relation lead - rest / lc of a rule entry."""
    return {lead: lc, **_mod({w: -c for w, c in rest.items()}, m)}, lc


class _RuleIndex:
    """The leads of a rule list, for finding a reduction site by hash probes.

    ``first`` maps each lead word to (rank, lead, lc, rest), where the rank
    is the rule's place in the list, or, in a rule state, (len(lead), lead)
    (the same order for a RewriteSystem's sorted rules), and lc * lead ->
    rest is the rule on ints (see _entry); when several rules share a lead
    (a hand-built RewriteSystem may), it keeps the first.
    ``lengths`` holds every lead length (in a rule state, perhaps some that
    no lead has any more), ``modulus`` the field's m (see _ints).
    """

    __slots__ = ("first", "lengths", "modulus")

    def __init__(self, rules: Iterable[tuple], modulus: int):
        self.first: dict[str, tuple] = {}
        self.lengths, self.modulus = set(), modulus
        for rank, entry in enumerate(rules):
            self.add(rank, *entry)

    def add(self, rank, lead: str, lc: int, rest: dict[str, int]) -> None:
        self.first.setdefault(lead, (rank, lead, lc, rest))
        self.lengths.add(len(lead))

    def site(self, w: str) -> tuple[tuple, int] | None:
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


def _reduce(terms: dict[str, int], index: _RuleIndex) -> int:
    """Make the int terms (see _ints; over GF(p) any nonzero residues) s times
    their normal form modulo the indexed rules, in place, and return s."""
    m, scale = index.modulus, 1
    # Every word w of terms not yet found irreducible, as (len(w), w) in order,
    # popped from the end: a step only brings in words below the one it rewrites
    # and an irreducible word stays so, so the first reducible popped is the largest.
    queue = sorted([(len(w), w) for w in terms])
    while queue:
        w = queue.pop()[1]
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
                insort(queue, (len(v), v))
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
        # m is the field's, read off the first scalar of an image or a rest; with
        # none, substitution and reduction only delete words, so m = 0 never shows
        polys = [*subs.values(), *(r.rest for r in rules)]
        c = next((c for q in polys for c in q.terms.values()), 0)
        m = c.p if isinstance(c, FpElement) else 0
        entries = []
        for r in rules:
            ints, d, _ = _ints(r.rest)
            lead = _encode(r.lead)
            entries.append(_entry(_relation(lead, d, ints, m)[0], lead, m))
        self._hold({_encode((g,)): _one_leg(q) for g, q in subs.items()}, entries, m, degree_bound)

    @classmethod
    def _of_state(cls, state: "_RuleState", degree_bound: int) -> "RewriteSystem":
        """The system of a rule state's int substitutions and rules."""
        system, index = cls.__new__(cls), state.index
        rules = [entry[1:] for entry in index.first.values()]
        system._hold(state.subs, rules, index.modulus, degree_bound)
        return system

    def _hold(self, subs: Mapping, rules: Iterable[tuple], m: int, degree_bound: int) -> None:
        self._subs = dict(sorted(subs.items()))
        self._rules = tuple(sorted(rules, key=lambda e: (len(e[0]), e[0])))
        self._index, self.degree_bound = _RuleIndex(self._rules, m), degree_bound
        # word -> (ints, d) of the normal form of 1 * word, or None if it is its own
        self._nf: dict[str, tuple[dict[str, int], int] | None] = {}

    @property
    def subs(self) -> dict[GenId, NCPoly]:
        m = self._index.modulus
        return {
            _decode(g)[0]: NCPoly(_scalars({k[0]: c for k, c in t.items()}, d, m))
            for g, (t, d) in self._subs.items()
        }

    @property
    def rules(self) -> tuple[RewriteRule, ...]:
        m = self._index.modulus
        return tuple(
            RewriteRule(_decode(lead), NCPoly(_scalars(rest, lc, m)))
            for lead, lc, rest in self._rules
        )

    def max_rule_degree(self) -> int:
        return max((len(lead) for lead, _, _ in self._rules), default=0)

    def _word_nf(self, w: str) -> tuple[dict[str, int], int] | None:
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
        ints, d, m = _ints(p)
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
    word w = u + v[k:] has degree <= degree_bound, on a heap keyed
    (len(w), w, u, v, k), so the smallest overlap word pops first.

    A lead forms its pairs once, when it is added, by probing ``prefixes``
    and ``suffixes``: each proper prefix (suffix) of a current lead mapped
    to the leads that start (end) with it.  A discarded lead leaves the maps,
    but its pairs stay on the heap; the popper skips a pair whose lead is
    gone, and a lead that comes back forms its pairs again.
    """

    __slots__ = ("degree_bound", "heap", "prefixes", "suffixes")

    def __init__(self, degree_bound: int):
        self.degree_bound, self.heap = degree_bound, []
        self.prefixes: dict[str, set[str]] = {}
        self.suffixes: dict[str, set[str]] = {}

    def add(self, lead: str) -> None:
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

    def discard(self, lead: str) -> None:
        m = len(lead)
        for k in range(1, m):
            self.prefixes[lead[:k]].discard(lead)
            self.suffixes[lead[m - k :]].discard(lead)

    def _push(self, u: str, v: str, k: int) -> None:
        w = u + v[k:]
        if len(w) <= self.degree_bound:
            heapq.heappush(self.heap, (len(w), w, u, v, k))


class _RuleState:
    """The working state that interreduction builds and completion continues:
    the substitutions, the rules in a _RuleIndex ranked by lead (the lowest
    rank is the smallest lead, as in a RewriteSystem), and for each lead
    every factor of every word of its rule, so a new lead finds the rules it
    reduces by lookup.  ``pairs`` follows every lead added and discarded."""

    __slots__ = ("subs", "index", "factors", "pairs")

    def __init__(self, subs: Mapping, modulus: int, degree_bound: int):
        self.subs: dict[str, tuple[dict, int]] = dict(subs)
        self.factors: dict[str, set[str]] = {}
        self.index, self.pairs = _RuleIndex((), modulus), _PairQueue(degree_bound)

    def add(self, lead: str, lc: int, rest: dict[str, int]) -> None:
        self.index.add((len(lead), lead), lead, lc, rest)
        self.factors[lead] = {
            w[i:j] for w in (lead, *rest) for i in range(len(w)) for j in range(i + 1, len(w) + 1)
        }
        self.pairs.add(lead)

    def discard(self, lead: str) -> tuple[dict[str, int], int]:
        """Drop the rule of lead and return it as a relation (see _relation)."""
        _, _, lc, rest = self.index.first.pop(lead)
        del self.factors[lead]
        self.pairs.discard(lead)
        return _relation(lead, lc, rest, self.index.modulus)

    def run(self, work: Iterable[tuple[dict[str, int], int]]) -> None:
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
            lead, lc, rest = _entry(ints, max(ints, key=lambda w: (len(w), w)), m)
            if len(lead) == 0:
                p = format_poly(NCPoly(_scalars(ints, d, m)))
                raise PresentationContradiction(f"relations force the scalar equation {p} = 0")
            if len(lead) == 1:
                single = {lead: ({(w,): c for w, c in rest.items()}, lc)}
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
    substitutions before any relation of higher degree is oriented.  Raises
    PresentationContradiction if some relation reduces to a nonzero scalar.
    """
    read = [_ints(p) for p in sorted(relations, key=NCPoly.degree)]
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
    occurs in, and the leads it adds bring their own pairs.  Raises
    CompletionBoundError when the ``_COMPLETION_ROUND_CAP``-th nonzero
    S-polynomial is found; its message counts them as rounds.
    """
    top = system.max_rule_degree()
    if degree_bound < top:
        raise ValueError(f"degree bound {degree_bound} is below the maximal rule degree {top}")
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
    checked: set[tuple[str, str, int]] = set()
    found = 0
    while state.pairs.heap:
        _, _, u, v, k = heapq.heappop(state.pairs.heap)
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
        for w, c in rest_v.items():
            w = head + w
            diff[w] = diff.get(w, 0) - lc_u * c
        diff = _mod(diff, 0)
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
        raise ValueError(f"system certified to degree {system.degree_bound}, need {need}")
    return system.normal_form(p).is_zero()


class TensorPoly(_Combination):
    """Element of a tensor power of the free algebra: each key is a tuple of
    k words, one per leg (k = 0 for eps, 1 for a polynomial, 2 for Delta, 3
    for coassociativity)."""

    __slots__ = ()

    def sorted_terms(self) -> list[tuple[tuple[Word, ...], Scalar]]:
        return sorted(self.terms.items(), key=lambda t: tuple(map(word_key, t[0])), reverse=True)

    def __repr__(self) -> str:
        return format_tensor(self)


def format_tensor(t: TensorPoly) -> str:
    terms = t.sorted_terms()
    return " + ".join(f"{c} * " + " (x) ".join(map(format_word, k)) for k, c in terms) or "0"


def _tensor_nf(terms: Mapping[tuple[str, ...], int], m: int, system: RewriteSystem):
    """The int core of tensor_normal_form on int terms with modulus m (see
    _ints): (ints, d), ints / d the sum over terms c * w1 (x) ... (x) wk of
    c * NF(w1) (x) ... (x) NF(wk), formed one leg at a time (NF (x) NF =
    (id (x) NF)(NF (x) id)).  On each leg the system's word table gives
    each distinct word's normal form first; then, over the lcm e of their
    denominators, the terms whose leg is its own normal form are copied
    into one dict, scaled by e, and every other term's image added to it,
    so a term that cancels meets no later leg; d is the product of those
    e.  0-leg terms come back as they are."""
    d, size, word_nf = 1, len(next(iter(terms), ())), system._word_nf
    for leg in range(size):
        nfs: dict = {}
        for key in terms:
            if key[leg] not in nfs:
                nfs[key[leg]] = word_nf(key[leg])
        e = math.lcm(*[nf[1] for nf in nfs.values() if nf is not None])
        out = {key: c * e for key, c in terms.items() if nfs[key[leg]] is None}
        get = out.get
        for key, c in terms.items():
            nf = nfs[key[leg]]
            if nf is None:
                continue
            ints, f = nf
            c *= e // f
            if size == 2:  # the other leg's word, h or t, stays as it is
                h, t = key
                for v, x in ints.items():
                    k = (h, v) if leg else (v, t)
                    out[k] = get(k, 0) + c * x
            else:
                head, tail = key[:leg], key[leg + 1 :]
                for v, x in ints.items():
                    k = head + (v,) + tail
                    out[k] = get(k, 0) + c * x
        terms, d = _mod(out, m), d * e
    return terms, d


def tensor_normal_form(t: TensorPoly, system: RewriteSystem) -> TensorPoly:
    """Reduce every tensor leg independently and re-aggregate (see
    _tensor_nf), on the ints of t's scalars, read back as field scalars."""
    ints, d, m = _ints(t)
    out, e = _tensor_nf(ints, m, system)
    return TensorPoly(_scalars(out, d * e, m) if out else {})
