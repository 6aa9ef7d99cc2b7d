"""Groebner basis engine for ideals and submodules of free modules.

Monomials are packed into single integers whose natural ordering realizes
graded reverse lexicographic comparison; multiplying by a monomial is an
integer addition and divisibility is a guard-bit subtraction test.  Module
terms append the component to the packed key, giving term-over-position
with ascending generator index as tie break.  An elimination makes the
first summand of F + F dominate by setting one bit above the monomial
(MonomialOrder.fbit); besides MonomialOrder only intersect_pair_engine
relies on the key layout.

The engine provides reduced Groebner bases, normal forms, intersections
by one elimination in F + F, module quotients (colon) by a monomial m as
one such intersection, since M intersect m F = m (M : m), and Hilbert
series of graded quotients computed from lead-term modules.

An intersection of two reduced bases first tests whether the first lies
in the second (each of its elements reduces to zero) and if so returns it
as it is: a fold step that changes nothing costs one containment check,
not an elimination.  Otherwise one elimination runs in F + F under an
order where the first summand dominates (Greuel & Pfister, A Singular
Introduction to Commutative Algebra, ch. 2): the elements of
<(a, 0), (b, b)> whose first part is zero are exactly (0, x) for x in
<a> intersect <b>.  Keys move between F and either summand by adding a
constant, so the inputs and the result need no re-encoding.

That elimination is completed under signatures, not by the Buchberger
loop.  The syzygies of (a, 0) and (b, b) are syz(a) + syz(b), and a and b
are reduced bases, so Schreyer's theorem gives the lead of every syzygy
in advance (Eisenbud, Commutative Algebra, Thm 15.10).  Under the
Schreyer order on signatures, the syzygy criterion, the cover criterion
of Gao, Volny & Wang (2016) and singular discards then leave no S-pair
that reduces to zero; in the Buchberger loop about nine in ten of them
did.  Its reductions are regular, a term reducing only by a row whose
multiple has the smaller signature, and reach the top term only: the
loop stops at the first term with no regular reducer and keeps the rest
as it stands, since the criteria read leads and signatures alone and the
final interreduction reduces the tails.  Those are the extra rules of
_normal_form given a signature, so both completions share one reduction
loop.  A row gets a candidate only at its minimal multipliers, on both
sides of a pair: it is offered t * lead only if no multiplier it was
offered before divides t.  The row that the smaller multiple leaves
covers the larger one; otherwise the smaller one was a syzygy, covered or
singular, and its multiples inherit that.  The generic completions (k0,
the seeded extensions, the bracket modules) stay on the Buchberger loop:
there the generators' syzygies are not known in advance, so the syzygy
criterion has nothing to prune with.

The Buchberger loop keeps its S-pairs in one heap and pops them by lcm
key, which leads with the lcm's ring degree (the normal strategy).  Any
fair selection order yields the same reduced basis, and the
Gebauer-Moeller criteria do not depend on the order (Gebauer & Moeller
1988; Giovini et al. 1991), so the selection changes only the work.  M
and F act when a row is inserted (_minimal_lcms), the product criterion
and B when a pair pops; B then reads the rows inserted while the pair
waited, so it decides as an update of every waiting pair at each insert
would (see buchberger_engine).

Each component's rows sit in a _Bucket, an index that finds a term's
reducer without scanning: per variable block of the packed monomial, a
table maps the target's byte to a bitmask of the rows whose lead fits it
there, and the lowest bit of the AND of those masks is the first divisor
in insertion order.  Under a signature the reducer is the first of them
whose multiple has a smaller signature.  The same tables give the
minimal multipliers lcm / lead of a new row (_minimal_lcms), mostly by
masks.  Any divisor gives a valid reduction step and a reduced basis is
unique, so both completions keep their rows in the order they find them;
prepared bases, the final interreduction and the cache's shape check
insert ascending leads, so for them insertion order is key order, and
they build each bucket with one _Bucket.extend.
Normal forms pop from a heap of term keys only; the coefficients of the
pending terms accumulate in a dict and are reduced modulo p once, when
their key pops.

The Hilbert series splits packed leads too: HN(I) = HN(I + x_p) +
t HN(I : x_p) (Bigatti 1997) on each component's sorted minimal leads,
the pivot x_p being in the most mixed leads (two variables or more), the
lowest on ties.  I : x_p raises x_p's block and lowers the degree field
by one.  With no mixed lead the numerator is the product of 1 - t^deg:
1 for no lead, 0 for the unit.  I + x_p, the leads without x_p and x_p,
is minimal as it stands: x_p divides none of them, and a lead dividing
x_p would divide the mixed leads with x_p.  Lowered leads divide each
other only if the originals did, so I : x_p tests only those that lost
their last x_p against the rest.

Coefficients are exact rationals or a word-sized prime field.  Every
basis a result rests on is computed over the rationals: a prime field
reads such a run modulo a lucky prime (EngineBasis.modulo), or runs on its
own as an independent spot check.  A rational is kept as an int when it
is integral and as a Fraction only when it is not: int and Fraction mix
exactly, so both share one arithmetic path, and the catalog's small
integer coefficients never build a Fraction.

BasisCache keeps reduced bases on disk in the engine's own form: a sha256
digest line, then JSON with each element's packed term keys and
coefficients, a rational always as [numerator, denominator], so an int
and the equal Fraction write the same entry.  An entry whose digest or
basis shape does not check out is a miss, so a corrupt file is recomputed
rather than trusted.

Block invariant.  Each ring-variable block of a packed monomial holds
C - e with 0 <= e < C = 64, so its value lies in 1..C and the guard bit
(the top bit of the block) stays free; the degree field holds the total
ring degree, at most 255.  The guard-bit subtractions of divisibility and
lcm rely on this.  Inputs are checked when encoded, and the engine raises
DerivationError before it forms a term product or a pair lcm that would
leave these ranges.  A pair lcm is checked where it is formed (mono_lcm,
or _minimal_lcms for a one-variable colon step).  A product row * t is
checked degree first (_check_room): a row keeps its top term degree, a
signature's monomial counted, and no product term has an exponent or a
degree above top + deg t, so a sum of at most C - 1 settles it.  Only
otherwise is the row's blockwise exponent maximum formed from its keys,
for an exact guard-bit test.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from bisect import bisect_left, bisect_right
from collections import defaultdict
from fractions import Fraction
from functools import partial, reduce
from heapq import heapify, heappop, heappush
from math import gcd
from operator import and_, attrgetter, getitem, itemgetter, neg
from typing import Iterable, Iterator, Sequence

from .errors import DerivationError
from .symbolic import GradedPoly, HilbertSeries, ModuleElement

# ---------------------------------------------------------------------------
# Coefficient fields
# ---------------------------------------------------------------------------

PRIME1 = 2147483647
PRIME2 = 2147483629


class RationalField:
    """Exact rational coefficients: an int when integral, else a Fraction.

    int and Fraction mix exactly, so the engine has one arithmetic path;
    normalize turns an integral Fraction back into an int."""

    p = None
    name = "q"

    def convert(self, c) -> int | Fraction:
        return self.normalize(Fraction(c))

    def normalize(self, c):
        return c.numerator if c.denominator == 1 else c

    def inv(self, c):
        if c == 1 or c == -1:
            return int(c)
        return self.normalize(Fraction(1) / c)      # 1 / c of an int is a float

    def __repr__(self):
        return "QQ"


class ModularField:
    """Integers modulo a word-sized prime p.

    convert and inv invert with pow(c, -1, p), which raises ValueError
    only for c = 0, and that never reaches them.  Two instances with one
    modulus are equal and hash alike, so either finds what is cached for
    the other."""

    def __init__(self, p: int):
        self.p = p
        self.name = f"p{p}"

    def convert(self, c):
        if type(c) is int:
            return c % self.p
        c = Fraction(c)
        return c.numerator * pow(c.denominator, -1, self.p) % self.p

    def normalize(self, c):
        return c % self.p

    def inv(self, c):
        return pow(c, -1, self.p)

    def lift(self, c: int) -> int:
        """The symmetric representative of a residue, in (-p/2, p/2)."""
        return c - self.p if 2 * c > self.p else c

    def __eq__(self, other):
        if not isinstance(other, ModularField):
            return NotImplemented
        return self.p == other.p

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()
GFP1 = ModularField(PRIME1)
GFP2 = ModularField(PRIME2)

FIELDS = {"q": QQ, "p1": GFP1, "p2": GFP2}


# ---------------------------------------------------------------------------
# Monomial orders and packed keys
# ---------------------------------------------------------------------------

_B = 8                   # bits per exponent block
_C = 1 << 6              # exponent blocks store C - e; exponents must stay < C
_GUARD = 1 << (_B - 1)
_BMASK = (1 << _B) - 1
_CB = 8                  # bits for the component suffix
_CMAX = (1 << _CB) - 1


class MonomialOrder:
    """Term-over-position graded reverse lexicographic order.

    nvars counts the ring variables; variable v's block sits at bit _B * v,
    below the degree field, so the degree leads every monomial key.  Terms
    with equal monomials compare by ascending generator index.

    A term key is the packed monomial shifted left by _CB bits and the
    component's _CMAX - comp in those bits; term_key, split_key and
    key_mul_delta are the only code that relies on this layout, besides
    intersect_pair_engine.  No term key has the bit fbit above the
    monomial: setting it puts a key above every key without it, which is
    how an elimination makes one summand dominate.  Because the suffix is
    _CMAX - comp, in an order of rank 2r the key of component r + c is the
    rank-r key of component c minus r.
    """

    def __init__(self, nvars: int, rank: int = 1):
        if rank > _CMAX:
            raise ValueError("rank too large for key packing")
        self.nvars = nvars
        self.rank = rank
        k = nvars
        self.mono_bits = _B * (k + 1)
        self.fbit = 1 << (self.mono_bits + _CB)
        self._deg_shift = _B * k
        self.offset = sum(_C << (_B * j) for j in range(k))
        self._xmask = (1 << (_B * k)) - 1
        self._gx = sum(_GUARD << (_B * j) for j in range(k))
        self._ones = sum(1 << (_B * j) for j in range(k))
        self._dlow = (1 << (self._deg_shift + _B)) - 1   # ring blocks and degree
        # guard bits plus everything above the degree field
        self._hmask = self._gx | ~self._dlow
        self.one = self.offset
        self.descriptor = (nvars, rank)

    # -- packing -------------------------------------------------------------

    def encode_mono(self, exps: Sequence[int]) -> int:
        """Pack an exponent vector into an int."""
        if len(exps) != self.nvars:
            raise ValueError("exponent vector has wrong length")
        enc = 0
        deg = 0
        for v in range(self.nvars):
            e = exps[v]
            if not 0 <= e < _C:
                raise ValueError(f"exponent {e} out of packing range")
            enc += (_C - e) << (_B * v)
            deg += e
        if deg > _BMASK:
            raise ValueError("total degree out of packing range")
        return enc + (deg << self._deg_shift)

    def decode_mono(self, enc: int) -> tuple[int, ...]:
        return tuple(_C - b for b in (enc & self._xmask).to_bytes(self.nvars, "little"))

    def mono_mul(self, a: int, b: int) -> int:
        return a + b - self.offset

    def divisor_word(self, a: int) -> int:
        """Divisor side of the one-subtraction divisibility test: the ring
        blocks C - e, each with its guard bit set.  a divides b iff
        divisor_word(a) - (b & _xmask) keeps every guard bit, i.e. has all
        the bits of _gx."""
        return (a & self._xmask) | self._gx

    def mono_lcm(self, a: int, b: int) -> int:
        """Least common multiple: blockwise minimum of the stored C - e
        blocks, degree recomputed."""
        xa = a & self._xmask
        xb = b & self._xmask
        # guard bit survives where xa >= xb; d - (d >> 7) widens it to a block mask
        d = ((xa | self._gx) - xb) & self._gx
        x = xa ^ ((xa ^ xb) & (d - (d >> 7)))
        deg = self.nvars * _C - sum(x.to_bytes(self.nvars, "little"))
        if deg > _BMASK:
            raise DerivationError(f"lcm of degree {deg} is out of packing range")
        return x | (deg << self._deg_shift)

    # -- module term keys ------------------------------------------------------

    def term_key(self, enc: int, comp: int) -> int:
        if not 0 <= comp < self.rank:
            raise ValueError(f"component {comp} out of range")
        return (enc << _CB) | (_CMAX - comp)

    def split_key(self, key: int) -> tuple[int, int]:
        comp = _CMAX - (key & _CMAX)
        enc = (key >> _CB) & ((1 << self.mono_bits) - 1)
        return enc, comp

    def key_mul_delta(self, enc_factor: int) -> int:
        """Additive key delta that multiplies a term by the given monomial."""
        return (enc_factor - self.offset) << _CB

    def __repr__(self):
        return f"MonomialOrder{self.descriptor}"


# ---------------------------------------------------------------------------
# Engine elements and rows
# ---------------------------------------------------------------------------

def to_engine(e: ModuleElement | GradedPoly, order: MonomialOrder, field) -> dict:
    """Convert a symbolic element to the packed-term representation."""
    if isinstance(e, GradedPoly):
        comps: Sequence[GradedPoly] = [e]
    else:
        if e.denominator is not None:
            raise ValueError("cannot convert an element carrying a denominator tag")
        comps = e.components
    out: dict = {}
    for ci, p in enumerate(comps):
        for exps, c in p.terms.items():
            v = field.convert(c)
            if v:
                out[order.term_key(order.encode_mono(exps), ci)] = v
    return out


class _Row:
    """A monic row plus its top term degree, for the engine's packing-range
    test.

    The tail below the lead is held as two parallel tuples, its term keys
    in descending order and their coefficients.  top is the highest degree
    of a term of the row, or of a _SigRow's signature monomial.  Multiplied
    by t = target / lead, no product term then has an exponent or a degree
    above top + deg t, so _check_room passes at once when that is at most
    C - 1; only otherwise does it form the blockwise exponent maximum of
    the row's terms.  The top degree need not be the lead's: in an
    elimination a lead in the dominating summand can sit above a tail term
    of higher degree in the other.
    """
    __slots__ = ("key", "enc", "comp", "tkeys", "tcoefs", "index", "top")

    def __init__(self, key, enc, comp, tkeys, tcoefs, index, top):
        self.key = key
        self.enc = enc
        self.comp = comp
        self.tkeys = tkeys
        self.tcoefs = tcoefs
        self.index = index
        self.top = top


class _SigRow(_Row):
    """A row of the signature completion (see _schreyer_completion).

    ratio is the row's signature word minus its lead key shifted by the
    signature's index bits: t * row has signature word ratio + (key of
    t * lead, shifted), so two multiples of rows with one lead compare
    their signatures by ratio alone.  sig_word is the divisor word of the
    signature's monomial; the packing-range test covers that monomial too
    (its degree counts in top), so a multiple whose signature would leave
    packing range raises in _check_room.  leads is the index of the
    generator leads of the signature's half and component, and offered the
    divisor words of the multiples of the lead that the row has been
    offered as candidates, a tuple: most rows get none or a few."""
    __slots__ = ("ratio", "sig_word", "leads", "offered")


_row_key = attrgetter("key")
_bit = (1).__lshift__       # a position's mask bit


class _Bucket:
    """The rows of one component, indexed by their leads for first-divisor
    lookups.

    rows holds them in insertion order, and the row at position i owns bit
    i of every mask.  tables has one table per ring-variable block of the
    packed monomial, in enc.to_bytes(..., "little") order.  The table of a
    block maps the target's byte there (C - e) to the mask of the rows
    whose lead exponent in that block is at most e.  ANDing one entry per
    block leaves exactly the rows whose lead divides the target, and its
    lowest bit is the first of them in insertion order.  The degree byte,
    the last, decides nothing and has no table.  An entry above every
    lead's exponent in its block (e >= tops[j]) is -1, "every row", so an
    insert rewrites only the entries below the block's top.
    """
    __slots__ = ("rows", "tables", "tops", "nbytes")

    def __init__(self, order: MonomialOrder):
        k = order.nvars
        self.rows: list = []
        self.tables = [[-1] * (_C + 1) for _ in range(k)]
        self.tops = [0] * k
        self.nbytes = k + 1

    def add(self, enc: int, row) -> None:
        """Append row, indexed under its lead monomial enc."""
        bit = 1 << len(self.rows)
        full = bit - 1      # every earlier row
        self.rows.append(row)
        raw = enc.to_bytes(self.nbytes, "little")
        tops = self.tops
        for j, t in enumerate(self.tables):
            top = tops[j]
            e = _C - raw[j]
            if e < top:
                for x in range(e, top):
                    t[_C - x] |= bit
            else:
                for x in range(top, e):
                    t[_C - x] = full
                t[_C - e] = full | bit
                tops[j] = e + 1

    def extend(self, items: Iterable[tuple[int, object]]) -> None:
        """Append the rows of items, (lead monomial, row) pairs, with the
        tables that one add per pair gives: per block, the mask of the new
        rows at each byte, then one pass up the exponents that ORs them
        into the table until every new row and every old top is passed."""
        rows = self.rows
        start = len(rows)
        exact = [[0] * (_C + 1) for _ in self.tables]
        bit = 1 << start
        for enc, row in items:
            rows.append(row)
            # zip stops at the last table, before the degree byte
            for ex, b in zip(exact, enc.to_bytes(self.nbytes, "little")):
                ex[b] |= bit
            bit <<= 1
        new = bit - (1 << start)
        old = (1 << start) - 1
        tops = self.tops
        for j, (t, ex) in enumerate(zip(self.tables, exact)):
            top = tops[j]
            acc = x = 0
            while acc != new or x < top:
                b = _C - x
                acc |= ex[b]
                t[b] = (t[b] if x < top else old) | acc
                x += 1
            tops[j] = x

    def mask(self, enc: int) -> int:
        """The bits of the rows whose lead divides enc."""
        # map stops at the last table, before the degree byte
        m = reduce(and_, map(getitem, self.tables, enc.to_bytes(self.nbytes, "little")))
        if m < 0:           # every table said "every row"
            m &= (1 << len(self.rows)) - 1
        return m

    def find(self, enc: int):
        """The first row, in insertion order, whose lead divides enc, or
        None."""
        m = self.mask(enc)
        if not m:
            return None
        return self.rows[(m & -m).bit_length() - 1]


class _SigBucket(_Bucket):
    """A _Bucket of _SigRows with the masks of the completion's pair
    filters (see _schreyer_completion): the rows' ratios ascending with
    their positions in the same order, the bits of the plain rows per
    (half, component), and per ring block the bits of the rows whose
    linear Schreyer multipliers contain that block's variable."""
    __slots__ = ("ratios", "ranked", "plain", "lin")

    def __init__(self, order: MonomialOrder):
        super().__init__(order)
        self.ratios: list[int] = []
        self.ranked: list[int] = []
        self.plain: dict[tuple[bool, int], int] = defaultdict(int)
        self.lin = [0] * order.nvars


def _index(items: Iterable[tuple[int, int, object]],
           order: MonomialOrder) -> dict[int, _Bucket]:
    """Buckets of (component, lead monomial, row) items, one extend each."""
    groups: dict[int, list] = defaultdict(list)
    for comp, enc, row in items:
        groups[comp].append((enc, row))
    out = {}
    for comp, group in groups.items():
        out[comp] = bucket = _Bucket(order)
        bucket.extend(group)
    return out


def _make_row(elem: dict, order: MonomialOrder, field, index: int,
              sig_enc: int | None = None) -> _Row:
    """The monic row of elem; with sig_enc, the monomial of a signature's
    term, a _SigRow whose top degree and sig_word cover that monomial too
    (its other signature slots are the caller's to set).

    Keys descend by degree within each summand, and every key with fbit
    lies above every key without it, so the top term degree is that of the
    first key or of the first key without fbit."""
    keys = sorted(elem, reverse=True)
    key = keys[0]
    inv = field.inv(elem[key])
    norm = field.normalize
    tkeys = tuple(keys[1:])
    tcoefs = tuple(norm(inv * elem[k]) for k in tkeys)
    enc, comp = order.split_key(key)
    shift = _CB + order._deg_shift
    top = (key >> shift) & _BMASK
    if key & order.fbit:
        second = bisect_right(keys, -order.fbit, key=neg)
        if second < len(keys):
            top = max(top, keys[second] >> shift)
    if sig_enc is None:
        return _Row(key, enc, comp, tkeys, tcoefs, index, top)
    row = _SigRow(key, enc, comp, tkeys, tcoefs, index,
                  max(top, sig_enc >> order._deg_shift))
    row.sig_word = order.divisor_word(sig_enc)
    return row


def _check_room(row: _Row, target: int, order: MonomialOrder) -> None:
    """Raise unless row * (target / lead) keeps every exponent below C and
    every degree at most 255; the lead must divide target.

    No product term has an exponent or a degree above row.top + deg t, t =
    target / lead, so a sum of at most C - 1 passes at once.  target is
    read with any bits above its degree field, so a degree that spilled
    past 255 fails there and in the exact test that follows.  That test
    takes the blockwise exponent maximum over the row's terms and a
    _SigRow's signature monomial (the minimum of the stored C - e blocks),
    offset so that, added to target, every block keeps its guard bit iff
    maximum + multiplier exponent < C and nothing lands above the degree
    field iff top + deg t <= 255."""
    shift = order._deg_shift
    if (target >> shift) - (row.enc >> shift) + row.top < _C:
        return
    xmask, gx = order._xmask, order._gx
    lo = row.enc & xmask
    encs = [(k >> _CB) & xmask for k in row.tkeys]
    if isinstance(row, _SigRow):
        encs.append(row.sig_word ^ gx)
    for x in encs:
        d = ((lo | gx) - x) & gx
        lo ^= (lo ^ x) & (d - (d >> 7))
    room = ((lo - order._ones) | gx) - (row.enc & order._dlow) + (row.top << shift)
    if ((room + target) & order._hmask) != gx:
        raise DerivationError(
            f"product of a row and {order.decode_mono(target)} / "
            f"{order.decode_mono(row.enc)} leaves the packing range")


def _normal_form(elem: dict, buckets: dict[int, _Bucket], order: MonomialOrder,
                 field, sig: int | None = None, ib: int = 0) -> dict | None:
    """Full tail-reduced remainder of elem modulo the rows of buckets; with
    a signature, the top-reduced element.

    The heap holds negated term keys only, each key once; acc holds their
    coefficients as plain sums of products, reduced modulo p (for a prime
    field) once, when the key is popped.  A reducer's tail lies below its
    lead, so every key it adds is below the popped one and a popped key
    never comes back.  The reducer of a term is the first row of its
    component, in insertion order, whose lead divides it; each row read
    has its multiple checked against the packing range.  Over Q a
    remainder coefficient that is not an int is normalized: an integral
    one becomes an int.

    With sig, the signature word of elem (see _schreyer_completion, which
    gives ib), the reductions are regular: a term m reduces only by a row
    r whose multiple has the smaller signature, r.ratio + (m << ib) < sig,
    and the first row that passes is used.  Only the top term is reduced:
    at the first term with no such reducer the loop stops, and that term
    and the rest of the pending terms are returned as they stand, in
    descending key order.  That suffices for the completion: its
    criteria, the two-sided minimal-multiplier rule among them, read only
    the leads and signatures of its rows, and _interreduce tail-reduces
    the rows it keeps.  If that term has a row whose multiple has
    signature sig itself, elem is singular (super top-reducible) and None
    is returned; the range check covers a row's signature monomial too.
    Without sig the result is never None.

    Each popped term splits its key, ANDs its reducers' mask and makes
    the degree-first range test inline, as split_key, _Bucket.mask and
    _check_room would; _check_room runs only for a row that fails the
    degree test."""
    p = field.p
    norm = field.normalize
    monomask = (1 << order.mono_bits) - 1
    shift = order._deg_shift
    acc = dict(elem)
    heap = [-k for k in acc]
    heapify(heap)
    out: dict = {}
    while heap:
        key = -heappop(heap)
        c = acc.pop(key)
        if p is not None:
            c %= p
        if not c:
            continue
        bucket = buckets.get(_CMAX - (key & _CMAX))
        row = None
        singular = False
        if bucket is not None:
            enc = (key >> _CB) & monomask
            rows = bucket.rows
            # map stops at the last table, before the degree byte
            m = reduce(and_, map(getitem, bucket.tables, enc.to_bytes(bucket.nbytes, "little")))
            if m < 0:       # every table said "every row"
                m &= (1 << len(rows)) - 1
            bound = None if sig is None else sig - (key << ib)
            deg = enc >> shift
            while m:
                r = rows[(m & -m).bit_length() - 1]
                if deg - (r.enc >> shift) + r.top >= _C:
                    _check_room(r, enc, order)
                if bound is None or r.ratio < bound:
                    row = r
                    break
                singular = singular or r.ratio == bound
                m &= m - 1
        if row is None:
            if singular:
                return None
            out[key] = c if p is not None or type(c) is int else norm(c)
            if sig is None:
                continue
            for k in sorted(acc, reverse=True):
                c = acc[k]
                if p is not None:
                    c %= p
                elif type(c) is not int:
                    c = norm(c)
                if c:
                    out[k] = c
            return out
        # same component, so the key difference is the multiplier's key delta
        delta = key - row.key
        nc = -c
        for tk, tc in zip(row.tkeys, row.tcoefs):
            k = tk + delta
            v = acc.get(k)
            if v is None:
                acc[k] = nc * tc
                heappush(heap, -k)
            else:
                acc[k] = v + nc * tc
    return out


def _spoly(ri: _Row, rj: _Row, lcm_enc: int, order: MonomialOrder, field) -> dict:
    """S-element of two monic rows with equal lead component."""
    _check_room(ri, lcm_enc, order)
    _check_room(rj, lcm_enc, order)
    di = order.key_mul_delta(lcm_enc - ri.enc + order.offset)
    dj = order.key_mul_delta(lcm_enc - rj.enc + order.offset)
    out = {k + di: c for k, c in zip(ri.tkeys, ri.tcoefs)}
    for k, c in zip(rj.tkeys, rj.tcoefs):
        kk = k + dj
        v = field.normalize(out.get(kk, 0) - c)
        if v:
            out[kk] = v
        else:
            out.pop(kk, None)
    return out


# ---------------------------------------------------------------------------
# Completions: minimal pair lcms, the Buchberger loop, signatures
# ---------------------------------------------------------------------------

def _linear_colon(order: MonomialOrder, bucket: _Bucket, enc: int,
                  allowed: int) -> tuple[list[tuple[int, int]], int]:
    """The colon monomials q = lcm(lead(r), enc) / enc of degree at most 1
    over the rows r of bucket at the bits of allowed, as (lcm, position)
    ascending, each with the position of the first such row, and the
    mask of the rows whose q none of them divides.

    The bucket's tables give, per ring block j, the rows whose exponent
    there is at most enc's (at[j]) or at most one more (up[j]).  q = 1 (a
    lead dividing enc) divides every q and comes alone.  q = x_j holds for
    the rows in up[j] and every other at[], but not at[j]; it divides
    exactly the q that contain x_j, the rows outside at[j].  A row of
    x_j stays in rest until block j, so the walk stops once rest is
    empty, and it reads up[j] only for a block with candidates."""
    raw = enc.to_bytes(bucket.nbytes, "little")
    tables = bucket.tables
    # map stops at the last table, before the degree byte
    at = list(map(getitem, tables, raw))
    nblocks = len(at)
    after = [allowed] * (nblocks + 1)     # after[j]: the allowed rows of at[j:]
    for j in range(nblocks - 1, -1, -1):
        after[j] = after[j + 1] & at[j]
    divides = after[0]
    if divides:
        return [(enc, (divides & -divides).bit_length() - 1)], 0
    linear = []
    rest = allowed
    before = -1                           # AND of at[:j]
    step = 1 << order._deg_shift
    for j in range(nblocks):
        if not rest:
            break
        lin = before & after[j + 1] & ~at[j]
        if lin:
            lin &= tables[j][raw[j] - 1]
            if lin:
                rest &= at[j]
                linear.append((enc - (1 << (_B * j)) + step, (lin & -lin).bit_length() - 1))
        before &= at[j]
    linear.sort(key=itemgetter(0))
    return linear, rest


def _minimal_lcms(order: MonomialOrder, bucket: _Bucket, enc: int,
                  allowed: int) -> list[tuple[int, int]]:
    """The minimal colon monomials q = lcm(lead(r), enc) / enc over the
    rows r of bucket at the bits of allowed, as (lcm, position) ascending
    by lcm, each with the position of the first such row.

    The q generate the colon ideal <leads> : enc; a q properly divided by
    another is dropped.  _linear_colon gives the q of degree at most 1 and
    drops the q they divide with no lcm formed; the rows left get an lcm,
    tested pairwise against the kept ones (a linear q divides none of
    them).  Every lcm of a linear q has enc's degree plus one, so one past
    255 raises here, as mono_lcm raises for the others."""
    out, rest = _linear_colon(order, bucket, enc, allowed)
    if out and (deg := out[-1][0] >> order._deg_shift) > _BMASK:
        raise DerivationError(f"lcm of degree {deg} is out of packing range")
    rows = bucket.rows
    lcm = order.mono_lcm
    items = []
    while rest:
        low = rest & -rest
        pos = low.bit_length() - 1
        items.append((lcm(rows[pos].enc, enc), pos))
        rest ^= low
    xmask, gx = order._xmask, order._gx
    kept: list[int] = []        # divisor words of the kept lcms of degree >= 2
    prev = None
    for li, pos in sorted(items):
        if li == prev:
            continue
        prev = li
        tw = li & xmask
        for dw in kept:
            if ((dw - tw) & gx) == gx:
                break
        else:
            kept.append(tw | gx)
            out.append((li, pos))
    return out


def buchberger_engine(gens: Iterable[dict], order: MonomialOrder, field,
                      seed: list[dict] | None = None) -> list[dict]:
    """Reduced Groebner basis of the submodule generated by gens (and seed).

    seed may hold an already-computed Groebner basis under the same order
    and field; its internal S-pairs are skipped.  Returns element dicts
    sorted by ascending lead key; generators appearing as zero are dropped.

    The pairs wait in one heap of (lcm, i, j) entries, i < j, and pop by
    ascending lcm key, whose ring degree leads it.  The selection order
    changes only the work: any fair order gives the same reduced basis,
    and the pair rules below hold under every order.  They act at two
    points (Gebauer & Moeller 1988):
    - when row j is inserted it queues a pair only with the first row i of
      each minimal lcm / lead(j) (_minimal_lcms): M drops a pair whose lcm
      another of j's pairs properly divides, F all but the first of equal
      lcm;
    - when (i, j) pops it is dropped, for ideals, if the leads of i and j
      are coprime (the product criterion), and by B if a row n inserted
      after j has a lead dividing L = lcm(i, j) with lcm(i, n) != L and
      lcm(j, n) != L.
    The rows inserted while (i, j) waited are exactly the rows after j in
    its bucket, so B at pop takes the decision that an update of every
    waiting pair at each insert would take.  A row n before j that passed
    that test would make lcm(j, n) properly divide L, and M dropped such a
    pair when j came in; so the scan starts after j for speed only.
    """
    rows: list[_Row] = []
    buckets: dict[int, _Bucket] = defaultdict(partial(_Bucket, order))
    heap: list[tuple[int, int, int]] = []
    where: list[int] = []          # each row's position in its bucket
    lcm = order.mono_lcm
    product = order.rank == 1      # product criterion, valid for ideals only

    def insert(elem: dict, pairs: bool) -> None:
        row = _make_row(elem, order, field, len(rows))
        rows.append(row)
        bucket = buckets[row.comp]
        where.append(len(bucket.rows))
        bucket.add(row.enc, row)
        if pairs:
            # row is the last of its bucket
            for li, pos in _minimal_lcms(order, bucket, row.enc,
                                         (1 << (len(bucket.rows) - 1)) - 1):
                heappush(heap, (li, bucket.rows[pos].index, row.index))

    if seed:
        for elem in seed:
            if elem:
                insert(elem, pairs=False)
    for elem in sorted((e for e in gens if e), key=max):
        red = _normal_form(elem, buckets, order, field)
        if red:
            insert(red, pairs=True)

    while heap:
        lk, i, j = heappop(heap)
        ri, rj = rows[i], rows[j]
        if product and lk == order.mono_mul(ri.enc, rj.enc):
            continue
        bucket = buckets[ri.comp]
        brows = bucket.rows
        start = where[j] + 1
        later = bucket.mask(lk) >> start       # B: the divisors of L after j
        while later:
            n = brows[start + (later & -later).bit_length() - 1].enc
            if lcm(ri.enc, n) != lk and lcm(rj.enc, n) != lk:
                break
            later &= later - 1
        if later:
            continue
        red = _normal_form(_spoly(ri, rj, lk, order, field), buckets, order, field)
        if red:
            insert(red, pairs=True)

    return _interreduce(rows, order, field)


def _schreyer_completion(gens: list[dict], half: int, order: MonomialOrder,
                         field) -> list[_SigRow]:
    """Rows of a Groebner basis of <gens>, where gens[:half] and
    gens[half:] are each a Groebner basis and the syzygies of gens are
    those of the two halves (a direct sum), completed under signatures.

    The signature of t * e_k is the term t * lead(gens[k]) with index k,
    and signatures compare as (term key, index): the Schreyer order, with
    a tie going to the larger index.  A signature is held as one word,
    (term key << ib) | k.  By Schreyer's theorem (Eisenbud, Commutative
    Algebra, Thm 15.10) the syzygies of a Groebner basis g_0, g_1, ... have
    leading module generated by lcm(L_j, L_k) / L_k e_k for j < k with
    leads L of one component; so a signature T e_k of the direct sum is
    the lead of a syzygy iff an earlier generator of its half has a lead
    dividing T L_k.  Candidates are processed by ascending signature, the
    one with the lowest lead first, and each signature once (Gao, Volny &
    Wang 2016, "A new framework for computing Groebner bases"):
    - the syzygy criterion drops a candidate whose signature is a syzygy
      lead, before it is queued;
    - the cover criterion drops t * r when a row w of the same index has a
      signature dividing t sig(r) and a multiple with a lower lead, that
      is w.ratio > r.ratio; each index keeps its rows' ratios sorted, so
      only the rows of larger ratio are tested;
    - a candidate whose top-reduced form is singular (_normal_form with
      the candidate's signature, which reduces regularly and only the top
      term) is dropped.
    With every syzygy lead known no candidate reduces to zero.  Rows are
    only top-reduced: the criteria read leads and signatures alone, and
    the caller's _interreduce reduces the tails of the rows it keeps.

    A pair of rows (r, n) with one lead component has candidates t * r and
    u * n of equal lead; the larger signature is the candidate and the
    other row its first reducer, so the pair is reduced as the S-element
    of the two.  Which is larger depends on the ratios alone, the lcm
    cancelling; equal ratios make a singular pair, with no candidate.  A
    row gets candidates only at its minimal multipliers, on both sides:
    if t' properly divides t, t' * r is processed first, and the row it
    leaves covers t * r (a signature dividing t sig(r), a larger ratio);
    otherwise t' * r was a syzygy lead, covered or singular (the singular
    row has the larger ratio too), and t * r inherits that.  So a row
    keeps the divisor words of the multipliers it has been offered, and a
    row of larger ratio gets a candidate from a new row only if none of
    them divides the new multiplier; the new row's own multipliers are the
    minimal ones over the rows of smaller ratio (_minimal_lcms).  An equal
    multiplier offered later repeats a signature and a lead with a later
    partner, which the queue would pop second.

    The filters that drop syzygy leads before a candidate is formed are
    masks of the bucket (_SigBucket): a plain row of signature e_k whose
    lead is L_k's monomial pairs with no plain row of its (half,
    component), and a multiplier that contains a variable x with sig(r) x
    a Schreyer syzygy lead (r's linear Schreyer multipliers) makes one.
    Each generator enters as the candidate of its own signature e_k, and
    its dict is dropped once it is a row.
    """
    n = len(gens)
    ib = n.bit_length()
    low = (1 << ib) - 1
    split = order.split_key
    lcm = order.mono_lcm
    xmask, gx = order._xmask, order._gx
    rows: list[_SigRow] = []
    buckets: dict[int, _SigBucket] = defaultdict(partial(_SigBucket, order))
    leads = [max(g) for g in gens]
    # per half and lead component, the generator leads in index order: the
    # first one dividing a signature's term has the lowest index
    halves: tuple[list, list] = ([], [])
    for k, lk in enumerate(leads):
        enc, comp = split(lk)
        halves[k >= half].append((comp, enc, k))
    lead_index = [_index(h, order) for h in halves]
    heap = [((lk << ib) | k, lk, ~k, 0) for k, lk in enumerate(leads)]
    heapify(heap)
    # per signature index, its rows' ratios ascending and their signature
    # divisor words in the same order
    covers: dict[int, tuple[list[int], list[int]]] = defaultdict(lambda: ([], []))

    def push(row: _SigRow, li: int, partner: int) -> None:
        """Queue row * (li / lead) with its first reducer, unless its
        signature is a syzygy lead; the caller has applied the filters."""
        _check_room(row, li, order)
        j = row.leads.find(row.sig_word - gx + li - row.enc)
        if j is not None and j < row.ratio & low:
            return
        lk = row.key + ((li - row.enc) << _CB)
        heappush(heap, (row.ratio + (lk << ib), lk, row.index, partner))

    last = -1
    while heap:
        sig, lk, src, partner = heappop(heap)
        if sig == last:
            continue
        last = sig
        k = sig & low
        T = sig >> ib
        sig_enc, comp = split(T)
        if src < 0:
            elem = gens[~src]
            gens[~src] = None
        else:
            ratio = sig - (lk << ib)
            tw = sig_enc & xmask
            cover_ratios, cover_words = covers[k]
            if any(((dw - tw) & gx) == gx
                   for dw in cover_words[bisect_right(cover_ratios, ratio):]):
                continue
            elem = _spoly(rows[src], rows[partner], split(lk)[0], order, field)
        red = _normal_form(elem, buckets, order, field, sig, ib)
        if not red:         # singular, or zero (which no candidate is; see above)
            continue
        new = _make_row(red, order, field, len(rows), sig_enc)
        new.ratio = ratio = sig - (new.key << ib)
        new.leads = hb = lead_index[k >= half][comp]
        new.offered = ()
        rows.append(new)
        cover_ratios, cover_words = covers[k]
        at = bisect_right(cover_ratios, ratio)
        cover_ratios.insert(at, ratio)
        cover_words.insert(at, new.sig_word)
        bucket = buckets[new.comp]
        brows = bucket.rows
        bit = 1 << len(brows)
        # the ring blocks of the variables x with sig(new) x a multiple of
        # a Schreyer syzygy lead (all of them if sig(new) is one)
        lin = 0
        for li, _ in _linear_colon(order, hb, sig_enc, (1 << bisect_left(hb.rows, k)) - 1)[0]:
            if li == sig_enc:
                lin = xmask
                break
            lin |= _BMASK << (((li ^ sig_enc) & xmask).bit_length() - 1) // _B * _B
        # a row of signature e_k whose lead is L_k's monomial, in any
        # component, is plain; two plain rows of one half whose L share a
        # component never pair: L of the lower index divides the lcm, so
        # the pair's signature is a syzygy lead
        same = (k >= half, comp) if sig_enc == new.enc and T == leads[k] else None
        plain = bucket.plain[same] if same is not None else 0
        # the rows of larger ratio whose multiple is no syzygy lead by the
        # filters: r's multiplier contains x_j iff r's exponent at j is
        # below new's, the rows of table entry byte + 1
        ratios, ranked = bucket.ratios, bucket.ranked
        lo = bisect_left(ratios, ratio)
        hi = bisect_right(ratios, ratio, lo)
        skip = plain
        for t, b, lm in zip(bucket.tables, new.enc.to_bytes(bucket.nbytes, "little"),
                            bucket.lin):
            if lm and b < _C:
                skip |= t[b + 1] & lm
        larger = sum(map(_bit, ranked[hi:]))
        above = larger & ~skip
        while above:
            r = brows[(above & -above).bit_length() - 1]
            above &= above - 1
            li = lcm(r.enc, new.enc)
            tw = li & xmask
            if not any(((dw - tw) & gx) == gx for dw in r.offered):
                r.offered += (tw | gx,)
                push(r, li, new.index)
        own = (bit - 1) ^ (larger + sum(map(_bit, ranked[lo:hi])))
        if own & ~plain:
            for li, pos in _minimal_lcms(order, bucket, new.enc, own):
                if not (plain >> pos) & 1 and not (li ^ new.enc) & lin:
                    new.offered += (li & xmask | gx,)
                    push(new, li, brows[pos].index)
        bucket.add(new.enc, new)
        ratios.insert(hi, ratio)
        ranked.insert(hi, len(brows) - 1)
        if same is not None:
            bucket.plain[same] |= bit
        for j in range(order.nvars):
            if lin >> (_B * j) & 1:
                bucket.lin[j] |= bit
    return rows


def _interreduce(rows: list[_Row], order: MonomialOrder, field) -> list[dict]:
    """Drop redundant leads, tail-reduce the survivors, sort by lead key.

    The rows are indexed in ascending key order, so a row is minimal iff
    the lowest bit of its lead's mask is its own: no row before it divides
    its lead.  The first divisor of a term in key order is a minimal row,
    so the tails reduce by minimal rows alone, and a lead never divides a
    term below it, so a row's own entry cannot reduce its tail."""
    index = _index(((r.comp, r.enc, r) for r in sorted(rows, key=_row_key)), order)
    out = []
    one = field.convert(1)
    for bucket in index.values():
        for pos, row in enumerate(bucket.rows):
            m = bucket.mask(row.enc)
            if m & -m != 1 << pos:
                continue
            red = {row.key: one}
            red.update(_normal_form(dict(zip(row.tkeys, row.tcoefs)), index, order, field))
            out.append(red)
    out.sort(key=max)
    return out


# ---------------------------------------------------------------------------
# Prepared bases
# ---------------------------------------------------------------------------

class EngineBasis:
    """A reduced basis prepared for fast repeated normal forms.  Its rows
    and their divisor index are built by the first normal form: most
    stage bases are only read as element lists."""

    def __init__(self, elements: list[dict], order: MonomialOrder, field):
        self.elements = elements
        self.order = order
        self.field = field
        self._buckets: dict[int, _Bucket] | None = None

    def normal_form(self, elem: dict) -> dict:
        if self._buckets is None:
            rows = (_make_row(e, self.order, self.field, i)
                    for i, e in enumerate(self.elements))
            self._buckets = _index(((r.comp, r.enc, r) for r in rows), self.order)
        return _normal_form(elem, self._buckets, self.order, self.field)

    def contains(self, elem: dict) -> bool:
        return not self.normal_form(elem)

    def modulo(self, field) -> "EngineBasis":
        """A basis over Q read modulo field's p, as a basis over field; a
        coefficient maps by field.convert, so a Fraction maps to numerator
        times the inverse of its denominator.

        Every lead is monic, so each reduction of the run that made this
        basis is a reduction modulo p too (one whose coefficient vanishes
        there does nothing), and each S-pair the run reduced to zero or
        pruned by its leads is one the run modulo p may skip.  The
        projection is therefore the reduced basis, over field, of the
        projected generators (a term whose coefficient p divides drops
        out) when every lead coefficient the run inverted was a unit
        modulo p, a lucky prime (Pauer 1992): the caller checks that."""
        conv = field.convert
        return EngineBasis([{k: v for k, c in e.items() if (v := conv(c))}
                            for e in self.elements], self.order, field)

    def structure(self) -> Iterator[list[tuple[tuple[int, ...], int]]]:
        """Coefficient-free support shape, comparable across coefficient
        fields: per element in turn, (exponents, component) of each term in
        descending key order."""
        for e in self.elements:
            yield [(self.order.decode_mono(self.order.split_key(k)[0]),
                    self.order.split_key(k)[1]) for k in sorted(e, reverse=True)]


# ---------------------------------------------------------------------------
# Module operations
# ---------------------------------------------------------------------------

def intersect_pair_engine(a: list[dict], b: list[dict], order: MonomialOrder,
                          field) -> list[dict]:
    """Reduced basis of <a> intersect <b> via one elimination in F + F.

    Both inputs must be reduced bases in order, as every caller passes.
    If every element of a reduces to zero modulo b, then <a> lies in <b>
    (a zero remainder proves membership for any b) and the intersection
    is <a>.  Its reduced basis is unique, and a is that basis only because
    a is reduced already, so a itself is returned with no elimination.
    The check stops at the first nonzero remainder, so a step that does
    change the basis pays little for it.

    Otherwise the elimination runs in rank 2r, where the first summand,
    whose keys carry the bit fbit, dominates.  (a, 0) and (b, b) generate
    a module whose elements with zero first part are exactly (0, x) for x
    in <a> intersect <b>.  The first summand orders keys as order does and
    divisibility is per component, so (a, 0) is a reduced Groebner basis,
    and so is (b, b), whose leads are b's in the first summand.  A
    syzygy of the two lists together has a zero second part, so it is a
    syzygy of b's elements there and then of a's: the syzygies are syz(a)
    + syz(b), and Schreyer's theorem gives their leads from the leads of
    a and b alone.  _schreyer_completion completes the two lists under
    signatures with every syzygy lead known, so no S-pair reduces to zero.
    An element s of both a and b goes in as (s, s) and reduces by (s, 0)
    to (0, s).  b is the side copied into both summands: the colon passes
    one-term elements as b, so a large a is never duplicated.
    The completion's rows whose lead lacks fbit lie wholly in the second
    summand and form a Groebner basis of (0, <a> intersect <b>) (the
    first summand dominates); interreduced and moved back to F they are
    the reduced basis of the intersection in order.
    Keys move by arithmetic alone (see MonomialOrder): the first summand's
    key is k | fbit, the second's k - r, and k - r + r = k on the way back.
    """
    # the containment check's rows are dropped before the elimination
    if all(map(EngineBasis(b, order, field).contains, a)):
        return a
    r = order.rank
    ext = MonomialOrder(order.nvars, 2 * r)
    fbit = ext.fbit
    gens = [{k | fbit: c for k, c in e.items()} for e in a]
    gens += [{k2: c for k, c in e.items() for k2 in (k | fbit, k - r)} for e in b]
    # only the second summand's rows outlive the completion, and only the
    # reduced basis the copy back to F
    meet = _interreduce([row for row in _schreyer_completion(gens, len(a), ext, field)
                         if not row.key & fbit], ext, field)
    return [{k + r: c for k, c in e.items()} for e in meet]


def module_quotient_engine(gens: list[dict], mono_exps: Sequence[int],
                           order: MonomialOrder, field) -> list[dict]:
    """Reduced basis of (M : m) for a monomial m, as (M intersect m F) / m
    with F the free module of order's rank.

    gens must be a reduced basis of M in order, as intersect_pair_engine
    requires.  M intersect m F = m (M : m) (Cox, Little & O'Shea, Ideals,
    Varieties, and Algorithms, 4.4), and every term of an element of m F
    is divisible by m.  Dividing by a monomial keeps the order of
    terms and divisibility among leads, so the divided intersection basis
    is already the reduced basis of the colon.
    """
    m = order.encode_mono(mono_exps)
    meet = intersect_pair_engine(gens, [{order.term_key(m, i): field.convert(1)}
                                        for i in range(order.rank)], order, field)
    delta = -order.key_mul_delta(m)
    return [{k + delta: c for k, c in e.items()} for e in meet]


def intersect_engine(mods: list[list[dict]], order: MonomialOrder, field) -> list[dict]:
    """Fold pairwise intersections over the inputs, smallest bases first."""
    if not mods:
        raise ValueError("need at least one submodule")
    work = sorted(mods, key=len)
    cur = work[0]
    for nxt in work[1:]:
        cur = intersect_pair_engine(cur, nxt, order, field)
    return cur


# ---------------------------------------------------------------------------
# Hilbert series from lead terms
# ---------------------------------------------------------------------------

def _add_shifted(a: dict[int, int], b: dict[int, int], d: int, s: int) -> dict[int, int]:
    """a + s t^d b, polynomials in t as {exponent: coefficient}, no zeros."""
    out = dict(a)
    for i, c in b.items():
        out[i + d] = out.get(i + d, 0) + s * c
    return {i: c for i, c in out.items() if c}


def _hilbert_numerator(gens: tuple[int, ...], order: MonomialOrder,
                       memo: dict) -> dict[int, int]:
    """Numerator of HS(R/I) over (1-t)^nvars for a monomial ideal I, given
    by the ascending packed monomials of its minimal generators.

    HN(I) = HN(I + x_p) + t HN(I : x_p) for a pivot x_p (Bigatti 1997),
    evaluated over an explicit stack so that a deep split chain needs no
    interpreter recursion; see the module docstring for the pivot, the
    leaf rule and why both parts stay minimal."""
    k, xmask, gx = order.nvars, order._xmask, order._gx
    offset, dshift = order.offset, order._deg_shift
    dstep = 1 << dshift
    splits: dict = {}
    stack = [gens]
    while stack:
        cur = stack[-1]
        if cur in memo:
            stack.pop()
        elif cur in splits:
            plus, colon = splits[cur]
            todo = [g for g in (colon, plus) if g not in memo]
            if todo:
                stack.extend(todo)
            else:
                memo[cur] = _add_shifted(memo[plus], memo[colon], 1, 1)
        else:
            counts = [0] * k
            for m in cur:
                exps = (offset - (m & xmask)).to_bytes(k, "little")
                if exps.count(0) < k - 1:       # mixed: two variables or more
                    for v, e in enumerate(exps):
                        if e:
                            counts[v] += 1
            top = max(counts)
            if not top:
                memo[cur] = reduce(lambda a, m: _add_shifted(a, a, m >> dshift, -1),
                                   cur, {0: 1})
                continue
            shift = _B * counts.index(top)
            bit = 1 << shift
            free = [m for m in cur if (m >> shift) & _BMASK == _C]
            lowered = [m + bit - dstep for m in cur if (m >> shift) & _BMASK != _C]
            words = [(m & xmask) | gx for m in lowered if (m >> shift) & _BMASK == _C]
            kept = [m for m in free
                    if not any((w - (m & xmask)) & gx == gx for w in words)]
            splits[cur] = (tuple(sorted(free + [offset - bit + dstep])),
                           tuple(sorted(kept + lowered)))
    return memo[gens]


def hilbert_series_engine(basis: list[dict], order: MonomialOrder,
                          shifts: Sequence[int]) -> HilbertSeries:
    """Hilbert series of F/S from the lead-term module of a Groebner basis.

    The shifts give the degrees of the free-module generators.  A lead
    comes after its divisors in ascending order, so one pass of
    divisor-word tests keeps each component's minimal packed leads.
    """
    per_comp: dict[int, set[int]] = defaultdict(set)
    for e in basis:
        enc, comp = order.split_key(max(e))
        per_comp[comp].add(enc)
    xmask, gx = order._xmask, order._gx
    memo: dict = {}
    total: dict[int, int] = defaultdict(int)
    for comp in range(order.rank):
        gens: list[int] = []
        words: list[int] = []
        for m in sorted(per_comp.get(comp, ())):
            if not any((w - (m & xmask)) & gx == gx for w in words):
                gens.append(m)
                words.append((m & xmask) | gx)
        for i, c in _hilbert_numerator(tuple(gens), order, memo).items():
            total[i + shifts[comp]] += c
    return HilbertSeries.from_coeffs({i: c for i, c in total.items() if c},
                                     denom_exp=order.nvars)


# ---------------------------------------------------------------------------
# Public wrappers over symbolic types
# ---------------------------------------------------------------------------

class GroebnerBasis:
    """Reduced Groebner basis of a submodule, with its order and field."""

    def __init__(self, engine: EngineBasis, shifts: tuple[int, ...]):
        self.engine = engine
        self.shifts = shifts

    @property
    def order(self) -> MonomialOrder:
        return self.engine.order

    @property
    def field(self):
        return self.engine.field

    def __len__(self):
        return len(self.engine.elements)

    def contains(self, e: ModuleElement | GradedPoly) -> bool:
        return self.engine.contains(to_engine(e, self.order, self.field))

    def hilbert_series(self) -> HilbertSeries:
        return hilbert_series_engine(self.engine.elements, self.order, self.shifts)

    def structure_fingerprint(self) -> str:
        """sha256 of the compact JSON text of the list of engine.structure(),
        fed to the hash one element at a time, so the text is never held
        whole."""
        digest = hashlib.sha256(b"[")
        for i, shape in enumerate(self.engine.structure()):
            digest.update(("," if i else "").encode()
                          + json.dumps(shape, separators=(",", ":")).encode())
        digest.update(b"]")
        return digest.hexdigest()

    def same_module(self, other: "GroebnerBasis") -> bool:
        """Equality of reduced bases, including coefficients, same order/field."""
        if self.order.descriptor != other.order.descriptor:
            raise ValueError("bases use different orders")
        return self.engine.elements == other.engine.elements


# ---------------------------------------------------------------------------
# Disk cache for reduced bases
# ---------------------------------------------------------------------------

# bump whenever engine output, a stage's derivation or the entry format could
# change: the keys cover generators, not code, and entries of older versions
# are never read
CACHE_VERSION = 2


def _decode_coeff(c, field):
    """A stored coefficient: a residue 0 < c < p, or a rational [n, d] in
    lowest terms with d > 0 and n nonzero."""
    if field.p is None:
        n, d = c
        if type(n) is int and type(d) is int and n and d > 0 and gcd(n, d) == 1:
            return n if d == 1 else Fraction(n, d)
    elif type(c) is int and 0 < c < field.p:
        return c
    raise ValueError(f"coefficient {c!r} out of range")


def _decode_basis(raw: list, order: MonomialOrder, field) -> list[dict]:
    """Element dicts from a cache payload's element list.

    Raises ValueError unless they have the shape of a reduced basis in
    order: no empty element or repeated key, every component below the
    rank, monic leads in strictly ascending key order, and no lead dividing
    another in its component.  A lead's divisors in its component lie
    below it, so the leads, indexed in order, are checked at the end: the
    mask of each lead must be its own bit alone.  A lead with a ring byte
    outside 1..C or a degree field other than the sum of its exponents is
    no packed monomial and raises ValueError too, and so does a key with
    the bit fbit set, which no term key has."""
    floor = _CMAX - order.rank          # key & _CMAX above it: component < rank
    leads = []
    out = []
    prev = -1
    for terms in raw:
        elem = {k: _decode_coeff(c, field) for k, c in terms}
        if not elem or len(elem) != len(terms) or not all(
                type(k) is int and 0 <= k < order.fbit and k & _CMAX > floor for k in elem):
            raise ValueError("malformed element")
        lead = max(elem)
        if lead <= prev or elem[lead] != 1:
            raise ValueError("leads not ascending, or not monic")
        prev = lead
        enc, comp = order.split_key(lead)
        ring = (enc & order._xmask).to_bytes(order.nvars, "little")
        if not 0 < min(ring) <= max(ring) <= _C or (
                enc >> order._deg_shift != order.nvars * _C - sum(ring)):
            raise ValueError("lead out of packing range")
        leads.append((comp, enc, enc))
        out.append(elem)
    for bucket in _index(leads, order).values():
        for pos, enc in enumerate(bucket.rows):
            if bucket.mask(enc) != 1 << pos:
                raise ValueError("a lead divides a later lead")
    return out


class BasisCache:
    """Reduced bases on disk, keyed by tag, own generators, parent keys,
    order, field and CACHE_VERSION; a key never needs a basis loaded.

    An entry is the sha256 hex digest of its payload, a newline, then the
    payload: JSON {"elements": [[[key, coeff], ...], ...]} holding the
    engine's element dicts unchanged, with packed term keys and each
    coefficient as a GF(p) residue or a rational [numerator, denominator].
    """

    def __init__(self, directory: str | None):
        self.directory = directory
        if directory:
            os.makedirs(directory, exist_ok=True)

    @staticmethod
    def key(tag: str, gens_text: Sequence[str], parents: Sequence[str],
            order: MonomialOrder, field) -> str:
        blob = json.dumps({
            "tag": tag,
            "gens": sorted(gens_text),
            "parents": list(parents),
            "order": order.descriptor,
            "field": field.name,
            "version": CACHE_VERSION,
        }, separators=(",", ":"), default=str)
        return hashlib.sha256(blob.encode()).hexdigest()

    def path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".json")

    def load(self, key: str, order: MonomialOrder, field) -> list[dict] | None:
        """The stored basis elements; None (a miss, which the stage recomputes
        and overwrites) if the entry is missing, its digest does not match,
        or its payload does not decode to a reduced basis in order."""
        if not self.directory:
            return None
        try:
            with open(self.path(key), "rb") as fh:
                digest, _, payload = fh.read().partition(b"\n")
        except FileNotFoundError:
            return None
        if hashlib.sha256(payload).hexdigest().encode() != digest:
            return None
        try:
            return _decode_basis(json.loads(payload)["elements"], order, field)
        except (ValueError, TypeError, KeyError):
            # JSONDecodeError is a ValueError
            return None

    def store(self, key: str, elements: list[dict], field) -> None:
        """Write to a temporary file, then rename: readers never see a partial
        entry.  If either step fails the temporary file is removed."""
        if not self.directory:
            return
        rational = field.p is None
        payload = json.dumps({"elements": [
            [[k, [c.numerator, c.denominator] if rational else c]
             for k, c in e.items()] for e in elements]},
            separators=(",", ":")).encode()
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(hashlib.sha256(payload).hexdigest().encode() + b"\n" + payload)
            os.replace(tmp, self.path(key))
        except BaseException:
            os.unlink(tmp)
            raise
