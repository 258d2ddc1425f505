"""Quantum torus arithmetic over a Dynkin diagram's vertex lattice.

Elements are finite sums of commutative monomials in the variables z[i,r],
with coefficients that are Laurent polynomials in v = t^{1/2} (stored as
integer dicts v-exponent -> coefficient, so no rationals ever appear).  The
commutative monomials are the bar-invariant basis; the noncommutative star
product inserts a power of v determined by the skew form

    Lambda((i,r), (j,s)) = f_form(i, j, s - r),

extended bilinearly, via comm(e) * comm(f) = v^Lambda(e,f) comm(e+f).

Also provided: the embedding of Y-variable monomials (Y keyed by (i,r),
standing for the Y-variable at spectral shift r+1, maps to z[i,r]/z[i,r+2]),
evaluation at t=1, and exact left division (the workhorse of quantum
exchange relations, where the Laurent phenomenon guarantees exactness).

Division terminates by proof, not by a step cap.  The torus is a domain and
the twist only moves v-powers, so in every vertex the exponent range of a
product is the sum of the ranges of its factors.  A quotient x of d * x = a
therefore has every exponent, vertex by vertex, in the finite degree box
[min_a - min_d, max_a - max_d].  The division produces quotient exponents in
strictly decreasing lex order, so it meets each point of the box at most
once; a candidate outside the box certifies at once that no quotient exists.

Each element keeps its dense terms, _dense, in a frame, _frame, and only
this module reads either.  A frame holds vertices in reading order and the
skew form on them, read whole in one call to cartan.skew_form when a product
or a division first needs it, so sums, moves, comparisons and printing never
read it.  A dense key is one non-negative int that packs an exponent vector
over the frame: each vertex owns a 16-bit field holding BIAS - e for its
exponent e, the first vertex of the reading order in the most significant
field, so plain int order is the reverse of the lex order.  The top bit of
each field is a guard bit, clear in every key, so e runs over [EXP_MIN,
EXP_MAX] = [1 - 2^14, 2^14]; the constructor refuses an exponent outside it,
naming the vertex, and a product or a division whose key would leave it
raises TorusError naming the operation, never a wrong answer.  The sum of
two keys is one int addition less the frame's zero key, and a field that
leaves its range sets a guard bit, so one AND with the guard mask tests a
whole key.  Keys are ints, not tuples, because CPython keeps up to 2 000
freed tuples of each length up to 20 for reuse, so a large product's tuple
keys outlived it, and an int key is also about a third of the size.  The
dense terms are the one copy of an element's terms: the constructor sums
the given terms into fresh dicts, so keys of one monomial add up and zero
exponents vanish, and terms, the ExpKey view, is built from them only when
read.  Printing never reads it: to_text
and sorted_terms render term by term from the dense keys.  A seed's
variables share one frame built with the seed's Lambda as its skew form, so
their arithmetic converts nothing and reads no skew form.  No coefficient
dict is written once its element is built, and terms and sorted_terms hand
each out read-only, so a sum shares those of every exponent only one operand
has, and a product lets equal coefficients share one dict.  Operands in two
frames meet in either one when it holds the other's vertices, else in a new
frame on their union.  By skew symmetry a product or a division reads only
the twist rows of its right factor or divisor, built once per call.  The
classical (t=1) engine uses the same TorusElement with no Cartan data: an
untwisted frame, where the same product and division run at zero twist.

TERM_BUDGET caps the memory of one operation.  A star product counts its
terms as it grows, after each term of its left factor, a division counts
its remainder after each quotient term, and a sum counts its result; past
the budget each raises TermBudgetError with the size.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from heapq import heapify, heappop, heappush, nsmallest
from operator import mul
from struct import Struct
from types import MappingProxyType

from .cartan import CartanData, check_vertices, f_form, skew_form

Vertex = tuple[int, int]
TCoeff = dict[int, int]          # v-exponent -> integer coefficient
ExpKey = tuple[tuple[Vertex, int], ...]  # ((i,r), e) factors in canonical order


class TorusError(ValueError):
    pass


# The most terms a star product, partial or whole, or a sum may have: a cap
# on one operation's memory.  The largest exchange sum a finishing fund-char
# forms, D6 (1,0)'s, has 194 270 terms; a full run of D5 (2,1)'s sequence,
# every step's exchange, forms one of 1 201 258.
TERM_BUDGET = 2_000_000


class TermBudgetError(TorusError):
    """A star product, a division remainder or a sum grew past TERM_BUDGET
    terms: terms is its size when it stopped and budget the cap."""

    def __init__(self, what: str, terms: int):
        super().__init__(
            f"{what} has {terms} terms, more than the term budget of {TERM_BUDGET}"
        )
        self.terms = terms
        self.budget = TERM_BUDGET


class NonExactDivision(TorusError):
    """Left division is not exact.

    Carries why (one of the two reasons below), the remainder at the point
    of failure, and the term counts of the numerator and the divisor."""

    OUTSIDE_BOX = "quotient exponent outside the degree box"
    NON_EXACT_COEFFICIENT = "non-exact coefficient"

    # the message shows this many leading remainder terms; .remainder has all
    SHOWN_TERMS = 3

    def __init__(
        self, reason: str, remainder: "TorusElement", num_terms: int, den_terms: int
    ):
        super().__init__(
            f"non-exact division ({reason}) of a {num_terms}-term numerator by a "
            f"{den_terms}-term divisor, remainder {remainder.to_text(self.SHOWN_TERMS)}"
        )
        self.reason = reason
        self.remainder = remainder
        self.num_terms = num_terms
        self.den_terms = den_terms


# ---------------------------------------------------------------- TCoeff ops
#
# _add_product is the one accumulator: every sum, product, negation and
# shift of coefficients is target += v^shift * c1 * c2 on some target.

def _add_product(target: TCoeff, c1: TCoeff, c2: TCoeff, shift: int = 0) -> TCoeff:
    """target += v^shift * c1 * c2, in place, without zero entries; returns
    target, which must be neither c1 nor c2."""
    for p, x in c1.items():
        p += shift
        for q, y in c2.items():
            n = target.get(p + q, 0) + x * y
            if n:
                target[p + q] = n
            else:
                target.pop(p + q, None)
    return target


def tc_exact_div(num: TCoeff, den: TCoeff) -> TCoeff:
    """Exact division of Laurent polynomials in v over the integers."""
    if not den:
        raise TorusError("division by zero coefficient")
    if not num:
        return {}
    quot: TCoeff = {}
    rem = dict(num)
    d_top = max(den)
    d_lead = den[d_top]
    # any exact quotient has its v-exponents confined to this range
    min_shift = min(num) - min(den)
    while rem:
        r_top = max(rem)
        shift = r_top - d_top
        if shift < min_shift:
            raise TorusError(f"coefficient {num} not divisible by {den}")
        lead, r = divmod(rem[r_top], d_lead)
        if r != 0:
            raise TorusError(f"coefficient {num} not divisible by {den}")
        quot[shift] = lead
        _add_product(rem, den, {shift: -lead})
    return quot


def tc_text(a: TCoeff) -> str:
    if not a:
        return "0"
    parts = []
    for k in sorted(a, reverse=True):
        c = a[k]
        if k == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else ("-" if c == -1 else str(c) + "*")
            parts.append(f"{head}t^{{{k}/2}}")
    return "(" + " + ".join(parts) + ")" if len(parts) > 1 else parts[0]


# ------------------------------------------------------------ exponent keys

def vertex_sort_key(v: Vertex) -> tuple[int, int]:
    # level descending, node ascending: the slice reading order
    return (-v[1], v[0])


def make_key(exp: dict[Vertex, int]) -> ExpKey:
    return tuple(
        (u, exp[u]) for u in sorted(exp, key=vertex_sort_key) if exp[u] != 0
    )


def monomial_text(key: ExpKey, letter: str = "z") -> str:
    """The monomial of key as text, e.g. z[1,0]z[2,1]^-1; "" for the empty key."""
    return "".join(f"{letter}[{i},{r}]" + (f"^{e}" if e != 1 else "") for (i, r), e in key)


# A dense key gives each vertex a 16-bit field holding BIAS - e, whose top
# bit is the guard bit: the fields 0 .. 2^15 - 1 hold EXP_MIN <= e <= EXP_MAX.
BIAS = 1 << 14
EXP_MIN, EXP_MAX = BIAS + 1 - (1 << 15), BIAS


class _Frame:
    """Vertices in reading order, and the skew form on them.

    A dense key packs the exponent vector of a term into one int (module
    docstring): of n vertices, the one at column j owns bits 16(n-1-j) to
    16(n-j) - 1, which hold BIAS - e.  zero is the key of the empty
    monomial, BIAS in every field, and guard has the top bit of every field
    set.  dense maps an ExpKey to its key, sparse_key maps a key back, and
    unpack gives the negated exponents -e along the reading order.  Plain
    int order on keys is the reverse of the lex order along it (a vertex
    missing from a key counts as exponent 0), and min picks the leading
    term.  With Cartan data, lam is cartan.skew_form of the vertices, read
    whole on its first read, which is the first twists call, unless the
    frame was built with it; the vertices' nodes are checked at
    construction, so a vertex off the Cartan data is refused when its frame
    is built.  The twist row of a term is its Lambda row, a list:
    Lambda(e, f) = twist(e) . unpack(f), since the negations of e and f
    cancel.  Lambda is skew, so twist(e) is the sum of e[a] lam[a] over the
    support of e.  Without Cartan data lam is None and so are the twist
    rows: the untwisted (t=1) ring."""

    __slots__ = ("verts", "col", "cartan", "_lam", "_fields", "zero", "guard")

    def __init__(self, verts, cartan: CartanData | None, lam: list[list[int]] | None = None):
        self.verts = tuple(sorted(verts, key=vertex_sort_key))
        self.col = {u: j for j, u in enumerate(self.verts)}
        self.cartan = cartan
        if cartan is not None:
            check_vertices(cartan, self.verts)
        self._lam = lam
        self._fields = Struct(f">{len(self.verts)}h")
        self.guard = int.from_bytes(b"\x80\x00" * len(self.verts), "big")
        self.zero = self.guard >> 1

    @property
    def lam(self) -> list[list[int]] | None:
        if self._lam is None and self.cartan is not None:
            self._lam = skew_form(self.cartan, self.verts)
        return self._lam

    def unpack(self, k: int) -> tuple[int, ...]:
        """The negated exponents of key k, one per vertex in reading order."""
        # xor with zero turns each field into its negated exponent in 15-bit
        # two's complement, and copying bit 14 up to bit 15 widens it to 16
        w = k ^ self.zero
        return self._fields.unpack((w | (w & self.zero) << 1).to_bytes(self._fields.size, "big"))

    def dense(self, key: ExpKey) -> int:
        """key's dense key; its factors may come in any order.  An exponent
        outside [EXP_MIN, EXP_MAX] raises TorusError naming its vertex."""
        neg = [0] * len(self.verts)
        for u, e in key:
            if e:
                neg[self.col[u]] -= e
        if min(neg, default=0) < -EXP_MAX or max(neg, default=0) > -EXP_MIN:
            j = next(j for j, x in enumerate(neg) if not -EXP_MAX <= x <= -EXP_MIN)
            i, r = self.verts[j]
            raise TorusError(
                f"exponent {-neg[j]} of z[{i},{r}] lies outside [{EXP_MIN}, {EXP_MAX}]"
            )
        # the inverse of unpack: flip bit 14 of each 16-bit field, clear bit 15
        return (int.from_bytes(self._fields.pack(*neg), "big") ^ self.zero) & ~self.guard

    def sparse_key(self, k: int) -> ExpKey:
        verts = self.verts
        return tuple((verts[j], -e) for j, e in enumerate(self.unpack(k)) if e)

    def bounds(self, keys) -> tuple[int, int]:
        """The keys whose fields are the least and the greatest of each field
        over keys, which must not be empty.  A field of (x | guard) - k keeps its
        guard bit where x's field is at least k's, so each key costs a few
        int operations and no unpacking."""
        guard = self.guard
        keys = iter(keys)
        lo = hi = next(keys)
        for k in keys:
            ge = ((lo | guard) - k) & guard  # lo's field >= k's
            lo ^= (lo ^ k) & (ge - (ge >> 15))
            ge = ((k | guard) - hi) & guard  # k's field >= hi's
            hi ^= (hi ^ k) & (ge - (ge >> 15))
        return lo, hi

    def twists(self, keys) -> dict:
        """The twist row of each dense key."""
        lam = self.lam
        if lam is None:
            return dict.fromkeys(keys)
        return {e: _twist(lam, self.unpack(e)) for e in keys}


def _twist(lam: list[list[int]], e: Sequence[int]) -> list[int]:
    scaled = [[x * y for y in lam[a]] for a, x in enumerate(e) if x]
    return list(map(sum, zip(*scaled))) if scaled else [0] * len(e)


def lambda_of(c: CartanData, e: ExpKey | dict, f: ExpKey | dict) -> int:
    """Skew form, extended bilinearly from Lambda((i,r),(j,s)) = F_ij(s-r).

    The products use _Frame.twists; this pairwise form is the reference it
    is tested against."""
    ee = dict(e) if not isinstance(e, dict) else e
    ff = dict(f) if not isinstance(f, dict) else f
    total = 0
    for (i, r), a in ee.items():
        for (j, s), b in ff.items():
            if a and b:
                total += a * b * f_form(c, i, j, s - r)
    return total


# ------------------------------------------------------------- torus values

class TorusElement:
    """Finite sum of commutative monomials with Laurent coefficients in v,
    stored in _dense and _frame, which only this module reads.  Immutable:
    its coefficients leave it read-only.  cartan None is the untwisted ring,
    whose star product is the commutative (t=1) product.  Elements over
    different Dynkin types, or twisted and untwisted, never meet."""

    __slots__ = ("_frame", "_dense", "_terms")

    def __init__(self, cartan: CartanData | None, terms: Mapping[ExpKey, TCoeff]):
        """The sum of the given terms, added into fresh coefficient dicts."""
        nonzero = [(k, c) for k, c in terms.items() if any(c.values())]
        self._frame = frame = _Frame({u for k, _ in nonzero for u, e in k if e}, cartan)
        dense: dict[int, TCoeff] = {}
        for k, c in nonzero:
            _add_product(dense.setdefault(frame.dense(k), {}), c, {0: 1})
        self._dense = {k: c for k, c in dense.items() if c}
        self._terms = None

    @classmethod
    def _of(cls, frame: _Frame, dense: dict) -> "TorusElement":
        """The element with these dense terms in frame."""
        el = cls.__new__(cls)
        el._frame, el._dense, el._terms = frame, dense, None
        return el

    @property
    def cartan(self) -> CartanData | None:
        return self._frame.cartan

    @property
    def terms(self) -> Mapping[ExpKey, Mapping[int, int]]:
        """The terms keyed by ExpKey, each coefficient read-only: a view built on first read."""
        if self._terms is None:
            key = self._frame.sparse_key
            self._terms = MappingProxyType(
                {key(k): MappingProxyType(c) for k, c in self._dense.items()}
            )
        return self._terms

    def _join(self, other: "TorusElement") -> tuple["TorusElement", "TorusElement"]:
        """self and other in one frame: the frame of either one when it
        holds the other's vertices, else a new frame on their union."""
        if not self._meets(other):
            raise TorusError("operands must live over the same Cartan data")
        fa, fb = self._frame, other._frame
        if fa is fb or fa.verts == fb.verts:
            return self, other
        if fa.col.keys() <= fb.col.keys():
            return self._moved(fb), other
        if fb.col.keys() <= fa.col.keys():
            return self, other._moved(fa)
        frame = _Frame({*fa.verts, *fb.verts}, self.cartan)
        return self._moved(frame), other._moved(frame)

    def _moved(self, frame: _Frame) -> "TorusElement":
        """This element in a frame that holds its frame's vertices.  Both
        frames list them in reading order, so each run of vertices adjacent
        in both moves as one bit field, onto the new frame's zero key."""
        verts, n, m = self._frame.verts, len(self._frame.verts), len(frame.verts)
        there = [frame.col[u] for u in verts]
        moves = []  # (shift here, mask, shift there) of each run
        i = 0
        while i < n:
            w = 1
            while i + w < n and there[i + w] == there[i] + w:
                w += 1
            moves.append((16 * (n - i - w), (1 << 16 * w) - 1, 16 * (m - there[i] - w)))
            i += w

        def move(k: int) -> int:
            out = 0
            for here, mask, to in moves:
                out |= (k >> here & mask) << to
            return out

        # the new frame's zero key with the moved fields cleared
        base = frame.zero ^ move(self._frame.zero)
        return TorusElement._of(frame, {base | move(k): c for k, c in self._dense.items()})

    # -- constructors
    @classmethod
    def zero(cls, cartan: CartanData | None) -> "TorusElement":
        return cls(cartan, {})

    @classmethod
    def monomial(
        cls,
        cartan: CartanData | None,
        exp: dict[Vertex, int],
        coeff: TCoeff | int = 1,
    ) -> "TorusElement":
        if isinstance(coeff, int):
            coeff = {0: coeff}
        return cls(cartan, {make_key(exp): coeff})

    @classmethod
    def one(cls, cartan: CartanData | None) -> "TorusElement":
        return cls.monomial(cartan, {})

    # -- ring structure
    def __bool__(self) -> bool:
        return bool(self._dense)

    def __eq__(self, other) -> bool:
        if not self._meets(other):
            return False
        x, y = self._join(other)
        return x._dense == y._dense

    def __hash__(self):
        return hash(frozenset((k, frozenset(c.items())) for k, c in self.terms.items()))

    def __add__(self, other: "TorusElement") -> "TorusElement":
        # no coefficient dict is written after its element is built, so the
        # sum shares those of every exponent only one operand has
        x, y = self._join(other)
        out = dict(x._dense)
        for k, c in y._dense.items():
            old = out.get(k)
            if old is None:
                out[k] = c
            elif total := _add_product(dict(old), c, {0: 1}):
                out[k] = total
            else:
                del out[k]
        if len(out) > TERM_BUDGET:
            raise TermBudgetError("a sum", len(out))
        return TorusElement._of(x._frame, out)

    def __neg__(self) -> "TorusElement":
        return self.scaled(-1)

    def __sub__(self, other: "TorusElement") -> "TorusElement":
        return self + (-other)

    def __mul__(self, other: "TorusElement") -> "TorusElement":
        """Star product: comm(e) * comm(f) = v^Lambda(e,f) comm(e+f)."""
        x, y = self._join(other)
        return TorusElement._of(
            x._frame, _star(x._frame, x._dense, y._dense, y._frame.twists(y._dense))
        )

    def scaled(self, coeff: TCoeff | int) -> "TorusElement":
        if isinstance(coeff, int):
            coeff = {0: coeff}
        return TorusElement._of(
            self._frame,
            {k: p for k, c in self._dense.items() if (p := _add_product({}, c, coeff))},
        )

    def bar(self) -> "TorusElement":
        """Bar involution: fixes commutative monomials, inverts v."""
        return TorusElement._of(
            self._frame, {k: {-p: n for p, n in c.items()} for k, c in self._dense.items()}
        )

    # -- term access
    def lead_key(self) -> ExpKey:
        if not self._dense:
            raise TorusError("zero element has no leading term")
        return self._frame.sparse_key(min(self._dense))

    def trail_key(self) -> ExpKey:
        if not self._dense:
            raise TorusError("zero element has no trailing term")
        return self._frame.sparse_key(max(self._dense))

    def _meets(self, other) -> bool:
        """Whether other is over equal Cartan data (identity first) or both are untwisted."""
        return isinstance(other, TorusElement) and (
            (c := self.cartan) is (d := other.cartan) or c == d
        )

    # -- rendering
    def sorted_terms(self, limit: int | None = None) -> Iterator[tuple[ExpKey, Mapping[int, int]]]:
        """(key, read-only coefficient) of each term, or of the leading limit
        terms, in descending lex order along the reading order.  Each key is
        built from its dense key when reached, so rendering builds neither
        the terms view nor a list of ExpKeys."""
        dense, sparse_key = self._dense, self._frame.sparse_key
        for k in sorted(dense) if limit is None else nsmallest(limit, dense):
            yield sparse_key(k), MappingProxyType(dense[k])

    def to_text(self, limit: int | None = None) -> str:
        """The element as text; with limit, its leading limit terms and a
        count of the rest."""
        if not self._dense:
            return "0"
        parts = []
        for k, coeff in self.sorted_terms(limit):
            factors = monomial_text(k)
            if coeff == {0: 1} and factors:
                parts.append(factors)
            elif factors:
                parts.append(f"{tc_text(coeff)}*{factors}")
            else:
                parts.append(tc_text(coeff))
        rest = len(self._dense) - len(parts)
        return " + ".join(parts) + (f" … and {rest} more terms" if rest else "")

    def __repr__(self) -> str:
        return f"TorusElement({self.to_text()})"


def frame_variables(
    c: CartanData | None, verts: Sequence[Vertex], lam: list[list[int]] | None = None
) -> dict[Vertex, TorusElement]:
    """The monomials z[v] for v in verts, all in one frame on verts.  c None
    is the untwisted frame, the commutative (t=1) ring, which takes no lam.
    verts may come in any order, except with lam, the skew form on verts
    taken as the frame's: its rows follow verts, which must be in reading order."""
    if lam is not None and c is None:
        raise TorusError("an untwisted frame takes no skew form")
    frame = _Frame(verts, c, lam)
    if lam is not None and frame.verts != tuple(verts):
        raise TorusError("a skew form's vertices must come in reading order")
    return {v: TorusElement._of(frame, {frame.dense(((v, 1),)): {0: 1}}) for v in verts}


# ----------------------------------------------------- Y-variable embedding

def embed_Y(c: CartanData, y_monomial: dict[Vertex, int]) -> TorusElement:
    """Map a commutative Y-monomial into the z-torus: the monomial with key
    embed_Y_key(c, y_monomial) and coefficient 1."""
    return TorusElement(c, {embed_Y_key(c, y_monomial): {0: 1}})


def embed_Y_key(c: CartanData, y_monomial: dict[Vertex, int]) -> ExpKey:
    """The key of a commutative Y-monomial's image in the z-torus.

    The Y-variable keyed by (i, r) maps to the commutative monomial
    z[i,r] z[i,r+2]^{-1}; the map is multiplicative on Y-monomials."""
    exp: dict[Vertex, int] = {}
    for (i, r), e in y_monomial.items():
        if not c.in_ihat(i, r):
            raise TorusError(f"Y key ({i},{r}) lies off the vertex lattice")
        if e:
            exp[(i, r)] = exp.get((i, r), 0) + e
            exp[(i, r + 2)] = exp.get((i, r + 2), 0) - e
    return make_key(exp)


def a_monomial(c: CartanData, i: int, r: int) -> dict[Vertex, int]:
    """Y-exponent map of the root monomial attached to node i at shift r.

    Convention fixed by the rank-1 worked mutation: the monomial with Y-keys
    (i, r-3) and (i, r-1) and inverse neighbor keys (j, r-2), which keeps
    every key on the vertex lattice.  Requires (i, r-1) on the lattice."""
    if not c.in_ihat(i, r - 1):
        raise TorusError(f"root monomial needs ({i},{r - 1}) on the lattice")
    out: dict[Vertex, int] = {(i, r - 3): 1, (i, r - 1): 1}
    for j in c.neighbors(i):
        out[(j, r - 2)] = out.get((j, r - 2), 0) - 1
    return out


# --------------------------------------------------------- specializations

def evaluate_t1(a: TorusElement) -> dict[ExpKey, int]:
    """Evaluate at t=1: each coefficient collapses to its integer value."""
    key = a._frame.sparse_key
    sums = ((k, sum(c.values())) for k, c in a._dense.items())
    return {key(k): n for k, n in sums if n}


# ------------------------------------------------ product and exact division

def _star(frame: _Frame, a: dict, b: dict, rows: dict) -> dict:
    """The star product a * b of dense terms in frame, where rows maps each
    term f of b to its twist row (None: untwisted).  Lambda is skew, so each
    pair of terms costs one dot product, Lambda(e, f) = -twist(f) . e, with
    e unpacked once per term of a, and one key sum: an int addition, whose
    guard bits catch an exponent that leaves its range.  The terms are
    counted after each term of a, so a product past TERM_BUDGET stops at
    most len(b) terms beyond it."""
    zero, guard = frame.zero, frame.guard
    right = [(f - zero, cb, rows[f]) for f, cb in b.items()]
    twisted = frame.cartan is not None
    out: dict[int, TCoeff] = {}
    for e, ca in a.items():
        ne = frame.unpack(e) if twisted else None
        for f, cb, row in right:
            k = e + f
            if k & guard:
                raise TorusError(f"a star product has an exponent outside [{EXP_MIN}, {EXP_MAX}]")
            target = out.get(k)
            if target is None:
                target = out[k] = {}
            _add_product(target, ca, cb, -sum(map(mul, row, ne)) if row else 0)
        if len(out) > TERM_BUDGET:
            raise TermBudgetError("a star product", len(out))
    # Exchange products repeat a few coefficients over many terms, and no
    # coefficient dict is written once its element is built, so those with
    # equal items, in equal order, share one dict.  Cancelled terms are
    # dropped in place.
    shared: dict = {}
    cancelled = []
    for k, c in out.items():
        if c:
            out[k] = shared.setdefault(tuple(c.items()), c)
        else:
            cancelled.append(k)
    for k in cancelled:
        del out[k]
    return out


def _divide(frame: _Frame, a: dict, d: dict, rows: dict) -> dict:
    """Left-divide dense terms in frame: the quotient x of d * x = a, where
    rows maps each term of d to its twist row (None: untwisted), d nonzero.

    A min-heap of the remainder's keys pops its leading term (see
    exact_left_divide), and each step subtracts d times one quotient term.
    Where no quotient exists it raises NonExactDivision at once, with the
    reason and the remainder at that point; a remainder past TERM_BUDGET
    raises TermBudgetError.  A degree box outside the exponent range raises
    TorusError: a quotient, if any, would leave the range."""
    if not a:
        return {}
    rem = dict(a)

    def failure(reason: str) -> NonExactDivision:
        return NonExactDivision(reason, TorusElement._of(frame, rem), len(a), len(d))

    # the degree box, as the keys of its corners; negating exponents maps it
    # onto the same formula
    zero, guard = frame.zero, frame.guard
    (lo_a, hi_a), (lo_d, hi_d) = frame.bounds(rem), frame.bounds(d)
    lo, hi = lo_a - lo_d + zero, hi_a - hi_d + zero
    if (lo | hi) & guard:
        raise TorusError(f"a division has an exponent outside [{EXP_MIN}, {EXP_MAX}]")
    lead = min(d)
    lead_coeff, lead_row = d[lead], rows[lead]
    # each term of d less zero: its key plus a quotient key is the key of
    # their product, which the box keeps in range
    rest = [(kd - zero, cd, rows[kd]) for kd, cd in d.items() if kd != lead]
    lead -= zero
    twisted = frame.cartan is not None

    quot: dict[int, TCoeff] = {}
    heap = list(rem)
    heapify(heap)
    while heap:
        m = heappop(heap)
        cm = rem.get(m)
        if cm is None:
            continue
        ex = m - lead  # the candidate's key: m less lead(d), plus zero
        # an out-of-range key, or one below lo or above hi in some field
        if (ex | (ex - lo) | (hi - ex)) & guard:
            raise failure(NonExactDivision.OUTSIDE_BOX)
        ne = frame.unpack(ex) if twisted else None
        shift = sum(map(mul, lead_row, ne)) if lead_row else 0
        try:
            cx = tc_exact_div(cm, _add_product({}, lead_coeff, {shift: 1}))
        except TorusError:
            raise failure(NonExactDivision.NON_EXACT_COEFFICIENT) from None
        del rem[m]
        quot[ex] = cx
        # rem -= d * term; the leading product cancels cm exactly
        neg_cx = _add_product({}, cx, {0: -1})
        for kd, cd, row in rest:
            k = kd + ex
            old = rem.get(k)
            if old is None:
                heappush(heap, k)
            # a fresh dict, so the coefficients of a are never written to
            target = rem[k] = {} if old is None else dict(old)
            _add_product(target, cd, neg_cx, sum(map(mul, row, ne)) if row else 0)
            if not target:
                del rem[k]  # its heap entry is skipped when popped
        if len(rem) > TERM_BUDGET:
            raise TermBudgetError("a division remainder", len(rem))
    return quot


def exact_left_divide(a: TorusElement, d: TorusElement) -> TorusElement:
    """Solve d * x = a exactly; raise NonExactDivision otherwise.

    Each step takes the leading term m of the remainder (lex order along the
    reading order of the vertices).  If x exists, the remainder is d times
    what is left of x, so m = lead(d) + the leading exponent of that rest,
    and the candidate m - lead(d) must lie in the degree box
    [min_a - min_d, max_a - max_d] (module docstring), with its coefficient
    an exact quotient in Z[v, 1/v].  A candidate that fails either test
    certifies that no quotient exists.  Otherwise the candidate term joins
    the quotient and d times it leaves the remainder, so the leading
    remainder term strictly falls in lex order.  Candidates thus never
    repeat, and the box is finite, so the loop ends."""
    if not d:
        raise TorusError("division by zero")
    x, y = a._join(d)
    rows = y._frame.twists(y._dense)
    return TorusElement._of(x._frame, _divide(x._frame, x._dense, y._dense, rows))
