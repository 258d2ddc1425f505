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
evaluation at t=1, the weight-group-ring character, and exact left division
(the workhorse of quantum exchange relations, where the Laurent phenomenon
guarantees exactness).

Division terminates by proof, not by a step cap.  The torus is a domain and
the twist only moves v-powers, so in every vertex the exponent range of a
product is the sum of the ranges of its factors.  A quotient x of d * x = a
therefore has every exponent, vertex by vertex, in the finite degree box
[min_a - min_d, max_a - max_d].  The division produces quotient exponents in
strictly decreasing lex order, so it meets each point of the box at most
once; a candidate outside the box certifies at once that no quotient exists.

One dense exponent frame serves the star product, the division and the term
order.  It indexes the vertices of the operands in reading order and stores
exponents negated, so plain tuple order is the reverse of the lex order.
With Cartan data it also holds the skew form on those vertices, and each
left factor's twist is one row of it.  The classical (t=1) engine runs the
same product and division at zero twist.
"""

from __future__ import annotations

import json
from heapq import heapify, heappop, heappush
from itertools import chain
from operator import add, le, mul, sub

from .cartan import CartanData, f_form

Vertex = tuple[int, int]
TCoeff = dict[int, int]          # v-exponent -> integer coefficient
ExpKey = tuple[tuple[Vertex, int], ...]  # ((i,r), e) factors in canonical order


class TorusError(ValueError):
    pass


class NonExactDivision(TorusError):
    """Left division is not exact.

    Carries why (one of the two reasons below), the remainder at the point
    of failure, and the term counts of the numerator and the divisor."""

    OUTSIDE_BOX = "quotient exponent outside the degree box"
    NON_EXACT_COEFFICIENT = "non-exact coefficient"

    def __init__(
        self, reason: str, remainder: "TorusElement", num_terms: int, den_terms: int
    ):
        super().__init__(
            f"non-exact division ({reason}) of a {num_terms}-term numerator by a "
            f"{den_terms}-term divisor, remainder {remainder.to_text()}"
        )
        self.reason = reason
        self.remainder = remainder
        self.num_terms = num_terms
        self.den_terms = den_terms


# ---------------------------------------------------------------- TCoeff ops

def tc_add(a: TCoeff, b: TCoeff) -> TCoeff:
    out = dict(a)
    for k, v in b.items():
        n = out.get(k, 0) + v
        if n:
            out[k] = n
        else:
            out.pop(k, None)
    return out


def tc_mul(a: TCoeff, b: TCoeff) -> TCoeff:
    out: TCoeff = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            n = out.get(k, 0) + va * vb
            if n:
                out[k] = n
            else:
                out.pop(k, None)
    return out


def tc_neg(a: TCoeff) -> TCoeff:
    return {k: -v for k, v in a.items()}


def tc_shift(a: TCoeff, s: int) -> TCoeff:
    return {k + s: v for k, v in a.items()}


def tc_bar(a: TCoeff) -> TCoeff:
    return {-k: v for k, v in a.items()}


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
        rem = tc_add(rem, {k + shift: -v * lead for k, v in den.items()})
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


class _DenseFrame:
    """Dense exponent vectors over the vertices of a set of keys.

    The vertices are sorted in reading order.  dense(key) negates the
    exponents, so plain tuple order on dense vectors is the reverse of the
    lex order along the reading order (a vertex missing from a key counts as
    exponent 0), and min picks the leading term.  sparse(terms) maps dense
    keys back to ExpKeys.  With Cartan data the frame holds the skew form on
    its vertices, and twist(e) is the Lambda row of the dense exponent e:
    Lambda(e, f) = twist(e) . f, since the negations of e and f cancel.
    Without Cartan data twist(e) is None, the untwisted (t=1) ring."""

    __slots__ = ("verts", "col", "lam_cols")

    def __init__(self, keys, cartan: CartanData | None = None):
        self.verts = sorted({u for k in keys for u, _ in k}, key=vertex_sort_key)
        self.col = {u: j for j, u in enumerate(self.verts)}
        self.lam_cols = None
        if cartan is not None:
            # lam_cols[b][a] = Lambda(verts[a], verts[b]); Lambda is skew, so
            # each f_form call fills two entries, always at a gap s - r >= 0
            n = len(self.verts)
            self.lam_cols = [[0] * n for _ in range(n)]
            for a, (i, r) in enumerate(self.verts):
                for b, (j, s) in enumerate(self.verts[:a]):
                    self.lam_cols[b][a] = f = f_form(cartan, i, j, s - r)
                    self.lam_cols[a][b] = -f

    def dense(self, key: ExpKey) -> tuple[int, ...]:
        out = [0] * len(self.verts)
        for u, e in key:
            out[self.col[u]] = -e
        return tuple(out)

    def sparse(self, terms: dict) -> dict[ExpKey, TCoeff]:
        verts = self.verts
        return {
            tuple((verts[j], -e) for j, e in enumerate(k) if e): c
            for k, c in terms.items()
            if c
        }

    def twist(self, e: tuple[int, ...]) -> tuple[int, ...] | None:
        if self.lam_cols is None:
            return None
        return tuple(sum(map(mul, e, lc)) for lc in self.lam_cols)


def lambda_of(c: CartanData, e: ExpKey | dict, f: ExpKey | dict) -> int:
    """Skew form, extended bilinearly from Lambda((i,r),(j,s)) = F_ij(s-r).

    The products use _DenseFrame.twist; this pairwise form is the
    reference it is tested against."""
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
    """Finite sum of commutative monomials with Laurent coefficients in v."""

    __slots__ = ("cartan", "terms")

    def __init__(self, cartan: CartanData, terms: dict[ExpKey, TCoeff]):
        self.cartan = cartan
        self.terms = {k: c for k, c in terms.items() if c}

    # -- constructors
    @classmethod
    def zero(cls, cartan: CartanData) -> "TorusElement":
        return cls(cartan, {})

    @classmethod
    def monomial(
        cls,
        cartan: CartanData,
        exp: dict[Vertex, int],
        coeff: TCoeff | int = 1,
    ) -> "TorusElement":
        if isinstance(coeff, int):
            coeff = {0: coeff} if coeff else {}
        return cls(cartan, {make_key(exp): dict(coeff)})

    @classmethod
    def one(cls, cartan: CartanData) -> "TorusElement":
        return cls.monomial(cartan, {})

    # -- ring structure
    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TorusElement)
            and self.cartan is other.cartan
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset((k, frozenset(c.items())) for k, c in self.terms.items()))

    def __add__(self, other: "TorusElement") -> "TorusElement":
        self._check_peer(other)
        out = {k: dict(c) for k, c in self.terms.items()}
        for k, c in other.terms.items():
            out[k] = tc_add(out.get(k, {}), c)
        return TorusElement(self.cartan, out)

    def __neg__(self) -> "TorusElement":
        return TorusElement(self.cartan, {k: tc_neg(c) for k, c in self.terms.items()})

    def __sub__(self, other: "TorusElement") -> "TorusElement":
        return self + (-other)

    def __mul__(self, other: "TorusElement") -> "TorusElement":
        """Star product: comm(e) * comm(f) = v^Lambda(e,f) comm(e+f)."""
        self._check_peer(other)
        return TorusElement(self.cartan, multiply_terms(self.terms, other.terms, self.cartan))

    def __pow__(self, n: int) -> "TorusElement":
        if n < 0:
            raise TorusError("negative powers only via explicit inverse monomials")
        acc = TorusElement.one(self.cartan)
        for _ in range(n):
            acc = acc * self
        return acc

    def scaled(self, coeff: TCoeff | int) -> "TorusElement":
        if isinstance(coeff, int):
            coeff = {0: coeff} if coeff else {}
        return TorusElement(
            self.cartan, {k: tc_mul(c, coeff) for k, c in self.terms.items()}
        )

    def bar(self) -> "TorusElement":
        """Bar involution: fixes commutative monomials, inverts v."""
        return TorusElement(self.cartan, {k: tc_bar(c) for k, c in self.terms.items()})

    # -- term access
    def lead_key(self) -> ExpKey:
        if not self.terms:
            raise TorusError("zero element has no leading term")
        return min(self.terms, key=_DenseFrame(self.terms).dense)

    def trail_key(self) -> ExpKey:
        if not self.terms:
            raise TorusError("zero element has no trailing term")
        return max(self.terms, key=_DenseFrame(self.terms).dense)

    def _check_peer(self, other: "TorusElement") -> None:
        if not isinstance(other, TorusElement) or other.cartan is not self.cartan:
            raise TorusError("operands must live over the same Cartan data")

    # -- rendering
    def sorted_keys(self) -> list[ExpKey]:
        """Keys in descending lex order along the reading order."""
        return sorted(self.terms, key=_DenseFrame(self.terms).dense)

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k in self.sorted_keys():
            factors = "".join(
                f"z[{i},{r}]" + (f"^{e}" if e != 1 else "") for (i, r), e in k
            )
            coeff = self.terms[k]
            if coeff == {0: 1} and factors:
                parts.append(factors)
            elif factors:
                parts.append(f"{tc_text(coeff)}*{factors}")
            else:
                parts.append(tc_text(coeff))
        return " + ".join(parts)

    def to_json_obj(self) -> dict:
        terms = []
        for k in self.sorted_keys():
            for vpow in sorted(self.terms[k], reverse=True):
                terms.append(
                    {
                        "t_num": vpow,
                        "c": self.terms[k][vpow],
                        "exp": [[i, r, e] for (i, r), e in k],
                    }
                )
        return {"terms": terms}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    def __repr__(self) -> str:
        return f"TorusElement({self.to_text()})"


def monomial(c: CartanData, exp: dict[Vertex, int], coeff: TCoeff | int = 1) -> TorusElement:
    return TorusElement.monomial(c, exp, coeff)


# ----------------------------------------------------- Y-variable embedding

def embed_Y(c: CartanData, y_monomial: dict[Vertex, int]) -> TorusElement:
    """Map a commutative Y-monomial into the z-torus.

    The Y-variable keyed by (i, r) maps to the commutative monomial
    z[i,r] z[i,r+2]^{-1}; the map is multiplicative on Y-monomials."""
    exp: dict[Vertex, int] = {}
    for (i, r), e in y_monomial.items():
        if not c.in_ihat(i, r):
            raise TorusError(f"Y key ({i},{r}) lies off the vertex lattice")
        if e:
            exp[(i, r)] = exp.get((i, r), 0) + e
            exp[(i, r + 2)] = exp.get((i, r + 2), 0) - e
    return TorusElement.monomial(c, exp)


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
    out: dict[ExpKey, int] = {}
    for k, c in a.terms.items():
        n = sum(c.values())
        if n:
            out[k] = n
    return out


def weight_character(a: TorusElement) -> dict[tuple[int, ...], int]:
    """Group-ring character: z[i,r]^{+-1} maps to the weight -+(r/2) omega_i.

    Weights are tuples of doubled fundamental-weight coordinates (so that
    half-integers stay integral); t-powers map to 1."""
    n = a.cartan.rank
    out: dict[tuple[int, ...], int] = {}
    for k, c in a.terms.items():
        w = [0] * n
        for (i, r), e in k:
            w[i - 1] += -r * e
        coeff = sum(c.values())
        if coeff:
            key = tuple(w)
            tot = out.get(key, 0) + coeff
            if tot:
                out[key] = tot
            else:
                out.pop(key, None)
    return out


def weight_mul(
    a: dict[tuple[int, ...], int], b: dict[tuple[int, ...], int]
) -> dict[tuple[int, ...], int]:
    out: dict[tuple[int, ...], int] = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = tuple(x + y for x, y in zip(wa, wb))
            n = out.get(w, 0) + ca * cb
            if n:
                out[w] = n
            else:
                out.pop(w, None)
    return out


# ------------------------------------------------ product and exact division

def _add_product(target: TCoeff, c1: TCoeff, c2: TCoeff, shift: int) -> None:
    """target += v^shift * c1 * c2, in place."""
    for p, x in c1.items():
        p += shift
        for q, y in c2.items():
            n = target.get(p + q, 0) + x * y
            if n:
                target[p + q] = n
            else:
                target.pop(p + q, None)


def multiply_terms(
    a: dict[ExpKey, TCoeff], b: dict[ExpKey, TCoeff], cartan: CartanData | None
) -> dict[ExpKey, TCoeff]:
    """Multiply term dicts: the star product a * b twisted by the skew form
    of cartan, comm(e) * comm(f) = v^Lambda(e,f) comm(e+f), or the
    untwisted (t=1) product when cartan is None.

    Each term of a gets one twist row, so each pair of terms costs one dot
    product and one tuple sum in the dense frame of a and b."""
    frame = _DenseFrame(chain(a, b), cartan)
    right = [(frame.dense(k), c) for k, c in b.items()]
    out: dict[tuple[int, ...], TCoeff] = {}
    for ka, ca in a.items():
        e = frame.dense(ka)
        row = frame.twist(e)
        for f, cb in right:
            k = tuple(map(add, e, f))
            target = out.get(k)
            if target is None:
                target = out[k] = {}
            _add_product(target, ca, cb, sum(map(mul, row, f)) if row else 0)
    return frame.sparse(out)


def divide_terms(
    a: dict[ExpKey, TCoeff], d: dict[ExpKey, TCoeff], cartan: CartanData | None
) -> tuple[dict[ExpKey, TCoeff], dict[ExpKey, TCoeff], str | None]:
    """Left-divide term dicts: solve d * x = a, twisted by the skew form of
    cartan, or untwisted (the commutative t=1 ring) when cartan is None.

    Returns (quotient, {}, None) when the division is exact, and otherwise
    (partial quotient, remainder, reason) with a NonExactDivision reason.
    d must be nonzero.

    Exponents are dense in the frame of a and d, so a min-heap of the
    remainder's keys pops its leading term.  Each step subtracts d times one
    new quotient term, and the v-power of each product comes from a twist
    row cached per divisor term."""
    if not a:
        return {}, {}, None
    frame = _DenseFrame(chain(a, d), cartan)
    dense, sparse = frame.dense, frame.sparse
    rem = {dense(k): c for k, c in a.items()}
    den = {dense(k): c for k, c in d.items()}
    # the degree box; negating exponents maps it onto the same formula
    lo = tuple(map(sub, map(min, zip(*rem)), map(min, zip(*den))))
    hi = tuple(map(sub, map(max, zip(*rem)), map(max, zip(*den))))
    rows = {kd: frame.twist(kd) for kd in den}
    lead = min(den)
    lead_coeff, lead_row = den[lead], rows[lead]
    rest = [(kd, cd, rows[kd]) for kd, cd in den.items() if kd != lead]

    quot: dict[tuple[int, ...], TCoeff] = {}
    heap = list(rem)
    heapify(heap)
    while heap:
        m = heappop(heap)
        cm = rem.pop(m)
        if not cm:
            continue
        ex = tuple(map(sub, m, lead))
        if not (all(map(le, lo, ex)) and all(map(le, ex, hi))):
            rem[m] = cm
            return sparse(quot), sparse(rem), NonExactDivision.OUTSIDE_BOX
        shift = sum(map(mul, lead_row, ex)) if lead_row else 0
        try:
            cx = tc_exact_div(cm, tc_shift(lead_coeff, shift))
        except TorusError:
            rem[m] = cm
            return sparse(quot), sparse(rem), NonExactDivision.NON_EXACT_COEFFICIENT
        quot[ex] = cx
        # rem -= d * term; the leading product cancels cm exactly
        neg_cx = tc_neg(cx)
        for kd, cd, row in rest:
            k = tuple(map(add, kd, ex))
            old = rem.get(k)
            if old is None:
                heappush(heap, k)
            # a fresh dict, so the coefficients of a are never written to
            target = rem[k] = {} if old is None else dict(old)
            _add_product(target, cd, neg_cx, sum(map(mul, row, ex)) if row else 0)
    return sparse(quot), {}, None


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
    a._check_peer(d)
    quot, rem, reason = divide_terms(a.terms, d.terms, a.cartan)
    if reason:
        raise NonExactDivision(
            reason, TorusElement(a.cartan, rem), len(a.terms), len(d.terms)
        )
    return TorusElement(a.cartan, quot)
