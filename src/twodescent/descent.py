"""Descent by 2-isogeny over Q: Selmer groups, torsor solvability, rank bounds.

For the curve E: y^2 = x^3 + a x^2 + b x with dual E': y^2 = x^3 - 2a x^2 +
(a^2-4b) x, a square class d lies in the image of the local connecting map
delta_{E',v} exactly when the quartic torsor

    w^2 = d z^4 - 2a z^2 + (a^2 - 4b)/d

has a point over the completion at v (z = 0, z = infinity and w = 0 points
included).  `torsor_solvable_at(d, a, b, p)` is that test, on plain
integers, at a prime p or at the real place p = `REAL` = 0 (a place of Q
is an int); its answer depends only on the square class of d.
Sel_phi(E/Q) is the set of classes passing this test at every place; it
suffices to test the real place, 2, and the odd primes dividing
b(a^2-4b): at any other odd prime the torsor has good reduction, so it
has F_p-points by Hasse-Weil and they lift by Hensel.

At an odd p dividing b(a^2-4b) but not a the reduction is multiplicative,
and `_image_at_place` reads the image off the node, with no torsor test.

The test refines residue classes z = c (mod p^k) of each patch of P^1.
Each node carries its expansion G(X) = F(c + p^k X): G(0) = F(c) and
G'(0) = p^k F'(c) give the Hensel test, and a child is G(r + pX), one
shift and a scaling of its parent's coefficients, so no node evaluates F
from scratch.  At 2 the class of F(z) is pinned on the node when 2^(v+3),
v = v_2(F(c)), divides the other coefficients of G.  At an odd prime each
node is read off the F_p data of G over its content: its simple roots,
its multiple roots r (the children) and whether it takes a nonzero square
value.  A sweep of F_p gives them below p = 23; at p >= 23 the roots come
from gcds with X^p - X and the derivative, and Weil's bound settles the
square value.

Elsewhere only the torsors of (a, b) are tested, and only for the classes
that the bounds of `_image_at_place` leave open.  At each tested place the
image for the dual model (-2a, a^2-4b), which gives Sel_phi-hat(E'/Q), is
the annihilator of this one under the Hilbert symbol.
Square classes at a place are the F_2 coordinate vectors of
`arith.local_coords`, named by the squarefree integers of `arith.local_reps`;
the Hilbert symbol is `arith.local_pairing` on them.  Both Selmer groups
are kernels, as bitmasks over `Descent.gens`: one pass builds each
generator's row for both sides, its coordinates mapped to the quotients by
the image and by the dual image, and the vectors with no quotient bit in
the reduced echelon basis of each side's rows (`arith.f2_echelon`) are
the kernel's canonical basis.  `SquareClassQ` objects are built only for
output, by `Descent.classes` (the tests' `oracles.local_image` builds
them for a local image).

On local coordinates the Hilbert symbol depends only on the place class:
real, 2, or p mod 4 at an odd prime p (Serre, A Course in Arithmetic,
III.1.2), which `_place_class(p)` names as 0, 2, 3 or 5.  So the dual
images, the two quotient maps of each image and the classes pairing
trivially with [b] are per-class tables, each entry computed once per
process on first use.  The generator coordinates take one Legendre
symbol per pair of odd primes and reciprocity for the other.

The layer runs on the integral model (A, B) as ints: `descend(A, B)` is
its entry point, and a curve over Q, the pair (a, b), enters through
`curve.integral_model(a, b)`.
`point_search(A, B, H)` searches x = d s^2/v^2 as the 2-coverings
w^2 = d s^4 + A s^2 v^2 + (B/d) v^4, one for each signed squarefree d | B
with |d| <= H (`_covering_divisors`; Cremona, 3.5-3.6; Stoll's ratpoints).  For
each s the denominators v <= H are an H-bit mask: the v with gcd(d s, v) = 1,
then those for which the quartic's own triple (d s^4, A s^2, B/d) mod q
leaves a square, for each sieve modulus q, then the exact checks.  A
covering with d < 0, B/d < 0 and A <= 0 or A^2 < 4 d (B/d) is negative on
R^2 minus 0 and is skipped.  The pattern of each residue triple is a pure
function of it, so one table per sieve modulus q (q^3 entries: 32,760 for
the nine moduli, 131 KB) serves every search in the process; an entry is
computed on its first read, so importing the module fills none.

`rank_bounds` runs over the sides E = (A, B) and E' = (-2A, A^2-4B).  It
reads each point's class as a mask over the same generators (the sign and
the parities of v_p(num den)), with no factoring, and checks that the
Selmer basis of its side reduces it to 0.  It walks the same x-box as
`point_search`, covering by covering: the d come with their class masks
over the generators, a d whose class the span of the points already
holds is skipped, and a searched covering stops at its first point, whose
class joins the span.  So it sieves fewer coverings and rows than the full
search and ends with the same span.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import modp
from .arith import (
    REAL,
    FactorizationEffortError,
    SquareClassQ,
    _require_q_place,
    f2_echelon,
    f2_reduce,
    f2_span,
    factor,
    horner,
    int_valuation,
    local_coords,
    local_dim,
    local_pairing,
    local_reps,
    taylor_shift,
)
from .curve import AffinePoint, OffCurveError, _reduced_model, check_nonsingular, on_model


class SolvabilityPrecisionError(Exception):
    """The p-adic search exceeded its certified depth (should not occur)."""


def run_or_reason(run, *args):
    """run(*args), or the one-line reason it failed where factoring or a
    local solvability test gave up: what a scan writes into a skipped
    record and the CLI prints."""
    try:
        return run(*args)
    except FactorizationEffortError as exc:
        return f"factorization: {exc}"
    except SolvabilityPrecisionError as exc:
        return f"local solvability: {exc}"


# ----------------------------------------------------------------------
# local solvability of w^2 = quartic(z)
# ----------------------------------------------------------------------


def _res_exponent(A4: int, A2: int, A0: int, p: int) -> int:
    """v_p of the resultant surrogate 16 A4^2 A0 (A2^2 - 4 A4 A0)^2.

    For any z in Z_p, min(v(F(z)), v(F'(z))) is at most this; it bounds the
    depth of the residue refinement.
    """
    R = 16 * A4 * A4 * A0 * (A2 * A2 - 4 * A4 * A0) ** 2
    if R == 0:
        raise ValueError("singular quartic")
    return int_valuation(abs(R), p)


def _z2_branch_solvable(G, k: int, rho: int) -> bool:
    """Does some z = c (mod 2^k) in Z_2 make F(z) a square in Q_2 (0 allowed)?

    G = (g0, ..., g4) is the node expansion F(c + 2^k X): g0 = F(c) and
    g1 = 2^k F'(c), and the other coefficients bound how far F moves on
    the branch.  The children c and c + 2^k are G(2X) and G(1 + 2X).
    """
    stack = [(G, k)]
    while stack:
        (g0, g1, g2, g3, g4), k = stack.pop()
        if g0 == 0:
            return True
        v = (g0 & -g0).bit_length() - 1
        if g1 and v > 2 * ((g1 & -g1).bit_length() - 1 - k):
            return True  # Newton converges to an exact root: a w = 0 point
        # the class of F(z) is pinned on the branch (its unit part known
        # mod 8) when 2^(v+3) divides g1, ..., g4
        if not (g1 | g2 | g3 | g4) & ((8 << v) - 1):
            if v % 2 == 0 and (g0 >> v) & 7 == 1:
                return True
            continue
        if k > 2 * rho + 8:
            raise SolvabilityPrecisionError("2-adic refinement exceeded certified depth")
        stack.append(((g0, g1 << 1, g2 << 2, g3 << 3, g4 << 4), k + 1))
        # G(1 + 2X): the shift by 1, then X -> 2X
        g0, g1, g2, g3 = g0 + g1 + g2 + g3 + g4, g1 + 2 * g2 + 3 * g3 + 4 * g4, g2 + 3 * g3 + 6 * g4, g3 + 4 * g4
        stack.append(((g0, g1 << 1, g2 << 2, g3 << 3, g4 << 4), k + 1))
    return False


def _fp_analysis(G, p):
    """(simple_root_exists, multiple_roots, nonzero_square_value_exists) of G mod p.

    The multiple roots come back sorted.  For p below 23 everything is read
    off a direct sweep of F_p.  For larger p a nonzero square value exists
    whenever G mod p is not a constant times a square (Weil's character-sum
    bound, comfortable for p >= 23) or that constant, the leading
    coefficient, is a residue; the roots come from `_gcd_roots`.
    """
    Gbar = [c % p for c in G]
    modp.ptrim(Gbar)
    assert Gbar, "content was not extracted"
    if len(Gbar) == 1:
        return False, [], modp.legendre(Gbar[0], p) == 1
    if p < 23:
        Gd = modp.pderiv(Gbar, p)
        simple, multiple, sqval = False, [], False
        for s in range(p):
            gv = horner(Gbar, s) % p
            if gv == 0:
                if horner(Gd, s) % p == 0:
                    multiple.append(s)
                else:
                    simple = True
            elif modp.legendre(gv, p) == 1:
                sqval = True
        return simple, multiple, sqval
    simple, multiple = _gcd_roots(Gbar, p)
    sqval = not _is_scaled_square(Gbar, p) or modp.legendre(Gbar[-1], p) == 1
    return simple, multiple, sqval


def _gcd_roots(G, p) -> tuple[bool, list[int]]:
    """(simple_root_exists, sorted multiple roots) of G (reduced mod the prime
    p > 4, of degree 1 to 4), from gcds with X^p - X and G'."""
    Gd = modp.pderiv(G, p)
    if not Gd:
        # needs p | every exponent: impossible for degree <= 4 < p
        raise AssertionError("vanishing derivative at large p")
    R = modp.split_part(G, p)  # product of (X - r) over F_p-roots
    M = modp.pgcd(R, modp.pgcd(G, Gd, p), p)
    multiple = modp.roots_deg_le2(M, p) if len(M) > 1 else []
    return len(R) > len(M), multiple


def _is_scaled_square(G, p) -> bool:
    """Is G (reduced mod the odd prime p, of degree 1 to 4) a constant times a square?"""
    inv = pow(G[-1], -1, p)
    g = [c * inv % p for c in G]
    deg = len(g) - 1
    if deg % 2:
        return False
    half = (p + 1) // 2
    h = [g[1] * half % p, 1]
    if deg == 4:
        h1 = g[3] * half % p
        h = [(g[2] - h1 * h1) * half % p, h1, 1]
    return modp.pmul(h, h, p) == g


def _zp_branch_solvable(G, k: int, p: int, rho: int) -> bool:
    """Odd-p analogue: some z = c (mod p^k) with F(z) a square in Q_p?

    G is the node expansion F(c + p^k X); the child at a multiple root r
    of its reduction is G(r + pX)."""
    stack = [(G, k)]
    while stack:
        G, k = stack.pop()
        if G[0] == 0:
            return True
        if G[1] and int_valuation(G[0], p) > 2 * (int_valuation(G[1], p) - k):
            return True
        if k > 2 * rho + 4:
            raise SolvabilityPrecisionError("p-adic refinement exceeded certified depth")
        nu = min(int_valuation(g, p) for g in G if g != 0)
        q = p**nu
        simple, multiple, sqval = _fp_analysis([g // q for g in G], p)
        if simple:
            return True  # a simple root mod p lifts to an exact root: w = 0 point
        if nu % 2 == 0 and sqval:
            return True
        for r in multiple:
            stack.append(([h * p**j for j, h in enumerate(taylor_shift(G, r))], k + 1))
    return False


def quartic_solvable_qp(A4: int, A2: int, A0: int, p: int) -> bool:
    """Does w^2 = A4 z^4 + A2 z^2 + A0 have a Q_p-point on its smooth model?

    Covers P^1: z in Z_p on the given patch, and 1/z in pZ_p on the reversed
    patch (whose z = 0 point is the point at infinity), whose root node
    expansion is A4 + A2 p^2 X^2 + A0 p^4 X^4.
    """
    if A4 == 0 or A0 == 0:
        raise ValueError("degenerate quartic")
    F = (A0, 0, A2, 0, A4)
    Frev = (A4, 0, A2 * p * p, 0, A0 * p**4)
    rho = _res_exponent(A4, A2, A0, p)
    rho_rev = _res_exponent(A0, A2, A4, p)
    if p == 2:
        return _z2_branch_solvable(F, 0, rho) or _z2_branch_solvable(Frev, 1, rho_rev)
    return _zp_branch_solvable(F, 0, p, rho) or _zp_branch_solvable(Frev, 1, p, rho_rev)


def quartic_solvable_real(A4: int, A2: int, A0: int) -> bool:
    """Real solvability of w^2 = A4 z^4 + A2 z^2 + A0 by exact sign analysis."""
    if A4 > 0:
        return True
    # A4 < 0: maximize A4 u^2 + A2 u + A0 over u = z^2 >= 0; the vertex
    # u = -A2 / (2 A4) is negative iff A2 < 0, and there the maximum is A0
    if A2 < 0:
        return A0 >= 0
    return A2 * A2 >= 4 * A4 * A0


def torsor_solvable_at(d: int, a: int, b: int, p: int) -> bool:
    """Does w^2 = d z^4 - 2a z^2 + (a^2-4b)/d have a point over the completion
    at the prime p, or at the real place for p = REAL?

    The answer depends only on the square class of d: z = Z/k, w = W/k carry
    the torsor of d k^2 onto that of d.  Both tests run on the coefficients
    scaled by l^2, l = |d| / gcd(d, a^2-4b), which clears the denominator of
    (a^2-4b)/d; the scaling by a square changes neither the signs nor the
    square classes of the values.
    """
    if not all(isinstance(x, int) for x in (d, a, b)):
        raise TypeError("d, a and b must be ints")
    if d == 0:
        raise ValueError("d must be nonzero")
    _require_q_place(p)
    bdual = a * a - 4 * b
    g = math.gcd(d, bdual)
    l2 = (abs(d) // g) ** 2
    A4, A2, A0 = d * l2, -2 * a * l2, (bdual // g) * (d // g)
    if p == REAL:
        return quartic_solvable_real(A4, A2, A0)
    return quartic_solvable_qp(A4, A2, A0, p)


# ----------------------------------------------------------------------
# local images and Selmer groups
# ----------------------------------------------------------------------


def _place_class(p: int) -> int:
    """REAL, 2, or 5 or 3 standing in for an odd prime p = 1 or 3 (mod 4):
    the key of the tables below, which depend on nothing else."""
    if p <= 2:
        return p
    return 3 if p & 2 else 5


@lru_cache(maxsize=None)
def _pairs_trivially(y: int, cls: int) -> tuple[int, ...]:
    """The local classes v, in increasing order, with (v, y) = 1 at class cls."""
    return tuple(v for v in range(1 << local_dim(cls)) if not local_pairing(v, y, cls))


@lru_cache(maxsize=None)
def _dual_image(basis: tuple[int, ...], cls: int) -> tuple[int, ...]:
    """The local image for the dual model (-2a, a^2-4b) at class cls, from that of (a, b).

    The two images are exact annihilators of each other under the Hilbert
    symbol (Cassels, Arithmetic on curves of genus 1 VIII, 1965; Schaefer and
    Stoll, Trans. AMS 356, 2004): a class lies in one iff it pairs trivially
    with every basis class of the other.
    """
    dim = local_dim(cls)
    vecs = {v for v in range(1 << dim) if not any(local_pairing(v, g, cls) for g in basis)}
    dual = f2_echelon(vecs)
    if f2_span(dual) != vecs or len(basis) + len(dual) != dim:
        raise AssertionError(f"the Hilbert pairing at {cls} is not bilinear and nondegenerate")
    return dual


def _node_image(a: int, b: int, p: int) -> tuple[int, ...]:
    """Im(delta_{E',p}) for the model (a, b) at an odd prime p with p | b and
    p not dividing a (see `_image_at_place`): (1,), the unit classes, when a
    is a non-residue mod p and v_p(b) is even, and () otherwise."""
    return (1,) if int_valuation(b, p) % 2 == 0 and pow(a % p, p >> 1, p) != 1 else ()


def _image_at_place(a: int, b: int, p: int) -> tuple[int, ...]:
    """Im(delta_{E',p}) for the model (a, b), at a prime p or REAL, as
    echelonized local vectors.

    At an odd p dividing b(a^2-4b) but not a, c4 is a p-unit, so the
    reduction is multiplicative, and the image is read off the node with no
    torsor test.  Where p | b, E' reduces to y^2 = x (x - a)^2 with
    v_p(disc E') = v_p(b).  A point on the identity component has class 1;
    a point off it has x = a (mod p), class [a], which is trivial when the
    reduction is split, (a|p) = 1.  A nonsplit I_e has such points exactly
    for even e: its component group over Q_p has order 2 then and 1 for odd
    e (Silverman, Advanced Topics, IV.9).  So the image is the unit classes
    when (a|p) = -1 and v_p(b) is even, and trivial otherwise
    (`_node_image`).  Where p | a^2-4b it is the annihilator of that image
    for the dual model (-2a, a^2-4b): all four classes when (-2a|p) = 1 or
    v_p(a^2-4b) is odd, the unit classes otherwise.

    Elsewhere the torsors are swept.  The image contains [a^2-4b] (z = 0 on
    its torsor) and pairs trivially with [b], which the dual image contains,
    so only the classes pairing trivially with [b] are candidates.  Since
    the image is a subgroup, a candidate in the span of those found
    solvable, or in a coset of that span through one found unsolvable, is
    skipped too.
    """
    bdual = a * a - 4 * b
    if p > 2 and a % p:
        if b % p == 0:
            return _node_image(a, b, p)
        if bdual % p == 0:
            return _dual_image(_node_image(-2 * a, bdual, p), _place_class(p))
    c = local_coords(bdual, p)
    inside, span = ((c,) if c else ()), {0, c}
    outside: list[int] = []
    reps = None
    for v in _pairs_trivially(local_coords(b, p), _place_class(p)):
        if v in span or any(v ^ u in span for u in outside):
            continue
        reps = reps or local_reps(p)
        if torsor_solvable_at(reps[v], a, b, p):
            inside = f2_echelon(inside + (v,))
            span |= {s ^ v for s in span}
        else:
            outside.append(v)
    return inside


def _gen_coords(odd_support: tuple[int, ...]) -> list[list[int]]:
    """rows[i][j] = local_coords(g_i, v_j) for g = -1, 2, *odd_support and
    v = real, 2, *odd_support.  For odd primes p < q one pow gives (q|p), and
    reciprocity gives (p|q), which differs exactly when p = q = 3 (mod 4)."""
    minus = [q >> 1 & 1 for q in odd_support]  # (-1|q) = -1 iff q = 3 (mod 4)
    two = [int(q % 8 in (3, 5)) for q in odd_support]  # (2|q) = -1 iff q = +-3 (mod 8)
    rows = [[1, 1, *minus], [0, 4, *two]] + [[0, m | t << 1] for m, t in zip(minus, two)]
    for i, p in enumerate(odd_support):
        rows[2 + i].append(2)
        for j in range(i + 1, len(odd_support)):
            qp = int(pow(odd_support[j] % p, p >> 1, p) != 1)
            rows[2 + i].append(qp ^ minus[i] & minus[j])
            rows[2 + j].append(qp)
    return rows


@lru_cache(maxsize=None)
def _quotients(image: tuple[int, ...], cls: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(dim, the quotient map by image, the quotient map by its dual image)
    at class cls, each map a table v -> f2_reduce(v, ...) over the 2^dim
    local classes; 0 exactly on the subgroup."""
    dim = local_dim(cls)
    dual = _dual_image(image, cls)
    return dim, tuple(f2_reduce(v, image) for v in range(1 << dim)), tuple(f2_reduce(v, dual) for v in range(1 << dim))


def _selmer_bases(gen_coords, classes, images) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The bases of Sel_phi and Sel_phi-hat cut out by the echelonized local
    images of (a, b), and their dual images, at the tested places.

    The places are the real place, 2 and the odd primes of b(a^2-4b), of the
    given classes; per the standard descent bound the candidates are the
    classes supported on -1 and those primes, spanned by `Descent.gens`, and
    gen_coords[i][j] is the local coordinates of gens[i] at the j-th place.
    A candidate lies in a Selmer group iff its local coordinates fall inside
    that side's image at every tested place, an F_2-linear condition: each
    generator's row holds its coordinates mapped to the quotients by the
    images, above one bit that marks the generator.  One pass builds the
    rows of both sides.  A side's kernel is the part of its rows' span
    below the n marker bits, so the vectors of the rows' reduced echelon
    basis with no quotient bit are the reduced echelon basis of the kernel.
    """
    n = len(gen_coords)
    layout = [_quotients(img, cls) for cls, img in zip(classes, images)]
    rows_phi, rows_hat = [], []
    for i, coords in enumerate(gen_coords):
        row = hat = 0
        for v, (dim, quotient, dual_quotient) in zip(coords, layout):
            row = row << dim | quotient[v]
            hat = hat << dim | dual_quotient[v]
        rows_phi.append(row << n | 1 << i)
        rows_hat.append(hat << n | 1 << i)
    return tuple(tuple(v for v in f2_echelon(rows) if not v >> n) for rows in (rows_phi, rows_hat))


@dataclass(frozen=True)
class Descent:
    """The descent by the 2-isogeny phi: E -> E' of E = (A, B) onto
    E' = (-2A, A^2-4B), on ints.

    One set of local images, at the real place, 2 and the odd primes of
    B(A^2-4B), gives both Selmer groups and the Cassels ratio check.
    `images` maps each of those places, REAL, 2 and the odd support in that
    order, to Im(delta_{E',v}) as the echelon basis of its local coordinates.

    `phi` and `phi_hat` are the Selmer bases as reduced echelon F_2
    bitmasks over `gens`, bit 0 the sign and bit i gens[i], both from one
    pass over the generators' local coordinates (`_selmer_bases`); their
    lengths are the Selmer dimensions, and `classes` turns a basis into
    square classes for output.
    `searches` keeps the covering searches of `rank_bounds`: under
    (side, bound), a dict from each searched d to the first point of its
    covering in the x-box, or None.
    """

    A: int
    B: int
    odd_support: tuple[int, ...]
    phi: tuple[int, ...]
    phi_hat: tuple[int, ...]
    images: dict[int, tuple[int, ...]]
    cassels_ok: bool
    searches: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def gens(self) -> tuple[int, ...]:
        """The generators -1, 2 and the odd support of the class masks."""
        return (-1, 2, *self.odd_support)

    def classes(self, basis) -> tuple[SquareClassQ, ...]:
        """The masks of basis as square classes, by support size, |value|, then value."""
        primes = self.gens[1:]
        out = [SquareClassQ(-1 if m & 1 else 1, tuple(p for i, p in enumerate(primes, 1) if m >> i & 1)) for m in basis]
        return tuple(sorted(out, key=lambda c: (len(c.support), abs(c.value()), c.value())))


def _check_model(A, B):
    """TypeError unless A and B are ints, SingularModelError if B = 0 or A^2 = 4B."""
    if not (isinstance(A, int) and isinstance(B, int)):
        raise TypeError("A and B must be ints")
    check_nonsingular(A, B)


def descend(A: int, B: int) -> Descent:
    """Sel_phi(E/Q), Sel_phi-hat(E'/Q), the local images and the Cassels
    check for E: y^2 = x^3 + A x^2 + B x, A and B ints.

    Torsors are swept for (A, B) only, and not at the odd primes of
    multiplicative reduction, where the image is read off the node; the
    images for (-2A, A^2-4B) follow by Hilbert duality at each tested
    place.  B is factored before A^2-4B, so a FactorizationEffortError
    (whose message lands in skipped scan records) names the first of the
    two that resists.  The Cassels check compares the global Selmer sizes
    with the local ones: |Sel_phi|/|Sel_phi-hat| = prod_v |Im(delta_{E',v})|/2.
    """
    _check_model(A, B)
    primes = factor(B).primes + factor(A * A - 4 * B).primes
    odd_support = tuple(sorted({p for p in primes if p != 2}))
    places = (REAL, 2, *odd_support)
    images = {p: _image_at_place(A, B, p) for p in places}
    classes = [_place_class(p) for p in places]
    gen_coords = _gen_coords(odd_support)
    basis_phi, basis_hat = _selmer_bases(gen_coords, classes, images.values())
    cassels_ok = len(basis_phi) - len(basis_hat) == sum(len(img) - 1 for img in images.values())
    return Descent(A, B, odd_support, basis_phi, basis_hat, images, cassels_ok)


# ----------------------------------------------------------------------
# point search and rank bounds
# ----------------------------------------------------------------------

_SIEVE_MODULI = (16, 9, 5, 7, 11, 13, 17, 19, 23)

# q -> its residue table: the pattern of the residue triple (r3, r2, r1) at
# index (r3 q + r2) q + r1, or -1 until the first read computes it
_PATTERNS = {q: array("i", [-1]) * q**3 for q in _SIEVE_MODULI}


@lru_cache(maxsize=None)
def _square_roots(q: int) -> dict[int, int]:
    """Each square s mod q -> the bitmask of the v < q with v^2 = s (mod q)."""
    return {s: sum(1 << v for v in range(q) if v * v % q == s) for s in {v * v % q for v in range(q)}}


def _residue_pattern(q: int, r3: int, r2: int, r1: int) -> int:
    """The v < q, as a bitmask, with r3 + r2 v^2 + r1 v^4 a square mod q.

    Read from the residue table of q, which stores it on the first read."""
    table = _PATTERNS[q]
    i = (r3 * q + r2) * q + r1
    pattern = table[i]
    if pattern < 0:
        roots = _square_roots(q)
        pattern = 0
        for s, m in roots.items():
            if (r3 + (r2 + r1 * s) * s) % q in roots:
                pattern |= m
        table[i] = pattern
    return pattern


@lru_cache(maxsize=8)
def _repunits(v_max: int) -> tuple[tuple[int, int], ...]:
    """(q, sum of 2^(k q) over k) per sieve modulus: a q-bit pattern times
    its repunit repeats over bits 0..v_max."""
    return tuple((q, ((1 << q * (v_max // q + 1)) - 1) // ((1 << q) - 1)) for q in _SIEVE_MODULI)


@lru_cache(maxsize=1024)
def _coprime_mask(n: int, v_max: int) -> int:
    """The 1 <= v <= v_max with gcd(n, v) = 1 (n > 0), as a bitmask over v."""
    live = (1 << v_max + 1) - 2
    p = 2
    while n > 1:
        if p * p > n:
            p = n  # what is left is prime
        if n % p == 0:
            while n % p == 0:
                n //= p
            # bits 0, p, 2p, ... up to v_max, bit 0 taken back out
            live &= ~(((1 << p * (v_max // p + 1)) - 1) // ((1 << p) - 1) - 1)
        p += 1
    return live


def _covering_points(A: int, B: int, d: int, s_max: int, v_max: int):
    """The (s, v, w) with 1 <= s <= s_max, 1 <= v <= v_max, gcd(d s, v) = 1
    and w >= 0, w^2 = d s^4 + A s^2 v^2 + (B/d) v^4: the points of the
    2-covering of d (d | B) in that box, generated by s, then v.

    For each s the v pass a coprime mask, then one residue pattern per
    sieve modulus q of the triple (d s^4, A s^2, B/d mod q), then the exact
    checks; a caller that stops early sieves no further row.  A covering
    with d < 0, B/d < 0 and (A <= 0 or A^2 < 4 d (B/d)) is negative on R^2
    minus 0, so it has none; at A^2 = 4 d (B/d) it vanishes on a line.
    """
    e = B // d
    if d < 0 and e < 0 and (A <= 0 or A * A < 4 * d * e):
        return
    sieve = [(q, repunit, e % q) for q, repunit in _repunits(v_max)]
    coprime_d = _coprime_mask(abs(d), v_max)
    for s in range(1, s_max + 1):
        s2 = s * s
        c4, c2 = d * s2 * s2, A * s2
        live = coprime_d & _coprime_mask(s, v_max)
        for q, repunit, r1 in sieve:
            live &= _residue_pattern(q, c4 % q, c2 % q, r1) * repunit
            if not live:
                break
        while live:
            v = (live & -live).bit_length() - 1
            live &= live - 1
            v2 = v * v
            N = c4 + (c2 + e * v2) * v2
            if N < 0:
                continue
            w = math.isqrt(N)
            if w * w == N:
                yield s, v, w


def _covering_divisors(b: int, primes, height_bound: int) -> list[tuple[int, int]]:
    """(d, mask) for each signed squarefree d | b with |d| <= height_bound:
    the positive d, each prime of b in turn multiplying those found so far,
    then their negatives.  primes must hold every prime <= height_bound of
    b, in increasing order (the others add nothing), and mask is the class
    of d with bit 0 its sign and bit i primes[i - 1], as in `_class_vector`
    over gens = (-1, *primes)."""
    divisors = [(1, 0)]
    for i, p in enumerate(primes, 1):
        if b % p == 0:
            divisors += [(d * p, m | 1 << i) for d, m in divisors if d * p <= height_bound]
    return divisors + [(-d, m | 1) for d, m in divisors]


def _box_points(a, b, A: int, B: int, q: int, d: int, height_bound: int):
    """The points of y^2 = x^3 + a x^2 + b x that the 2-covering of d (d | B)
    of its reduced model (A, B) = (a/q^2, b/q^4) gives in the x-box of
    `point_search`: a hit (s, v, w) of `_covering_points` is x = d s^2/v^2,
    y = |d| s w/v^3 on (A, B), so x = d s^2 q^2/v^2, y = |d| s w q^3/v^3 on
    (a, b), checked there with `on_model`; generated in the covering's order."""
    for s, v, w in _covering_points(A, B, d, math.isqrt(height_bound // abs(d)), height_bound):
        x, y = Fraction(d * s * s * q * q, v * v), Fraction(abs(d) * s * w * q**3, v**3)
        if on_model(a, b, x, y):
            yield AffinePoint.of(x, y)


def point_search(A: int, B: int, height_bound: int) -> list[AffinePoint]:
    """The points of y^2 = x^3 + A x^2 + B x (A, B integers) whose x is u/v^2
    with |u|, v <= height bound on the reduced model, sorted by x.

    The reduced model divides each p <= 13 out of (A, B) while p^2 | A and
    p^4 | B, as `curve.integral_model` does; the points are moved back from
    it.  The denominator of x is a square for integral models with
    rational 2-torsion, so this shape loses nothing; the search is sound but
    incomplete.  Write u = d s^2 with d signed and squarefree and
    gcd(u, v) = 1.  At a prime of d not dividing B, u^3 + A u^2 v^2 + B u v^4
    has odd valuation; for d | B it is (d s)^2 (d s^4 + A s^2 v^2 + (B/d) v^4).
    So only d | B with |d| <= H are tried, each on its 2-covering
    (`_covering_points`) with s <= sqrt(H/|d|) and v <= H, and a hit w gives
    x = d s^2/v^2, y = |d| s w/v^3, in lowest terms and distinct for distinct
    (d, s, v).  u = 0 gives only the 2-torsion point (0, 0).
    """
    _check_model(A, B)
    if height_bound < 1:
        return []
    Ar, Br, scale = _reduced_model(A, B, 1, ())
    primes, m = [], abs(Br)
    for p in range(2, min(height_bound, m) + 1):
        if m % p == 0:  # p is prime: every smaller prime is divided out of m
            primes.append(p)
            while m % p == 0:
                m //= p
    points = [AffinePoint.of(Fraction(0), Fraction(0))]
    for d, _ in _covering_divisors(Br, primes, height_bound):
        points += _box_points(A, B, Ar, Br, scale.denominator, d, height_bound)
    return sorted(points, key=lambda P: P.x)


@dataclass(frozen=True)
class RankStatus:
    """The rank as the interval [lo, hi]; it is determined when lo == hi."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("lower bound exceeds upper bound")

    @property
    def kind(self) -> str:
        return "determined" if self.lo == self.hi else "bounded"

    @property
    def value(self) -> int:
        if self.lo != self.hi:
            raise ValueError("rank not determined")
        return self.lo

    def to_json(self) -> dict:
        if self.lo == self.hi:
            return {"kind": "determined", "value": self.lo}
        return {"kind": "bounded", "lo": self.lo, "hi": self.hi}

    @staticmethod
    def from_json(data: dict) -> "RankStatus":
        """The status that `to_json` wrote as `data`.

        A record that `to_json` cannot have written raises ValueError: a
        missing or non-integer bound, an unknown key, or a kind that
        disagrees with the bounds, such as a "bounded" record with lo == hi.
        """
        try:
            lo, hi = (data["value"],) * 2 if data["kind"] == "determined" else (data["lo"], data["hi"])
            rank = RankStatus(lo, hi)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed rank record {data!r}") from exc
        if type(lo) is not int or type(hi) is not int or rank.to_json() != data:
            raise ValueError(f"rank record {data!r} is not one that to_json writes")
        return rank


def _class_vector(q, gens) -> int:
    """The square class of the nonzero rational q as an F_2 vector over
    gens = (-1, 2, odd primes): bit 0 is the sign, bit i the parity of
    v_p(num * den) for p = gens[i].  What is left of num * den must be a
    square; a class off the generators means a descent bug, and raises.
    """
    n = q.numerator * q.denominator
    vec = int(n < 0)
    n = abs(n)
    for i in range(1, len(gens)):
        p = gens[i]
        if n % p == 0:
            k = int_valuation(n, p)
            n //= p**k
            vec |= (k & 1) << i
    if math.isqrt(n) ** 2 != n:
        raise AssertionError(f"the class of {q} is not supported on the descent's primes: descent bug")
    return vec


def _point_vector(b: int, P: AffinePoint, gens) -> int:
    """The delta class of P on a model with coefficient b, as a
    `_class_vector`: O -> 0, (0,0) -> [b], else [x]."""
    if P.at_infinity:
        return 0
    return _class_vector(b if P.x == 0 else P.x, gens)


def rank_bounds(descent: Descent, points_e=(), points_eprime=(), search_bound: int = 0) -> RankStatus:
    """Rank bounds from delta images of known points and Selmer dimensions.

    The points lie on the descent's sides E = (A, B) and E' = (-2A, A^2-4B).
    lower = dim<delta_E(points)> + dim<delta_E'(points')> - 2,
    upper = dim Sel_phi-hat + dim Sel_phi - 2 (both clamped at 0).
    A side whose span of (0,0) and the given points is still below its
    Selmer dimension (E against Sel_phi-hat, E' against Sel_phi) also gets
    the classes of the points of `point_search` on it at search_bound (0
    searches nothing), found covering by covering: for each d of
    `_covering_divisors` of the side's reduced model, in that order, a d
    whose class the span already holds is skipped, since a point on its
    covering has that class; otherwise the first point of its covering in
    the x-box (`_box_points`), if any, adds its own class.  So the span is
    that of every point the box holds, as a full `point_search` gives it.
    The walk neither reads the Selmer basis nor stops when the span fills.
    Each searched covering's first point, or None, is kept in
    `descent.searches[side, bound]` by d, side 0 being E, so that a later
    call, with other given points, searches no covering twice; a filled
    side is not searched, since a further point can only leave its span as
    it is.

    Classes are F_2 vectors over the descent's generators -1, 2 and the odd
    support (`_class_vector`); the masks of the d are over the same
    generators, and the Selmer basis of its side must reduce each point's
    class to 0.  A given point off its side raises OffCurveError.
    """
    if search_bound < 0:
        raise ValueError(f"search bound {search_bound} is negative")
    A, B, gens, searches = descent.A, descent.B, descent.gens, descent.searches
    dims = []
    for side, a, b, points, basis in (
        (0, A, B, points_e, descent.phi_hat),
        (1, -2 * A, A * A - 4 * B, points_eprime, descent.phi),
    ):
        for P in points:
            if not (P.at_infinity or on_model(a, b, P.x, P.y)):
                raise OffCurveError(f"point {P} is not on the curve")
        vecs = [_class_vector(b, gens)] + [_point_vector(b, P, gens) for P in points]
        span = f2_echelon(vecs)
        if search_bound and len(span) < len(basis):
            found = searches.setdefault((side, search_bound), {})
            Ar, Br, scale = _reduced_model(a, b, 1, ())
            for d, mask in _covering_divisors(Br, gens[1:], search_bound):
                if not f2_reduce(mask, span):
                    continue
                if d not in found:
                    found[d] = next(_box_points(a, b, Ar, Br, scale.denominator, d, search_bound), None)
                if found[d] is not None:
                    vecs.append(_point_vector(b, found[d], gens))
                    span = f2_echelon(span + (vecs[-1],))
        if any(f2_reduce(v, basis) for v in vecs):
            raise AssertionError("delta image escaped its Selmer group: descent bug")
        dims.append(len(span))
    lo = max(sum(dims) - 2, 0)
    hi = max(len(descent.phi_hat) + len(descent.phi) - 2, lo)
    return RankStatus(lo, hi)
