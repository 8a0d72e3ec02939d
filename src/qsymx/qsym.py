"""Quasi-symmetric functions in the monomial (M) and fundamental (F) bases.

Elements are basis-tagged linear combinations of compositions over exact
rationals (``exactnum.LinearCombination``s), never coerced between bases
implicitly.  The bases are related by

    M_a = sum over refinements b of a of (-1)^(k(b) - k(a)) F_b,
    F_a = sum over refinements b of a of M_b,

the Moebius inversion over the boolean refinement lattice.

Each basis has its own product rule on pairs of compositions, with integer
multiplicities and no code shared with the other, memoized behind a bounded
``lru_cache`` as a read-only mapping whose keys are shared through one
bounded table.  A rule is built
from its arguments alone (besides ``_frozen``, it calls no function of the
package), so a fault planted in one for a while cannot leave a wrong
product in the cache; ``multiply`` and ``multiply_tensor`` look a rule up
by its global name at each call.

The basis change and the M antipode are sub- and super-mask sums.  An
element of one weight n >= 2 whose per-term expansion (2^(n - k) terms per
key of k parts for the basis change, 2^(k - 1) for the antipode) is longer
than the 2^(n - 1) masks of n takes one row through
``compositions._mask_pass``, read back by the cached ``_mask_table(n)``,
built like the rules from its argument alone.  Every other element, each
basis element among them, hands its terms one by one to ``from_terms``.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress
from types import MappingProxyType

from .exactnum import LinearCombination, as_fraction
from .compositions import (
    Composition,
    _mask_pass,
    coarsenings,
    composition,
    conjugate,
    refinements,
    reversal,
    ribbon_cuts,
    to_index,
)
from .permutations import SSymElement, descent_composition

__all__ = [
    "QSymElement",
    "TensorElement",
    "qsym_basis",
    "qsym_zero",
    "qsym_one",
    "multiply",
    "multiply_tensor",
    "coproduct",
    "counit",
    "antipode",
    "t_involution",
    "to_F",
    "to_M",
    "descent_map",
    "format_element",
    "element_to_json",
    "element_from_json",
]


def _sort_key(alpha: Composition):
    return (sum(alpha), to_index(alpha))


class QSymElement(LinearCombination):
    """A finite linear combination of basis compositions, tagged M or F.
    Zero coefficients are never stored."""

    __slots__ = ()
    BASES = ("M", "F")
    key = staticmethod(composition)

    def __mul__(self, other):
        if isinstance(other, QSymElement):
            return multiply(self, other)
        return super().__mul__(other)

    def __repr__(self):
        return format_element(self)


def qsym_basis(basis: str, alpha, coeff=1) -> QSymElement:
    return QSymElement(basis, {tuple(alpha): coeff})


def qsym_zero(basis: str = "M") -> QSymElement:
    return QSymElement(basis, {})


def qsym_one(basis: str = "M") -> QSymElement:
    """The unit element, i.e. the basis element of the empty composition."""
    return QSymElement(basis, {(): Fraction(1)})


def to_F(x: QSymElement) -> QSymElement:
    """Expand an M-basis element in the F basis (identity on F elements).

    >>> to_F(qsym_basis("M", (2, 1)))
    F[2,1] - F[1,1,1]
    >>> to_F(QSymElement("M", {(3,): 1, (1, 2): 1, (2, 1): 1, (1, 1, 1): 1}))
    F[3]
    """
    return _basis_change(x, "F", -1)


def to_M(x: QSymElement) -> QSymElement:
    """Expand an F-basis element in the M basis (identity on M elements)."""
    return _basis_change(x, "M", 1)


def _basis_change(x: QSymElement, target: str, sign: int) -> QSymElement:
    """x in basis target (the identity on it): the sum over the refinements
    beta of each key alpha of sign^(k(beta) - k(alpha)) times its
    coefficient, sign -1 into F and 1 into M."""
    QSymElement.require(x)
    if x.basis == target:
        return x
    n = _row_weight(x, True)
    if n:
        return _by_row(target, x.terms(), n, False, sign)
    terms = (
        (beta, -c if sign < 0 and (len(beta) - len(alpha)) % 2 else c)
        for alpha, c in x.terms()
        for beta in refinements(alpha)
    )
    return QSymElement.from_terms(target, terms)


# one hopf-products pass caches about 8,300 result entries over 256 distinct
# compositions, and multiplies about 240 distinct pairs in each basis
_shared_key = lru_cache(maxsize=8192)(lambda key: key)


def _row_weight(x: QSymElement, refine: bool) -> int:
    """n if x has one weight n >= 2 and lists more terms one by one
    (2^(n - k) refinements, or 2^(k - 1) coarsenings, per key of k parts)
    than n has masks, as one key never does; else 0."""
    keys = x.coeffs.keys()
    if len(keys) < 2:
        return 0
    weights = set(map(sum, keys))
    n = weights.pop()
    if weights or n < 2:
        return 0
    # twice each count, against 2^n
    twice = (2 << n).__rshift__ if refine else (1).__lshift__
    return n if sum(map(twice, map(len, keys))) > 1 << n else 0


@lru_cache(maxsize=16)
def _mask_table(n: int) -> MappingProxyType:
    """{composition of n: its mask} in mask order, with shared keys."""
    comps = [(1,)]
    for _ in range(n - 1):  # grow the last part (top bit clear), or append a 1
        comps = [c[:-1] + (c[-1] + 1,) for c in comps] + [c + (1,) for c in comps]
    return MappingProxyType({_shared_key(c): mask for mask, c in enumerate(comps)})


def _by_row(basis: str, terms, n: int, supersets: bool, sign: int) -> QSymElement:
    """The mask pass over the row of terms, as an element of basis."""
    table = _mask_table(n)
    row = [0] * (1 << (n - 1))
    for key, c in terms:
        row[table[key]] = c
    row = _mask_pass(row, n, supersets, sign)
    return QSymElement.from_terms(basis, zip(compress(table, row), compress(row, row)))


def _frozen(counts: dict) -> MappingProxyType:
    """counts as a read-only mapping whose keys are the shared tuples."""
    return MappingProxyType({_shared_key(k): c for k, c in counts.items()})


@lru_cache(maxsize=1024)
def _product_M(alpha: Composition, beta: Composition) -> MappingProxyType:
    """M_alpha M_beta as {gamma: multiplicity}: the quasi-shuffles of alpha
    and beta.  Built from the back, one row of the (len(alpha) + 1) x
    (len(beta) + 1) grid at a time: the quasi-shuffles of alpha[i:] and
    beta[j:] put alpha[i], beta[j] or alpha[i] + beta[j] in front of those
    of what is left."""
    k, l = len(alpha), len(beta)
    row = [{beta[j:]: 1} for j in range(l + 1)]  # alpha used up
    for i in range(k - 1, -1, -1):
        a = alpha[i]
        prev = row  # the quasi-shuffles of alpha[i + 1:] and beta[j:]
        row = [None] * l + [{alpha[i:]: 1}]
        for j in range(l - 1, -1, -1):
            b = beta[j]
            out: dict[Composition, int] = {}
            steps = (((a,), prev[j]), ((b,), row[j + 1]), ((a + b,), prev[j + 1]))
            for head, tails in steps:
                for tail, count in tails.items():
                    gamma = head + tail
                    out[gamma] = out.get(gamma, 0) + count
            row[j] = out
    return _frozen(row[0])


@lru_cache(maxsize=1024)
def _product_F(alpha: Composition, beta: Composition) -> MappingProxyType:
    """F_alpha F_beta as {gamma: multiplicity}, by Gessel's shuffle rule
    (Multipartite P-partitions and inner products of skew Schur functions,
    1984): F_Des(w) for each of the C(m + n, m) interleavings w of sigma,
    of descent composition alpha and weight m, and tau, of beta and n,
    shifted above sigma.  Whether two adjacent letters of w descend depends
    only on where they come from: within sigma iff the first is a proper
    partial sum of alpha (likewise tau and beta), never from sigma to tau,
    always from tau to sigma.  So the walk carries, for each prefix, the
    closed parts of its descent composition and the length of its last run,
    which a descent closes and any other step extends."""
    m, n = sum(alpha), sum(beta)
    if not m or not n:
        return _frozen({alpha + beta: 1})
    des_sigma, des_tau = set(accumulate(alpha[:-1])), set(accumulate(beta[:-1]))
    out: dict[Composition, int] = {}
    # (letters of sigma placed, letters of tau placed, closed parts, length
    # of the last run, whether the last letter is tau's), from the prefixes
    # of one letter
    stack = [(1, 0, (), 1, False), (0, 1, (), 1, True)]
    while stack:
        i, j, head, run, after_tau = stack.pop()
        if i == m and j == n:
            gamma = head + (run,)
            out[gamma] = out.get(gamma, 0) + 1
            continue
        if i < m:
            if after_tau or i in des_sigma:
                stack.append((i + 1, j, head + (run,), 1, False))
            else:
                stack.append((i + 1, j, head, run + 1, False))
        if j < n:
            if after_tau and j in des_tau:
                stack.append((i, j + 1, head + (run,), 1, True))
            else:
                stack.append((i, j + 1, head, run + 1, True))
    return _frozen(out)


def multiply(x: QSymElement, y: QSymElement) -> QSymElement:
    """Product of two same-basis elements: the product of each pair of
    basis elements, by the rule of their basis (quasi-shuffles in M,
    Gessel's shuffle rule in F; see the module docstring), scaled by the
    product of their coefficients.

    >>> f1 = qsym_basis("F", (1,))
    >>> multiply(f1, f1)
    F[2] + F[1,1]
    >>> m1 = qsym_basis("M", (1,))
    >>> multiply(m1, m1)
    M[2] + 2*M[1,1]
    """
    QSymElement.require(x)
    x.check_compatible(y)
    product = _product_F if x.basis == "F" else _product_M
    return QSymElement.bilinear(x.basis, x, y, product)


def _tensor_key(key) -> tuple[Composition, Composition]:
    left, right = key
    return composition(left), composition(right)


class TensorElement(LinearCombination):
    """An element of QSym tensor QSym with a shared basis tag, stored as a
    flat map (left, right) -> coefficient."""

    __slots__ = ()
    BASES = ("M", "F")
    key = staticmethod(_tensor_key)

    def swap(self) -> "TensorElement":
        return TensorElement(
            self.basis, {(r, l): c for (l, r), c in self.coeffs.items()}
        )

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for left, right in sorted(self.coeffs, key=lambda t: (_sort_key(t[0]), _sort_key(t[1]))):
            c = self.coeffs[(left, right)]
            body = "%s[%s] (x) %s[%s]" % (
                self.basis,
                ",".join(map(str, left)),
                self.basis,
                ",".join(map(str, right)),
            )
            bits.append(body if c == 1 else "%s*%s" % (c, body))
        return " + ".join(bits)


def multiply_tensor(s: TensorElement, t: TensorElement) -> TensorElement:
    """Componentwise product (a (x) b)(c (x) d) = ac (x) bd."""
    TensorElement.require(s)
    s.check_compatible(t)
    product = _product_F if s.basis == "F" else _product_M

    def rule(key1, key2):
        (l1, r1), (l2, r2) = key1, key2
        prod_r = product(r1, r2)
        return {
            (la, rb): ca * cb for la, ca in product(l1, l2).items() for rb, cb in prod_r.items()
        }

    return TensorElement.bilinear(s.basis, s, t, rule)


def coproduct(x: QSymElement) -> TensorElement:
    """Deconcatenation coproduct in the M basis; ribbon cuts in the F basis."""
    QSymElement.require(x)
    if x.basis == "M":
        terms = (
            ((alpha[:i], alpha[i:]), c)
            for alpha, c in x.terms()
            for i in range(len(alpha) + 1)
        )
    else:
        terms = ((cut, c) for alpha, c in x.terms() for cut in ribbon_cuts(alpha))
    return TensorElement.from_terms(x.basis, terms)


def counit(x: QSymElement) -> Fraction:
    """Coefficient of the empty composition (same rule in both bases)."""
    QSymElement.require(x)
    return x.coeffs.get((), Fraction(0))


def antipode(x: QSymElement) -> QSymElement:
    """Hopf antipode.  On M_b it is (-1)^(k(b)) times the sum of all
    coarsenings of the reversal of b; on F_a it is (-1)^|a| F_(conjugate a).
    """
    QSymElement.require(x)
    if x.basis == "F":
        terms = (
            (conjugate(alpha), -c if sum(alpha) % 2 else c)
            for alpha, c in x.terms()
        )
        return QSymElement.from_terms("F", terms)
    signed = ((reversal(beta), -c if len(beta) % 2 else c) for beta, c in x.terms())
    n = _row_weight(x, False)
    if n:
        return _by_row("M", signed, n, True, 1)
    return QSymElement.from_terms(
        "M", ((alpha, c) for beta, c in signed for alpha in coarsenings(beta))
    )


def t_involution(x: QSymElement) -> QSymElement:
    """The reversal involution T, acting by B_a -> B_(reversed a) in either
    basis; an algebra morphism and coalgebra antimorphism."""
    QSymElement.require(x)
    return QSymElement.from_terms(
        x.basis, ((reversal(alpha), c) for alpha, c in x.terms())
    )


def descent_map(x: SSymElement) -> QSymElement:
    """The Hopf surjection from the permutation algebra: F_sigma maps to
    F_(descent composition of sigma)."""
    SSymElement.require(x)
    return QSymElement.from_terms(
        "F", ((descent_composition(sigma), c) for sigma, c in x.terms())
    )


def format_element(x: QSymElement) -> str:
    """Render like "M[2,1] + 3/2*M[1,1] - M[3]"; "0" for the zero element."""
    QSymElement.require(x)
    if not x.coeffs:
        return "0"
    pieces = []
    for alpha in sorted(x.coeffs, key=_sort_key):
        c = x.coeffs[alpha]
        body = "%s[%s]" % (x.basis, ",".join(map(str, alpha)))
        mag = abs(c)
        text = body if mag == 1 else "%s*%s" % (mag, body)
        if not pieces:
            pieces.append(text if c > 0 else "-" + text)
        else:
            pieces.append(("+ " if c > 0 else "- ") + text)
    return " ".join(pieces)


def element_to_json(x: QSymElement) -> dict:
    """JSON form: {"basis": ..., "terms": [{"comp": [...], "coeff": "p/q"}]}."""
    QSymElement.require(x)
    return {
        "basis": x.basis,
        "terms": [
            {"comp": list(alpha), "coeff": str(x.coeffs[alpha])}
            for alpha in sorted(x.coeffs, key=_sort_key)
        ],
    }


def element_from_json(data: dict) -> QSymElement:
    """Inverse of element_to_json; repeated compositions add up, and a float
    coefficient raises TypeError."""
    return QSymElement.from_terms(data["basis"], (
        (composition(term["comp"]), as_fraction(term["coeff"]))
        for term in data["terms"]
    ))
