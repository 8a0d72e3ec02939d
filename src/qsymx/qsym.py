"""Quasi-symmetric functions in the monomial (M) and fundamental (F) bases.

Elements are basis-tagged linear combinations of compositions over exact
rationals (``exactnum.LinearCombination``s).  The two bases are related by

    M_a = sum over refinements b of a of (-1)^(k(b) - k(a)) F_b,
    F_a = sum over refinements b of a of M_b,

the second being the Moebius inversion of the first over the boolean
refinement lattice.  Elements are never coerced between bases implicitly;
mixed-basis arithmetic raises.

Each basis is multiplied by its own rule on pairs of basis elements, with
integer multiplicities, and the two rules share no code:

- M: M_a M_b is the sum of M_c over the quasi-shuffles c of a and b
  (interleave the parts, optionally adding a part of a to a part of b).
- F: F_a F_b is the sum of F_Des(w) over the shuffles w of a permutation
  sigma with descent composition a and a permutation tau with descent
  composition b, shifted above sigma (Gessel's rule; Gessel, Multipartite
  P-partitions and inner products of skew Schur functions, 1984).  Only the
  source of each letter of w matters, so the descent composition is built
  part by part while walking the interleavings.

Every producer below reads its operands' coefficients with ``terms`` (the
integral ones as ints) and hands its (key, coefficient) terms, with keys it
built itself, to ``from_terms``; only the public constructors and
``element_from_json`` validate keys.
"""

from fractions import Fraction

from .exactnum import LinearCombination, as_fraction
from .compositions import (
    Composition,
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
    """Expand an M-basis element in the F basis (identity on F elements)."""
    QSymElement.require(x)
    if x.basis == "F":
        return x
    return QSymElement.from_terms("F", (
        (beta, -c if (len(beta) - len(alpha)) % 2 else c)
        for alpha, c in x.terms()
        for beta in refinements(alpha)
    ))


def to_M(x: QSymElement) -> QSymElement:
    """Expand an F-basis element in the M basis (identity on M elements)."""
    QSymElement.require(x)
    if x.basis == "M":
        return x
    return QSymElement.from_terms("M", (
        (beta, c) for alpha, c in x.terms() for beta in refinements(alpha)
    ))


def _product_M(alpha: Composition, beta: Composition) -> dict[Composition, int]:
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
    return row[0]


def _product_F(alpha: Composition, beta: Composition) -> dict[Composition, int]:
    """F_alpha F_beta as {gamma: multiplicity}, by Gessel's shuffle rule.

    Let sigma have descent composition alpha (weight m) and tau descent
    composition beta (weight n), with tau's letters shifted above sigma's.
    Each of the C(m + n, m) interleavings w contributes F_Des(w).  Whether
    two adjacent letters of w descend depends only on where they come from:
    sigma's letters i and i + 1 descend iff bit i - 1 of to_index(alpha) is
    set, likewise for tau with to_index(beta); a letter of sigma before one
    of tau is an ascent, a letter of tau before one of sigma a descent.  So
    the walk never builds a permutation: it carries, for each prefix, the
    closed parts of the prefix's descent composition and the length of its
    last run.  A descent closes the run, any other step extends it, and a
    complete interleaving contributes the closed parts and its last run."""
    m, n = sum(alpha), sum(beta)
    if not m or not n:
        return {alpha + beta: 1}
    des_sigma, des_tau = to_index(alpha), to_index(beta)
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
            if after_tau or des_sigma >> (i - 1) & 1:
                stack.append((i + 1, j, head + (run,), 1, False))
            else:
                stack.append((i + 1, j, head, run + 1, False))
        if j < n:
            if after_tau and des_tau >> (j - 1) & 1:
                stack.append((i, j + 1, head + (run,), 1, True))
            else:
                stack.append((i, j + 1, head, run + 1, True))
    return out


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

    def terms():
        y_terms = y.terms()
        for alpha, a in x.terms():
            for beta, b in y_terms:
                ab = a * b
                for gamma, count in product(alpha, beta).items():
                    yield gamma, ab * count

    return QSymElement.from_terms(x.basis, terms())


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

    def terms():
        t_terms = t.terms()
        for (l1, r1), c1 in s.terms():
            for (l2, r2), c2 in t_terms:
                prod_r = product(r1, r2)
                c12 = c1 * c2
                for la, ca in product(l1, l2).items():
                    for rb, cb in prod_r.items():
                        yield (la, rb), c12 * (ca * cb)

    return TensorElement.from_terms(s.basis, terms())


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
        terms = (
            ((cut.left, cut.right), c)
            for alpha, c in x.terms()
            for cut in ribbon_cuts(alpha)
        )
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
    if x.basis == "M":
        terms = (
            (alpha, -c if len(beta) % 2 else c)
            for beta, c in x.terms()
            for alpha in coarsenings(reversal(beta))
        )
    else:
        terms = (
            (conjugate(alpha), -c if sum(alpha) % 2 else c)
            for alpha, c in x.terms()
        )
    return QSymElement.from_terms(x.basis, terms)


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
