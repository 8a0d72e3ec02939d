"""Quasi-symmetric functions in the monomial (M) and fundamental (F) bases.

Elements are basis-tagged linear combinations of compositions over exact
rationals.  The two bases are related by

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
  source of each letter of w matters, so the descent set is built as a
  bitmask while walking the interleavings.
"""

from fractions import Fraction

from .exactnum import as_fraction
from .compositions import (
    Composition,
    coarsenings,
    composition,
    conjugate,
    from_index,
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

BASES = ("M", "F")


def _sort_key(alpha: Composition):
    return (sum(alpha), to_index(alpha))


class QSymElement:
    """A finite linear combination of basis compositions, tagged M or F.
    Zero coefficients are never stored."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: str, coeffs=None):
        if basis not in BASES:
            raise ValueError("basis must be 'M' or 'F', got %r" % (basis,))
        clean: dict[Composition, Fraction] = {}
        for alpha, c in (coeffs or {}).items():
            c = as_fraction(c)
            if c:
                clean[composition(alpha)] = c
        self.basis = basis
        self.coeffs = clean

    def _check_basis(self, other: "QSymElement"):
        if self.basis != other.basis:
            raise ValueError(
                "mixed-basis arithmetic (%s vs %s); convert explicitly"
                % (self.basis, other.basis)
            )

    def __eq__(self, other):
        return (
            isinstance(other, QSymElement)
            and self.basis == other.basis
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.basis, frozenset(self.coeffs.items())))

    def __add__(self, other):
        self._check_basis(other)
        out = dict(self.coeffs)
        for alpha, c in other.coeffs.items():
            out[alpha] = out.get(alpha, Fraction(0)) + c
        return QSymElement(self.basis, out)

    def __sub__(self, other):
        self._check_basis(other)
        out = dict(self.coeffs)
        for alpha, c in other.coeffs.items():
            out[alpha] = out.get(alpha, Fraction(0)) - c
        return QSymElement(self.basis, out)

    def __neg__(self):
        return QSymElement(self.basis, {a: -c for a, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, QSymElement):
            return multiply(self, other)
        return QSymElement(
            self.basis, {a: c * as_fraction(other) for a, c in self.coeffs.items()}
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.coeffs

    def homogeneous(self, n: int) -> "QSymElement":
        """The degree-n component."""
        return QSymElement(
            self.basis, {a: c for a, c in self.coeffs.items() if sum(a) == n}
        )

    def degrees(self) -> list[int]:
        return sorted({sum(a) for a in self.coeffs})

    def __repr__(self):
        return format_element(self)


def qsym_basis(basis: str, alpha, coeff=1) -> QSymElement:
    return QSymElement(basis, {composition(alpha): as_fraction(coeff)})


def qsym_zero(basis: str = "M") -> QSymElement:
    return QSymElement(basis, {})


def qsym_one(basis: str = "M") -> QSymElement:
    """The unit element, i.e. the basis element of the empty composition."""
    return QSymElement(basis, {(): Fraction(1)})


def to_F(x: QSymElement) -> QSymElement:
    """Expand an M-basis element in the F basis (identity on F elements)."""
    if x.basis == "F":
        return x
    out: dict[Composition, Fraction] = {}
    for alpha, c in x.coeffs.items():
        k = len(alpha)
        for beta in refinements(alpha):
            sign = -1 if (len(beta) - k) % 2 else 1
            out[beta] = out.get(beta, Fraction(0)) + sign * c
    return QSymElement("F", out)


def to_M(x: QSymElement) -> QSymElement:
    """Expand an F-basis element in the M basis (identity on M elements)."""
    if x.basis == "M":
        return x
    out: dict[Composition, Fraction] = {}
    for alpha, c in x.coeffs.items():
        for beta in refinements(alpha):
            out[beta] = out.get(beta, Fraction(0)) + c
    return QSymElement("M", out)


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
    the walk carries the descent bitmask of the prefix and never builds a
    permutation."""
    m, n = sum(alpha), sum(beta)
    des_sigma, des_tau = to_index(alpha), to_index(beta)
    masks: dict[int, int] = {}
    # (letters of sigma placed, letters of tau placed, descent bitmask of
    # the prefix, whether its last letter is tau's)
    stack = [(0, 0, 0, False)]
    while stack:
        i, j, mask, after_tau = stack.pop()
        p = i + j
        if p == m + n:
            masks[mask] = masks.get(mask, 0) + 1
            continue
        if i < m:
            descent = after_tau or (i and des_sigma >> (i - 1) & 1)
            stack.append((i + 1, j, mask | 1 << (p - 1) if descent else mask, False))
        if j < n:
            descent = after_tau and des_tau >> (j - 1) & 1
            stack.append((i, j + 1, mask | 1 << (p - 1) if descent else mask, True))
    return {from_index(m + n, mask): count for mask, count in masks.items()}


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
    x._check_basis(y)
    product = _product_F if x.basis == "F" else _product_M
    out: dict[Composition, Fraction] = {}
    for alpha, a in x.coeffs.items():
        for beta, b in y.coeffs.items():
            ab = a * b
            for gamma, count in product(alpha, beta).items():
                out[gamma] = out.get(gamma, 0) + ab * count
    return QSymElement(x.basis, out)


class TensorElement:
    """An element of QSym tensor QSym with a shared basis tag, stored as a
    flat map (left, right) -> coefficient."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis: str, terms=None):
        if basis not in BASES:
            raise ValueError("basis must be 'M' or 'F', got %r" % (basis,))
        clean: dict[tuple[Composition, Composition], Fraction] = {}
        for (left, right), c in (terms or {}).items():
            c = as_fraction(c)
            if c:
                clean[(composition(left), composition(right))] = c
        self.basis = basis
        self.terms = clean

    def __eq__(self, other):
        return (
            isinstance(other, TensorElement)
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def __add__(self, other):
        if self.basis != other.basis:
            raise ValueError("mixed-basis tensor arithmetic")
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + c
        return TensorElement(self.basis, out)

    def __sub__(self, other):
        if self.basis != other.basis:
            raise ValueError("mixed-basis tensor arithmetic")
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Fraction(0)) - c
        return TensorElement(self.basis, out)

    def swap(self) -> "TensorElement":
        return TensorElement(
            self.basis, {(r, l): c for (l, r), c in self.terms.items()}
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for left, right in sorted(self.terms, key=lambda t: (_sort_key(t[0]), _sort_key(t[1]))):
            c = self.terms[(left, right)]
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
    if s.basis != t.basis:
        raise ValueError("mixed-basis tensor arithmetic")
    product = _product_F if s.basis == "F" else _product_M
    out: dict[tuple[Composition, Composition], Fraction] = {}
    for (l1, r1), c1 in s.terms.items():
        for (l2, r2), c2 in t.terms.items():
            prod_r = product(r1, r2)
            c12 = c1 * c2
            for la, ca in product(l1, l2).items():
                for rb, cb in prod_r.items():
                    key = (la, rb)
                    out[key] = out.get(key, 0) + c12 * (ca * cb)
    return TensorElement(s.basis, out)


def coproduct(x: QSymElement) -> TensorElement:
    """Deconcatenation coproduct in the M basis; ribbon cuts in the F basis."""
    out: dict[tuple[Composition, Composition], Fraction] = {}
    if x.basis == "M":
        for alpha, c in x.coeffs.items():
            for i in range(len(alpha) + 1):
                key = (alpha[:i], alpha[i:])
                out[key] = out.get(key, Fraction(0)) + c
    else:
        for alpha, c in x.coeffs.items():
            for cut in ribbon_cuts(alpha):
                key = (cut.left, cut.right)
                out[key] = out.get(key, Fraction(0)) + c
    return TensorElement(x.basis, out)


def counit(x: QSymElement) -> Fraction:
    """Coefficient of the empty composition (same rule in both bases)."""
    return x.coeffs.get((), Fraction(0))


def antipode(x: QSymElement) -> QSymElement:
    """Hopf antipode.  On M_b it is (-1)^(k(b)) times the sum of all
    coarsenings of the reversal of b; on F_a it is (-1)^|a| F_(conjugate a).
    """
    out: dict[Composition, Fraction] = {}
    if x.basis == "M":
        for beta, c in x.coeffs.items():
            signed = -c if len(beta) % 2 else c
            rev = reversal(beta)
            for alpha in coarsenings(rev):
                out[alpha] = out.get(alpha, Fraction(0)) + signed
    else:
        for alpha, c in x.coeffs.items():
            signed = -c if sum(alpha) % 2 else c
            gamma = conjugate(alpha)
            out[gamma] = out.get(gamma, Fraction(0)) + signed
    return QSymElement(x.basis, out)


def t_involution(x: QSymElement) -> QSymElement:
    """The reversal involution T, acting by B_a -> B_(reversed a) in either
    basis; an algebra morphism and coalgebra antimorphism."""
    out: dict[Composition, Fraction] = {}
    for alpha, c in x.coeffs.items():
        rev = reversal(alpha)
        out[rev] = out.get(rev, Fraction(0)) + c
    return QSymElement(x.basis, out)


def descent_map(x: SSymElement) -> QSymElement:
    """The Hopf surjection from the permutation algebra: F_sigma maps to
    F_(descent composition of sigma)."""
    out: dict[Composition, Fraction] = {}
    for sigma, c in x.coeffs.items():
        alpha = descent_composition(sigma)
        out[alpha] = out.get(alpha, Fraction(0)) + c
    return QSymElement("F", out)


def format_element(x: QSymElement) -> str:
    """Render like "M[2,1] + 3/2*M[1,1] - M[3]"; "0" for the zero element."""
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
    return {
        "basis": x.basis,
        "terms": [
            {"comp": list(alpha), "coeff": str(x.coeffs[alpha])}
            for alpha in sorted(x.coeffs, key=_sort_key)
        ],
    }


def element_from_json(data: dict) -> QSymElement:
    coeffs: dict[Composition, Fraction] = {}
    for term in data["terms"]:
        alpha = composition(term["comp"])
        coeffs[alpha] = coeffs.get(alpha, Fraction(0)) + Fraction(term["coeff"])
    return QSymElement(data["basis"], coeffs)
