"""The definitional closed-form route: the M-basis closed forms evaluated
one composition at a time from its part statistics (``stats``).

This is how the package evaluated them before ``characters._closed_M`` was
keyed by the shape of a composition and ``restrict`` walked the shapes of a
whole degree at once.  It stays here, slow and literal, as the reference
that ``eval_M`` and ``restrict`` are compared against.  ``stats`` is the
part-statistics record the package computed for every composition before
its closed forms and identity checks counted the statistics they need
inline.
"""

from fractions import Fraction
from typing import NamedTuple

from qsymx import exactnum as en
from qsymx.characters import TruncatedCharacter, _parse_id
from qsymx.compositions import Composition, all_compositions


class CompositionStats(NamedTuple):
    weight: int
    k: int          # number of parts
    k_e: int        # number of even parts
    k_o: int        # number of odd parts
    u: int          # parts > 1 excluding the first
    v: int          # parts > 1


def stats(alpha: Composition) -> CompositionStats:
    """The part statistics of alpha.  The peak statistics are
    compositions.p_minus and compositions.p_plus.

    >>> s = stats((1, 3, 1, 2, 2))
    >>> s.k_e, s.k_o, s.u, s.v
    (2, 3, 3, 3)
    """
    k = len(alpha)
    k_e = sum(1 for a in alpha if a % 2 == 0)
    big = [i for i, a in enumerate(alpha) if a > 1]
    return CompositionStats(
        weight=sum(alpha),
        k=k,
        k_e=k_e,
        k_o=k - k_e,
        u=sum(1 for i in big if i != 0),
        v=len(big),
    )


def eval_M(char_id: str, alpha: Composition) -> Fraction:
    """Value of a closed-form character on the monomial basis element of
    alpha."""
    kind, power = _parse_id(char_id)
    k = len(alpha)
    if kind == "counit":
        return Fraction(1 if k == 0 else 0)
    if kind == "zeta":
        return Fraction(1 if k <= 1 else 0)
    if kind == "zeta-pow":
        return Fraction(en.falling_binomial(power, k))
    if kind == "zeta-inv":
        return Fraction(-1 if k % 2 else 1)
    if k == 0:
        return Fraction(1)

    st = stats(alpha)
    n = st.weight
    if kind == "zeta-minus":
        if alpha[-1] % 2 == 0:
            return Fraction(0)
        h = st.k_o // 2
        sign = -1 if st.k_e % 2 else 1
        return Fraction(sign * en.bivariate_catalan(0, h), 4 ** h)
    if kind == "zeta-plus":
        if n % 2:
            return Fraction(0)
        if k == 1:
            return Fraction(1)
        if alpha[0] % 2 and alpha[-1] % 2:
            sign = 1 if st.k_e % 2 else -1
            return Fraction(sign * en.bivariate_catalan(1, st.k_o // 2 - 1), 2 ** st.k_o)
        return Fraction(0)
    if kind == "zeta-inv-minus":
        if alpha[0] % 2 == 0:
            return Fraction(0)
        h = st.k_o // 2
        sign = -1 if k % 2 else 1
        return Fraction(sign * en.bivariate_catalan(0, h), 4 ** h)
    if kind == "zeta-inv-plus":
        if n % 2:
            return Fraction(0)
        sign = -1 if k % 2 else 1
        return Fraction(sign * en.bivariate_catalan(0, st.k_o // 2), 2 ** st.k_o)
    raise AssertionError(kind)


def restrict(char_id: str, max_degree: int) -> TruncatedCharacter:
    """Tabulate eval_M on every composition up to max_degree, one
    composition at a time, through the public constructor."""
    tables = [
        [eval_M(char_id, alpha) for alpha in all_compositions(n)]
        for n in range(max_degree + 1)
    ]
    return TruncatedCharacter(max_degree, tables)
