"""Exact sparse multivariate polynomials and rational expressions.

Three kinds of variables occur: the quantum parameter q, torus coordinates
a[i,j], and Plücker variables p[c1,...,cn] indexed by diagrams.  A variable
is a plain tuple whose first entry is the kind tag, so tuple comparison
gives the canonical variable order

    q  <  a[i,j] (lexicographic in (i, j))  <  p[rows] (lexicographic in rows)

A monomial is the tuple of its (variable, exponent) pairs sorted by
variable; a polynomial maps monomials to nonzero integer coefficients.
Coefficients are Python ints throughout, so all arithmetic is exact, and
the term order is the lexicographic order on the sorted exponent tuples.

Rational expressions are unreduced numerator/denominator pairs; equality is
decided by cross-multiplication, never by GCD cancellation.
"""

import json
from typing import Callable, Iterable

_QUANTUM_KIND, _TORUS_KIND, _PLUCKER_KIND = 0, 1, 2

Variable = tuple
Monomial = tuple

QUANTUM: Variable = (_QUANTUM_KIND,)


def torus_var(i: int, j: int) -> Variable:
    """The torus coordinate a[i,j]."""
    return (_TORUS_KIND, i, j)


def plucker_var(rows) -> Variable:
    """The Plücker variable indexed by a (canonical) diagram row vector."""
    return (_PLUCKER_KIND, tuple(rows))


def is_quantum(var: Variable) -> bool:
    return var[0] == _QUANTUM_KIND


def is_plucker(var: Variable) -> bool:
    return var[0] == _PLUCKER_KIND


def variable_name(var: Variable) -> str:
    """Render a variable as q, a[i,j] or p[c1,c2,...]."""
    kind = var[0]
    if kind == _QUANTUM_KIND:
        return "q"
    if kind == _TORUS_KIND:
        return f"a[{var[1]},{var[2]}]"
    return "p[" + ",".join(map(str, var[1])) + "]"


def variable_latex(var: Variable) -> str:
    """LaTeX form of a variable; Plücker subscripts are trimmed row tuples."""
    kind = var[0]
    if kind == _QUANTUM_KIND:
        return "q"
    if kind == _TORUS_KIND:
        return f"a_{{{var[1]},{var[2]}}}"
    rows = list(var[1])
    while rows and rows[-1] == 0:
        rows.pop()
    if not rows:
        return r"p_{\varnothing}"
    return "p_{(" + ",".join(map(str, rows)) + ")}"


def _integer(value, what: str) -> int:
    """value itself if it is an int; rounding anything else would lose exactness."""
    if not isinstance(value, int):
        raise TypeError(f"{what} must be an int, got {value!r}")
    return value


def _monomial(exponents: dict) -> Monomial:
    items = []
    for var, exp in exponents.items():
        if _integer(exp, "exponent") == 0:
            continue
        if exp < 0:
            raise ValueError(f"negative exponent {exp} for {variable_name(var)}")
        items.append((var, exp))
    return tuple(sorted(items))


def _merge(m1: Monomial, m2: Monomial) -> Monomial:
    exps = dict(m1)
    for var, exp in m2:
        exps[var] = exps.get(var, 0) + exp
    return tuple(sorted(exps.items()))


def _accumulate(acc: dict, terms: dict) -> None:
    """Add terms into acc in place, dropping cancelled keys (monomials or,
    for the torus module's packed polynomials, packed exponent ints)."""
    for key, coeff in terms.items():
        total = acc.get(key, 0) + coeff
        if total:
            acc[key] = total
        else:
            acc.pop(key, None)


class Polynomial:
    """Immutable sparse polynomial with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[int, dict]] = ()):
        """Build from (coefficient, exponent-dict) pairs; like terms combine."""
        acc: dict = {}
        for coeff, exponents in terms:
            mono = _monomial(exponents)
            acc[mono] = acc.get(mono, 0) + _integer(coeff, "coefficient")
        self._terms = {mono: coeff for mono, coeff in acc.items() if coeff}

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls.from_terms({})

    @classmethod
    def constant(cls, value: int) -> "Polynomial":
        value = _integer(value, "coefficient")
        return cls.from_terms({(): value} if value else {})

    @classmethod
    def one(cls) -> "Polynomial":
        return cls.constant(1)

    @classmethod
    def variable(cls, var: Variable, power: int = 1) -> "Polynomial":
        if _integer(power, "power") < 1:
            raise ValueError(f"power must be >= 1, got {power}")
        return cls.from_terms({((var, power),): 1})

    @classmethod
    def from_terms(cls, terms: dict) -> "Polynomial":
        """Wrap canonical monomials mapped to nonzero coefficients, unchecked."""
        poly = Polynomial.__new__(Polynomial)
        poly._terms = terms
        return poly

    @classmethod
    def term(cls, coeff: int, exponents: dict) -> "Polynomial":
        coeff = _integer(coeff, "coefficient")
        return cls.from_terms({_monomial(exponents): coeff} if coeff else {})

    @staticmethod
    def _coerce(other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, int):
            return Polynomial.constant(other)
        return None

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def __neg__(self) -> "Polynomial":
        return Polynomial.from_terms({m: -c for m, c in self._terms.items()})

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self._terms)
        _accumulate(acc, other._terms)
        return Polynomial.from_terms(acc)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc: dict = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = _merge(m1, m2)
                acc[mono] = acc.get(mono, 0) + c1 * c2
        return Polynomial.from_terms({m: c for m, c in acc.items() if c})

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Polynomial":
        if not isinstance(power, int) or power < 0:
            raise ValueError(f"power must be a nonnegative integer, got {power!r}")
        result = Polynomial.one()
        for _ in range(power):
            result = result * self
        return result

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in the canonical order (lexicographic on sorted monomials)."""
        return sorted(self._terms.items())

    def term_count(self) -> int:
        return len(self._terms)

    def variables(self) -> set:
        return {var for mono in self._terms for var, _ in mono}

    def plucker_degree(self) -> int:
        """Common total degree in Plücker variables.

        Fails on the zero polynomial and on polynomials that are not
        homogeneous in the Plücker variables.
        """
        if not self._terms:
            raise ValueError("zero polynomial has no Plücker degree")
        degrees = {
            sum(exp for var, exp in mono if is_plucker(var)) for mono in self._terms
        }
        if len(degrees) != 1:
            raise ValueError(
                f"not homogeneous in Plücker variables, degrees {sorted(degrees)}"
            )
        return degrees.pop()

    def substitute(self, image: Callable[[Variable], "Polynomial"]) -> "Polynomial":
        """Apply the ring homomorphism sending each variable v to image(v)."""
        total = Polynomial.zero()
        for mono, coeff in self._terms.items():
            piece = Polynomial.constant(coeff)
            for var, exp in mono:
                piece = piece * image(var) ** exp
            total = total + piece
        return total

    def _render(self, namer, times: str, power: str, minus: str) -> str:
        """Terms in canonical order, signs between them, each variable named once.

        ``times`` joins the coefficient and the factors, ``power`` formats a
        name and an exponent above 1, and ``minus`` is the minus sign.
        """
        terms = self.sorted_terms()
        used = {var for mono, _ in terms for var, _ in mono}
        names = {var: namer(var) for var in used}
        chunks = []
        for mono, coeff in terms:
            factors = [
                names[var] if exp == 1 else power.format(names[var], exp)
                for var, exp in mono
            ]
            magnitude = abs(coeff)
            if magnitude != 1 or not factors:
                factors.insert(0, str(magnitude))
            if coeff > 0:
                chunks.append(" + " if chunks else "")
            else:
                chunks.append(f" {minus} " if chunks else minus)
            chunks.append(times.join(factors))
        return "".join(chunks) or "0"

    def to_text(self) -> str:
        """Canonical text form, terms joined by " + " / " − "."""
        return self._render(variable_name, "*", "{}^{}", "−")

    def to_latex(self) -> str:
        """LaTeX form, factors joined by spaces."""
        return self._render(variable_latex, " ", "{}^{{{}}}", "-")

    def to_json_terms(self) -> list[dict]:
        """JSON form: one {coefficient, exponents} record per term."""
        terms = self.sorted_terms()
        used = {var for mono, _ in terms for var, _ in mono}
        names = {var: variable_name(var) for var in used}
        return [
            {"coefficient": coeff, "exponents": {names[var]: exp for var, exp in mono}}
            for mono, coeff in terms
        ]

    def to_json(self) -> str:
        """JSON text of to_json_terms."""
        return json.dumps(self.to_json_terms())

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Polynomial<{self.to_text()}>"


class RationalExpression:
    """Unreduced quotient of two polynomials.

    No GCD cancellation ever happens; equality means equality of the cross
    products numerator*other.denominator and other.numerator*denominator.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator=1):
        numerator = Polynomial._coerce(numerator)
        denominator = Polynomial._coerce(denominator)
        if numerator is None or denominator is None:
            raise TypeError("numerator and denominator must be polynomials or ints")
        if not denominator:
            raise ZeroDivisionError("denominator is zero")
        self.numerator = numerator
        self.denominator = denominator

    def __eq__(self, other) -> bool:
        if isinstance(other, (Polynomial, int)):
            other = RationalExpression(other)
        if not isinstance(other, RationalExpression):
            return NotImplemented
        return self.numerator * other.denominator == other.numerator * self.denominator

    __hash__ = None

    def __add__(self, other) -> "RationalExpression":
        if isinstance(other, (Polynomial, int)):
            other = RationalExpression(other)
        if not isinstance(other, RationalExpression):
            return NotImplemented
        return RationalExpression(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    __radd__ = __add__

    def __mul__(self, other) -> "RationalExpression":
        if isinstance(other, (Polynomial, int)):
            other = RationalExpression(other)
        if not isinstance(other, RationalExpression):
            return NotImplemented
        return RationalExpression(
            self.numerator * other.numerator, self.denominator * other.denominator
        )

    __rmul__ = __mul__

    def to_text(self) -> str:
        return f"({self.numerator.to_text()}) / ({self.denominator.to_text()})"

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"RationalExpression<{self.to_text()}>"
