"""Exact coefficient arithmetic over the ring Z[t, t^-1], and the sparse kernel.

Everything downstream (Chebyshev bases, handlebody skeins, torus-knot
reductions, quantum-torus operators) is linear over Laurent polynomials in a
single variable t with arbitrary-precision integer coefficients.

Every element type of the package is a :class:`Sparse` combination: a dict
from key to nonzero coefficient.  The kernel implements, once, accumulation
with pruning (:func:`add_into`), addition, negation, subtraction, scaling,
equality, the JSON term rows and the one ``*``: a peer by the type's
product rule, an int or LaurentPoly by scaling.  Each type adds only its key
validation, the context two operands must share, and its product rule, if it
has one, as ``_product``.  Two types live here:

* :class:`LaurentPoly` -- Z[t, t^-1], the ground ring (int coefficients).
* :class:`AuxLaurent`  -- Laurent polynomials in one auxiliary variable over
                          the ground ring: the x-coefficients of quantum-torus
                          operators.

All types are canonical (zero coefficients are pruned eagerly), immutable by
convention, and compare by structural equality; comparing, like combining,
elements of different contexts raises ValueError.  Python integers never
overflow.  Inputs are checked, never coerced: a non-int exponent or integer
coefficient raises TypeError, and :func:`as_laurent` is the one place an int
becomes a LaurentPoly.

JSON forms use decimal strings for integer coefficients and sorted term lists,
so they are deterministic and lose no digit in any JSON parser:

    LaurentPoly  {"t": [[exp, "coeff"], ...]}   ascending exp
    AuxLaurent   [[exp, {laurent}], ...]        ascending exp
"""

from __future__ import annotations

from typing import Mapping


def add_into(out: dict, key, c) -> None:
    """out[key] += c, dropping the key when the sum is zero."""
    s = out.get(key)
    if s is None:
        if c:
            out[key] = c
    else:
        s = s + c
        if s:
            out[key] = s
        else:
            del out[key]


def check_int(v) -> int:
    """v itself when it is an int (bool counts as one); TypeError otherwise."""
    if not isinstance(v, int):
        raise TypeError(f"expected an int, got {v!r}")
    return int(v)


def check_key(key, width: int) -> tuple[int, ...]:
    """key when it is a tuple of `width` ints; TypeError otherwise."""
    if not isinstance(key, tuple) or len(key) != width:
        raise TypeError(f"expected a key of {width} ints, got {key!r}")
    return tuple(check_int(i) for i in key)


def _laurent_product(a: Sparse, b: Sparse) -> Sparse:
    """The product rule of LaurentPoly and AuxLaurent: exponents add."""
    out: dict = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            add_into(out, e1 + e2, c1 * c2)
    return a._like(out)


class Sparse:
    """A finite combination of keys with nonzero coefficients.

    Subclasses validate keys in ``_key``, check or coerce coefficients in
    ``_coeff`` (by default through :func:`as_laurent`), print a key's
    monomial in ``_monomial``, and may name their product rule ``_product``.
    A type whose operands must agree on more than the key space (a basis, a
    knot) names those fields in ``_CONTEXT``, takes them first in its
    constructor, and stores their values as the tuple ``_ctx`` in a slot of
    its own.
    """

    __slots__ = ("terms",)
    _CONTEXT: tuple[str, ...] = ()
    _product = None

    def __init__(self, terms: Mapping | None = None):
        clean = {}
        for key, c in (terms or {}).items():
            key = self._key(key)
            c = self._coeff(c)
            if c:
                clean[key] = c
        self.terms = clean

    @staticmethod
    def _coeff(c):
        return as_laurent(c)

    def _like(self, terms: dict) -> Sparse:
        """An element of self's type and context holding the canonical terms."""
        res = object.__new__(self.__class__)
        res.terms = terms
        if self._CONTEXT:
            res._ctx = self._ctx
        return res

    def _peer(self, other) -> Sparse | None:
        """other as an operand of self's kind, or None; ValueError if contexts differ."""
        if other.__class__ is not self.__class__:
            return None
        if self._CONTEXT and self._ctx != other._ctx:
            raise ValueError(f"cannot combine {self.__class__.__name__} elements with "
                             f"different {'/'.join(self._CONTEXT)}: {self._ctx} vs {other._ctx}")
        return other

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        other = self._peer(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        other = self._peer(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_into(out, k, c)
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._peer(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._peer(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        """self times a peer by the type's _product; an int or LaurentPoly scales."""
        if other.__class__ is self.__class__ and self._product is not None:
            return self._product(self._peer(other))
        if other.__class__ is LaurentPoly or isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, s):
        """Every coefficient times the scalar s.

        All coefficient rings here are integral domains, so a product of
        nonzero factors is nonzero and only s = 0 needs pruning.
        """
        if not s:
            return self._like({})
        return self._like({k: c * s for k, c in self.terms.items()})

    def _json_rows(self) -> list:
        """The terms as rows [*key, coeff] in key order, coefficients as JSON."""
        return [[*(k if isinstance(k, tuple) else (k,)),
                 str(c) if isinstance(c, int) else c.to_json()]
                for k, c in sorted(self.terms.items())]

    def to_json(self) -> dict:
        return {"terms": self._json_rows()}

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({c}){self._monomial(k)}" for k, c in sorted(self.terms.items()))

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}('{self}')"


class LaurentPoly(Sparse):
    """A Laurent polynomial in t with integer coefficients.

    Terms are held as a dict mapping exponent to nonzero coefficient.

    >>> p = LaurentPoly({4: -1, -2: 3})
    >>> str(p)
    '3*t^-2 - t^4'
    >>> str(p * p)
    '9*t^-4 - 6*t^2 + t^8'
    """

    __slots__ = ()

    _key = _coeff = staticmethod(check_int)

    def _peer(self, other) -> LaurentPoly | None:
        if other.__class__ is LaurentPoly:
            return other
        return LaurentPoly({0: other}) if isinstance(other, int) else None

    def __hash__(self):
        # equal to an int when constant, so hash like that int (zero as 0)
        if self.terms.keys() <= {0}:
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    _product = _laurent_product

    def to_json(self) -> dict:
        return {"t": self._json_rows()}

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items()):
            if e == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                body = f"{mag}t^{e}" if e != 1 else f"{mag}t"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def as_laurent(c: LaurentPoly | int) -> LaurentPoly:
    """c as a ground-ring coefficient: an int becomes a constant, others raise TypeError."""
    return c if c.__class__ is LaurentPoly else LaurentPoly({0: c})


def t(exp: int, coeff: int = 1) -> LaurentPoly:
    """Shorthand for the monomial coeff * t^exp."""
    return LaurentPoly({exp: coeff})


class AuxLaurent(Sparse):
    """A Laurent polynomial in one auxiliary variable over Z[t, t^-1].

    Keys are integer exponents; values are nonzero LaurentPoly coefficients.
    """

    __slots__ = ()

    _key = staticmethod(check_int)
    _product = _laurent_product

    def to_json(self) -> list:
        return self._json_rows()

    @staticmethod
    def _monomial(e: int) -> str:
        return f"*x^{e}" if e else ""

