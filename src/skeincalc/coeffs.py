"""Exact coefficient arithmetic over the ring Z[t, t^-1], and the sparse kernel.

Everything downstream (Chebyshev bases, handlebody skeins, torus-knot
reductions, quantum-torus operators) is linear over Laurent polynomials in a
single variable t with arbitrary-precision integer coefficients.

Every element type of the package is a :class:`Sparse` combination: a dict
from an int key or int tuple to a nonzero coefficient.  The kernel
implements, once, accumulation with pruning (:func:`add_into`), addition,
negation, subtraction, equality, the JSON form (context fields, then term
rows) and ``*``, which scales every coefficient by an int or a LaurentPoly.
Each type adds only its key validation and the context two operands must
share.  :func:`_grouped` is the one step from the library's flat int tables
to element terms.  :class:`LaurentPoly`, Z[t, t^-1] with int coefficients,
is the ground ring of every other type, and the one type whose ``*`` also
multiplies two of its elements.

All types are canonical (zero coefficients are pruned eagerly), immutable by
convention, and compare by structural equality; comparing, like combining,
elements of different contexts raises ValueError.  Python integers never
overflow.  Inputs are checked, never coerced: a non-int exponent or integer
coefficient raises TypeError, and :func:`as_laurent` is the one place an int
becomes a LaurentPoly.

JSON forms use decimal strings for integer coefficients and sorted term lists,
so they are deterministic and lose no digit in any JSON parser:

    LaurentPoly  {"t": [[exp, "coeff"], ...]}   ascending exp
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


class Sparse:
    """A finite combination of keys with nonzero coefficients.

    Subclasses validate keys in ``_key``, check or coerce coefficients in
    ``_coeff`` (by default through :func:`as_laurent`) and print a key's
    monomial in ``_monomial``.  A type whose operands must agree on more than
    the key space (a basis, a knot) names those fields in ``_CONTEXT``, takes
    them first in its constructor, and stores their values as the tuple
    ``_ctx`` in a slot of its own.
    """

    __slots__ = ("terms",)
    _CONTEXT: tuple[str, ...] = ()

    def __init__(self, terms: Mapping | None = None):
        clean = {}
        for key, c in (terms or {}).items():
            key, c = self._key(key), self._coeff(c)
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
        """self with every coefficient times an int or LaurentPoly."""
        if other.__class__ is not LaurentPoly and not isinstance(other, int):
            return NotImplemented
        # All coefficient rings here are integral domains, so a product of
        # nonzero factors is nonzero and only a zero scalar needs pruning.
        if not other:
            return self._like({})
        return self._like({k: c * other for k, c in self.terms.items()})

    __rmul__ = __mul__

    def _json_rows(self) -> list:
        """The terms as rows [*key, coeff] in key order, coefficients as JSON."""
        return [[*(k if isinstance(k, tuple) else (k,)),
                 str(c) if isinstance(c, int) else c.to_json()]
                for k, c in sorted(self.terms.items())]

    def to_json(self) -> dict:
        """The context fields by name, an enum by its value, then "terms"."""
        ctx = zip(self._CONTEXT, self._ctx) if self._CONTEXT else ()
        return {**{name: getattr(v, "value", v) for name, v in ctx}, "terms": self._json_rows()}

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

    def __mul__(self, other):
        """The ring product with a LaurentPoly: exponents add; an int scales."""
        if other.__class__ is not LaurentPoly:
            return Sparse.__mul__(self, other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                add_into(out, e1 + e2, c1 * c2)
        return self._like(out)

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
            sign = ("+ " if c > 0 else "- ") if parts else ("" if c > 0 else "-")
            parts.append(sign + body)
        return " ".join(parts)


_poly = LaurentPoly()._like  # a LaurentPoly of canonical int terms, unchecked


def _grouped(table: Mapping[tuple[int, ...], int]) -> dict:
    """The terms {key: LaurentPoly} of a flat int table (*key, e) -> c for c t^e
    at key: zero entries dropped, keys in the order of their first nonzero one."""
    grouped: dict = {}
    for key, c in table.items():
        if c:
            grouped.setdefault(key[:-1], {})[key[-1]] = c
    return {key: _poly(cs) for key, cs in grouped.items()}


def as_laurent(c: LaurentPoly | int) -> LaurentPoly:
    """c as a ground-ring coefficient: an int becomes a constant, others raise TypeError."""
    return c if c.__class__ is LaurentPoly else LaurentPoly({0: c})
