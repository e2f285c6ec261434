"""Exact discrete probability: spaces, states, predicates, channels.

A *state* is a probability distribution with exact rational weights over a
named finite space, written as a ket sum such as ``1/100|d> + 99/100|~d>``.
A *predicate* assigns each element a rational truth value in [0, 1] (soft
evidence); events are the {0, 1}-valued special case.  A *channel* maps
each element of a domain space to a state on a codomain space, i.e. it is
a conditional probability table / stochastic matrix.

Every value is an exact rational end to end.  Floats are rejected at the
boundary: the point of the library is that results like 117/2000 are exact,
and no binary floating-point value may enter the pipeline.  What a value is
never changes after construction, so values can be shared freely across
threads; the one thing written later is a kernel result's Fraction map, a
write-once cache (two threads that read it first build equal maps).

Weight maps are total: every element of the space has an entry, and zero
weights are stored rather than dropped.  Iteration always follows the
space's element order, which makes rendering and CSV output deterministic.

Representation: ``Fraction`` at the API, integers inside.  A state and a
predicate are the same kind of object, a [0, 1]-valued function on a space,
and share one implementation, the private base ``_UnitValued``; a state's
values (``weights``) must also sum to 1, a predicate's (``values``) need
not.  The value is its integer form: one numerator per element in space
order over one shared denominator, reduced (the lcm of the fractions'
denominators, so the form is canonical, and equality compares it).  Its
read-only map of reduced fractions is a view of that form.  A value built
from fractions keeps the map it was given; a kernel's result holds only
its integer form, and builds its map when it is first read, once.  A
channel lazily puts its rows over one common denominator.  The kernels
multiply and add these integers and read integers, so a result that only
feeds the next kernel, or an equality test, never becomes a ``Fraction``;
rendering reduces each entry it prints.  There is one validation layer,
the base's ``_check_numerators``, on the integer form: the public
constructors put their fractions over the lcm and call it, and the
kernels' results pass through it by way of the private ``_from_integers``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from types import MappingProxyType
from typing import ClassVar, Optional, Union
from weakref import WeakValueDictionary

from .errors import (
    DuplicateElement,
    MissingRow,
    NotAProductSpace,
    NumberTooLarge,
    SpaceMismatch,
    UnknownElement,
    ValueOutOfRange,
    WeightSumNotOne,
    ZeroValidity,
)

# Elements are identifiers; product-space elements are pairs (nested for
# iterated products).
Element = Union[str, tuple]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(value: Union[Fraction, int, str]) -> Fraction:
    """Coerce to an exact rational.

    Accepts Fraction, int, and strings like ``"1/2"`` or ``"0.25"``
    (decimal strings convert exactly, so ``"0.1"`` becomes 1/10, not the
    nearest double).  Floats are rejected outright.
    """
    if type(value) is Fraction:  # immutable: the value itself will do
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(
            f"exact rational required, got {type(value).__name__} {value!r}; "
            "pass a Fraction, int, or string literal"
        )
    return Fraction(value)


# ---------------------------------------------------------------------------
# spaces


@dataclass(frozen=True)
class Space:
    """A named finite sample space with a fixed element order."""

    name: str
    elements: tuple[Element, ...]
    _members: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if len(self.elements) == 0:
            raise ValueError(f"space {self.name!r} needs at least one element")
        members = frozenset(self.elements)
        if len(members) != len(self.elements):
            raise DuplicateElement(f"space {self.name!r} has repeated elements")
        object.__setattr__(self, "_members", members)

    def __contains__(self, element: Element) -> bool:
        return element in self._members

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def require(self, element: Element) -> None:
        if element not in self._members:
            raise UnknownElement(
                f"{render_element(element)!r} is not an element of space {self.name!r}",
                element=element, space=self,
            )

    def __repr__(self) -> str:
        return f"Space({self.name!r}, {{{', '.join(render_element(x) for x in self.elements)}}})"


@dataclass(frozen=True, repr=False)
class ProductSpace(Space):
    """Binary product of two spaces; elements are pairs in left-major order.

    n-ary products are built by nesting left-associatively.  The name is
    derived from the factors, so two products of equal factors are equal.
    """

    left: Space
    right: Space

    def __repr__(self) -> str:
        return f"ProductSpace({self.left.name!r} * {self.right.name!r})"


def _require_same_space(a: Space, b: Space, what: str) -> None:
    if a is not b and a != b:
        raise SpaceMismatch(f"{what}: space {a.name!r} is not space {b.name!r}")


# ---------------------------------------------------------------------------
# states and predicates


@dataclass(frozen=True, eq=False, repr=False)
class _UnitValued:
    """An exact [0, 1]-valued function on a space: the one implementation
    of State and Predicate, which differ only in what their entries are
    called and in whether those must sum to 1.  Unhashable."""

    space: Space
    # integer form: entries[x] == _nums[i] / _den, in space order
    _nums: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _den: int = field(init=False, repr=False, compare=False)

    _entries: ClassVar[str]  # the field holding the Fraction map
    _word: ClassVar[str]  # what errors call one entry
    _sums_to_one: ClassVar[bool]

    def __post_init__(self):
        """Validate a public construction: known elements and Fraction
        entries, put over the lcm of their denominators and checked as
        integers.

        Membership is one subset test; only when it fails are the entries
        walked for it, so the first faulty entry still decides the error."""
        space, entries = self.space, getattr(self, self._entries)
        known = space._members.issuperset(entries)
        for x, w in entries.items():
            if not known:
                space.require(x)
            if not isinstance(w, Fraction):
                raise TypeError(
                    f"{self._word} at {render_element(x)} is not a Fraction"
                )
        full = [entries.get(x, ZERO) for x in space.elements]
        den = lcm(*(w.denominator for w in full))
        nums = tuple(w.numerator * (den // w.denominator) for w in full)
        self._check_numerators(space, nums, den)
        full_map = MappingProxyType(dict(zip(space.elements, full)))
        object.__setattr__(self, self._entries, full_map)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _check_numerators(cls, space: Space, nums: Sequence[int], den: int) -> None:
        """The one validation, on the integer form: every nums[i] / den must
        lie in [0, 1], and a state's numerators must sum to den.  The
        elements are walked only to name a fault."""
        if min(nums) < 0 or max(nums) > den:
            for x, k in zip(space.elements, nums):
                if k < 0 or k > den:
                    raise ValueOutOfRange(
                        f"{cls._word} {Fraction(k, den)} at {render_element(x)} "
                        "lies outside [0, 1]",
                        element=x,
                    )
        if cls._sums_to_one:
            total = sum(nums)
            if total != den:
                raise WeightSumNotOne(
                    f"weights sum to {Fraction(total, den)}, expected 1"
                )

    @classmethod
    def _from_integers(cls, space: Space, nums: Sequence[int], den: int):
        """The value with entries nums[i] / den (den > 0), validated and
        reduced once.  It holds only its integer form: its Fraction map is
        built when it is first read."""
        cls._check_numerators(space, nums, den)
        g = gcd(den, *nums)
        if g != 1:
            nums, den = [k // g for k in nums], den // g
        value = object.__new__(cls)
        value.__dict__.update({"space": space, "_nums": tuple(nums), "_den": den})
        return value

    def __getattr__(self, name):
        """The Fraction map, built from the integer form on its first read
        and kept; runs only while the map is missing, which it is for a
        kernel result until read."""
        if name != self._entries:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        den = self._den
        entries = MappingProxyType({
            x: Fraction(k, den) if k else ZERO
            for x, k in zip(self.space.elements, self._nums)
        })
        self.__dict__[name] = entries
        return entries

    def __getstate__(self):
        """Copy and pickle the space and integer form, never the map (a
        MappingProxyType cannot be pickled): it is built again on read."""
        return {k: v for k, v in self.__dict__.items() if k != self._entries}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._den, self._nums, self.space) == (
            other._den, other._nums, other.space
        )

    def __call__(self, element: Element) -> Fraction:
        self.space.require(element)
        return getattr(self, self._entries)[element]

    def items(self) -> Iterator[tuple[Element, Fraction]]:
        return iter(getattr(self, self._entries).items())

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self} on {self.space.name!r}>"


@dataclass(frozen=True, eq=False, repr=False)
class State(_UnitValued):
    """A distribution on a space: exact weights in [0, 1] summing to 1."""

    weights: Mapping[Element, Fraction]

    _entries, _word, _sums_to_one = "weights", "weight", True

    def support(self) -> tuple[Element, ...]:
        return tuple(x for x, k in zip(self.space.elements, self._nums) if k)

    def __str__(self) -> str:
        return render_state(self)


@dataclass(frozen=True, eq=False, repr=False)
class Predicate(_UnitValued):
    """A fuzzy predicate: each element gets a truth value in [0, 1]."""

    values: Mapping[Element, Fraction]

    _entries, _word, _sums_to_one = "values", "value", False

    def __str__(self) -> str:
        return render_predicate(self)


def _listing(space: Space, listing, label: str, entry) -> dict:
    """A listing, (key, value) pairs or a mapping, as a dict in listing
    order: each key is required in ``space`` and rejected as ``label`` when
    listed twice, before ``entry`` converts its value."""
    if isinstance(listing, Mapping):
        listing = listing.items()
    out = {}
    for x, value in listing:
        space.require(x)
        if x in out:
            raise DuplicateElement(
                f"{label} {render_element(x)} listed twice", element=x
            )
        out[x] = entry(value)
    return out


def make_state(space: Space, weights) -> State:
    """Build a state from (element, weight) pairs or a mapping.

    Unlisted elements get weight 0.  Raises UnknownElement,
    DuplicateElement, ValueOutOfRange, or WeightSumNotOne.
    """
    return State(space, _listing(space, weights, "state: element", as_fraction))


def make_predicate(space: Space, values) -> Predicate:
    """Build a predicate from (element, value) pairs or a mapping; unlisted
    elements get value 0."""
    return Predicate(
        space, _listing(space, values, "predicate: element", as_fraction)
    )


def point_mass(space: Space, element: Element) -> State:
    """The Dirac state 1|element>."""
    return State(space, {element: ONE})


def uniform_state(space: Space) -> State:
    n = len(space)
    return State(space, {x: Fraction(1, n) for x in space.elements})


# ---------------------------------------------------------------------------
# predicate algebra


def truth(space: Space) -> Predicate:
    """The constantly-1 predicate."""
    return Predicate(space, {x: ONE for x in space.elements})


def point(space: Space, element: Element) -> Predicate:
    """The point predicate 1_y: 1 at the given element, 0 elsewhere."""
    return Predicate(space, {element: ONE})


def indicator(space: Space, subset: Iterable[Element]) -> Predicate:
    """The sharp indicator 1_E of an event (a subset of the space)."""
    return Predicate(space, dict.fromkeys(subset, ONE))


def conjunction(p: Predicate, q: Predicate) -> Predicate:
    """Pointwise product p & q."""
    _require_same_space(p.space, q.space, "conjunction")
    return Predicate._from_integers(
        p.space, list(map(mul, p._nums, q._nums)), p._den * q._den
    )


def scale(s, p: Predicate) -> Predicate:
    """The scalar multiple s . p for s in [0, 1]."""
    s = as_fraction(s)
    if s < 0 or s > 1:
        raise ValueOutOfRange(f"scalar {s} lies outside [0, 1]")
    return Predicate._from_integers(
        p.space, [s.numerator * k for k in p._nums], s.denominator * p._den
    )


# ---------------------------------------------------------------------------
# channels


@dataclass(frozen=True)
class Channel:
    """A stochastic map: one state on the codomain per domain element."""

    domain: Space
    codomain: Space
    rows: Mapping[Element, State]
    # (row numerators, L / row denominator per row, L), filled on first use
    _common: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not self.domain._members.issuperset(self.rows):
            for x in self.rows:  # only to find the first unknown key
                self.domain.require(x)
        for x in self.domain.elements:
            row = self.rows.get(x)
            if row is None:
                raise MissingRow(
                    f"channel has no row for {render_element(x)} "
                    f"in domain {self.domain.name!r}", element=x,
                )
            _require_same_space(row.space, self.codomain, "channel row")
        object.__setattr__(
            self,
            "rows",
            MappingProxyType({x: self.rows[x] for x in self.domain.elements}),
        )

    def __reduce__(self):
        """Copy and pickle by the public constructor, from the rows (a
        MappingProxyType cannot be pickled); ``_common`` is rebuilt on use."""
        return Channel, (self.domain, self.codomain, dict(self.rows))

    def __call__(self, element: Element) -> State:
        self.domain.require(element)
        return self.rows[element]

    def _integer_rows(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int]:
        """The rows over one common denominator L, in domain order.

        Row x is kept as its own numerators b_x over its denominator B_x,
        with the scale L / B_x, so c(x)(y) = b_x[y] * (L / B_x) / L.
        """
        if self._common is None:
            rows = self.rows.values()
            big = lcm(*(row._den for row in rows))
            common = (
                tuple(row._nums for row in rows),
                tuple(big // row._den for row in rows),
                big,
            )
            object.__setattr__(self, "_common", common)
        return self._common

    @property
    def is_deterministic(self) -> bool:
        """True when every row is a point mass (the channel lifts a function)."""
        return all(max(row._nums) == row._den for row in self.rows.values())

    def __str__(self) -> str:
        return render_channel(self)

    def __repr__(self) -> str:
        return f"<Channel {self.domain.name!r} -> {self.codomain.name!r}>"


def make_channel(domain: Space, codomain: Space, rows) -> Channel:
    """Build a channel from a mapping or pairs element -> State or listing."""
    return Channel(domain, codomain, _listing(
        domain, rows, "channel: row for",
        lambda row: row if isinstance(row, State) else make_state(codomain, row),
    ))


def identity_channel(space: Space) -> Channel:
    """The Dirac channel x -> 1|x>."""
    return Channel(space, space, {x: point_mass(space, x) for x in space.elements})


def lift_function(domain: Space, codomain: Space, f) -> Channel:
    """Turn a total function, a mapping or (source, target) pairs checked
    in turn, into a deterministic channel."""
    rows = _listing(
        domain, f, "function: mapping for", lambda y: point_mass(codomain, y)
    )
    for x in domain.elements:
        if x not in rows:
            raise UnknownElement(
                f"function is not total: no value for {render_element(x)}", element=x
            )
    return Channel(domain, codomain, rows)


# ---------------------------------------------------------------------------
# the transformation calculus

# The most bits a kernel lets a product of two exact numbers have, counted
# before it multiplies as the sum of the two denominators' bit lengths
# (every numerator is at most its denominator).  A dense 150 x 150 round
# (state_transform, pearl_update, dagger and jeffrey_update, numerators
# 1..20 normalised) checks sums of at most 657 bits, and its largest number,
# the common row denominator of the inverted channel, has 96,313 bits: the
# limit is about eleven times that.  A channel composed with itself doubles
# its bit length: the 17th such link has 575,709-bit row denominators (0.3 s,
# CPython 3.11 on a 2-vCPU VM) and the 18th is refused.
MAX_BITS = 2**20


def _require_bits(a: int, b: int) -> None:
    """NumberTooLarge when numbers over the denominators ``a`` and ``b``
    would multiply to more than ``MAX_BITS`` bits."""
    bits = a.bit_length() + b.bit_length()
    if bits > MAX_BITS:
        raise NumberTooLarge(
            f"a number would have up to {bits} bits, more than {MAX_BITS}"
        )


# Most elements a product space may have: one of 2**16 pairs takes about
# 25 ms and 7 MiB to build, one of 2**20 half a second and 120 MiB.
MAX_PRODUCT = 2**16

# The product space of each pair of live factor objects, keyed by their ids:
# an entry lives only as long as its space, which holds both factors, so no
# id is reused meanwhile.  Threads that race may each build an equal space.
_products: WeakValueDictionary = WeakValueDictionary()


def product_space(left: Space, right: Space) -> ProductSpace:
    """The product space, elements (l, r) in left-major order: one object per
    pair of factor objects, refused unbuilt past ``MAX_PRODUCT`` elements."""
    space = _products.get((id(left), id(right)))
    if space is None:
        size = len(left) * len(right)
        if size > MAX_PRODUCT:
            raise SpaceMismatch(
                f"product space would have {size} elements, more than {MAX_PRODUCT}"
            )
        elements = tuple((l, r) for l in left.elements for r in right.elements)
        space = _products[id(left), id(right)] = ProductSpace(
            name=f"{left.name}*{right.name}", elements=elements, left=left, right=right
        )
    return space


def _joint(c: Channel, sigma: State) -> tuple[list[int], tuple, int]:
    """The joint sigma(x) * c(x)(y) as w[x] * rows[x][y] / den, in integers.

    w[x] = a_x * L / B_x puts the prior numerators onto the channel's common
    row denominator L, so every cell shares den = A * L.
    """
    rows, scales, big = c._integer_rows()
    _require_bits(sigma._den, big)
    return list(map(mul, sigma._nums, scales)), rows, sigma._den * big


def _predicted(w: Sequence[int], rows) -> list[int]:
    """T[y] = sum_x w[x] * rows[x][y]: the prediction's numerators over A * L."""
    return [sum(map(mul, w, column)) for column in zip(*rows)]


def _pulled_back(w: Sequence[int], rows, q: Sequence[int]) -> list[int]:
    """w[x] * sum_y rows[x][y] * q[y], for each x."""
    return [wx * sum(map(mul, row, q)) for wx, row in zip(w, rows)]


def _normalised(space: Space, nums: Sequence[int]) -> State:
    """The state proportional to nonnegative numerators: one normalisation."""
    total = sum(nums)
    if total == 0:
        raise ZeroValidity("cannot condition: predicate has validity 0")
    return State._from_integers(space, nums, total)


def state_transform(c: Channel, sigma: State) -> State:
    """Push a state forward through a channel (prediction): c >> sigma."""
    _require_same_space(sigma.space, c.domain, "state transformation")
    w, rows, den = _joint(c, sigma)
    return State._from_integers(c.codomain, _predicted(w, rows), den)


def predicate_transform(c: Channel, q: Predicate) -> Predicate:
    """Pull a predicate backward through a channel: c << q."""
    _require_same_space(q.space, c.codomain, "predicate transformation")
    rows, scales, big = c._integer_rows()
    _require_bits(big, q._den)
    return Predicate._from_integers(
        c.domain, _pulled_back(scales, rows, q._nums), big * q._den
    )


def validity(sigma: State, p: Predicate) -> Fraction:
    """The expected value of p in sigma: sigma |= p."""
    _require_same_space(sigma.space, p.space, "validity")
    _require_bits(sigma._den, p._den)
    return Fraction(sum(map(mul, sigma._nums, p._nums)), sigma._den * p._den)


def condition(sigma: State, p: Predicate) -> State:
    """The updated state sigma|_p; undefined when sigma |= p is 0."""
    _require_same_space(sigma.space, p.space, "validity")
    _require_bits(sigma._den, p._den)
    return _normalised(sigma.space, list(map(mul, sigma._nums, p._nums)))


def compose(d: Channel, c: Channel) -> Channel:
    """Sequential composition (d after c): (d . c)(x) = d >> c(x)."""
    _require_same_space(c.codomain, d.domain, "channel composition")
    return Channel(
        c.domain, d.codomain, {x: state_transform(d, c.rows[x]) for x in c.domain}
    )


def product_state(sigma: State, omega: State) -> State:
    """The independent product on the product space: weight sigma(x)*omega(y)."""
    _require_bits(sigma._den, omega._den)
    return State._from_integers(
        product_space(sigma.space, omega.space),
        [a * b for a in sigma._nums for b in omega._nums],
        sigma._den * omega._den,
    )


def marginal(tau: State, which: str) -> State:
    """First or second marginal of a state on a binary product space."""
    if not isinstance(tau.space, ProductSpace):
        raise NotAProductSpace(
            f"marginal needs a product-space state, got space {tau.space.name!r}"
        )
    if which not in ("first", "second"):
        raise ValueError(f"which must be 'first' or 'second', got {which!r}")
    pick = 0 if which == "first" else 1
    target = tau.space.left if which == "first" else tau.space.right
    sums = dict.fromkeys(target.elements, 0)
    for pair, k in zip(tau.space.elements, tau._nums):
        sums[pair[pick]] += k
    return State._from_integers(target, list(sums.values()), tau._den)


# ---------------------------------------------------------------------------
# rendering (the canonical golden-test representation)


# Below this an integer prints with str(): under CPython's int/str limit
# (4300 digits by default), which stays in force because it guards parsing.
_SMALL = 10**4000
# Bit-length at which the divide-and-conquer printing stops splitting.
_SPLIT_BITS = 128


def _int_text(n: int) -> str:
    """Decimal text of an integer of any size.

    Past ``_SMALL`` the integer is converted to an exact ``decimal.Decimal``
    by divide and conquer, as CPython 3.12's ``_pylong.int_to_decimal`` does:
    the high half of its bits times a power of two plus the low half, each
    power of two computed once.  ``decimal`` multiplies large numbers in
    subquadratic time, so printing a million digits takes under a second,
    where dividing off fixed-size chunks takes time quadratic in the digits.
    """
    if -_SMALL < n < _SMALL:
        return str(n)
    import decimal  # only here: no import cost for ordinary numbers

    two = decimal.Decimal(2)
    powers: dict[int, decimal.Decimal] = {}

    def power(w: int) -> decimal.Decimal:
        """2**w, kept: the same exponents recur at every level."""
        result = powers.get(w)
        if result is None:
            if w <= _SPLIT_BITS:
                result = two**w
            elif w - 1 in powers:
                result = powers[w - 1] * 2
            else:  # the smaller half first, so the larger hits ``w - 1``
                result = power(w >> 1) * power(w - (w >> 1))
            powers[w] = result
        return result

    def convert(k: int, w: int) -> decimal.Decimal:
        """k, of at most w bits, as a Decimal."""
        if w <= _SPLIT_BITS:
            return decimal.Decimal(k)
        half = w >> 1
        high = k >> half
        return convert(k - (high << half), half) + convert(high, w - half) * power(half)

    with decimal.localcontext() as ctx:  # exact: any rounding would trap
        ctx.prec, ctx.Emax, ctx.Emin = decimal.MAX_PREC, decimal.MAX_EMAX, decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        text = str(convert(abs(n), abs(n).bit_length()))
    return "-" + text if n < 0 else text


def render_fraction(q: Fraction) -> str:
    """``1/2`` style; whole numbers render bare (``0``, ``1``)."""
    if q.denominator == 1:
        return _int_text(q.numerator)
    return f"{_int_text(q.numerator)}/{_int_text(q.denominator)}"


def render_decimal(q: Fraction, digits: int) -> str:
    """Exact round-half-even rendering of a rational to fixed decimals."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    scaled = round(q * Fraction(10) ** digits)  # Fraction round: ties to even
    sign = "-" if scaled < 0 else ""
    text = _int_text(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def render_element(x: Element) -> str:
    """Flatten (nested) pair elements with commas: ('b','e') -> ``b,e``."""
    if isinstance(x, tuple):
        return ",".join(render_element(part) for part in x)
    return str(x)


def render_state(
    sigma: State, show_zeros: bool = False, decimal: int | None = None
) -> str:
    """Ket-sum text like ``1/100|d> + 99/100|~d>`` in space element order."""
    fmt = (lambda w: render_decimal(w, decimal)) if decimal else render_fraction
    terms = [
        f"{fmt(w)}|{render_element(x)}>"
        for x, w in sigma.weights.items()
        if show_zeros or w != 0
    ]
    return " + ".join(terms)


def render_predicate(p: Predicate, decimal: int | None = None) -> str:
    fmt = (lambda v: render_decimal(v, decimal)) if decimal else render_fraction
    inner = ", ".join(
        f"{render_element(x)}: {fmt(v)}" for x, v in p.values.items()
    )
    return "{" + inner + "}"


def render_channel(c: Channel, decimal: int | None = None) -> str:
    return "\n".join(
        f"{render_element(x)} -> {render_state(row, decimal=decimal)}"
        for x, row in c.rows.items()
    )
