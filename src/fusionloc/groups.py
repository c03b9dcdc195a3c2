"""Exact arithmetic for small finite groups.

Elements are dense integer indices ``0..order-1`` with ``0`` the identity.
Every group carries a full multiplication table (orders are capped, 5040 by
default, so table lookup is always affordable) and optionally a faithful
permutation representation used for input, output and labelling.

Subgroups are bitmasks over element indices: bit ``i`` set means element ``i``
is a member.  The canonical order on subgroups is the mask value read as an
integer, ascending; every deterministic tie-break in the package uses it.

The multiplication convention is left-to-right: ``mul(a, b)`` means "apply a,
then b" when elements act as permutations, and ``conj(x, g) = g^-1 x g``.
"""

from __future__ import annotations

import json
import random
import sys
from array import array
from dataclasses import dataclass, field
from itertools import islice, product
from math import gcd, isqrt
from operator import itemgetter
from struct import Struct
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import (
    FusionlocError,
    InvalidPermutation,
    NotASubgroup,
    NotNormal,
    OrderBoundExceeded,
    ParseError,
    VerificationFailed,
)

DEFAULT_ORDER_BOUND = 5040
ORDER_BOUND_ENV = "FUSIONLOC_ORDER_BOUND"
# Largest Cayley table an order bound may admit: 4 bytes per entry, so the
# order is at most isqrt(MAX_TABLE_BYTES // 4) = 8192 (the default 5040 needs
# about 100 MB, and M11 at order 7920 still fits).
MAX_TABLE_BYTES = 256 * 2**20

Perm = tuple  # 0-based image tuple


def order_bound() -> int:
    import os

    raw = os.environ.get(ORDER_BOUND_ENV)
    if raw is None:
        return DEFAULT_ORDER_BOUND
    try:
        value = int(raw)
    except ValueError as exc:
        raise ParseError(f"bad {ORDER_BOUND_ENV} value: {raw!r}") from exc
    if value < 1:
        raise ParseError(f"{ORDER_BOUND_ENV} must be positive")
    if value * value * array("i").itemsize > MAX_TABLE_BYTES:
        raise ParseError(
            f"{ORDER_BOUND_ENV}={value} admits a multiplication table over the "
            f"{MAX_TABLE_BYTES // 2**20} MiB maximum "
            f"(order at most {isqrt(MAX_TABLE_BYTES // array('i').itemsize)})"
        )
    return value


# ---------------------------------------------------------------------------
# permutation helpers


def perm_from_cycles(cycles: Sequence[Sequence[int]], degree: int) -> Perm:
    """Build a 0-based permutation tuple from 1-based disjoint cycles."""
    if not isinstance(cycles, (list, tuple)):
        raise ParseError(f"a permutation must be a list of cycles, got {cycles!r}")
    images = list(range(degree))
    seen: set[int] = set()
    for cycle in cycles:
        if not isinstance(cycle, (list, tuple)):
            raise ParseError(f"a cycle must be a list of points, got {cycle!r}")
        if not cycle:
            continue
        for pt in cycle:
            if type(pt) is not int or not (1 <= pt <= degree):  # bool is not a point
                raise InvalidPermutation(f"point {pt!r} is not an integer in 1..{degree}")
            if pt in seen:
                raise InvalidPermutation(f"point {pt} repeated across cycles")
            seen.add(pt)
        for i, pt in enumerate(cycle):
            images[pt - 1] = cycle[(i + 1) % len(cycle)] - 1
    return tuple(images)


def perm_compose(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return tuple(q[x] for x in p)


def perm_cycles(p: Perm) -> list[tuple[int, ...]]:
    """Nontrivial cycles of a permutation, 1-based, canonically ordered."""
    seen: set[int] = set()
    cycles = []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            continue
        cyc = [start]
        seen.add(start)
        x = p[start]
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = p[x]
        cycles.append(tuple(pt + 1 for pt in cyc))
    return cycles


def cycle_string(p: Perm) -> str:
    cycles = perm_cycles(p)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(pt) for pt in cyc) + ")" for cyc in cycles)


def _check_bijection(images: Sequence[int], degree: int) -> None:
    if len(images) != degree or sorted(images) != list(range(degree)):
        raise InvalidPermutation("not a bijection of the domain")


# ---------------------------------------------------------------------------
# bitmask helpers


def bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def translate_mask(mask: int, index: Sequence[int] | dict[int, int]) -> int:
    """The mask of the images ``index[i]`` of the members ``i`` of ``mask``."""
    out = 0
    for i in bits(mask):
        out |= 1 << index[i]
    return out


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def p_part(n: int, p: int) -> int:
    if not is_prime(p):
        raise FusionlocError(f"{p} is not prime")
    pk = 1
    while n % (pk * p) == 0:
        pk *= p
    return pk


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------


def _flat_table(table: array | Sequence[Sequence[int]]) -> array:
    """The row-major ``array('i')`` of a table given flat or as rows."""
    if isinstance(table, array):
        return table
    n = len(table)
    flat = array("i")
    for row in table:
        if len(row) != n:
            raise ParseError("multiplication table is not square")
        if not set(map(type, row)) <= {int}:  # bool and float are not entries
            raise ParseError("multiplication table entries must be integers")
        try:
            flat.extend(row)
        except OverflowError:
            raise ParseError("multiplication table entry outside 0..n-1") from None
    return flat


def _entries_below(flat: array, n: int) -> bool:
    """Whether every entry of the ``array('i')`` ``flat`` lies in 0..n-1, for
    n <= 65536, decided at C level over its bytes: no int object per entry.

    An entry is in range iff its bytes above the low two are zero (so it is
    not negative) and its low half 256*hi + lo is below n = 256*q + r.
    """
    width = flat.itemsize
    q, r = divmod(n, 256)
    # hi_class is 0 for hi < q (in range whatever lo is), 2 for hi > q (never
    # in range) and 1 for hi = q (in range iff lo < r, when r > 0)
    hi_class = (bytes(q) + (b"\1" if r else b"\2") + b"\2" * 255)[:256]
    lo_past = bytes(r) + b"\1" * (256 - r)
    if sys.byteorder == "little":
        lo, hi, upper = 0, 1, range(2, width)
    else:
        lo, hi, upper = width - 1, width - 2, range(width - 2)
    step = width << 16  # 256 KiB of table per pass
    with memoryview(flat) as view, view.cast("B") as raw:
        for start in range(0, len(raw), step):
            chunk = raw[start : start + step].tobytes()
            count = len(chunk) // width
            if any(chunk[k::width].count(0) != count for k in upper):
                return False
            his = chunk[hi::width].translate(hi_class)
            if 2 in his:
                return False
            if 1 in his:
                los = chunk[lo::width].translate(lo_past)
                if int.from_bytes(his, "little") & int.from_bytes(los, "little"):
                    return False
    return True


def draws(rng: random.Random, n: int) -> Iterator[int]:
    """The endless stream ``rng.randrange(n), rng.randrange(n), ...``, lazily.

    This is CPython's ``Random._randbelow_with_getrandbits`` inlined, so the
    draws and the state ``rng`` is left in equal those of ``randrange``
    (n = 1 still consumes bits) without its three Python calls per draw.
    """
    getrandbits = rng.getrandbits
    k = n.bit_length()
    while True:
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        yield r


class FiniteGroup:
    """A finite group on indices 0..order-1 with a full Cayley table.

    ``table`` is either a sequence of rows or the row-major ``array('i')`` of
    all n*n entries: ``mul(a, b)`` is row a, column b.  Index 0 must be a
    two-sided identity and every element must have a two-sided inverse.
    Associativity is checked on a seeded sample of triples, or exhaustively
    up to order 512 with ``check="auto"``.
    """

    def __init__(
        self,
        table: array | Sequence[Sequence[int]],
        label: str = "G",
        perm_rep: Optional[tuple[int, tuple[Perm, ...]]] = None,
        element_names: Optional[tuple[str, ...]] = None,
        check: str = "sampled",
    ) -> None:
        if check not in ("sampled", "auto"):
            raise ValueError(f"unknown check mode {check!r}")
        flat = _flat_table(table)
        n = isqrt(len(flat))
        if n == 0:
            raise ParseError("empty multiplication table")
        if n * n != len(flat):
            raise ParseError("multiplication table is not square")
        if len(flat) * flat.itemsize > MAX_TABLE_BYTES:
            raise ParseError(
                f"multiplication table over the {MAX_TABLE_BYTES // 2**20} MiB maximum"
            )
        if not _entries_below(flat, n):
            raise ParseError("multiplication table entry outside 0..n-1")
        self.order = n
        self.label = label
        self._flat = flat
        self.perm_rep = perm_rep
        self.element_names = element_names
        # identity and inverses
        ramp = array("i", range(n))
        if flat[:n] != ramp or flat[::n] != ramp:
            raise ParseError("index 0 is not a two-sided identity")
        inv = []
        for a in range(n):
            try:
                b = flat.index(0, a * n, a * n + n) - a * n
            except ValueError:
                raise ParseError(f"element {a} has no inverse") from None
            if flat[b * n + a] != 0:
                raise ParseError(f"element {a} has no two-sided inverse")
            inv.append(b)
        self._inv = tuple(inv)
        if perm_rep is not None:
            degree, perms = perm_rep
            if len(perms) != n:
                raise ParseError("permutation representation size mismatch")
            for p in perms:
                _check_bijection(p, degree)
        self._verify_associativity(exhaustive=check == "auto" and n <= 512)
        if perm_rep is not None:
            self._verify_perm_rep()
        # caches
        self._mask_elems: dict[int, tuple[int, ...]] = {}
        self._closure: dict[int, int] = {}
        self._generators: dict[int, tuple[int, ...]] = {}
        self._subgroups: Optional[tuple[int, ...]] = None
        self._maximal: dict[int, tuple[int, ...]] = {}
        self._sylow: dict[int, int] = {}
        self._realized: dict[int, "RealizedSubgroup"] = {}
        self._normals: Optional[tuple[int, ...]] = None
        self._class_reps: Optional[tuple[int, ...]] = None
        self._elt_order: dict[int, int] = {}
        # O_p and O_{p'} masks by p; ints only, so no entry points back at self
        self._o_p: dict[int, int] = {}
        self._o_p_prime: dict[int, int] = {}
        self._cores: dict[int, GroupPredicateReport] = {}
        # morphism facts: N_G(H) and C_G(H) by mask, x -> x^t on a mask by
        # (mask, t), and the restriction gatherers by (dom, sub)
        self._normalizer: dict[int, int] = {}
        self._centralizer: dict[int, int] = {}
        self._conj_maps: dict[tuple[int, int], tuple[int, ...]] = {}
        self._restrictions: dict[tuple[int, int], Callable[[Sequence[int]], tuple]] = {}
        # groups of automorphisms of a mask, by (mask, sorted automorphisms)
        self._aut_groups: dict[tuple[int, tuple], "FiniteGroup"] = {}

    # -- basic arithmetic ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self._flat[a * self.order + b]

    def row(self, a: int) -> array:
        """A copy of row a of the Cayley table: ``row(a)[b] == mul(a, b)``."""
        n = self.order
        return self._flat[a * n : a * n + n]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conj(self, x: int, g: int) -> int:
        """g^-1 x g."""
        n = self.order
        return self._flat[self._flat[self._inv[g] * n + x] * n + g]

    def element_order(self, a: int) -> int:
        cached = self._elt_order.get(a)
        if cached is not None:
            return cached
        k, x = 1, a
        while x != 0:
            x = self.mul(x, a)
            k += 1
        self._elt_order[a] = k
        return k

    def is_p_element(self, a: int, p: int) -> bool:
        o = self.element_order(a)
        return o == p_part(o, p)

    def element_label(self, a: int) -> str:
        if self.perm_rep is not None:
            return cycle_string(self.perm_rep[1][a])
        if self.element_names is not None:
            return self.element_names[a]
        return str(a)

    @property
    def is_abelian(self) -> bool:
        gens = self.generators()
        return all(
            self.mul(a, b) == self.mul(b, a)
            for i, a in enumerate(gens)
            for b in gens[i + 1 :]
        )

    def exponent(self) -> int:
        exp = 1
        for a in range(self.order):
            o = self.element_order(a)
            exp = exp * o // gcd(exp, o)
        return exp

    # -- verification -------------------------------------------------------

    def _verify_associativity(self, exhaustive: bool) -> None:
        n = self.order
        if exhaustive:
            triples: Iterable[tuple[int, ...]] = product(range(n), repeat=3)
        else:
            letters = draws(random.Random(0xA55), n)
            triples = islice(zip(letters, letters, letters), min(200, n * n * n))
        for a, b, c in triples:
            if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                raise ParseError(f"multiplication not associative at ({a},{b},{c})")

    def _verify_perm_rep(self) -> None:
        degree, perms = self.perm_rep
        identity = tuple(range(degree))
        if perms[0] != identity:
            raise ParseError("permutation representation: index 0 not the identity")
        if len(set(perms)) != self.order:
            raise ParseError("permutation representation is not faithful")
        n = self.order
        letters = draws(random.Random(0x5EED), n)
        pairs = product(range(n), repeat=2) if n <= 64 else islice(zip(letters, letters), 400)
        for a, b in pairs:
            if perm_compose(perms[a], perms[b]) != perms[self.mul(a, b)]:
                raise ParseError("permutation representation is not a homomorphism")

    # -- subgroup machinery (bitmasks) --------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def mask_elements(self, mask: int) -> tuple[int, ...]:
        got = self._mask_elems.get(mask)
        if got is None:
            got = tuple(bits(mask))
            self._mask_elems[mask] = got
        return got

    def span(self, gens: Sequence[int]) -> int:
        """The subgroup generated by ``gens``: BFS over right multiplication.

        Finiteness makes the closure under products already a subgroup, so
        the inverses of ``gens`` need not be listed.
        """
        flat, n = self._flat, self.order
        members = [0]
        seen = {0}
        for a in members:  # grows while it is walked
            row = a * n
            for g in gens:
                c = flat[row + g]
                if c not in seen:
                    seen.add(c)
                    members.append(c)
        out = 0
        for c in members:
            out |= 1 << c
        return out

    def closure_mask(self, mask: int) -> int:
        """Subgroup generated by the elements of mask."""
        got = self._closure.get(mask)
        if got is None:
            got = self._closure[mask] = self.span(self.mask_elements(mask | 1))
        return got

    def _grow_generators(self, mask: int) -> tuple[list[int], int]:
        """A greedy generating list for the elements of ``mask``, and its span.

        Each member outside the span so far is appended, and the span is
        rebuilt from the list, until the span is ``mask`` or the members run out.
        """
        gens: list[int] = []
        have = 1
        for x in bits(mask):
            if not (have >> x) & 1:
                gens.append(x)
                have = self.span(gens)
                if have == mask:
                    break
        return gens, have

    def mask_generators(self, mask: int) -> tuple[int, ...]:
        """A small deterministic generating set for a subgroup mask.

        Raises ``NotASubgroup`` when ``mask`` is not a subgroup.
        """
        got = self._generators.get(mask)
        if got is None:
            gens, have = self._grow_generators(mask)
            if have != mask:
                raise NotASubgroup(f"mask {mask} is not a subgroup of {self.label}")
            got = self._generators[mask] = tuple(gens)
        return got

    def generators(self) -> tuple[int, ...]:
        """A small deterministic generating set of the whole group."""
        return self.mask_generators(self.full_mask)

    def conjugate_mask(self, mask: int, g: int) -> int:
        out = 0
        for x in self.mask_elements(mask):
            out |= 1 << self.conj(x, g)
        return out

    def conjugation_map(self, mask: int, t: int) -> tuple[int, ...]:
        """The images x^t of the members x of ``mask``, ascending by x;
        computed once per (mask, t)."""
        key = (mask, t)
        got = self._conj_maps.get(key)
        if got is None:
            conj = self.conj
            got = self._conj_maps[key] = tuple([conj(x, t) for x in self.mask_elements(mask)])
        return got

    def restriction(self, dom: int, sub: int) -> Callable[[Sequence[int]], tuple]:
        """The gatherer that takes the images of the members of ``dom``
        (ascending) to the images of those inside ``sub``: one C-level
        ``itemgetter`` per (dom, sub), which returns a tuple at any size."""
        key = (dom, sub)
        got = self._restrictions.get(key)
        if got is None:
            at = [i for i, x in enumerate(self.mask_elements(dom)) if (sub >> x) & 1]
            if len(at) > 1:
                got = itemgetter(*at)
            else:  # a slice, as itemgetter(i) would return a bare image
                got = itemgetter(slice(at[0], at[0] + 1) if at else slice(0))
            self._restrictions[key] = got
        return got

    def normalizer_mask(self, mask: int) -> int:
        """N_G(H) for a subgroup mask H: g with x^g in H for each generator x;
        computed once per mask."""
        got = self._normalizer.get(mask)
        if got is not None:
            return got
        gens = self.mask_generators(mask)
        flat, n, inv = self._flat, self.order, self._inv
        out = 0
        for g in range(n):
            row = inv[g] * n
            if all((mask >> flat[flat[row + x] * n + g]) & 1 for x in gens):
                out |= 1 << g
        self._normalizer[mask] = out
        return out

    def centralizer_mask(self, mask: int) -> int:
        """C_G(H) for a subgroup mask H: g commuting with each generator;
        computed once per mask."""
        got = self._centralizer.get(mask)
        if got is not None:
            return got
        gens = self.mask_generators(mask)
        flat, n = self._flat, self.order
        out = 0
        for g in range(n):
            row = g * n
            if all(flat[x * n + g] == flat[row + x] for x in gens):
                out |= 1 << g
        self._centralizer[mask] = out
        return out

    def center_mask(self) -> int:
        return self.centralizer_mask(self.full_mask)

    def is_subgroup_mask(self, mask: int) -> bool:
        """Whether ``mask`` is a subgroup: ``mask_generators`` spans it."""
        try:
            self.mask_generators(mask)
        except NotASubgroup:
            return False
        return True

    def is_normal_mask(self, mask: int) -> bool:
        """Whether a subgroup mask is normal: every conjugate of one of its
        generators by a generator of G lies in it."""
        return all(
            (mask >> self.conj(x, s)) & 1
            for x in self.mask_generators(mask)
            for s in self.generators()
        )

    def _orbit(self, start: int, act: Callable[[int, int], int]) -> list[int]:
        """The orbit of ``start`` under ``act(point, s)`` for the generators s
        of G; finiteness makes it the orbit under all of G."""
        orbit = [start]
        seen = {start}
        for point in orbit:  # grows while it is walked
            for s in self.generators():
                c = act(point, s)
                if c not in seen:
                    seen.add(c)
                    orbit.append(c)
        return orbit

    def canonical_conjugate(self, mask: int) -> int:
        """The least G-conjugate of a subgroup mask."""
        return min(self._orbit(mask, self.conjugate_mask))

    def class_representatives(self) -> tuple[int, ...]:
        """The least element of each conjugacy class, ascending."""
        if self._class_reps is None:
            reps = []
            covered = 0
            for x in range(self.order):
                if not (covered >> x) & 1:
                    reps.append(x)
                    for c in self._orbit(x, self.conj):
                        covered |= 1 << c
            self._class_reps = tuple(reps)
        return self._class_reps

    def normal_closure_mask(self, mask: int) -> int:
        """The smallest normal subgroup containing the elements of ``mask``.

        Conjugation by a generator of G is an automorphism, so a subgroup is
        normal once every conjugate of its generators by those of G lies in
        it.  Conjugates that leave the span join the generating list.
        """
        gens, have = self._grow_generators(mask)
        outer = self.generators()
        for x in gens:  # grows while it is walked
            for s in outer:
                c = self.conj(x, s)
                if not (have >> c) & 1:
                    gens.append(c)
                    have = self.span(gens)
        return have

    def normal_subgroup_masks(self) -> tuple[int, ...]:
        """All normal subgroups, via join-closure of element normal closures."""
        if self._normals is not None:
            return self._normals
        # the normal closure of an element depends only on its class
        atoms = sorted(
            {self.normal_closure_mask(1 << x) for x in self.class_representatives()[1:]}
        )
        found = {1, self.full_mask}
        frontier = [1]
        while frontier:
            nxt = []
            for m in frontier:
                for a in atoms:
                    j = self.span(self.mask_generators(m) + self.mask_generators(a))
                    if j not in found:
                        found.add(j)
                        nxt.append(j)
            frontier = nxt
        self._normals = tuple(sorted(found))
        return self._normals

    def subgroup_masks(self) -> tuple[int, ...]:
        """The full subgroup lattice (meant for p-groups and small groups)."""
        if self._subgroups is not None:
            return self._subgroups
        found = {1}
        frontier = [1]
        while frontier:
            nxt = []
            for m in frontier:
                for x in range(1, self.order):
                    if (m >> x) & 1:
                        continue
                    k = self.closure_mask(m | (1 << x))
                    if k not in found:
                        found.add(k)
                        nxt.append(k)
            frontier = nxt
        self._subgroups = tuple(sorted(found))
        return self._subgroups

    def subgroups_of(self, mask: int) -> tuple[int, ...]:
        return tuple(m for m in self.subgroup_masks() if m & mask == m)

    def maximal_subgroups(self, mask: int) -> tuple[int, ...]:
        got = self._maximal.get(mask)
        if got is not None:
            return got
        inside = [m for m in self.subgroups_of(mask) if m != mask]
        maximal = [
            m
            for m in inside
            if not any(m != k and m & k == m for k in inside)
        ]
        got = tuple(sorted(maximal))
        self._maximal[mask] = got
        return got

    def sylow_mask(self, p: int) -> int:
        """The canonical Sylow p-subgroup: minimal mask among all of them."""
        got = self._sylow.get(p)
        if got is not None:
            return got
        pk = p_part(self.order, p)
        current = 1
        while popcount(current) < pk:
            nmask = self.normalizer_mask(current)
            grown = False
            for x in self.mask_elements(nmask):
                if (current >> x) & 1 or not self.is_p_element(x, p):
                    continue
                k = self.closure_mask(current | (1 << x))
                size = popcount(k)
                if size == p_part(size, p) and size > popcount(current):
                    current = k
                    grown = True
                    break
            if not grown:  # cannot happen in a group; defensive
                raise NotASubgroup("Sylow growth stalled")
        best = self.canonical_conjugate(current)
        self._sylow[p] = best
        return best

    def subgroup_label(self, mask: int) -> str:
        gens = self.mask_generators(mask)
        if not gens:
            return "<1>"
        return "<" + ", ".join(self.element_label(g) for g in gens) + ">"

    def as_group(self, mask: int) -> "RealizedSubgroup":
        """Realize a subgroup mask as a standalone FiniteGroup: the sub-table
        of G on its elements, through ``group_from_subset``.

        The whole group is realized as itself, not memoised: a memo entry
        would hold its owner, and copying the table would cost n^2.
        """
        if mask == self.full_mask:
            n = self.order
            return RealizedSubgroup(mask, self, tuple(range(n)), {i: i for i in range(n)})
        got = self._realized.get(mask)
        if got is not None:
            return got
        if not self.is_subgroup_mask(mask):
            raise NotASubgroup(f"mask {mask} is not a subgroup of {self.label}")
        elems = self.mask_elements(mask)  # ascending; identity 0 first
        rep = names = None
        if self.perm_rep is None:
            names = tuple(map(self.element_label, elems))
        else:
            rep = (self.perm_rep[0], tuple(self.perm_rep[1][x] for x in elems))
        label = f"{self.label}|{self.subgroup_label(mask)}"
        n = self.order
        with memoryview(self._flat) as view:  # rows read in place, not copied
            sub = group_from_subset(elems, lambda a: view[a * n : a * n + n], label, names, rep)
        got = RealizedSubgroup(mask, sub, elems, {x: i for i, x in enumerate(elems)})
        self._realized[mask] = got
        return got

    def automorphism_group(self, mask: int, auts: tuple[tuple[int, ...], ...]) -> "FiniteGroup":
        """The group of the automorphisms ``auts`` of the subgroup ``mask``
        under composition, element i being ``auts[i]``; built once per
        (mask, auts).

        Each automorphism is the tuple of images of the members of ``mask``
        ascending, and ``auts`` is sorted, so the identity (the members
        themselves) is element 0.  They are written as permutations of the
        members' positions and composed by ``perm_compose``.
        """
        key = (mask, auts)
        got = self._aut_groups.get(key)
        if got is None:
            pos = {x: i for i, x in enumerate(self.mask_elements(mask))}
            perms = [tuple(pos[y] for y in a) for a in auts]
            index = {q: i for i, q in enumerate(perms)}
            rows = [[index.get(perm_compose(a, b), -1) for b in perms] for a in perms]
            label = f"Aut({self.subgroup_label(mask)})"
            got = group_from_subset(range(len(auts)), rows.__getitem__, label)
            self._aut_groups[key] = got
        return got

    def __repr__(self) -> str:  # pragma: no cover
        return f"FiniteGroup({self.label}, order={self.order})"


@dataclass(frozen=True)
class RealizedSubgroup:
    """A subgroup realized as a standalone group, with index translation."""

    mask: int
    group: FiniteGroup
    to_parent: tuple[int, ...]
    index_of: dict[int, int] = field(compare=False)

    def mask_to_parent(self, mask: int) -> int:
        return translate_mask(mask, self.to_parent)

    def mask_from_parent(self, mask: int) -> int:
        return translate_mask(mask, self.index_of)


# ---------------------------------------------------------------------------
# constructors


def group_from_permutations(
    degree: int,
    generators: Sequence[Sequence[Sequence[int]]],
    label: str = "G",
    bound: Optional[int] = None,
) -> FiniteGroup:
    """Generate a permutation group by breadth-first closure.

    ``generators`` are given as lists of 1-based cycles.  Enumeration is BFS
    over generator words with lexicographic tie-break, identity first, so the
    element indexing is canonical.
    """
    if degree < 1:
        raise InvalidPermutation("degree must be positive")
    limit = bound if bound is not None else order_bound()
    # up to `limit` permutations of `degree` points: budgeted like a table
    if limit * degree * array("i").itemsize > MAX_TABLE_BYTES:
        raise OrderBoundExceeded(
            f"degree {degree} times order bound {limit} is over the "
            f"{MAX_TABLE_BYTES // 2**20} MiB table maximum"
        )
    gens = [perm_from_cycles(cycles, degree) for cycles in generators]
    for g in gens:
        _check_bijection(g, degree)
    identity = tuple(range(degree))
    elems: list[Perm] = [identity]
    index = {identity: 0}
    # BFS parent links: element a is elems[parent[a]] followed by gens[via[a]]
    parent = [-1]
    via = [-1]
    for a, v in enumerate(elems):  # grows while it is walked, in BFS order
        for k, g in enumerate(gens):
            w = perm_compose(v, g)
            if w not in index:
                if len(elems) >= limit:
                    raise OrderBoundExceeded(f"closure exceeds order bound {limit}")
                index[w] = len(elems)
                elems.append(w)
                parent.append(a)
                via.append(k)
    return FiniteGroup(
        _cayley_table(elems, index, gens, parent, via),
        label=label,
        perm_rep=(degree, tuple(elems)),
    )


def _cayley_table(
    elems: Sequence[Perm],
    index: dict[Perm, int],
    gens: Sequence[Perm],
    parent: Sequence[int],
    via: Sequence[int],
) -> array:
    """The flat Cayley table of a BFS-enumerated permutation group.

    For a = a'·g with a' the BFS parent of a, a·b = a'·(g·b), so row a is
    row a' read at the columns of left multiplication by g.  That needs
    n·|gens| permutation products instead of n², and each row is one gather
    through a per-generator ``itemgetter`` at C speed.  Rows are made in
    depth-first order of the BFS tree, so only the rows on the current path
    and their pending siblings are alive as tuples; they share the int
    objects of row 0, so a gather allocates no ints.
    """
    n = len(elems)
    table = array("i", [0]) * (n * n)
    if n == 1:
        return table
    lefts = [itemgetter(*[index[perm_compose(g, x)] for x in elems]) for g in gens]
    children: list[list[int]] = [[] for _ in range(n)]
    for a in range(1, n):
        children[parent[a]].append(a)
    pack = Struct(f"{n}i").pack
    width = n * table.itemsize
    stack = [(0, tuple(range(n)))]
    with memoryview(table) as view, view.cast("B") as out:
        while stack:
            a, row = stack.pop()
            out[a * width : (a + 1) * width] = pack(*row)
            for c in children[a]:
                stack.append((c, lefts[via[c]](row)))
    return table


def group_from_table(table: Sequence[Sequence[int]], label: str = "G") -> FiniteGroup:
    """Build a group from an explicit table; fully verified up to order 512."""
    return FiniteGroup(table, label=label, check="auto")


def group_from_subset(
    elems: Sequence[int],
    row: Callable[[int], Sequence[int]],
    label: str,
    element_names: Optional[tuple[str, ...]] = None,
    perm_rep: Optional[tuple[int, tuple[Perm, ...]]] = None,
) -> FiniteGroup:
    """The group on a closed subset of a product table.

    ``elems`` lists the subset ascending with the identity first, and
    ``row(a)[b]`` is the product ab; element i of the group is ``elems[i]``.
    A product that is -1 (undefined) or outside the subset raises
    ``VerificationFailed`` naming ``label``.
    """
    pos = {x: i for i, x in enumerate(elems)}
    table = array("i")
    for a in elems:
        r = row(a)
        try:
            table.extend([pos[r[b]] for b in elems])
        except KeyError:
            b = next(b for b in elems if r[b] not in pos)
            raise VerificationFailed(
                f"{label}: product of {a} and {b} not defined inside the subset"
            ) from None
    return FiniteGroup(table, label=label, perm_rep=perm_rep, element_names=element_names)


def load_group_json(data: dict) -> FiniteGroup:
    """Load a group from the JSON input schema.

    Either ``{"name", "degree", "generators": [[cycle,...],...]}`` with 1-based
    integer cycles, or ``{"name", "table": [[...],...]}`` row-major with
    identity 0.
    """
    if not isinstance(data, dict):
        raise ParseError("group file must be a JSON object")
    name = data.get("name", "G")
    if not isinstance(name, str):
        raise ParseError(f"group name must be a string, got {name!r}")
    if "table" in data:
        table = data["table"]
        if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
            raise ParseError("table must be a list of rows")
        if len(table) > order_bound():
            raise OrderBoundExceeded(f"table of order {len(table)} exceeds bound")
        return group_from_table(table, label=name)
    if "generators" in data:
        degree = data.get("degree")
        if type(degree) is not int:  # bool is not a degree
            raise ParseError("missing integer degree")
        gens = data["generators"]
        if not isinstance(gens, list):
            raise ParseError("generators must be a list")
        return group_from_permutations(degree, gens, label=name)
    raise ParseError("group object needs either 'table' or 'generators'")


def read_json_file(path: str, kind: str):
    """The JSON value in the UTF-8 file at ``path``; a file that cannot be
    read or decoded is an input error naming it as a ``kind`` file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or bad JSON
        raise ParseError(f"cannot read {kind} file {path}: {exc}") from exc


def load_group_file(path: str) -> FiniteGroup:
    return load_group_json(read_json_file(path, "group"))


# ---------------------------------------------------------------------------
# p-cores and quotients


@dataclass(frozen=True)
class GroupPredicateReport:
    """p-core data for a group: the masks of O_p and O_{p'}, and the
    characteristic-p flags."""

    o_p: int
    o_p_prime: int
    is_char_p: bool
    is_almost_char_p: bool


def o_p_mask(H: FiniteGroup, p: int) -> int:
    """O_p(H), the normal core of a Sylow p-subgroup; computed once per (H, p)."""
    got = H._o_p.get(p)
    if got is None:
        got = H._o_p[p] = _o_p(H, p)
    return got


def _o_p(H: FiniteGroup, p: int) -> int:
    """K <- K ∩ ⋂_s K^s over the generators s of H, from K = Sylow, until K is
    stable; a stable K has K^s = K for every generator, so it is normal."""
    core = H.sylow_mask(p)
    while True:
        nxt = core
        for s in H.generators():
            nxt &= H.conjugate_mask(core, s)
        if nxt == core:
            return core
        core = nxt


def o_p_prime_mask(H: FiniteGroup, p: int) -> int:
    """O_{p'}(H), the largest normal subgroup of order coprime to p; computed
    once per (H, p)."""
    got = H._o_p_prime.get(p)
    if got is None:
        got = H._o_p_prime[p] = _o_p_prime(H, p)
    return got


def _o_p_prime(H: FiniteGroup, p: int) -> int:
    """Join of the normal closures of single elements whose closure has p'-order;
    the product of two normal p'-subgroups is again one, so one pass suffices.
    The closure of x depends only on the class of x, so one element per class
    is tried, and not one whose order p divides, as its closure contains it.
    """
    theta = 1
    for x in H.class_representatives()[1:]:
        if (theta >> x) & 1 or H.element_order(x) % p == 0:
            continue
        ncl = H.normal_closure_mask(1 << x)
        if popcount(ncl) % p != 0:
            cand = H.span(H.mask_generators(theta) + H.mask_generators(ncl))
            if popcount(cand) % p != 0:
                theta = cand
    return theta


def is_char_p_group(H: FiniteGroup, p: int) -> bool:
    op = o_p_mask(H, p)
    return H.centralizer_mask(op) & ~op == 0


def cores(H: FiniteGroup, p: int) -> GroupPredicateReport:
    """O_p, Theta = O_{p'}, characteristic p, and almost characteristic p;
    computed once per (H, p)."""
    got = H._cores.get(p)
    if got is None:
        got = H._cores[p] = _cores(H, p)
    return got


def _cores(H: FiniteGroup, p: int) -> GroupPredicateReport:
    op = o_p_mask(H, p)
    theta = o_p_prime_mask(H, p)
    char_p = is_char_p_group(H, p)
    if theta == 1:
        almost = char_p
    else:
        almost = is_char_p_group(quotient_group(H, theta).group, p)
    return GroupPredicateReport(
        o_p=op,
        o_p_prime=theta,
        is_char_p=char_p,
        is_almost_char_p=almost,
    )


@dataclass(frozen=True)
class QuotientGroup:
    """A quotient group with its projection map (element index -> index)."""

    group: FiniteGroup
    projection: tuple[int, ...]


def quotient_group(G: FiniteGroup, n_mask: int) -> QuotientGroup:
    """Coset group G/N with induced multiplication; the subgroup ``n_mask``
    must be normal."""
    if not G.is_normal_mask(n_mask):
        raise NotNormal(f"{G.subgroup_label(n_mask)} is not normal in {G.label}")
    nelems = G.mask_elements(n_mask)
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for x in range(G.order):
        if x in coset_of:
            continue
        members = sorted(G.mul(n, x) for n in nelems)
        idx = len(reps)
        reps.append(members[0])
        for m in members:
            coset_of[m] = idx
    table = [[coset_of[G.mul(a, b)] for b in reps] for a in reps]
    # well-definedness: products of arbitrary members land in the same coset
    if G.order <= 512:
        for x in range(G.order):
            for y in range(G.order):
                if coset_of[G.mul(x, y)] != table[coset_of[x]][coset_of[y]]:
                    raise NotNormal("quotient multiplication ill-defined")
    names = tuple("[" + G.element_label(r) + "]" for r in reps)
    Q = FiniteGroup(table, label=f"{G.label}/{G.subgroup_label(n_mask)}", element_names=names)
    proj = tuple(coset_of[x] for x in range(G.order))
    return QuotientGroup(group=Q, projection=proj)
