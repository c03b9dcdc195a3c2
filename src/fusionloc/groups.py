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
from array import array
from dataclasses import dataclass, field
from math import gcd
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import (
    FusionlocError,
    InvalidPermutation,
    NotASubgroup,
    NotNormal,
    OrderBoundExceeded,
    ParseError,
)

DEFAULT_ORDER_BOUND = 5040
ORDER_BOUND_ENV = "FUSIONLOC_ORDER_BOUND"

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
            if not isinstance(pt, int) or not (1 <= pt <= degree):
                raise InvalidPermutation(f"point {pt!r} outside 1..{degree}")
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


class FiniteGroup:
    """A finite group on indices 0..order-1 with a full Cayley table.

    ``table`` is row-major: ``table[a][b] = mul(a, b)``.  Index 0 must be a
    two-sided identity and every element must have a two-sided inverse.
    Associativity is checked on a seeded sample of triples, or exhaustively
    up to order 512 with ``check="auto"``.
    """

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        label: str = "G",
        perm_rep: Optional[tuple[int, tuple[Perm, ...]]] = None,
        element_names: Optional[tuple[str, ...]] = None,
        check: str = "sampled",
    ) -> None:
        if check not in ("sampled", "auto"):
            raise ValueError(f"unknown check mode {check!r}")
        n = len(table)
        if n == 0:
            raise ParseError("empty multiplication table")
        flat = array("i")
        for row in table:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise ParseError("multiplication table is not square over 0..n-1")
            flat.extend(row)
        self.order = n
        self.label = label
        self._flat = flat
        self.perm_rep = perm_rep
        self.element_names = element_names
        # identity and inverses
        for a in range(n):
            if flat[a] != a or flat[a * n] != a:
                raise ParseError("index 0 is not a two-sided identity")
        inv = [-1] * n
        for a in range(n):
            for b in range(n):
                if flat[a * n + b] == 0:
                    if flat[b * n + a] != 0:
                        raise ParseError(f"element {a} has no two-sided inverse")
                    inv[a] = b
                    break
            if inv[a] < 0:
                raise ParseError(f"element {a} has no inverse")
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
        self._is_subgroup: dict[int, bool] = {}
        self._subgroups: Optional[tuple[int, ...]] = None
        self._maximal: dict[int, tuple[int, ...]] = {}
        self._sylow: dict[int, int] = {}
        self._realized: dict[int, "RealizedSubgroup"] = {}
        self._normals: Optional[tuple[int, ...]] = None
        self._elt_order: dict[int, int] = {}
        # K-normalizer fusion systems over this group, interned by
        # ``FusionSystem.local_subsystem`` on (carrier, p, morphism sets)
        self._k_normalizers: dict[tuple, object] = {}

    # -- basic arithmetic ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self._flat[a * self.order + b]

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
        return all(
            self.mul(a, b) == self.mul(b, a)
            for a in range(self.order)
            for b in range(a + 1, self.order)
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
            rng: Iterable[tuple[int, int, int]] = (
                (a, b, c) for a in range(n) for b in range(n) for c in range(n)
            )
        else:
            prng = random.Random(0xA55)
            rng = (
                (prng.randrange(n), prng.randrange(n), prng.randrange(n))
                for _ in range(min(200, n * n * n))
            )
        for a, b, c in rng:
            if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                raise ParseError(f"multiplication not associative at ({a},{b},{c})")

    def _verify_perm_rep(self) -> None:
        degree, perms = self.perm_rep
        identity = tuple(range(degree))
        if perms[0] != identity:
            raise ParseError("permutation representation: index 0 not the identity")
        if len(set(perms)) != self.order:
            raise ParseError("permutation representation is not faithful")
        prng = random.Random(0x5EED)
        n = self.order
        pairs = (
            [(a, b) for a in range(n) for b in range(n)]
            if n <= 64
            else [(prng.randrange(n), prng.randrange(n)) for _ in range(400)]
        )
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

    def closure_mask(self, mask: int) -> int:
        """Subgroup generated by the elements of mask."""
        got = self._closure.get(mask)
        if got is not None:
            return got
        members = 1  # identity
        frontier = [0]
        gens = self.mask_elements(mask | 1)
        seen = {0}
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    c = self.mul(a, g)
                    if c not in seen:
                        seen.add(c)
                        members |= 1 << c
                        nxt.append(c)
            frontier = nxt
        # gens may not include inverses explicitly, but finiteness makes the
        # closure under products already a subgroup.
        self._closure[mask] = members
        return members

    def conjugate_mask(self, mask: int, g: int) -> int:
        out = 0
        for x in self.mask_elements(mask):
            out |= 1 << self.conj(x, g)
        return out

    def normalizer_mask(self, mask: int) -> int:
        out = 0
        for g in range(self.order):
            if self.conjugate_mask(mask, g) == mask:
                out |= 1 << g
        return out

    def centralizer_mask(self, mask: int) -> int:
        out = 0
        elems = self.mask_elements(mask)
        for g in range(self.order):
            if all(self.conj(x, g) == x for x in elems):
                out |= 1 << g
        return out

    def center_mask(self) -> int:
        return self.centralizer_mask(self.full_mask)

    def is_subgroup_mask(self, mask: int) -> bool:
        got = self._is_subgroup.get(mask)
        if got is None:
            got = bool(mask & 1)
            if got:
                elems = self.mask_elements(mask)
                got = all((mask >> self.mul(a, b)) & 1 for a in elems for b in elems)
            self._is_subgroup[mask] = got
        return got

    def is_normal_mask(self, mask: int) -> bool:
        return all(
            self.conjugate_mask(mask, g) == mask for g in range(self.order)
        )

    def normal_closure_mask(self, mask: int) -> int:
        conjs = 0
        for g in range(self.order):
            conjs |= self.conjugate_mask(mask, g)
        return self.closure_mask(conjs)

    def normal_subgroup_masks(self) -> tuple[int, ...]:
        """All normal subgroups, via join-closure of element normal closures."""
        if self._normals is not None:
            return self._normals
        atoms = sorted(
            {self.normal_closure_mask(1 << x) for x in range(1, self.order)}
        )
        found = {1, self.full_mask}
        frontier = [1]
        while frontier:
            nxt = []
            for m in frontier:
                for a in atoms:
                    j = self.closure_mask(m | a)
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
        best = min(self.conjugate_mask(current, g) for g in range(self.order))
        self._sylow[p] = best
        return best

    def mask_generators(self, mask: int) -> tuple[int, ...]:
        """A small deterministic generating set for a subgroup mask."""
        gens: list[int] = []
        have = 1
        for x in self.mask_elements(mask):
            if x and not (have >> x) & 1:
                gens.append(x)
                have = self.closure_mask(have | (1 << x))
                if have == mask:
                    break
        return tuple(gens)

    def subgroup_label(self, mask: int) -> str:
        gens = self.mask_generators(mask)
        if not gens:
            return "<1>"
        return "<" + ", ".join(self.element_label(g) for g in gens) + ">"

    def as_group(self, mask: int) -> "RealizedSubgroup":
        """Realize a subgroup mask as a standalone FiniteGroup."""
        got = self._realized.get(mask)
        if got is not None:
            return got
        if not self.is_subgroup_mask(mask):
            raise NotASubgroup(f"mask {mask} is not a subgroup of {self.label}")
        elems = self.mask_elements(mask)  # ascending; identity 0 first
        pos = {x: i for i, x in enumerate(elems)}
        table = [[pos[self.mul(a, b)] for b in elems] for a in elems]
        rep = None
        if self.perm_rep is not None:
            degree, perms = self.perm_rep
            rep = (degree, tuple(perms[x] for x in elems))
        names = None
        if self.perm_rep is None:
            names = tuple(self.element_label(x) for x in elems)
        sub = FiniteGroup(
            table,
            label=f"{self.label}|{self.subgroup_label(mask)}",
            perm_rep=rep,
            element_names=names,
        )
        got = RealizedSubgroup(parent=self, mask=mask, group=sub, to_parent=elems, index_of=pos)
        self._realized[mask] = got
        return got

    def __repr__(self) -> str:  # pragma: no cover
        return f"FiniteGroup({self.label}, order={self.order})"


@dataclass(frozen=True)
class RealizedSubgroup:
    """A subgroup realized as a standalone group, with index translation."""

    parent: FiniteGroup
    mask: int
    group: FiniteGroup
    to_parent: tuple[int, ...]
    index_of: dict[int, int] = field(compare=False)

    def mask_to_parent(self, mask: int) -> int:
        return translate_mask(mask, self.to_parent)

    def mask_from_parent(self, mask: int) -> int:
        return translate_mask(mask, self.index_of)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of a FiniteGroup, stored as a bitmask of element indices."""

    group: FiniteGroup
    mask: int

    def __post_init__(self) -> None:
        if not self.group.is_subgroup_mask(self.mask):
            raise NotASubgroup("mask is not closed under multiplication")

    @property
    def order(self) -> int:
        return popcount(self.mask)

    def elements(self) -> tuple[int, ...]:
        return self.group.mask_elements(self.mask)

    def __contains__(self, x: int) -> bool:
        return bool((self.mask >> x) & 1)

    def __le__(self, other: "Subgroup") -> bool:
        return self.group is other.group and self.mask & other.mask == self.mask

    def label(self) -> str:
        return self.group.subgroup_label(self.mask)

    def as_group(self) -> RealizedSubgroup:
        return self.group.as_group(self.mask)


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
    gens = [perm_from_cycles(cycles, degree) for cycles in generators]
    for g in gens:
        _check_bijection(g, degree)
    identity = tuple(range(degree))
    elems: list[Perm] = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = perm_compose(v, g)
                if w not in index:
                    if len(elems) >= limit:
                        raise OrderBoundExceeded(
                            f"closure exceeds order bound {limit}"
                        )
                    index[w] = len(elems)
                    elems.append(w)
                    nxt.append(w)
        frontier = nxt
    table = [[index[perm_compose(a, b)] for b in elems] for a in elems]
    return FiniteGroup(table, label=label, perm_rep=(degree, tuple(elems)))


def group_from_table(table: Sequence[Sequence[int]], label: str = "G") -> FiniteGroup:
    """Build a group from an explicit table; fully verified up to order 512."""
    return FiniteGroup(table, label=label, check="auto")


def group_from_elements(
    items: Sequence,
    mul: Callable,
    label: str = "G",
    names: Optional[Callable] = None,
) -> tuple[FiniteGroup, tuple]:
    """Build a group from abstract elements and a total multiplication.

    Returns the group and the element tuple in index order (identity first,
    the rest sorted).  The items must be hashable and sortable.
    """
    items = list(items)
    if not items:
        raise ParseError("no elements")
    identity = None
    for e in items:
        if all(mul(e, x) == x and mul(x, e) == x for x in items):
            identity = e
            break
    if identity is None:
        raise ParseError("no identity element")
    ordered = [identity] + sorted(x for x in items if x != identity)
    pos = {x: i for i, x in enumerate(ordered)}
    try:
        table = [[pos[mul(a, b)] for b in ordered] for a in ordered]
    except KeyError as exc:
        raise ParseError("multiplication leaves the element set") from exc
    element_names = (
        tuple(names(x) for x in ordered) if names is not None else None
    )
    grp = FiniteGroup(table, label=label, element_names=element_names)
    return grp, tuple(ordered)


def load_group_json(data: dict, bound: Optional[int] = None) -> FiniteGroup:
    """Load a group from the JSON input schema.

    Either ``{"name", "degree", "generators": [[cycle,...],...]}`` with 1-based
    integer cycles, or ``{"name", "table": [[...],...]}`` row-major with
    identity 0.
    """
    if not isinstance(data, dict):
        raise ParseError("group file must be a JSON object")
    name = data.get("name", "G")
    if "table" in data:
        table = data["table"]
        if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
            raise ParseError("table must be a list of rows")
        limit = bound if bound is not None else order_bound()
        if len(table) > limit:
            raise OrderBoundExceeded(f"table of order {len(table)} exceeds bound")
        return group_from_table(table, label=name)
    if "generators" in data:
        degree = data.get("degree")
        if not isinstance(degree, int):
            raise ParseError("missing integer degree")
        gens = data["generators"]
        if not isinstance(gens, list):
            raise ParseError("generators must be a list")
        return group_from_permutations(degree, gens, label=name, bound=bound)
    raise ParseError("group object needs either 'table' or 'generators'")


def load_group_file(path: str, bound: Optional[int] = None) -> FiniteGroup:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read group file {path}: {exc}") from exc
    return load_group_json(data, bound=bound)


# ---------------------------------------------------------------------------
# subgroup operations


def sylow_p(G: FiniteGroup, p: int) -> Subgroup:
    """The canonical Sylow p-subgroup (trivial when p does not divide |G|)."""
    return Subgroup(G, G.sylow_mask(p))


def _require_subgroup(G: FiniteGroup, P: Subgroup) -> None:
    if P.group is not G:
        raise NotASubgroup("subgroup belongs to a different group")


def normalizer(G: FiniteGroup, P: Subgroup) -> Subgroup:
    _require_subgroup(G, P)
    return Subgroup(G, G.normalizer_mask(P.mask))


def centralizer(G: FiniteGroup, P: Subgroup) -> Subgroup:
    _require_subgroup(G, P)
    return Subgroup(G, G.centralizer_mask(P.mask))


@dataclass(frozen=True)
class GroupPredicateReport:
    """p-core data for a group: O_p, O_{p'}, and the characteristic-p flags."""

    group: FiniteGroup
    p: int
    o_p: Subgroup
    o_p_prime: Subgroup
    is_char_p: bool
    is_almost_char_p: bool


def o_p_mask(H: FiniteGroup, p: int) -> int:
    """O_p(H) as the intersection of all Sylow p-subgroups."""
    syl = H.sylow_mask(p)
    out = syl
    for g in range(H.order):
        out &= H.conjugate_mask(syl, g)
        if out == 1:
            break
    return out


def o_p_prime_mask(H: FiniteGroup, p: int) -> int:
    """The largest normal subgroup of order coprime to p.

    Join of the normal closures of single elements whose closure has p'-order;
    the product of two normal p'-subgroups is again one, so one pass suffices.
    """
    theta = 1
    for x in range(1, H.order):
        if (theta >> x) & 1:
            continue
        ncl = H.normal_closure_mask(1 << x)
        if popcount(ncl) % p != 0:
            cand = H.closure_mask(theta | ncl)
            if popcount(cand) % p != 0:
                theta = cand
    return theta


def is_char_p_group(H: FiniteGroup, p: int) -> bool:
    op = o_p_mask(H, p)
    return H.centralizer_mask(op) & ~op == 0


def cores(H: FiniteGroup, p: int) -> GroupPredicateReport:
    """O_p, Theta = O_{p'}, characteristic p, and almost characteristic p."""
    op = o_p_mask(H, p)
    theta = o_p_prime_mask(H, p)
    char_p = H.centralizer_mask(op) & ~op == 0
    if theta == 1:
        almost = char_p
    else:
        almost = is_char_p_group(quotient_group(H, Subgroup(H, theta)).group, p)
    return GroupPredicateReport(
        group=H,
        p=p,
        o_p=Subgroup(H, op),
        o_p_prime=Subgroup(H, theta),
        is_char_p=char_p,
        is_almost_char_p=almost,
    )


@dataclass(frozen=True)
class QuotientGroup:
    """A quotient group with its projection map (element index -> index)."""

    source: FiniteGroup
    kernel: Subgroup
    group: FiniteGroup
    projection: tuple[int, ...]


def quotient_group(G: FiniteGroup, N: Subgroup) -> QuotientGroup:
    """Coset group G/N with induced multiplication; N must be normal."""
    _require_subgroup(G, N)
    if not G.is_normal_mask(N.mask):
        raise NotNormal(f"{N.label()} is not normal in {G.label}")
    nelems = G.mask_elements(N.mask)
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
    Q = FiniteGroup(table, label=f"{G.label}/{N.label()}", element_names=names)
    proj = tuple(coset_of[x] for x in range(G.order))
    return QuotientGroup(source=G, kernel=N, group=Q, projection=proj)


def structure_hint(G: FiniteGroup) -> str:
    """A rough isomorphism-type label from order and abelian invariants."""
    n = G.order
    if n == 1:
        return "C1"
    if G.is_abelian:
        # invariant factors via exponent peeling (small n only)
        parts: list[int] = []
        remaining = n
        exp = G.exponent()
        while remaining > 1:
            parts.append(exp)
            remaining //= exp
            if remaining == 1:
                break
            if remaining % exp != 0 or exp == 1:
                parts.append(remaining)
                break
        return " x ".join(f"C{m}" for m in parts)
    if n == 6:
        return "S3"
    if n == 8:
        n_invol = sum(1 for a in range(1, n) if G.element_order(a) == 2)
        return "Q8" if n_invol == 1 else "D8"
    if n == 12:
        if not any(G.element_order(a) == 6 for a in range(n)):
            return "A4"
        return "D12_or_Dic3"
    if n == 24:
        n_invol = sum(1 for a in range(1, n) if G.element_order(a) == 2)
        if n_invol == 1:
            return "SL(2,3)"
        if len([a for a in range(n) if G.element_order(a) == 4]) == 6:
            return "S4"
    return f"group of order {n}"
