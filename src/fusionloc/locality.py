"""Partial groups and localities.

A locality is stored as a finite carrier of element ids ``0..n-1`` (identity
at 0), an involutory inversion, a partial binary product, a distinguished
p-subgroup S realized as a standalone group, and the object set Delta given
as bitmasks over S.

The word domain is intensional: a word ``w`` lies in the domain iff ``S_w``
(computed right to left as preimages under the per-element conjugation maps
on S) is in Delta.
The binary product is one dense table: ``rows[a][b]`` is ab, or -1 when the
word (a, b) is outside the domain.  Products of longer domain words are left
folds of it.  Constructors fill the table at exactly the pairs whose
two-letter word is in the domain, and the verifier cross-checks that rule.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    NotAnObject,
    NotClosed,
    NotInDomain,
    NotPartialNormal,
    NotSylow,
    VerificationFailed,
)
from .fusion import (
    FusionSystem,
    conjugation_partials,
    image_mask,
    locality_fusion,
    restrict_partial,
)
from .groups import (
    FiniteGroup,
    RealizedSubgroup,
    bits,
    cores,
    draws,
    group_from_elements,
    o_p_mask,
    p_part,
    popcount,
    translate_mask,
)

# word budget and sampling seed of verify_locality
WORD_CAP = 120_000
WORD_SEED = 0


class ProductView(Mapping):
    """Read-only ``{(a, b): ab}`` over the defined pairs of a product table,
    iterated in row-major order."""

    def __init__(self, rows: tuple[array, ...]) -> None:
        self._rows = rows
        self._len: Optional[int] = None

    def __getitem__(self, key: tuple[int, int]) -> int:
        a, b = key
        n = len(self._rows)
        c = self._rows[a][b] if 0 <= a < n and 0 <= b < n else -1
        if c < 0:
            raise KeyError(key)
        return c

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for a, row in enumerate(self._rows):
            for b, c in enumerate(row):
                if c >= 0:
                    yield (a, b)

    def __len__(self) -> int:
        if self._len is None:
            self._len = sum(len(row) - row.count(-1) for row in self._rows)
        return self._len


class Locality:
    """A finite locality (L, Delta, S).

    ``rows[a][b]`` is the product ab, or -1 where the word (a, b) is outside
    the domain; ``prod2`` reads the same table as a mapping over the defined
    pairs.  ``rows`` and ``conj_s`` never change in place.
    """

    def __init__(
        self,
        size: int,
        inv: tuple[int, ...],
        rows: Sequence[array],
        s_ids: tuple[int, ...],
        s_group: FiniteGroup,
        delta: frozenset[int],
        p: int,
        label: str = "L",
        elt_names: Optional[tuple[str, ...]] = None,
        *,
        conj_s: tuple[dict[int, int], ...],
        source_group: Optional[FiniteGroup] = None,
        source_ids: Optional[tuple[int, ...]] = None,
    ) -> None:
        # a negative index would wrap to the last row, so the tables hold
        # carrier ids only (and -1 for undefined products)
        if len(inv) != size or (size and (min(inv) < 0 or max(inv) >= size)):
            raise VerificationFailed("inversion table is not a map on the carrier")
        rows = tuple(rows)
        if len(rows) != size:
            raise VerificationFailed(f"product table has {len(rows)} rows, not {size}")
        for a, row in enumerate(rows):
            if len(row) != size:
                raise VerificationFailed(f"product table row {a} has length {len(row)}")
            if size and (min(row) < -1 or max(row) >= size):
                raise VerificationFailed(
                    f"product table row {a} holds an entry outside -1..{size - 1}"
                )
        self.size = size
        self.inv = inv
        self.rows = rows
        self.prod2 = ProductView(rows)
        self.s_ids = s_ids
        self.s_group = s_group
        self.s_pos = {x: i for i, x in enumerate(s_ids)}
        self.delta = delta
        self.p = p
        self.label = label
        self.elt_names = elt_names
        self.source_group = source_group
        self.source_ids = source_ids
        self.conj_s = conj_s
        self._s_of = tuple(sum(1 << i for i in cmap) for cmap in conj_s)
        self._fusion: Optional[FusionSystem] = None
        self._axioms: Optional[LocalityAxiomReport] = None
        self._objective: Optional[bool] = None
        # memos; sound because rows and conj_s never change in place
        self._pre: tuple[dict[int, int], ...] = tuple({} for _ in range(size))
        self._normalizers: dict[int, tuple[int, ...]] = {}
        self._norm_groups: dict[int, tuple[FiniteGroup, tuple[int, ...]]] = {}

    # -- basic structure -----------------------------------------------------

    def element_label(self, x: int) -> str:
        if self.elt_names is not None:
            return self.elt_names[x]
        if self.source_group is not None and self.source_ids is not None:
            return self.source_group.element_label(self.source_ids[x])
        return str(x)

    def s_of(self, f: int) -> int:
        """S_f as a mask over s_group indices."""
        return self._s_of[f]

    def preimage(self, g: int, mask: int) -> int:
        """{i in S_g : c_g(i) in mask} for a carrier element g, memoised per
        element and mask."""
        memo = self._pre[g]
        out = memo.get(mask)
        if out is None:
            out = 0
            for i, j in self.conj_s[g].items():
                if mask >> j & 1:
                    out |= 1 << i
            memo[mask] = out
        return out

    def s_of_word(self, word: Sequence[int]) -> int:
        """S_w as a mask over s_group indices; the empty word gives S.

        Right to left: S_(g, w') is the preimage of S_w' under c_g.  Raises
        ``NotInDomain`` for a letter outside the carrier.
        """
        mask = self.s_group.full_mask
        for g in reversed(word):
            if not 0 <= g < self.size:
                raise NotInDomain(f"letter {g} is not an element of {self.label}")
            mask = self.preimage(g, mask)
        return mask

    def word_in_domain(self, word: Sequence[int]) -> bool:
        try:
            return self.s_of_word(word) in self.delta
        except NotInDomain:
            return False

    def product(self, word: Sequence[int]) -> int:
        """Product of a domain word (left fold); empty word gives identity."""
        if not self.word_in_domain(word):
            raise NotInDomain(f"word {tuple(word)} not in the product domain")
        out = 0
        for x in word:
            out = self.rows[out][x]
            if out < 0:
                raise VerificationFailed(
                    f"fold undefined on domain word {tuple(word)}"
                )
        return out

    def conj_elem(self, x: int, f: int) -> Optional[int]:
        """x^f when the word (f^-1, x, f) is in the domain, else None."""
        if not (0 <= x < self.size and 0 <= f < self.size):
            return None
        fi = self.inv[f]
        # S_(f^-1, x, f) is the preimage of S_(x, f) under c_(f^-1)
        if self.preimage(fi, self.preimage(x, self._s_of[f])) not in self.delta:
            return None
        a = self.rows[fi][x]
        if a < 0:
            return None
        b = self.rows[a][f]
        return b if b >= 0 else None

    def conj_mask(self, mask: int, f: int) -> Optional[int]:
        """Image of a subgroup mask of S under c_f, None if not all defined."""
        cmap = self.conj_s[f]
        out = 0
        for i in bits(mask):
            j = cmap.get(i)
            if j is None:
                return None
            out |= 1 << j
        return out

    # -- normalizers and centralizers -----------------------------------------

    def normalizer_ids(self, mask: int) -> tuple[int, ...]:
        out = self._normalizers.get(mask)
        if out is None:
            out = tuple(
                f for f in range(self.size) if self.conj_mask(mask, f) == mask
            )
            self._normalizers[mask] = out
        return out

    def subgroup_gap(self, ids: Sequence[int] | frozenset[int], total: bool) -> Optional[tuple]:
        """How the id set leaves itself, or None for a partial subgroup.

        In the order of ``ids``: ``(a, "inverse escapes")`` for the first a
        whose inverse is outside, else ``((a, b), "product escapes")`` for the
        first defined product outside; with ``total``, an undefined product
        also leaves, as ``((a, b), "product escapes or undefined")``.
        """
        idset = set(ids)
        for a in ids:
            if self.inv[a] not in idset:
                return (a, "inverse escapes")
            row = self.rows[a]
            for b in ids:
                c = row[b]
                if c not in idset and (total or c >= 0):
                    why = "product escapes or undefined" if total else "product escapes"
                    return ((a, b), why)
        return None

    def centralizer_ids(self, mask: int) -> tuple[int, ...]:
        out = []
        members = tuple(bits(mask))
        for f in range(self.size):
            cmap = self.conj_s[f]
            if all(cmap.get(i) == i for i in members):
                out.append(f)
        return tuple(out)

    def normalizer_group(self, mask: int) -> tuple[FiniteGroup, tuple[int, ...]]:
        """N_L(P) realized as a group, for P in Delta; returns (group, ids)."""
        if mask not in self.delta:
            raise NotAnObject(self.s_group.subgroup_label(mask))
        got = self._norm_groups.get(mask)
        if got is not None:
            return got
        ids = self.normalizer_ids(mask)
        got = self._ids_as_group(ids, f"N_{self.label}({self.s_group.subgroup_label(mask)})")
        self._norm_groups[mask] = got
        return got

    def centralizer_group(self, mask: int) -> tuple[FiniteGroup, tuple[int, ...]]:
        if mask not in self.delta:
            raise NotAnObject(self.s_group.subgroup_label(mask))
        ids = self.centralizer_ids(mask)
        return self._ids_as_group(ids, f"C_{self.label}({self.s_group.subgroup_label(mask)})")

    def _ids_as_group(
        self, ids: Sequence[int], label: str
    ) -> tuple[FiniteGroup, tuple[int, ...]]:
        idset = set(ids)

        def mul(a: int, b: int) -> int:
            c = self.rows[a][b]
            if c < 0 or c not in idset:
                raise VerificationFailed(
                    f"{label}: product of {self.element_label(a)} and "
                    f"{self.element_label(b)} not defined inside the subset"
                )
            return c

        grp, ordered = group_from_elements(
            sorted(ids), mul, label=label, names=self.element_label
        )
        return grp, ordered

    # -- fusion system ----------------------------------------------------------

    def fusion_system(self) -> FusionSystem:
        """F_S(L), generated by the conjugation maps c_f on S_f; built once
        and interned, so an equal F_S(G) over the same S is this object."""
        if self._fusion is None:
            gens = self.conj_generators(range(self.size), self.s_group.full_mask)
            self._fusion = locality_fusion(self.s_group, self.p, self.label, gens)
        return self._fusion

    def conj_generators(
        self, ids: Iterable[int], t_mask: int
    ) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Fusion generators (dom, images): c_f for f in ids, restricted to
        the i in S_f with i and c_f(i) in T."""
        return tuple(restrict_partial(self.conj_s[f], t_mask) for f in ids)

    # -- predicates ---------------------------------------------------------------

    def objects_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.delta))

    def is_objective_char_p(self) -> bool:
        if self._objective is None:
            self._objective = all(
                cores(self.normalizer_group(P)[0], self.p).is_char_p
                for P in self.objects_sorted()
            )
        return self._objective

    def is_linking_locality(self) -> bool:
        if not self.is_objective_char_p():
            return False
        F = self.fusion_system()
        return all(Q in self.delta for Q in F.centric_radical_masks())

    def is_l_radical(self, mask: int) -> bool:
        """Whether O_p(N_L(P)) equals P, for P in Delta."""
        if mask not in self.delta:
            raise NotAnObject(self.s_group.subgroup_label(mask))
        grp, ordered = self.normalizer_group(mask)
        op = o_p_mask(grp, self.p)
        op_smask = 0
        for i in bits(op):
            j = self.s_pos.get(ordered[i])
            if j is None:
                return False
            op_smask |= 1 << j
        return op_smask == mask

    def __repr__(self) -> str:  # pragma: no cover
        return f"Locality({self.label}, |L|={self.size}, |S|={len(self.s_ids)})"


# ---------------------------------------------------------------------------
# construction from a finite group


def object_set_gap(
    base: FiniteGroup,
    gamma: frozenset[int],
    s_masks: Sequence[int],
    cmaps: Sequence[dict[int, int]],
) -> Optional[tuple[int, int, str]]:
    """The first gap in the closure of Gamma, or None when it is closed.

    Objects P ascending, and for each P first ``(P, Q, "overgroup missing")``
    for a subgroup Q >= P of ``base`` outside Gamma (Q ascending), then
    ``(P, f, "conjugate missing")`` for the first f with P <= S_f and c_f(P)
    outside Gamma, where S_f = ``s_masks[f]`` and c_f = ``cmaps[f]``.
    """
    for P in sorted(gamma):
        for Q in base.subgroup_masks():
            if P & Q == P and Q not in gamma:
                return (P, Q, "overgroup missing")
        for f, dom in enumerate(s_masks):
            if P & dom == P and translate_mask(P, cmaps[f]) not in gamma:
                return (P, f, "conjugate missing")
    return None


def _validate_gamma(
    base: FiniteGroup,
    gamma: frozenset[int],
    s_masks: Sequence[int],
    cmaps: Sequence[dict[int, int]],
) -> None:
    """Gamma must be nonempty subgroups, closed under overgroups and each c_f on S_f."""
    if not gamma:
        raise NotClosed("empty object set")
    strays = gamma - set(base.subgroup_masks())
    if strays:
        raise NotClosed(f"object {min(strays)} is not a subgroup mask")
    gap = object_set_gap(base, gamma, s_masks, cmaps)
    if gap is not None:
        P, x, kind = gap
        if kind == "overgroup missing":
            raise NotClosed(f"not closed under overgroups: {base.subgroup_label(x)}")
        raise NotClosed(f"not closed under conjugation: {base.subgroup_label(P)}")


def locality_from_group(
    G: FiniteGroup,
    s_mask: int,
    gamma: Iterable[int],
    p: int,
    s_real: Optional[RealizedSubgroup] = None,
) -> Locality:
    """The locality on {g : S cap S^g in Gamma} with the restricted product,
    S the Sylow p-subgroup ``s_mask`` of G."""
    if popcount(s_mask) != p_part(G.order, p):
        raise NotSylow(f"{G.subgroup_label(s_mask)} is not Sylow in {G.label}")
    real = s_real if s_real is not None else G.as_group(s_mask)
    base = real.group
    gamma = frozenset(gamma)

    # c_g on S_g for every g in G; all later steps read this one table
    cmaps = conjugation_partials(G, real, range(G.order))
    s_masks = [image_mask(cmap.keys()) for cmap in cmaps]
    _validate_gamma(base, gamma, s_masks, cmaps)

    # carrier: g with S cap S^g in Gamma (= the domain of c_{g^-1})
    carrier = [g for g in range(G.order) if s_masks[G.inv(g)] in gamma]
    pos = {g: i for i, g in enumerate(carrier)}
    inv = tuple(pos[G.inv(g)] for g in carrier)
    s_ids = tuple(pos[x] for x in real.to_parent)

    # in a group S_(a,b) = S_a cap S_ab.  targets[sa][g] is the carrier id
    # of g = ab when S_a = sa and S_(a,b) is an object, else -1; a product
    # that leaves the carrier reads -2, which the constructor refuses
    position = [pos.get(g, -2) for g in range(G.order)]
    targets: dict[int, list[int]] = {}
    rows = []
    for ga in carrier:
        sa = s_masks[ga]
        tgt = targets.get(sa)
        if tgt is None:
            tgt = [t if (sa & m) in gamma else -1 for t, m in zip(position, s_masks)]
            targets[sa] = tgt
        grow = G.row(ga)
        rows.append(array("i", map(tgt.__getitem__, map(grow.__getitem__, carrier))))

    return Locality(
        size=len(carrier),
        inv=inv,
        rows=rows,
        s_ids=s_ids,
        s_group=base,
        delta=gamma,
        p=p,
        label=f"L({G.label})",
        conj_s=tuple(cmaps[g] for g in carrier),
        source_group=G,
        source_ids=tuple(carrier),
    )


# ---------------------------------------------------------------------------
# axiom verification


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    witness: Optional[str] = None


@dataclass(frozen=True)
class LocalityAxiomReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[AxiomCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def verify_locality(L: Locality) -> LocalityAxiomReport:
    """Check the partial-group and locality axioms, with witnesses.

    Associativity and the word-domain rule are exhaustive for words of
    length <= 2; length-3 words are exhaustive only while the total stays
    under ``WORD_CAP`` and are otherwise sampled, and length-4 words are
    sampled, all with seed ``WORD_SEED``.  The converse of the domain rule
    at length >= 3 ("fold defined implies word in domain") is not an axiom
    of partial groups and is not checked.  The report is kept on ``L`` and
    returned by later calls.
    """
    if L._axioms is not None:
        return L._axioms
    checks: list[AxiomCheck] = []
    rng = random.Random(WORD_SEED)
    n = L.size

    def check(name: str, ok: bool, witness: Optional[str] = None) -> None:
        checks.append(AxiomCheck(name, ok, witness if not ok else None))

    # inversion is an involutory bijection fixing the identity
    ok = (
        sorted(L.inv) == list(range(n))
        and all(L.inv[L.inv[x]] == x for x in range(n))
        and L.inv[0] == 0
    )
    check("inversion-involutory", ok, "inv map malformed")

    # identity laws
    rows, s_of, pre, delta = L.rows, L._s_of, L.preimage, L.delta
    bad = None
    for x in range(n):
        if rows[0][x] != x or rows[x][0] != x:
            bad = x
            break
    check("identity-laws", bad is None, f"element {bad}" if bad is not None else None)

    # binary domain rule, both directions; S_(a,b) is the preimage of S_b under c_a
    bad = None
    for a in range(n):
        row = rows[a]
        for b in range(n):
            indom = pre(a, s_of[b]) in delta
            if indom != (row[b] >= 0):
                bad = (a, b, "missing" if indom else "extra")
                break
        if bad:
            break
    check("binary-domain-rule", bad is None, str(bad))

    # left cancellation: ab = c implies a^-1 c = b; and a a^-1 = 1
    bad = None
    for a in range(n):
        back = rows[L.inv[a]]
        for b, c in enumerate(rows[a]):
            if c >= 0 and back[c] != b:
                bad = (a, b, "left cancellation")
                break
        if bad:
            break
    if bad is None:
        for a in range(n):
            if rows[a][L.inv[a]] != 0:
                bad = (a, "inverse product")
                break
    check("cancellation", bad is None, str(bad))

    # word-domain rule and associativity at length 3 (capped); pairs (w, S_w),
    # the exhaustive words sharing S_(b,c) across a
    triples: Iterable[tuple[tuple[int, int, int], int]]
    if n**3 <= WORD_CAP:
        suffixes = [(b, c, pre(b, s_of[c])) for b in range(n) for c in range(n)]
        triples = (((a, b, c), pre(a, m)) for a in range(n) for b, c, m in suffixes)
    else:
        letters = draws(rng, n)
        sampled = islice(zip(letters, letters, letters), WORD_CAP // 10)
        triples = ((w, pre(w[0], pre(w[1], s_of[w[2]]))) for w in sampled)
    bad = None
    for w, sw in triples:
        if not L.s_group.is_subgroup_mask(sw):
            bad = (w, "S_w is not a subgroup")
            break
        if sw not in delta:
            continue
        a, b, c = w
        ab = rows[a][b]
        bc = rows[b][c]
        if ab < 0 or bc < 0:
            bad = (w, "fold undefined on domain word")
            break
        left = rows[ab][c]
        if left < 0 or left != rows[a][bc]:
            bad = (w, "bracketings disagree")
            break
        if sw & ~s_of[left]:
            bad = (w, "S_w not inside S of the product")
            break
    check("length3-domain-and-associativity", bad is None, str(bad))

    # length-4 sampled associativity over domain words: all five bracketings
    # ((ab)c)d, (ab)(cd), (a(bc))d, a((bc)d) and a(b(cd)) defined and equal
    bad = None
    count4 = min(WORD_CAP // 20, n**4)
    letters = draws(rng, n)
    for a, b, c, d in islice(zip(letters, letters, letters, letters), count4):
        if pre(a, pre(b, pre(c, s_of[d]))) not in delta:
            continue
        ra = rows[a]
        ab, bc, cd = ra[b], rows[b][c], rows[c][d]
        if ab >= 0 and bc >= 0 and cd >= 0:
            ab_c, a_bc, bc_d, b_cd = rows[ab][c], ra[bc], rows[bc][d], rows[b][cd]
            if ab_c >= 0 and a_bc >= 0 and bc_d >= 0 and b_cd >= 0:
                v = rows[ab_c][d]
                if v >= 0 and v == rows[ab][cd] == rows[a_bc][d] == ra[bc_d] == ra[b_cd]:
                    continue
        bad = ((a, b, c, d), "length-4 bracketings disagree or undefined")
        break
    check("length4-associativity-sampled", bad is None, str(bad))

    # (L1) no p-subgroup properly contains S
    smask_ids = set(L.s_ids)
    cap = 1
    while cap * L.p <= n:
        cap *= L.p
    bad = None
    for x in range(n):
        if x in smask_ids:
            continue
        grown = _try_close_total(L, smask_ids | {x}, cap)
        if grown is not None:
            size = len(grown)
            if size == p_part(size, L.p) and size > len(L.s_ids):
                bad = x
                break
    check("L1-sylow-maximality", bad is None, None if bad is None else f"element {bad} extends S")

    # (L3) closure of Delta
    bad = object_set_gap(L.s_group, delta, L._s_of, L.conj_s)
    check("L3-delta-closure", bad is None, str(bad))

    # S_f in Delta and S_f^f = S_{f^-1}
    bad = None
    for f in range(n):
        sf = L.s_of(f)
        if sf not in L.delta:
            bad = (f, "S_f not an object")
            break
        img = L.conj_mask(sf, f)
        if img != L.s_of(L.inv[f]):
            bad = (f, "S_f^f != S_{f^-1}")
            break
    check("s-of-objects", bad is None, str(bad))

    # normalizers of objects are subgroups
    bad = None
    for P in L.objects_sorted():
        gap = L.subgroup_gap(L.normalizer_ids(P), total=True)
        if gap is not None:
            bad = (P, *gap)
            break
    check("object-normalizers-are-groups", bad is None, str(bad))

    # conjugation maps against binary folds
    bad = None
    for f in range(n):
        for i, j in L.conj_s[f].items():
            s = L.s_ids[i]
            a = rows[L.inv[f]][s]
            if a < 0 or rows[a][f] != L.s_ids[j]:
                bad = (f, s)
                break
        if bad:
            break
    check("conjugation-matches-folds", bad is None, str(bad))

    L._axioms = LocalityAxiomReport(checks=tuple(checks))
    return L._axioms


def _try_close_total(L: Locality, start: set[int], cap: int) -> Optional[set[int]]:
    """Close a subset under products/inverses requiring totality.

    Returns the closed set, or None when some needed product is undefined or
    the size exceeds ``cap`` (then it cannot be a p-subgroup bigger than S).
    """
    members = set(start)
    for x in list(members):
        members.add(L.inv[x])
    frontier = list(members)
    rows = L.rows
    while frontier:
        added = []
        for a in list(members):
            for b in frontier:
                for c in (rows[a][b], rows[b][a]):
                    if c < 0:
                        return None
                    if c not in members:
                        members.add(c)
                        added.append(c)
                        if len(members) > cap:
                            return None
        frontier = added
    return members


# ---------------------------------------------------------------------------
# partial normal subgroups and quotients


@dataclass(frozen=True)
class QuotientData:
    source: Locality
    normal_subgroup: frozenset[int]  # carrier ids of ``source``
    quotient: Locality
    projection: tuple[int, ...]
    # S -> S-bar on s_group indices: s_index[i] indexes the image of s_ids[i]
    s_index: tuple[int, ...]


def is_partial_normal(L: Locality, members: Iterable[int]) -> bool:
    mem = frozenset(members)
    if 0 not in mem or L.subgroup_gap(mem, total=False) is not None:
        return False
    for f in range(L.size):
        for x in mem:
            y = L.conj_elem(x, f)
            if y is not None and y not in mem:
                return False
    return True


def right_coset(L: Locality, members: frozenset[int], f: int) -> frozenset[int]:
    out = {f}
    for x in members:
        y = L.rows[x][f]
        if y >= 0:
            out.add(y)
    return frozenset(out)


def quotient(L: Locality, members: Iterable[int]) -> QuotientData:
    """Quotient of L by a partial normal subgroup (maximal right cosets)."""
    mem = frozenset(members)
    if not is_partial_normal(L, mem):
        raise NotPartialNormal("subset is not a partial normal subgroup")
    cosets_all = {right_coset(L, mem, f) for f in range(L.size)}
    maximal = [
        c
        for c in cosets_all
        if not any(c is not d and c < d for d in cosets_all)
    ]
    covered: dict[int, int] = {}
    maximal.sort(key=min)
    for idx, c in enumerate(maximal):
        for x in c:
            if x in covered:
                raise VerificationFailed(
                    f"maximal right cosets do not partition: element {x}"
                )
            covered[x] = idx
    if len(covered) != L.size:
        raise VerificationFailed("maximal right cosets do not cover the carrier")
    if maximal[covered[0]] != mem:
        raise VerificationFailed("kernel coset differs from the normal subset")

    n = len(maximal)
    proj = tuple(covered[x] for x in range(L.size))

    inv = []
    for c in maximal:
        targets = {proj[L.inv[x]] for x in c}
        if len(targets) != 1:
            raise VerificationFailed("inversion ill-defined on cosets")
        inv.append(targets.pop())

    rows = []
    for ca in maximal:
        row = array("i", [-1]) * n
        for ib, cb in enumerate(maximal):
            vals = set()
            for a in ca:
                ra = L.rows[a]
                for b in cb:
                    c = ra[b]
                    if c >= 0:
                        vals.add(proj[c])
            if len(vals) > 1:
                raise VerificationFailed("coset product ill-defined")
            if vals:
                row[ib] = vals.pop()
        rows.append(row)

    sbar_ids = tuple(sorted({proj[x] for x in L.s_ids}))

    def mul(a: int, b: int) -> int:
        c = rows[a][b]
        if c < 0:
            raise VerificationFailed("image of S not closed in quotient")
        return c

    names = tuple(
        "[" + L.element_label(min(c)) + "]" for c in maximal
    )
    s_group, ordered = group_from_elements(
        sorted(sbar_ids), mul, label=f"S({L.label})/N", names=lambda q: names[q]
    )
    # Delta-bar: images of objects
    spos = {x: i for i, x in enumerate(ordered)}
    s_index = tuple(spos[proj[x]] for x in L.s_ids)
    delta_bar = {translate_mask(P, s_index) for P in L.delta}

    # conjugation on S-bar from word lifts
    conj_s = []
    for ib in range(n):
        cmap: dict[int, int] = {}
        cb = maximal[ib]
        for si, qb in enumerate(ordered):
            targets = set()
            for s in maximal[qb]:
                for f in cb:
                    t = L.conj_elem(s, f)
                    if t is not None:
                        targets.add(proj[t])
            if len(targets) > 1:
                raise VerificationFailed("quotient conjugation ill-defined")
            if targets:
                t = targets.pop()
                if t in spos:
                    cmap[si] = spos[t]
        conj_s.append(cmap)

    quot = Locality(
        size=n,
        inv=tuple(inv),
        rows=rows,
        s_ids=tuple(ordered),
        s_group=s_group,
        delta=frozenset(delta_bar),
        p=L.p,
        label=f"{L.label}/N",
        elt_names=names,
        conj_s=tuple(conj_s),
    )
    return QuotientData(
        source=L,
        normal_subgroup=mem,
        quotient=quot,
        projection=proj,
        s_index=s_index,
    )


# ---------------------------------------------------------------------------
# restrictions


def restriction(L: Locality, delta_sub: Iterable[int]) -> Locality:
    """The restriction of L to a smaller object set Gamma, over L's own S.

    Its carrier is the f with S_f in Gamma; products and conjugation entries
    are kept on the words w with S_w in Gamma.
    """
    gamma = frozenset(delta_sub)
    if not gamma <= L.delta:
        raise NotClosed("object set not contained in Delta")
    _validate_gamma(L.s_group, gamma, L._s_of, L.conj_s)
    label = f"{L.label}|restricted"
    carrier = tuple(f for f in range(L.size) if L.s_of(f) in gamma)
    pos = {f: i for i, f in enumerate(carrier)}
    rows = []
    for fa in carrier:
        src = L.rows[fa]
        row = array("i", [-1]) * len(carrier)
        for ib, fb in enumerate(carrier):
            ab = src[fb]
            if ab >= 0 and L.preimage(fa, L.s_of(fb)) in gamma:
                target = pos.get(ab)
                if target is None:
                    raise VerificationFailed(f"restricted product leaves {label}")
                row[ib] = target
        rows.append(row)
    conj_s = tuple(
        {
            i: j
            for i, j in sorted(L.conj_s[f].items())
            if L.s_of_word((L.inv[f], L.s_ids[i], f)) in gamma
        }
        for f in carrier
    )
    return Locality(
        size=len(carrier),
        inv=tuple(pos[L.inv[f]] for f in carrier),
        rows=rows,
        s_ids=tuple(pos[x] for x in L.s_ids),
        s_group=L.s_group,
        delta=gamma,
        p=L.p,
        label=label,
        elt_names=tuple(L.element_label(f) for f in carrier),
        conj_s=conj_s,
        source_group=L.source_group,
        source_ids=tuple(L.source_ids[f] for f in carrier)
        if L.source_ids is not None
        else None,
    )


# ---------------------------------------------------------------------------
# transporter category


@dataclass(frozen=True)
class TransporterCategory:
    locality: Locality
    objects: tuple[int, ...]
    morphisms: tuple[tuple[int, int, int], ...]  # (f, src index, dst index)
    aut_orders: tuple[int, ...]
    rho_kernel_sizes: tuple[int, ...]


def transporter_category(L: Locality) -> TransporterCategory:
    """The category with objects Delta and morphisms (f, P, Q), P^f <= Q."""
    objects = L.objects_sorted()
    obj_index = {P: i for i, P in enumerate(objects)}
    morphisms = []
    for f in range(L.size):
        sf = L.s_of(f)
        for P in objects:
            if sf & P != P:
                continue
            img = L.conj_mask(P, f)
            for Q in objects:
                if img & Q == img:
                    morphisms.append((f, obj_index[P], obj_index[Q]))
    morphisms.sort()
    aut_orders = []
    rho_kernels = []
    for i, P in enumerate(objects):
        auts = [m for m in morphisms if m[1] == i and m[2] == i]
        norm = L.normalizer_ids(P)
        if len(auts) != len(norm):
            raise VerificationFailed(
                f"Aut_T mismatch with N_L at {L.s_group.subgroup_label(P)}"
            )
        aut_orders.append(len(auts))
        cent = L.centralizer_ids(P)
        members = tuple(bits(P))
        kern = [
            f
            for (f, a, b) in auts
            if all(L.conj_s[f].get(j) == j for j in members)
        ]
        if set(kern) != set(cent):
            raise VerificationFailed("rho kernel differs from C_L(P)")
        rho_kernels.append(len(kern))
    return TransporterCategory(
        locality=L,
        objects=objects,
        morphisms=tuple(morphisms),
        aut_orders=tuple(aut_orders),
        rho_kernel_sizes=tuple(rho_kernels),
    )


def transporter_to_json(tc: TransporterCategory) -> dict:
    out = transporter_head_json(tc)
    out["morphisms"] = [{"f": f, "src": a, "dst": b} for (f, a, b) in tc.morphisms]
    return out


def transporter_head_json(tc: TransporterCategory) -> dict:
    """``transporter_to_json`` without its ``morphisms`` list."""
    L = tc.locality
    return {
        "objects": [
            {
                "index": i,
                "order": popcount(P),
                "label": L.s_group.subgroup_label(P),
                "aut_order": tc.aut_orders[i],
                "rho_kernel": tc.rho_kernel_sizes[i],
            }
            for i, P in enumerate(tc.objects)
        ],
        "aut_orders": {str(i): tc.aut_orders[i] for i in range(len(tc.objects))},
    }


def transporter_to_dot(tc: TransporterCategory, collapse: bool = False) -> str:
    L = tc.locality
    lines = ["digraph transporter {"]
    for i, P in enumerate(tc.objects):
        label = f"{L.s_group.subgroup_label(P)}\\norder {popcount(P)}"
        lines.append(f'  n{i} [label="{label}", shape=box];')
    if collapse:
        counts: dict[tuple[int, int], int] = {}
        for (f, a, b) in tc.morphisms:
            counts[(a, b)] = counts.get((a, b), 0) + 1
        for (a, b) in sorted(counts):
            lines.append(f'  n{a} -> n{b} [label="{counts[(a, b)]}"];')
    else:
        for (f, a, b) in tc.morphisms:
            lines.append(f'  n{a} -> n{b} [label="{L.element_label(f)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def locality_to_json(L: Locality) -> dict:
    out = locality_head_json(L)
    out["products"] = [
        [a, b, c] for a, row in enumerate(L.rows) for b, c in enumerate(row) if c >= 0
    ]
    return out


def locality_head_json(L: Locality) -> dict:
    """``locality_to_json`` without its ``products`` list."""
    return {
        "label": L.label,
        "carrier_size": L.size,
        "p": L.p,
        "identity": 0,
        "elements": [L.element_label(x) for x in range(L.size)],
        "inverse": list(L.inv),
        "s": list(L.s_ids),
        "delta": [
            {
                "order": popcount(P),
                "label": L.s_group.subgroup_label(P),
                "members": [L.s_ids[i] for i in bits(P)],
            }
            for P in L.objects_sorted()
        ],
    }
