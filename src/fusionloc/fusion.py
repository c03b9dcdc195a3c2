"""Fusion systems over a finite p-group.

A fusion system is stored extensionally: for every subgroup ``P`` of the
carrier there is a set of morphisms with domain ``P``, each an injective
homomorphism into the carrier recorded as the tuple of images of the sorted
elements of ``P``.  All subgroups live as bitmasks over one fixed "base"
p-group, so subsystems (normalizers, centralizers, K-normalizers) share
coordinates with their parent and can be compared for equality directly.

``hom(P, Q)`` is derived by filtering morphisms from ``P`` whose image lies
inside ``Q``; inclusions are restrictions of the identity and are always
present.  Morphism sets are closed under composition, restriction and
inversion of isomorphisms.
"""

from __future__ import annotations

import weakref
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    FusionlocError,
    NotCentral,
    NotFullyKNormalized,
    NotNormal,
    NotSaturated,
    NotSylow,
    NotSylowInN,
    VerificationFailed,
)
from .groups import (
    FiniteGroup,
    QuotientGroup,
    RealizedSubgroup,
    bits,
    o_p_mask,
    p_part,
    popcount,
    quotient_group,
    translate_mask,
)

Morphism = tuple  # image tuple aligned with the sorted elements of the domain


# ---------------------------------------------------------------------------
# small morphism algebra


def image_mask(images: Morphism) -> int:
    out = 0
    for y in images:
        out |= 1 << y
    return out


def compose_maps(
    base: FiniteGroup, images1: Morphism, mid: int, images2: Morphism
) -> Morphism:
    """Apply images1 (into mid), then images2 (defined on mid)."""
    pos = {x: i for i, x in enumerate(base.mask_elements(mid))}
    return tuple(images2[pos[y]] for y in images1)


def invert_iso(base: FiniteGroup, dom: int, images: Morphism) -> tuple[int, Morphism]:
    """Inverse of an isomorphism; returns (new domain, images)."""
    delems = base.mask_elements(dom)
    pairs = sorted(zip(images, delems))
    return image_mask(images), tuple(x for _, x in pairs)


def morphism_label(base: FiniteGroup, dom: int, images: Morphism) -> str:
    pairs = zip(base.mask_elements(dom), images)
    inner = ", ".join(
        f"{base.element_label(x)}->{base.element_label(y)}" for x, y in pairs if x
    )
    return "{" + inner + "}" if inner else "{id}"


def induced_map(
    base: FiniteGroup, qbase: FiniteGroup, proj: Sequence[int], dom: int, images: Morphism
) -> Optional[Morphism]:
    """The map that ``images`` induces on ``translate_mask(dom, proj)``, where
    ``proj`` sends base indices to qbase indices; None when it is ill-defined."""
    induced: dict[int, int] = {}
    for x, y in zip(base.mask_elements(dom), images):
        if induced.setdefault(proj[x], proj[y]) != proj[y]:
            return None
    return tuple(induced[q] for q in qbase.mask_elements(translate_mask(dom, proj)))


def restrict_partial(partial: dict[int, int], t_mask: int) -> tuple[int, Morphism]:
    """(dom, images) of a partial index map on the i in T that it sends into T."""
    dom = 0
    for i, j in partial.items():
        if (t_mask >> i) & 1 and (t_mask >> j) & 1:
            dom |= 1 << i
    return dom, tuple(partial[i] for i in bits(dom))


def maps_from_partials(
    base: FiniteGroup, t_mask: int, partials: Iterable[dict[int, int]]
) -> dict[int, frozenset]:
    """For each subgroup P of T, the restrictions to P of those partial index
    maps that send all of P into T."""
    maps: dict[int, set] = {m: set() for m in base.subgroups_of(t_mask)}
    # equal partial maps give equal restrictions: read each once
    for partial in {tuple(p.items()): p for p in partials}.values():
        dom, _ = restrict_partial(partial, t_mask)
        for P in base.subgroups_of(dom):
            maps[P].add(tuple(partial[i] for i in base.mask_elements(P)))
    return {m: frozenset(s) for m, s in maps.items()}


# ---------------------------------------------------------------------------
# closure of generating morphisms


def close_morphism_sets(
    base: FiniteGroup, carrier: int, generators: Iterable[tuple[int, Morphism]]
) -> dict[int, frozenset]:
    """Close generators under restriction, composition and inversion.

    Conjugation maps by carrier elements are always included, so inclusions
    (restrictions of the identity) come for free.
    """
    maps_from: dict[int, set] = {m: set() for m in base.subgroups_of(carrier)}
    by_image: dict[int, list] = defaultdict(list)
    queue: deque = deque()

    def add(dom: int, images: Morphism) -> None:
        bucket = maps_from[dom]
        if images in bucket:
            return
        bucket.add(images)
        queue.append((dom, images))

    for t in base.mask_elements(carrier):
        add(carrier, base.conjugation_map(carrier, t))
    for dom, images in generators:
        add(dom, images)
        idom, iimages = invert_iso(base, dom, images)
        add(idom, iimages)

    while queue:
        dom, images = queue.popleft()
        im = image_mask(images)
        for sub in base.maximal_subgroups(dom):
            add(sub, base.restriction(dom, sub)(images))
        for psi in list(maps_from[im]):
            add(dom, compose_maps(base, images, im, psi))
        for dom2, images2 in by_image[dom]:
            add(dom2, compose_maps(base, images2, dom, images))
        by_image[im].append((dom, images))

    return {m: frozenset(s) for m, s in maps_from.items()}


# ---------------------------------------------------------------------------
# result records


@dataclass(frozen=True)
class Classification:
    """Membership flags of one subgroup in the standard collections."""

    subject: int
    centric: bool
    quasicentric: bool
    subcentric: bool
    radical: bool
    centric_radical: bool
    normal: bool
    central: bool
    fully_normalized: bool
    fully_centralized: bool


@dataclass(frozen=True)
class SixWay:
    """The six equivalent formulations of the subcentric condition."""

    all_normalizers_core_centric: bool      # every fully normalized conjugate
    some_normalizer_core_centric: bool
    all_normalizers_constrained: bool
    some_normalizer_constrained: bool
    all_centralizers_constrained: bool      # every fully centralized conjugate
    some_centralizer_constrained: bool

    def as_tuple(self) -> tuple[bool, ...]:
        return (
            self.all_normalizers_core_centric,
            self.some_normalizer_core_centric,
            self.all_normalizers_constrained,
            self.some_normalizer_constrained,
            self.all_centralizers_constrained,
            self.some_centralizer_constrained,
        )

    def agree(self) -> bool:
        return len(set(self.as_tuple())) == 1


@dataclass(frozen=True)
class FClassData:
    representative: int
    members: tuple[int, ...]
    fully_normalized_members: tuple[int, ...]
    fully_centralized_members: tuple[int, ...]


@dataclass(frozen=True)
class Subsystem:
    """A subsystem of F over T <= S, with whether its morphisms lie in F."""

    fusion: "FusionSystem"
    embedding_ok: bool


@dataclass(frozen=True)
class CentralQuotient:
    source: "FusionSystem"
    z_mask: int
    quotient: "FusionSystem"
    quotient_group: QuotientGroup

    def image_of_mask(self, mask: int) -> int:
        full = self.source.base.closure_mask(mask | self.z_mask)
        return translate_mask(full, self.quotient_group.projection)


# ---------------------------------------------------------------------------


# Every system the interning constructors return, by (base, carrier, p,
# morphism sets), held weakly: an entry lives while something else holds it
_SYSTEMS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _interned(
    base: FiniteGroup, carrier: int, p: int, maps_from: dict[int, frozenset],
    rebuild: Optional[Callable[[], "FusionSystem"]], label: str,
) -> "FusionSystem":
    """The system equal to these morphism sets over ``base``: the one built
    first, with its rebuild and label, or a new one."""
    key = (base, carrier, p, frozenset(maps_from.items()))
    out = _SYSTEMS.get(key)
    if out is None:
        out = _SYSTEMS[key] = FusionSystem(base, carrier, p, maps_from, rebuild, label)
    return out


class FusionSystem:
    """A fusion system over ``carrier`` inside the fixed base p-group.

    ``fusion_from_group``, ``subsystem_from_normal_subgroup``,
    ``locality_fusion``, ``local_subsystem``, ``quotient_mod_central`` and
    the verifier's E_loc intern their systems per base: systems whose carrier
    and morphism sets agree are one object, so their classes, saturation and
    classification are computed once.
    ``rebuild`` is None or a zero-argument callable that builds it again from
    the inputs it was first built from, for regeneration; it holds no
    ``FusionSystem`` or ``Locality``, so it closes no reference cycle.
    """

    def __init__(
        self,
        base: FiniteGroup,
        carrier: int,
        p: int,
        maps_from: dict[int, frozenset],
        rebuild: Optional[Callable[[], "FusionSystem"]],
        label: str = "F",
    ) -> None:
        self.base = base
        self.carrier = carrier
        self.p = p
        self.maps_from = maps_from
        self.rebuild = rebuild
        self.label = label
        self._classes: Optional[tuple[FClassData, ...]] = None
        self._class_of: dict[int, FClassData] = {}
        self._saturated: Optional[bool] = None
        self._saturation_witness: Optional[str] = None
        self._inner: Optional[bool] = None
        self._aut_groups: dict[int, tuple[FiniteGroup, tuple]] = {}
        # N^K(Q) by (Q, K); None stands for this system, which must not hold
        # itself, or only the cyclic collector could free it
        self._local: dict[tuple[int, frozenset], Optional["FusionSystem"]] = {}
        self._table: Optional[dict[int, Classification]] = None
        self._normals: Optional[tuple[int, ...]] = None
        self._center: Optional[int] = None
        self._strongly_closed: dict[int, bool] = {}
        self._cr_cache: Optional[tuple[dict[int, bool], dict[int, bool]]] = None

    # -- basic access --------------------------------------------------------

    def subgroups(self) -> tuple[int, ...]:
        return self.base.subgroups_of(self.carrier)

    def hom(self, P: int, Q: int) -> tuple[Morphism, ...]:
        return tuple(
            sorted(m for m in self.maps_from[P] if image_mask(m) & Q == image_mask(m))
        )

    def isos(self, P: int, Q: int) -> tuple[Morphism, ...]:
        return tuple(sorted(m for m in self.maps_from[P] if image_mask(m) == Q))

    def auts(self, P: int) -> tuple[Morphism, ...]:
        return self.isos(P, P)

    def inner_auts(self, P: int) -> frozenset:
        base = self.base
        n_mask = base.normalizer_mask(P) & self.carrier
        return frozenset(base.conjugation_map(P, t) for t in base.mask_elements(n_mask))

    def aut_group(self, P: int) -> tuple[FiniteGroup, tuple]:
        """Aut_F(P) as a group, element i being ``auts(P)[i]``; systems with
        equal Aut_F(P) over one base share the group."""
        got = self._aut_groups.get(P)
        if got is None:
            auts = self.auts(P)
            got = self._aut_groups[P] = (self.base.automorphism_group(P, auts), auts)
        return got

    # -- conjugacy classes ----------------------------------------------------

    def classes(self) -> tuple[FClassData, ...]:
        if self._classes is not None:
            return self._classes
        remaining = set(self.subgroups())
        out = []
        while remaining:
            seed = min(remaining)
            orbit = {seed}
            frontier = [seed]
            while frontier:
                nxt = []
                for P in frontier:
                    for m in self.maps_from[P]:
                        Q = image_mask(m)
                        if Q not in orbit:
                            orbit.add(Q)
                            nxt.append(Q)
                frontier = nxt
            members = tuple(sorted(orbit))
            norms = {P: popcount(self.base.normalizer_mask(P) & self.carrier) for P in members}
            cents = {P: popcount(self.base.centralizer_mask(P) & self.carrier) for P in members}
            max_n = max(norms.values())
            max_c = max(cents.values())
            data = FClassData(
                representative=members[0],
                members=members,
                fully_normalized_members=tuple(P for P in members if norms[P] == max_n),
                fully_centralized_members=tuple(P for P in members if cents[P] == max_c),
            )
            out.append(data)
            remaining -= orbit
        self._classes = tuple(out)
        for data in out:
            for P in data.members:
                self._class_of[P] = data
        return self._classes

    def class_of(self, P: int) -> FClassData:
        self.classes()
        return self._class_of[P]

    def is_fully_normalized(self, P: int) -> bool:
        return P in self.class_of(P).fully_normalized_members

    # -- saturation ------------------------------------------------------------

    def _fully_automized(self, P: int) -> bool:
        aut_s = set(self.inner_auts(P))
        # inner_auts uses the carrier normalizer, i.e. Aut_S(P)
        return len(aut_s) == p_part(len(self.auts(P)), self.p)

    def is_saturated(self) -> bool:
        if self._saturated is not None:
            return self._saturated
        ok = True
        witness = None
        for data in self.classes():
            good = False
            for P in data.members:
                if not self._fully_automized(P):
                    continue
                if self._has_receptive(P):
                    good = True
                    break
            if not good:
                ok = False
                witness = self.base.subgroup_label(data.representative)
                break
        self._saturated = ok
        self._saturation_witness = witness
        return ok

    def _has_receptive(self, P: int) -> bool:
        base = self.base
        aut_s = set(self.inner_auts(P))
        for Q in self.class_of(P).members:
            qpos = {x: i for i, x in enumerate(base.mask_elements(Q))}
            # c_g on Q for g in N_S(Q), as a map of Q's positions
            moves = [
                (g, [qpos[y] for y in base.conjugation_map(Q, g)])
                for g in base.mask_elements(base.normalizer_mask(Q) & self.carrier)
            ]
            for phi in self.isos(Q, P):
                # the position in Q of phi^-1(y), for y in P ascending
                back = [i for _, i in sorted(zip(phi, range(len(phi))))]
                n_phi = 0
                for g, move in moves:
                    if tuple([phi[move[i]] for i in back]) in aut_s:
                        n_phi |= 1 << g
                if _find_extension(self, n_phi, Q, phi) is None:
                    return False
        return True

    # -- normality, center, O_p ------------------------------------------------

    def is_strongly_closed(self, Q: int) -> bool:
        got = self._strongly_closed.get(Q)
        if got is None:
            got = all(
                image_mask(m) & Q == image_mask(m)
                for A in self.base.subgroups_of(Q)
                for m in self.maps_from[A]
            )
            self._strongly_closed[Q] = got
        return got

    def _normal_direct(self, Q: int) -> bool:
        base = self.base
        for A in self.subgroups():
            AQ = base.closure_mask(A | Q)
            for phi in self.maps_from[A]:
                found = False
                for psi in self.maps_from[AQ]:
                    if base.restriction(AQ, A)(psi) != phi:
                        continue
                    if image_mask(base.restriction(AQ, Q)(psi)) == Q:
                        found = True
                        break
                if not found:
                    return False
        return True

    def is_normal_in_fusion(self, Q: int) -> bool:
        """Normality in the fusion system (the whole system normalizes Q)."""
        if self.is_saturated():
            if not self.is_strongly_closed(Q):
                return False
            return all(Q & R == Q for R in self.centric_radical_masks())
        return self._normal_direct(Q)

    def normal_masks(self) -> tuple[int, ...]:
        if self._normals is None:
            self._normals = tuple(
                Q for Q in self.subgroups() if self.is_normal_in_fusion(Q)
            )
        return self._normals

    def o_p_of_fusion(self) -> int:
        out = 1
        for Q in self.normal_masks():
            out = self.base.closure_mask(out | Q)
        return out

    def is_central_mask(self, Q: int) -> bool:
        zt = self.base.centralizer_mask(self.carrier) & self.carrier
        return Q & zt == Q and subsystem_centralized_by(self, self, Q)

    def center_mask(self) -> int:
        if self._center is None:
            zt = self.base.centralizer_mask(self.carrier) & self.carrier
            out = 1
            for Q in self.base.subgroups_of(zt):
                if self.is_central_mask(Q):
                    out = self.base.closure_mask(out | Q)
            self._center = out
        return self._center

    def _cr_data(self) -> tuple[dict[int, bool], dict[int, bool]]:
        """Centric and radical flags per class representative (no recursion)."""
        if self._cr_cache is None:
            centric_of = {}
            radical_of = {}
            for data in self.classes():
                centric_of[data.representative] = self._is_centric_class(data)
                radical_of[data.representative] = self._is_radical_rep(data.representative)
            self._cr_cache = (centric_of, radical_of)
        return self._cr_cache

    def centric_radical_masks(self) -> tuple[int, ...]:
        centric_of, radical_of = self._cr_data()
        return tuple(
            Q
            for Q in self.subgroups()
            if centric_of[self.class_of(Q).representative]
            and radical_of[self.class_of(Q).representative]
        )

    # -- classification ----------------------------------------------------------

    def _is_centric_class(self, data: FClassData) -> bool:
        return all(
            self.base.centralizer_mask(P) & self.carrier & ~P == 0
            for P in data.members
        )

    def _is_radical_rep(self, P: int) -> bool:
        grp, ordered = self.aut_group(P)
        op = o_p_mask(grp, self.p)
        inner = self.base.mask_elements(P)
        inn_mask = 0
        index = {t: i for i, t in enumerate(ordered)}
        for x in inner:
            inn_mask |= 1 << index[self.base.conjugation_map(P, x)]
        return op == inn_mask

    def _is_quasicentric_class(self, data: FClassData) -> bool:
        for P in data.fully_centralized_members:
            cf = self.local_subsystem(P, trivial_kset(self.base, P))
            if not _is_inner_system(cf):
                return False
        return True

    def _is_subcentric_class(self, data: FClassData, centric_of: dict[int, bool]) -> bool:
        for P in data.fully_normalized_members:
            nf = self.local_subsystem(P, full_aut_kset(self, P))
            op = nf.o_p_of_fusion()
            if not centric_of[self.class_of(op).representative]:
                return False
        return True

    def classification_table(self) -> dict[int, Classification]:
        if self._table is not None:
            return self._table
        if not self.is_saturated():
            raise NotSaturated(
                f"{self.label} is not saturated (witness class "
                f"{self._saturation_witness})"
            )
        centric_of, radical_of = self._cr_data()
        quasi_of: dict[int, bool] = {}
        sub_of: dict[int, bool] = {}
        for data in self.classes():
            quasi_of[data.representative] = self._is_quasicentric_class(data)
            sub_of[data.representative] = self._is_subcentric_class(data, centric_of)
        z_mask = self.center_mask()
        table = {}
        for data in self.classes():
            rep = data.representative
            for P in data.members:
                centric = centric_of[rep]
                radical = radical_of[rep]
                table[P] = Classification(
                    subject=P,
                    centric=centric,
                    quasicentric=quasi_of[rep],
                    subcentric=sub_of[rep],
                    radical=radical,
                    centric_radical=centric and radical,
                    normal=self.is_normal_in_fusion(P),
                    central=P & z_mask == P,
                    fully_normalized=P in data.fully_normalized_members,
                    fully_centralized=P in data.fully_centralized_members,
                )
        self._table = table
        return table

    # -- six-way equivalence -------------------------------------------------------

    def subcentric_equivalences(self, Q: int) -> SixWay:
        if not self.is_saturated():
            raise NotSaturated(self.label)
        data = self.class_of(Q)
        table = self.classification_table()
        norm_core_centric = []
        norm_constrained = []
        for P in data.fully_normalized_members:
            nf = self.local_subsystem(P, full_aut_kset(self, P))
            op = nf.o_p_of_fusion()
            norm_core_centric.append(table[op].centric)
            norm_constrained.append(is_constrained(nf))
        cent_constrained = []
        for P in data.fully_centralized_members:
            cf = self.local_subsystem(P, trivial_kset(self.base, P))
            cent_constrained.append(is_constrained(cf))
        return SixWay(
            all_normalizers_core_centric=all(norm_core_centric),
            some_normalizer_core_centric=any(norm_core_centric),
            all_normalizers_constrained=all(norm_constrained),
            some_normalizer_constrained=any(norm_constrained),
            all_centralizers_constrained=all(cent_constrained),
            some_centralizer_constrained=any(cent_constrained),
        )

    # -- K-normalizers ----------------------------------------------------------

    def transported_k(self, Q: int, K: frozenset, phi: Morphism) -> frozenset:
        """K^phi over the image of phi."""
        base = self.base
        _, inv_images = invert_iso(base, Q, phi)
        out = set()
        for chi in K:
            comp = compose_maps(base, inv_images, Q, chi)
            out.add(compose_maps(base, comp, Q, phi))
        return frozenset(out)

    def k_normalizer_mask(self, Q: int, K: frozenset) -> int:
        base = self.base
        out = 0
        for t in base.mask_elements(base.normalizer_mask(Q) & self.carrier):
            if base.conjugation_map(Q, t) in K:
                out |= 1 << t
        return out

    def is_fully_k_normalized(self, Q: int, K: frozenset) -> bool:
        size = popcount(self.k_normalizer_mask(Q, K))
        for phi in self.maps_from[Q]:
            kphi = self.transported_k(Q, K, phi)
            if popcount(self.k_normalizer_mask(image_mask(phi), kphi)) > size:
                return False
        return True

    def local_subsystem(self, Q: int, K: frozenset) -> "FusionSystem":
        """The K-normalizer subsystem over N_S^K(Q), interned; saturation is
        not checked."""
        key = (Q, frozenset(K))
        if key not in self._local:
            out = self._k_normalizer_subsystem(*key)
            self._local[key] = None if out is self else out
        return self._local[key] or self

    def _k_normalizer_subsystem(self, Q: int, kset: frozenset) -> "FusionSystem":
        if not self.is_fully_k_normalized(Q, kset):
            raise NotFullyKNormalized(self.base.subgroup_label(Q))
        base = self.base
        new_carrier = self.k_normalizer_mask(Q, kset)
        # per AQ, the psi in Hom_F(AQ) with psi|_Q in K, and those of them
        # whose image leaves N_S^K(Q): only their restrictions can leave it
        chosen: dict[int, tuple[list[Morphism], list[Morphism]]] = {}
        maps: dict[int, frozenset] = {}
        for A in base.subgroups_of(new_carrier):
            AQ = base.closure_mask(A | Q)
            if AQ not in chosen:
                to_q = base.restriction(AQ, Q)
                selected, leaving = chosen[AQ] = ([], [])
                for psi in self.maps_from[AQ]:
                    qimg = to_q(psi)
                    if qimg in kset and image_mask(qimg) == Q:
                        selected.append(psi)
                        im = image_mask(psi)
                        if im & new_carrier != im:
                            leaving.append(psi)
            selected, leaving = chosen[AQ]
            to_a = base.restriction(AQ, A)
            for psi in leaving:
                phi = to_a(psi)
                if image_mask(phi) & new_carrier != image_mask(phi):
                    raise VerificationFailed(
                        "K-normalizer morphism leaves N_S^K(Q): "
                        + morphism_label(base, A, phi)
                    )
            maps[A] = frozenset(map(to_a, selected))
        return _interned(
            base,
            new_carrier,
            self.p,
            maps,
            None,
            f"N_{self.label}({base.subgroup_label(Q)})",
        )

    def normalizer_subsystem(self, Q: int) -> "FusionSystem":
        return self.local_subsystem(Q, full_aut_kset(self, Q))

    def centralizer_subsystem(self, Q: int) -> "FusionSystem":
        return self.local_subsystem(Q, trivial_kset(self.base, Q))

    def __repr__(self) -> str:  # pragma: no cover
        return f"FusionSystem({self.label}, |S|={popcount(self.carrier)}, p={self.p})"


def _find_extension(F: FusionSystem, n_phi: int, Q: int, phi: Morphism) -> Optional[Morphism]:
    base = F.base
    for psi in F.maps_from[n_phi]:
        if base.restriction(n_phi, Q)(psi) == phi:
            return psi
    return None


def _is_inner_system(F: FusionSystem) -> bool:
    """Whether F equals the fusion system of its own carrier p-group; decided
    once per system."""
    if F._inner is None:
        F._inner = _inner_direct(F)
    return F._inner


def _inner_direct(F: FusionSystem) -> bool:
    base = F.base
    for A in F.subgroups():
        inner = set()
        for t in base.mask_elements(F.carrier):
            m = base.conjugation_map(A, t)
            if image_mask(m) & F.carrier == image_mask(m):
                inner.add(m)
        if set(F.maps_from[A]) != inner:
            return False
    return True


# ---------------------------------------------------------------------------
# K sets


def full_aut_kset(F: FusionSystem, Q: int) -> frozenset:
    return frozenset(F.auts(Q))


def trivial_kset(base: FiniteGroup, Q: int) -> frozenset:
    return frozenset({base.mask_elements(Q)})


def normal_ksets(F: FusionSystem, Q: int) -> tuple[frozenset, ...]:
    """All normal subgroups of Aut_F(Q) as automorphism sets."""
    grp, ordered = F.aut_group(Q)
    out = []
    for mask in grp.normal_subgroup_masks():
        out.append(frozenset(ordered[i] for i in bits(mask)))
    return tuple(out)


# ---------------------------------------------------------------------------
# constructors and operations


def fusion_from_group(G: FiniteGroup, s_mask: int, p: int) -> FusionSystem:
    """The fusion system of G on its Sylow p-subgroup ``s_mask``."""
    if popcount(s_mask) != p_part(G.order, p):
        raise NotSylow(f"{G.subgroup_label(s_mask)} is not a Sylow {p}-subgroup of {G.label}")
    real = G.as_group(s_mask)
    base = real.group
    partials = conjugation_partials(G, real, range(G.order))
    return _interned(
        base,
        base.full_mask,
        p,
        maps_from_partials(base, base.full_mask, partials),
        partial(fusion_from_group, G, s_mask, p),
        f"F_{G.subgroup_label(s_mask)}({G.label})",
    )


def conjugation_partials(
    G: FiniteGroup, real: RealizedSubgroup, conjugators: Iterable[int]
) -> list[dict[int, int]]:
    """For each g in ``conjugators``, c_g on S cap S^(g^-1) as a partial index
    map {i: j} over the realized S, with keys in increasing order."""
    partials = []
    for g in conjugators:
        partial = {}
        for i, x in enumerate(real.to_parent):
            j = real.index_of.get(G.conj(x, g))
            if j is not None:
                partial[i] = j
        partials.append(partial)
    return partials


def abstract_fusion(
    base: FiniteGroup,
    p: int,
    generators: Sequence[tuple[int, Morphism]],
    label: str = "F",
) -> FusionSystem:
    """Close generating morphisms into a fusion system over the whole base."""
    carrier = base.full_mask
    generators = tuple(generators)
    maps = close_morphism_sets(base, carrier, generators)
    return FusionSystem(
        base, carrier, p, maps, partial(abstract_fusion, base, p, generators, label), label
    )


def locality_fusion(
    base: FiniteGroup, p: int, label: str, generators: tuple[tuple[int, Morphism], ...]
) -> FusionSystem:
    """F_S(L) of the locality named ``label`` over S = ``base``, closed from
    its conjugation maps c_f on S_f; takes L's generators, not L, so the
    system's rebuild holds no locality."""
    maps = close_morphism_sets(base, base.full_mask, generators)
    rebuild = partial(locality_fusion, base, p, label, generators)
    return _interned(base, base.full_mask, p, maps, rebuild, f"F_S({label})")


def is_constrained(F: FusionSystem) -> bool:
    """Whether O_p(F) is self-centralizing in the saturated system F."""
    if not F.is_saturated():
        raise NotSaturated(F.label)
    op = F.o_p_of_fusion()
    return F.base.centralizer_mask(op) & F.carrier & ~op == 0


def quotient_mod_central(F: FusionSystem, Z: int) -> CentralQuotient:
    """The quotient system F/Z for Z central in F, with correspondence maps."""
    if F.carrier != F.base.full_mask:
        raise FusionlocError("quotient_mod_central expects a system over its base")
    if Z & F.center_mask() != Z:
        raise NotCentral(F.base.subgroup_label(Z))
    base = F.base
    qg = quotient_group(base, Z)
    Sq = qg.group
    proj = qg.projection
    maps: dict[int, set] = {m: set() for m in Sq.subgroups_of(Sq.full_mask)}
    for A in F.subgroups():
        if A & Z != Z:
            continue
        a_img = translate_mask(A, proj)
        for psi in F.maps_from[A]:
            if image_mask(base.restriction(A, Z)(psi)) != Z:
                raise VerificationFailed("central subgroup not preserved")
            induced = induced_map(base, Sq, proj, A, psi)
            if induced is None:
                raise VerificationFailed("induced map ill-defined")
            maps[a_img].add(induced)
    quotient = _interned(
        Sq,
        Sq.full_mask,
        F.p,
        {m: frozenset(s) for m, s in maps.items()},
        None,
        f"{F.label}/{base.subgroup_label(Z)}",
    )
    return CentralQuotient(source=F, z_mask=Z, quotient=quotient, quotient_group=qg)


def subsystem_from_normal_subgroup(
    F: FusionSystem, G: FiniteGroup, real: RealizedSubgroup, n_mask: int
) -> Subsystem:
    """E = F_T(N), T = N cap S, for F = F_S(G) over ``real`` (S realized) and
    N normal in G."""
    if not G.is_subgroup_mask(n_mask) or not G.is_normal_mask(n_mask):
        raise NotNormal("N is not a normal subgroup of G")
    t_parent = n_mask & real.mask
    if p_part(popcount(n_mask), F.p) != popcount(t_parent):
        raise NotSylowInN("N cap S is not Sylow in N")
    E = _normal_subgroup_fusion(G, real, n_mask, F.p)
    embedding_ok = all(
        set(E.maps_from[A]) <= set(F.maps_from[A]) for A in E.subgroups()
    )
    return Subsystem(fusion=E, embedding_ok=embedding_ok)


def _normal_subgroup_fusion(
    G: FiniteGroup, real: RealizedSubgroup, n_mask: int, p: int
) -> FusionSystem:
    """F_T(N) over ``real``, from G, S, N and p alone: its rebuild holds no
    ambient F, which caches F_T(N) as a local subsystem and would close a
    reference cycle through it."""
    t_mask = real.mask_from_parent(n_mask & real.mask)
    partials = conjugation_partials(G, real, G.mask_elements(n_mask))
    return _interned(
        real.group,
        t_mask,
        p,
        maps_from_partials(real.group, t_mask, partials),
        partial(_normal_subgroup_fusion, G, real, n_mask, p),
        f"F_T(N<{G.label})",
    )


def subsystem_centralized_by(F: FusionSystem, E: FusionSystem, X: int) -> bool:
    """Whether every E-morphism extends to an F-morphism fixing X pointwise."""
    base = F.base
    idx = base.mask_elements(X)
    for A in E.subgroups():
        AX = base.closure_mask(A | X)
        for phi in E.maps_from[A]:
            if not any(
                base.restriction(AX, A)(psi) == phi
                and base.restriction(AX, X)(psi) == idx
                for psi in F.maps_from[AX]
            ):
                return False
    return True


def centralizer_in_S_of_subsystem(F: FusionSystem, E: FusionSystem) -> int:
    """The largest X <= C_S(T) with E <= C_F(X), by descending search."""
    base = F.base
    c_t = base.centralizer_mask(E.carrier) & F.carrier
    winners = [
        X for X in base.subgroups_of(c_t) if subsystem_centralized_by(F, E, X)
    ]
    best = max(winners, key=lambda m: (popcount(m), -m))
    for X in winners:
        if X & best != X:
            raise VerificationFailed(
                "centralizer of subsystem not unique: "
                f"{base.subgroup_label(X)} vs {base.subgroup_label(best)}"
            )
    return best


# ---------------------------------------------------------------------------
# comparisons


def maps_equal_under_index_map(
    F1: FusionSystem, F2: FusionSystem, idx: Sequence[int]
) -> bool:
    """Compare morphism sets under an element-index bijection base1 -> base2."""
    if translate_mask(F1.carrier, idx) != F2.carrier:
        return False
    for P in F1.subgroups():
        P2 = translate_mask(P, idx)
        target = F2.maps_from.get(P2)
        if target is None:
            return False
        translated = {induced_map(F1.base, F2.base, idx, P, m) for m in F1.maps_from[P]}
        if translated != target:
            return False
    return True


def fusion_isomorphic(F1: FusionSystem, F2: FusionSystem) -> Optional[tuple[int, ...]]:
    """Search for a carrier isomorphism carrying F1 to F2; None if none."""
    b1, b2 = F1.base, F2.base
    if F1.carrier != b1.full_mask or F2.carrier != b2.full_mask:
        raise FusionlocError("fusion_isomorphic expects systems over their bases")
    if b1.order != b2.order:
        return None
    gens = b1.mask_generators(b1.full_mask)
    # express every element as words in the generators
    expr: dict[int, tuple[int, int]] = {}
    frontier = [0]
    seen = {0}
    while frontier:
        nxt = []
        for x in frontier:
            for gi, g in enumerate(gens):
                y = b1.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    expr[y] = (x, gi)
                    nxt.append(y)
        frontier = nxt

    def build(images: Sequence[int]) -> Optional[tuple[int, ...]]:
        out = [0] * b1.order
        for y in sorted(expr, key=lambda e: _expr_depth(expr, e)):
            x, gi = expr[y]
            out[y] = b2.mul(out[x], images[gi])
        if len(set(out)) != b1.order:
            return None
        for a in range(b1.order):
            for b in range(b1.order):
                if out[b1.mul(a, b)] != b2.mul(out[a], out[b]):
                    return None
        return tuple(out)

    candidates = [
        [y for y in range(b2.order) if b2.element_order(y) == b1.element_order(g)]
        for g in gens
    ]

    def rec(i: int, chosen: list[int]) -> Optional[tuple[int, ...]]:
        if i == len(gens):
            idx = build(chosen)
            if idx is not None and maps_equal_under_index_map(F1, F2, idx):
                return idx
            return None
        for y in candidates[i]:
            got = rec(i + 1, chosen + [y])
            if got is not None:
                return got
        return None

    return rec(0, [])


def _expr_depth(expr: dict, y: int) -> int:
    d = 0
    while y in expr:
        y = expr[y][0]
        d += 1
    return d
