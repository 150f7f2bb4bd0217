"""Typed, immutable knowledge base: the 24-entry NFR catalog, the
responsibility matrix, the ownership map, the built-in actor dependency
relations, and the built-in design-pattern mapping."""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping


class KbError(Exception):
    """Base error for knowledge-base construction and lookup failures."""


class NfrKey(enum.IntEnum):
    """One of the 24 catalogued non-functional requirements."""

    NFR1 = 1
    NFR2 = 2
    NFR3 = 3
    NFR4 = 4
    NFR5 = 5
    NFR6 = 6
    NFR7 = 7
    NFR8 = 8
    NFR9 = 9
    NFR10 = 10
    NFR11 = 11
    NFR12 = 12
    NFR13 = 13
    NFR14 = 14
    NFR15 = 15
    NFR16 = 16
    NFR17 = 17
    NFR18 = 18
    NFR19 = 19
    NFR20 = 20
    NFR21 = 21
    NFR22 = 22
    NFR23 = 23
    NFR24 = 24


def nfr_ordinal(digits: str) -> int | None:
    """The number spelled by ASCII `digits`, or None when it has more
    significant digits than int() converts; no NFR key is that large."""
    try:
        return int(digits.lstrip("0") or "0")
    except ValueError:
        return None


def parse_nfr_key(text: str) -> NfrKey:
    """Parse "NFR1".."NFR24", `NFR` then ASCII digits as in the DSL;
    raises KbError on anything else."""
    t = text.strip()
    if t.startswith("NFR") and (digits := t[3:]).isascii() and digits.isdigit():
        try:
            return NfrKey(nfr_ordinal(digits))
        except ValueError:  # out of range, or too long to have an ordinal
            pass
    raise KbError(f"unknown NFR key: {text!r} (expected NFR1..NFR24)")


class ActorKind(enum.Enum):
    """The five architectural roles. Short codes follow the o/i/v/w/s
    notation used throughout the toolkit's outputs."""

    DATA_OWNER = "o"
    ISSUER = "i"
    VERIFIER = "v"
    WALLET = "w"
    GLOBAL_SYSTEM = "s"

    @property
    def code(self) -> str:
        return self.value

    @property
    def long_name(self) -> str:
        return _ACTOR_LONG_NAMES[self]

    @classmethod
    def from_name(cls, name: str) -> "ActorKind":
        """Accepts long names ("owner", "issuer", ...) and o/i/v/w/s codes."""
        key = name.strip().lower()
        if key in _ACTOR_ALIASES:
            return _ACTOR_ALIASES[key]
        raise KbError(f"unknown actor name: {name!r}")


_ACTOR_LONG_NAMES = {
    ActorKind.DATA_OWNER: "owner",
    ActorKind.ISSUER: "issuer",
    ActorKind.VERIFIER: "verifier",
    ActorKind.WALLET: "wallet",
    ActorKind.GLOBAL_SYSTEM: "system",
}

_ACTOR_ALIASES: dict[str, ActorKind] = {}
for _kind, _long in _ACTOR_LONG_NAMES.items():
    _ACTOR_ALIASES[_long] = _kind
    _ACTOR_ALIASES[_kind.value] = _kind

#: Actors that appear as columns of the responsibility matrix.
PRIMARY_ACTORS = (ActorKind.DATA_OWNER, ActorKind.ISSUER, ActorKind.VERIFIER)

#: Canonical actor order (o, i, v, w, s) of every sorted output, and
#: each kind's rank in it.
ACTOR_ORDER = tuple(ActorKind)
ACTOR_RANK = {kind: rank for rank, kind in enumerate(ACTOR_ORDER)}

#: Node id of the implicit global system in model-scoped graphs; no
#: declared actor or wallet may take it.
GLOBAL_SYSTEM_ID = "system"


class ResponsibilityLevel(enum.Enum):
    PRIMARY = "primary"
    SECONDARY = "secondary"
    TERTIARY = "tertiary"
    NONE = "none"


class Provenance(enum.Enum):
    BUILT_IN = "built-in"
    EXTENSION = "extension"
    DERIVED = "derived"


class PatternSource(enum.Enum):
    """The two design-pattern catalogs the built-in mapping draws from."""

    A = "A"
    B = "B"

    @classmethod
    def _missing_(cls, value: object) -> None:
        raise ValueError(f"unknown pattern source {value!r} (expected A or B)")


@dataclass(frozen=True)
class NfrEntry:
    key: NfrKey
    name: str
    description: str

    def __post_init__(self) -> None:
        if not self.name or not self.description:
            raise KbError(f"{self.key.name}: name and description must be non-empty")


@dataclass(frozen=True)
class ResponsibilityMatrix:
    """Total mapping (NfrKey x primary actor) -> ResponsibilityLevel.

    Wallet and global system are never matrix columns; they participate
    only through ownership."""

    cells: Mapping[tuple[NfrKey, ActorKind], ResponsibilityLevel]

    def __post_init__(self) -> None:
        expected = {(k, a) for k in NfrKey for a in PRIMARY_ACTORS}
        if set(self.cells) != expected:
            raise KbError("responsibility matrix must cover exactly 24 x 3 cells")
        object.__setattr__(self, "cells", MappingProxyType(dict(self.cells)))

    def level(self, nfr: NfrKey, actor: ActorKind) -> ResponsibilityLevel:
        if actor not in PRIMARY_ACTORS:
            raise KbError(
                f"actor {actor.long_name!r} has no responsibility column; "
                "only owner/issuer/verifier do"
            )
        return self.cells[(nfr, actor)]


@dataclass(frozen=True)
class OwnershipMap:
    """Maps each NFR to the non-empty set of actors owning it."""

    owners: Mapping[NfrKey, frozenset[ActorKind]]

    def __post_init__(self) -> None:
        if set(self.owners) != set(NfrKey):
            raise KbError("ownership map must cover all 24 NFR keys")
        for key, actors in self.owners.items():
            if not actors:
                raise KbError(f"{key.name}: owner set must be non-empty")
        object.__setattr__(
            self,
            "owners",
            MappingProxyType({k: frozenset(v) for k, v in self.owners.items()}),
        )

    def __getitem__(self, nfr: NfrKey) -> frozenset[ActorKind]:
        return self.owners[nfr]


@dataclass(frozen=True)
class DependencyRelation:
    """One depends(A, B, NFR) edge: A relies on B to fulfil the NFR.

    Identity (equality, hashing) is the (depender, dependee, nfr) triple;
    rationale and provenance are carried along but do not distinguish
    relations."""

    depender: ActorKind
    dependee: ActorKind
    nfr: NfrKey
    rationale: str = field(default="", compare=False)
    provenance: Provenance = field(default=Provenance.BUILT_IN, compare=False)

    def __post_init__(self) -> None:
        if self.depender == self.dependee:
            raise KbError(f"self-dependency on {self.nfr.name} is not allowed")

    @property
    def triple(self) -> tuple[ActorKind, ActorKind, NfrKey]:
        return (self.depender, self.dependee, self.nfr)

    def sort_key(self) -> tuple[int, int, NfrKey]:
        """Canonical relation order: depender, dependee, then NFR."""
        return (ACTOR_RANK[self.depender], ACTOR_RANK[self.dependee], self.nfr)

    def __str__(self) -> str:
        return f"({self.depender.code}, {self.dependee.code}, {self.nfr.name})"


@dataclass(frozen=True)
class PatternEntry:
    """A named design pattern and the NFRs it declares support for.

    Identity is (source, name): the same name in both catalogs is two
    distinct entries."""

    name: str
    source: PatternSource
    supported_nfrs: frozenset[NfrKey]

    def __post_init__(self) -> None:
        if not self.name:
            raise KbError("pattern name must be non-empty")
        object.__setattr__(self, "supported_nfrs", frozenset(self.supported_nfrs))


@dataclass(frozen=True)
class KnowledgeBase:
    """Immutable aggregate of catalog, matrix, ownership, dependency
    relations, and pattern mapping. Safe to share across threads."""

    catalog: tuple[NfrEntry, ...]
    matrix: ResponsibilityMatrix
    ownership: OwnershipMap
    dependencies: frozenset[DependencyRelation]
    patterns: tuple[PatternEntry, ...]

    def __post_init__(self) -> None:
        keys = [e.key for e in self.catalog]
        if sorted(keys) != list(NfrKey):
            raise KbError("catalog must cover all 24 NFR keys exactly once")
        names = [e.name for e in self.catalog]
        if len(set(names)) != len(names):
            raise KbError("catalog names must be unique")
        idents = [(p.source, p.name) for p in self.patterns]
        if len(set(idents)) != len(idents):
            raise KbError("pattern (source, name) identities must be unique")
        object.__setattr__(self, "dependencies", frozenset(self.dependencies))

    def entry(self, nfr: NfrKey) -> NfrEntry:
        return self.catalog[nfr - 1]

    def label(self, nfr: NfrKey) -> str:
        return f"{nfr.name} ({self.entry(nfr).name})"

    def lookup_responsibility(self, nfr: NfrKey, actor: ActorKind) -> ResponsibilityLevel:
        """Exact matrix cell; raises KbError for wallet/system actors."""
        return self.matrix.level(nfr, actor)

    def find_pattern(self, source: PatternSource, name: str) -> PatternEntry | None:
        for p in self.patterns:
            if p.source == source and p.name == name:
                return p
        return None


# --- built-in data -----------------------------------------------------

_CATALOG_ROWS: tuple[tuple[str, str], ...] = (
    ("Accessibility", "User must be able to access and retrieve data"),
    ("Authenticity", "Source of identity data must be trustworthy and provable"),
    ("Autonomy", "User must be able to manage their identity independently"),
    ("Availability", "Identity data must be available at any time"),
    ("Compatibility", "Identity data must be compatible with legacy systems"),
    ("Consent", "User must explicitly consent to the use of their data"),
    ("Control", "User must be able to control access to their identity data"),
    ("Cost", "All components must have minimal costs"),
    ("Decentralization", "All components should not rely on centralized elements"),
    (
        "Existence",
        "User identity must have an independent existence without relying on other services",
    ),
    (
        "Interoperability",
        "Identity data must be usable across different platforms and services",
    ),
    (
        "Persistence",
        "Identity data must remain valid and accessible for as long as necessary",
    ),
    ("Portability", "User must be able to move their identity data"),
    ("Privacy", "User must be able to minimize information required to share"),
    ("Protection", "Identity data must be protected against misuse"),
    (
        "Recoverability",
        "User must be able to recover identity data in case of loss and compromise",
    ),
    ("Representation", "Users must be able to create multiple identities"),
    ("Security", "All components must ensure the data is secure"),
    ("Single Source", "User must be the single authoritative source of their identity"),
    ("Standard", "Credentials must adhere to open standards"),
    ("Transparency", "Information about data use must be readily available"),
    ("Usability", "User must be able to use their data efficiently and intuitively"),
    (
        "User Experience",
        "Identity management process must be simple, consistent, and user-friendly",
    ),
    ("Verifiability", "Identity data must be verifiable"),
)

_LEVELS = {
    "P": ResponsibilityLevel.PRIMARY,
    "S": ResponsibilityLevel.SECONDARY,
    "T": ResponsibilityLevel.TERTIARY,
    "-": ResponsibilityLevel.NONE,
}

# Per NFR: (owner level, verifier level, issuer level, owner codes).
_MATRIX_ROWS: tuple[tuple[str, str, str, str], ...] = (
    ("P", "T", "-", "ow"),  # NFR1
    ("T", "S", "P", "i"),  # NFR2
    ("P", "-", "-", "o"),  # NFR3
    ("P", "-", "-", "ow"),  # NFR4
    ("T", "S", "P", "i"),  # NFR5
    ("P", "P", "P", "o"),  # NFR6
    ("P", "-", "-", "ow"),  # NFR7
    ("T", "T", "T", "s"),  # NFR8
    ("T", "T", "T", "s"),  # NFR9
    ("P", "-", "-", "o"),  # NFR10
    ("T", "S", "P", "i"),  # NFR11
    ("P", "-", "-", "o"),  # NFR12
    ("T", "-", "-", "w"),  # NFR13
    ("P", "P", "S", "ovi"),  # NFR14
    ("P", "-", "-", "ow"),  # NFR15
    ("P", "-", "-", "w"),  # NFR16
    ("P", "-", "-", "o"),  # NFR17
    ("T", "T", "T", "s"),  # NFR18
    ("P", "-", "-", "o"),  # NFR19
    ("T", "S", "P", "i"),  # NFR20
    ("T", "P", "P", "iv"),  # NFR21
    ("T", "-", "-", "w"),  # NFR22
    ("T", "-", "-", "w"),  # NFR23
    ("T", "P", "S", "vi"),  # NFR24
)

# Built-in depends(A, B, NFR) rows with their rationales.
_BUILTIN_DEPENDENCIES: tuple[tuple[str, str, int, str], ...] = (
    ("v", "o", 1, "Verifier relies on the data owner to present accessible credential data."),
    ("o", "w", 1, "The data owner depends on the wallet to provide access to data."),
    ("o", "i", 2, "The data owner relies on the validity of credentials."),
    ("v", "i", 2, "Verifier relies on a valid signature of a credential."),
    ("v", "o", 4, "Verifier depends on the data owner to provide credentials."),
    ("o", "w", 4, "The data owner depends on the wallet for the data to be accessible."),
    ("v", "i", 5, "Verifier relies on the issuer to issue a credential in a compatible format."),
    ("o", "i", 5, "The data owner depends on the issuer for a credential to be usable."),
)

_BUILTIN_PATTERNS: tuple[tuple[str, str, tuple[int, ...]], ...] = (
    ("Public Institution Registry", "A", (1,)),
    ("Trusted Schemas Registry", "A", (1,)),
    ("Status Registry", "A", (1, 4)),
    ("DID Registry", "A", (1, 4)),
    ("Public DIDs", "A", (1, 4)),
    ("Local (Private) Storage", "A", (1,)),
    ("External (Remote) Cloud Storage", "A", (1,)),
    ("Verifiable ID", "A", (2,)),
    ("Dual Resolution", "A", (2,)),
    ("Qualified Verifiable Credentials", "A", (2,)),
    ("Binding VCs and Qualified Electronic Certificates", "A", (2,)),
    ("Master and Sub Key Generation", "B", (4,)),
    ("Multiple Registration", "B", (4,)),
)


@functools.lru_cache(maxsize=1)
def builtin_kb() -> KnowledgeBase:
    """The knowledge base with all built-in data."""
    catalog = tuple(
        NfrEntry(NfrKey(i + 1), name, desc)
        for i, (name, desc) in enumerate(_CATALOG_ROWS)
    )
    cells: dict[tuple[NfrKey, ActorKind], ResponsibilityLevel] = {}
    owners: dict[NfrKey, frozenset[ActorKind]] = {}
    for i, (o_lvl, v_lvl, i_lvl, own) in enumerate(_MATRIX_ROWS):
        key = NfrKey(i + 1)
        cells[(key, ActorKind.DATA_OWNER)] = _LEVELS[o_lvl]
        cells[(key, ActorKind.VERIFIER)] = _LEVELS[v_lvl]
        cells[(key, ActorKind.ISSUER)] = _LEVELS[i_lvl]
        owners[key] = frozenset(ActorKind(c) for c in own)
    dependencies = frozenset(
        DependencyRelation(
            depender=ActorKind(a),
            dependee=ActorKind(b),
            nfr=NfrKey(n),
            rationale=why,
            provenance=Provenance.BUILT_IN,
        )
        for a, b, n, why in _BUILTIN_DEPENDENCIES
    )
    patterns = tuple(
        PatternEntry(name, PatternSource(src), frozenset(NfrKey(n) for n in nfrs))
        for name, src, nfrs in _BUILTIN_PATTERNS
    )
    return KnowledgeBase(
        catalog=catalog,
        matrix=ResponsibilityMatrix(cells),
        ownership=OwnershipMap(owners),
        dependencies=dependencies,
        patterns=patterns,
    )
