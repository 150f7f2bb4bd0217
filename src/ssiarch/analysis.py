"""Executable categorization checks: claim consistency against the
responsibility matrix, pattern coverage and gap detection, rule-based
dependency derivation with a diff against the authoritative relation
set, responsibility statistics, and constraint classification."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ssiarch.findings import Finding, Severity
from ssiarch.kb import (
    PRIMARY_ACTORS,
    ActorKind,
    DependencyRelation,
    KnowledgeBase,
    NfrKey,
    Provenance,
    ResponsibilityLevel,
)

if TYPE_CHECKING:
    from ssiarch.dsl import SystemModel


#: Claim finding per matrix level: severity, rule, and the message phrase
#: that follows the claimant, with {} standing for the claimed NFR.
_CLAIM_FINDINGS = {
    ResponsibilityLevel.NONE: (
        Severity.ERROR,
        "claims.no-responsibility",
        "claims {} but holds no responsibility for it",
    ),
    ResponsibilityLevel.SECONDARY: (
        Severity.WARNING,
        "claims.secondary",
        "claims {} but only supports its fulfilment",
    ),
    ResponsibilityLevel.TERTIARY: (
        Severity.WARNING,
        "claims.tertiary",
        "claims {} but only benefits from its fulfilment",
    ),
    ResponsibilityLevel.PRIMARY: (Severity.INFO, "claims.ok", "legitimately claims {}"),
}


def check_claims(model: SystemModel, kb: KnowledgeBase) -> list[Finding]:
    """Check every (actor, claimed NFR) pair against the matrix.

    A claim on a cell with no responsibility is an error: an actor cannot
    guarantee fulfilment of something it plays no part in. Secondary and
    tertiary cells are warnings (a supporting or benefiting role cannot
    guarantee fulfilment either, but has a stake). Primary cells are fine.
    Additionally, claiming an NFR whose owner set excludes the actor's
    kind while the cell is not primary is an ownership error."""
    findings: list[Finding] = []
    for actor in model.actors:
        who = f"{actor.kind.long_name} {actor.id!r}"
        for nfr in actor.claims:
            level = kb.matrix.level(nfr, actor.kind)
            what = kb.label(nfr)
            severity, rule, phrase = _CLAIM_FINDINGS[level]
            findings.append(
                Finding(severity, rule, actor.id, f"{who} {phrase.format(what)}", actor.span)
            )
            if (
                actor.kind not in kb.ownership[nfr]
                and level is not ResponsibilityLevel.PRIMARY
            ):
                findings.append(
                    Finding(
                        Severity.ERROR,
                        "claims.ownership",
                        actor.id,
                        f"{who} claims {what} without owning it or holding primary responsibility",
                        actor.span,
                    )
                )
    return findings


def derive_dependencies(kb: KnowledgeBase) -> frozenset[DependencyRelation]:
    """Derive depends(A, B, NFR) edges from the matrix and ownership.

    R1: every secondary/tertiary actor depends on every primary actor
        for the same NFR (with several guarantors, all are relied upon).
    R2: if the wallet co-owns an NFR for which the data owner is primary,
        the owner depends on the wallet to enforce it.
    R2': if the wallet is the sole owner and the data owner has any
        responsibility level, the owner depends on the wallet's service.
    R3: if the global system is the sole owner, every actor with any
        responsibility level depends on the system."""
    derived: set[DependencyRelation] = set()

    def emit(depender: ActorKind, dependee: ActorKind, nfr: NfrKey, rule: str) -> None:
        derived.add(
            DependencyRelation(
                depender=depender,
                dependee=dependee,
                nfr=nfr,
                rationale=f"derived by rule {rule}",
                provenance=Provenance.DERIVED,
            )
        )

    for nfr in NfrKey:
        levels = {a: kb.matrix.level(nfr, a) for a in PRIMARY_ACTORS}
        primaries = [a for a, lvl in levels.items() if lvl is ResponsibilityLevel.PRIMARY]
        owners = kb.ownership[nfr]
        for actor, level in levels.items():
            if level in (ResponsibilityLevel.SECONDARY, ResponsibilityLevel.TERTIARY):
                for primary in primaries:
                    if primary != actor:
                        emit(actor, primary, nfr, "R1")
        owner_level = levels[ActorKind.DATA_OWNER]
        if ActorKind.WALLET in owners and owner_level is ResponsibilityLevel.PRIMARY:
            emit(ActorKind.DATA_OWNER, ActorKind.WALLET, nfr, "R2")
        if owners == {ActorKind.WALLET} and owner_level is not ResponsibilityLevel.NONE:
            emit(ActorKind.DATA_OWNER, ActorKind.WALLET, nfr, "R2'")
        if owners == {ActorKind.GLOBAL_SYSTEM}:
            for actor, level in levels.items():
                if level is not ResponsibilityLevel.NONE:
                    emit(actor, ActorKind.GLOBAL_SYSTEM, nfr, "R3")
    return frozenset(derived)


@dataclass(frozen=True)
class DependencyDiff:
    """Three-way partition of an authoritative relation set against a
    derived one. Relations compare on (depender, dependee, nfr) only."""

    matched: frozenset[DependencyRelation]
    missing_from_derived: frozenset[DependencyRelation]
    extra_in_derived: frozenset[DependencyRelation]


def diff_dependencies(
    authoritative: frozenset[DependencyRelation] | set[DependencyRelation],
    derived: frozenset[DependencyRelation] | set[DependencyRelation],
) -> DependencyDiff:
    authoritative = frozenset(authoritative)
    derived = frozenset(derived)
    return DependencyDiff(
        matched=authoritative & derived,
        missing_from_derived=authoritative - derived,
        extra_in_derived=derived - authoritative,
    )


@dataclass(frozen=True)
class CoverageReport:
    """Which NFRs some design pattern supports. In KB scope, an NFR is
    covered iff any pattern in the KB supports it; in model scope, iff a
    declared actor implements a supporting pattern. covered and uncovered
    partition the 24 keys. scope is "kb" or "model"."""

    covered: dict[NfrKey, frozenset[tuple[str, str | None]]]
    uncovered: frozenset[NfrKey]
    scope: str


def coverage(kb: KnowledgeBase, model: SystemModel | None = None) -> CoverageReport:
    if model is None:
        pairs = [(pattern, None) for pattern in kb.patterns]
    else:
        pairs = [
            (kb.find_pattern(source, name), actor.id)
            for actor in model.actors
            for source, name in actor.patterns
        ]
    covered: dict[NfrKey, set[tuple[str, str | None]]] = {}
    for pattern, actor_id in pairs:
        if pattern is None:
            continue
        for nfr in pattern.supported_nfrs:
            covered.setdefault(nfr, set()).add((pattern.name, actor_id))
    return CoverageReport(
        covered={k: frozenset(v) for k, v in sorted(covered.items())},
        uncovered=frozenset(k for k in NfrKey if k not in covered),
        scope="kb" if model is None else "model",
    )


#: Primary-responsibility sets as claimed in the source categorization
#: discussion; the matrix itself disagrees on two cells (see
#: responsibility_stats).
CLAIMED_PRIMARIES: dict[ActorKind, frozenset[NfrKey]] = {
    ActorKind.DATA_OWNER: frozenset(
        NfrKey(n) for n in (1, 3, 4, 6, 7, 12, 14, 15, 16, 17, 19)
    ),
    ActorKind.ISSUER: frozenset(NfrKey(n) for n in (2, 5, 6, 11, 20, 21)),
    ActorKind.VERIFIER: frozenset(NfrKey(n) for n in (6, 14, 15, 21, 24)),
}


@dataclass(frozen=True)
class ResponsibilityStats:
    primary_counts: dict[ActorKind, int]
    primary_nfrs: dict[ActorKind, frozenset[NfrKey]]
    claimed_counts: dict[ActorKind, int]
    discrepancies: tuple[str, ...]


def responsibility_stats(kb: KnowledgeBase) -> ResponsibilityStats:
    """Count primary-responsibility cells per actor and compare with the
    claimed figures, naming the differing NFR keys instead of silently
    matching either side."""
    primary_nfrs: dict[ActorKind, frozenset[NfrKey]] = {}
    for actor in PRIMARY_ACTORS:
        primary_nfrs[actor] = frozenset(
            nfr
            for nfr in NfrKey
            if kb.matrix.level(nfr, actor) is ResponsibilityLevel.PRIMARY
        )
    discrepancies: list[str] = []
    for actor in PRIMARY_ACTORS:
        computed = primary_nfrs[actor]
        claimed = CLAIMED_PRIMARIES[actor]
        if computed != claimed:
            only_matrix = [k.name for k in sorted(computed - claimed)]
            only_claimed = [k.name for k in sorted(claimed - computed)]
            parts = [f"{actor.long_name}: matrix count {len(computed)} vs claimed {len(claimed)}"]
            if only_matrix:
                parts.append(f"in matrix only: {', '.join(only_matrix)}")
            if only_claimed:
                parts.append(f"in claimed list only: {', '.join(only_claimed)}")
            discrepancies.append("; ".join(parts))
    return ResponsibilityStats(
        primary_counts={a: len(primary_nfrs[a]) for a in PRIMARY_ACTORS},
        primary_nfrs=primary_nfrs,
        claimed_counts={a: len(CLAIMED_PRIMARIES[a]) for a in PRIMARY_ACTORS},
        discrepancies=tuple(discrepancies),
    )


def classify_constraints(kb: KnowledgeBase) -> frozenset[NfrKey]:
    """NFRs that act as system constraints: owned only by the wallet or
    the global system, with no primary actor among the owners."""
    infra = {ActorKind.WALLET, ActorKind.GLOBAL_SYSTEM}
    return frozenset(
        nfr
        for nfr in NfrKey
        if kb.ownership[nfr] & infra and not kb.ownership[nfr] - infra
    )
