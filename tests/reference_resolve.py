"""A model resolver that looks each id up in a table of declaration nodes
and tests the node's type, kept as the reference that
`ssiarch.dsl.resolve` must agree with: the same model, and the same
findings in the same order, with the same messages and spans. It builds
each finding where it arises. Nothing in `src/` uses it."""

from __future__ import annotations

from ssiarch.dsl import (
    ActorDecl,
    ActorNode,
    ModelNode,
    ResolveResult,
    SystemModel,
    WalletDecl,
)
from ssiarch.findings import Finding, Severity, SourceSpan
from ssiarch.kb import (
    ACTOR_RANK,
    GLOBAL_SYSTEM_ID,
    PRIMARY_ACTORS,
    ActorKind,
    DependencyRelation,
    KnowledgeBase,
    NfrKey,
    PatternSource,
    Provenance,
)


def reference_resolve(tree: ModelNode, kb: KnowledgeBase) -> ResolveResult:
    """Resolve identifier references, validate claims and patterns, and
    enforce model invariants. Unknown pattern names are warnings (the
    complete pattern catalogs live in extension files)."""
    findings: list[Finding] = []

    def error(rule: str, subject: str, message: str, span: SourceSpan) -> None:
        findings.append(Finding(Severity.ERROR, rule, subject, message, span))

    ids: dict[str, ActorNode | WalletDecl] = {}
    for node in [*tree.actors, *tree.wallets]:
        if node.id in ids:
            message = f"id {node.id!r} is declared more than once"
            error("model.duplicate-id", node.id, message, node.span)
        else:
            ids[node.id] = node
        if node.id == GLOBAL_SYSTEM_ID:
            message = f"id {node.id!r} is reserved for the global system"
            error("model.duplicate-id", node.id, message, node.span)

    for kind in PRIMARY_ACTORS:
        if not any(a.kind == kind for a in tree.actors):
            message = f"model declares no {kind.long_name} actor"
            error("model.missing-actor", kind.long_name, message, tree.span)

    def nfr_key(ordinal: int | None, subject: str, span: SourceSpan) -> NfrKey | None:
        try:
            return NfrKey(ordinal)
        except ValueError:
            name = "NFR key with that many digits" if ordinal is None else f"NFR{ordinal}"
            error("model.unknown-nfr", subject, f"{name} is not a known NFR key", span)
            return None

    actors: list[ActorDecl] = []
    for node in tree.actors:
        keys = (nfr_key(claim.value, node.id, claim.span) for claim in node.claims)
        claims = {key for key in keys if key is not None}
        patterns: set[tuple[PatternSource, str]] = set()
        for ref in node.patterns:
            patterns.add((ref.source, ref.name))
            if kb.find_pattern(ref.source, ref.name) is None:
                findings.append(
                    Finding(
                        Severity.WARNING,
                        "model.unknown-pattern",
                        node.id,
                        f"pattern {ref.name!r} is not in catalog {ref.source.value} "
                        "of the loaded knowledge base",
                        ref.span,
                    )
                )
        actors.append(
            ActorDecl(
                kind=node.kind,
                id=node.id,
                patterns=tuple(sorted(patterns, key=lambda p: (p[0].value, p[1]))),
                claims=tuple(sorted(claims)),
                span=node.span,
            )
        )
    actors.sort(key=lambda a: ACTOR_RANK[a.kind])

    wallets: list[WalletDecl] = []
    owners_with_wallet: set[str] = set()
    for node in tree.wallets:
        target = ids.get(node.owner_ref)
        if not isinstance(target, ActorNode) or target.kind != ActorKind.DATA_OWNER:
            message = (
                f"wallet {node.id!r} is bound to {node.owner_ref!r}, "
                "which is not a declared data owner"
            )
            error("model.unresolved-ref", node.id, message, node.span)
            continue
        if node.owner_ref in owners_with_wallet:
            message = f"data owner {node.owner_ref!r} already has a wallet"
            error("model.duplicate-wallet", node.id, message, node.span)
            continue
        owners_with_wallet.add(node.owner_ref)
        wallets.append(node)

    def kind_of(ref: str) -> ActorKind | None:
        target = ids.get(ref)
        if isinstance(target, ActorNode):
            return target.kind
        if isinstance(target, WalletDecl):
            return ActorKind.WALLET
        return None

    deps: set[DependencyRelation] = set()
    for node in tree.deps:
        depender = kind_of(node.depender_ref)
        dependee = kind_of(node.dependee_ref)
        bad = False
        for ref, kind in ((node.depender_ref, depender), (node.dependee_ref, dependee)):
            if kind is None:
                message = f"dependency references undeclared id {ref!r}"
                error("model.unresolved-ref", ref, message, node.span)
                bad = True
        if bad:
            continue
        nfr = nfr_key(node.ordinal, node.depender_ref, node.span)
        if nfr is None:
            continue
        if depender == dependee:
            message = (
                f"dependency endpoints {node.depender_ref!r} and "
                f"{node.dependee_ref!r} resolve to the same actor kind"
            )
            error("model.self-dependency", node.depender_ref, message, node.span)
            continue
        deps.add(
            DependencyRelation(
                depender=depender,  # type: ignore[arg-type]
                dependee=dependee,  # type: ignore[arg-type]
                nfr=nfr,
                provenance=Provenance.EXTENSION,
            )
        )

    if any(f.severity is Severity.ERROR for f in findings):
        return ResolveResult(model=None, findings=findings)
    model = SystemModel(
        name=tree.name,
        actors=tuple(actors),
        wallets=tuple(wallets),
        explicit_deps=tuple(sorted(deps, key=DependencyRelation.sort_key)),
    )
    return ResolveResult(model=model, findings=findings)
