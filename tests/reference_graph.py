"""A set-and-sort graph builder, kept as the reference that
`ssiarch.graph.build_graph` must agree with: the same nodes and the same
edges in the same order. It collects every edge into a set, then sorts
nodes and edges by (kind rank, declaration index); nothing in `src/`
uses it."""

from __future__ import annotations

from itertools import product

from ssiarch.dsl import GLOBAL_SYSTEM_ID, SystemModel
from ssiarch.graph import EdgeKind
from ssiarch.kb import ACTOR_ORDER, ActorKind, NfrKey, OwnershipMap


def reference_build_graph(relations, ownership=None, model: SystemModel | None = None):
    """(nodes, edges) as `build_graph` defines them; KB scope when
    `model` is None, model scope otherwise."""
    if model is None:
        by_kind = {kind: [kind.code] for kind in ACTOR_ORDER}
        bindings = [("o", "w")]
    else:
        by_kind = {kind: [a.id for a in model.actors_of(kind)] for kind in ACTOR_ORDER}
        by_kind[ActorKind.WALLET] = [w.id for w in model.wallets]
        by_kind[ActorKind.GLOBAL_SYSTEM] = [GLOBAL_SYSTEM_ID]
        bindings = [(w.owner_ref, w.id) for w in model.wallets]
    position = {
        node: (rank, i)
        for rank, kind in enumerate(ACTOR_ORDER)
        for i, node in enumerate(by_kind[kind])
    }
    bound = {
        (ActorKind.DATA_OWNER, ActorKind.WALLET): bindings,
        (ActorKind.WALLET, ActorKind.DATA_OWNER): [(w, o) for o, w in bindings],
    }

    edges: set[tuple[str, str, NfrKey, EdgeKind]] = set()
    for rel in relations:
        kinds = (rel.depender, rel.dependee)
        pairs = bound[kinds] if kinds in bound else product(*(by_kind[k] for k in kinds))
        for src, dst in pairs:
            if src != dst:
                edges.add((src, dst, rel.nfr, EdgeKind.DEPENDENCY))
    owners = ownership.owners if isinstance(ownership, OwnershipMap) else ownership or {}
    for nfr, owner_kinds in owners.items():
        for kind in owner_kinds:
            for node in by_kind[kind]:
                edges.add((node, node, nfr, EdgeKind.OWNERSHIP))

    used = {src for src, _, _, _ in edges} | {dst for _, dst, _, _ in edges}
    nodes = tuple(sorted(used, key=position.__getitem__))
    ordered = tuple(
        sorted(edges, key=lambda e: (position[e[0]], position[e[1]], int(e[2]), e[3].value))
    )
    return nodes, ordered
