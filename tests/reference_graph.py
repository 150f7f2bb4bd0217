"""A set-and-sort graph builder and per-edge DOT and TSV writers, kept as
the reference that `ssiarch.graph` must agree with: the same nodes, the
same edges in the same order, and the same output bytes. The builder
collects every edge into a set, then sorts nodes and edges by (kind
rank, declaration index); the writers format one line per edge. Nothing
in `src/` uses them."""

from __future__ import annotations

from itertools import product

from ssiarch.dsl import GLOBAL_SYSTEM_ID, SystemModel
from ssiarch.graph import _TSV_ESCAPES, EdgeKind, _dot_id
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


def reference_to_dot(nodes, edges) -> str:
    """The DOT text `to_dot` must write for (nodes, edges): one line per
    node, then one formatted line per edge."""
    ids = {node: _dot_id(node) for node in nodes}
    lines = ["digraph deps {", *(f"  {ids[node]};" for node in nodes)]
    for src, dst, nfr, kind in edges:
        lines.append(f'  {ids[src]} -> {ids[dst]} [label="{kind.value}:{nfr.name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_to_tsv(nodes, edges) -> str:
    """The TSV text `to_tsv` must write for (nodes, edges): one formatted
    line per edge."""
    ids = {node: node.translate(_TSV_ESCAPES) for node in nodes}
    lines = [f"{ids[s]}\t{ids[d]}\t{kind.value}\t{nfr.name}" for s, d, nfr, kind in edges]
    return "\n".join(lines) + ("\n" if lines else "")
