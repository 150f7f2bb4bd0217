"""Actor dependency graphs with deterministic DOT and TSV exports.

D-edges carry depends(A, B, NFR) relations; O-edges annotate ownership
as a labeled self-edge on the owning node, keeping the graph free of
separate NFR nodes. Node and edge order is canonical (o, i, v, w, s;
then NFR ordinal), which fixes output bytes for golden-file testing."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import product

from ssiarch.dsl import GLOBAL_SYSTEM_ID, SystemModel
from ssiarch.kb import ACTOR_ORDER, ActorKind, DependencyRelation, NfrKey, OwnershipMap


class EdgeKind(enum.Enum):
    DEPENDENCY = "D"
    OWNERSHIP = "O"


class GraphScope(enum.Enum):
    KB_ONLY = "kb"
    MODEL_SCOPED = "model"


@dataclass(frozen=True)
class DepGraph:
    """Value object: ordered node ids and ordered labeled edges."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, NfrKey, EdgeKind], ...]

    def __post_init__(self) -> None:
        node_set = set(self.nodes)
        for src, dst, _, _ in self.edges:
            if src not in node_set or dst not in node_set:
                raise ValueError(f"edge endpoint {src!r}->{dst!r} not in node list")


def build_graph(
    relations: frozenset[DependencyRelation] | set[DependencyRelation],
    ownership: OwnershipMap | dict[NfrKey, frozenset[ActorKind]] | None = None,
    scope: GraphScope = GraphScope.KB_ONLY,
    model: SystemModel | None = None,
) -> DepGraph:
    """One node per actor kind (KB scope) or per declared instance
    (model scope); a D-edge per relation and an O-edge per (owner, NFR)
    pair. Owner-wallet relations link each wallet only to the owner it
    is bound to. Only nodes used by some edge appear."""
    if scope is GraphScope.KB_ONLY:
        # KB scope is model scope with one instance per kind, the one
        # wallet bound to the one owner.
        by_kind = {kind: [kind.code] for kind in ACTOR_ORDER}
        bindings = [("o", "w")]
    elif model is None:
        raise ValueError("model-scoped graph requires a model")
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
    return DepGraph(nodes=nodes, edges=ordered)


def _dot_id(node: str) -> str:
    if node and (node[0].isalpha() or node[0] == "_") and all(
        c.isalnum() or c == "_" for c in node
    ):
        return node
    return '"' + node.replace('"', '\\"') + '"'


def to_dot(graph: DepGraph) -> str:
    """Valid DOT digraph; byte-identical for equal graphs."""
    lines = ["digraph deps {"]
    for node in graph.nodes:
        lines.append(f"  {_dot_id(node)};")
    for src, dst, nfr, kind in graph.edges:
        lines.append(f'  {_dot_id(src)} -> {_dot_id(dst)} [label="{kind.value}:{nfr.name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_tsv(graph: DepGraph) -> str:
    """Line-oriented export: from<TAB>to<TAB>kind<TAB>nfr."""
    lines = [f"{src}\t{dst}\t{kind.value}\t{nfr.name}" for src, dst, nfr, kind in graph.edges]
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class GraphStats:
    """Per-node in/out degree over D-edges, plus totals."""

    in_degree: dict[str, int]
    out_degree: dict[str, int]
    node_count: int
    d_edge_count: int
    o_edge_count: int


def graph_stats(graph: DepGraph) -> GraphStats:
    in_degree = {node: 0 for node in graph.nodes}
    out_degree = {node: 0 for node in graph.nodes}
    d_edges = 0
    o_edges = 0
    for src, dst, _, kind in graph.edges:
        if kind is EdgeKind.DEPENDENCY:
            out_degree[src] += 1
            in_degree[dst] += 1
            d_edges += 1
        else:
            o_edges += 1
    return GraphStats(
        in_degree=in_degree,
        out_degree=out_degree,
        node_count=len(graph.nodes),
        d_edge_count=d_edges,
        o_edge_count=o_edges,
    )
