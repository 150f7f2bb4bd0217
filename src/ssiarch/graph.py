"""Actor dependency graphs with deterministic DOT and TSV exports.

D-edges carry depends(A, B, NFR) relations; O-edges annotate ownership
as a labeled self-edge on the owning node, keeping the graph free of
separate NFR nodes. Node and edge order is canonical (o, i, v, w, s;
then NFR ordinal), which fixes output bytes for golden-file testing."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ssiarch.dsl import GLOBAL_SYSTEM_ID, SystemModel
from ssiarch.kb import ACTOR_ORDER, ActorKind, DependencyRelation, NfrKey, OwnershipMap


class EdgeKind(enum.Enum):
    DEPENDENCY = "D"
    OWNERSHIP = "O"


#: The kinds whose relations follow the owner-wallet binding.
_BOUND_KINDS = {ActorKind.DATA_OWNER, ActorKind.WALLET}


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
    model: SystemModel | None = None,
) -> DepGraph:
    """One node per actor kind, or per declared instance when a model is
    given; a D-edge per relation and an O-edge per (owner, NFR) pair.
    Owner-wallet relations link each wallet only to the owner it is
    bound to. Only nodes used by some edge appear. Edges are built in
    canonical order (source, target, NFR), so nothing is sorted."""
    if model is None:
        # KB scope is model scope with one instance per kind, the one
        # wallet bound to the one owner.
        by_kind = {kind: (kind.code,) for kind in ACTOR_ORDER}
        bindings = [("o", "w")]
    else:
        by_kind = {kind: tuple(a.id for a in model.actors_of(kind)) for kind in ACTOR_ORDER}
        by_kind[ActorKind.WALLET] = tuple(w.id for w in model.wallets)
        by_kind[ActorKind.GLOBAL_SYSTEM] = (GLOBAL_SYSTEM_ID,)
        bindings = [(w.owner_ref, w.id) for w in model.wallets]
    partner = {owner: (wallet,) for owner, wallet in bindings}
    partner.update({wallet: (owner,) for owner, wallet in bindings})

    # NFRs per (source kind, target kind). Owned NFRs go under (kind,
    # kind), which no relation uses: DependencyRelation rejects a kind
    # depending on itself.
    owned = ownership.owners if isinstance(ownership, OwnershipMap) else ownership or {}
    triples = [rel.triple for rel in relations]
    triples += [(kind, kind, nfr) for nfr, kinds in owned.items() for kind in kinds]
    nfrs_of: dict[tuple[ActorKind, ActorKind], list[NfrKey]] = {}
    for src_kind, dst_kind, nfr in triples:
        nfrs_of.setdefault((src_kind, dst_kind), []).append(nfr)
    for nfrs in nfrs_of.values():
        nfrs.sort()

    edges: list[tuple[str, str, NfrKey, EdgeKind]] = []
    used: set[str] = set()
    for src_kind in ACTOR_ORDER:
        for src in by_kind[src_kind]:
            for dst_kind in ACTOR_ORDER:
                nfrs = nfrs_of.get((src_kind, dst_kind), ())
                if dst_kind is src_kind:
                    dsts, kind = (src,), EdgeKind.OWNERSHIP
                elif {src_kind, dst_kind} == _BOUND_KINDS:
                    dsts, kind = partner.get(src, ()), EdgeKind.DEPENDENCY
                else:
                    dsts, kind = by_kind[dst_kind], EdgeKind.DEPENDENCY
                if nfrs and dsts:
                    edges.extend([(src, dst, nfr, kind) for dst in dsts for nfr in nfrs])
                    used.add(src)
                    used.update(dsts)
    nodes = tuple(node for kind in ACTOR_ORDER for node in by_kind[kind] if node in used)
    return DepGraph(nodes=nodes, edges=tuple(edges))


def _dot_id(node: str) -> str:
    if node and (node[0].isalpha() or node[0] == "_") and all(
        c.isalnum() or c == "_" for c in node
    ):
        return node
    return '"' + node.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(graph: DepGraph) -> str:
    """Valid DOT digraph; byte-identical for equal graphs. An id that is
    not a plain identifier is quoted, with `\\` and `"` escaped."""
    ids = {node: _dot_id(node) for node in graph.nodes}
    lines = ["digraph deps {", *(f"  {ids[node]};" for node in graph.nodes)]
    for src, dst, nfr, kind in graph.edges:
        lines.append(f'  {ids[src]} -> {ids[dst]} [label="{kind.value}:{nfr.name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


#: TSV id escapes, so an id is always one field on one line.
_TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\r": "\\r", "\n": "\\n"})


def to_tsv(graph: DepGraph) -> str:
    """Line-oriented export: from<TAB>to<TAB>kind<TAB>nfr. In ids, `\\`,
    TAB, CR and LF are written as `\\\\`, `\\t`, `\\r` and `\\n`."""
    ids = {node: node.translate(_TSV_ESCAPES) for node in graph.nodes}
    lines = [f"{ids[s]}\t{ids[d]}\t{kind.value}\t{nfr.name}" for s, d, nfr, kind in graph.edges]
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
