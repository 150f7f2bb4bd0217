"""Actor dependency graphs with deterministic DOT and TSV exports.

D-edges carry depends(A, B, NFR) relations; O-edges annotate ownership
as a labeled self-edge on the owning node, keeping the graph free of
separate NFR nodes. Node and edge order is canonical (o, i, v, w, s;
then NFR ordinal), which fixes output bytes for golden-file testing."""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ssiarch.kb import ACTOR_ORDER, GLOBAL_SYSTEM_ID, ActorKind, NfrKey, OwnershipMap

if TYPE_CHECKING:
    from ssiarch.dsl import SystemModel
    from ssiarch.kb import DependencyRelation


class EdgeKind(enum.Enum):
    DEPENDENCY = "D"
    OWNERSHIP = "O"


#: The kinds whose relations follow the owner-wallet binding.
_BOUND_KINDS = {ActorKind.DATA_OWNER, ActorKind.WALLET}


#: One row: the edges from a source to each target, each labeled with
#: each NFR, in that order.
Row = tuple[str, EdgeKind, tuple[str, ...], tuple[NfrKey, ...]]


@dataclass(frozen=True)
class DepGraph:
    """Value object: ordered node ids and ordered edge rows. A row
    (src, kind, dsts, nfrs) covers one source and one target kind; rows
    in order list the edges in canonical order (source, target, NFR)."""

    nodes: tuple[str, ...]
    rows: tuple[Row, ...]

    def __post_init__(self) -> None:
        node_set = set(self.nodes)
        for src, _, dsts, nfrs in self.rows:
            if not (dsts and nfrs):
                raise ValueError(f"row from {src!r} has no edges")
            if src not in node_set or not node_set.issuperset(dsts):
                raise ValueError(f"row endpoint {src!r}->{dsts!r} not in node list")

    @property
    def edges(self) -> tuple[tuple[str, str, NfrKey, EdgeKind], ...]:
        """Every (src, dst, nfr, kind) edge in order, expanded from the rows."""
        return tuple(
            (src, dst, nfr, kind)
            for src, kind, dsts, nfrs in self.rows
            for dst in dsts
            for nfr in nfrs
        )


def build_graph(
    relations: frozenset[DependencyRelation] | set[DependencyRelation],
    ownership: OwnershipMap | dict[NfrKey, frozenset[ActorKind]] | None = None,
    model: SystemModel | None = None,
) -> DepGraph:
    """One node per actor kind, or per declared instance when a model is
    given; a D-edge per relation and an O-edge per (owner, NFR) pair.
    Owner-wallet relations link each wallet only to the owner it is
    bound to. Only nodes used by some edge appear. Rows are built in
    canonical order (source, target kind), so nothing is sorted."""
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
    nfr_lists: dict[tuple[ActorKind, ActorKind], list[NfrKey]] = {}
    for src_kind, dst_kind, nfr in triples:
        nfr_lists.setdefault((src_kind, dst_kind), []).append(nfr)
    nfrs_of = {pair: tuple(sorted(nfrs)) for pair, nfrs in nfr_lists.items()}

    rows: list[Row] = []
    used: set[str] = set()  # nodes used one by one
    used_kinds: set[ActorKind] = set()  # kinds whose every node is a target
    for src_kind in ACTOR_ORDER:
        targets = [
            (dst_kind, nfrs_of[src_kind, dst_kind])
            for dst_kind in ACTOR_ORDER
            if (src_kind, dst_kind) in nfrs_of
        ]
        for src in by_kind[src_kind]:
            for dst_kind, nfrs in targets:
                if dst_kind is src_kind:
                    dsts, kind = (src,), EdgeKind.OWNERSHIP
                elif {src_kind, dst_kind} == _BOUND_KINDS:
                    dsts, kind = partner.get(src, ()), EdgeKind.DEPENDENCY
                    used.update(dsts)
                else:
                    dsts, kind = by_kind[dst_kind], EdgeKind.DEPENDENCY
                    used_kinds.add(dst_kind)
                if dsts:
                    rows.append((src, kind, dsts, nfrs))
                    used.add(src)
    nodes = tuple(
        node
        for kind in ACTOR_ORDER
        for node in by_kind[kind]
        if kind in used_kinds or node in used
    )
    return DepGraph(nodes=nodes, rows=tuple(rows))


_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


def _dot_id(node: str) -> str:
    if (
        node
        and (node[0].isalpha() or node[0] == "_")
        and all(c.isalnum() or c == "_" for c in node)
        and node.lower() not in _DOT_KEYWORDS
    ):
        return node
    return '"' + node.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _write_rows(
    rows: tuple[Row, ...],
    head: Callable[[str], str],
    tail: Callable[[str, EdgeKind, NfrKey], str],
) -> list[str]:
    """The text of each row: `head(src)` before each of its edges'
    `tail(dst, kind, nfr)`. The tails of a (kind, targets, NFRs) group
    are written once and joined for every source that shares it, so the
    per-edge work is a copy inside `str.join`."""
    tails_of: dict[tuple[EdgeKind, tuple[str, ...], tuple[NfrKey, ...]], list[str]] = {}
    texts = []
    for src, kind, dsts, nfrs in rows:
        tails = tails_of.get((kind, dsts, nfrs))
        if tails is None:
            tails = tails_of[kind, dsts, nfrs] = [
                tail(dst, kind, nfr) for dst in dsts for nfr in nfrs
            ]
        row_head = head(src)
        texts.append(row_head + row_head.join(tails))
    return texts


def to_dot(graph: DepGraph) -> str:
    """Valid DOT digraph; byte-identical for equal graphs. An id that is
    not a plain identifier, or is a DOT keyword in any case, is quoted,
    with `\\` and `"` escaped."""
    ids = {node: _dot_id(node) for node in graph.nodes}
    edges = _write_rows(
        graph.rows,
        lambda src: f"  {ids[src]} -> ",
        lambda dst, kind, nfr: f'{ids[dst]} [label="{kind.value}:{nfr.name}"];\n',
    )
    nodes = [f"  {ids[node]};\n" for node in graph.nodes]
    return "".join(["digraph deps {\n", *nodes, *edges, "}\n"])


#: TSV id escapes, so an id is always one field on one line.
_TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\r": "\\r", "\n": "\\n"})


def to_tsv(graph: DepGraph) -> str:
    """Line-oriented export: from<TAB>to<TAB>kind<TAB>nfr. In ids, `\\`,
    TAB, CR and LF are written as `\\\\`, `\\t`, `\\r` and `\\n`."""
    ids = {node: node.translate(_TSV_ESCAPES) for node in graph.nodes}
    edges = _write_rows(
        graph.rows,
        lambda src: f"{ids[src]}\t",
        lambda dst, kind, nfr: f"{ids[dst]}\t{kind.value}\t{nfr.name}\n",
    )
    return "".join(edges)


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
    for src, kind, dsts, nfrs in graph.rows:
        count = len(dsts) * len(nfrs)
        if kind is EdgeKind.DEPENDENCY:
            out_degree[src] += count
            for dst in dsts:
                in_degree[dst] += len(nfrs)
            d_edges += count
        else:
            o_edges += count
    return GraphStats(
        in_degree=in_degree,
        out_degree=out_degree,
        node_count=len(graph.nodes),
        d_edge_count=d_edges,
        o_edge_count=o_edges,
    )
