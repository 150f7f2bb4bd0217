import dataclasses
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssiarch.dsl import load_model
from ssiarch.graph import (
    DepGraph,
    EdgeKind,
    build_graph,
    graph_stats,
    to_dot,
    to_tsv,
)
from ssiarch.kb import ActorKind, DependencyRelation, NfrKey, OwnershipMap

from model_gen import random_model
from reference_graph import reference_build_graph, reference_to_dot, reference_to_tsv


def test_builtin_relations_graph(kb):
    g = build_graph(kb.dependencies)
    assert g.nodes == ("o", "i", "v", "w")
    assert len(g.edges) == 8
    assert all(kind is EdgeKind.DEPENDENCY for _, _, _, kind in g.edges)


def test_empty_graph():
    g = build_graph(set())
    assert g.nodes == ()
    assert g.edges == ()
    assert to_dot(g) == "digraph deps {\n}\n"
    assert to_tsv(g) == ""


def test_ownership_only_graph():
    ownership = {NfrKey.NFR8: frozenset({ActorKind.GLOBAL_SYSTEM})}
    g = build_graph(set(), ownership)
    assert g.nodes == ("s",)
    assert g.edges == (("s", "s", NfrKey.NFR8, EdgeKind.OWNERSHIP),)


def test_dot_single_edge(kb):
    rel = DependencyRelation(ActorKind.VERIFIER, ActorKind.ISSUER, NfrKey.NFR2)
    dot = to_dot(build_graph({rel}))
    assert '  v -> i [label="D:NFR2"];' in dot.splitlines()


def test_dot_matches_golden_file(kb, datadir):
    golden = (datadir.parent / "tests" / "golden" / "builtin_graph.dot").read_text()
    g = build_graph(kb.dependencies, kb.ownership)
    assert to_dot(g) == golden


def test_dot_deterministic_and_injective(kb):
    g1 = build_graph(kb.dependencies, kb.ownership)
    g2 = build_graph(set(kb.dependencies), kb.ownership)
    assert to_dot(g1) == to_dot(g2)
    smaller = build_graph(set(list(kb.dependencies)[:4]), kb.ownership)
    assert to_dot(smaller) != to_dot(g1)


def test_tsv_format(kb):
    rel = DependencyRelation(ActorKind.VERIFIER, ActorKind.ISSUER, NfrKey.NFR2)
    assert to_tsv(build_graph({rel})) == "v\ti\tD\tNFR2\n"


def test_no_self_loop_d_edges(kb):
    g = build_graph(kb.dependencies, kb.ownership)
    for src, dst, _, kind in g.edges:
        if kind is EdgeKind.DEPENDENCY:
            assert src != dst


def test_graph_stats_builtin(kb):
    g = build_graph(kb.dependencies)
    stats = graph_stats(g)
    assert stats.in_degree["i"] >= 4  # dependee of NFR2 x2 and NFR5 x2
    assert stats.d_edge_count == 8
    assert sum(stats.in_degree.values()) == sum(stats.out_degree.values()) == 8


def test_graph_stats_empty():
    stats = graph_stats(build_graph(set()))
    assert stats.node_count == 0
    assert stats.d_edge_count == 0
    assert stats.o_edge_count == 0


def test_graph_stats_single_edge():
    rel = DependencyRelation(ActorKind.DATA_OWNER, ActorKind.WALLET, NfrKey.NFR1)
    stats = graph_stats(build_graph({rel}))
    assert stats.out_degree["o"] == 1
    assert stats.in_degree["w"] == 1
    assert stats.in_degree["o"] == 0


@pytest.mark.parametrize("seed", range(20))
def test_degree_conservation_random(seed):
    rng = random.Random(seed)
    kinds = list(ActorKind)
    rels = set()
    for _ in range(rng.randint(0, 30)):
        a, b = rng.sample(kinds, 2)
        rels.add(DependencyRelation(a, b, NfrKey(rng.randint(1, 24))))
    stats = graph_stats(build_graph(rels))
    assert sum(stats.in_degree.values()) == stats.d_edge_count
    assert sum(stats.out_degree.values()) == stats.d_edge_count
    assert stats.d_edge_count == len(rels)


def test_model_scoped_graph(kb):
    text = """
    system "x" {
      actor owner "alice" {}
      actor owner "bob" {}
      actor issuer "uni" {}
      actor verifier "library" {}
      wallet "phone" { for: "alice"; }
    }
    """
    model = load_model(text, kb).model
    g = build_graph(kb.dependencies, model=model)
    # (v, o) relations fan out to each declared owner instance
    assert ("library", "alice", NfrKey.NFR1, EdgeKind.DEPENDENCY) in g.edges
    assert ("library", "bob", NfrKey.NFR1, EdgeKind.DEPENDENCY) in g.edges
    assert ("alice", "phone", NfrKey.NFR4, EdgeKind.DEPENDENCY) in g.edges


def test_edges_must_reference_nodes():
    with pytest.raises(ValueError):
        DepGraph(nodes=("o",), rows=(("o", EdgeKind.DEPENDENCY, ("i",), (NfrKey.NFR1,)),))


def test_rows_must_hold_edges():
    for dsts, nfrs in [((), (NfrKey.NFR1,)), (("o",), ())]:
        with pytest.raises(ValueError):
            DepGraph(nodes=("o",), rows=(("o", EdgeKind.OWNERSHIP, dsts, nfrs),))


def test_model_scoped_graph_follows_wallet_binding(kb):
    text = """
    system "x" {
      actor owner "alice" {}
      actor owner "bob" {}
      actor issuer "uni" {}
      actor verifier "library" {}
      wallet "pa" { for: "alice"; }
      wallet "pb" { for: "bob"; }
    }
    """
    model = load_model(text, kb).model
    g = build_graph(kb.dependencies, kb.ownership, model=model)
    pairs = {(src, dst) for src, dst, _, kind in g.edges if kind is EdgeKind.DEPENDENCY}
    assert ("alice", "pa") in pairs
    assert ("bob", "pb") in pairs
    assert ("alice", "pb") not in pairs
    assert ("bob", "pa") not in pairs


_RELATIONS = st.sets(
    st.tuples(st.sampled_from(ActorKind), st.sampled_from(ActorKind), st.sampled_from(NfrKey))
    .filter(lambda t: t[0] != t[1])
    .map(lambda t: DependencyRelation(*t)),
    max_size=40,
)
_OWNERS = st.dictionaries(
    st.sampled_from(NfrKey), st.frozensets(st.sampled_from(ActorKind), min_size=1)
)
_OWNERSHIP = st.one_of(
    st.none(),
    _OWNERS,
    st.fixed_dictionaries(
        {nfr: st.frozensets(st.sampled_from(ActorKind), min_size=1) for nfr in NfrKey}
    ).map(OwnershipMap),
)


#: Ids that DOT or TSV must escape or quote: quotes, backslashes, TAB,
#: CR, LF, braces and DOT keywords in several cases.
_AWKWARD_PIECES = (
    "node", "Graph", "EDGE", "digraph", "subGraph", "STRICT",
    'a"b', "c\\d", "e\tf", "g\rh", "i\nj", "{k}", "}", "{", '\\"',
)


def _with_awkward_ids(model):
    """`model` with every actor and wallet id replaced by an awkward one."""
    ids = [a.id for a in model.actors] + [w.id for w in model.wallets]
    count = len(_AWKWARD_PIECES)
    name = {
        old: _AWKWARD_PIECES[i % count] + (str(i) if i >= count else "")
        for i, old in enumerate(ids)
    }
    return dataclasses.replace(
        model,
        actors=tuple(dataclasses.replace(a, id=name[a.id]) for a in model.actors),
        wallets=tuple(
            dataclasses.replace(w, id=name[w.id], owner_ref=name[w.owner_ref])
            for w in model.wallets
        ),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    _RELATIONS,
    _OWNERSHIP,
    st.none() | st.tuples(st.integers(0, 10**6), st.integers(0, 4), st.booleans()),
)
def test_build_graph_agrees_with_reference(kb, relations, ownership, model_seed):
    model = None
    if model_seed is not None:
        seed, per_kind, awkward = model_seed
        model = random_model(random.Random(seed), kb, per_kind or None)
        if awkward:
            model = _with_awkward_ids(model)
    g = build_graph(relations, ownership, model)
    nodes, edges = reference_build_graph(relations, ownership, model)
    assert (g.nodes, g.edges) == (nodes, edges)
    assert to_dot(g) == reference_to_dot(nodes, edges)
    assert to_tsv(g) == reference_to_tsv(nodes, edges)


def test_export_memory_is_bounded_by_output(kb):
    # Peak allocation while building and writing a 120-per-kind model
    # graph (about 90k edges), against the bytes written: per-edge
    # objects would make it grow with edges rather than with output.
    model = random_model(random.Random(7), kb, per_kind=120)
    tracemalloc.start()
    try:
        dot = to_dot(build_graph(kb.dependencies, kb.ownership, model))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dot.count(" -> ") > 80_000
    assert peak <= 3 * len(dot)


@pytest.mark.parametrize(
    "word", ["node", "edge", "graph", "digraph", "subgraph", "strict", "Graph", "NODE", "sTrIcT"]
)
def test_dot_quotes_keyword_ids(kb, word):
    text = (
        f'system "x" {{ actor owner "{word}" {{}} actor issuer "uni" {{}} '
        'actor verifier "lib" {} }'
    )
    model = load_model(text, kb).model
    assert model is not None
    lines = to_dot(build_graph(kb.dependencies, kb.ownership, model)).splitlines()
    assert f'  "{word}";' in lines
    assert f'  lib -> "{word}" [label="D:NFR1"];' in lines
    assert not any(line.startswith(f"  {word}") for line in lines)


def _unquote_dot(dot_id):
    if not dot_id.startswith('"'):
        return dot_id
    return re.sub(r"\\(.)", r"\1", dot_id[1:-1])


_AWKWARD_IDS = ('a\\\\', 'q\\"x', "i\tj", "c\rr", '\\\\\\"\\\\', "plain")


def _awkward_model(kb):
    owner, issuer, verifier, wallet, quoted, plain = _AWKWARD_IDS
    text = (
        f'system "x" {{ actor owner "{owner}" {{}} actor issuer "{issuer}" {{}} '
        f'actor verifier "{verifier}" {{}} actor verifier "{quoted}" {{}} '
        f'actor verifier "{plain}" {{}} wallet "{wallet}" {{ for: "{owner}"; }} }}'
    )
    result = load_model(text, kb)
    assert result.model is not None, result.findings
    return result.model


def test_dot_ids_escape_backslash_and_quote(kb):
    g = build_graph(kb.dependencies, kb.ownership, _awkward_model(kb))
    dot_id = r'"(?:[^"\\]|\\.)*"|\w+'
    node_line = re.compile(rf"  ({dot_id});")
    edge_line = re.compile(rf'  ({dot_id}) -> ({dot_id}) \[label="[DO]:NFR\d+"\];')
    lines = to_dot(g).split("\n")[1:-2]  # not splitlines: an id may hold a CR
    nodes = [node_line.fullmatch(line) for line in lines[: len(g.nodes)]]
    edges = [edge_line.fullmatch(line) for line in lines[len(g.nodes) :]]
    assert all(nodes) and all(edges)
    assert tuple(_unquote_dot(m[1]) for m in nodes) == g.nodes
    assert [tuple(map(_unquote_dot, m.groups())) for m in edges] == [e[:2] for e in g.edges]
    assert '  "a\\\\";' in lines


def _unescape_tsv(field):
    return re.sub(r"\\(.)", lambda m: {"t": "\t", "r": "\r", "n": "\n"}.get(m[1], m[1]), field)


def test_tsv_ids_escape_tab_cr_and_backslash(kb):
    g = build_graph(kb.dependencies, kb.ownership, _awkward_model(kb))
    rows = [line.split("\t") for line in to_tsv(g).split("\n")[:-1]]
    assert all(len(row) == 4 for row in rows)
    assert [(_unescape_tsv(src), _unescape_tsv(dst)) for src, dst, _, _ in rows] == [
        e[:2] for e in g.edges
    ]
    assert ["i\\tj", "a\\\\", "D", "NFR1"] in rows
