import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssiarch.extension import (
    ExtensionError,
    KbDelta,
    MergeCollisionError,
    load_extension,
    merge,
    parse_records,
)
from ssiarch.kb import (
    ActorKind,
    DependencyRelation,
    NfrKey,
    PatternSource,
    Provenance,
    builtin_kb,
)

from model_gen import record_field
from reference_records import reference_parse_records

SINGLE_DEP = """
[dependency]
nfr = NFR6
depender = verifier
dependee = owner
"""


def test_empty_file_yields_empty_delta():
    assert load_extension("") == KbDelta()
    assert load_extension("# only a comment\n\n") == KbDelta()


def test_single_dependency_record():
    delta = load_extension(SINGLE_DEP)
    assert len(delta.dependencies) == 1
    rel = delta.dependencies[0]
    assert rel.depender is ActorKind.VERIFIER
    assert rel.dependee is ActorKind.DATA_OWNER
    assert rel.nfr is NfrKey.NFR6
    assert rel.provenance is Provenance.EXTENSION
    assert not delta.patterns


def test_short_actor_codes_accepted():
    delta = load_extension("[dependency]\nnfr = NFR6\ndepender = v\ndependee = o\n")
    assert delta.dependencies[0].depender is ActorKind.VERIFIER


def test_pattern_record():
    delta = load_extension(
        "[pattern]\nname = Backup and Restore\nsource = B\nnfrs = NFR16, NFR12\n"
    )
    (pat,) = delta.patterns
    assert pat.source is PatternSource.B
    assert pat.supported_nfrs == {NfrKey.NFR16, NfrKey.NFR12}


def test_out_of_range_key_names_line():
    text = "[dependency]\ndepender = v\ndependee = o\nnfr = NFR25\n"
    with pytest.raises(ExtensionError) as exc:
        load_extension(text)
    assert exc.value.line == 4
    assert "NFR25" in str(exc.value)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[dependency]\nnfr = NFR1\ndepender = holder\ndependee = o\n", "holder"),
        ("[dependency]\nnfr = NFR1\ndepender = v\n", "dependee"),
        ("[dependency]\nnfr = NFR1\ndepender = v\ndependee = o\ncolor = red\n", "color"),
        ("[wibble]\n", "wibble"),
        ("nfr = NFR1\n", "outside"),
        ("[dependency\n", "unterminated"),
        ("[pattern]\nname = X\nsource = C\nnfrs = NFR1\n", "source"),
        ("[dependency]\nnfr = NFR1\ndepender = v\ndependee = v\n", "self-dependency"),
    ],
)
def test_malformed_files_rejected(text, fragment):
    with pytest.raises(ExtensionError) as exc:
        load_extension(text)
    assert fragment in str(exc.value)


def test_duplicate_triple_within_file_rejected():
    text = SINGLE_DEP + SINGLE_DEP
    with pytest.raises(ExtensionError) as exc:
        load_extension(text)
    assert "duplicate" in str(exc.value)


def test_load_is_deterministic():
    text = SINGLE_DEP + "\n[pattern]\nname = X\nsource = A\nnfrs = NFR1\n"
    assert load_extension(text) == load_extension(text)


def test_merge_empty_delta_is_identity(kb):
    assert merge(kb, KbDelta()) == kb


def test_merge_appends_relation(kb):
    merged = merge(kb, load_extension(SINGLE_DEP))
    assert len(merged.dependencies) == len(kb.dependencies) + 1
    assert kb.dependencies < merged.dependencies
    # the input KB is untouched
    assert len(kb.dependencies) == 8


def test_merge_dedupes_same_rationale(kb):
    existing = next(iter(kb.dependencies))
    delta = KbDelta(
        dependencies=(
            DependencyRelation(
                existing.depender,
                existing.dependee,
                existing.nfr,
                rationale=existing.rationale,
                provenance=Provenance.EXTENSION,
            ),
        )
    )
    merged = merge(kb, delta)
    assert len(merged.dependencies) == len(kb.dependencies)
    kept = next(r for r in merged.dependencies if r == existing)
    assert kept.provenance is Provenance.BUILT_IN


def test_merge_collision_on_conflicting_rationale(kb):
    existing = next(iter(kb.dependencies))
    delta = KbDelta(
        dependencies=(
            DependencyRelation(
                existing.depender,
                existing.dependee,
                existing.nfr,
                rationale="something else entirely",
                provenance=Provenance.EXTENSION,
            ),
        )
    )
    with pytest.raises(MergeCollisionError):
        merge(kb, delta)


def test_merge_unions_pattern_nfrs(kb):
    delta = load_extension("[pattern]\nname = Status Registry\nsource = A\nnfrs = NFR12\n")
    merged = merge(kb, delta)
    pat = merged.find_pattern(PatternSource.A, "Status Registry")
    assert pat.supported_nfrs == {NfrKey.NFR1, NfrKey.NFR4, NfrKey.NFR12}
    assert len(merged.patterns) == len(kb.patterns)


def test_same_pattern_name_in_both_catalogs_is_two_entries(kb):
    delta = load_extension("[pattern]\nname = Status Registry\nsource = B\nnfrs = NFR12\n")
    merged = merge(kb, delta)
    assert len(merged.patterns) == len(kb.patterns) + 1


_actors = st.sampled_from(list(ActorKind))
_relations = st.builds(
    lambda pair, nfr: DependencyRelation(
        pair[0], pair[1], nfr, provenance=Provenance.EXTENSION
    ),
    st.tuples(_actors, _actors).filter(lambda p: p[0] != p[1]),
    st.sampled_from(list(NfrKey)),
)


@given(st.lists(_relations, max_size=12, unique_by=lambda r: r.triple))
def test_merge_is_monotone(rels):
    kb = builtin_kb()
    delta = KbDelta(dependencies=tuple(r for r in rels if r not in kb.dependencies))
    merged = merge(kb, delta)
    assert kb.dependencies <= merged.dependencies
    assert len(merged.dependencies) >= len(kb.dependencies)


_KBX_FIELDS = {
    "dependency": (
        record_field("nfr", "NFR1", "NFR24", "NFR007", "NFR25", "NFR+1", "NFR١", "NFR1_0"),
        record_field("depender", "o", "v", "w", "s", "owner", "holder"),
        record_field("dependee", "i", "v", "w", "issuer", ""),
        record_field("rationale", "why", ""),
    ),
    "pattern": (
        record_field("name", "X", ""),
        record_field("source", "A", "B", "C"),
        record_field("nfrs", "NFR1", "NFR1, NFR2", ",", "", "NFR0"),
    ),
}
#: Well-formed records with fuzzed values.
_KBX_RECORD = st.one_of(
    [
        st.tuples(*fields).map(lambda lines, h=header: "\n".join([f"[{h}]", *lines]))
        for header, fields in _KBX_FIELDS.items()
    ]
)
#: Lines with record structure, in any order: headers, fields, comments,
#: blank lines and arbitrary text.
_KBX_LINE = st.one_of(
    st.sampled_from(["[dependency]", "[pattern]", "[dependency", "[]", "# note", ""]),
    *[field for fields in _KBX_FIELDS.values() for field in fields],
    st.text(max_size=20),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.text(max_size=80),
        st.lists(_KBX_LINE, max_size=12).map("\n".join),
        st.lists(_KBX_RECORD, max_size=4).map("\n".join),
    )
)
def test_load_extension_raises_only_extension_error(text):
    try:
        load_extension(text)
    except ExtensionError:
        pass


@pytest.mark.parametrize(
    "mark", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"]
)
def test_record_lines_end_at_lf_only(mark):
    """Only LF ends a record line, as in the DSL: any other line break
    that `str.splitlines` knows stays in the value, and a later error
    is reported at its line counted by LFs."""
    text = f"[dependency]\nnfr = NFR7\ndepender = v\ndependee = o\nrationale = a{mark}b\n"
    (rel,) = load_extension(text).dependencies
    assert rel.rationale == f"a{mark}b"
    with pytest.raises(ExtensionError) as exc:
        load_extension(text + "\n[pattern]\nname = X\nsource = C\nnfrs = NFR1\n")
    assert exc.value.line == 9


#: Record lines that parse: headers, fields with `=` or `#` in the value,
#: comments and blank lines.
_GOOD_RECORD_PIECES = [
    "[dependency]", "[ pattern ]", "[ ]", "[]", "[a]]", "[p]#x]", "[k = v]", "k = v", "i=v=w",
    "j = a#b", "p = v # note", "m = a#b # c", "n =", " = v", "l = [x]", "o\x85=\u2028v", "# note",
    "#", "",
]
#: Record lines that do not: unterminated headers, no `=`, a `#` before `]`,
#: and a key that the lines above may already hold.
_BAD_RECORD_PIECES = ["[scenario", "[", "]", "[#]", "[a] b", "k", "k # = v", "k\t= w"]
_ALL_PIECES = st.sampled_from(_GOOD_RECORD_PIECES + _BAD_RECORD_PIECES)
_RECORD_PIECE = st.one_of(
    _ALL_PIECES,
    st.text(st.sampled_from("[]=# kvx\t\r\x1c\x85\u2028"), max_size=8),
    st.text(max_size=8),
)
#: Whitespace that `str.strip` removes, a CR before the LF among it.
_RECORD_SPACE = st.text(st.sampled_from(" \t\r\v\f\x1c\x1f\x85\xa0\u2028\u3000"), max_size=2)


def _record_line(piece):
    return st.tuples(_RECORD_SPACE, piece, _RECORD_SPACE).map("".join)


#: Any mix of lines (duplicate keys and fields before any header among
#: them), and a record of distinct lines that parse, then up to two more
#: lines that may repeat a key or not parse.
_RECORD_TEXT = st.one_of(
    st.lists(_record_line(_RECORD_PIECE), max_size=12).map("\n".join),
    st.tuples(
        st.lists(st.sampled_from(_GOOD_RECORD_PIECES), unique=True, max_size=10).flatmap(
            lambda pieces: st.tuples(*map(_record_line, map(st.just, pieces)))
        ),
        st.lists(_record_line(_ALL_PIECES), max_size=2),
    ).map(lambda parts: "\n".join(["[r]", *parts[0], *parts[1]])),
)


def _records_or_error(parse, text):
    try:
        return parse(text)
    except ExtensionError as exc:
        return (str(exc), exc.line, exc.column)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_RECORD_TEXT)
def test_parse_records_agrees_with_the_reference(text):
    """The same records, or the same error at the same line and column,
    for record-like text: duplicate keys, fields before any header, CRLF
    endings and Unicode whitespace included."""
    assert _records_or_error(parse_records, text) == _records_or_error(
        reference_parse_records, text
    )
