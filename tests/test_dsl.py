import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssiarch.dsl import (
    DslSyntaxError,
    TokenKind,
    format_model,
    load_model,
    parse,
    tokenize,
)
from ssiarch.findings import Severity
from ssiarch.kb import ActorKind, NfrKey
from model_gen import mutate_text, random_model, resolve_edited_text
from reference_lexer import reference_tokenize
from reference_resolve import reference_resolve

MINIMAL = """
system "campus" {
  actor owner "alice" {}
  actor issuer "uni" {}
  actor verifier "library" {}
  wallet "phone" { for: "alice"; }
}
"""


def test_tokenize_empty():
    tokens = tokenize("")
    assert [t.kind for t in tokens] == [TokenKind.EOF]


def test_tokenize_actor_header():
    tokens = tokenize('actor issuer "uni" {}')
    kinds = [t.kind for t in tokens]
    assert kinds == [
        TokenKind.KEYWORD,
        TokenKind.KEYWORD,
        TokenKind.STRING,
        TokenKind.LBRACE,
        TokenKind.RBRACE,
        TokenKind.EOF,
    ]
    assert tokens[2].value == "uni"
    assert tokens[2].span.line == 1
    assert tokens[2].span.column == 14


def test_tokenize_nfr_keys_and_comments():
    tokens = tokenize("claims: [NFR7] # trailing comment\n")
    nfr = tokens[3]
    assert nfr.kind is TokenKind.NFRKEY
    assert nfr.value == 7


def test_tokenize_unterminated_string():
    with pytest.raises(DslSyntaxError) as exc:
        tokenize('"unclosed')
    assert exc.value.span.line == 1


def test_tokenize_bad_character():
    with pytest.raises(DslSyntaxError):
        tokenize("system @")


def test_parse_minimal_model():
    tree = parse(tokenize(MINIMAL))
    assert tree.name == "campus"
    assert len(tree.actors) == 3
    assert len(tree.wallets) == 1
    assert not tree.deps


def test_parse_empty_system_body():
    tree = parse(tokenize('system "X" {}'))
    assert tree.actors == []


def test_parse_missing_brace_points_at_eof():
    text = 'system "X" {'
    with pytest.raises(DslSyntaxError) as exc:
        parse(tokenize(text))
    assert "end of input" in str(exc.value)
    assert exc.value.span.column == len(text) + 1


def test_parse_error_names_expected_token():
    with pytest.raises(DslSyntaxError) as exc:
        parse(tokenize('system "X" { actor owner alice {} }'))
    assert "actor id string" in str(exc.value)


def test_resolve_missing_verifier(kb):
    text = 'system "X" { actor owner "a" {} actor issuer "i" {} }'
    result = load_model(text, kb)
    assert result.model is None
    assert [f.rule for f in result.findings] == ["model.missing-actor"]
    assert result.findings[0].subject == "verifier"


def test_resolve_dangling_wallet(kb):
    text = MINIMAL.replace('for: "alice"', 'for: "bob"')
    result = load_model(text, kb)
    assert result.model is None
    assert any(f.rule == "model.unresolved-ref" for f in result.findings)


def test_resolve_duplicate_id(kb):
    text = MINIMAL.replace('"uni"', '"alice"')
    result = load_model(text, kb)
    assert any(f.rule == "model.duplicate-id" for f in result.findings)


def test_resolve_second_wallet_for_same_owner(kb):
    text = MINIMAL.replace(
        'wallet "phone" { for: "alice"; }',
        'wallet "phone" { for: "alice"; } wallet "tablet" { for: "alice"; }',
    )
    result = load_model(text, kb)
    assert any(f.rule == "model.duplicate-wallet" for f in result.findings)


def test_resolve_unknown_nfr_claim(kb):
    text = MINIMAL.replace('actor owner "alice" {}', 'actor owner "alice" { claims: [NFR99]; }')
    result = load_model(text, kb)
    assert any(f.rule == "model.unknown-nfr" for f in result.findings)


def test_resolve_unknown_pattern_is_warning(kb):
    text = MINIMAL.replace(
        'actor issuer "uni" {}', 'actor issuer "uni" { patterns: [B:"No Such Pattern"]; }'
    )
    result = load_model(text, kb)
    assert result.model is not None
    assert [f.rule for f in result.findings] == ["model.unknown-pattern"]
    assert result.findings[0].severity is Severity.WARNING


def test_resolve_legal_claim_kept(kb):
    text = MINIMAL.replace('actor issuer "uni" {}', 'actor issuer "uni" { claims: [NFR2]; }')
    result = load_model(text, kb)
    issuer = result.model.actors_of(ActorKind.ISSUER)[0]
    assert issuer.claims == (NfrKey.NFR2,)


def test_resolve_explicit_dependency(kb):
    text = MINIMAL.rstrip()[:-1] + '  depends "library" on "uni" : NFR2;\n}\n'
    result = load_model(text, kb)
    (rel,) = result.model.explicit_deps
    assert rel.depender is ActorKind.VERIFIER
    assert rel.dependee is ActorKind.ISSUER


def test_resolve_self_dependency_rejected(kb):
    text = (
        MINIMAL.rstrip()[:-1]
        + '  depends "alice" on "phone" : NFR1;\n'
        + '  depends "library" on "library" : NFR2;\n}\n'
    )
    result = load_model(text, kb)
    assert any(f.rule == "model.self-dependency" for f in result.findings)


def test_format_minimal_roundtrip(kb):
    model = load_model(MINIMAL, kb).model
    again = load_model(format_model(model), kb)
    assert again.model == model
    assert not again.findings


def test_format_orders_actors_canonically(kb):
    shuffled = """
    system "x" {
      actor verifier "v1" {}
      actor owner "o1" {}
      actor issuer "i1" {}
    }
    """
    model = load_model(shuffled, kb).model
    text = format_model(model)
    assert text.index('"o1"') < text.index('"i1"') < text.index('"v1"')
    assert format_model(model) == text  # stable bytes


def test_format_elides_empty_clauses(kb):
    model = load_model(MINIMAL, kb).model
    text = format_model(model)
    assert "claims" not in text
    assert "patterns" not in text


def test_model_equality_ignores_spans(kb):
    a = load_model(MINIMAL, kb).model
    b = load_model("\n\n" + MINIMAL, kb).model
    assert a == b


@pytest.mark.parametrize("seed", range(25))
def test_random_model_roundtrip(kb, seed):
    rng = random.Random(seed)
    model = random_model(rng, kb)
    result = load_model(format_model(model), kb)
    assert result.model == model
    assert not any(f.severity is Severity.ERROR for f in result.findings)


@pytest.mark.parametrize("seed", range(10))
def test_mutated_inputs_yield_in_bounds_findings(kb, seed):
    rng = random.Random(1000 + seed)
    text = mutate_text(rng, format_model(random_model(rng, kb)))
    result = load_model(text, kb)
    assert result.model is None
    assert result.findings
    lines = text.splitlines() or [""]
    for f in result.findings:
        if f.span is None:
            continue
        assert 1 <= f.span.line <= len(lines) + 1
        if f.span.line <= len(lines):
            assert f.span.column <= len(lines[f.span.line - 1]) + 1


def test_error_totality_never_both(kb):
    for text in ("", MINIMAL, 'system "x" {}', "garbage", '"'):
        result = load_model(text, kb)
        has_errors = any(f.severity is Severity.ERROR for f in result.findings)
        assert (result.model is None) == has_errors
        assert result.model is not None or result.findings


def test_determinism(kb):
    r1 = load_model(MINIMAL, kb)
    r2 = load_model(MINIMAL, kb)
    assert r1.model == r2.model
    assert r1.findings == r2.findings


@pytest.mark.parametrize("claim", ["NFR²", "NFR١", "NFR1²"])
def test_nfr_key_takes_only_ascii_digits(kb, claim):
    assert tokenize(claim)[0].kind is TokenKind.IDENT
    owner = f'actor owner "alice" {{ claims: [{claim}]; }}'
    text = MINIMAL.replace('actor owner "alice" {}', owner)
    result = load_model(text, kb)
    assert result.model is None
    assert [f.rule for f in result.findings] == ["syntax.parse"]


def _with_owner_claims(claims: str) -> str:
    owner = f'actor owner "alice" {{ claims: [{claims}]; }}'
    return MINIMAL.replace('actor owner "alice" {}', owner)


@pytest.mark.parametrize("digits", ["1" * 5000, "9" * 4301], ids=["5000-ones", "4301-nines"])
def test_overlong_nfr_key_is_unknown_nfr(kb, digits):
    for text in (
        _with_owner_claims("NFR" + digits),
        MINIMAL.rstrip()[:-1] + f'  depends "library" on "uni" : NFR{digits};\n}}\n',
    ):
        result = load_model(text, kb)
        assert result.model is None
        assert [f.rule for f in result.findings] == ["model.unknown-nfr"]
        assert len(result.findings[0].message) < 100


@pytest.mark.parametrize("key", ["NFR007", "NFR" + "0" * 5000 + "7"], ids=["NFR007", "NFR0...07"])
def test_nfr_key_leading_zeros_keep_their_meaning(kb, key):
    result = load_model(_with_owner_claims(key), kb)
    (owner,) = result.model.actors_of(ActorKind.DATA_OWNER)
    assert owner.claims == (NfrKey.NFR7,)


def test_unknown_nfr_message_names_the_ordinal(kb):
    (finding,) = load_model(_with_owner_claims("NFR099"), kb).findings
    assert finding.message == "NFR99 is not a known NFR key"


@pytest.mark.parametrize("renamed", ["alice", "uni", "phone"])
def test_global_system_id_is_reserved(kb, renamed):
    result = load_model(MINIMAL.replace(f'"{renamed}"', '"system"'), kb)
    assert result.model is None
    assert [f.rule for f in result.findings] == ["model.duplicate-id"]
    assert result.findings[0].subject == "system"
    assert "reserved" in result.findings[0].message


#: Fragments that together reach every branch of the lexer: blanks
#: (including a bare carriage return), comments, each punctuation mark,
#: quotes and backslashes, keywords, words, NFR keys, and characters
#: that are letters, digit-like but not letters, or not allowed at all.
_FRAGMENTS = [
    " ", "\t", "\r", "\n", "\r\n", "#", "# note", "{", "}", "[", "]", ",", ";", ":",
    '"', "\\", '\\"', "\\\\", '"abc"', "system", "actor", "owner", "wallet", "for",
    "A", "B", "_", "x1", "NFR", "NFR7", "NFR007", "NFR24", "NFR0", "é", "ß", "漢", "Ω",
    "²", "١", "7", "@", "%", "\x00", "\x7f", "\u00a0",
]
_LEXER_TEXT = st.lists(
    st.one_of(
        st.sampled_from(_FRAGMENTS),
        st.integers(0, 10**30).map(lambda n: f"NFR{n}"),
    ),
    max_size=40,
).map("".join)


def _lexed(tokens_of, text):
    """The tokens of `text`, or the lexical error's message and span."""
    try:
        return tokens_of(text)
    except DslSyntaxError as exc:
        return exc.message, exc.span


def _token_fields(text):
    return [(t.kind, t.text, t.span, t.value) for t in tokenize(text)]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(_LEXER_TEXT, st.text(max_size=30)))
def test_tokenize_agrees_with_reference_lexer(text):
    assert _lexed(_token_fields, text) == _lexed(reference_tokenize, text)


#: A random model's text with lexer fragments spliced in at a drawn offset.
_SPLICED_MODEL = st.tuples(st.integers(0, 50), st.integers(0, 10**6), _LEXER_TEXT)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(_LEXER_TEXT, st.text(max_size=60), _SPLICED_MODEL))
def test_load_model_never_raises(kb, text):
    if isinstance(text, tuple):
        seed, cut, junk = text
        model = format_model(random_model(random.Random(seed), kb))
        cut %= len(model) + 1
        text = model[:cut] + junk + model[cut:]
    result = load_model(text, kb)
    has_errors = any(f.severity is Severity.ERROR for f in result.findings)
    assert (result.model is None) == has_errors
    assert result.model is not None or result.findings


def test_tokenize_memory_per_token(kb):
    """A token is one tuple whose span is built on demand. Peak
    allocation per token on a 200-actor-per-kind model is about 130
    bytes this way and about 245 when each token holds span objects;
    the bound sits between the two. tracemalloc counts bytes, so the
    figure does not depend on the host's speed."""
    text = format_model(random_model(random.Random(7), kb, per_kind=200))
    tracemalloc.start()
    try:
        tokens = tokenize(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tokens) > 10_000
    assert peak / len(tokens) < 180


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_resolve_agrees_with_the_reference(kb, seed):
    """Models with duplicate and reserved ids, bad wallet bindings, unknown
    NFR keys and patterns, bad `depends` lines and missing kinds resolve
    to the reference's model and findings, in the same order."""
    text = resolve_edited_text(random.Random(seed), kb)
    result = load_model(text, kb)
    expected = reference_resolve(parse(tokenize(text)), kb)
    assert result == expected
    # repr also shows the declaration spans that model equality ignores.
    assert repr(result) == repr(expected)
