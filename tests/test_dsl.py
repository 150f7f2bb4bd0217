import random

import pytest

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
from model_gen import mutate_text, random_model

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
