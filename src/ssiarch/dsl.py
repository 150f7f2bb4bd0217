"""Architecture-description DSL for DI/SSI systems.

A model declares actors (owner/issuer/verifier), wallet bindings,
implemented design patterns, NFR fulfilment claims, and explicit
dependencies:

    system "campus" {
      actor owner "alice" {
        claims: [NFR1, NFR4];
      }
      actor issuer "uni" {
        patterns: [A:"Verifiable ID"];
      }
      actor verifier "library" {}
      wallet "phone" {
        for: "alice";
      }
      depends "library" on "uni" : NFR2;
    }

Files use extension `.ssiarch`; `#` starts a comment to end-of-line.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, TypeVar

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
    nfr_ordinal,
)

#: Each keyword mapped to itself, so keyword tokens share one string each.
KEYWORDS = {
    word: word
    for word in "system actor owner issuer verifier wallet for patterns claims depends on".split()
}

_ACTOR_KEYWORDS = {kind.long_name: kind for kind in PRIMARY_ACTORS}


class DslSyntaxError(Exception):
    """Lexical or syntactic error in model text, with a source span."""

    def __init__(self, message: str, span: SourceSpan) -> None:
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    STRING = "string"
    NFRKEY = "nfrkey"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMI = ";"
    COLON = ":"
    EOF = "eof"


class Token(NamedTuple):
    """One lexeme: its kind, its text, and where it starts. A STRING
    token's text is its value requoted, with escapes resolved, and its
    length is that text's length. The span is built only when read, so
    a token is one tuple and nothing more."""

    kind: TokenKind
    text: str
    line: int  # 1-based
    column: int  # 1-based
    length: int
    #: String content for STRING tokens; for NFRKEY tokens the NFR
    #: ordinal, or None when it has more digits than int() converts.
    value: object = None

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column, self.length)


_PUNCT = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMI,
    ":": TokenKind.COLON,
}

#: One lexeme after optional blanks, in group order: a newline, a
#: comment or the end of the text (no group), punctuation, a string
#: literal, a word, or any other character, which is an error. Every
#: non-blank character starts one of these, so successive matches cover
#: the whole text. A word may start with a digit-like character such as
#: "²" that is not a letter; tokenize rejects it.
_LEXEME = re.compile(
    r"""
    [ \t\r]*
    (?:
        (\n)
      | \#[^\n]*
      | ([{}\[\],;:])
      | ("[^"\\\n]*(?:\\[^\n][^"\\\n]*)*")
      | ([^\W\d]\w*)
      | ([^ \t\r])
      | \Z
    )
    """,
    re.VERBOSE,
)
_ESCAPE = re.compile(r'\\(["\\])')


def tokenize(text: str) -> list[Token]:
    """Lex model text into tokens ending in EOF; comments and whitespace
    are discarded. Raises DslSyntaxError on lexical errors."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0
    for m in _LEXEME.finditer(text):
        group = m.lastindex
        if group == 2:
            ch = m[2]
            append(Token(_PUNCT[ch], ch, line, m.start(2) - line_start + 1, 1))
        elif group == 4:
            word = m[4]
            column = m.start(4) - line_start + 1
            first = word[0]
            if not (first.isalpha() or first == "_"):
                raise DslSyntaxError(
                    f"unexpected character {first!r}", SourceSpan(line, column, 1)
                )
            if word in KEYWORDS:
                append(Token(TokenKind.KEYWORD, KEYWORDS[word], line, column, len(word)))
            elif word.startswith("NFR") and (digits := word[3:]).isascii() and digits.isdigit():
                append(Token(TokenKind.NFRKEY, word, line, column, len(word), nfr_ordinal(digits)))
            else:
                append(Token(TokenKind.IDENT, word, line, column, len(word)))
        elif group == 1:
            line += 1
            line_start = m.end()
        elif group == 3:
            quoted = m[3]
            value = quoted[1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(r"\1", value)
                quoted = '"' + value + '"'
            column = m.start(3) - line_start + 1
            append(Token(TokenKind.STRING, quoted, line, column, len(quoted), value))
        elif group == 5:
            ch = m[5]
            span = SourceSpan(line, m.start(5) - line_start + 1, 1)
            if ch == '"':
                raise DslSyntaxError("unterminated string literal", span)
            raise DslSyntaxError(f"unexpected character {ch!r}", span)
    append(Token(TokenKind.EOF, "", line, len(text) - line_start + 1, 0))
    return tokens


# --- syntax tree -------------------------------------------------------


@dataclass
class PatternRef:
    source: PatternSource
    name: str
    span: SourceSpan


@dataclass
class ActorNode:
    kind: ActorKind
    id: str
    patterns: list[PatternRef]
    claims: list[Token]  # NFRKEY tokens
    span: SourceSpan


@dataclass
class DepNode:
    depender_ref: str
    dependee_ref: str
    ordinal: int | None  # None: too many digits to be a known key
    span: SourceSpan


@dataclass
class ModelNode:
    name: str
    actors: list[ActorNode]
    wallets: list[WalletDecl]
    deps: list[DepNode]
    span: SourceSpan


_Item = TypeVar("_Item")


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def error(self, expected: str) -> DslSyntaxError:
        tok = self.current
        found = tok.text if tok.kind is not TokenKind.EOF else "end of input"
        return DslSyntaxError(f"expected {expected}, found {found!r}", tok.span)

    def take(self) -> Token:
        tok = self.current
        self.pos += 1
        return tok

    def expect(self, kind: TokenKind, what: str) -> Token:
        if self.current.kind is not kind:
            raise self.error(what)
        return self.take()

    def expect_kw(self, word: str) -> Token:
        tok = self.current
        if tok.kind is not TokenKind.KEYWORD or tok.text != word:
            raise self.error(f"keyword {word!r}")
        return self.take()

    def at_kw(self, word: str) -> bool:
        tok = self.current
        return tok.kind is TokenKind.KEYWORD and tok.text == word

    def parse_model(self) -> ModelNode:
        start = self.expect_kw("system").span
        name = self.expect(TokenKind.STRING, "system name string")
        self.expect(TokenKind.LBRACE, "'{'")
        actors: list[ActorNode] = []
        wallets: list[WalletDecl] = []
        deps: list[DepNode] = []
        while self.current.kind is not TokenKind.RBRACE:
            if self.at_kw("actor"):
                actors.append(self.parse_actor())
            elif self.at_kw("wallet"):
                wallets.append(self.parse_wallet())
            elif self.at_kw("depends"):
                deps.append(self.parse_dep())
            else:
                raise self.error("'actor', 'wallet', 'depends', or '}'")
        self.expect(TokenKind.RBRACE, "'}'")
        self.expect(TokenKind.EOF, "end of input")
        return ModelNode(str(name.value), actors, wallets, deps, start)

    def parse_actor(self) -> ActorNode:
        start = self.expect_kw("actor").span
        kind_tok = self.current
        if kind_tok.kind is not TokenKind.KEYWORD or kind_tok.text not in _ACTOR_KEYWORDS:
            raise self.error("'owner', 'issuer', or 'verifier'")
        self.take()
        ident = self.expect(TokenKind.STRING, "actor id string")
        self.expect(TokenKind.LBRACE, "'{'")
        patterns: list[PatternRef] = []
        claims: list[Token] = []
        clauses = {
            "patterns": (patterns, self.parse_pattern_ref),
            "claims": (claims, lambda: self.expect(TokenKind.NFRKEY, "NFR key")),
        }
        while self.current.kind is not TokenKind.RBRACE:
            tok = self.current
            if tok.kind is not TokenKind.KEYWORD or tok.text not in clauses:
                raise self.error("'patterns', 'claims', or '}'")
            self.take()
            items, parse_item = clauses[tok.text]
            self.expect(TokenKind.COLON, "':'")
            items.extend(self.parse_list(parse_item))
            self.expect(TokenKind.SEMI, "';'")
        self.expect(TokenKind.RBRACE, "'}'")
        return ActorNode(
            kind=_ACTOR_KEYWORDS[kind_tok.text],
            id=str(ident.value),
            patterns=patterns,
            claims=claims,
            span=start,
        )

    def parse_list(self, parse_item: Callable[[], _Item]) -> list[_Item]:
        """A bracketed, comma-separated, non-empty list of items."""
        self.expect(TokenKind.LBRACKET, "'['")
        items = [parse_item()]
        while self.current.kind is TokenKind.COMMA:
            self.take()
            items.append(parse_item())
        self.expect(TokenKind.RBRACKET, "']'")
        return items

    def parse_pattern_ref(self) -> PatternRef:
        tok = self.current
        if tok.kind is not TokenKind.IDENT or tok.text not in ("A", "B"):
            raise self.error("pattern catalog 'A' or 'B'")
        self.take()
        self.expect(TokenKind.COLON, "':'")
        name = self.expect(TokenKind.STRING, "pattern name string")
        return PatternRef(PatternSource(tok.text), str(name.value), tok.span)

    def parse_wallet(self) -> WalletDecl:
        start = self.expect_kw("wallet").span
        ident = self.expect(TokenKind.STRING, "wallet id string")
        self.expect(TokenKind.LBRACE, "'{'")
        self.expect_kw("for")
        self.expect(TokenKind.COLON, "':'")
        owner_ref = self.expect(TokenKind.STRING, "owner id string")
        self.expect(TokenKind.SEMI, "';'")
        self.expect(TokenKind.RBRACE, "'}'")
        return WalletDecl(str(ident.value), str(owner_ref.value), start)

    def parse_dep(self) -> DepNode:
        start = self.expect_kw("depends").span
        depender = self.expect(TokenKind.STRING, "depender id string")
        self.expect_kw("on")
        dependee = self.expect(TokenKind.STRING, "dependee id string")
        self.expect(TokenKind.COLON, "':'")
        nfr = self.expect(TokenKind.NFRKEY, "NFR key")
        self.expect(TokenKind.SEMI, "';'")
        return DepNode(str(depender.value), str(dependee.value), nfr.value, start)  # type: ignore[arg-type]


def parse(tokens: list[Token]) -> ModelNode:
    """Parse a token list into a syntax tree; raises DslSyntaxError."""
    return _Parser(tokens).parse_model()


# --- resolved model ----------------------------------------------------


@dataclass(frozen=True)
class ActorDecl:
    kind: ActorKind
    id: str
    patterns: tuple[tuple[PatternSource, str], ...] = ()
    claims: tuple[NfrKey, ...] = ()
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class WalletDecl:
    id: str
    owner_ref: str
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class SystemModel:
    """A resolved architecture description. Actors are held in canonical
    order (owner, issuer, verifier; then declaration order)."""

    name: str
    actors: tuple[ActorDecl, ...]
    wallets: tuple[WalletDecl, ...]
    explicit_deps: tuple[DependencyRelation, ...] = ()

    def actors_of(self, kind: ActorKind) -> tuple[ActorDecl, ...]:
        return tuple(a for a in self.actors if a.kind == kind)


@dataclass
class ResolveResult:
    """Either a resolved model (possibly with warnings) or error findings.
    model is None if and only if findings contain at least one error."""

    model: SystemModel | None
    findings: list[Finding]


def resolve(tree: ModelNode, kb: KnowledgeBase) -> ResolveResult:
    """Resolve identifier references, validate claims and patterns, and
    enforce model invariants. An id's first declaration, actors before
    wallets, fixes its kind. Unknown pattern names are warnings (the
    complete pattern catalogs live in extension files)."""
    findings: list[Finding] = []

    def note(rule: str, subject: str, message: str, span: SourceSpan, severity=Severity.ERROR):
        findings.append(Finding(severity, rule, subject, message, span))

    kind_of: dict[str, ActorKind] = {}
    declared = [(a, a.kind) for a in tree.actors] + [(w, ActorKind.WALLET) for w in tree.wallets]
    for node, kind in declared:
        if node.id in kind_of:
            message = f"id {node.id!r} is declared more than once"
            note("model.duplicate-id", node.id, message, node.span)
        else:
            kind_of[node.id] = kind
        if node.id == GLOBAL_SYSTEM_ID:
            message = f"id {node.id!r} is reserved for the global system"
            note("model.duplicate-id", node.id, message, node.span)

    actor_kinds = {a.kind for a in tree.actors}
    for kind in PRIMARY_ACTORS:
        if kind not in actor_kinds:
            message = f"model declares no {kind.long_name} actor"
            note("model.missing-actor", kind.long_name, message, tree.span)

    def nfr_key(ordinal: int | None, subject: str, where: Token | DepNode) -> NfrKey | None:
        try:
            return NfrKey(ordinal)
        except ValueError:
            name = "NFR key with that many digits" if ordinal is None else f"NFR{ordinal}"
            note("model.unknown-nfr", subject, f"{name} is not a known NFR key", where.span)
            return None

    actors: list[ActorDecl] = []
    for node in tree.actors:
        keys = (nfr_key(claim.value, node.id, claim) for claim in node.claims)
        claims = {key for key in keys if key is not None}
        patterns: set[tuple[PatternSource, str]] = set()
        for ref in node.patterns:
            patterns.add((ref.source, ref.name))
            if kb.find_pattern(ref.source, ref.name) is None:
                message = (
                    f"pattern {ref.name!r} is not in catalog {ref.source.value} "
                    "of the loaded knowledge base"
                )
                note("model.unknown-pattern", node.id, message, ref.span, Severity.WARNING)
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
        if kind_of.get(node.owner_ref) is not ActorKind.DATA_OWNER:
            message = (
                f"wallet {node.id!r} is bound to {node.owner_ref!r}, "
                "which is not a declared data owner"
            )
            note("model.unresolved-ref", node.id, message, node.span)
        elif node.owner_ref in owners_with_wallet:
            message = f"data owner {node.owner_ref!r} already has a wallet"
            note("model.duplicate-wallet", node.id, message, node.span)
        else:
            owners_with_wallet.add(node.owner_ref)
            wallets.append(node)

    deps: set[DependencyRelation] = set()
    for node in tree.deps:
        depender = kind_of.get(node.depender_ref)
        dependee = kind_of.get(node.dependee_ref)
        if depender is None or dependee is None:
            for ref in (node.depender_ref, node.dependee_ref):
                if ref not in kind_of:
                    message = f"dependency references undeclared id {ref!r}"
                    note("model.unresolved-ref", ref, message, node.span)
            continue
        nfr = nfr_key(node.ordinal, node.depender_ref, node)
        if nfr is None:
            continue
        if depender == dependee:
            message = (
                f"dependency endpoints {node.depender_ref!r} and "
                f"{node.dependee_ref!r} resolve to the same actor kind"
            )
            note("model.self-dependency", node.depender_ref, message, node.span)
            continue
        deps.add(DependencyRelation(depender, dependee, nfr, provenance=Provenance.EXTENSION))

    if any(f.severity is Severity.ERROR for f in findings):
        return ResolveResult(model=None, findings=findings)
    model = SystemModel(
        name=tree.name,
        actors=tuple(actors),
        wallets=tuple(wallets),
        explicit_deps=tuple(sorted(deps, key=DependencyRelation.sort_key)),
    )
    return ResolveResult(model=model, findings=findings)


def load_model(text: str, kb: KnowledgeBase) -> ResolveResult:
    """tokenize + parse + resolve, with lexical and syntax errors turned
    into findings. Any input yields a model or at least one finding."""
    stage = "lexical"
    try:
        tokens = tokenize(text)
        stage = "parse"
        tree = parse(tokens)
    except DslSyntaxError as exc:
        finding = Finding(Severity.ERROR, f"syntax.{stage}", "<input>", exc.message, exc.span)
        return ResolveResult(model=None, findings=[finding])
    return resolve(tree, kb)


# --- canonical formatting ----------------------------------------------


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def format_model(model: SystemModel) -> str:
    """Deterministic canonical DSL text; parsing it back resolves to a
    model structurally equal to the input."""
    lines = [f"system {_quote(model.name)} {{"]
    for actor in model.actors:
        header = f"  actor {actor.kind.long_name} {_quote(actor.id)} {{"
        if not actor.patterns and not actor.claims:
            lines.append(header + "}")
            continue
        lines.append(header)
        if actor.patterns:
            pats = ", ".join(f"{s.value}:{_quote(n)}" for s, n in actor.patterns)
            lines.append(f"    patterns: [{pats}];")
        if actor.claims:
            keys = ", ".join(k.name for k in actor.claims)
            lines.append(f"    claims: [{keys}];")
        lines.append("  }")
    for wallet in model.wallets:
        lines.append(f"  wallet {_quote(wallet.id)} {{")
        lines.append(f"    for: {_quote(wallet.owner_ref)};")
        lines.append("  }")
    for rel in model.explicit_deps:
        depender = _representative_id(model, rel.depender)
        dependee = _representative_id(model, rel.dependee)
        lines.append(f"  depends {_quote(depender)} on {_quote(dependee)} : {rel.nfr.name};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _representative_id(model: SystemModel, kind: ActorKind) -> str:
    if kind == ActorKind.WALLET:
        if not model.wallets:
            raise ValueError("model has no wallet to represent")
        return model.wallets[0].id
    for actor in model.actors:
        if actor.kind == kind:
            return actor.id
    raise ValueError(f"model has no {kind.long_name} actor to represent")
