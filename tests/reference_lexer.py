"""A character-at-a-time lexer for the model DSL, kept as the reference
that `ssiarch.dsl.tokenize` must agree with: same token kinds, texts,
spans and values, and the same message and span for every lexical
error. It is slow on purpose; nothing in `src/` uses it."""

from __future__ import annotations

from ssiarch.dsl import KEYWORDS, DslSyntaxError, TokenKind
from ssiarch.findings import SourceSpan

_PUNCT = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMI,
    ":": TokenKind.COLON,
}

#: (kind, text, span, value) for one token.
RefToken = tuple[TokenKind, str, SourceSpan, object]


def reference_tokenize(text: str) -> list[RefToken]:
    """Lex `text` one character at a time; raises DslSyntaxError."""
    tokens: list[RefToken] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def advance(ch: str) -> None:
        nonlocal line, col
        if ch == "\n":
            line += 1
            col = 1
        else:
            col += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(ch)
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                advance(text[i])
                i += 1
            continue
        start = SourceSpan(line, col, 1)
        if ch in _PUNCT:
            tokens.append((_PUNCT[ch], ch, start, None))
            advance(ch)
            i += 1
            continue
        if ch == '"':
            advance(ch)
            i += 1
            chars: list[str] = []
            closed = False
            while i < n:
                c = text[i]
                if c == "\n":
                    break
                advance(c)
                i += 1
                if c == '"':
                    closed = True
                    break
                if c == "\\" and i < n and text[i] in ('"', "\\"):
                    chars.append(text[i])
                    advance(text[i])
                    i += 1
                else:
                    chars.append(c)
            if not closed:
                raise DslSyntaxError("unterminated string literal", start)
            value = "".join(chars)
            span = SourceSpan(start.line, start.column, len(value) + 2)
            tokens.append((TokenKind.STRING, '"' + value + '"', span, value))
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            span = SourceSpan(line, col, len(word))
            digits = word[3:]
            if word.startswith("NFR") and digits.isascii() and digits.isdigit():
                tokens.append((TokenKind.NFRKEY, word, span, int(digits)))
            elif word in KEYWORDS:
                tokens.append((TokenKind.KEYWORD, word, span, None))
            else:
                tokens.append((TokenKind.IDENT, word, span, None))
            for c in word:
                advance(c)
            i = j
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", start)
    tokens.append((TokenKind.EOF, "", SourceSpan(line, col, 0), None))
    return tokens
