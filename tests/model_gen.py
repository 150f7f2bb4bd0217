"""Seeded random generators for resolvable models and mutated inputs,
shared by the DSL tests and the acceptance suite, and a hypothesis
strategy for record fields of `.kbx` and `.scenario` files."""

from __future__ import annotations

import dataclasses
import random
import string

from hypothesis import strategies as st

from ssiarch.dsl import ActorDecl, SystemModel, WalletDecl, format_model
from ssiarch.kb import ActorKind, KnowledgeBase, NfrKey

_KINDS = (ActorKind.DATA_OWNER, ActorKind.ISSUER, ActorKind.VERIFIER)


def _ident(rng: random.Random, used: set[str]) -> str:
    while True:
        name = "".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 8)))
        if name not in used:
            used.add(name)
            return name


def random_model(
    rng: random.Random, kb: KnowledgeBase, per_kind: int | None = None
) -> SystemModel:
    """A structurally valid, resolvable model in canonical form, with
    `per_kind` actors of each kind (one or two, drawn, if None)."""
    used: set[str] = set()
    actors: list[ActorDecl] = []
    for kind in _KINDS:
        for _ in range(per_kind or rng.randint(1, 2)):
            claims = tuple(
                sorted(rng.sample(list(NfrKey), k=rng.randint(0, 4)))
            )
            patterns = tuple(
                sorted(
                    {
                        (p.source, p.name)
                        for p in rng.sample(list(kb.patterns), k=rng.randint(0, 2))
                    },
                    key=lambda p: (p[0].value, p[1]),
                )
            )
            actors.append(
                ActorDecl(kind=kind, id=_ident(rng, used), patterns=patterns, claims=claims)
            )
    wallets = []
    for actor in actors:
        if actor.kind is ActorKind.DATA_OWNER and rng.random() < 0.7:
            wallets.append(WalletDecl(id=_ident(rng, used), owner_ref=actor.id))
    return SystemModel(
        name=_ident(rng, used),
        actors=tuple(actors),
        wallets=tuple(wallets),
    )


#: NFR keys that name no NFR: out of range, zero-padded out of range, and
#: more digits than int() converts.
_BAD_NFR_DIGITS = ("0", "25", "99", "00030", "1" * 4400)


def resolve_edited_text(rng: random.Random, kb: KnowledgeBase) -> str:
    """Model text that parses but breaks or stretches what `resolve`
    checks: a `random_model`, sometimes with every actor of one kind
    removed, and up to four statements added at random statement
    boundaries. Each is one of: a duplicate id, the reserved id
    `system`, a wallet bound to a non-owner or to an owner that already
    has one, an unknown or over-long NFR key in `claims` or `depends`,
    an unknown pattern, a `depends` line on an undeclared id, between
    two ids of one kind, or between two kinds."""
    model = random_model(rng, kb)
    if rng.random() < 0.2:
        gone = rng.choice(_KINDS)
        model = dataclasses.replace(
            model, actors=tuple(a for a in model.actors if a.kind is not gone)
        )
    used = {model.name, *(a.id for a in model.actors), *(w.id for w in model.wallets)}
    owners = [a.id for a in model.actors if a.kind is ActorKind.DATA_OWNER]
    others = [a.id for a in model.actors if a.kind is not ActorKind.DATA_OWNER]
    wallets = [w.id for w in model.wallets]
    declared = sorted(used - {model.name})
    ghost = _ident(rng, used)  # never declared

    def kind() -> str:
        return rng.choice(_KINDS).long_name

    def some(ids: list[str]) -> str:
        return rng.choice(ids) if ids else _ident(rng, used)

    def bad_nfr() -> str:
        return "NFR" + rng.choice(_BAD_NFR_DIGITS)

    def depends(a: str, b: str, nfr: str) -> str:
        return f'depends "{a}" on "{b}" : {nfr};'

    edits = (
        lambda: f'actor {kind()} "{some(declared)}" {{}}',
        lambda: f'wallet "{some(declared)}" {{ for: "{some(owners)}"; }}',
        lambda: f'actor {kind()} "system" {{}}',
        lambda: f'wallet "system" {{ for: "{some(owners)}"; }}',
        lambda: f'wallet "{_ident(rng, used)}" {{ for: "{some([ghost, *others, *wallets])}"; }}',
        lambda: f'wallet "{_ident(rng, used)}" {{ for: "{some(owners)}"; }}',
        lambda: f'actor {kind()} "{_ident(rng, used)}" {{ claims: [{bad_nfr()}, NFR3]; }}',
        lambda: depends(some(owners), some(others + wallets), bad_nfr()),
        lambda: f'actor {kind()} "{_ident(rng, used)}" {{ patterns: [B:"No Such"]; }}',
        lambda: depends(some(declared), ghost, "NFR2"),
        lambda: depends(ghost, some(declared), "NFR9"),
        lambda: depends(ghost, ghost, "NFR4"),
        lambda: depends(some(others), some(others), "NFR5"),
        lambda: depends(some(owners), some(others + wallets), f"NFR{rng.randint(1, 24)}"),
    )
    lines = format_model(model).splitlines()
    for _ in range(rng.randint(0, 4)):
        starts = [i for i, line in enumerate(lines) if line[:3] in ("  a", "  w", "  d")]
        lines.insert(rng.choice([*starts, len(lines) - 1]), "  " + rng.choice(edits)())
    return "\n".join(lines) + "\n"


def mutate_text(rng: random.Random, text: str) -> str:
    """Break model text with one random syntax-level mutation."""
    mutation = rng.randrange(5)
    if mutation == 0 and "}" in text:
        # drop a closing brace
        i = text.rindex("}")
        return text[:i] + text[i + 1 :]
    if mutation == 1 and '"' in text:
        # unterminate a string
        i = text.index('"', text.index('"') + 1)
        return text[:i] + text[i + 1 :]
    if mutation == 2:
        # inject an illegal character outside any string literal
        i = text.index("{") + 1
        return text[:i] + "%" + text[i:]
    if mutation == 3 and ";" in text:
        i = text.index(";")
        return text[:i] + text[i + 1 :]
    # replace the leading keyword
    return "sytsem" + text[6:]


def record_field(key: str, *spellings: str) -> st.SearchStrategy[str]:
    """`key = value` with a value drawn from `spellings` or arbitrary text."""
    value = st.one_of(st.sampled_from(spellings), st.text(max_size=12))
    return value.map(f"{key} = {{}}".format)


__all__ = [
    "random_model",
    "resolve_edited_text",
    "mutate_text",
    "format_model",
    "record_field",
]
