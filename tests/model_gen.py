"""Seeded random generators for resolvable models and mutated inputs,
shared by the DSL tests and the acceptance suite, and a hypothesis
strategy for record fields of `.kbx` and `.scenario` files."""

from __future__ import annotations

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


__all__ = ["random_model", "mutate_text", "format_model", "record_field"]
