import dataclasses

import pytest

from ssiarch.analysis import coverage
from ssiarch.kb import (
    PRIMARY_ACTORS,
    ActorKind,
    DependencyRelation,
    KbError,
    NfrKey,
    Provenance,
    ResponsibilityLevel,
    builtin_kb,
    parse_nfr_key,
)


def test_nfr_keys_are_exactly_24():
    assert len(NfrKey) == 24
    assert [int(k) for k in NfrKey] == list(range(1, 25))
    with pytest.raises(ValueError):
        NfrKey(25)
    with pytest.raises(ValueError):
        NfrKey(0)


def test_parse_nfr_key():
    assert parse_nfr_key("NFR7") is NfrKey.NFR7
    assert parse_nfr_key(" NFR24 ") is NfrKey.NFR24
    for bad in ("NFR25", "NFR0", "nfr3", "7", "NFRx"):
        with pytest.raises(KbError):
            parse_nfr_key(bad)


def test_actor_names():
    assert ActorKind.from_name("owner") is ActorKind.DATA_OWNER
    assert ActorKind.from_name("o") is ActorKind.DATA_OWNER
    assert ActorKind.from_name("SYSTEM") is ActorKind.GLOBAL_SYSTEM
    assert ActorKind.from_name("w") is ActorKind.WALLET
    with pytest.raises(KbError):
        ActorKind.from_name("holder")


def test_catalog_complete(kb):
    assert len(kb.catalog) == 24
    assert [e.key for e in kb.catalog] == list(NfrKey)
    names = [e.name for e in kb.catalog]
    assert len(set(names)) == 24
    assert kb.entry(NfrKey.NFR2).name == "Authenticity"
    assert kb.entry(NfrKey.NFR19).name == "Single Source"


def test_matrix_cells(kb):
    assert kb.lookup_responsibility(NfrKey.NFR2, ActorKind.ISSUER) is ResponsibilityLevel.PRIMARY
    assert kb.lookup_responsibility(NfrKey.NFR3, ActorKind.VERIFIER) is ResponsibilityLevel.NONE
    assert kb.lookup_responsibility(NfrKey.NFR24, ActorKind.VERIFIER) is ResponsibilityLevel.PRIMARY
    assert kb.lookup_responsibility(NfrKey.NFR9, ActorKind.DATA_OWNER) is ResponsibilityLevel.TERTIARY
    assert kb.lookup_responsibility(NfrKey.NFR13, ActorKind.ISSUER) is ResponsibilityLevel.NONE


def test_matrix_is_total(kb):
    for nfr in NfrKey:
        for actor in PRIMARY_ACTORS:
            assert kb.lookup_responsibility(nfr, actor) in ResponsibilityLevel


def test_matrix_rejects_non_column_actors(kb):
    with pytest.raises(KbError):
        kb.lookup_responsibility(NfrKey.NFR1, ActorKind.WALLET)
    with pytest.raises(KbError):
        kb.lookup_responsibility(NfrKey.NFR1, ActorKind.GLOBAL_SYSTEM)


def test_ownership(kb):
    assert kb.ownership[NfrKey.NFR8] == {ActorKind.GLOBAL_SYSTEM}
    for key in (NfrKey.NFR1, NfrKey.NFR4, NfrKey.NFR7, NfrKey.NFR15):
        assert kb.ownership[key] == {ActorKind.DATA_OWNER, ActorKind.WALLET}
    for nfr in NfrKey:
        assert kb.ownership[nfr]


def test_builtin_dependencies(kb):
    assert len(kb.dependencies) == 8
    rel = DependencyRelation(ActorKind.VERIFIER, ActorKind.ISSUER, NfrKey.NFR2)
    assert rel in kb.dependencies
    stored = next(r for r in kb.dependencies if r == rel)
    assert stored.provenance is Provenance.BUILT_IN
    assert "signature" in stored.rationale
    for r in kb.dependencies:
        assert r.nfr in (NfrKey.NFR1, NfrKey.NFR2, NfrKey.NFR4, NfrKey.NFR5)


def test_dependency_identity_ignores_rationale():
    a = DependencyRelation(ActorKind.VERIFIER, ActorKind.ISSUER, NfrKey.NFR2, rationale="x")
    b = DependencyRelation(ActorKind.VERIFIER, ActorKind.ISSUER, NfrKey.NFR2, rationale="y")
    assert a == b
    assert len({a, b}) == 1


def test_dependency_rejects_self_loop():
    with pytest.raises(KbError):
        DependencyRelation(ActorKind.ISSUER, ActorKind.ISSUER, NfrKey.NFR2)


def test_patterns_supporting(kb):
    covered = coverage(kb).covered
    nfr4 = {name for name, _ in covered[NfrKey.NFR4]}
    assert nfr4 == {
        "Status Registry",
        "DID Registry",
        "Public DIDs",
        "Master and Sub Key Generation",
        "Multiple Registration",
    }
    assert NfrKey.NFR3 not in covered
    nfr2 = {name for name, _ in covered[NfrKey.NFR2]}
    assert len(nfr2) == 4
    assert "Verifiable ID" in nfr2


def test_kb_is_immutable(kb):
    with pytest.raises(dataclasses.FrozenInstanceError):
        kb.catalog = ()
    with pytest.raises(TypeError):
        kb.matrix.cells[(NfrKey.NFR1, ActorKind.DATA_OWNER)] = ResponsibilityLevel.NONE
    with pytest.raises(AttributeError):
        kb.dependencies.add(
            DependencyRelation(ActorKind.DATA_OWNER, ActorKind.ISSUER, NfrKey.NFR3)
        )


def test_builtin_kb_is_cached():
    assert builtin_kb() is builtin_kb()


@pytest.mark.parametrize(
    "text",
    ["NFR+1", "NFR 1", "NFR١", "NFR²", "NFR1_0", "NFR-1", " NFR 7 ", "NFR", "NFR" + "1" * 5000],
)
def test_parse_nfr_key_takes_ascii_digits_only(text):
    with pytest.raises(KbError):
        parse_nfr_key(text)


def test_parse_nfr_key_keeps_leading_zeros():
    assert parse_nfr_key("NFR007") is NfrKey.NFR7
    assert parse_nfr_key("NFR" + "0" * 5000 + "7") is NfrKey.NFR7
