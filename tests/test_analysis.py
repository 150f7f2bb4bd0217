from ssiarch.analysis import (
    check_claims,
    classify_constraints,
    coverage,
    derive_dependencies,
    diff_dependencies,
    responsibility_stats,
)
from ssiarch.dsl import load_model
from ssiarch.extension import load_extension, merge
from ssiarch.findings import Severity
from ssiarch.kb import (
    ActorKind,
    DependencyRelation,
    NfrKey,
    ResponsibilityLevel,
)

# Golden responsibility/ownership table, transcribed independently of
# the package's internal encoding. Columns: owner, verifier, issuer
# levels (P/S/T/-), then owner codes.
GOLDEN_MATRIX = """
NFR1  P T - o,w
NFR2  T S P i
NFR3  P - - o
NFR4  P - - o,w
NFR5  T S P i
NFR6  P P P o
NFR7  P - - o,w
NFR8  T T T s
NFR9  T T T s
NFR10 P - - o
NFR11 T S P i
NFR12 P - - o
NFR13 T - - w
NFR14 P P S o,v,i
NFR15 P - - o,w
NFR16 P - - w
NFR17 P - - o
NFR18 T T T s
NFR19 P - - o
NFR20 T S P i
NFR21 T P P i,v
NFR22 T - - w
NFR23 T - - w
NFR24 T P S v,i
"""

_LEVELS = {
    "P": ResponsibilityLevel.PRIMARY,
    "S": ResponsibilityLevel.SECONDARY,
    "T": ResponsibilityLevel.TERTIARY,
    "-": ResponsibilityLevel.NONE,
}


def golden_rows():
    for line in GOLDEN_MATRIX.strip().splitlines():
        key, o_lvl, v_lvl, i_lvl, owners = line.split()
        yield (
            NfrKey[key],
            _LEVELS[o_lvl],
            _LEVELS[v_lvl],
            _LEVELS[i_lvl],
            frozenset(ActorKind(c) for c in owners.split(",")),
        )


def test_matrix_matches_golden_table(kb):
    mismatches = []
    for nfr, o_lvl, v_lvl, i_lvl, owners in golden_rows():
        for actor, expected in (
            (ActorKind.DATA_OWNER, o_lvl),
            (ActorKind.VERIFIER, v_lvl),
            (ActorKind.ISSUER, i_lvl),
        ):
            if kb.lookup_responsibility(nfr, actor) is not expected:
                mismatches.append((nfr, actor))
        if kb.ownership[nfr] != owners:
            mismatches.append((nfr, "ownership"))
    assert mismatches == []


MINIMAL = """
system "campus" {
  actor owner "alice" {}
  actor issuer "uni" {}
  actor verifier "library" {}
}
"""


def _model_claiming(kb, actor_line):
    text = MINIMAL.replace(actor_line[0], actor_line[1])
    result = load_model(text, kb)
    assert result.model is not None
    return result.model


def test_claim_on_none_cell_is_error(kb):
    model = _model_claiming(
        kb, ('actor verifier "library" {}', 'actor verifier "library" { claims: [NFR3]; }')
    )
    rules = [f.rule for f in check_claims(model, kb)]
    assert "claims.no-responsibility" in rules


def test_primary_claim_is_ok(kb):
    model = _model_claiming(
        kb, ('actor issuer "uni" {}', 'actor issuer "uni" { claims: [NFR2]; }')
    )
    findings = check_claims(model, kb)
    assert [f.rule for f in findings] == ["claims.ok"]
    assert findings[0].severity is Severity.INFO


def test_secondary_claim_is_warning(kb):
    model = _model_claiming(
        kb, ('actor issuer "uni" {}', 'actor issuer "uni" { claims: [NFR24]; }')
    )
    findings = check_claims(model, kb)
    assert [f.rule for f in findings] == ["claims.secondary"]
    assert findings[0].severity is Severity.WARNING


def test_tertiary_claim_is_warning(kb):
    model = _model_claiming(
        kb, ('actor owner "alice" {}', 'actor owner "alice" { claims: [NFR2]; }')
    )
    rules = [f.rule for f in check_claims(model, kb)]
    assert "claims.tertiary" in rules


def test_non_owner_claim_without_primary_level(kb):
    # NFR1: verifier cell Tertiary, owners {o, w} exclude the verifier.
    model = _model_claiming(
        kb, ('actor verifier "library" {}', 'actor verifier "library" { claims: [NFR1]; }')
    )
    rules = sorted(f.rule for f in check_claims(model, kb))
    assert rules == ["claims.ownership", "claims.tertiary"]


def test_primary_claim_outside_ownership_has_no_ownership_error(kb):
    # NFR16: owner cell Primary, sole owner is the wallet.
    model = _model_claiming(
        kb, ('actor owner "alice" {}', 'actor owner "alice" { claims: [NFR16]; }')
    )
    rules = [f.rule for f in check_claims(model, kb)]
    assert rules == ["claims.ok"]


def rel(a, b, n):
    return DependencyRelation(ActorKind(a), ActorKind(b), NfrKey(n))


def test_derivation_per_nfr_examples(kb):
    derived = derive_dependencies(kb)

    def of(n):
        return {r for r in derived if r.nfr == NfrKey(n)}

    assert of(1) == {rel("v", "o", 1), rel("o", "w", 1)}
    assert of(2) == {rel("o", "i", 2), rel("v", "i", 2)}
    assert of(3) == set()
    assert of(8) == {rel("o", "s", 8), rel("i", "s", 8), rel("v", "s", 8)}


def test_derivation_is_deterministic_and_idempotent(kb):
    assert derive_dependencies(kb) == derive_dependencies(kb)


def test_diff_identity(kb):
    diff = diff_dependencies(kb.dependencies, kb.dependencies)
    assert not diff.missing_from_derived
    assert not diff.extra_in_derived
    assert diff.matched == kb.dependencies


def test_diff_empty_authoritative(kb):
    diff = diff_dependencies(set(), kb.dependencies)
    assert diff.extra_in_derived == kb.dependencies
    assert not diff.matched


def test_diff_partition(kb):
    derived = derive_dependencies(kb)
    diff = diff_dependencies(kb.dependencies, derived)
    assert not diff.matched & diff.missing_from_derived
    assert not diff.matched & diff.extra_in_derived
    assert not diff.missing_from_derived & diff.extra_in_derived
    assert diff.matched | diff.missing_from_derived == kb.dependencies
    assert diff.matched | diff.extra_in_derived == derived


def test_diff_builtin_vs_derived_in_table_rows(kb):
    derived = {r for r in derive_dependencies(kb) if r.nfr <= 5}
    diff = diff_dependencies(kb.dependencies, derived)
    assert diff.missing_from_derived == {rel("v", "o", 4)}
    assert not diff.extra_in_derived
    assert len(diff.matched) == 7


def test_rules_reproduce_table_rows_outside_nfr4(kb):
    derived = {
        r for r in derive_dependencies(kb) if r.nfr in (NfrKey.NFR1, NfrKey.NFR2, NfrKey.NFR3, NfrKey.NFR5)
    }
    authoritative = {r for r in kb.dependencies if r.nfr != NfrKey.NFR4}
    diff = diff_dependencies(authoritative, derived)
    assert not diff.missing_from_derived
    assert not diff.extra_in_derived


def test_coverage_kb_only(kb):
    report = coverage(kb)
    assert report.scope == "kb"
    assert set(report.covered) | set(report.uncovered) == set(NfrKey)
    assert not set(report.covered) & set(report.uncovered)
    assert {k for k in report.uncovered if k <= 5} == {NfrKey.NFR3, NfrKey.NFR5}


def test_coverage_with_complete_extension(kb, datadir):
    merged = merge(kb, load_extension((datadir / "full_coverage.kbx").read_text()))
    report = coverage(merged)
    assert report.uncovered == {
        NfrKey.NFR3,
        NfrKey.NFR5,
        NfrKey.NFR6,
        NfrKey.NFR10,
        NfrKey.NFR12,
        NfrKey.NFR23,
    }


def test_coverage_model_scoped(kb):
    text = MINIMAL.replace(
        'actor issuer "uni" {}', 'actor issuer "uni" { patterns: [A:"Status Registry"]; }'
    )
    model = load_model(text, kb).model
    report = coverage(kb, model)
    assert report.scope == "model"
    assert set(report.covered) == {NfrKey.NFR1, NfrKey.NFR4}
    assert report.covered[NfrKey.NFR1] == {("Status Registry", "uni")}


def test_coverage_model_without_patterns_is_vacuous(kb):
    model = load_model(MINIMAL, kb).model
    report = coverage(kb, model)
    assert not report.covered
    assert report.uncovered == frozenset(NfrKey)


def test_responsibility_stats(kb):
    stats = responsibility_stats(kb)
    assert stats.primary_counts == {
        ActorKind.DATA_OWNER: 12,
        ActorKind.ISSUER: 6,
        ActorKind.VERIFIER: 4,
    }
    assert stats.claimed_counts == {
        ActorKind.DATA_OWNER: 11,
        ActorKind.ISSUER: 6,
        ActorKind.VERIFIER: 5,
    }
    assert stats.primary_nfrs[ActorKind.ISSUER] == {
        NfrKey.NFR2,
        NfrKey.NFR5,
        NfrKey.NFR6,
        NfrKey.NFR11,
        NfrKey.NFR20,
        NfrKey.NFR21,
    }
    assert stats.primary_nfrs[ActorKind.VERIFIER] == {
        NfrKey.NFR6,
        NfrKey.NFR14,
        NfrKey.NFR21,
        NfrKey.NFR24,
    }
    assert len(stats.discrepancies) == 2
    assert "NFR10" in stats.discrepancies[0]
    assert "NFR15" in stats.discrepancies[1]


def test_stats_count_each_cell_once(kb):
    stats = responsibility_stats(kb)
    total = sum(stats.primary_counts.values())
    cells = sum(
        1
        for nfr in NfrKey
        for actor in (ActorKind.DATA_OWNER, ActorKind.ISSUER, ActorKind.VERIFIER)
        if kb.lookup_responsibility(nfr, actor) is ResponsibilityLevel.PRIMARY
    )
    assert total == cells == 22
    # multi-primary NFRs contribute to several actors
    for nfr in (NfrKey.NFR6, NfrKey.NFR14, NfrKey.NFR21):
        holders = [a for a, keys in stats.primary_nfrs.items() if nfr in keys]
        assert len(holders) >= 2


def test_classify_constraints(kb):
    result = classify_constraints(kb)
    assert result == {
        NfrKey.NFR8,
        NfrKey.NFR9,
        NfrKey.NFR13,
        NfrKey.NFR16,
        NfrKey.NFR18,
        NfrKey.NFR22,
        NfrKey.NFR23,
    }
    assert NfrKey.NFR1 not in result
