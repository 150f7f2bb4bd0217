"""A brute-force trace checker, kept as the reference that
`ssiarch.sim.check_trace` must agree with: the same findings, in the same
order, with the same subjects and messages. It is written from the trace
rules as README states them, and for each event it re-scans every event
before it. Nothing in `src/` uses it, and it reads none of `sim`'s tables.

- The owner must act consents and presentations, the verifier signature
  and revocation checks; the same event by anyone else does not count.
- An issuance needs an earlier owner consent, and a presentation an
  earlier owner presentation consent.
- A presentation may disclose only what the scenario requests of its
  attributes.
- A grant must be acted by the verifier, after a latest verifier
  signature check that succeeded and a latest verifier revocation check
  that found no revocation. It may use only attributes that an earlier
  owner presentation disclosed."""

from __future__ import annotations

from ssiarch.findings import Finding, Severity
from ssiarch.kb import KnowledgeBase, NfrKey
from ssiarch.sim import EventKind, SimTrace

#: Rule, NFR and message; findings are grouped in this order.
_ISSUANCE = (
    "sim.nfr6.issuance",
    NfrKey.NFR6,
    "credential issued without prior data-owner consent",
)
_PRESENTATION = (
    "sim.nfr6.presentation",
    NfrKey.NFR6,
    "credential presented without prior data-owner consent",
)
_OVERDISCLOSURE = (
    "sim.nfr14.overdisclosure",
    NfrKey.NFR14,
    "disclosed more than the requested minimum",
)
_BYPASS = (
    "sim.nfr24.bypass",
    NfrKey.NFR24,
    "access granted without successful signature and revocation checks",
)
_SIDECHANNEL = (
    "sim.nfr19.sidechannel",
    NfrKey.NFR19,
    "decision used attributes outside the presentation",
)
_ORDER = (_ISSUANCE, _PRESENTATION, _OVERDISCLOSURE, _BYPASS, _SIDECHANNEL)


def reference_check_trace(trace: SimTrace, kb: KnowledgeBase) -> list[Finding]:
    """The findings `check_trace` must give for a trace whose sequence
    numbers increase."""
    scenario = trace.scenario
    owner, verifier = scenario.owner_id, scenario.verifier_id
    allowed = set(scenario.request.requested_attributes) & set(scenario.attributes)
    found: dict[tuple, list[Finding]] = {rule: [] for rule in _ORDER}

    def add(rule: tuple, subject: str, names: set[str] = frozenset()) -> None:
        name, nfr, message = rule
        if names:
            message += ": " + ", ".join(sorted(names))
        found[rule].append(
            Finding(Severity.ERROR, name, subject, f"{nfr.name} ({kb.entry(nfr).name}): {message}")
        )

    for i, event in enumerate(trace.events):
        earlier = trace.events[:i]

        def by(kind: EventKind, actor: str) -> list:
            return [e for e in earlier if e.kind is kind and e.actor == actor]

        if event.kind is EventKind.CREDENTIAL_ISSUED:
            if not by(EventKind.CONSENT_GRANTED, owner):
                add(_ISSUANCE, event.actor)
        if event.kind is EventKind.PRESENTED:
            if not by(EventKind.PRESENTATION_CONSENT_GRANTED, owner):
                add(_PRESENTATION, event.actor)
            extra = set(event.payload.get("disclosed", [])) - allowed
            if extra:
                add(_OVERDISCLOSURE, event.actor, extra)
        if event.kind is EventKind.ACCESS_GRANTED:
            signatures = by(EventKind.SIGNATURE_VERIFIED, verifier)
            revocations = by(EventKind.REVOCATION_CHECKED, verifier)
            gated = (
                event.actor == verifier
                and bool(signatures)
                and bool(signatures[-1].payload.get("success"))
                and bool(revocations)
                and not revocations[-1].payload.get("revoked")
            )
            if not gated:
                add(_BYPASS, event.actor)
            shown: set[str] = set()
            for presented in by(EventKind.PRESENTED, owner):
                shown.update(presented.payload.get("disclosed", []))
            extra = set(event.payload.get("used_attributes", [])) - shown
            if extra:
                add(_SIDECHANNEL, event.actor, extra)
    return [finding for rule in _ORDER for finding in found[rule]]
