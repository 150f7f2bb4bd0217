"""Deterministic credential-lifecycle simulator.

Runs the request -> issuance -> presentation -> verification -> access
flow as a fixed event sequence, with fault toggles (skipped consent,
tampering, revocation, over-disclosure), and checks the resulting trace
against NFR semantics: consent, minimal disclosure, verification gating,
and single-source decisions.

Authenticity uses a deterministic tag (a keyed digest), not real
cryptography: the verifier recomputes the tag over the full payload the
wallet holds at presentation time and compares it with the tag attached
at issuance."""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field

from ssiarch.extension import ExtensionError, parse_records
from ssiarch.findings import Finding, Severity
from ssiarch.kb import KnowledgeBase, NfrKey


def canonical_payload(credential_id: str, subject_id: str, attributes: dict[str, str]) -> bytes:
    """Order-preserving canonical serialization of a credential body."""
    doc = {
        "id": credential_id,
        "subject": subject_id,
        "attributes": list(attributes.items()),
    }
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def tag_of(issuer_id: str, payload: bytes) -> bytes:
    """32-byte deterministic authenticity tag over issuer and payload.

    The issuer id and payload are length-prefixed so distinct
    (issuer, payload) pairs never collide by concatenation."""
    h = hashlib.sha256()
    issuer_bytes = issuer_id.encode("utf-8")
    h.update(len(issuer_bytes).to_bytes(8, "big"))
    h.update(issuer_bytes)
    h.update(len(payload).to_bytes(8, "big"))
    h.update(payload)
    return h.digest()


def verify_tag(issuer_id: str, payload: bytes, tag: bytes) -> bool:
    return tag_of(issuer_id, payload) == tag


@dataclass(frozen=True)
class PresentationRequest:
    verifier_id: str
    requested_attributes: frozenset[str]
    purpose: str = "access"

    def __post_init__(self) -> None:
        if not self.requested_attributes:
            raise ValueError("a presentation request must name attributes")
        object.__setattr__(self, "requested_attributes", frozenset(self.requested_attributes))


class EventKind(enum.Enum):
    # Members hash by identity, in C, not through Enum's Python-level
    # `__hash__`: check_trace groups every event of a trace by kind.
    __hash__ = object.__hash__

    CONSENT_GRANTED = "ConsentGranted"
    CREDENTIAL_REQUESTED = "CredentialRequested"
    SCHEMA_SELECTED = "SchemaSelected"
    CREDENTIAL_ISSUED = "CredentialIssued"
    REVOKED = "Revoked"
    PRESENTATION_REQUESTED = "PresentationRequested"
    PRESENTATION_CONSENT_GRANTED = "PresentationConsentGranted"
    PRESENTED = "Presented"
    SIGNATURE_VERIFIED = "SignatureVerified"
    REVOCATION_CHECKED = "RevocationChecked"
    ACCESS_GRANTED = "AccessGranted"
    ACCESS_DENIED = "AccessDenied"


@dataclass(frozen=True)
class SimEvent:
    seq: int
    kind: EventKind
    actor: str
    payload: dict


class Outcome(enum.Enum):
    GRANTED = "granted"
    DENIED = "denied"


@dataclass(frozen=True)
class Toggles:
    """Fault injection around the happy-path flow."""

    skip_issuance_consent: bool = False
    skip_presentation_consent: bool = False
    tamper_attribute: str | None = None
    revoke_before_presentation: bool = False
    over_disclose: bool = False


@dataclass(frozen=True)
class Scenario:
    issuer_id: str
    owner_id: str
    verifier_id: str
    attributes: dict[str, str]
    request: PresentationRequest
    toggles: Toggles = field(default_factory=Toggles)

    def __post_init__(self) -> None:
        if not self.attributes:
            raise ValueError("scenario attributes must be non-empty")
        if self.request.verifier_id != self.verifier_id:
            raise ValueError(
                f"request verifier {self.request.verifier_id!r} is not the scenario verifier"
                f" {self.verifier_id!r}"
            )
        tampered = self.toggles.tamper_attribute
        if tampered is not None and tampered not in self.attributes:
            raise ValueError(f"tamper_attribute {tampered!r} is not a scenario attribute")


@dataclass(frozen=True)
class SimTrace:
    scenario: Scenario
    events: tuple[SimEvent, ...]
    outcome: Outcome


class TraceOrderError(Exception):
    """Event sequence numbers are not strictly increasing."""


def run_scenario(scenario: Scenario) -> SimTrace:
    """Execute the scenario; faults surface as denied outcomes or as
    trace-check findings, never as exceptions."""
    events: list[SimEvent] = []

    def emit(kind: EventKind, actor: str, **payload) -> None:
        events.append(SimEvent(seq=len(events) + 1, kind=kind, actor=actor, payload=payload))

    toggles = scenario.toggles
    if not toggles.skip_issuance_consent:
        emit(EventKind.CONSENT_GRANTED, scenario.owner_id, purpose="issuance")
    emit(
        EventKind.CREDENTIAL_REQUESTED,
        scenario.owner_id,
        issuer=scenario.issuer_id,
        attributes=sorted(scenario.attributes),
    )
    emit(EventKind.SCHEMA_SELECTED, scenario.issuer_id, schema="default-schema")

    credential_id = "cred-1"
    payload = canonical_payload(credential_id, scenario.owner_id, scenario.attributes)
    tag = tag_of(scenario.issuer_id, payload)
    emit(
        EventKind.CREDENTIAL_ISSUED, scenario.issuer_id, credential_id=credential_id, tag=tag.hex()
    )

    revoked = toggles.revoke_before_presentation
    if revoked:
        emit(EventKind.REVOKED, scenario.issuer_id, credential_id=credential_id)

    # The wallet's copy of the credential body; tampering mutates it
    # after issuance, so the recomputed tag no longer matches.
    wallet_attributes = dict(scenario.attributes)
    if toggles.tamper_attribute is not None:
        wallet_attributes[toggles.tamper_attribute] += "*"

    emit(
        EventKind.PRESENTATION_REQUESTED,
        scenario.verifier_id,
        requested=sorted(scenario.request.requested_attributes),
        purpose=scenario.request.purpose,
    )
    if not toggles.skip_presentation_consent:
        emit(EventKind.PRESENTATION_CONSENT_GRANTED, scenario.owner_id, purpose="presentation")

    if toggles.over_disclose:
        disclosed_keys = sorted(wallet_attributes)
    else:
        disclosed_keys = sorted(scenario.request.requested_attributes & set(wallet_attributes))
    wallet_payload = canonical_payload(credential_id, scenario.owner_id, wallet_attributes)
    emit(
        EventKind.PRESENTED,
        scenario.owner_id,
        credential_id=credential_id,
        disclosed=disclosed_keys,
        commitment=hashlib.sha256(wallet_payload).hexdigest(),
    )

    signature_ok = verify_tag(scenario.issuer_id, wallet_payload, tag)
    emit(EventKind.SIGNATURE_VERIFIED, scenario.verifier_id, success=signature_ok)
    emit(EventKind.REVOCATION_CHECKED, scenario.verifier_id, revoked=revoked)

    if signature_ok and not revoked:
        emit(EventKind.ACCESS_GRANTED, scenario.verifier_id, used_attributes=disclosed_keys)
        outcome = Outcome.GRANTED
    else:
        emit(EventKind.ACCESS_DENIED, scenario.verifier_id)
        outcome = Outcome.DENIED
    return SimTrace(scenario=scenario, events=tuple(events), outcome=outcome)


def check_trace(trace: SimTrace, kb: KnowledgeBase) -> list[Finding]:
    """Check one trace against NFR semantics; raises TraceOrderError on
    a malformed sequence, otherwise all outcomes are findings. Every
    issuance, presentation and grant is checked, not only the first:
    each needs the consent or checks that precede it, and a grant may
    use only attributes that some presentation before it disclosed."""
    events_of: dict[EventKind, list[SimEvent]] = {}
    last_seq = 0
    for event in trace.events:
        if event.seq <= last_seq:
            raise TraceOrderError(
                f"event seq {event.seq} does not increase after {last_seq}"
            )
        last_seq = event.seq
        events_of.setdefault(event.kind, []).append(event)

    findings: list[Finding] = []

    def note(rule: str, nfr: NfrKey, subject: str, message: str) -> None:
        findings.append(
            Finding(
                Severity.ERROR,
                rule,
                subject,
                f"{nfr.name} ({kb.entry(nfr).name}): {message}",
            )
        )

    def first(kind: EventKind) -> SimEvent | None:
        return events_of.get(kind, (None,))[0]

    consent = first(EventKind.CONSENT_GRANTED)
    for issued in events_of.get(EventKind.CREDENTIAL_ISSUED, ()):
        if consent is None or consent.seq > issued.seq:
            note(
                "sim.nfr6.issuance",
                NfrKey.NFR6,
                issued.actor,
                "credential issued without prior data-owner consent",
            )

    presented_events = events_of.get(EventKind.PRESENTED, ())
    pres_consent = first(EventKind.PRESENTATION_CONSENT_GRANTED)
    for presented in presented_events:
        if pres_consent is None or pres_consent.seq > presented.seq:
            note(
                "sim.nfr6.presentation",
                NfrKey.NFR6,
                presented.actor,
                "credential presented without prior data-owner consent",
            )

    requested_event = first(EventKind.PRESENTATION_REQUESTED)
    if requested_event is not None:
        requested = set(requested_event.payload.get("requested", []))
        allowed = requested & set(trace.scenario.attributes)
        for presented in presented_events:
            extra = set(presented.payload.get("disclosed", [])) - allowed
            if extra:
                note(
                    "sim.nfr14.overdisclosure",
                    NfrKey.NFR14,
                    presented.actor,
                    f"disclosed more than the requested minimum: {', '.join(sorted(extra))}",
                )

    sig = first(EventKind.SIGNATURE_VERIFIED)
    rev = first(EventKind.REVOCATION_CHECKED)
    for granted in events_of.get(EventKind.ACCESS_GRANTED, ()):
        sig_ok = sig is not None and sig.payload.get("success") and sig.seq < granted.seq
        rev_ok = rev is not None and not rev.payload.get("revoked") and rev.seq < granted.seq
        if not (sig_ok and rev_ok):
            note(
                "sim.nfr24.bypass",
                NfrKey.NFR24,
                granted.actor,
                "access granted without successful signature and revocation checks",
            )
        extra = set(granted.payload.get("used_attributes", [])).difference(
            *(p.payload.get("disclosed", ()) for p in presented_events if p.seq < granted.seq)
        )
        if extra:
            note(
                "sim.nfr19.sidechannel",
                NfrKey.NFR19,
                granted.actor,
                f"decision used attributes outside the presentation: {', '.join(sorted(extra))}",
            )
    return findings


def export_trace(trace: SimTrace) -> str:
    """Line-delimited export: seq<TAB>kind<TAB>actor<TAB>payload-digest."""
    lines = []
    for event in trace.events:
        digest = hashlib.sha256(
            json.dumps(event.payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
        ).hexdigest()
        lines.append(f"{event.seq}\t{event.kind.value}\t{event.actor}\t{digest}")
    return "\n".join(lines) + "\n"


_SCENARIO_KEYS = {"issuer", "owner", "verifier", "attributes", "request", "toggles"}
_TOGGLE_FLAGS = {
    "skip_issuance_consent",
    "skip_presentation_consent",
    "revoke_before_presentation",
    "over_disclose",
}


def load_scenarios(text: str) -> list[Scenario]:
    """Read `[scenario]` records in the KB extension record syntax."""
    scenarios: list[Scenario] = []
    for record in parse_records(text):
        if record.header != "scenario":
            raise ExtensionError(f"unknown record type [{record.header}]", record.line)
        for key, (_, lineno) in record.fields.items():
            if key not in _SCENARIO_KEYS:
                raise ExtensionError(f"unknown key {key!r} in [scenario]", lineno)
        missing = {"issuer", "owner", "verifier", "attributes", "request"} - set(record.fields)
        if missing:
            raise ExtensionError(
                f"missing keys in [scenario]: {', '.join(sorted(missing))}", record.line
            )
        attrs_text, attrs_line = record.fields["attributes"]
        attributes: dict[str, str] = {}
        for part in attrs_text.split(","):
            if not part.strip():
                continue
            if "=" not in part:
                raise ExtensionError(
                    f"attribute {part.strip()!r} must be name=value", attrs_line
                )
            name, _, value = part.partition("=")
            attributes[name.strip()] = value.strip()
        request_text, _ = record.fields["request"]
        requested = frozenset(p.strip() for p in request_text.split(",") if p.strip())
        toggles = Toggles()
        if "toggles" in record.fields:
            toggles_text, toggles_line = record.fields["toggles"]
            flags: dict[str, object] = {}
            for part in toggles_text.split(","):
                flag = part.strip()
                if not flag:
                    continue
                if flag.startswith("tamper_attribute="):
                    flags["tamper_attribute"] = flag.split("=", 1)[1]
                elif flag in _TOGGLE_FLAGS:
                    flags[flag] = True
                else:
                    raise ExtensionError(f"unknown toggle {flag!r}", toggles_line)
            toggles = Toggles(**flags)  # type: ignore[arg-type]
        try:
            scenarios.append(
                Scenario(
                    issuer_id=record.fields["issuer"][0],
                    owner_id=record.fields["owner"][0],
                    verifier_id=record.fields["verifier"][0],
                    attributes=attributes,
                    request=PresentationRequest(
                        verifier_id=record.fields["verifier"][0],
                        requested_attributes=requested,
                    ),
                    toggles=toggles,
                )
            )
        except ValueError as exc:
            raise ExtensionError(str(exc), record.line) from exc
    return scenarios
