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
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii as _json_str

from ssiarch.extension import ExtensionError, convert, parse_records, read_fields
from ssiarch.findings import Finding, Severity
from ssiarch.kb import KnowledgeBase, NfrKey


def canonical_payload(credential_id: str, subject_id: str, attributes: dict[str, str]) -> bytes:
    """Order-preserving canonical serialization of a credential body, as
    compact JSON with every non-ASCII character escaped: byte for byte what
    `json.dumps(doc, separators=(",", ":"))` writes for the same document."""
    pairs = ",".join([f"[{_json_str(k)},{_json_str(v)}]" for k, v in attributes.items()])
    head = f'{{"id":{_json_str(credential_id)},"subject":{_json_str(subject_id)}'
    return f'{head},"attributes":[{pairs}]}}'.encode()


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

    def __post_init__(self) -> None:
        if not self.requested_attributes:
            raise ValueError("a presentation request must name attributes")
        if not isinstance(self.requested_attributes, frozenset):
            object.__setattr__(self, "requested_attributes", frozenset(self.requested_attributes))


class EventKind(enum.Enum):
    # Members hash by identity, in C, not through Enum's Python-level
    # `__hash__`: check_trace looks up its tables and state by kind.
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


#: The toggles of a scenario without faults; frozen, so one is shared.
_NO_TOGGLES = Toggles()


@dataclass(frozen=True)
class Scenario:
    issuer_id: str
    owner_id: str
    verifier_id: str
    attributes: dict[str, str]
    request: PresentationRequest
    toggles: Toggles = _NO_TOGGLES

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


#: The credential lifecycle as (kind, role) steps in trace order. A role
#: indexes (owner id, issuer id, verifier id): the step's actor, and the
#: only actor whose consent, check or disclosure a trace rule accepts.
_OWNER, _ISSUER, _VERIFIER = 0, 1, 2
_LIFECYCLE = (
    (EventKind.CONSENT_GRANTED, _OWNER),
    (EventKind.CREDENTIAL_REQUESTED, _OWNER),
    (EventKind.SCHEMA_SELECTED, _ISSUER),
    (EventKind.CREDENTIAL_ISSUED, _ISSUER),
    (EventKind.REVOKED, _ISSUER),
    (EventKind.PRESENTATION_REQUESTED, _VERIFIER),
    (EventKind.PRESENTATION_CONSENT_GRANTED, _OWNER),
    (EventKind.PRESENTED, _OWNER),
    (EventKind.SIGNATURE_VERIFIED, _VERIFIER),
    (EventKind.REVOCATION_CHECKED, _VERIFIER),
    (EventKind.ACCESS_GRANTED, _VERIFIER),
    (EventKind.ACCESS_DENIED, _VERIFIER),
)
_ROLE_OF = dict(_LIFECYCLE)


def run_scenario(scenario: Scenario) -> SimTrace:
    """Walk the lifecycle; faults surface as denied outcomes or as
    trace-check findings, never as exceptions."""
    toggles = scenario.toggles
    credential_id = "cred-1"
    attributes = scenario.attributes
    body = canonical_payload(credential_id, scenario.owner_id, attributes)
    tag = tag_of(scenario.issuer_id, body)
    revoked = toggles.revoke_before_presentation
    # The wallet holds the issued body, unless tampering changed a value
    # after issuance; then the recomputed tag no longer matches.
    wallet_payload = body
    if toggles.tamper_attribute is not None:
        wallet_attributes = dict(attributes)
        wallet_attributes[toggles.tamper_attribute] += "*"
        wallet_payload = canonical_payload(credential_id, scenario.owner_id, wallet_attributes)
    requested = scenario.request.requested_attributes
    if toggles.over_disclose:
        disclosed = sorted(attributes)
    else:
        disclosed = sorted(requested & attributes.keys())
    signature_ok = verify_tag(scenario.issuer_id, wallet_payload, tag)
    granted = signature_ok and not revoked

    # Each step's payload, in `_LIFECYCLE` order; None for a step that does
    # not happen. A tuple, not a dict keyed by kind: reading twelve members
    # off EventKind costs about 1 µs a scenario.
    payloads = (
        None if toggles.skip_issuance_consent else {"purpose": "issuance"},
        {"issuer": scenario.issuer_id, "attributes": sorted(attributes)},
        {"schema": "default-schema"},
        {"credential_id": credential_id, "tag": tag.hex()},
        {"credential_id": credential_id} if revoked else None,
        {"requested": sorted(requested), "purpose": "access"},
        None if toggles.skip_presentation_consent else {"purpose": "presentation"},
        {
            "credential_id": credential_id,
            "disclosed": disclosed,
            "commitment": hashlib.sha256(wallet_payload).hexdigest(),
        },
        {"success": signature_ok},
        {"revoked": revoked},
        {"used_attributes": disclosed} if granted else None,
        None if granted else {},
    )
    role_ids = (scenario.owner_id, scenario.issuer_id, scenario.verifier_id)
    events: list[SimEvent] = []
    for (kind, role), payload in zip(_LIFECYCLE, payloads, strict=True):
        if payload is not None:
            events.append(SimEvent(len(events) + 1, kind, role_ids[role], payload))
    return SimTrace(scenario, tuple(events), Outcome.GRANTED if granted else Outcome.DENIED)


#: Each trace rule's NFR and message, in the order findings are grouped.
_RULES = {
    "sim.nfr6.issuance": (NfrKey.NFR6, "credential issued without prior data-owner consent"),
    "sim.nfr6.presentation": (
        NfrKey.NFR6,
        "credential presented without prior data-owner consent",
    ),
    "sim.nfr14.overdisclosure": (NfrKey.NFR14, "disclosed more than the requested minimum"),
    "sim.nfr24.bypass": (
        NfrKey.NFR24,
        "access granted without successful signature and revocation checks",
    ),
    "sim.nfr19.sidechannel": (NfrKey.NFR19, "decision used attributes outside the presentation"),
}
_RULE_RANK = {rule: rank for rank, rule in enumerate(_RULES)}


def check_trace(trace: SimTrace, kb: KnowledgeBase) -> list[Finding]:
    """Check one trace against NFR semantics in one pass; raises
    TraceOrderError on a malformed sequence, otherwise all outcomes are
    findings. Each issuance, presentation and grant needs the latest
    role-correct consent or checks before it. A grant may use only what
    an owner presentation before it disclosed, and a presentation may
    disclose only what the scenario's request asks of its attributes."""
    # The kinds the rules fire on, as locals: reading an Enum member off
    # its class costs more than the rest of an event's checks.
    issued, presented = EventKind.CREDENTIAL_ISSUED, EventKind.PRESENTED
    granted = EventKind.ACCESS_GRANTED
    scenario = trace.scenario
    role_ids = (scenario.owner_id, scenario.issuer_id, scenario.verifier_id)
    allowed = scenario.request.requested_attributes & scenario.attributes.keys()
    latest: dict[EventKind, SimEvent] = {}
    disclosed: set[str] = set()
    findings: list[Finding] = []

    def note(rule: str, event: SimEvent, names: set[str] | None = None) -> None:
        nfr, message = _RULES[rule]
        if names:
            message = f"{message}: {', '.join(sorted(names))}"
        message = f"{kb.label(nfr)}: {message}"
        findings.append(Finding(Severity.ERROR, rule, event.actor, message))

    last_seq = 0
    for event in trace.events:
        if event.seq <= last_seq:
            raise TraceOrderError(f"event seq {event.seq} does not increase after {last_seq}")
        last_seq = event.seq
        kind = event.kind
        by_role = event.actor == role_ids[_ROLE_OF[kind]]
        if by_role:
            latest[kind] = event
        if kind is issued:
            if EventKind.CONSENT_GRANTED not in latest:
                note("sim.nfr6.issuance", event)
        elif kind is presented:
            if EventKind.PRESENTATION_CONSENT_GRANTED not in latest:
                note("sim.nfr6.presentation", event)
            shown = event.payload.get("disclosed", ())
            if extra := set(shown) - allowed:
                note("sim.nfr14.overdisclosure", event, extra)
            if by_role:
                disclosed.update(shown)
        elif kind is granted:
            sig = latest.get(EventKind.SIGNATURE_VERIFIED)
            rev = latest.get(EventKind.REVOCATION_CHECKED)
            checked = sig and rev and sig.payload.get("success") and not rev.payload.get("revoked")
            if not by_role or not checked:
                note("sim.nfr24.bypass", event)
            if extra := set(event.payload.get("used_attributes", ())) - disclosed:
                note("sim.nfr19.sidechannel", event, extra)
    if len(findings) > 1:
        findings.sort(key=lambda f: _RULE_RANK[f.rule])
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


#: The toggles that are plain flags: every field that is off by default.
_TOGGLE_FLAGS = {f.name for f in fields(Toggles) if f.default is False}


def _parse_attributes(text: str) -> dict[str, str]:
    attributes: dict[str, str] = {}
    for part in text.split(","):
        name, eq, value = part.partition("=")
        if eq:
            attributes[name.strip()] = value.strip()
        elif part := part.strip():
            raise ValueError(f"attribute {part!r} must be name=value")
    return attributes


def _parse_toggles(text: str) -> Toggles:
    flags: dict[str, object] = {}
    for flag in filter(None, map(str.strip, text.split(","))):
        name, eq, value = flag.partition("=")
        if flag in _TOGGLE_FLAGS:
            flags[flag] = True
        elif eq and name.rstrip() == "tamper_attribute":
            flags["tamper_attribute"] = value.lstrip()
        else:
            raise ValueError(f"unknown toggle {flag!r}")
    return Toggles(**flags) if flags else _NO_TOGGLES  # type: ignore[arg-type]


def load_scenarios(text: str) -> list[Scenario]:
    """Read `[scenario]` records in the KB extension record syntax."""
    scenarios: list[Scenario] = []
    for record in parse_records(text):
        if record.header != "scenario":
            raise ExtensionError(f"unknown record type [{record.header}]", record.line)
        values = read_fields(
            record, ("issuer", "owner", "verifier", "attributes", "request"), ("toggles",)
        )
        attributes = convert(values["attributes"], _parse_attributes)
        toggles = convert(values.get("toggles", ("", record.line)), _parse_toggles)
        issuer, owner, verifier = values["issuer"][0], values["owner"][0], values["verifier"][0]
        requested = frozenset(filter(None, map(str.strip, values["request"][0].split(","))))
        try:
            request = PresentationRequest(verifier, requested)
            scenarios.append(Scenario(issuer, owner, verifier, attributes, request, toggles))
        except ValueError as exc:
            raise ExtensionError(str(exc), record.line) from exc
    return scenarios
