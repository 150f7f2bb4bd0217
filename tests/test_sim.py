import dataclasses
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssiarch import sim
from ssiarch.extension import ExtensionError
from ssiarch.sim import (
    EventKind,
    Outcome,
    PresentationRequest,
    Scenario,
    SimEvent,
    SimTrace,
    Toggles,
    TraceOrderError,
    canonical_payload,
    check_trace,
    export_trace,
    load_scenarios,
    run_scenario,
    tag_of,
    verify_tag,
)

from model_gen import record_field
from reference_trace import reference_check_trace


def base_scenario(attributes=None, requested=("degree",), toggles=Toggles()):
    attributes = attributes or {"name": "Alice", "degree": "MSc", "year": "2024"}
    return Scenario(
        issuer_id="uni",
        owner_id="alice",
        verifier_id="library",
        attributes=attributes,
        request=PresentationRequest(
            verifier_id="library", requested_attributes=frozenset(requested)
        ),
        toggles=toggles,
    )


def test_tag_is_deterministic():
    assert tag_of("uni", b"payload") == tag_of("uni", b"payload")
    assert len(tag_of("uni", b"payload")) == 32


def test_tag_separates_issuers():
    rng = random.Random(7)
    for _ in range(1000):
        i1 = "i" + str(rng.randrange(10**6))
        i2 = "j" + str(rng.randrange(10**6))
        payload = rng.randbytes(rng.randint(0, 40))
        assert tag_of(i1, payload) != tag_of(i2, payload)


def test_tag_no_concatenation_ambiguity():
    assert tag_of("ab", b"c") != tag_of("a", b"bc")


def test_verify_semantics():
    tag = tag_of("uni", b"data")
    assert verify_tag("uni", b"data", tag)
    assert not verify_tag("uni", b"datA", tag)
    assert not verify_tag("uno", b"data", tag)


def reference_payload(credential_id, subject_id, attributes):
    """`canonical_payload` as compact `json.dumps`: the bytes every tag
    and commitment has been computed over."""
    doc = {"id": credential_id, "subject": subject_id, "attributes": list(attributes.items())}
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


#: Any text, lone surrogates included, with quotes, backslashes, C0/C1
#: controls and non-BMP characters drawn often.
_ANY_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=())),
    st.text(st.sampled_from('"\\\x00\x1f\x7f\x85\x9f\u2028\ud800\udfff\xe9\U0001f600a=,/')),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ANY_TEXT, st.dictionaries(_ANY_TEXT, _ANY_TEXT, max_size=5))
def test_canonical_payload_is_compact_json(owner, attributes):
    expected = reference_payload("cred-1", owner, attributes)
    payload = canonical_payload("cred-1", owner, attributes)
    assert payload == expected
    assert tag_of("uni", payload) == tag_of("uni", expected)
    assert verify_tag("uni", expected, tag_of("uni", payload))


@pytest.mark.parametrize("tamper, serializations", [(None, 1), ("year", 2)])
def test_run_scenario_serializes_only_a_changed_body(monkeypatch, tamper, serializations):
    """The wallet's copy is serialized again only when it differs from the
    issued body; the verifier recomputes the tag either way."""
    calls = {"canonical_payload": 0, "tag_of": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(sim, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(sim, name, counted)
    trace = run_scenario(base_scenario(toggles=Toggles(tamper_attribute=tamper)))
    assert calls == {"canonical_payload": serializations, "tag_of": 2}
    sig = next(e for e in trace.events if e.kind is EventKind.SIGNATURE_VERIFIED)
    assert sig.payload["success"] is (tamper is None)
    assert trace.outcome is (Outcome.GRANTED if tamper is None else Outcome.DENIED)


def test_happy_path():
    trace = run_scenario(base_scenario())
    assert trace.outcome is Outcome.GRANTED
    kinds = [e.kind for e in trace.events]
    assert kinds == [
        EventKind.CONSENT_GRANTED,
        EventKind.CREDENTIAL_REQUESTED,
        EventKind.SCHEMA_SELECTED,
        EventKind.CREDENTIAL_ISSUED,
        EventKind.PRESENTATION_REQUESTED,
        EventKind.PRESENTATION_CONSENT_GRANTED,
        EventKind.PRESENTED,
        EventKind.SIGNATURE_VERIFIED,
        EventKind.REVOCATION_CHECKED,
        EventKind.ACCESS_GRANTED,
    ]


def test_happy_path_minimal_disclosure():
    trace = run_scenario(base_scenario(requested=("degree", "missing")))
    presented = next(e for e in trace.events if e.kind is EventKind.PRESENTED)
    assert presented.payload["disclosed"] == ["degree"]


def test_happy_path_has_no_findings(kb):
    assert check_trace(run_scenario(base_scenario()), kb) == []


def test_skip_issuance_consent(kb):
    trace = run_scenario(base_scenario(toggles=Toggles(skip_issuance_consent=True)))
    findings = check_trace(trace, kb)
    assert [f.rule for f in findings] == ["sim.nfr6.issuance"]


def test_skip_presentation_consent(kb):
    trace = run_scenario(base_scenario(toggles=Toggles(skip_presentation_consent=True)))
    findings = check_trace(trace, kb)
    assert [f.rule for f in findings] == ["sim.nfr6.presentation"]


def test_tamper_denies_access(kb):
    trace = run_scenario(base_scenario(toggles=Toggles(tamper_attribute="year")))
    assert trace.outcome is Outcome.DENIED
    sig = next(e for e in trace.events if e.kind is EventKind.SIGNATURE_VERIFIED)
    assert sig.payload["success"] is False


def test_revocation_denies_access(kb):
    trace = run_scenario(base_scenario(toggles=Toggles(revoke_before_presentation=True)))
    assert trace.outcome is Outcome.DENIED
    rev = next(e for e in trace.events if e.kind is EventKind.REVOCATION_CHECKED)
    assert rev.payload["revoked"] is True


def test_over_disclosure(kb):
    trace = run_scenario(base_scenario(toggles=Toggles(over_disclose=True)))
    findings = check_trace(trace, kb)
    assert [f.rule for f in findings] == ["sim.nfr14.overdisclosure"]


def test_tamper_of_unknown_attribute_rejected():
    with pytest.raises(ValueError):
        base_scenario(toggles=Toggles(tamper_attribute="nope"))


def test_exhaustive_single_attribute_tamper():
    for width in range(1, 6):
        attributes = {f"a{i}": f"v{i}" for i in range(width)}
        for target in attributes:
            scenario = base_scenario(
                attributes=attributes,
                requested=("a0",),
                toggles=Toggles(tamper_attribute=target),
            )
            trace = run_scenario(scenario)
            assert trace.outcome is Outcome.DENIED, (width, target)


def test_traces_are_deterministic():
    s = base_scenario()
    assert export_trace(run_scenario(s)) == export_trace(run_scenario(s))
    assert run_scenario(s).events == run_scenario(s).events


def test_export_format():
    trace = run_scenario(base_scenario())
    lines = export_trace(trace).splitlines()
    assert len(lines) == len(trace.events)
    first = lines[0].split("\t")
    assert first[0] == "1"
    assert first[1] == "ConsentGranted"
    assert first[2] == "alice"
    assert len(first[3]) == 64


def test_outcome_gate():
    for toggles in (Toggles(), Toggles(tamper_attribute="degree"), Toggles(revoke_before_presentation=True)):
        trace = run_scenario(base_scenario(toggles=toggles))
        granted = [e for e in trace.events if e.kind is EventKind.ACCESS_GRANTED]
        sig_ok = any(
            e.kind is EventKind.SIGNATURE_VERIFIED and e.payload["success"]
            for e in trace.events
        )
        rev_clear = any(
            e.kind is EventKind.REVOCATION_CHECKED and not e.payload["revoked"]
            for e in trace.events
        )
        assert bool(granted) == (sig_ok and rev_clear)
        assert (trace.outcome is Outcome.GRANTED) == bool(granted)


def test_check_trace_rejects_bad_sequence(kb):
    trace = run_scenario(base_scenario())
    events = list(trace.events)
    events[1] = dataclasses.replace(events[1], seq=events[0].seq)
    broken = SimTrace(scenario=trace.scenario, events=tuple(events), outcome=trace.outcome)
    with pytest.raises(TraceOrderError):
        check_trace(broken, kb)


def test_sidechannel_detected(kb):
    trace = run_scenario(base_scenario())
    events = []
    for e in trace.events:
        if e.kind is EventKind.ACCESS_GRANTED:
            payload = dict(e.payload)
            payload["used_attributes"] = list(payload["used_attributes"]) + ["ssn"]
            e = SimEvent(e.seq, e.kind, e.actor, payload)
        events.append(e)
    forged = SimTrace(scenario=trace.scenario, events=tuple(events), outcome=trace.outcome)
    findings = check_trace(forged, kb)
    assert [f.rule for f in findings] == ["sim.nfr19.sidechannel"]


def test_bypass_detected(kb):
    trace = run_scenario(base_scenario())
    events = []
    for e in trace.events:
        if e.kind is EventKind.SIGNATURE_VERIFIED:
            e = SimEvent(e.seq, e.kind, e.actor, {"success": False})
        events.append(e)
    forged = SimTrace(scenario=trace.scenario, events=tuple(events), outcome=trace.outcome)
    findings = check_trace(forged, kb)
    assert "sim.nfr24.bypass" in [f.rule for f in findings]


def test_load_scenarios(datadir):
    scenarios = load_scenarios((datadir / "demo.scenario").read_text())
    assert len(scenarios) == 2
    assert scenarios[0].attributes == {"name": "Alice", "degree": "MSc", "year": "2024"}
    assert scenarios[0].request.requested_attributes == {"degree"}
    assert not scenarios[0].toggles.over_disclose
    assert scenarios[1].toggles.over_disclose


def test_load_scenarios_tamper_toggle():
    text = (
        "[scenario]\nissuer = i\nowner = o\nverifier = v\n"
        "attributes = a=1, b=2\nrequest = a\ntoggles = tamper_attribute=b\n"
    )
    (scenario,) = load_scenarios(text)
    assert scenario.toggles.tamper_attribute == "b"


def test_load_scenarios_allows_spaces_around_the_tamper_value():
    text = (
        "[scenario]\nissuer = i\nowner = o\nverifier = v\n"
        "attributes = a=1, b=2\nrequest = a\ntoggles = tamper_attribute = b , over_disclose\n"
    )
    (scenario,) = load_scenarios(text)
    assert scenario.toggles == Toggles(tamper_attribute="b", over_disclose=True)


def test_load_scenarios_keeps_a_separator_character_in_a_value():
    """An FS (U+001C) is not a line break in a scenario file: it stays in
    the attribute value, and a later error counts lines by LF."""
    text = (
        "[scenario]\nissuer = i\nowner = o\nverifier = v\n"
        "attributes = a=1\x1c2, b=2\nrequest = a\n"
    )
    (scenario,) = load_scenarios(text)
    assert scenario.attributes == {"a": "1\x1c2", "b": "2"}
    with pytest.raises(ExtensionError) as exc:
        load_scenarios(text + "[wallet]\n")
    assert exc.value.line == 7


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[scenario]\nissuer = i\n", "missing keys"),
        (
            "[scenario]\nissuer = i\nowner = o\nverifier = v\nattributes = a\nrequest = a\n",
            "name=value",
        ),
        (
            "[scenario]\nissuer = i\nowner = o\nverifier = v\nattributes = a=1\n"
            "request = a\ntoggles = warp_speed\n",
            "warp_speed",
        ),
        ("[dependency]\nnfr = NFR1\n", "unknown record"),
    ],
)
def test_load_scenarios_rejects_malformed(text, fragment):
    with pytest.raises(ExtensionError) as exc:
        load_scenarios(text)
    assert fragment in str(exc.value)


def test_overdisclosure_of_unrequested_attribute_detected(kb):
    # Discloses (and uses) `name` where only `degree` was requested: not a
    # superset of the request, but still more than it allows.
    trace = run_scenario(base_scenario())
    events = []
    for e in trace.events:
        if e.kind is EventKind.PRESENTED:
            e = SimEvent(e.seq, e.kind, e.actor, {**e.payload, "disclosed": ["name"]})
        elif e.kind is EventKind.ACCESS_GRANTED:
            e = SimEvent(e.seq, e.kind, e.actor, {"used_attributes": ["name"]})
        events.append(e)
    forged = SimTrace(scenario=trace.scenario, events=tuple(events), outcome=trace.outcome)
    findings = check_trace(forged, kb)
    assert [f.rule for f in findings] == ["sim.nfr14.overdisclosure"]
    assert findings[0].message.endswith("requested minimum: name")


def _renumbered(trace, events):
    """`trace` with `events`, numbered 1, 2, ... in order."""
    events = tuple(dataclasses.replace(e, seq=i) for i, e in enumerate(events, 1))
    return SimTrace(scenario=trace.scenario, events=events, outcome=trace.outcome)


def _event(trace, kind):
    return next(e for e in trace.events if e.kind is kind)


def test_every_presentation_and_access_is_checked(kb):
    # A second presentation discloses unrequested `name`; a second grant
    # uses it. The grant is covered by what the trace disclosed.
    trace = run_scenario(base_scenario())
    presented = _event(trace, EventKind.PRESENTED)
    granted = _event(trace, EventKind.ACCESS_GRANTED)
    forged = _renumbered(
        trace,
        [
            *trace.events,
            dataclasses.replace(presented, payload={**presented.payload, "disclosed": ["name"]}),
            dataclasses.replace(granted, payload={"used_attributes": ["name"]}),
        ],
    )
    findings = check_trace(forged, kb)
    assert [f.rule for f in findings] == ["sim.nfr14.overdisclosure"]
    assert findings[0].message.endswith("requested minimum: name")


def test_second_grant_using_undisclosed_attribute_is_flagged(kb):
    trace = run_scenario(base_scenario())
    granted = _event(trace, EventKind.ACCESS_GRANTED)
    extra = dataclasses.replace(granted, payload={"used_attributes": ["degree", "year"]})
    findings = check_trace(_renumbered(trace, [*trace.events, extra]), kb)
    assert [f.rule for f in findings] == ["sim.nfr19.sidechannel"]
    assert findings[0].message.endswith("outside the presentation: year")


def test_grant_before_the_presentation_is_flagged(kb):
    # The presentation moves after the grant, so the decision used
    # `degree` before anything was disclosed.
    trace = run_scenario(base_scenario())
    presented = _event(trace, EventKind.PRESENTED)
    events = [e for e in trace.events if e is not presented]
    findings = check_trace(_renumbered(trace, [*events, presented]), kb)
    assert [f.rule for f in findings] == ["sim.nfr19.sidechannel"]
    assert findings[0].message.endswith("outside the presentation: degree")


def test_every_issuance_and_presentation_needs_consent(kb):
    trace = run_scenario(
        base_scenario(toggles=Toggles(skip_issuance_consent=True, skip_presentation_consent=True))
    )
    issued = _event(trace, EventKind.CREDENTIAL_ISSUED)
    presented = _event(trace, EventKind.PRESENTED)
    forged = _renumbered(trace, [*trace.events, issued, presented])
    rules = [f.rule for f in check_trace(forged, kb)]
    assert rules == ["sim.nfr6.issuance"] * 2 + ["sim.nfr6.presentation"] * 2


def test_every_grant_is_gated(kb):
    trace = run_scenario(base_scenario(toggles=Toggles(revoke_before_presentation=True)))
    granted = SimEvent(0, EventKind.ACCESS_GRANTED, "library", {"used_attributes": ["degree"]})
    forged = _renumbered(trace, [*trace.events, granted, granted])
    rules = [f.rule for f in check_trace(forged, kb)]
    assert rules == ["sim.nfr24.bypass"] * 2


def _recheck(trace, kind, payload):
    """`trace` with a copy of its `kind` event, carrying `payload`, right
    after that event."""
    events = []
    for e in trace.events:
        events.append(e)
        if e.kind is kind:
            events.append(dataclasses.replace(e, payload=payload))
    return _renumbered(trace, events)


def _acted_by(trace, kind, actor):
    """`trace` with its `kind` event acted by `actor`."""
    return _renumbered(
        trace, [dataclasses.replace(e, actor=actor) if e.kind is kind else e for e in trace.events]
    )


_ROLE_AND_ORDER_FORGERIES = {
    "failed-signature-after-success": (
        lambda t: _recheck(t, EventKind.SIGNATURE_VERIFIED, {"success": False}),
        "sim.nfr24.bypass",
    ),
    "revoked-after-clean-check": (
        lambda t: _recheck(t, EventKind.REVOCATION_CHECKED, {"revoked": True}),
        "sim.nfr24.bypass",
    ),
    "signature-checked-by-issuer": (
        lambda t: _acted_by(t, EventKind.SIGNATURE_VERIFIED, "uni"),
        "sim.nfr24.bypass",
    ),
    "access-granted-by-mallory": (
        lambda t: _acted_by(t, EventKind.ACCESS_GRANTED, "mallory"),
        "sim.nfr24.bypass",
    ),
    "consent-granted-by-issuer": (
        lambda t: _acted_by(t, EventKind.CONSENT_GRANTED, "uni"),
        "sim.nfr6.issuance",
    ),
    "presented-by-verifier": (
        lambda t: _acted_by(t, EventKind.PRESENTED, "library"),
        "sim.nfr19.sidechannel",
    ),
}


@pytest.mark.parametrize("name", sorted(_ROLE_AND_ORDER_FORGERIES))
def test_rules_need_the_right_role_and_the_latest_check(kb, name):
    forge, rule = _ROLE_AND_ORDER_FORGERIES[name]
    findings = check_trace(forge(run_scenario(base_scenario())), kb)
    assert [f.rule for f in findings] == [rule]


def test_presentation_by_the_verifier_discloses_nothing(kb):
    trace = _acted_by(run_scenario(base_scenario()), EventKind.PRESENTED, "library")
    (finding,) = check_trace(trace, kb)
    assert finding.subject == "library"
    assert finding.message.endswith("outside the presentation: degree")


_ATTRIBUTE_NAMES = ("name", "degree", "year", "ssn", "email")
_TRACE_MUTATION = st.tuples(
    st.sampled_from([EventKind.PRESENTED, EventKind.ACCESS_GRANTED]),
    st.lists(st.sampled_from(_ATTRIBUTE_NAMES), max_size=4),
    st.integers(0, 20),  # where to insert the event, or which to replace
    st.booleans(),  # insert a new event, or replace the payload of one
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.frozensets(st.sampled_from(_ATTRIBUTE_NAMES), min_size=1),
    st.lists(_TRACE_MUTATION, min_size=1, max_size=4),
)
def test_check_trace_flags_every_attribute_outside_the_request(kb, requested, mutations):
    scenario = base_scenario(requested=sorted(requested))
    trace = run_scenario(scenario)
    assert check_trace(trace, kb) == []
    events = list(trace.events)
    for kind, attributes, where, insert in mutations:
        key = "disclosed" if kind is EventKind.PRESENTED else "used_attributes"
        if insert:
            events.insert(where % (len(events) + 1), SimEvent(0, kind, "x", {key: attributes}))
        else:
            targets = [i for i, e in enumerate(events) if e.kind is kind]
            if targets:
                i = targets[where % len(targets)]
                payload = {**events[i].payload, key: attributes}
                events[i] = dataclasses.replace(events[i], payload=payload)
    forged = _renumbered(trace, events)
    allowed = requested & set(scenario.attributes)
    seen = set()
    for e in forged.events:
        seen.update(e.payload.get("disclosed", ()), e.payload.get("used_attributes", ()))
    flagged = set()
    for f in check_trace(forged, kb):
        if f.rule in ("sim.nfr14.overdisclosure", "sim.nfr19.sidechannel"):
            names = f.message.rpartition(": ")[2].split(", ")
            if f.rule == "sim.nfr14.overdisclosure":
                assert not allowed.intersection(names)
            flagged.update(names)
    assert seen - allowed <= flagged


def test_request_must_name_the_scenario_verifier():
    with pytest.raises(ValueError, match="verifier"):
        Scenario(
            issuer_id="uni",
            owner_id="alice",
            verifier_id="library",
            attributes={"degree": "MSc"},
            request=PresentationRequest(verifier_id="bank", requested_attributes={"degree"}),
        )


_SCENARIO_FIELDS = (
    record_field("issuer", "uni", ""),
    record_field("owner", "alice"),
    record_field("verifier", "lib"),
    record_field("attributes", "a=1, b=2", "a=1", "a=1, a=2", ",", "", "a", "=1"),
    record_field("request", "a", "b", "a, b", ",", ""),
    record_field(
        "toggles",
        "",
        "over_disclose",
        "skip_issuance_consent, revoke_before_presentation",
        "tamper_attribute=a",
        "tamper_attribute=b",
        "tamper_attribute=",
        "warp_speed",
    ),
)
#: Well-formed records with fuzzed values.
_SCENARIO_RECORD = st.tuples(*_SCENARIO_FIELDS).map(
    lambda lines: "\n".join(["[scenario]", *lines])
)
#: Lines with record structure, in any order: headers, fields, comments,
#: blank lines and arbitrary text.
_SCENARIO_LINE = st.one_of(
    st.sampled_from(["[scenario]", "[dependency]", "[scenario", "# note", ""]),
    *_SCENARIO_FIELDS,
    st.text(max_size=20),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.text(max_size=80),
        st.lists(_SCENARIO_LINE, max_size=14).map("\n".join),
        st.lists(_SCENARIO_RECORD, max_size=3).map("\n".join),
    )
)
def test_load_scenarios_raises_only_extension_error(text):
    try:
        load_scenarios(text)
    except ExtensionError:
        pass


SIM_GOLDEN = Path(__file__).resolve().parent / "golden" / "sim_traces.txt"
_FLAGS = (
    "skip_issuance_consent",
    "skip_presentation_consent",
    "revoke_before_presentation",
    "over_disclose",
)


def sim_traces_text(kb):
    """The exported trace, outcome and finding rules of the base scenario
    under all 32 toggle combinations, one block each."""
    blocks = []
    for tamper in (None, "degree"):
        for bits in itertools.product((False, True), repeat=len(_FLAGS)):
            toggles = Toggles(tamper_attribute=tamper, **dict(zip(_FLAGS, bits)))
            trace = run_scenario(base_scenario(toggles=toggles))
            rules = " ".join(f.rule for f in check_trace(trace, kb)) or "-"
            blocks.append(
                f"# {toggles}\noutcome {trace.outcome.value}\nrules {rules}\n"
                + export_trace(trace)
            )
    return "".join(blocks)


def test_traces_match_golden(kb):
    assert sim_traces_text(kb) == SIM_GOLDEN.read_text(encoding="utf-8")


def _toggle_traces():
    """The base scenario's trace under each of the 32 toggle combinations."""
    toggles = [
        Toggles(tamper_attribute=tamper, **dict(zip(_FLAGS, bits)))
        for tamper in (None, "degree")
        for bits in itertools.product((False, True), repeat=len(_FLAGS))
    ]
    return [run_scenario(base_scenario(toggles=t)) for t in toggles]


_TOGGLE_TRACES = _toggle_traces()
_ACTORS = ("uni", "alice", "library", "mallory")
#: The event kinds that the trace rules read.
_RULE_KINDS = (
    EventKind.CONSENT_GRANTED,
    EventKind.CREDENTIAL_ISSUED,
    EventKind.PRESENTATION_CONSENT_GRANTED,
    EventKind.PRESENTED,
    EventKind.SIGNATURE_VERIFIED,
    EventKind.REVOCATION_CHECKED,
    EventKind.ACCESS_GRANTED,
)
_EVENT_MUTATION = st.tuples(
    st.sampled_from(["move", "drop", "duplicate", "reassign", "splice"]),
    st.sampled_from(_RULE_KINDS),  # the kind of the event it changes
    st.integers(0, 15),  # which event of that kind
    st.integers(0, 15),  # where the event moves or its copy goes, from the end
    st.integers(0, len(_TOGGLE_TRACES) - 1),  # which trace a splice copies from
    st.integers(0, len(_ACTORS) - 1),  # its new actor
)


def _mutated(number, mutations):
    trace = _TOGGLE_TRACES[number]
    events = list(trace.events)
    for op, kind, which, where, other, actor in mutations:
        if op == "splice":
            other = _TOGGLE_TRACES[(other + number) % len(_TOGGLE_TRACES)]
            targets = [e for e in other.events if e.kind is kind]
        else:
            targets = [e for e in events if e.kind is kind]
        if not targets:
            continue
        event = targets[which % len(targets)]
        if op in ("move", "drop"):
            events.remove(event)
        if op in ("move", "duplicate", "splice"):
            events.insert(len(events) - where % (len(events) + 1), event)
        elif op == "reassign":
            actor = _ACTORS[(actor + number) % len(_ACTORS)]
            events[events.index(event)] = dataclasses.replace(event, actor=actor)
    return _renumbered(trace, events)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_EVENT_MUTATION, min_size=1, max_size=4))
def test_check_trace_agrees_with_the_reference(kb, mutations):
    """Each toggle trace with events moved, dropped, duplicated, acted by
    another party, or copied in from another toggle trace. The new actor
    and the trace a splice copies from turn with the trace's number, so
    each drawn mutation meets every actor and every source trace."""
    for number in range(len(_TOGGLE_TRACES)):
        forged = _mutated(number, mutations)
        assert check_trace(forged, kb) == reference_check_trace(forged, kb)


#: When a lifecycle step happens, given the toggles and whether access is
#: granted, as README's step table states it; every other step always does.
_HAPPENS = {
    EventKind.CONSENT_GRANTED: lambda t, granted: not t.skip_issuance_consent,
    EventKind.REVOKED: lambda t, granted: t.revoke_before_presentation,
    EventKind.PRESENTATION_CONSENT_GRANTED: lambda t, granted: not t.skip_presentation_consent,
    EventKind.ACCESS_GRANTED: lambda t, granted: granted,
    EventKind.ACCESS_DENIED: lambda t, granted: not granted,
}


@pytest.mark.parametrize("requested", [("degree",), ("degree", "name", "year")])
@pytest.mark.parametrize("bits", list(itertools.product((False, True), repeat=len(_FLAGS) + 1)))
def test_toggle_traces_follow_the_lifecycle_table(kb, bits, requested):
    """Each of the 32 toggle traces, worked out from `sim._LIFECYCLE` and
    README's rule table alone: its events and their actors' roles, its
    outcome, and the rules it breaks. A skipped consent fires its NFR6
    rule, over-disclosure fires only when the request is a strict subset
    of the attributes, and tampering and revocation only deny access."""
    *flags, tamper = bits
    toggles = Toggles(tamper_attribute="degree" if tamper else None, **dict(zip(_FLAGS, flags)))
    scenario = base_scenario(requested=requested, toggles=toggles)
    granted = not tamper and not toggles.revoke_before_presentation
    role_ids = (scenario.owner_id, scenario.issuer_id, scenario.verifier_id)
    events = [
        (kind, role_ids[role])
        for kind, role in sim._LIFECYCLE
        if _HAPPENS.get(kind, lambda t, granted: True)(toggles, granted)
    ]
    over_disclosed = toggles.over_disclose and set(requested) < scenario.attributes.keys()
    rules = [
        rule
        for rule, fires in (
            ("sim.nfr6.issuance", toggles.skip_issuance_consent),
            ("sim.nfr6.presentation", toggles.skip_presentation_consent),
            ("sim.nfr14.overdisclosure", over_disclosed),
        )
        if fires
    ]
    trace = run_scenario(scenario)
    assert [(e.kind, e.actor) for e in trace.events] == events
    assert [e.seq for e in trace.events] == list(range(1, len(events) + 1))
    assert trace.outcome is (Outcome.GRANTED if granted else Outcome.DENIED)
    assert [f.rule for f in check_trace(trace, kb)] == rules


if __name__ == "__main__":
    # Regenerate the golden file (only when a trace change is intended):
    # PYTHONPATH=src python tests/test_sim.py
    from ssiarch.kb import builtin_kb

    SIM_GOLDEN.write_text(sim_traces_text(builtin_kb()), encoding="utf-8")
