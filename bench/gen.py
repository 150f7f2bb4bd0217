"""Seeded inputs and expected answers for the benchmark workloads.

Every workload is a list of `Op`s: the CLI argv, the input files it
reads, and the answer the CLI must give. Expected answers come only from
the knowledge-base tables (`matrix` cell levels, `ownership`, the
built-in dependency and pattern rows) and from what the generator itself
injected: claims, pattern names, syntax mutations, toggles, and whether a
request is a strict subset of the attributes. Nothing here calls the
DSL, the analyses, the simulator or the CLI.

Sizes form a fixed log-uniform ladder: op j of a list of n gets the
middle of its own stratum of the size range, and the strata are visited
in a golden-ratio order that starts with the largest. So every prefix of
the op list covers the size range evenly, the largest input runs first
(peak RSS does not depend on how many ops fit in a run), and every seed
runs the same size mix; the seed draws everything in the inputs but
their sizes."""

from __future__ import annotations

import random
import string
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from ssiarch.kb import ActorKind, KnowledgeBase, NfrKey, ResponsibilityLevel

WORKLOADS = ("cold_cli", "validate_large", "graph_model", "simulate_batch")

#: Ops in one pass of each workload. The traced run covers exactly one
#: pass, so its counts are fixed by the seed; timed runs repeat whole
#: passes, so every run has the same op mix. A `cold_cli` pass is two
#: shuffled cycles of its 19-op table.
PASS_OPS = {"cold_cli": 38, "validate_large": 100, "graph_model": 140, "simulate_batch": 300}

_GOLDEN = 0.6180339887498949
_ERROR_RULES = frozenset({"claims.no-responsibility", "claims.ownership"})
_LEVEL_RULE = {
    ResponsibilityLevel.PRIMARY: "claims.ok",
    ResponsibilityLevel.SECONDARY: "claims.secondary",
    ResponsibilityLevel.TERTIARY: "claims.tertiary",
    ResponsibilityLevel.NONE: "claims.no-responsibility",
}
_KINDS = (
    (ActorKind.DATA_OWNER, "owner", "o"),
    (ActorKind.ISSUER, "issuer", "i"),
    (ActorKind.VERIFIER, "verifier", "v"),
)


@dataclass
class Op:
    """One CLI invocation and the answer it must produce.

    `rules` holds expected finding counts per rule id (None: not
    checked); `expect` holds workload-specific expectations for the
    checker."""

    kind: str
    argv: list[str]
    exit: int
    fmt: str
    rules: dict[str, int] | None = None
    expect: dict = field(default_factory=dict)


def spread_strata(n: int) -> list[int]:
    """Stratum of each of n ops: a permutation of range(n) whose every
    prefix is spread evenly, starting with the largest stratum."""
    keys = sorted(range(n), key=lambda j: (j * _GOLDEN) % 1.0)
    rank = {j: r for r, j in enumerate(keys)}
    return [n - 1 - rank[j] for j in range(n)]


def log_sizes(n: int, lo: float, hi: float) -> list[int]:
    """n sizes log-uniform on [lo, hi], one per stratum, in spread order."""
    return [max(1, round(lo * (hi / lo) ** ((k + 0.5) / n))) for k in spread_strata(n)]


def claim_rules(kb: KnowledgeBase, kind: ActorKind, nfr: NfrKey) -> list[str]:
    """Rules a claim of `nfr` by an actor of `kind` fires, read off the
    matrix cell and the ownership row."""
    level = kb.matrix.level(nfr, kind)
    rules = [_LEVEL_RULE[level]]
    if kind not in kb.ownership[nfr] and level is not ResponsibilityLevel.PRIMARY:
        rules.append("claims.ownership")
    return rules


_POOL = random.Random(0)
_WORDS = [
    "".join(_POOL.choices(string.ascii_lowercase, k=_POOL.randint(3, 8))) for _ in range(4096)
]
_NFRS = list(NfrKey)


def _word(rng: random.Random) -> str:
    return _WORDS[rng.getrandbits(12)]


def _quote(text: str) -> str:
    return '"' + text + '"'


@dataclass
class Model:
    """Generated model text plus what the generator put into it."""

    text: str
    ids: dict[str, list[str]]
    wallet_owner: dict[str, str]
    rules: Counter
    dep_triples: int


def make_model(
    rng: random.Random,
    kb: KnowledgeBase,
    name: str,
    per_kind: int,
    patterns: list[tuple[str, str]],
    with_claims: bool,
) -> Model:
    """A resolvable model with `per_kind` owners, issuers and verifiers,
    wallets for 70% of owners (rounded), and `depends` lines across
    kinds."""
    rules: Counter = Counter()
    ids: dict[str, list[str]] = {"o": [], "i": [], "v": [], "w": []}
    lines = [f"system {_quote(name)} {{"]
    for kind, keyword, code in _KINDS:
        for k in range(per_kind):
            ident = f"{_word(rng)}_{code}{k}"
            ids[code].append(ident)
            body = []
            if with_claims:
                refs = rng.sample(patterns, k=rng.choice((0, 0, 1, 2)))
                if rng.random() < 0.05:
                    refs.append(("B", f"Unlisted {_word(rng)}"))
                    rules["model.unknown-pattern"] += 1
                if refs:
                    body.append(
                        "    patterns: ["
                        + ", ".join(f"{src}:{_quote(pat)}" for src, pat in refs)
                        + "];"
                    )
                claims = rng.sample(_NFRS, k=rng.randint(0, 3))
                for nfr in claims:
                    rules.update(claim_rules(kb, kind, nfr))
                if claims:
                    body.append("    claims: [" + ", ".join(c.name for c in claims) + "];")
            if body:
                lines.append(f"  actor {keyword} {_quote(ident)} {{")
                lines.extend(body)
                lines.append("  }")
            else:
                lines.append(f"  actor {keyword} {_quote(ident)} {{}}")
    wallet_owner: dict[str, str] = {}
    with_wallet = set(rng.sample(range(per_kind), k=round(0.7 * per_kind)))
    for k, owner in enumerate(ids["o"]):
        if k in with_wallet:
            wallet = f"{_word(rng)}_w{k}"
            ids["w"].append(wallet)
            wallet_owner[wallet] = owner
            lines.append(f"  wallet {_quote(wallet)} {{")
            lines.append(f"    for: {_quote(owner)};")
            lines.append("  }")
    codes = [code for code in ("o", "i", "v", "w") if ids[code]]
    triples = set()
    for _ in range(max(1, per_kind // 4)):
        a, b = rng.sample(codes, k=2)
        nfr = rng.choice(_NFRS)
        triples.add((a, b, nfr))
        lines.append(
            f"  depends {_quote(rng.choice(ids[a]))} on {_quote(rng.choice(ids[b]))}"
            f" : {nfr.name};"
        )
    lines.append("}")
    return Model("\n".join(lines) + "\n", ids, wallet_owner, rules, len(triples))


def mutate(text: str, choice: int) -> str:
    """Syntax-level mutation `choice` (0-4); every kind yields a lexical
    or parse error, so the CLI must exit 2. Kinds 2 and 3 act half-way
    through the text, so a mutated op costs the same share of the front
    end whatever the seed put into the model."""
    if choice == 0:  # drop the closing brace of the system block
        i = text.rindex("}")
        return text[:i] + text[i + 1 :]
    if choice == 1:  # unterminate the system name string
        i = text.index('"', text.index('"') + 1)
        return text[:i] + text[i + 1 :]
    if choice == 2:  # illegal character at the start of the middle line
        starts = [i + 1 for i, c in enumerate(text[:-1]) if c == "\n"]
        i = starts[len(starts) // 2]
        return text[:i] + "%" + text[i:]
    if choice == 3:  # drop the middle statement terminator
        semis = [i for i, c in enumerate(text) if c == ";"]
        i = semis[len(semis) // 2]
        return text[:i] + text[i + 1 :]
    return "sytsem" + text[len("system") :]


def _kbx(rng: random.Random, tag: str, triples: list) -> tuple[str, list]:
    """A `.kbx` with a few pattern records and dependency records on
    triples absent from the built-in rows."""
    lines = [f"# generated extension {tag}", ""]
    patterns = []
    for k in range(rng.randint(4, 8)):
        source = rng.choice("AB")
        name = f"Gen {tag} {k} {_word(rng)}"
        nfrs = sorted(rng.sample(_NFRS, k=rng.randint(1, 4)))
        patterns.append((source, name))
        lines += ["[pattern]", f"name = {name}", f"source = {source}"]
        lines += ["nfrs = " + ", ".join(n.name for n in nfrs), ""]
    for depender, dependee, nfr in triples:
        lines += ["[dependency]", f"nfr = {nfr.name}", f"depender = {depender.code}"]
        lines += [f"dependee = {dependee.code}", f"rationale = generated row {tag}", ""]
    return "\n".join(lines), patterns


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def gen_validate_large(rng: random.Random, kb: KnowledgeBase, workdir: Path, n: int):
    builtin = {r.triple for r in kb.dependencies}
    free = [
        (a, b, nfr)
        for a in ActorKind
        for b in ActorKind
        for nfr in NfrKey
        if a != b and (a, b, nfr) not in builtin
    ]
    rng.shuffle(free)
    builtin_patterns = [(p.source.value, p.name) for p in kb.patterns]
    kbx_files = []
    for f in range(4):
        text, patterns = _kbx(rng, f"{f}", free[f * 8 : (f + 1) * 8])
        kbx_files.append((_write(workdir, f"ext{f}.kbx", text), patterns))
    ops = []
    for j, per_kind in enumerate(log_sizes(n, 20, 2000)):
        kbx, patterns = kbx_files[j % len(kbx_files)]
        model = make_model(rng, kb, f"gen{j}", per_kind, builtin_patterns + patterns, True)
        fmt = ("json", "markdown")[j % 2]
        path = _write(workdir, f"m{j}.ssiarch", model.text)
        argv = ["validate", "--model", path, "--kb", kbx, "--format", fmt]
        if j % 10 == 5:
            _write(workdir, f"m{j}.ssiarch", mutate(model.text, j // 10 % 5))
            ops.append(Op("validate", argv, 2, fmt))
            continue
        failing = any(model.rules[r] for r in _ERROR_RULES)
        payload = {
            "actors": 3 * per_kind,
            "wallets": len(model.wallet_owner),
            "explicit_dependencies": model.dep_triples,
        }
        ops.append(Op("validate", argv, 1 if failing else 0, fmt, dict(model.rules), payload))
    return ops, [path for path, _ in kbx_files]


def gen_graph_model(rng: random.Random, kb: KnowledgeBase, workdir: Path, n: int):
    """Pairs of ops on one model, DOT then TSV, so the checker can
    compare the two exports edge by edge."""
    required = [
        r.nfr.name
        for r in kb.dependencies
        if (r.depender, r.dependee) == (ActorKind.VERIFIER, ActorKind.DATA_OWNER)
    ]
    ops = []
    for j, per_kind in enumerate(log_sizes(n // 2, 10, 120)):
        model = make_model(rng, kb, f"graph{j}", per_kind, [], False)
        path = _write(workdir, f"g{j}.ssiarch", model.text)
        expect = {
            "model": j,
            "ids": model.ids,
            "wallet_owner": model.wallet_owner,
            "vo_nfrs": sorted(required),
        }
        for fmt in ("dot", "tsv"):
            argv = ["graph", "--scope", "model", "--model", path, "--format", fmt]
            ops.append(Op("graph", argv, 0, fmt, None, expect))
    return ops, []


_ATTRS = ("name", "degree", "year", "dob", "address", "email", "nationality", "licence")
_FLAGS = (
    "skip_issuance_consent",
    "skip_presentation_consent",
    "over_disclose",
    "revoke_before_presentation",
)


def make_scenarios(rng: random.Random, count: int) -> tuple[str, list, Counter]:
    """Scenario-file text, the expected (outcome, event count) per
    scenario, and expected finding counts per rule."""
    lines = [f"# {count} generated scenarios", ""]
    outcomes = []
    rules: Counter = Counter()
    for _ in range(count):
        attrs = rng.sample(_ATTRS, k=rng.randint(2, 5))
        request = rng.sample(attrs, k=rng.randint(1, len(attrs)))
        flags = [flag for flag in _FLAGS if rng.random() < 0.15]
        tamper = rng.choice(attrs) if rng.random() < 0.15 else None
        lines += [
            "[scenario]",
            f"issuer = {_word(rng)}",
            f"owner = {_word(rng)}",
            f"verifier = {_word(rng)}",
            "attributes = " + ", ".join(f"{a}={_word(rng)}" for a in attrs),
            "request = " + ", ".join(request),
        ]
        toggles = flags + ([f"tamper_attribute={tamper}"] if tamper else [])
        if toggles:
            lines.append("toggles = " + ", ".join(toggles))
        lines.append("")
        outcomes.append(scenario_answer(toggles, len(request) < len(attrs), rules))
    return "\n".join(lines), outcomes, rules


def scenario_answer(toggles: list[str], strict_request: bool, rules: Counter) -> list:
    """[outcome, event count] of one scenario; adds its findings to rules.

    Tampering or revocation denies access. Each skipped consent drops
    its event and is a finding; over-disclosure is a finding only when
    the request is a strict subset of the attributes."""
    revoked = "revoke_before_presentation" in toggles
    denied = revoked or any(t.startswith("tamper_attribute=") for t in toggles)
    events = 10 + revoked
    for flag, rule in (
        ("skip_issuance_consent", "sim.nfr6.issuance"),
        ("skip_presentation_consent", "sim.nfr6.presentation"),
    ):
        if flag in toggles:
            rules[rule] += 1
            events -= 1
    if "over_disclose" in toggles and strict_request:
        rules["sim.nfr14.overdisclosure"] += 1
    return ["denied" if denied else "granted", events]


def gen_simulate_batch(rng: random.Random, kb: KnowledgeBase, workdir: Path, n: int):
    ops = []
    for j, count in enumerate(log_sizes(n, 50, 2000)):
        text, outcomes, rules = make_scenarios(rng, count)
        path = _write(workdir, f"s{j}.scenario", text)
        argv = ["simulate", "--scenario", path, "--format", "json"]
        expect = {"traces": outcomes}
        ops.append(Op("simulate", argv, 1 if rules else 0, "json", dict(rules), expect))
    return ops, []


# The shipped samples, described by what they contain so that expected
# answers follow from the KB tables: the claims of each sample model, and
# per sample scenario its toggles and whether the request is a strict
# subset of the attributes. The pattern file's NFRs and the extension's
# dependency records are read off the files.
_SAMPLE_CLAIMS = {
    "demo": [("o", 1), ("o", 4), ("i", 2), ("v", 24)],
    "invalid_claim": [("v", 3)],
}
_SAMPLE_SCENARIOS = [([], True), (["over_disclose"], True)]


def gen_cold_cli(rng: random.Random, kb: KnowledgeBase, root: Path, n: int):
    """All six commands on the shipped samples, in a seeded order."""
    coverage_kbx, deps_kbx = "samples/full_coverage.kbx", "samples/extra_deps.kbx"
    covered = {nfr for p in kb.patterns for nfr in p.supported_nfrs}
    for line in (root / coverage_kbx).read_text().splitlines():
        if line.startswith("nfrs"):
            covered |= {NfrKey(int(k.strip()[3:])) for k in line.split("=", 1)[1].split(",")}
    gaps = {"coverage.gap": len(NfrKey) - len(covered)}
    extra = (root / deps_kbx).read_text().count("[dependency]")
    primaries = {
        kind.code: sum(kb.matrix.level(nfr, kind) is ResponsibilityLevel.PRIMARY for nfr in NfrKey)
        for kind, _, _ in _KINDS
    }
    sim_rules: Counter = Counter()
    traces = [scenario_answer(t, strict, sim_rules) for t, strict in _SAMPLE_SCENARIOS]
    table = []
    for sample, claims in _SAMPLE_CLAIMS.items():
        rules = Counter()
        for code, nfr in claims:
            rules.update(claim_rules(kb, ActorKind(code), NfrKey(nfr)))
        code = 1 if any(rules[r] for r in _ERROR_RULES) else 0
        for fmt in ("json", "markdown", "human"):
            argv = ["validate", "--model", f"samples/{sample}.ssiarch", "--format", fmt]
            table.append(Op("validate", argv, code, fmt, dict(rules)))
    for fmt in ("json", "human"):
        stats = {"primaries": primaries}
        table.append(Op("stats", ["stats", "--format", fmt], 0, fmt, None, stats))
    for fmt in ("json", "markdown"):
        diff = {"diff_total": len(kb.dependencies)}
        table.append(Op("deps", ["deps", "--diff", "--format", fmt], 0, fmt, None, diff))
        relations = {"relations": len(kb.dependencies) + extra}
        argv = ["deps", "--kb", deps_kbx, "--format", fmt]
        table.append(Op("deps", argv, 0, fmt, None, relations))
    for fmt in ("json", "human", "markdown"):
        argv = ["coverage", "--kb", coverage_kbx, "--format", fmt]
        table.append(Op("coverage", argv, 0, fmt, gaps))
    for fmt in ("dot", "tsv"):
        table.append(Op("graph", ["graph", "--format", fmt], 0, fmt, None, {"golden": True}))
    for fmt in ("json", "markdown"):
        argv = ["simulate", "--scenario", "samples/demo.scenario", "--format", fmt]
        table.append(Op("simulate", argv, 1, fmt, dict(sim_rules), {"traces": traces}))
    ops = []
    while len(ops) < n:
        cycle = list(table)
        rng.shuffle(cycle)
        ops.extend(cycle)
    return ops[:n], [deps_kbx, coverage_kbx]


_GENERATORS = {
    "validate_large": gen_validate_large,
    "graph_model": gen_graph_model,
    "simulate_batch": gen_simulate_batch,
}


def generate(workload: str, seed: int, kb: KnowledgeBase, root: Path, workdir: Path):
    """Write the workload's inputs under workdir and return (ops,
    kbx files to merge at set-up). Paths in argv are relative to root."""
    rng = random.Random(f"{workload}:{seed}")
    n = PASS_OPS[workload]
    if workload == "cold_cli":
        ops, kbx = gen_cold_cli(rng, kb, root, n)
    else:
        ops, kbx = _GENERATORS[workload](rng, kb, workdir.relative_to(root), n)
    return ops, kbx
