"""Seeded input generators for the benchmark, with the facts each one knows.

Every generator takes its seed as an argument and writes byte-identical
files for the same seed. Alongside the files it returns the facts the output
checks need (tallies per base and month, DIRECT sums and latest values, the
injected malformed lines, node and edge counts, ancestor chains, the subtree
a removal orphans), so the checks never rely on golden copies of the
program's own output.

Sizes do not depend on the seed: the seed only picks values, positions and
which of a fixed number of choices is made, so per-layer counts repeat
between seeds.
"""

from __future__ import annotations

import datetime as dt
import json
import os
import random
from dataclasses import dataclass

YEAR = 2014
MONTHS = [f"{YEAR}-{m:02d}" for m in range(1, 13)]
QUARTER_MONTHS = {f"{YEAR}-Q{q}": MONTHS[3 * q - 3 : 3 * q] for q in range(1, 5)}

COUNT = "count"
SUM = "sum"
LATEST = "latest"


@dataclass
class BaseTally:
    """What one base aggregates to in one month, as the generator wrote it."""

    count: int = 0  # COUNT bases: matching events
    total: int = 0  # DIRECT sum bases: sum of values
    entries: int = 0  # DIRECT bases: reported values
    latest: tuple[str, int, int] | None = None  # (date, line, value), newest wins

    def add_direct(self, date: str, line: int, value: int) -> None:
        self.entries += 1
        self.total += value
        if self.latest is None or (date, line) > self.latest[:2]:
            self.latest = (date, line, value)


@dataclass
class LogFacts:
    files: list[str]
    base_modes: dict[str, str]  # base -> COUNT / SUM / LATEST
    tallies: dict[tuple[str, str], BaseTally]  # (base, month) -> tally
    malformed: set[tuple[str, int, str]]  # (file, line, I-code)

    def binding(self, base: str, period: str) -> float | None:
        """The binding a correct aggregation gives for a month or a quarter."""
        months = QUARTER_MONTHS.get(period, [period])
        tallies = [self.tallies[(base, m)] for m in months if (base, m) in self.tallies]
        mode = self.base_modes[base]
        if mode == COUNT:
            return float(sum(t.count for t in tallies))
        with_data = [t for t in tallies if t.entries]
        if not with_data:
            return None
        if mode == SUM:
            return float(sum(t.total for t in with_data))
        # Files are per month or single, so (date, line) orders across months.
        return float(max(t.latest for t in with_data)[2])

    def has_data(self, base: str, month: str) -> bool:
        tally = self.tallies.get((base, month))
        if tally is None:
            return False
        return tally.count > 0 if self.base_modes[base] == COUNT else tally.entries > 0


def _write(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def _month_days(month: str) -> list[str]:
    year, mon = (int(x) for x in month.split("-"))
    first = dt.date(year, mon, 1)
    nxt = dt.date(year + (mon == 12), mon % 12 + 1, 1)
    return [(first + dt.timedelta(days=d)).isoformat() for d in range((nxt - first).days)]


# -- malformed lines ----------------------------------------------------------
# Each kind is one line the program must reject with the given I-code.

def _malformed(kind: int, date: str) -> tuple[str, str]:
    if kind == 0:
        return '{"timestamp": "' + date + '", "fields": {"event": ', "I001"
    if kind == 1:
        return '["' + date + '", "bm_took", 1]', "I001"
    if kind == 2:
        return '{"timestamp": "' + date[:8] + '32", "base": "bm_incidents_rca", "value": 1}', "I003"
    if kind == 3:
        return '{"timestamp": "' + date + '", "base": "bm_nonexistent", "value": 3}', "I002"
    if kind == 4:
        return '{"timestamp": "' + date + '", "base": "bm_took", "value": 3}', "I002"
    if kind == 5:
        return '{"timestamp": "' + date + '", "base": "bm_incidents_rca", "value": "3"}', "I001"
    return '{"timestamp": "' + date + '", "base": "bm_incidents_rca", "fields": {}}', "I001"


MALFORMED_KINDS = 7


# -- logs over the jpmorgan corpus model -----------------------------------------

JPM_BASES = {
    "bm_took": COUNT,
    "bm_completed": COUNT,
    "bm_sections_assessed": LATEST,
    "bm_sections_total": LATEST,
    "bm_days_since_review": LATEST,
    "bm_tailoring_score": LATEST,
    "bm_days_since_refresher": LATEST,
    "bm_incidents_human": SUM,
    "bm_incidents_rca": SUM,
}

# Metric functions of corpus/jpmorgan.sym, written out here so the checks can
# recompute every value. The operation order matches the model's expressions,
# so the floats agree bit for bit.
JPM_METRICS = {
    "ME1.1.1.1.1": (("bm_completed", "bm_took"), lambda b: (b["bm_completed"] / b["bm_took"]) * 100),
    "ME1.1.1.1.2": (
        ("bm_sections_assessed", "bm_sections_total"),
        lambda b: (b["bm_sections_assessed"] / b["bm_sections_total"]) * 100,
    ),
    "ME1.1.1.1.3": (("bm_days_since_review",), lambda b: (1 - b["bm_days_since_review"] / 365) * 100),
    "ME1.1.1.1.4": (("bm_tailoring_score",), lambda b: b["bm_tailoring_score"]),
    "ME1.1.1.1.5": (("bm_days_since_refresher",), lambda b: (1 - b["bm_days_since_refresher"] / 365) * 100),
    "ME1.1.1.1.6": (
        ("bm_incidents_human", "bm_incidents_rca"),
        lambda b: (1 - b["bm_incidents_human"] / b["bm_incidents_rca"]) * 100,
    ),
}
JPM_CHAIN = ("BO1.1.1", "BO1.1", "BO1")
# Bases of which one may be missing in a month without emptying its metric.
JPM_PAIRED = (("bm_sections_assessed", "bm_sections_total"), ("bm_incidents_human", "bm_incidents_rca"))


def _jpm_direct_value(rng: random.Random, base: str) -> int:
    if base == "bm_sections_assessed":
        return rng.randint(10, 40)
    if base == "bm_sections_total":
        return rng.randint(38, 45)
    if base in ("bm_days_since_review", "bm_days_since_refresher"):
        return rng.randint(0, 200)
    if base == "bm_tailoring_score":
        return rng.randint(40, 104)  # above 100 leaves the domain
    if base == "bm_incidents_human":
        return rng.randint(0, 2)
    return rng.randint(0, 5)  # bm_incidents_rca


def jpmorgan_logs(out_dir: str, seed: int, lines_per_month: int, malformed: int = 12) -> LogFacts:
    """Monthly JSONL files for 2014 over corpus/jpmorgan.sym; 2014-10 is absent.

    Each month holds exactly `lines_per_month` lines: about 90% raw training
    events and the rest DIRECT values, with `malformed` bad lines spread over
    the year. In each month one base of a pair may be missing, which makes
    its metric fail with a missing binding; no metric loses all its bases.
    """
    rng = random.Random(seed)
    months = [m for m in MONTHS if m != f"{YEAR}-10"]
    bad_at = set()
    while len(bad_at) < malformed:
        bad_at.add((rng.choice(months), rng.randint(11, lines_per_month)))
    tallies: dict[tuple[str, str], BaseTally] = {}
    bad: set[tuple[str, int, str]] = set()
    files = []
    directs = [b for b, mode in JPM_BASES.items() if mode != COUNT]
    for month in months:
        path = os.path.join(out_dir, f"jpm_{month}.jsonl")
        files.append(path)
        days = _month_days(month)
        missing = {pair[rng.randrange(2)] for pair in JPM_PAIRED if rng.random() < 0.3}
        present = [b for b in directs if b not in missing]
        for base in JPM_BASES:
            tallies[(base, month)] = BaseTally()
        lines = []
        # The first lines report every present DIRECT base once, so no month
        # goes without them; the rest is a seeded mix.
        for line_no in range(1, lines_per_month + 1):
            date = rng.choice(days)
            if (month, line_no) in bad_at:
                text, code = _malformed(rng.randrange(MALFORMED_KINDS), date)
                bad.add((path, line_no, code))
                lines.append(text)
                continue
            if line_no <= len(present) or rng.random() < 0.1:
                base = present[line_no - 1] if line_no <= len(present) else rng.choice(present)
                value = _jpm_direct_value(rng, base)
                tallies[(base, month)].add_direct(date, line_no, value)
                lines.append(f'{{"timestamp": "{date}", "base": "{base}", "value": {value}}}')
                continue
            event = "new_hire_training" if rng.random() < 0.8 else rng.choice(("refresher", "phishing_drill"))
            attended = rng.random() < 0.9
            fields = {"event": event, "attendance": "attended" if attended else "absent"}
            roll = rng.random()
            if attended and roll < 0.8:
                fields["training_status"] = "completed"
            elif roll < 0.9:
                fields["training_status"] = "failed"
            if rng.random() < 0.2:
                fields["site"] = rng.choice(("nyc", "ldn", "hkg"))
            if event == "new_hire_training":
                if fields["attendance"] == "attended":
                    tallies[("bm_took", month)].count += 1
                if fields.get("training_status") == "completed":
                    tallies[("bm_completed", month)].count += 1
            lines.append(json.dumps({"timestamp": date, "fields": fields}))
        _write(path, lines)
    return LogFacts(files, dict(JPM_BASES), tallies, bad)


INFINITE_VALUE_LINE = 4


def infinite_value_log(out_dir: str) -> str:
    """A fixed 2014-09 log whose line 4 reports the value 1e400.

    It does not depend on the seed. 1e400 parses to inf, which is not a
    finite number, so a correct ingest rejects that line with I001.
    """
    path = os.path.join(out_dir, "jpm_infinite.jsonl")
    _write(
        path,
        [
            '{"timestamp": "2014-09-02", "fields": {"event": "new_hire_training", "attendance": "attended", "training_status": "completed"}}',
            '{"timestamp": "2014-09-03", "fields": {"event": "new_hire_training", "attendance": "attended"}}',
            '{"timestamp": "2014-09-04", "base": "bm_incidents_rca", "value": 4}',
            '{"timestamp": "2014-09-05", "base": "bm_incidents_human", "value": 1e400}',
            '{"timestamp": "2014-09-06", "base": "bm_sections_assessed", "value": 30}',
            '{"timestamp": "2014-09-06", "base": "bm_sections_total", "value": 40}',
            '{"timestamp": "2014-09-07", "base": "bm_days_since_review", "value": 20}',
            '{"timestamp": "2014-09-08", "base": "bm_tailoring_score", "value": 75}',
            '{"timestamp": "2014-09-09", "base": "bm_days_since_refresher", "value": 30}',
        ],
    )
    return path


def jpmorgan_edit(corpus_model: str, out_path: str) -> dict[str, list[str]]:
    """An edited copy of the corpus model: one metric removed, one field changed.

    Returns the changes impact must list, by kind.
    """
    with open(corpus_model, encoding="utf-8") as handle:
        text = handle.read()
    start = text.index("metric ME1.1.1.1.6 {")
    end = text.index("\n}\n", start) + 3
    text = text[:start] + text[end:]
    text = text.replace(
        'text: "How many observed incidents trace back to gaps in training or awareness?"\n  status: answered',
        'text: "How many observed incidents trace back to gaps in training or awareness?"\n  status: open',
    )
    text = text.replace('name: "CISO"', 'name: "Chief Information Security Officer"')
    _write(out_path, text.rstrip("\n").split("\n"))
    return {
        "removed": ["metric ME1.1.1.1.6"],
        "modified": ["question Q1.1.1.1.6", "stakeholder ciso"],
        "added": [],
    }


# -- synthetic measurement programs ----------------------------------------------

STAKEHOLDERS = 8
FACETS = 8
# Bases every synthetic program declares: (id, mode, where-filters).
PROGRAM_BASES = (
    ("c_login", COUNT, (("event", "login"),)),
    ("c_login_ok", COUNT, (("event", "login"), ("outcome", "ok"))),
    ("c_patch", COUNT, (("event", "patch"),)),
    ("c_patch_late", COUNT, (("event", "patch"), ("outcome", "late"))),
    ("d_coverage", LATEST, ()),
    ("d_score", LATEST, ()),
    ("d_incidents", SUM, ()),
    ("d_audits", SUM, ()),
)
# Metric templates: (uses, function text, the same function in Python).
TEMPLATES = (
    (("c_login_ok", "c_login"), "(c_login_ok / c_login) * 100", lambda b: (b["c_login_ok"] / b["c_login"]) * 100),
    (("c_patch_late", "c_patch"), "(1 - c_patch_late / c_patch) * 100", lambda b: (1 - b["c_patch_late"] / b["c_patch"]) * 100),
    (("d_coverage",), "d_coverage", lambda b: b["d_coverage"]),
    (("d_score", "d_coverage"), "(d_score + d_coverage) / 2", lambda b: (b["d_score"] + b["d_coverage"]) / 2),
    (("d_incidents", "d_audits"), "(1 - d_incidents / d_audits) * 100", lambda b: (1 - b["d_incidents"] / b["d_audits"]) * 100),
    (("c_patch_late",), "c_patch_late * 5", lambda b: b["c_patch_late"] * 5),
)


def band_of(value: float) -> str | None:
    """The band label for a value in the default [0, 100] domain."""
    if not 0.0 <= value <= 100.0:
        return None
    if value <= 60.0:
        return "intervene"
    return "watch" if value <= 90.0 else "ok"


@dataclass
class ProgramFacts:
    root: str  # the file that includes the rest
    objectives: int
    leaves: list[int]
    metric_template: dict[str, int]  # metric id -> index into TEMPLATES
    nodes: int  # graph nodes, one per block
    edges: int

    def chain(self, leaf: int) -> tuple[str, ...]:
        """Objective ancestors of the leaf's metric, nearest first."""
        out = []
        node = leaf
        while node >= 1:
            out.append(f"BO{node}")
            node //= 2
        return tuple(out)

    def metric_chain(self, metric_id: str) -> tuple[str, ...]:
        return self.chain(int(metric_id[2:]))


@dataclass
class EditFacts:
    path: str
    removed_objective: str
    orphans: list[str]  # every node under the removed objective
    changes: dict[str, list[str]]  # change kind -> ["node_kind id", ...]


def _depth(i: int) -> int:
    return i.bit_length() - 1


def _scope(i: int) -> str:
    """Objective scopes split universe uA's facets down the tree.

    The root takes all facets; each level halves the parent's selection
    until one facet is left, so children always cover their parent (no V009).
    """
    depth = _depth(i)
    level = min(depth, 3)
    pos = (i >> (depth - level)) - (1 << level)  # the level-`level` ancestor's place in its row
    width = FACETS >> level
    facets = [f"f{k}" for k in range(pos * width, pos * width + width)]
    if level == 0:
        return 'uA.* "the whole estate"'
    return "uA.{" + ", ".join(facets) + "}" + f' "slice {pos} at level {level}"'


def _objective(
    i: int,
    links: dict[int, dict[str, list[int]]],
    context: str | None = None,
    parent: int | None = None,
    scope_of: int | None = None,
) -> str:
    """Objective BO{i}; it refines `parent` (default BO{i // 2}) and has the scope of `scope_of` (default i)."""
    parent = i // 2 if parent is None else parent
    rows = [f"objective BO{i} {{"]
    if i > 1:
        rows.append(f"  refines: BO{parent}")
    rows.append(f'  object: "assets of business unit {i}"')
    rows.append(f"  scope: {_scope(i if scope_of is None else scope_of)}")
    rows.append('  purpose: "keep the controls effective"')
    rows.append(f"  viewpoint: s{i % STAKEHOLDERS}")
    rows.append(f'  context: "{context or "before the annual audit"}"')
    for name in ("depends_on", "affects"):
        targets = links.get(i, {}).get(name)
        if targets:
            rows.append(f"  {name}: " + ", ".join(f"BO{t}" for t in targets))
    rows.append("}")
    return "\n".join(rows)


def _leaf_blocks(i: int, template: int, status: str = "answered", with_metric: bool = True) -> list[str]:
    uses, function, _ = TEMPLATES[template]
    blocks = [
        "\n".join(
            [
                f"goal MG{i} {{",
                f'  object: "controls of unit {i}"',
                '  purpose: "evaluating"',
                '  focus: "effectiveness"',
                '  scope: "all controls"',
                '  criteria: "coverage", "timeliness"',
                f"  viewpoint: s{(i + 1) % STAKEHOLDERS}",
                '  context: "quarterly review"',
                f"  measures: BO{i}",
                "}",
            ]
        ),
        "\n".join(
            [
                f"question Q{i} {{",
                f"  goal: MG{i}",
                f'  text: "How effective are the controls of unit {i}?"',
                f"  status: {status}",
                "}",
            ]
        ),
    ]
    if with_metric:
        blocks.append(
            "\n".join(
                [
                    f"metric ME{i} {{",
                    f'  description: "effectiveness of unit {i}"',
                    f"  goal: MG{i}",
                    f"  answers: Q{i}",
                    "  uses: " + ", ".join(uses),
                    '  method: "computed from the unit logs"',
                    f"  function: {function}",
                    f"  band: [0, 60] -> intervene {{ escalate owner_of(BO{i}) }}",
                    f"  band: (60, 90] -> watch {{ notify s{i % STAKEHOLDERS} }}",
                    f"  band: (90, 100] -> ok {{ log s{(i + 3) % STAKEHOLDERS} }}",
                    "  schedule: monthly / quarterly",
                    f"  stakeholders: s{(i + 2) % STAKEHOLDERS}",
                    "}",
                ]
            )
        )
    return blocks


def _strategy(i: int) -> str:
    rows = [f"strategy ST{i} {{", f"  for: BO{i}"]
    if i == 1:
        rows.append('  step: "split the work" -> BO2, BO3')
    else:
        rows.append('  step: "review the controls"')
    rows.append('  step: "report to the board"')
    rows.append('  justification: "each unit is audited separately"')
    rows.append("}")
    return "\n".join(rows)


def _header() -> str:
    blocks = [f'stakeholder s{k} {{\n  name: "stakeholder {k}"\n}}' for k in range(STAKEHOLDERS)]
    blocks.append("universe uA {\n  facets: " + ", ".join(f"f{k}" for k in range(FACETS)) + "\n}")
    blocks.append("universe uB {\n  facets: north, south\n}")
    for base, mode, filters in PROGRAM_BASES:
        rows = [f"base {base} {{", f'  description: "base {base}"', f"  mode: {'count' if mode == COUNT else 'direct'}"]
        if mode == COUNT:
            rows.append("  where: " + ", ".join(f'{k} = "{v}"' for k, v in filters))
        else:
            rows.append(f"  aggregation: {mode}")
        rows.append("}")
        blocks.append("\n".join(rows))
    return "\n\n".join(blocks)


def _templates(leaves: list[int], rng: random.Random) -> dict[int, int]:
    """Each template on the same number of leaves whatever the seed; the seed places them."""
    picks = [k % len(TEMPLATES) for k in range(len(leaves))]
    rng.shuffle(picks)
    return dict(zip(leaves, picks))


# Depth-2 objectives, one of which the edited copy removes: a quarter of the tree.
REMOVABLE = (4, 5, 6, 7)


def _strategies(n: int) -> list[int]:
    return [1] + list(range(10, n // 2 + 1, 10))


def _links(n: int, rng: random.Random, avoid: set[int]) -> dict[int, dict[str, list[int]]]:
    """depends_on links, each answered by a reciprocal affects (no V013)."""
    links: dict[int, dict[str, list[int]]] = {}
    picked = 0
    while picked < max(4, n // 25):
        a, b = rng.randint(2, n), rng.randint(2, n)
        if a == b or a in avoid or b in avoid or b in links.get(a, {}).get("depends_on", []):
            continue
        links.setdefault(a, {}).setdefault("depends_on", []).append(b)
        links.setdefault(b, {}).setdefault("affects", []).append(a)
        picked += 1
    for entry in links.values():
        for targets in entry.values():
            targets.sort()
    return links


def _write_program(
    out_dir: str,
    name: str,
    n: int,
    parts: int,
    templates: dict[int, int],
    links: dict[int, dict[str, list[int]]],
    strategies: list[int],
    extra: list[str] | None = None,
    skip: set[int] | None = None,
    overrides: dict[int, str] | None = None,
    leaf_edits: dict[int, dict] | None = None,
) -> str:
    """Write one program as a root file plus `parts` included files; return the root."""
    skip = skip or set()
    overrides = overrides or {}
    leaf_edits = leaf_edits or {}
    blocks: list[str] = []
    for i in range(1, n + 1):
        if i in skip:
            continue
        blocks.append(overrides.get(i) or _objective(i, links))
        if i in templates:
            blocks.extend(_leaf_blocks(i, templates[i], **leaf_edits.get(i, {})))
    blocks.extend(_strategy(i) for i in strategies if i not in skip)
    blocks.extend(extra or [])
    os.makedirs(os.path.join(out_dir, name), exist_ok=True)
    per = -(-len(blocks) // parts)
    for p in range(parts):
        _write(os.path.join(out_dir, name, f"part{p + 1}.sym"), ["\n\n".join(blocks[p * per : (p + 1) * per])])
    root = os.path.join(out_dir, f"{name}.sym")
    includes = "\n".join(f'include "{name}/part{p + 1}.sym"' for p in range(parts))
    _write(root, [f"# generated program {name}", _header(), "", includes])
    return root


def program(out_dir: str, seed: int, objectives: int, parts: int = 4, name: str = "program") -> ProgramFacts:
    """A binary `refines` tree of `objectives` objectives, leaves measured.

    Objective BO{i} refines BO{i // 2}; every leaf carries a goal, a question
    and a metric whose function is one of TEMPLATES, placed by the seed.
    With 2**k - 1 objectives the tree is complete, so every edit removes a
    subtree of the same size.
    The root and every tenth internal objective get a strategy; about one
    objective in 25 has a depends_on link with a reciprocal affects. The
    model validates with no diagnostics at all.
    """
    rng = random.Random(seed)
    n = objectives
    leaves = list(range(n // 2 + 1, n + 1))
    templates = _templates(leaves, rng)
    links = _links(n, rng, avoid=set(REMOVABLE))
    strategies = _strategies(n)
    root = _write_program(out_dir, name, n, parts, templates, links, strategies)
    link_edges = sum(len(t) for entry in links.values() for t in entry.values())
    uses = sum(len(TEMPLATES[t][0]) for t in templates.values())
    nodes = STAKEHOLDERS + 2 + len(PROGRAM_BASES) + n + len(strategies) + 3 * len(leaves)
    # refines + links + strategy_of + measures + asks + answers + uses
    edges = (n - 1) + link_edges + len(strategies) + 3 * len(leaves) + uses
    return ProgramFacts(
        root=root,
        objectives=n,
        leaves=leaves,
        metric_template={f"ME{i}": t for i, t in templates.items()},
        nodes=nodes,
        edges=edges,
    )


def edited_program(out_dir: str, seed: int, facts: ProgramFacts, parts: int = 4) -> EditFacts:
    """An edited copy of `program(seed)`.

    It removes one of the four objectives at depth 2 (its children now
    refine its parent; no strategy or link names it), removes one leaf metric (its question becomes open), adds a
    branch of one objective with its goal, question and metric, and changes
    the context of three objectives. The removal orphans, in the old model,
    every objective, goal, question and metric under the removed node.
    """
    rng = random.Random(seed * 7919 + 1)
    n = facts.objectives
    # Regenerate the parent's links with the same seed stream.
    base_rng = random.Random(seed)
    templates = _templates(facts.leaves, base_rng)
    links = _links(n, base_rng, avoid=set(REMOVABLE))
    strategies = _strategies(n)
    linked = set(links)
    removed = rng.choice(REMOVABLE)
    subtree = []
    frontier = [removed]
    while frontier:
        node = frontier.pop()
        subtree.append(node)
        frontier.extend(c for c in (2 * node, 2 * node + 1) if c <= n)
    orphans = []
    for i in subtree:
        if i == removed:
            continue
        orphans.append(f"BO{i}")
        if i in templates:
            orphans.extend([f"MG{i}", f"Q{i}", f"ME{i}"])

    overrides = {}
    for child in (2 * removed, 2 * removed + 1):
        overrides[child] = _objective(child, links, parent=removed // 2)
    outside = [i for i in range(2, n + 1) if i not in subtree and i != removed // 2 and i not in linked]
    touched = sorted(rng.sample(outside, 3))
    for i in touched:
        overrides[i] = _objective(i, links, context="after the merger")
    dropped_leaf = rng.choice([i for i in facts.leaves if i not in subtree])
    leaf_edits = {dropped_leaf: {"status": "open", "with_metric": False}}
    added = n + 1
    parent = rng.choice([i for i in facts.leaves if i not in subtree and i != dropped_leaf])
    # The new objective refines a former leaf; that leaf keeps its own goal.
    extra = [_objective(added, {}, parent=parent, scope_of=parent)] + _leaf_blocks(added, 0)
    skip = {removed}
    name = os.path.splitext(os.path.basename(facts.root))[0] + "_edited"
    edit_templates = dict(templates)
    root = _write_program(
        out_dir, name, n, parts, edit_templates, links, strategies,
        extra=extra, skip=skip, overrides=overrides, leaf_edits=leaf_edits,
    )
    changes = {
        "removed": [f"objective BO{removed}", f"metric ME{dropped_leaf}"],
        "added": [f"objective BO{added}", f"goal MG{added}", f"question Q{added}", f"metric ME{added}"],
        "modified": sorted(
            [f"objective BO{c}" for c in (2 * removed, 2 * removed + 1) if c <= n]
            + [f"objective BO{i}" for i in touched]
            + [f"question Q{dropped_leaf}"]
        ),
    }
    return EditFacts(path=root, removed_objective=f"BO{removed}", orphans=sorted(orphans), changes=changes)


def program_logs(out_dir: str, seed: int, lines: int, name: str = "program_log") -> LogFacts:
    """One JSONL file over 2014 for the synthetic programs' bases.

    Every month gets the same number of lines and starts with one value for
    each DIRECT base and one event for each COUNT base, so every base has
    data every month: the work of a run does not depend on the seed, and no
    metric sees an empty collection period. Metrics still fail when a value
    leaves the [0, 100] domain.
    """
    rng = random.Random(seed)
    path = os.path.join(out_dir, f"{name}.jsonl")
    modes = {base: mode for base, mode, _ in PROGRAM_BASES}
    directs = [base for base, mode, _ in PROGRAM_BASES if mode != COUNT]
    firsts = [{"event": "login", "outcome": "ok"}, {"event": "patch", "outcome": "late"}]
    tallies: dict[tuple[str, str], BaseTally] = {(b, m): BaseTally() for b in modes for m in MONTHS}
    per_month = lines // len(MONTHS)
    out = []
    for month in MONTHS:
        days = _month_days(month)
        for k in range(per_month):
            line_no = len(out) + 1
            date = rng.choice(days)
            if k < len(directs) or (k >= len(directs) + len(firsts) and rng.random() < 0.25):
                base = directs[k] if k < len(directs) else rng.choice(directs)
                value = rng.randint(40, 102) if modes[base] == LATEST else rng.randint(0, 6)
                tallies[(base, month)].add_direct(date, line_no, value)
                out.append(f'{{"timestamp": "{date}", "base": "{base}", "value": {value}}}')
                continue
            if k < len(directs) + len(firsts):
                fields = dict(firsts[k - len(directs)])
            else:
                fields = {"event": rng.choice(("login", "login", "patch", "backup"))}
                if rng.random() < 0.85:
                    fields["outcome"] = rng.choice(("ok", "ok", "late", "failed"))
            for base, mode, filters in PROGRAM_BASES:
                if mode == COUNT and all(fields.get(k) == v for k, v in filters):
                    tallies[(base, month)].count += 1
            out.append(json.dumps({"timestamp": date, "fields": fields}))
    _write(path, out)
    return LogFacts([path], modes, tallies, set())
