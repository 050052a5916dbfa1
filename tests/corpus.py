"""Manifest for the bundled case-study corpus.

The corpus lives in the repository's top-level `corpus/` directory: model
files, JSON Lines measurement logs, and golden outputs that every release
must regenerate byte-identically (see tests/test_corpus_golden.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class CorpusEntry:
    """One model plus the logs and golden files that exercise it."""

    model: str
    logs: tuple[str, ...]
    golden: tuple[str, ...]

    def resolve(self, root: Path) -> "CorpusEntry":
        return CorpusEntry(
            model=str(root / self.model),
            logs=tuple(str(root / p) for p in self.logs),
            golden=tuple(str(root / p) for p in self.golden),
        )


CORPUS_ROOT = Path(__file__).resolve().parent.parent / "corpus"

_JPMORGAN_LOGS = tuple(
    f"logs/jpmorgan_2014-{month:02d}.jsonl" for month in (1, 2, 3, 4, 5, 6, 7, 8, 9, 11)
)

_ENTRIES = (
    CorpusEntry(
        model="jpmorgan.sym",
        logs=_JPMORGAN_LOGS,
        golden=(
            "golden/jpmorgan_render_BO1.txt",
            "golden/jpmorgan_render_BO1.1.txt",
            "golden/jpmorgan_render_BO1.1.1.txt",
            "golden/jpmorgan_render_MG1.1.1.1.txt",
            "golden/jpmorgan_check.txt",
            "golden/jpmorgan_report_2014.txt",
            "golden/jpmorgan_report_2014.json",
            "golden/jpmorgan_report_2014.svg",
            "golden/jpmorgan_graph.json",
            "golden/jpmorgan_graph.dot",
            "golden/jpmorgan_eval_2014-Q4.txt",
            "golden/jpmorgan_eval_2014-Q4.json",
            "golden/jpmorgan_report_2014-Q4.txt",
            # impact of this model (old) against a copy that edits one filter of base bm_took (new)
            "golden/jpmorgan_base_edit_impact.txt",
            "golden/jpmorgan_base_edit_impact.json",
        ),
    ),
    CorpusEntry(
        model="anthem.sym",
        logs=("logs/anthem_2015.jsonl",),
        golden=(
            "golden/anthem_check.txt",
            "golden/anthem_report_2015.txt",
            "golden/anthem_report_2015.json",
            "golden/anthem_graph.json",
            "golden/anthem_graph.dot",
        ),
    ),
    CorpusEntry(
        model="heartland_broken.sym",
        logs=(),
        golden=("golden/heartland_broken_check.txt",),
    ),
    CorpusEntry(
        model="heartland_fixed.sym",
        logs=(),
        # The impact goldens compare heartland_broken.sym (old) with this model (new).
        golden=(
            "golden/heartland_fixed_check.txt",
            "golden/heartland_impact.txt",
            "golden/heartland_impact.json",
        ),
    ),
)


def corpus_manifest() -> list[CorpusEntry]:
    """Entries with absolute paths under CORPUS_ROOT."""
    return [entry.resolve(CORPUS_ROOT) for entry in _ENTRIES]
