"""Refresh the generated tables of EXPERIMENTS.md from archived results.

EXPERIMENTS.md is written by hand around its tables: the paper-vs-measured
commentary, the fidelity summary and the Performance / Operations
sections live only there.  Each generated table is a ``` fence whose
first line is the table's own ``== <id>: <title> ==`` header; this
script replaces the body of the fence of every id in ``SECTIONS`` with
``artifacts/results/<id>.txt`` (what ``pytest benchmarks/
--ignore=benchmarks/ledger`` archives) and leaves every other byte as
found, so running it on unchanged results changes nothing.  An id with
no archived result keeps the table it has.

A new table needs its section written into EXPERIMENTS.md once (heading,
commentary and a fence holding the ``== <id>:`` line) and its id here.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.zoo import artifacts_dir

# Ids of the generated tables, in document order: the twenty rows of
# repro.harness.STUDY, then what the three extension benches emit.
SECTIONS = (
    "table1", "table2", "fig03", "fig04", "fig05", "fig06", "fig07",
    "fig08", "fig09", "fig10", "fig11", "fig13", "fig14", "fig15", "fig16",
    "fig17", "fig18", "fig19", "fig20", "fig21",
    "layer-vulnerability",
    "mitigation-ranger", "mitigation-router", "mitigation-detector",
    "ablation-activation-format", "ablation-router-topk",
    "ablation-beam-length-penalty", "ablation-trial-count",
)

_TABLE_FENCE = re.compile(
    r"^```\n== (?P<id>[\w-]+): .*?\n```$", re.MULTILINE | re.DOTALL
)


def refresh(document: str, results: Path) -> str:
    """``document`` with each ``SECTIONS`` table replaced from ``results``."""
    found, kept = [], []

    def table(match: re.Match) -> str:
        table_id = match["id"]
        if table_id not in SECTIONS:
            return match[0]
        found.append(table_id)
        path = results / f"{table_id}.txt"
        if not path.exists():
            kept.append(table_id)
            return match[0]
        return "```\n" + path.read_text().rstrip() + "\n```"

    document = _TABLE_FENCE.sub(table, document)
    missing = [table_id for table_id in SECTIONS if table_id not in found]
    if missing:
        raise SystemExit(
            f"EXPERIMENTS.md has no `== <id>:` table fence for {missing}:"
            " write those sections into it first"
        )
    if kept:
        print(f"no archived result under {results}, kept as found: {kept}")
    return document


def main() -> None:
    out = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
    out.write_text(refresh(out.read_text(), artifacts_dir() / "results"))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
