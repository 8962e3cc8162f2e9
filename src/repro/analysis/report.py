"""One-shot reproduction report generator.

``python -m repro report`` regenerates every table and figure at the
configured scale and emits a self-contained Markdown document with the
paper's reference values alongside the measured ones — the automated
counterpart of EXPERIMENTS.md.
"""

from __future__ import annotations

import io
import time
from typing import Sequence

from ..experiments.paper import PAPER_TABLES, check_table_shape, run_table
from ..experiments.other_topologies import FAMILIES, family_table
from ..experiments.runner import scale_dimensions
from .figures import ALL_FIGURES
from .tables import format_rows


def _md_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    out = ["| " + " | ".join(header) + " |"]
    out.append("|" + "|".join("---" for _ in header) + "|")
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out)


def paper_tables_section(
    numbers: Sequence[int] | None = None, seed: int | None = None
) -> str:
    """Markdown for the regenerated paper tables."""
    out = io.StringIO()
    ns = scale_dimensions()
    out.write(f"## Paper tables (n = {', '.join(map(str, ns))})\n\n")
    for k in numbers if numbers is not None else sorted(PAPER_TABLES):
        spec = PAPER_TABLES[k]
        t0 = time.time()
        table = run_table(k, ns=ns, seed=seed)
        problems = check_table_shape(k, table)
        out.write(f"### {spec.title}\n\n")
        header = table.header()
        rows = [r.cells(table.dynamic) for r in table.rows]
        out.write(_md_table(header, rows))
        ref = spec.reference
        ref_rows = [
            [str(n)] + [str(x) for x in vals] for n, vals in sorted(ref.items())
        ]
        out.write("\n\npaper reference (n, L_avg, L_max"
                  + (", I_r%)" if spec.dynamic else ")") + ":\n\n")
        out.write(_md_table(["n"] + header[2:], ref_rows))
        status = "shape OK" if not problems else f"SHAPE VIOLATIONS: {problems}"
        out.write(f"\n\n*{status}; regenerated in {time.time() - t0:.1f}s.*\n\n")
    return out.getvalue()


def figures_section() -> str:
    """Markdown summaries of the regenerated figures."""
    out = io.StringIO()
    out.write("## Paper figures\n\n")
    for name, fn in ALL_FIGURES.items():
        bundle = fn()
        out.write(f"### {bundle.name}\n\n```\n{bundle.text}\n```\n\n")
    return out.getvalue()


def other_topologies_section() -> str:
    """Markdown for the extended (mesh/torus/SE/CCC) evaluation."""
    out = io.StringIO()
    out.write("## Other topologies (the paper's promised follow-up)\n\n")
    for key in FAMILIES:
        rows = family_table(key, "random", "static", packets=2)
        out.write(f"### {key}: static random, 2 packets/node\n\n")
        out.write("```\n" + format_rows(rows) + "\n```\n\n")
    return out.getvalue()


def full_report(seed: int | None = None, include_figures: bool = True) -> str:
    """The complete Markdown reproduction report."""
    parts = [
        "# Reproduction report\n",
        "Generated by `python -m repro report`.\n",
        paper_tables_section(seed=seed),
    ]
    if include_figures:
        parts.append(figures_section())
    parts.append(other_topologies_section())
    return "\n".join(parts)
