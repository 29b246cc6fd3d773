"""The README's computed numbers and its library example are checked here."""

import re
from pathlib import Path

from comp_noma import SystemParams, db_to_linear, total_esc_closed

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def table_rows(header_start):
    """Cells of the Markdown table whose header line starts as given."""
    lines = README.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith(header_start))
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows[0], rows[2:]


def test_esc_alpha_table_matches_the_closed_form(default_stats):
    header, rows = table_rows("| rho (dB) | alpha")
    alphas = [float(cell.replace("alpha", "")) for cell in header[1:]]
    assert len(rows) * len(alphas) == 30
    for rho_db, *cells in rows:
        for alpha, cell in zip(alphas, cells):
            params = SystemParams(alpha=alpha, rho=db_to_linear(float(rho_db)),
                                  upsilon=0.01)
            value = total_esc_closed(default_stats, params)
            assert format(value, ".4f") == cell.strip("*"), (rho_db, alpha)


def test_library_example_runs():
    block = re.search(r"## Library use\n\n```python\n(.*?)```", README,
                      re.DOTALL)
    exec(compile(block.group(1), "README.md", "exec"), {})
