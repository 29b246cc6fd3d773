"""The README's computed numbers and its library example are checked here."""

import re
from pathlib import Path

from comp_noma import (SweepKind, SystemParams, db_to_linear, parse_config,
                       total_esc_closed)
from oracles import largest_accepted

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


def test_key_table_matches_the_config_parser():
    _, rows = table_rows("| key | default")
    meaning = {key: text for key, _, text in rows}
    assert re.findall(r"`([^`]+)`", meaning["`sweep`"]) == [
        kind.value for kind in SweepKind]
    ranges = re.findall(r"([\d.]+?)\.\.([\d.]+)/(\d+)",
                        meaning["`from`, `to`, `steps`"])
    assert [(float(lo), float(hi), int(steps)) for lo, hi, steps in ranges] == [
        (*kind.default_range, parse_config(f"sweep={kind.value}").steps)
        for kind in SweepKind]
    limits = re.findall(r"at (?:most|least) (-?[\d.e]+)",
                        meaning["`rho_db`"] + meaning["`upsilon`"])
    # the largest and smallest SNR, and the largest upsilon at 40 dB
    assert limits == [
        format(largest_accepted("sweep=alpha\nrho_db={!r}", 20.0, 3083.0),
               ".4f"),
        format(-largest_accepted("sweep=alpha\nrho_db=-{!r}", 0.0, 5000.0),
               ".4f"),
        format(largest_accepted("sweep=alpha\nrho_db=40\nupsilon={!r}",
                                0.01, 1e308), ".4e").replace("e+", "e")]


def test_library_example_runs():
    block = re.search(r"## Library use\n\n```python\n(.*?)```", README,
                      re.DOTALL)
    exec(compile(block.group(1), "README.md", "exec"), {})
