"""Read back the CSV that a run verb writes, for tests that check its cells."""

import csv

from omcool.results import ResultTable


def _cell(text: str):
    """A cell as the run wrote it: empty is None, true and false are bools,
    then an int, a float, or the text itself."""
    if text in ("", "true", "false"):
        return {"": None, "true": True, "false": False}[text]
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def read_table(path) -> ResultTable:
    """The '# key=value' metadata, the header and the typed rows of a CSV
    written by write_csv."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    metadata = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    columns, *records = csv.reader(line for line in lines if not line.startswith("# "))
    return ResultTable(columns, [[_cell(v) for v in record] for record in records], metadata)
