"""CSV report emission (the single report format; pipe into any plotter)."""

import csv


def write_csv(path, rows, fieldnames=None) -> None:
    """Write dict rows; field order is `fieldnames`, else the first row's keys.

    With `fieldnames` given, rows may be any iterable and are written as they come.
    """
    if fieldnames is None:
        rows = list(rows)
        fieldnames = list(rows[0]) if rows else []
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
