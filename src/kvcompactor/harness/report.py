"""CSV report emission (the single report format; pipe into any plotter)."""

import csv
from itertools import repeat


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


def write_head_scores(path, scores) -> None:
    """Write [layer][head] ScoreVectors as layer,head,index,score rows, in (layer, head, index) order.

    Each head's rows go to csv.writer straight from its score array: the
    same bytes as write_csv with one dict per token, several times faster.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "head", "index", "score"])
        for l, layer in enumerate(scores):
            for h, s in enumerate(layer):
                writer.writerows(zip(repeat(l), repeat(h), range(len(s)), s.scores.tolist()))
