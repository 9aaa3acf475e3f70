"""Arithmetic behind the benchmark's reported numbers.

Kept free of nvecho and numpy imports so that ``selfcheck.py`` can test it
on its own and a traced CLI child can load ``spans.py`` without paying for
anything extra.
"""

from __future__ import annotations


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    direct children cover.

    ``spans`` is a sequence of ``(name, start, end, parent, op_id)`` where
    ``parent`` is the index of the enclosing span or None.
    """
    children = [[] for _ in spans]
    for span in spans:
        parent = span[3]
        if parent is not None:
            children[parent].append((span[1], span[2]))
    return [
        (end - start) - covered_length(children[i], start, end)
        for i, (_, start, end, _, _) in enumerate(spans)
    ]


def failed_fraction(outcomes):
    """Share of failed ops among those attempted.

    ``outcomes`` holds one entry per attempted op: ``None`` for an op that
    succeeded, or a short reason (raised, non-zero exit, failed check).
    """
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no ops attempted")
    return sum(reason is not None for reason in outcomes) / len(outcomes)
