"""Output checks on result tables; each returns a list of failure messages.

A table is anything with ``columns`` and ``rows`` (``sweep.ResultTable``).
The checks import nothing from the package, so they can be tested on
hand-made tables.
"""

from __future__ import annotations

import math

STATUS_OK = "ok"

# Criterion 08's relative tolerance, used against the seed-commit reference.
REFERENCE_RTOL = 1e-3
# Entries far below a table's scale are compared absolutely at this share of
# it, so round-off near zero does not count as a change.
REFERENCE_FLOOR = 1e-8


def column(table, name):
    idx = table.columns.index(name)
    return [row[idx] for row in table.rows]


# Grid coordinates are inputs; the reference holds only computed columns.
INPUT_COLUMNS = ("omega1", "omega2", "omega", "tau", "status")


def output_columns(table):
    """Names and rows of the computed columns only."""
    keep = [i for i, name in enumerate(table.columns) if name not in INPUT_COLUMNS]
    return [table.columns[i] for i in keep], [[row[i] for i in keep] for row in table.rows]


def flagged_rows(table):
    if "status" not in table.columns:
        return 0
    return sum(1 for status in column(table, "status") if status != STATUS_OK)


def identical(label, table, other):
    """Two runs of one grid must agree bit for bit."""
    if table.columns != other.columns or table.rows != other.rows:
        diff = sum(1 for a, b in zip(table.rows, other.rows) if a != b)
        diff += abs(len(table.rows) - len(other.rows))
        return [f"{label}: {diff} rows differ between the parallel and serial runs"]
    return []


def swap_symmetric(label, table, value="g2", rtol=1e-6):
    """Zero-delay g2 is exchange-symmetric: g2(w1, w2) == g2(w2, w1)."""
    by_pair = {
        (w1, w2): v
        for w1, w2, v in zip(column(table, "omega1"), column(table, "omega2"), column(table, value))
    }
    failures = []
    pairs = 0
    for (w1, w2), v in by_pair.items():
        mirror = by_pair.get((w2, w1))
        if w1 == w2 or mirror is None:
            continue
        pairs += 1
        if not math.isclose(v, mirror, rel_tol=rtol):
            failures.append(f"{label}: g2({w1!r}, {w2!r}) = {v!r} but swapped {mirror!r}")
    if pairs == 0:
        failures.append(f"{label}: no swapped pairs on the grid")
    return failures


def csi_identity(label, table, rtol=1e-12):
    """ratio == g12^2 / (g11 g22) on every row."""
    failures = []
    for row in zip(*(column(table, c) for c in ("omega1", "omega2", "ratio", "g11", "g22", "g12"))):
        w1, w2, ratio, g11, g22, g12 = row
        expected = g12**2 / (g11 * g22)
        if not math.isclose(ratio, expected, rel_tol=rtol):
            failures.append(f"{label}: ratio {ratio!r} != g12^2/(g11 g22) = {expected!r} at ({w1}, {w2})")
    return failures


def sign(label, value, above=None, at_most=None):
    """``value > above`` or ``value <= at_most``: the acceptance sign tests."""
    if above is not None and not value > above:
        return [f"{label}: {value!r} is not > {above}"]
    if at_most is not None and not value <= at_most:
        return [f"{label}: {value!r} is not <= {at_most}"]
    return []


def peaks_near(label, peaks, expected, atol=0.5):
    """Exactly the expected peaks, each within ``atol``."""
    found = sorted(peaks)
    want = sorted(expected)
    if len(found) != len(want):
        return [f"{label}: {len(found)} peaks at {found}, expected {len(want)}"]
    return [
        f"{label}: peak at {f!r} is not within {atol} of {w!r}"
        for f, w in zip(found, want)
        if abs(f - w) > atol
    ]


def matches_reference(label, table, reference):
    """Sampled rows equal the seed-commit values to criterion 08's tolerance.

    ``reference`` is ``{"stride": k, "rows": [...]}``: the computed columns
    of every k-th row.
    """
    stride = reference["stride"]
    names, rows = output_columns(table)
    got = rows[::stride]
    want = reference["rows"]
    if len(got) != len(want):
        return [f"{label}: {len(got)} sampled rows, reference has {len(want)}"]
    scale = max((abs(v) for row in want for v in row), default=0.0)
    failures = []
    for i, (row, ref) in enumerate(zip(got, want)):
        for name, a, b in zip(names, row, ref):
            if not math.isclose(a, b, rel_tol=REFERENCE_RTOL, abs_tol=REFERENCE_FLOOR * scale):
                failures.append(f"{label}: row {i * stride} {name} is {a!r}, reference {b!r}")
    return failures


def sample_reference(table, stride):
    """The reference entry :func:`matches_reference` compares against.

    Ten significant digits are far inside the comparison tolerance.
    """
    _, rows = output_columns(table)
    rows = [[float(f"{v:.10g}") for v in row] for row in rows[::stride]]
    return {"stride": stride, "rows": rows}
