"""Tests of the benchmark's own logic: span arithmetic, shared-work counting,
output checks and the spec behind ``BENCHMARK.json``."""

import itertools
import json
import re
from pathlib import Path
from types import SimpleNamespace

from perfbench import checks, spans, spec

ROOT = Path(__file__).resolve().parents[1]


def _span(sid, start, end, parent=None):
    return spans.Span(sid, f"s{sid}", start, end, parent, None, None)


def test_self_time_of_nested_spans():
    tree = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),
        _span(3, 5.0, 7.0, parent=0),
    ]
    own = spans.self_times(tree)
    assert own == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0}


def test_self_time_counts_overlapping_children_once():
    tree = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 5.0, parent=0),
        _span(2, 3.0, 8.0, parent=0),  # overlaps span 1 on [3, 5]
        _span(3, 9.0, 12.0, parent=0),  # runs past its parent's end
    ]
    own = spans.self_times(tree)
    assert own[0] == 10.0 - 7.0 - 1.0
    assert spans.covered_length([(1.0, 5.0), (3.0, 8.0), (20.0, 30.0)], 0.0, 10.0) == 7.0


def test_tracer_links_parents_and_grid_points():
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("liouville.steady_state", lambda: None)
    point = tracer.wrap("observables.sensor_g2", lambda: leaf())
    sweep = tracer.wrap(spans.POINT_PARENT, lambda: [point() for _ in range(2)])
    sweep()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name[spans.POINT_PARENT]
    points = by_name["observables.sensor_g2"]
    leaves = by_name["liouville.steady_state"]
    assert root.parent is None and root.point is None
    assert [p.parent for p in points] == [root.id, root.id]
    assert [p.point for p in points] == [p.id for p in points]
    assert [s.point for s in leaves] == [p.id for p in points]
    assert [s.parent for s in leaves] == [p.id for p in points]
    assert len({s.id for s in tracer.spans}) == 5


def test_tracer_records_calls_that_raise():
    tracer = spans.Tracer()

    def fails():
        raise ValueError("no")

    wrapped = tracer.wrap("x", fails, info=lambda args, kwargs, result: result)
    try:
        wrapped()
    except ValueError:
        pass
    assert [(s.name, s.info) for s in tracer.spans] == [("x", None)]


def test_repeat_and_mirror_shares_on_a_hand_made_call_list():
    calls = [
        ("c", 1.0, 2.0),
        ("c", 1.0, 2.0),  # repeat
        ("c", 2.0, 1.0),  # mirror
        ("c", 3.0, 3.0),
        ("c", 3.0, 3.0),  # repeat: a diagonal pair is its own swap
        ("d", 1.0, 2.0),  # another context is new work
    ]
    assert spans.repeat_mirror_shares(calls) == (2 / 6, 1 / 6)
    assert spans.repeat_mirror_shares([]) == (0.0, 0.0)


def test_shares_of_a_full_csi_map():
    # csi_ratio asks for g11(w1), g22(w2) and g12(w1, w2) at every map point
    axis = [0.5, 1.5, 2.5, 3.5]
    calls = []
    for w1, w2 in itertools.product(axis, axis):
        calls += [("c", w1, w1), ("c", w2, w2), ("c", w1, w2)]
    n = len(axis)
    assert spans.repeat_mirror_shares(calls) == (2 / 3, (n * n - n) / 2 / (3 * n * n))


def test_installed_wraps_every_binding_and_restores_it():
    import emitpair
    from emitpair import liouville, nonclassicality, observables

    original = liouville.build_assembly
    tracer = spans.Tracer()
    targets = [("emitpair.liouville", "build_assembly", lambda f: tracer.wrap("b", f))]
    with spans.Installed(targets):
        wrapped = liouville.build_assembly
        assert wrapped is not original
        assert observables.build_assembly is wrapped
        assert nonclassicality.build_assembly is wrapped
        assert emitpair.build_assembly is wrapped
    assert liouville.build_assembly is original
    assert observables.build_assembly is original
    assert emitpair.build_assembly is original


def _g2_table(perturb=0.0):
    axis = [-1.0, 0.0, 2.0]
    rows = []
    for w1, w2 in itertools.product(axis, axis):
        g2 = 1.0 + 0.1 * (w1 + w2) + 0.05 * w1 * w2
        rows.append((w1, w2, g2, "ok"))
    w1, w2, g2, status = rows[1]
    rows[1] = (w1, w2, g2 * (1.0 + perturb), status)
    return SimpleNamespace(columns=["omega1", "omega2", "g2", "status"], rows=rows)


def test_swap_check_fails_on_a_perturbed_table():
    assert checks.swap_symmetric("g2map", _g2_table()) == []
    assert checks.swap_symmetric("g2map", _g2_table(perturb=1e-9)) == []
    failures = checks.swap_symmetric("g2map", _g2_table(perturb=1e-5))
    assert len(failures) == 2 and "swapped" in failures[0]


def test_reference_check_fails_beyond_criterion_08_tolerance():
    reference = checks.sample_reference(_g2_table(), 1)
    assert checks.matches_reference("g2map", _g2_table(perturb=1e-4), reference) == []
    failures = checks.matches_reference("g2map", _g2_table(perturb=2e-3), reference)
    assert failures == [
        f"g2map: row 1 g2 is {_g2_table(perturb=2e-3).rows[1][2]!r}, "
        f"reference {_g2_table().rows[1][2]!r}"
    ]


def test_csi_identity_and_identical_checks_fail_on_perturbed_tables():
    columns = ["omega1", "omega2", "ratio", "g11", "g22", "g12", "status"]
    good = SimpleNamespace(columns=columns, rows=[(1.0, 2.0, 4.0 / 6.0, 2.0, 3.0, 2.0, "ok")])
    bad = SimpleNamespace(columns=columns, rows=[(1.0, 2.0, 0.6667, 2.0, 3.0, 2.0, "ok")])
    assert checks.csi_identity("csi", good) == []
    assert len(checks.csi_identity("csi", bad)) == 1
    assert checks.identical("csi", good, good) == []
    assert checks.identical("csi", good, bad) == [
        "csi: 1 rows differ between the parallel and serial runs"
    ]


def test_peak_and_sign_checks():
    assert checks.peaks_near("s", [-30.2, 0.1, 29.8], [30.0, 0.0, -30.0]) == []
    assert len(checks.peaks_near("s", [-30.2, 0.1], [30.0, 0.0, -30.0])) == 1
    assert len(checks.peaks_near("s", [-30.2, 0.6, 29.8], [30.0, 0.0, -30.0])) == 1
    assert checks.sign("b", 2.1, above=2.0) == []
    assert len(checks.sign("b", 2.0, above=2.0)) == 1
    assert checks.sign("b", 2.0, at_most=2.0) == []


def test_benchmark_json_matches_the_spec_and_its_format_limits():
    spec_json = spec.benchmark_json()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        assert json.load(fh) == spec_json
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in spec_json["workloads"]]
    names += [m["name"] for m in spec_json["end_to_end"] + spec_json["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in spec_json["end_to_end"] + spec_json["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec_json["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec_json["end_to_end"])
    setup = next(m for m in spec_json["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec_json["end_to_end"])
    assert all(any(m["name"].startswith(p) for p in spec.LAYER_EFFECTS) for m in spec_json["per_layer"])
