import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from songoku.records import (
    CSV_COLUMNS,
    CSV_SCHEMA,
    RunRecord,
    StepRow,
    WindowRecord,
    active_mask,
    parse_csv,
    tasks_from_mask,
    to_json,
)


@given(st.lists(st.integers(0, 62), unique=True))
def test_mask_roundtrip(tasks):
    assert tasks_from_mask(active_mask(tasks)) == tuple(sorted(tasks))


def test_mask_examples():
    assert active_mask(()) == 0
    assert active_mask((0, 2)) == 5
    assert tasks_from_mask(5) == (0, 2)


def sample_record():
    rec = RunRecord(config={"K": 2, "seed": 0})
    rec.windows.append(
        WindowRecord(
            r=0, t_start=0, tau=1.0, m=1, edges=(), color_of=(1, 1),
            classes=((0, 1),), extra_slots=(), coverage_failures=(),
        )
    )
    rec.steps.append(
        StepRow(t=0, tau=1.0, m=1, active_mask=3, loss=0.5, grad_norm=1.25, refresh=False)
    )
    rec.steps.append(
        StepRow(t=1, tau=0.875, m=1, active_mask=3, loss=float("nan"), grad_norm=0.0, refresh=True)
    )
    return rec


class TestCsv:
    def test_header_lines(self):
        text = sample_record().to_csv()
        lines = text.splitlines()
        assert lines[0] == CSV_SCHEMA == "# run_record v1"
        assert lines[1] == CSV_COLUMNS

    def test_roundtrip_bit_exact(self):
        rec = sample_record()
        rows = parse_csv(rec.to_csv())
        assert rows[0] == rec.steps[0]
        # nan never compares equal; check the remaining fields directly
        assert math.isnan(rows[1].loss)
        assert rows[1].t == 1 and rows[1].refresh

    def test_float_repr_survives(self):
        row = StepRow(t=0, tau=1 / 3, m=2, active_mask=1, loss=0.1 + 0.2, grad_norm=1e-17, refresh=False)
        rec = RunRecord(config={})
        rec.steps.append(row)
        back = parse_csv(rec.to_csv())[0]
        assert back.tau == row.tau and back.loss == row.loss and back.grad_norm == row.grad_norm

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            parse_csv("# other v9\n" + CSV_COLUMNS + "\n")
        with pytest.raises(ValueError, match="column"):
            parse_csv(CSV_SCHEMA + "\nt,tau\n")

    def test_missing_column_header_rejected(self):
        with pytest.raises(ValueError, match="missing column header"):
            parse_csv(CSV_SCHEMA + "\n")

    def test_row_with_wrong_field_count_names_its_line(self):
        text = sample_record().to_csv() + "\n2,0.5,1,3\n"
        with pytest.raises(ValueError, match="line 6: 4 fields, expected 7"):
            parse_csv(text)


class TestHashAndSummary:
    def test_hash_stable_and_config_sensitive(self):
        a, b = sample_record(), sample_record()
        assert a.content_hash() == b.content_hash()
        b.config["seed"] = 1
        assert a.content_hash() != b.content_hash()

    def test_hash_step_sensitive(self):
        a, b = sample_record(), sample_record()
        b.steps[0] = StepRow(t=0, tau=1.0, m=1, active_mask=3, loss=0.5, grad_norm=1.0, refresh=False)
        assert a.content_hash() != b.content_hash()

    def test_summary_is_valid_json(self):
        s = json.loads(sample_record().to_summary_json())
        assert s["schema"] == "run_summary v1"
        assert s["n_steps"] == 2
        assert s["windows"][0]["classes"] == [[0, 1]]
        assert s["content_hash"] == sample_record().content_hash()

    def test_summary_unions_coverage_failures(self):
        rec = sample_record()
        rec.windows.append(
            WindowRecord(
                r=1, t_start=8, tau=0.5, m=2, edges=((0, 1),), color_of=(1, 2),
                classes=((0,), (1,)), extra_slots=(), coverage_failures=(1,),
            )
        )
        rec.windows.append(
            WindowRecord(
                r=2, t_start=16, tau=0.5, m=2, edges=((0, 1),), color_of=(1, 2),
                classes=((0,), (1,)), extra_slots=(), coverage_failures=(0, 1),
            )
        )
        assert rec.to_summary()["coverage_failures"] == [0, 1]

    def test_window_dict_matches_asdict_render(self):
        w = WindowRecord(
            r=3, t_start=48, tau=0.25, m=3, edges=((0, 2), (1, 4), (2, 3)),
            color_of=(1, 2, 2, 1, 3), classes=((0, 3), (1, 2), (4,)),
            extra_slots=((1, (4,)), (3, (0, 3))), coverage_failures=(1, 2),
            frozen=True,
        )
        ref = dataclasses.asdict(w)
        ref["edges"] = [list(e) for e in w.edges]
        ref["color_of"] = list(w.color_of)
        ref["classes"] = [list(c) for c in w.classes]
        ref["extra_slots"] = {str(s): list(ts) for s, ts in w.extra_slots}
        ref["coverage_failures"] = list(w.coverage_failures)
        got = w.to_dict()
        assert got == ref and list(got) == list(ref)
        assert json.dumps(got, indent=2, sort_keys=True) == json.dumps(
            ref, indent=2, sort_keys=True
        )


# ---------------------------------------------------------------------------
# to_json against json's own indent=2 encoder


def assert_renders_like_json(obj):
    try:
        want = json.dumps(obj, indent=2, sort_keys=True, default=str)
    except Exception as exc:                      # json's own error, compared below
        with pytest.raises(Exception) as got:
            to_json(obj)
        assert type(got.value) is type(exc)
    else:
        assert to_json(obj) == want


ints = st.integers(-(2**70), 2**70) | st.integers(-3, 3)
floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
strings = st.text() | st.sampled_from(['"', "\\", '\\"', "\x00\x1f\n\t\x7f", "é漢字🙂", "\ud800"])
scalars = st.one_of(
    ints, st.booleans(), st.none(), floats, strings,
    ints.filter(lambda x: abs(x) < 2**63).map(np.int64), floats.map(np.float64),
)
int_rows = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(ints, min_size=n, max_size=n) | st.tuples(*[ints] * n))
)
int_lists = st.one_of(
    st.lists(ints), st.lists(ints).map(tuple), int_rows,
    st.lists(st.lists(ints)),                            # ragged
    st.lists(st.one_of(ints, st.booleans(), floats)),    # ints mixed with bools and floats
    st.lists(st.lists(st.one_of(ints, st.booleans()), min_size=2, max_size=2)),
)
# one key type per dict (mixed str and int keys do not sort); numeric keys
# of different types compare with each other
key_types = (strings, ints, floats, st.booleans(), st.none(),
             st.one_of(ints, floats, st.booleans()))
documents = st.recursive(
    scalars | int_lists,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        *[st.dictionaries(k, children, max_size=4) for k in key_types],
    ),
    max_leaves=20,
)


@given(documents)
@settings(max_examples=400, deadline=None)
def test_to_json_matches_json_indent_2(obj):
    assert_renders_like_json(obj)


@pytest.mark.parametrize("obj", [
    [], (), {}, [[]], [[], []], [[], [1]], [1, True], [True, 1], [[1, 2], [3, True]],
    [[1, 2], (3, 4)], [(1,), [2]], [[1, 2], [3]], [1, 2.0], [np.int64(3), 4],
    {"edges": [[0, 1], [0, 2]], "color_of": [1, 2, 2], "nested": {"x": [[]]}},
    {1: "a", 2.5: "b", False: "c"}, {None: "d"}, {math.nan: 1}, {-0.0: 1, math.inf: 2},
    {"a": {1: [1, {"b": ()}]}}, [10**40, -(10**40)], [[10**40, 1], [2, 3]],
])
def test_to_json_matches_json_on_edge_cases(obj):
    assert_renders_like_json(obj)


@pytest.mark.parametrize("obj", [
    {"a": 1, 2: 3}, {None: 1, "a": 2}, {(1, 2): 3}, {np.int64(1): 2}, [{"a": 1, 1.5: 2}],
])
def test_to_json_raises_type_error_where_json_does(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2, sort_keys=True, default=str)
    with pytest.raises(TypeError):
        to_json(obj)


def test_to_json_raises_on_a_circular_container():
    loop = [1]
    loop.append(loop)
    cycle = {"a": {}}
    cycle["a"]["b"] = cycle
    for obj in (loop, cycle, [[loop]]):
        with pytest.raises(ValueError, match="Circular"):
            json.dumps(obj, indent=2, sort_keys=True, default=str)
        with pytest.raises(ValueError, match="Circular"):
            to_json(obj)
