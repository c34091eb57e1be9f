import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lsgt.data import TimeSeries, load_collection, serialize_collection, split
from lsgt.errors import DataFormatError, SeriesValidationError


def test_json_round_trip_identity(tmp_path):
    series = TimeSeries(id="Y1", values=(1.0, 2.0, 3.0, 4.0), m=1, h=2)
    path = tmp_path / "one.json"
    serialize_collection([series], path)
    loaded = load_collection(path, format="json")
    assert len(loaded) == 1
    assert loaded[0] == series
    assert loaded[0].length == 4


def test_canonical_json_byte_round_trip(tmp_path):
    collection = [
        TimeSeries(id="A", values=(1.5, 2.25, 3.125), m=1, h=1, category="yearly"),
        TimeSeries(id="B", values=(10.0, 11.0, 12.0, 13.0), m=2, h=2),
    ]
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    serialize_collection(collection, p1)
    serialize_collection(load_collection(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_zero_value_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"id": "Z", "category": None, "m": 1, "h": 1,
                                 "values": [1.0, 0.0, 2.0]}]))
    with pytest.raises(SeriesValidationError) as err:
        load_collection(path)
    assert "Z" in str(err.value)
    assert "index 1" in str(err.value)


def test_csv_format(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(
        "id,category,m,h,values\n"
        "Y1,yearly,1,2,1.0;2.0;3.0;4.0\n"
        "Q1,quarterly,4,8,"
        + ";".join(str(float(v)) for v in range(1, 21))
        + "\n"
    )
    got = load_collection(path)
    assert [s.id for s in got] == ["Y1", "Q1"]
    assert got[0].values == (1.0, 2.0, 3.0, 4.0)
    assert got[1].m == 4 and got[1].h == 8


def test_csv_bad_header(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("id,m,h,values\nY1,1,1,1;2\n")
    with pytest.raises(DataFormatError):
        load_collection(path)


def test_parse_error_carries_record_index(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("id,category,m,h,values\nY1,x,1,2,1;2;3\nY2,x,one,2,1;2;3\n")
    with pytest.raises(DataFormatError) as err:
        load_collection(path)
    assert err.value.record_index == 1


def _write_ids(path, ids):
    path.write_text(json.dumps([{"id": i, "category": None, "m": 1, "h": 1,
                                 "values": [1.0, 2.0, 3.0]} for i in ids]))


def test_duplicate_id_rejected(tmp_path):
    # a benchmark run writes records/<id>.json, so a repeated id would overwrite a record
    path = tmp_path / "dup.json"
    _write_ids(path, ["A", "B", "A"])
    with pytest.raises(DataFormatError) as err:
        load_collection(path)
    assert err.value.record_index == 2
    assert "'A'" in str(err.value)


def test_id_must_be_plain_file_name(tmp_path):
    path = tmp_path / "ids.json"
    for bad in ("M3/Y1", "Y\\1", ".", ".."):
        _write_ids(path, ["B", bad])
        with pytest.raises(DataFormatError) as err:
            load_collection(path)
        assert err.value.record_index == 1
    _write_ids(path, ["M3.Y1", "..Y", "B"])
    assert [s.id for s in load_collection(path)] == ["M3.Y1", "..Y", "B"]


def test_yearly_scale_collection(tmp_path):
    # 645 series with lengths in [14, 41] and horizon 6 load cleanly
    rng = np.random.Generator(np.random.Philox(0))
    records = []
    for i in range(645):
        T = int(rng.integers(14, 42))
        values = np.abs(rng.normal(1000.0, 100.0, size=T)) + 1.0
        records.append({"id": f"Y{i + 1}", "category": "yearly", "m": 1, "h": 6,
                        "values": [float(v) for v in values]})
    path = tmp_path / "yearly.json"
    path.write_text(json.dumps(records))
    got = load_collection(path)
    assert len(got) == 645
    assert all(s.h == 6 for s in got)
    assert all(14 <= s.length <= 41 for s in got)
    assert [s.id for s in got] == [f"Y{i + 1}" for i in range(645)]


def test_split_basic():
    s = TimeSeries(id="s", values=tuple(float(v) for v in range(1, 11)), m=1, h=3)
    parts = split(s)
    assert parts.train.length == 7
    assert len(parts.test) == 3
    assert parts.rejoined() == s.values


def test_split_rejects_short():
    s = TimeSeries(id="s", values=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0), m=1, h=6)
    with pytest.raises(SeriesValidationError):
        split(s)


def test_split_yearly_minimum():
    s = TimeSeries(id="s", values=tuple(float(v + 1) for v in range(14)), m=1, h=6)
    assert split(s).train.length == 8


@given(
    values=st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=3, max_size=40),
    h=st.integers(min_value=1, max_value=10),
)
def test_split_rejoin_property(values, h):
    # the train side must itself be a valid series (length >= 2)
    h = min(h, len(values) - 2)
    s = TimeSeries(id="p", values=tuple(values), m=1, h=h)
    assert split(s).rejoined() == s.values


def test_seasonal_capability():
    ok = TimeSeries(id="a", values=tuple(float(v + 1) for v in range(8)), m=4, h=2)
    short = TimeSeries(id="b", values=tuple(float(v + 1) for v in range(7)), m=4, h=2)
    assert ok.is_seasonal_capable()
    assert not short.is_seasonal_capable()
