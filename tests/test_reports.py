"""Manifest embedding and report serialization."""

import csv
import io
import json

import numpy as np
import pytest

import oracles
from sargkit import reports


def manifest(**overrides) -> reports.RunManifest:
    m = reports.start_manifest("frontier", {"nu": 2}, "0.1.0", seed=None)
    return reports.finish_manifest(m, overrides.get("status", "PASS"))


def test_csv_layout_and_line_endings():
    text = reports.render_csv(["x", "y"], [{"x": 1, "y": 0.5}], manifest())
    lines = text.split("\r\n")
    assert lines[0].startswith("# manifest: {")
    assert lines[1] == "x,y"
    assert lines[2] == "1,0.5"
    assert text.endswith("\r\n")
    embedded = json.loads(lines[0][len("# manifest: "):])
    assert embedded["command"] == "frontier"
    assert embedded["status"] == "PASS"


def test_csv_full_precision_floats():
    value = 0.1234567890123456789
    text = reports.render_csv(["v"], [{"v": value}], manifest())
    cell = oracles.payload_lines(text)[1]
    assert float(cell) == value


def test_csv_handles_numpy_scalars():
    text = reports.render_csv(["v"], [{"v": np.float64(0.25)}], manifest())
    assert oracles.payload_lines(text)[1] == "0.25"


def test_csv_rows_match_dict_writer_bytes():
    # Cells follow fieldnames whatever the dict order; None is an empty cell.
    fields = ["a", "b", "c"]
    rows = [{"c": None, "a": 1, "b": 0.1}, {"a": "x,y", "b": np.float64(2.5),
                                            "c": True}]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\r\n")
    writer.writeheader()
    writer.writerows(rows)
    text = reports.render_csv(fields, rows, manifest())
    assert oracles.payload_lines(text) == buf.getvalue().splitlines()


def test_csv_row_missing_a_column_raises():
    with pytest.raises(KeyError):
        reports.render_csv(["x", "y"], [{"x": 1}], manifest())


def test_payload_is_timestamp_independent():
    rows = [{"x": k, "y": k / 7} for k in range(5)]
    a = reports.render_csv(["x", "y"], rows, manifest())
    b = reports.render_csv(["x", "y"], rows, manifest())
    assert a != b or a == b  # manifests may or may not share timestamps
    assert oracles.payload_lines(a) == oracles.payload_lines(b)


def test_json_document_round_trips():
    results = {"rows": [1, 2, 3], "value": 0.5}
    text = reports.render_json(results, manifest())
    doc = json.loads(text)
    assert doc["results"] == results
    assert doc["manifest"]["version"] == "0.1.0"
    assert doc["manifest"]["parameters"] == {"nu": 2}
    # canonical key order
    assert text.index('"manifest"') < text.index('"results"')


def test_manifest_lifecycle():
    m = reports.start_manifest("simulate", {"trials": 10}, "0.1.0", seed=7)
    assert m.finished is None and m.status is None
    done = reports.finish_manifest(m, "OK")
    assert done.finished is not None
    assert done.started == m.started
    assert done.seed == 7
