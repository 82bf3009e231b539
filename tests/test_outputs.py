"""The CSV writer: header, column line, exact values and block layout;
the reader of classical.csv."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmap import (OBSERVABLES, VARIANTS, MapFamily, classical_correlator,
                  make_runspec)
from qmap.outputs import (format_value, read_classical_curve,
                          runspec_header, write_csv, write_outputs)

SPEC = make_runspec({"command": "spectrum"})

values = st.one_of(st.integers(-2**63, 2**63 - 1),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def tables(draw):
    width = draw(st.integers(1, 4))
    columns = [f"c{i}" for i in range(width)]
    rows = st.lists(st.tuples(*[values] * width), max_size=6)
    if draw(st.booleans()):
        blocks = [(None, draw(rows))]
    else:
        labels = draw(st.lists(st.integers(1, 4096), min_size=1, max_size=4))
        blocks = [(f"N={n}", draw(rows)) for n in labels]
    return columns, blocks


def assert_row(line, row):
    tokens = line.split(",")
    assert len(tokens) == len(row)
    for token, v in zip(tokens, row):
        if isinstance(v, int):
            assert token == str(v)
        else:
            assert float(token) == v


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(table=tables())
def test_written_table_reads_back(tmp_path_factory, table):
    columns, blocks = table
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    write_csv(str(path), SPEC, columns, blocks)
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    assert "\r" not in text and text.endswith("\n")

    header = runspec_header(SPEC)
    lines = text.split("\n")
    assert lines[:len(header)] == header
    assert lines[len(header)] == ",".join(columns)
    body = "\n".join(lines[len(header) + 1:])

    if blocks[0][0] is None:
        body_lines = body.split("\n")[:-1]
        rows = blocks[0][1]
        assert len(body_lines) == len(rows)
        for line, row in zip(body_lines, rows):
            assert_row(line, row)
        return

    # labelled blocks: exactly two blank lines between neighbours
    assert "\n\n\n\n" not in body
    chunks = body.rstrip("\n").split("\n\n\n")
    assert len(chunks) == len(blocks)
    for chunk, (label, rows) in zip(chunks, blocks):
        chunk_lines = chunk.split("\n")
        assert chunk_lines[0] == f"# {label}"
        assert len(chunk_lines) == len(rows) + 1
        for line, row in zip(chunk_lines[1:], rows):
            assert_row(line, row)


# every kind a row may hold, numpy scalars included
any_kind = st.one_of(
    values, st.booleans(), st.text("abc", max_size=3),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_))


@st.composite
def mixed_blocks(draw):
    width = draw(st.integers(1, 4))
    # a column of one kind, or of a kind per value
    kinds = [draw(st.sampled_from([values, any_kind])) for _ in range(width)]
    rows = draw(st.lists(st.tuples(*kinds), max_size=8))
    return width, rows


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(block=mixed_blocks())
def test_rows_print_as_format_value_prints_them(tmp_path_factory, block):
    # rows are formatted by column in bulk; the text is format_value's
    width, rows = block
    path = tmp_path_factory.mktemp("csv") / "mixed.csv"
    write_csv(str(path), SPEC, [f"c{i}" for i in range(width)],
              [(None, iter(rows))])
    lines = path.read_text(encoding="utf-8").split("\n")
    body = lines[len(runspec_header(SPEC)) + 1:-1]
    assert body == [",".join(format_value(v) for v in row) for row in rows]


def test_rows_of_one_block_share_a_width(tmp_path):
    with pytest.raises(ValueError, match="differ in width"):
        write_csv(str(tmp_path / "ragged.csv"), SPEC, ("a", "b"),
                  [(None, [(1, 2.0), (3,)])])


def test_single_block_matches_plain_layout(tmp_path):
    path = tmp_path / "plain.csv"
    write_csv(str(path), SPEC, ("N", "x"), [(None, [(64, 0.1), (128, 2.0)])])
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[-3:] == ["N,x", "64,0.10000000000000001", "128,2"]


def test_labelled_blocks_match_gnuplot_layout(tmp_path):
    path = tmp_path / "blocks.csv"
    write_csv(str(path), SPEC, ("T", "F"),
              [("N=64", [(0.5, 1.0)]), ("N=128", [(0.5, 0.25)])])
    text = path.read_text(encoding="utf-8")
    assert text.endswith("T,F\n# N=64\n0.5,1\n\n\n# N=128\n0.5,0.25\n")



@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**63 - 1), t_max=st.integers(1, 40),
       variant=st.sampled_from(VARIANTS), observable=st.sampled_from(OBSERVABLES))
def test_classical_curve_reads_back_exactly(tmp_path_factory, seed, t_max,
                                            variant, observable):
    # what `qmap classical` writes, `qmap ergodicity` reads back to the bit
    inputs = {"family": {"variant": variant}, "observable": observable,
              "samples": 10_000, "t_max": t_max, "seed": seed,
              "out_dir": str(tmp_path_factory.mktemp("classical"))}
    curve = classical_correlator(MapFamily(variant), observable, t_max,
                                 10_000, seed)
    write_outputs({"curve": curve},
                  make_runspec({"command": "classical", **inputs}))
    back = read_classical_curve(make_runspec({"command": "ergodicity",
                                              **inputs}))
    for name in ("times", "C", "stderr"):
        assert np.array_equal(getattr(back, name), getattr(curve, name))
    assert back.sample_count == curve.sample_count
