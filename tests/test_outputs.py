"""The CSV writer: header, column line, exact values and block layout."""

from hypothesis import given, settings
from hypothesis import strategies as st

from qmap import make_runspec
from qmap.outputs import runspec_header, write_csv

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

