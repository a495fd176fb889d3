"""Mutation fuzzing of the pattern and sweep readers: whatever the bytes,
a read either succeeds or raises a ValueError whose message starts with
the file's path; no other exception may escape."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cvrpkit import read_pattern, read_sweep_csv
from test_io import DISTRIBUTED, TOY

SWEEP = "# label: demo\nfov_deg,cvrp_dbm\n180,3.01029995664\n90,0\n30,-7.5\n0,-inf\n"

# Characters the grammar gives a meaning to, and a few it does not: a
# no-break space, an Arabic-Indic zero and a Unicode line separator.
_CHARS = st.sampled_from([*"0123456789.,-+eE#: \t\r\nainfINF_x", "\u00a0", "\u0660", "\u2028"])
_OPS = ("delete", "insert", "replace", "drop line", "duplicate line", "bad byte")


@st.composite
def _mutated(draw, text: str) -> bytes:
    data = text.encode("utf-8")
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(_OPS))
        i = draw(st.integers(0, len(data)))
        if op == "delete":
            data = data[:i] + data[i + draw(st.integers(1, 3)):]
        elif op == "insert":
            data = data[:i] + draw(_CHARS).encode("utf-8") + data[i:]
        elif op == "replace":
            data = data[:i] + draw(_CHARS).encode("utf-8") + data[i + 1:]
        elif op == "bad byte":
            data = data[:i] + bytes([draw(st.sampled_from([0x80, 0xc3, 0xfe, 0xff]))]) + data[i:]
        else:
            lines = data.split(b"\n")
            k = draw(st.integers(0, len(lines) - 1))
            lines[k:k + 1] = [] if op == "drop line" else [lines[k], lines[k]]
            data = b"\n".join(lines)
    return data


def _read_or_name_path(reader, tmp_path_factory, data: bytes) -> None:
    path = tmp_path_factory.getbasetemp() / f"fuzz_{reader.__name__}.csv"
    path.write_bytes(data)
    try:
        reader(str(path))
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:"), str(exc)


@settings(max_examples=300, deadline=None)
@given(data=_mutated(TOY))
def test_mutated_pattern_file(tmp_path_factory, data):
    _read_or_name_path(read_pattern, tmp_path_factory, data)


@settings(max_examples=300, deadline=None)
@given(data=_mutated(DISTRIBUTED))
def test_mutated_distributed_pattern_file(tmp_path_factory, data):
    _read_or_name_path(read_pattern, tmp_path_factory, data)


@settings(max_examples=300, deadline=None)
@given(data=_mutated(SWEEP))
def test_mutated_sweep_file(tmp_path_factory, data):
    _read_or_name_path(read_sweep_csv, tmp_path_factory, data)
