import numpy as np
import pytest

from eqmerton.output import write_csv
from oracles import per_value_csv

# (columns, the exact text written)
CASES = {
    "float edge values": (
        {"x": [0.1, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324,
               1.7976931348623157e308]},
        "x\n0.10000000000000001\n-0\ninf\n-inf\nnan\n4.9406564584124654e-324\n"
        "1.7976931348623157e+308\n",
    ),
    "numpy float64 array": (
        {"t": np.array([0.0, 0.001, 1.0]), "v": np.array([1.5, 2.0, 1e-20])},
        "t,v\n0,1.5\n0.001,2\n1,9.9999999999999995e-21\n",
    ),
    "bool and text": (
        {"check": ["a_check", "b"], "pass": [True, np.bool_(False)], "z": [3, 0.5]},
        "check,pass,z\na_check,true,3\nb,false,0.5\n",
    ),
    "empty table": (
        {"check": [], "statistic": [], "threshold": [], "pass": []},
        "check,statistic,threshold,pass\n",
    ),
}


@pytest.mark.parametrize("columns, expected", CASES.values(), ids=CASES.keys())
def test_write_csv_bytes(tmp_path, columns, expected):
    path = tmp_path / "sub" / "table.csv"
    write_csv(path, columns)
    assert path.read_bytes() == expected.encode()


def test_write_csv_rejects_unequal_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "table.csv", {"a": [1.0, 2.0], "b": np.array([1.0])})


# columns of every kind the writer meets, checked against the per-value writer
MIXED = {
    "bool": {"pass": np.array([True, False, True]), "flag": [False, np.bool_(True), False]},
    "text": {"label": ["exponential", "a%sb", "%.17g"], "t": ["x", "", "z,w"]},
    "int": {"n": np.array([0, -7, 2**62], dtype=np.int64), "k": [1, 2, 3],
            "u": np.array([1, 2, 3], dtype=np.uint8)},
    "float": {"x": np.linspace(-1.0, 1.0, 3) / 3.0, "y": [1e300, -5e-324, float("nan")],
              "z": np.array([0.1, 0.2, 0.3], dtype=np.float32)},
    "mixed": {"check": ["a", "b", "c"], "value": [1, 0.5, float("inf")],
              "pass": [True, False, True], "steps": np.arange(3)},
    "one column": {"t": np.arange(5) * 0.001},
    "empty table": {"a": [], "b": np.array([]), "c": np.array([], dtype=bool)},
    "no columns": {},
}


@pytest.mark.parametrize("columns", MIXED.values(), ids=MIXED.keys())
def test_write_csv_matches_the_per_value_writer(tmp_path, columns):
    path = tmp_path / "table.csv"
    write_csv(path, columns)
    assert path.read_bytes() == per_value_csv(columns).encode()


UNEQUAL = {
    "shorter text": {"a": [1.0, 2.0], "b": ["x"]},
    "empty first": {"a": [], "b": [True]},
    "longer last": {"a": np.arange(3), "b": np.arange(3), "c": np.arange(4)},
}


@pytest.mark.parametrize("columns", UNEQUAL.values(), ids=UNEQUAL.keys())
def test_unequal_columns_raise_like_the_per_value_writer(tmp_path, columns):
    with pytest.raises(ValueError):
        per_value_csv(columns)
    with pytest.raises(ValueError):
        write_csv(tmp_path / "table.csv", columns)
