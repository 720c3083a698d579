import numpy as np
import pytest

from eqmerton.output import write_csv

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
