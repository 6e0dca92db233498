import numpy as np
import pytest

from conftest import format_coefficients
from evoseries.matfile import MatrixFileError, load_coefficients, parse_coefficient_text

SAMPLE = """\
1 -1 2
1 -2 1
2 1 1

2 1 3
-2 1 2
-3 2 1
"""


def test_parse_two_blocks():
    mats = parse_coefficient_text(SAMPLE)
    assert len(mats) == 2
    assert mats[0].shape == (3, 3)
    assert mats[1][2, 0] == -3.0


def test_parse_tolerates_extra_blank_lines():
    text = "\n\n1 0\n0 1\n\n\n0 2\n2 0\n\n"
    mats = parse_coefficient_text(text)
    assert len(mats) == 2
    assert np.array_equal(mats[0], np.eye(2))


def test_parse_reports_line_numbers():
    with pytest.raises(MatrixFileError, match=":2:"):
        parse_coefficient_text("1 2\n3 x\n")
    with pytest.raises(MatrixFileError, match=":3:"):
        parse_coefficient_text("1 2\n3 4\n5 6 7\n")
    with pytest.raises(MatrixFileError):
        parse_coefficient_text("\n\n")


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_parse_rejects_non_finite(token):
    with pytest.raises(MatrixFileError, match=":4: non-finite"):
        parse_coefficient_text(f"1 2\n3 4\n\n0 {token}\n0 0\n")


def test_roundtrip(tmp_path):
    mats = [np.array([[0.5, -1.25], [3.0, 2.0]]), np.zeros((2, 2))]
    path = tmp_path / "coeffs.mat"
    path.write_text(format_coefficients(mats))
    back = load_coefficients(str(path))
    assert len(back) == 2
    assert np.array_equal(back[0], mats[0])
    assert np.array_equal(back[1], mats[1])
