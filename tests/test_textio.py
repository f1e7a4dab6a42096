"""The block-formatted matrix writer against per-cell formatting."""

import numpy as np
import pytest

from peptaste import textio


def _nan_with_payload(sign: int) -> float:
    bits = np.array([np.nan]).view(np.int64) | 0x5A5A
    return float(sign * np.abs(bits.view(np.float64))[0])


# values whose text depends on their exact bits: both zeros, NaNs that
# differ in sign and payload, the infinities, the smallest subnormals
SPECIAL = [
    0.0, -0.0, float("nan"), -float("nan"), _nan_with_payload(1),
    _nan_with_payload(-1), float("inf"), -float("inf"), 5e-324, -5e-324,
    0.1, 1 / 3, 1e300, 2.5,
]


def special_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """Draws from SPECIAL and a few normal values, so values repeat within
    and across rows; the first cells hold every special value in order."""
    rng = np.random.default_rng(seed)
    pool = np.array(SPECIAL + rng.normal(size=4).tolist())
    flat = pool[rng.integers(len(pool), size=rows * cols)]
    head = min(len(flat), len(SPECIAL))
    flat[:head] = SPECIAL[:head]
    return flat.reshape(rows, cols)


def per_cell_text(header, labels, matrix) -> str:
    lines = ["\t".join(header)]
    lines += [
        "\t".join([label, *(textio.cell(v) for v in row)])
        for label, row in zip(labels, matrix.tolist())
    ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rows", [0, 1, 16, 17, 40])
@pytest.mark.parametrize("cols", [1, 15, 41])
@pytest.mark.parametrize("order", ["C", "F"])
def test_bytes_equal_per_cell_formatting(tmp_path, capsys, rows, cols, order):
    matrix = np.asarray(special_matrix(rows, cols, seed=100 * rows + cols), order=order)
    labels = [f"PEP{i}" for i in range(rows)]
    header = ["sequence"] + [f"c{j}" for j in range(cols)]
    expected = per_cell_text(header, labels, matrix).encode()
    out = tmp_path / "table.tsv"
    textio.write_matrix(out, header, labels, matrix)
    assert out.read_bytes() == expected
    textio.write_matrix(None, header, labels, matrix)
    assert capsys.readouterr().out.encode() == expected


def test_signed_zeros_and_nans_keep_their_text(tmp_path):
    matrix = np.array([[0.0, -0.0, _nan_with_payload(-1), 5e-324, -0.0]])
    out = tmp_path / "table.tsv"
    textio.write_matrix(out, ["s", "a", "b", "c", "d", "e"], ["X"], matrix)
    assert out.read_text().splitlines()[1] == "X\t0.0\t-0.0\tnan\t5e-324\t-0.0"
