"""Golden encodings: sha256 digests of every descriptor's output matrix.

The digests were recorded before the descriptor encoders were consolidated
into one registry; they pin every encoder's float64 output and every
column name byte for byte, under the default encoding settings and a
smaller set.
"""

import hashlib

import numpy as np
import pytest

from peptaste.descriptors import DESCRIPTOR_IDS, column_names, encode_matrix
from peptaste.sequences import AMINO_ACIDS, Peptide
from conftest import (
    DEFAULT_SETTINGS,
    SMALL_SETTINGS,
    DescriptorSettings,
    descriptor_settings,
)

CONFIGS = {"default": DEFAULT_SETTINGS, "small": SMALL_SETTINGS}


def _peptide_set() -> list[str]:
    fixed = [
        "KR", "AC", "WW", "GP",  # length 2
        "ACD", "KRH", "GGG", "WYV",  # length 3
        "ACDEFGHIKLMNPQRSTVWY",
        "A" * 25, "K" * 7, "C" * 20, "W" * 4,  # homopolymers
        "ACDEFGHIKLMNPQRSTVWYACDEF",  # length 25
        "YWVTSRQPNMLKIHGFEDCAKRKRD",
    ]
    generated = []
    for i in range(40):
        length = 3 + (i * 7) % 23
        generated.append(
            "".join(AMINO_ACIDS[(i * j * j + 3 * j + 5 * i) % 20] for j in range(length))
        )
    return fixed + generated


PEPTIDES = _peptide_set()


def _accepts(did: str, seq: str, cfg: DescriptorSettings) -> bool:
    if did in ("TPC", "GTPC", "CTriad") and len(seq) < 3:
        return False
    if did in ("PAAC", "APAAC") and len(seq) <= cfg.lam:
        return False
    if did in ("Binary", "BLOSUM62", "Zscale", "EAAC", "EGAAC") and len(seq) > cfg.pad_len:
        return False
    return True


def _digest(matrix: np.ndarray) -> str:
    assert matrix.dtype == np.float64
    h = hashlib.sha256(repr(matrix.shape).encode())
    h.update(np.ascontiguousarray(matrix).tobytes())
    return h.hexdigest()


def encoding_digest(did: str, config_name: str) -> str:
    cfg = CONFIGS[config_name]
    peps = [Peptide(s) for s in PEPTIDES if _accepts(did, s, cfg)]
    with descriptor_settings(cfg):
        return _digest(encode_matrix([did], peps))


def names_digest(config_name: str) -> str:
    with descriptor_settings(CONFIGS[config_name]):
        names = column_names(DESCRIPTOR_IDS)
    return hashlib.sha256("\n".join(names).encode()).hexdigest()


GOLDEN_ENCODINGS = {
    ("AAC", "default"):
        "1a7580b4079521e671200cb898c8ffa1febde7454381cca27e3ba844357d8f3e",
    ("AAC", "small"):
        "1a7580b4079521e671200cb898c8ffa1febde7454381cca27e3ba844357d8f3e",
    ("DPC", "default"):
        "8c6e231eb2f9d1c22ea3a74961d4f358f9eb806a9a20b574de5170188d51eadc",
    ("DPC", "small"):
        "8c6e231eb2f9d1c22ea3a74961d4f358f9eb806a9a20b574de5170188d51eadc",
    ("TPC", "default"):
        "05e3225180894974591e67d275c82a6024b4c39d9a6b036cec39f9cc5f62bcd7",
    ("TPC", "small"):
        "05e3225180894974591e67d275c82a6024b4c39d9a6b036cec39f9cc5f62bcd7",
    ("GAAC", "default"):
        "26540a44ba3292312848f28caf3538c29f0d459511dc83292aacd94f3bf7bc29",
    ("GAAC", "small"):
        "26540a44ba3292312848f28caf3538c29f0d459511dc83292aacd94f3bf7bc29",
    ("GDPC", "default"):
        "ac4f9b31422ae54324bbc04e0f2f52fe90f3fc7fdef7809a48d609f168d4331d",
    ("GDPC", "small"):
        "ac4f9b31422ae54324bbc04e0f2f52fe90f3fc7fdef7809a48d609f168d4331d",
    ("GTPC", "default"):
        "ffbdb1f49dc8f62bf69f43c8f4e2672b475bcda1f811d1e3ffdb1f6be97da424",
    ("GTPC", "small"):
        "ffbdb1f49dc8f62bf69f43c8f4e2672b475bcda1f811d1e3ffdb1f6be97da424",
    ("CTDC", "default"):
        "a6f1c2bc102b57b80347911bf65906902b23c51cfb667e83d691e84687b2b3db",
    ("CTDC", "small"):
        "a6f1c2bc102b57b80347911bf65906902b23c51cfb667e83d691e84687b2b3db",
    ("CTDT", "default"):
        "27bba19106df6b883f4097e6c52c68c921589347163406af441cd76a94402e13",
    ("CTDT", "small"):
        "27bba19106df6b883f4097e6c52c68c921589347163406af441cd76a94402e13",
    ("CTDD", "default"):
        "ba643474059a787b9ad28e17bcc2b7c49cd98def23450569d3eaf4ef3b6007f2",
    ("CTDD", "small"):
        "ba643474059a787b9ad28e17bcc2b7c49cd98def23450569d3eaf4ef3b6007f2",
    ("CTriad", "default"):
        "d06ac63478250e5f1b8b833ec45a310ed168a6f110cc9b09998d256f7f6e15fa",
    ("CTriad", "small"):
        "d06ac63478250e5f1b8b833ec45a310ed168a6f110cc9b09998d256f7f6e15fa",
    ("EAAC", "default"):
        "c5dfb579aeafdab8c314785a167da4e64c1bb95f31541a1d23af705769a2068a",
    ("EAAC", "small"):
        "ccaf3e973a1b127c031afd4a7f4e0e76ed3627273056283940dcb6c00715479a",
    ("EGAAC", "default"):
        "7a47a0f2bc094d378e79812833eae9772de2e5a6c4854ac5124db878ebdeade2",
    ("EGAAC", "small"):
        "6760dc02a00a5a75bb1f112723e1cf28350f8cebf9fb7cbf06ec1d171508f283",
    ("CKSAAP", "default"):
        "b7a437f16ad0b23a011e3ea9341122059ee097c5748d589e428fbfab7f28cb8c",
    ("CKSAAP", "small"):
        "79620c6dc11beb4460c45c435a9d4e13a5cd6b636bdf6ab747ae11d05ec881e7",
    ("CKSAAGP", "default"):
        "dfe71e280e22a441b36d4456cfd4902942c7a05d18a619e4e9f7f82c83627699",
    ("CKSAAGP", "small"):
        "c2e70de3caea6eaecf536825632f53fade4add2138fde4095c17c6d541f9a936",
    ("Binary", "default"):
        "5dfb6456d3b8007506b52e00e2213eb41c9b9326a1b9c11303f19649360204e6",
    ("Binary", "small"):
        "c004c443f0ce97dd76f58c6ab1bfdc67a9330d35212977e2392d1880c988cf0b",
    ("BLOSUM62", "default"):
        "eaf33eb43b45d9e85c82f88c61f0af3bb1d516fca9e046a1cea5189b81ece88d",
    ("BLOSUM62", "small"):
        "cf7776988d265309bfe1e11d8cc7249e93cac25707d37e26f0fdf68893d1aad3",
    ("DDE", "default"):
        "c13cc6fd4c5d5b2fddc56d643271c0973b0044e34b267f8f8a9667ed2afde32e",
    ("DDE", "small"):
        "c13cc6fd4c5d5b2fddc56d643271c0973b0044e34b267f8f8a9667ed2afde32e",
    ("PAAC", "default"):
        "5f07ddf3dc6ebee5291aff9b4e82be385f18d474df3ab6433a605749e7bbf985",
    ("PAAC", "small"):
        "c33c75c94da2ea6f3464fd1193db30a045221f9897c6a5047ece120c5a8ea23a",
    ("APAAC", "default"):
        "041080372d1bd7ee2937afe7b4d76858723d8258930e080b152a1ed2e18a2f21",
    ("APAAC", "small"):
        "5abcaa10cccddae2f4e43e33beb4478904c4d64f330bcb598bf3ff3abf613541",
    ("Zscale", "default"):
        "d8cfb8ca7e1b42a4b2a84d2c13d9188479600000b4a73e21d269da3f8167a593",
    ("Zscale", "small"):
        "612a2ccc9d72f1fc12a8d029482a35ca2104f4831f16bdc1813c29fd3f9dd8ec",
}

GOLDEN_NAMES = {
    "default": "e9efd8f306419d791dd4d3ce6f4abd94bfe3095ccb55cb41e615659559ec95df",
    "small": "d8d008babf89df426ef66e6f46199b709e869bdc017cb0b275220eef4cf24192",
}


def test_peptide_set_reaches_every_edge():
    lengths = {len(s) for s in PEPTIDES}
    assert {2, 3, 20, 25} <= lengths
    for did in DESCRIPTOR_IDS:
        for name, cfg in CONFIGS.items():
            taken = [s for s in PEPTIDES if _accepts(did, s, cfg)]
            assert len(taken) >= 40, (did, name)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("did", DESCRIPTOR_IDS)
def test_encoding_digest(did, config_name):
    assert encoding_digest(did, config_name) == GOLDEN_ENCODINGS[(did, config_name)]


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_column_names_digest(config_name):
    assert names_digest(config_name) == GOLDEN_NAMES[config_name]
