"""Peptide sequences, taste annotations, request patterns, and the residue codec.

The residue codec is the one place where residues become integer codes:
check_residues is the alphabet rule, residue_codes lays sequences into a
padded code matrix (a residue's index in AMINO_ACIDS, PAD_CHANNEL past each
end), and residue_counts counts each residue per row.  One-hot matrices,
descriptors, physicochemical profiles and alignment all read these codes.

Corpus records carry a five-slot annotation over {0, 1, x} in the fixed
slot order (sour, sweet, bitter, salty, umami); 'x' marks an unconfirmed
taste and never counts as present or absent.  Everything here is a pure
function of its inputs and safe to call concurrently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError, ValidationError

AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"
AA_TO_INDEX = {aa: i for i, aa in enumerate(AMINO_ACIDS)}
PAD_CHANNEL = 20
NUM_CHANNELS = 21
MIN_LENGTH = 2

TASTES = ("sour", "sweet", "bitter", "salty", "umami")


# '-' stands for the pad while rows are laid out; check_residues keeps it
# out of every sequence
_TO_CODE = bytes.maketrans((AMINO_ACIDS + "-").encode(), bytes(range(NUM_CHANNELS)))
_DROP_RESIDUES = str.maketrans("", "", AMINO_ACIDS)


def check_residues(seq: str) -> str:
    """Return seq; raise ValidationError naming its first character that is
    not one of the 20 canonical one-letter codes."""
    bad = seq.translate(_DROP_RESIDUES)
    if bad:
        raise ValidationError(f"invalid residue {bad[0]!r} in sequence {seq!r}")
    return seq


def residue_codes(seqs, width: int | None = None) -> np.ndarray:
    """(n, width) uint8 matrix: row i holds the index in AMINO_ACIDS of each
    residue of seqs[i], then PAD_CHANNEL.  width defaults to the longest
    sequence; a longer one raises ValidationError, as does a bad residue."""
    seqs = [check_residues(str(s)) for s in seqs]
    longest = max(map(len, seqs), default=0)
    if width is None:
        width = longest
    elif longest > width:
        seq = next(s for s in seqs if len(s) > width)
        raise ValidationError(
            f"sequence {seq!r} has length {len(seq)}, exceeding max_len {width}"
        )
    raw = "".join(s.ljust(width, "-") for s in seqs).encode().translate(_TO_CODE)
    return np.frombuffer(raw, np.uint8).reshape(len(seqs), width)


def row_counts(values: np.ndarray, size: int) -> np.ndarray:
    """(n, size) count of each value in 0..size-1 in each row of an (n, m)
    integer matrix."""
    n = len(values)
    offsets = np.arange(n)[:, None] * size
    return np.bincount((values + offsets).ravel(), minlength=n * size).reshape(n, size)


def residue_counts(codes: np.ndarray) -> np.ndarray:
    """(n, 20) count of each residue, indexed like AMINO_ACIDS, in each row
    of a residue_codes matrix."""
    return row_counts(codes, NUM_CHANNELS)[:, :PAD_CHANNEL]


@dataclass(frozen=True, order=True)
class Peptide:
    """A validated sequence of canonical one-letter amino-acid codes."""

    sequence: str

    def __post_init__(self):
        check_residues(self.sequence)
        if len(self.sequence) < MIN_LENGTH:
            raise ValidationError(
                f"sequence {self.sequence!r} has length {len(self.sequence)}, "
                f"minimum is {MIN_LENGTH}"
            )

    def __len__(self):
        return len(self.sequence)

    def __str__(self):
        return self.sequence


_LABEL_CHARS = frozenset("01x")


def _check_code(code: str) -> str:
    """Validate a bare five-character {0,1,x} code and return it."""
    if len(code) != len(TASTES) or any(c not in _LABEL_CHARS for c in code):
        raise ValidationError(
            f"annotation code {code!r} must be exactly {len(TASTES)} "
            "characters from {0, 1, x}"
        )
    return code


@dataclass(frozen=True)
class TasteLabel:
    """Per-taste annotation: '1' confirmed present, '0' absent, 'x' unknown."""

    slots: tuple[str, str, str, str, str]

    @classmethod
    def from_code(cls, code: str) -> "TasteLabel":
        return cls(tuple(_check_code(code)))

    @property
    def code(self) -> str:
        return "".join(self.slots)

    def present_tastes(self) -> tuple[str, ...]:
        return tuple(t for t, s in zip(TASTES, self.slots) if s == "1")


class PatternMode(enum.Enum):
    SINGLE = "single"
    MULTIPLE = "multiple"


class Assignment(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    EXCLUDED = "excluded"


@dataclass(frozen=True)
class TastePattern:
    """A design request: '1' desired, '0' avoided, 'x' unconstrained."""

    slots: tuple[str, str, str, str, str]

    def __post_init__(self):
        if "1" not in self.slots:
            raise ConfigError(
                f"pattern {self.code!r} requests nothing: at least one slot "
                "must be '1'"
            )

    @property
    def code(self) -> str:
        return "".join(self.slots)

    @property
    def desired(self) -> frozenset[int]:
        return frozenset(i for i, s in enumerate(self.slots) if s == "1")

    @property
    def avoided(self) -> frozenset[int]:
        return frozenset(i for i, s in enumerate(self.slots) if s == "0")

    @property
    def avoidance_mode(self) -> bool:
        return bool(self.avoided)


def parse_pattern(code: str) -> TastePattern:
    """Parse a '>abcde' request code into a TastePattern."""
    if not code.startswith(">"):
        raise ConfigError(f"pattern {code!r} must start with '>'")
    try:
        slots = tuple(_check_code(code[1:]))
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    return TastePattern(slots)


def format_pattern(pattern: TastePattern) -> str:
    return ">" + pattern.code


def assign_record(
    label: TasteLabel, pattern: TastePattern, mode: PatternMode
) -> Assignment:
    """Sort one annotated peptide into the positive / negative / excluded set.

    Any avoided taste confirmed present makes the record negative.  In
    single mode the confirmed tastes must equal the desired set exactly;
    in multiple mode any non-empty subset of the desired set qualifies.
    Unknown ('x') slots never count either way.
    """
    present = {i for i, s in enumerate(label.slots) if s == "1"}
    if present & pattern.avoided:
        return Assignment.NEGATIVE
    if mode is PatternMode.SINGLE:
        if present == pattern.desired:
            return Assignment.POSITIVE
    else:
        if present and present <= pattern.desired:
            return Assignment.POSITIVE
    return Assignment.EXCLUDED


def split_fasta(text: str):
    """Yield (header line number, header without '>', sequence) per record.

    Sequence bodies may wrap over multiple lines; blank lines are skipped.
    Raises ParseError with the line number for data before the first
    header and for a header with no sequence.
    """
    header: tuple[int, str] | None = None
    body: list[str] = []

    def record():
        line_no, name = header
        if not body:
            raise ParseError(f"line {line_no}: header {'>' + name!r} has no sequence")
        return line_no, name, "".join(body)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            if header is not None:
                yield record()
            header, body = (line_no, line[1:]), []
        elif header is None:
            raise ParseError(f"line {line_no}: sequence data before any header")
        else:
            body.append(line)
    if header is not None:
        yield record()


def parse_taste_fasta(text: str) -> list[tuple[Peptide, TasteLabel]]:
    """Parse an annotated FASTA document ('>abcde' headers, sequence bodies).

    Raises ParseError with the offending line number for malformed headers
    and empty records, ValidationError for bad residues.
    """
    records: list[tuple[Peptide, TasteLabel]] = []
    for line_no, code, seq in split_fasta(text):
        if len(code) != len(TASTES) or any(c not in _LABEL_CHARS for c in code):
            raise ParseError(
                f"line {line_no}: header {'>' + code!r} must be '>' followed by "
                f"exactly {len(TASTES)} characters from {{0, 1, x}}"
            )
        try:
            records.append((Peptide(seq), TasteLabel.from_code(code)))
        except ValidationError as exc:
            raise ValidationError(f"record at line {line_no}: {exc}") from exc
    return records


def parse_taste_tsv(text: str) -> list[tuple[Peptide, TasteLabel]]:
    """Parse the tabular corpus format: 'sequence<TAB>abcde' per line.

    '#' comment lines and blank lines are ignored.
    """
    records = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(
                f"line {line_no}: expected 'sequence<TAB>code', got {raw!r}"
            )
        seq, code = parts[0].strip(), parts[1].strip()
        try:
            records.append((Peptide(seq), TasteLabel.from_code(code)))
        except ValidationError as exc:
            raise ValidationError(f"line {line_no}: {exc}") from exc
    return records


def decode_argmax(matrix: np.ndarray) -> Peptide:
    """Decode a (L, 21) matrix by per-row argmax, truncating at the first pad.

    Ties break toward the lowest channel index.  Raises ValidationError
    when the decoded sequence is empty or shorter than the peptide minimum.
    """
    mat = np.asarray(matrix)
    if mat.ndim != 2 or mat.shape[1] != NUM_CHANNELS:
        raise ValidationError(
            f"expected a (length, {NUM_CHANNELS}) matrix, got shape {mat.shape}"
        )
    chars = []
    for idx in np.argmax(mat, axis=1):
        if idx == PAD_CHANNEL:
            break
        chars.append(AMINO_ACIDS[idx])
    if not chars:
        raise ValidationError("decoded an empty sequence (pad on first row)")
    return Peptide("".join(chars))


def encode_batch(peptides, max_len: int) -> np.ndarray:
    """(n, max_len, 21) one-hot matrices; channel PAD_CHANNEL pads each suffix."""
    return np.eye(NUM_CHANNELS)[residue_codes(peptides, max_len)]
