"""Parsing of disassembler listing text into instruction category codes.

A listing line looks like ``03f6438 83a1 MOV AL,@VarA ;comment``: hex
address, hex opcode word, mnemonic, free-form operands, optional comment.
Category assignment is a per-mnemonic table (CategoryMap) loaded from JSON;
anything absent from the table counts as Other.

parse_listing goes from text straight to a Listing: one int64 category
code per instruction plus a tally of the skipped lines, with no per-line
object and one regex scan per listing.
"""

import enum
import json
import re
from dataclasses import dataclass, field
from importlib import resources

import numpy as np


class InstructionCategory(enum.Enum):
    ARITHMETIC = "arith"
    BOOLEAN = "bool"
    STORE = "store"
    LOAD = "load"
    BRANCH = "branch"
    OTHER = "other"

    @property
    def code(self):
        """Integer code used by the counting kernels (alphabetical by symbol)."""
        return _CODES[self]

    @classmethod
    def from_name(cls, text):
        key = text.strip().lower()
        try:
            return _ALIASES[key]
        except KeyError:
            raise ValueError(f"unknown instruction category {text!r}") from None


# alphabetical by symbol: a, b, l, n, s; Other sorts last
_CODES = {
    InstructionCategory.ARITHMETIC: 0,
    InstructionCategory.BRANCH: 1,
    InstructionCategory.LOAD: 2,
    InstructionCategory.BOOLEAN: 3,
    InstructionCategory.STORE: 4,
    InstructionCategory.OTHER: 5,
}

_ALIASES = {
    "arith": InstructionCategory.ARITHMETIC,
    "arithmetic": InstructionCategory.ARITHMETIC,
    "a": InstructionCategory.ARITHMETIC,
    "bool": InstructionCategory.BOOLEAN,
    "boolean": InstructionCategory.BOOLEAN,
    "n": InstructionCategory.BOOLEAN,
    "store": InstructionCategory.STORE,
    "s": InstructionCategory.STORE,
    "load": InstructionCategory.LOAD,
    "l": InstructionCategory.LOAD,
    "branch": InstructionCategory.BRANCH,
    "jump": InstructionCategory.BRANCH,
    "b": InstructionCategory.BRANCH,
    "other": InstructionCategory.OTHER,
}


@dataclass
class CategoryMap:
    """Total mnemonic -> category function; unmapped mnemonics are Other."""

    name: str
    categories: dict = field(default_factory=dict)

    def classify(self, mnemonic):
        return self.categories.get(mnemonic.upper(), InstructionCategory.OTHER)

    @classmethod
    def from_dict(cls, obj):
        """Map from its JSON form: an object whose "categories" maps
        mnemonics (non-empty, no whitespace) to category names; a
        malformed one raises ValueError."""
        if not isinstance(obj, dict):
            raise ValueError("a category map must be a JSON object")
        name = obj.get("name", "unnamed")
        if not isinstance(name, str):
            raise ValueError("the map's \"name\" must be a string")
        table = obj.get("categories")
        if not isinstance(table, dict):
            raise ValueError("the map needs a \"categories\" object "
                             "mapping mnemonics to category names")
        cats = {}
        for m, c in table.items():
            if m.split() != [m]:
                raise ValueError(f"mnemonic {m!r} is empty or holds "
                                 f"whitespace")
            if not isinstance(c, str):
                raise ValueError(f"category of {m!r} must be a name, "
                                 f"not {c!r}")
            cats[m.upper()] = InstructionCategory.from_name(c)
        return cls(name=name, categories=cats)

    def to_dict(self):
        return {
            "name": self.name,
            "categories": {m: c.value for m, c in sorted(self.categories.items())},
        }

    @classmethod
    def default(cls):
        """The shipped TI C28x table."""
        text = resources.files("hpc_sentinel.data").joinpath(
            "c28x_categories.json").read_text(encoding="utf-8")
        return cls.from_dict(json.loads(text))


# One anchored match per raw line: address, opcode word, mnemonic and the
# operands up to a comment. A line it accepts holds the same fields as the
# line stripped of its comment and outer whitespace would, because \s and
# str.strip use the same whitespace set and a mnemonic cannot hold ";".
_LINE_RE = re.compile(
    r"\s*([0-9a-fA-F]+)\s+([0-9a-fA-F]+)\s+([^\s;]+)([^;]*)")
# The same fields scanned over a whole listing whose lines are joined by
# "\n": [^\S\n] is \s within a line, and every line is consumed through
# its end, so group 1 is a line's mnemonic, or "" when _LINE_RE would not
# match it.
_SCAN_RE = re.compile(
    r"^(?:[^\S\n]*[0-9a-fA-F]+[^\S\n]+[0-9a-fA-F]+[^\S\n]+([^\s;]+))?"
    r"[^\n]*", re.MULTILINE)
_LABEL_RE = re.compile(r"^[A-Za-z_.$]\w*:$")

SKIP_KINDS = ("blank", "comment", "label", "directive", "unrecognized")


def _noncode_kind(raw_line):
    """Skip kind of a line that holds no instruction; "unrecognized" if
    the line is not recognizable non-code either."""
    stripped = raw_line.partition(";")[0].strip()
    if not stripped:
        return "comment" if raw_line.strip() else "blank"
    if _LABEL_RE.match(stripped):
        return "label"
    if stripped.startswith("."):
        return "directive"
    return "unrecognized"


@dataclass(frozen=True)
class Listing:
    """A parsed listing: one category code per instruction, plus the tally
    of skipped lines by kind (SKIP_KINDS)."""

    codes: np.ndarray  # (n,) int64 InstructionCategory codes
    skipped: dict

    def __len__(self):
        return self.codes.shape[0]


def parse_listing(text, cmap=None):
    """Category codes of a listing's instructions.

    Blank, comment, label and directive lines are skipped and tallied; a
    mnemonic starting with "." is a data word rendered as a
    pseudo-instruction and counts as a directive. Other lines are tallied
    as unrecognized.
    """
    cmap = cmap or CategoryMap.default()
    code_of = {m: c.code for m, c in cmap.categories.items()}
    other = InstructionCategory.OTHER.code
    skipped = dict.fromkeys(SKIP_KINDS, 0)
    lines = text.splitlines()
    # "\n".join of no lines is "", which scans as one empty line
    found = _SCAN_RE.findall("\n".join(lines)) if lines else []
    # Each distinct mnemonic is looked up once: its category code, -1 for
    # a line that holds no instruction, -2 for a data word.
    code = {m: -1 if not m else -2 if m[0] == "."
            else code_of.get(m.upper(), other) for m in set(found)}
    codes = np.fromiter(map(code.__getitem__, found), np.int64, len(found))
    for i in np.flatnonzero(codes == -1).tolist():
        skipped[_noncode_kind(lines[i])] += 1
    skipped["directive"] += int(np.count_nonzero(codes == -2))
    return Listing(codes=codes[codes >= 0], skipped=skipped)
