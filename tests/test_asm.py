"""Listing parser grammar against a line-by-line oracle, and the category
table."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpc_sentinel.asm import CategoryMap, InstructionCategory, parse_listing
from hpc_sentinel.errors import read_json, write_json

_ORACLE_INSTR_RE = re.compile(
    r"^([0-9a-fA-F]+)\s+([0-9a-fA-F]+)\s+(\S+)(?:\s+(.*))?$")
_ORACLE_LABEL_RE = re.compile(r"^[A-Za-z_.$]\w*:$")


def oracle_parse(text, cmap=None):
    """Reference parse, one rule at a time on each comment-stripped line.

    Returns the category codes of the instructions and the skipped-line
    tally. Written apart from the library's one-scan parser; kept
    dumb on purpose.
    """
    cmap = cmap or CategoryMap.default()
    instructions = []
    skipped = {"blank": 0, "comment": 0, "label": 0, "directive": 0,
               "unrecognized": 0}
    for raw_line in text.splitlines():
        body, _, _ = raw_line.partition(";")
        stripped = body.strip()
        if not stripped:
            kind = "comment" if raw_line.strip() else "blank"
            skipped[kind] += 1
            continue
        if _ORACLE_LABEL_RE.match(stripped):
            skipped["label"] += 1
            continue
        if stripped.startswith("."):
            skipped["directive"] += 1
            continue
        m = _ORACLE_INSTR_RE.match(stripped)
        if m is None or m.group(3).startswith("."):
            if m is not None:  # data word rendered as a pseudo-mnemonic
                skipped["directive"] += 1
                continue
            skipped["unrecognized"] += 1
            continue
        instructions.append(cmap.classify(m.group(3).upper()).code)
    return instructions, skipped


SAMPLE = """\
; banner comment
.sect ".text"
main:
008000 a501 MOV AL,@VarA
008001 a502 ADD AL,#1   ; trailing comment

008003 f000 EALLOW
008004 2bad NOP
done:
008005 6f01 B main,UNC
"""


def test_parse_skips_noncode_lines():
    listing = parse_listing(SAMPLE)
    assert len(listing) == 5
    assert listing.skipped == {"blank": 1, "comment": 1, "label": 2,
                               "directive": 1, "unrecognized": 0}


def test_parse_fields_and_categories():
    # MOV, ADD, EALLOW, NOP, B
    IC = InstructionCategory
    cats = [IC.LOAD, IC.ARITHMETIC, IC.OTHER, IC.OTHER, IC.BRANCH]
    codes = parse_listing(SAMPLE).codes
    assert codes.dtype.name == "int64"
    assert codes.tolist() == [c.code for c in cats]


def test_mnemonic_case_insensitive():
    assert parse_listing("008000 a501 mov AL,@VarA\n").codes.tolist() == \
        [InstructionCategory.LOAD.code]


def test_comment_stripped_from_operands():
    # a comment glued to the mnemonic is not part of it
    for line in ("008000 a501 ADD AL,#1 ; add one\n", "008000 a501 ADD;x\n"):
        listing = parse_listing(line)
        assert listing.codes.tolist() == [InstructionCategory.ARITHMETIC.code]
        assert sum(listing.skipped.values()) == 0


def test_lenient_mode_tallies_unrecognized():
    listing = parse_listing("garbage line here\n")
    assert len(listing) == 0
    assert listing.codes.dtype.name == "int64"
    assert listing.skipped["unrecognized"] == 1


# --- single-match parser against the oracle ----------------------------------

_SPACE = st.sampled_from([" ", "  ", "\t", "\xa0", " \t"])
_HEX = st.text("0123456789abcdefABCDEF", min_size=1, max_size=6)
_MNEMONIC = st.one_of(
    st.sampled_from(["MOV", "mov", "Add", "B", "NOP", "MOVH", "EALLOW",
                     "FROB", ".word", ".x", "BF:", "A.B", "0f"]),
    st.text("ABMOVa.;:_$0", min_size=1, max_size=4))
_OPERANDS = st.text("AL,@#0x; \t\xa0:.", max_size=10)
_COMMENT = st.one_of(st.just(""), st.text("; x\t\xa0:.", max_size=6).map(
    lambda t: ";" + t))


@st.composite
def _instruction_line(draw):
    parts = [draw(st.sampled_from(["", " ", "\t", "\xa0"])), draw(_HEX),
             draw(_SPACE), draw(_HEX), draw(_SPACE), draw(_MNEMONIC)]
    if draw(st.booleans()):
        parts += [draw(_SPACE), draw(_OPERANDS)]
    parts += [draw(st.sampled_from(["", " ", "\xa0"])), draw(_COMMENT)]
    return "".join(parts)


_LINE = st.one_of(
    _instruction_line(),
    st.sampled_from(["", " ", "\t", "\xa0", "main:", " .L1: ", "$x:",
                     "_a1:;c", "lab el:", "9bad:", ".sect \".text\"",
                     "  .align 2", "; comment", "  ;", "garbage here",
                     "8000", "8000 a501", "8000 a501 ;MOV", "zz 00 MOV"]),
    st.text("08a .:;MOV\t\xa0", max_size=12))
_BREAK = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c",
                          "\x85", "\u2028"])


@st.composite
def _line_soup(draw):
    lines = draw(st.lists(_LINE, max_size=12))
    text = ""
    for line in lines:
        text += line + draw(_BREAK)
    if draw(st.booleans()) and lines:
        text = text[:-1]   # no final line break
    return text


_CMAP = CategoryMap.default()


@settings(max_examples=200, deadline=None)
@given(_line_soup())
def test_parse_matches_oracle(text):
    want, skipped = oracle_parse(text, _CMAP)
    listing = parse_listing(text, _CMAP)
    assert listing.codes.tolist() == want
    assert listing.skipped == skipped


def test_category_codes_alphabetical():
    IC = InstructionCategory
    # codes follow the feature symbols a, b, l, n, s; Other sorts last
    assert [c.code for c in (IC.ARITHMETIC, IC.BRANCH, IC.LOAD,
                             IC.BOOLEAN, IC.STORE, IC.OTHER)] == [0, 1, 2, 3, 4, 5]
    assert [IC.from_name(sym) for sym in "ablns"] == [
        IC.ARITHMETIC, IC.BRANCH, IC.LOAD, IC.BOOLEAN, IC.STORE]


def test_category_from_name_aliases():
    IC = InstructionCategory
    assert IC.from_name("arith") is IC.ARITHMETIC
    assert IC.from_name("Boolean") is IC.BOOLEAN
    assert IC.from_name("jump") is IC.BRANCH
    assert IC.from_name("s") is IC.STORE
    with pytest.raises(ValueError):
        IC.from_name("mystery")


def test_default_map_known_mnemonics():
    cmap = CategoryMap.default()
    IC = InstructionCategory
    expected = {"MOV": IC.LOAD, "MOVH": IC.STORE, "ADD": IC.ARITHMETIC,
                "SUBB": IC.ARITHMETIC, "ANDB": IC.BOOLEAN, "LSR": IC.BOOLEAN,
                "B": IC.BRANCH, "BANZ": IC.BRANCH, "PUSH": IC.STORE,
                "POP": IC.LOAD, "NOP": IC.OTHER, "EALLOW": IC.OTHER}
    for mnemonic, cat in expected.items():
        assert cmap.classify(mnemonic) is cat, mnemonic
    assert cmap.classify("TOTALLYMADEUP") is IC.OTHER


def test_category_map_json_round_trip(tmp_path):
    cmap = CategoryMap.default()
    path = tmp_path / "map.json"
    write_json(path, cmap.to_dict())
    back = read_json(path, "category map", CategoryMap.from_dict)
    assert back.categories == cmap.categories
    assert back.name == cmap.name

