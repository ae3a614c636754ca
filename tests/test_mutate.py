"""Synthetic base listing, injection templates, and the mutation engine.

The load-bearing oracle: a mutant must change at least one extracted
window vector relative to its base, otherwise the downstream classifiers
have nothing to learn from.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpc_sentinel import hpc, mutate
from hpc_sentinel.asm import CategoryMap, parse_listing
from hpc_sentinel.errors import (AnchorNotFound, EmptyPayload,
                                 PayloadUnparsable, read_json, write_json)
from hpc_sentinel.mutate import (ANCHORS, AttackKind, InjectionTemplate,
                                 build_corpus, default_template,
                                 default_templates, inject, synth_base_listing)


@pytest.fixture(scope="module")
def base():
    return synth_base_listing(seed=3)


def scalar_synth_base_listing(seed):
    """Reference synthetic listing: six scalar integers calls per
    instruction, in the order the operand fields and the opcode word are
    written."""
    rng = np.random.default_rng([seed, 0x5EC7])
    lines = ["; solar microinverter control firmware (synthetic listing)",
             "    .text"]
    addr = 0x8000
    for section, count in mutate._SECTION_PLAN:
        motif = mutate._SECTION_MOTIFS[section]
        lines.append(f"; --- {mutate._SECTION_COMMENTS[section]} ---")
        lines.append(f"{section}:")
        for k in range(count):
            mnemonic, opnds = motif[k % mutate.MOTIF_LEN]
            text = opnds.format(imm=f"0x{int(rng.integers(0, 1 << 16)):04x}",
                                small=int(rng.integers(1, 16)),
                                bit=int(rng.integers(0, 16)),
                                ar=int(rng.integers(0, 8)),
                                n=int(rng.integers(0, 4)))
            opcode = int(rng.integers(0, 1 << 16))
            sep = "  " + text if text else ""
            lines.append(f"{addr:06x} {opcode:04x} {mnemonic}{sep}")
            addr += 1
    return "\n".join(lines) + "\n"


@settings(max_examples=25, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**16), st.integers(0, 2**128)))
def test_synth_base_listing_matches_scalar_draws(seed):
    assert synth_base_listing(seed) == scalar_synth_base_listing(seed)


def test_attack_kind_round_trip():
    for kind in AttackKind:
        assert AttackKind.from_name(kind.value) is kind
    with pytest.raises(ValueError):
        AttackKind.from_name("ransom")


def test_default_templates_cover_all_kinds():
    templates = default_templates()
    assert set(templates) == set(AttackKind)
    cmap = CategoryMap.default()
    for kind, t in templates.items():
        assert t.attack is kind
        t.validate()
        assert t.anchor in ANCHORS
        for line in t.payload:
            mnemonic = line.split()[0].upper()
            assert mnemonic in cmap.categories, mnemonic


def test_template_json_round_trip(tmp_path):
    t = default_template(AttackKind.INVERTER_DOS)
    d = t.to_dict()
    assert set(d) == {"attack", "anchor", "period_ticks", "payload"}
    path = tmp_path / "template.json"
    write_json(path, d)
    assert json.loads(path.read_text()) == d
    assert read_json(path, "template", InjectionTemplate.from_dict) == t


def test_template_validation_errors():
    with pytest.raises(ValueError):
        InjectionTemplate(AttackKind.MPPT_DOS, "no_such_anchor",
                          ("NOP",), 0).validate()
    with pytest.raises(EmptyPayload):
        InjectionTemplate(AttackKind.MPPT_DOS, "mppt_entry", (), 0).validate()
    with pytest.raises(PayloadUnparsable):
        InjectionTemplate(AttackKind.MPPT_DOS, "mppt_entry",
                          ("FROBNICATE AL,#1",), 0).validate()
    with pytest.raises(PayloadUnparsable):
        InjectionTemplate(AttackKind.MPPT_DOS, "mppt_entry",
                          ("evil_label:",), 0).validate()
    with pytest.raises(ValueError):
        InjectionTemplate(AttackKind.MPPT_DOS, "mppt_entry",
                          ("NOP",), -5).validate()


def test_base_listing_shape(base):
    ins = parse_listing(base)
    assert len(ins) == 3000
    # anchor labels appear once each, in plan order
    for anchor in ANCHORS:
        assert base.count(f"{anchor}:") == 1
    assert base.index("isr_block:") < base.index("sensor_read:") \
        < base.index("mppt_entry:")


def test_base_listing_deterministic():
    assert synth_base_listing(seed=3) == synth_base_listing(seed=3)
    other = synth_base_listing(seed=4)
    assert other != synth_base_listing(seed=3)
    # different seeds vary operands/opcodes, never the instruction skeleton:
    # the third word of an instruction line is its mnemonic
    a = [line.split()[2:3] for line in synth_base_listing(seed=3).splitlines()]
    b = [line.split()[2:3] for line in other.splitlines()]
    assert a == b


def test_inject_deterministic(base):
    t = default_template(AttackKind.MPPT_DOS)
    assert inject(base, t, seed=11) == inject(base, t, seed=11)
    assert inject(base, t, seed=11) != inject(base, t, seed=12)


def test_inject_adds_payload_length(base):
    n_base = len(parse_listing(base))
    for t in default_templates().values():
        mutant = inject(base, t, seed=0)
        assert len(parse_listing(mutant)) == n_base + len(t.payload)


def test_inject_missing_anchor():
    t = default_template(AttackKind.MPPT_DOS)
    headerless = "008000 a501 MOV AL,@VarA\n"
    with pytest.raises(AnchorNotFound):
        inject(headerless, t, seed=0)


def test_mutants_change_extracted_windows(base):
    base_rows = hpc.extract_windows(parse_listing(base)).tolist()
    for t in default_templates().values():
        mutant_rows = hpc.extract_windows(
            parse_listing(inject(base, t, seed=0))).tolist()
        differing = sum(1 for a, b in zip(base_rows, mutant_rows) if a != b)
        differing += abs(len(base_rows) - len(mutant_rows))
        assert differing >= 1, t.attack


def test_build_corpus_keys(base):
    corpus = build_corpus(base, seed=5)
    assert set(corpus) == {"benign", "mppt_dos", "inverter_dos",
                           "input_array", "input_sine"}
    assert corpus["benign"] == base
    for kind, text in corpus.items():
        if kind != "benign":
            assert text != base
