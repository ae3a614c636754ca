"""Malicious firmware generation: payload injection into a base listing.

Four attack templates ship with the package: a timer-driven inverter
lock/unlock toggle, an MPPT bypass branch, and two sensor-feed
manipulations (constant table, sine table). Since no proprietary
microinverter firmware can ship here, a synthetic base listing generator
stands in for the real disassembly; any user listing with the anchor
labels works too.
"""

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .asm import _LINE_RE, CategoryMap, parse_listing
from .errors import AnchorNotFound, EmptyPayload, PayloadUnparsable
from .names import AttackKind

# Section labels a base listing must expose for the shipped templates.
ANCHORS = ("isr_block", "sensor_read", "mppt_entry")


@dataclass(frozen=True)
class InjectionTemplate:
    """Payload block spliced immediately after an anchor label.

    Payload lines are bare `MNEMONIC [operands]`; addresses and opcode
    words are synthesized at injection time.
    """

    attack: AttackKind
    anchor: str
    payload: tuple = ()
    period_ticks: int = 0

    def __post_init__(self):
        if self.anchor not in ANCHORS:
            raise ValueError(f"anchor must be one of {ANCHORS}, "
                             f"got {self.anchor!r}")
        if self.period_ticks < 0:
            raise ValueError("period_ticks must be >= 0")
        object.__setattr__(self, "payload", tuple(self.payload))

    def validate(self, cmap: CategoryMap | None = None):
        """Check every payload line is a classifiable instruction."""
        cmap = cmap or CategoryMap.default()
        if not self.payload:
            raise EmptyPayload(f"{self.attack.value}: empty payload")
        for line in self.payload:
            parts = line.split(None, 1)
            if not parts:
                raise PayloadUnparsable(f"blank payload line in "
                                        f"{self.attack.value}")
            mnemonic = parts[0].upper()
            if (mnemonic.startswith((".", ";")) or mnemonic.endswith(":")
                    or mnemonic not in cmap.categories):
                raise PayloadUnparsable(
                    f"{self.attack.value}: {line!r} is not an instruction "
                    f"known to map {cmap.name!r}")

    def to_dict(self):
        return {"attack": self.attack.value, "anchor": self.anchor,
                "period_ticks": self.period_ticks,
                "payload": list(self.payload)}

    @classmethod
    def from_dict(cls, d) -> "InjectionTemplate":
        """Template from its JSON form; a malformed one raises
        ValueError."""
        if not isinstance(d, dict):
            raise ValueError("a template must be a JSON object")
        payload, period = d.get("payload"), d.get("period_ticks", 0)
        if not (isinstance(d.get("attack"), str)
                and isinstance(d.get("anchor"), str)
                and isinstance(payload, list)
                and all(isinstance(line, str) for line in payload)
                and type(period) is int):
            raise ValueError('a template needs "attack" and "anchor" names, '
                             'a "payload" list of instruction lines and an '
                             'integer "period_ticks"')
        return cls(attack=AttackKind.from_name(d["attack"]),
                   anchor=d["anchor"], payload=tuple(payload),
                   period_ticks=period)


def default_template(attack: AttackKind) -> InjectionTemplate:
    ref = (resources.files("hpc_sentinel") / "data" / "templates"
           / f"{attack.value}.json")
    return InjectionTemplate.from_dict(
        json.loads(ref.read_text(encoding="utf-8")))


def default_templates() -> dict:
    return {kind: default_template(kind) for kind in AttackKind}


def _last_address_before(lines, anchor_line_no):
    addr = 0x8000 - 1
    for line in lines[:anchor_line_no + 1]:
        m = _LINE_RE.match(line)
        if m:
            addr = int(m.group(1), 16)
    return addr


def inject(base: str, template: InjectionTemplate, seed: int,
           cmap: CategoryMap | None = None) -> str:
    """Splice the template payload right after its anchor label.

    Synthesized addresses continue from the last instruction preceding
    the anchor; opcode words are drawn from the seeded generator so the
    same (base, template, seed) always yields identical text. Downstream
    addresses are left untouched: the feature pipeline never interprets
    them and real OTA patches routinely ship with stale symbols.
    """
    template.validate(cmap)
    lines = base.splitlines()
    label = template.anchor + ":"
    try:
        at = next(i for i, ln in enumerate(lines)
                  if ln.split(";", 1)[0].strip() == label)
    except StopIteration:
        raise AnchorNotFound(template.anchor) from None

    rng = np.random.default_rng([seed, _payload_salt(template)])
    addr = _last_address_before(lines, at)
    block = []
    for raw in template.payload:
        parts = raw.split(None, 1)
        addr += 1
        opcode = int(rng.integers(0, 1 << 16))
        rest = ("  " + parts[1]) if len(parts) > 1 else ""
        block.append(f"{addr:06x} {opcode:04x} {parts[0].upper()}{rest}")
    out = lines[:at + 1] + block + lines[at + 1:]
    text = "\n".join(out) + "\n"
    parse_listing(text, cmap)
    return text


def _payload_salt(template: InjectionTemplate) -> int:
    # Stable per-attack stream separation without hashing text.
    return list(AttackKind).index(template.attack)


def build_corpus(base: str, seed: int = 0,
                 cmap: CategoryMap | None = None) -> dict:
    """Base plus one mutant per attack, keyed by firmware id; payloads are
    checked against cmap (default: the built-in map)."""
    out = {"benign": base}
    for kind in AttackKind:
        out[kind.value] = inject(base, default_template(kind), seed, cmap)
    return out


# --- synthetic base listing -------------------------------------------------

# Each section repeats a 10-instruction motif. The motif length divides
# the feature window length, so every interior window of a section
# carries one fixed counter vector; an injected payload whose length is
# not a multiple of 10 then de-phases every later window, which is what
# makes whole-file labeling workable. Payload lengths in the shipped
# templates are 8, 3, 9 and 11. In the two sections large enough to
# dominate the corpus (mppt_entry, pwm_loop) the motif's ten cyclic
# category pairs are pairwise distinct, so any de-phasing moves at least
# one pair counter; their unigram mixes also differ most in arithmetic,
# boolean and branch counts, which keeps those three counters the
# highest-variance features.
MOTIF_LEN = 10

_SECTION_MOTIFS = {
    "init": (("MOVW", "DP, #{imm}"),
             ("MOVL", "XAR{ar}, #{imm}"),
             ("MOVH", "@GPIO{n}_DIR, ACC"),
             ("MOVB", "AL, #{imm}"),
             ("MOVH", "@GPIO{n}_DAT, AL"),
             ("ADDB", "SP, #{small}"),
             ("CMPB", "AL, #{small}"),
             ("BF", "init_next, NEQ"),
             ("EALLOW", ""),
             ("EDIS", "")),
    "isr_block": (("PUSH", "ACC"),
                  ("PUSH", "XAR{ar}"),
                  ("MOVL", "ACC, @T1TIM"),
                  ("ADDU", "ACC, @TICK_LO"),
                  ("MOVH", "@TICK_LO, ACC"),
                  ("TBIT", "@PIE_FLAG, #{bit}"),
                  ("SBF", "isr_tail, NTC"),
                  ("POP", "XAR{ar}"),
                  ("POP", "ACC"),
                  ("IRET", "")),
    "sensor_read": (("IN", "AL, @ADCRESULT{n}"),
                    ("MOV", "AH, @ADCRESULT{n}"),
                    ("ANDB", "AL, #0x0FFF"),
                    ("MOVH", "@V_PANEL, AL"),
                    ("IN", "AL, @ADCRESULT{n}"),
                    ("MOV", "T, @GAIN{n}"),
                    ("LSR", "AL, #{bit}"),
                    ("MOVH", "@I_PANEL, AL"),
                    ("ADDL", "ACC, @ACC_FILT"),
                    ("LRETR", "")),
    "mppt_entry": (("ADD", "ACC, @P_PREV"),
                   ("MOVL", "XT, @V_PANEL"),
                   ("MPY", "P, XT, @I_PANEL"),
                   ("MOVL", "ACC, @P_FILT"),
                   ("SUBL", "ACC, P"),
                   ("MOVH", "@P_PREV, ACC"),
                   ("CMPB", "AL, #0"),
                   ("LSR", "AL, #{bit}"),
                   ("ADDB", "AL, #{small}"),
                   ("BF", "mppt_step, GEQ")),
    "pwm_loop": (("LSL", "ACC, #{bit}"),
                 ("MOV", "T, @I_REF"),
                 ("ANDB", "AL, #0x3F"),
                 ("MOVH", "@EPWM{n}_CMPA, ACC"),
                 ("LSRL", "ACC, T"),
                 ("BF", "pwm_wrap, EQ"),
                 ("SBF", "pwm_skip, NTC"),
                 ("DEC", "@DUTY_GUARD"),
                 ("BANZ", "pwm_loop, AR0--"),
                 ("NOT", "AH")),
}

# (section, instruction count); anchor labels land at instruction
# offsets 60, 120 and 180 so pre-anchor windows (which a mutant shares
# verbatim with the base) stay a sliver of the file.
_SECTION_PLAN = (("init", 60), ("isr_block", 60), ("sensor_read", 60),
                 ("mppt_entry", 1320), ("pwm_loop", 1500))

_SECTION_COMMENTS = {
    "init": "clock, gpio and peripheral bring-up",
    "isr_block": "60 kHz control interrupt service routine",
    "sensor_read": "panel voltage/current acquisition",
    "mppt_entry": "perturb-and-observe tracking step",
    "pwm_loop": "gate-drive duty update",
}


# Bounds [low, high) of the six draws each synthetic instruction takes, in
# draw order: the {imm}, {small}, {bit}, {ar} and {n} operand fields (all
# drawn whether or not its motif uses them), then the opcode word.
_DRAW_BOUNDS = ((0, 1 << 16), (1, 16), (0, 16), (0, 8), (0, 4), (0, 1 << 16))


def synth_base_listing(seed: int = 0) -> str:
    """Deterministic stand-in for a disassembled microinverter firmware.

    One integers call takes every instruction's draws, the bounds tiled;
    it gives the values that six scalar calls per instruction would."""
    rng = np.random.default_rng([seed, 0x5EC7])
    n = sum(count for _, count in _SECTION_PLAN)
    lows, highs = np.tile(np.array(_DRAW_BOUNDS).T, n)
    draws = iter(rng.integers(lows, highs).reshape(n, -1).tolist())
    lines = ["; solar microinverter control firmware (synthetic listing)",
             "    .text"]
    addr = 0x8000
    for section, count in _SECTION_PLAN:
        motif = _SECTION_MOTIFS[section]
        lines.append(f"; --- {_SECTION_COMMENTS[section]} ---")
        lines.append(f"{section}:")
        for k in range(count):
            mnemonic, opnds = motif[k % MOTIF_LEN]
            imm, small, bit, ar, n_sel, opcode = next(draws)
            text = opnds.format(imm=f"0x{imm:04x}", small=small, bit=bit,
                                ar=ar, n=n_sel)
            sep = "  " + text if text else ""
            lines.append(f"{addr:06x} {opcode:04x} {mnemonic}{sep}")
            addr += 1
    return "\n".join(lines) + "\n"
