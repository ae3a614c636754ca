"""Names the command line offers as choices: the attack kinds that mutate
injects and the named scenarios that mgsim runs; and the file names of a
reproduce bundle.

They are defined here, apart from those modules, so that building the
parser and checking a bundle load neither; this module imports only the
standard library.
"""

import enum


class AttackKind(enum.Enum):
    MPPT_DOS = "mppt_dos"
    INVERTER_DOS = "inverter_dos"
    INPUT_ARRAY = "input_array"
    INPUT_SINE = "input_sine"

    @classmethod
    def from_name(cls, name: str) -> "AttackKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown attack kind {name!r}") from None


SCENARIO_NAMES = ("nominal", "mppt_dos", "inverter_dos", "input_sine",
                  "input_sine_fast")

BUNDLE_ASM = ("benign.asm", "mppt_dos.asm", "inverter_dos.asm",
              "input_array.asm", "input_sine.asm")
BUNDLE_MODELS = ("dt_unbalanced.json", "rf_unbalanced.json",
                 "nn_unbalanced.json", "dt_balanced.json",
                 "rf_balanced.json", "nn_balanced.json")
BUNDLE_SIMS = tuple(f"sim_{n}.csv" for n in SCENARIO_NAMES)
BUNDLE_FILES = (BUNDLE_ASM + ("dataset.csv",) + BUNDLE_MODELS
                + ("ranking.json", "ablation.csv") + BUNDLE_SIMS
                + ("summary.md",))
