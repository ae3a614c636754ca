"""Names the command line offers as choices: the attack kinds that mutate
injects and the named scenarios that mgsim runs.

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
