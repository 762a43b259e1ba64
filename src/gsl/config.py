"""Run configuration shared by the verification suites and the CLI."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from fractions import Fraction

from .fuzzy import GradeChain

__all__ = ["RunConfig", "DEFAULT_CHAIN", "CAP_ENV_VAR"]

DEFAULT_CHAIN = GradeChain.of(0, Fraction(1, 2), 1)

# environment override for the fuzzy-enumeration candidate cap
CAP_ENV_VAR = "GSL_CAP"


@dataclass(frozen=True)
class RunConfig:
    """Knobs for enumeration, closure and the matrix suites.

    chain            grade chain used by fuzzy suites (contains 0 and 1)
    n                matrix dimension for the matrix suites
    enum_cap         max candidates for fuzzy-ideal enumeration
    closure_cap      max elements in an operator-semiring closure
    matrix_cap       max carrier size for a materialized matrix instance
    surjectivity_cap max candidates for the matrix-side surjectivity
                     enumeration before the check downgrades
    """

    chain: GradeChain = DEFAULT_CHAIN
    n: int = 2
    enum_cap: int = 100_000_000
    closure_cap: int = 1_000_000
    matrix_cap: int = 16
    surjectivity_cap: int = 20_000_000

    def __post_init__(self):
        for cap_name in ("enum_cap", "closure_cap", "matrix_cap", "surjectivity_cap"):
            if getattr(self, cap_name) <= 0:
                raise ValueError(f"{cap_name} must be positive")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @classmethod
    def from_env(cls, **overrides) -> "RunConfig":
        """Default config with GSL_CAP (if set) overriding enum_cap."""
        cfg = cls(**overrides)
        cap = os.environ.get(CAP_ENV_VAR)
        if cap is not None and "enum_cap" not in overrides:
            if not cap.strip().isdecimal() or int(cap) <= 0:
                raise ValueError(f"{CAP_ENV_VAR} must be a positive integer, got {cap!r}")
            cfg = replace(cfg, enum_cap=int(cap))
        return cfg
