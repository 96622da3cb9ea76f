"""Shared utilities: validation, RNG plumbing, timing."""

from repro.util.rng import ensure_rng, spawn_rngs
from repro.util.timer import ModuleTimer, Timer
from repro.util.validation import (
    check_finite_array,
    check_in_range,
    check_positive_int,
    check_probability,
)

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "Timer",
    "ModuleTimer",
    "check_positive_int",
    "check_in_range",
    "check_probability",
    "check_finite_array",
]
