"""Shared utilities for the repro package.

This sub-package collects small, dependency-free helpers used across the
library:

* :mod:`repro.utils.validation` -- argument checking helpers that raise
  consistent, descriptive exceptions.
* :mod:`repro.utils.rng` -- reproducible random-number streams used by the
  Monte-Carlo experiments and the random topology generators.
* :mod:`repro.utils.units` -- unit conversions (seconds / milliseconds /
  microseconds, bytes / megabytes) so that the rest of the code can work in a
  single canonical unit (seconds and bytes) while still speaking the paper's
  language (milliseconds and megabytes) at the API boundary.
* :mod:`repro.utils.workers` -- the one place worker counts are resolved from
  arguments and the ``REPRO_WORKERS`` environment variable.
"""

from repro.utils.validation import (
    check_finite,
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    check_type,
)
from repro.utils.rng import RandomStream, spawn_streams
from repro.utils.workers import SHARED_WORKERS_ENV_VAR, resolve_workers
from repro.utils.units import (
    BYTES_PER_KIB,
    BYTES_PER_MIB,
    bytes_to_mib,
    mib_to_bytes,
    ms_to_s,
    s_to_ms,
    s_to_us,
    us_to_s,
)

__all__ = [
    "check_finite",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "check_type",
    "RandomStream",
    "spawn_streams",
    "SHARED_WORKERS_ENV_VAR",
    "resolve_workers",
    "BYTES_PER_KIB",
    "BYTES_PER_MIB",
    "bytes_to_mib",
    "mib_to_bytes",
    "ms_to_s",
    "s_to_ms",
    "s_to_us",
    "us_to_s",
]
