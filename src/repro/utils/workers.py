"""Worker-count resolution shared by every study and executor.

Before the runtime layer each study carried its own copy of the same
``_resolve_workers`` helper, each hard-wired to one environment variable
(``REPRO_MC_WORKERS`` for the Monte-Carlo study, ``REPRO_PRACTICAL_WORKERS``
for the measured sweeps).  This module is the single implementation.  The
resolution order is:

1. an explicit ``workers=`` argument (``None`` means "consult the
   environment"),
2. the first *set* study-specific environment variable passed by the caller
   (``REPRO_MC_WORKERS``, ``REPRO_PRACTICAL_WORKERS``, ...),
3. the shared ``REPRO_WORKERS`` default, which configures every study at
   once,
4. ``0`` — run in-process.

Worker counts only change *where* work runs, never *what* it computes: every
task carries its own derived seed, so results are bit-identical at any count.

The companion knob — *which lane* those workers run on (inline, local
processes or remote agents) — resolves separately through
:func:`repro.runtime.pool.choose_lane` and its ``REPRO_EXECUTOR``
environment variable; ``resolve_workers`` only decides how many.
"""

from __future__ import annotations

import os

#: The shared fallback consulted by every study when its specific variable is
#: unset.  ``REPRO_WORKERS=4`` fans out the Monte-Carlo study, the measured
#: sweeps and the chained pipelines alike.
SHARED_WORKERS_ENV_VAR = "REPRO_WORKERS"


def _parse(raw: str, env_var: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{env_var} must be an integer worker count, got {raw!r}"
        ) from exc


def resolve_workers(workers: int | None, *env_vars: str) -> int:
    """Resolve a worker count from an argument and the environment.

    The resolution order is: the explicit ``workers`` argument, then each
    ``env_vars`` entry in turn (the studies pass their specific variable —
    ``REPRO_MC_WORKERS`` for the Monte-Carlo study, ``REPRO_PRACTICAL_WORKERS``
    for the measured sweeps and pipelines), then the shared ``REPRO_WORKERS``,
    then ``0`` (in-process).

    Parameters
    ----------
    workers:
        Explicit worker count; ``None`` consults the environment.  Negative
        values clamp to ``0`` (in-process execution).
    env_vars:
        Study-specific environment variables to consult, in priority order,
        before the shared ``REPRO_WORKERS`` fallback.  A variable that is set
        but not an integer raises :class:`ValueError` naming that variable.
    """
    if workers is None:
        for env_var in (*env_vars, SHARED_WORKERS_ENV_VAR):
            raw = os.environ.get(env_var, "").strip()
            if raw:
                workers = _parse(raw, env_var)
                break
        else:
            return 0
    return max(0, int(workers))
