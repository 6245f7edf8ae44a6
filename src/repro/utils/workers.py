"""Worker-count resolution shared by every study and executor.

The resolution order is:

1. an explicit ``workers=`` argument (``None`` means "consult the
   environment"),
2. the ``REPRO_WORKERS`` environment variable, which configures every
   study at once,
3. ``0`` — run in-process.

Worker counts only change *where* work runs, never *what* it computes: every
task carries its own derived seed, so results are bit-identical at any count.

The companion knob — *which lane* those workers run on (inline, local
processes or remote agents) — resolves separately through
:func:`repro.runtime.pool.choose_lane` and its ``REPRO_EXECUTOR``
environment variable; ``resolve_workers`` only decides how many.
"""

from __future__ import annotations

import os

#: The environment variable every study consults when ``workers=None``.
#: ``REPRO_WORKERS=4`` fans out the Monte-Carlo study, the measured sweeps,
#: the chained pipelines and the gossip study alike.
SHARED_WORKERS_ENV_VAR = "REPRO_WORKERS"


def resolve_workers(workers: int | None) -> int:
    """Resolve a worker count from an argument and the environment.

    Parameters
    ----------
    workers:
        Explicit worker count; ``None`` consults ``REPRO_WORKERS`` (unset or
        empty means ``0``, in-process; set but not an integer raises
        :class:`ValueError` naming the variable).  Negative values clamp to
        ``0`` (in-process execution).
    """
    if workers is None:
        raw = os.environ.get(SHARED_WORKERS_ENV_VAR, "").strip()
        if not raw:
            return 0
        try:
            workers = int(raw)
        except ValueError as exc:
            raise ValueError(
                f"{SHARED_WORKERS_ENV_VAR} must be an integer worker count, "
                f"got {raw!r}"
            ) from exc
    return max(0, int(workers))
