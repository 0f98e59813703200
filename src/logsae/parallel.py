"""Worker-count validation.

Everything runs in the calling process.  ``--workers`` and the
``LOGSAE_WORKERS`` environment variable are still validated here and
recorded in ``manifest.json``; they change no result and no timing.
"""

from __future__ import annotations

import os

ENV_WORKERS = "LOGSAE_WORKERS"


def resolve_workers(n_workers: int | None = None) -> int:
    if n_workers is None:
        raw = os.environ.get(ENV_WORKERS, "").strip()
        if not raw:
            return 1
        source = f"{ENV_WORKERS}"
        try:
            n_workers = int(raw)
        except ValueError:
            raise ValueError(f"{source} must be an integer, got {raw!r}") from None
    else:
        source = "n_workers"
        n_workers = int(n_workers)
    if n_workers < 1:
        raise ValueError(f"{source} must be >= 1, got {n_workers}")
    return n_workers


def ordered_map(fn, items) -> list:
    """Apply ``fn`` to every item, returning results in item order."""
    # unused by the package; kept until perfbench/layers.py stops tracing it
    return [fn(item) for item in items]
