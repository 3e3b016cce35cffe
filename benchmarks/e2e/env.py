"""The environment record written into every output file."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def nproc() -> int:
    return os.cpu_count() or 1


def commit() -> str:
    """HEAD's hash read from ``.git`` (no subprocess); the driver's checkout
    is not a repository, so "unknown" is an expected answer."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_average() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return 0.0


def record(seed: int, **sizes) -> dict:
    """Taken before the run; :func:`close` adds the after-run load."""
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    return {
        "commit": commit(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "python_build": " ".join(platform.python_build()),
        "gil": bool(gil),
        "nproc": nproc(),
        "load_1m_before": load_average(),
        "seed": seed,
        **sizes,
    }


def close(env: dict) -> dict:
    env["load_1m_after"] = load_average()
    # More runnable tasks than cores means the timings were shared.
    env["noisy"] = max(env["load_1m_before"], env["load_1m_after"]) > env["nproc"]
    return env
