"""Test-session setup shared by every module."""

import os
from pathlib import Path

# pyproject's ``pythonpath`` puts src on this process's path only; the CLI
# tests run ``python -m cfmoments.cli`` in subprocesses, which find the
# in-tree package through the environment instead
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
