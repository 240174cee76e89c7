"""Puts the checkout root and ``src`` on ``sys.path`` for the self-tests:
``python3 -m pytest perfbench -q`` from the root of a checkout."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)
