"""Make ``perfbench`` and the ``repro`` sources importable for these tests.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
