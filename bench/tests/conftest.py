"""Run with ``python -m pytest bench/tests`` from the repo root (these
tests are not collected by the tier-1 ``pytest`` run)."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)
