"""Import paths for the benchmark's own tests: ``src/`` of this checkout and this directory."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
