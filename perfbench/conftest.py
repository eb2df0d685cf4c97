"""Make the program under test importable for the benchmark's own tests."""

import sys

from perfbench.run import ROOT, SRC

for path in (str(SRC), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)
