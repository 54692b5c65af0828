import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
SRC = os.path.join(os.path.dirname(BENCH), "src")
for p in (SRC, BENCH, HERE):
    if p not in sys.path:
        sys.path.insert(0, p)
