"""Print the seconds a fresh interpreter takes to import bisectrix and its CLI.

Nothing else is imported first, so the figure is the user's cold start.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
started = time.perf_counter()
import bisectrix  # noqa: E402,F401
import bisectrix.cli  # noqa: E402,F401

print(time.perf_counter() - started)
