"""Set-up probe: a fresh interpreter imports the CLI and parses the given configs.

    python3 perfbench/setup_probe.py [CONFIG ...]

Importing ``telesum.cli`` builds the CORPUS, FAMILIES and ELEMENTARY tables.
Prints the CLOCK_MONOTONIC time (ns) at which the first check could start;
the caller subtracts the time it started this process.
"""

import sys
import time

from telesum import cli  # noqa: F401
from telesum.exprlang import load_identity_config

for path in sys.argv[1:]:
    load_identity_config(path)
print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
