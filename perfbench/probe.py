"""Set-up as a user pays it: start an interpreter, import `tilings` and
build a workload's inputs from its seed, then exit.

    python3 perfbench/probe.py <workload> <seed>

run.py times fresh runs of this script for ``setup_s``.  It imports only
what set-up needs, so the benchmark's own tools do not count.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
