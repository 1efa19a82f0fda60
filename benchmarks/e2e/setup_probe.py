"""One cold set-up of an in-process workload: ``python -m e2e.setup_probe
NAME SEED``. Run in a fresh interpreter by ``InProcess.setup_once`` so that
importing ``repro`` and every lazy initialisation are paid each time and
``setup_s`` is a median over several of them."""

import sys

from e2e.workloads import WORKLOADS

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].warm_up(int(sys.argv[2]))
