"""Make sosage (from ``src``) and the benchmark's modules importable, with
numpy's BLAS pool pinned to one thread as in run.py: the host clock counts
every thread of the process."""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]
