"""Child process for the ``setup_s`` metric.

Imports sosage, loads a config and builds the initial run state, then prints
the system-wide monotonic clock. The parent reads the clock before starting
this process, so the difference covers interpreter start, imports, config
load and initial state: everything before a run's first generation.

    python3 perfbench/setup_probe.py CONFIG SEED
"""

import sys
import time
from pathlib import Path


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from sosage.harness import build_state, load_config, with_seed

    build_state(with_seed(load_config(sys.argv[1]), int(sys.argv[2])))
    print(time.monotonic())


if __name__ == "__main__":
    main()
