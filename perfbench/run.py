"""Entry point: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gmspectra checkout. See perfbench/README.md.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    # Pin BLAS threads before numpy loads; the CLI children inherit the setting.
    from perfbench.machine import BLAS_THREAD_VARIABLES, blas_threads
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = str(blas_threads())
    from perfbench.bench import main
    sys.exit(main())
