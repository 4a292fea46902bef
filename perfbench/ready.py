"""Child process for ``setup_s``: import diamecc.cli, note when it is ready.

Prints the ``perf_counter`` reading at the moment the import finished (the
clock is system-wide, so the parent can subtract its own start time) and
the median of three calibrations measured right after in this process.
"""

import diamecc.cli  # noqa: F401  -- the import being timed
from time import perf_counter

READY = perf_counter()

from calibrate import Calibration  # noqa: E402

if __name__ == "__main__":
    cal = Calibration()
    print(READY, sorted(cal.measure() for _ in range(3))[1])
