"""Start-up hook of the cli-calls children; its directory is on their
PYTHONPATH, so the command under test stays ``python -m morsediag.cli``.

At exit it copies ``/proc/self/status`` to the file named by
MORSEDIAG_BENCH_RSS, for the child's peak memory (VmHWM).  The rusage of a
child cannot give it: its peak also counts the pages of the process it was
forked from.
"""

import atexit
import os
import shutil


def _copy_status(path: str) -> None:
    shutil.copyfile("/proc/self/status", path)


if "MORSEDIAG_BENCH_RSS" in os.environ:
    atexit.register(_copy_status, os.environ["MORSEDIAG_BENCH_RSS"])
