"""One traced CLI call: ``python bench/cli_child.py STEM ARGS...``.

Installs the tracing wrappers, runs ``morsediag.cli.main(ARGS)`` in this
process and writes the spans to ``STEM.bin``/``STEM.json`` before exiting
with main's exit code.  The package is found through PYTHONPATH, as for the
untraced ``python -m morsediag.cli`` call it stands in for.
"""

import sys
from pathlib import Path

from tracer import Tracer

import morsediag.cli

tracer = Tracer()
tracer.install()
try:
    code = morsediag.cli.main(sys.argv[2:])
finally:
    tracer.write(Path(sys.argv[1]))
sys.exit(code)
