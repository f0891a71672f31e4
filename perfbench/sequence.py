"""Runs dnnreuse CLI commands one after another in one fresh process.

    PYTHONPATH=src python3 perfbench/sequence.py '[["analyze", "fixtures/models/nin.yaml"]]'

The argument is a JSON list of argument lists. Each command goes through
the CLI entry point, as in run.py's in-process passes. stdout gets one
JSON list of [exit code, stdout] pairs. run.py reads this process's peak
resident memory when it ends.
"""

import json
import sys

from run import SRC, Runner

sys.path.insert(0, str(SRC))
from dnnreuse.cli import main  # noqa: E402

runner = Runner(json.loads(sys.argv[1]), main)
json.dump([runner.invoke(args)[:2] for args in runner.commands], sys.stdout)
