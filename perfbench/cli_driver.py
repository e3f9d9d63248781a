"""Run one spock CLI command with the benchmark's wrappers installed.

    python3 perfbench/cli_driver.py SPANS_OUT ARG...

Times the import of ``spock.cli``, installs the span wrappers, calls
``spock.cli.main(ARG...)``, writes the spans to SPANS_OUT as JSON and
exits with the command's exit code. The traced cli-cold run uses it in
place of ``python -m spock.cli``.
"""

import sys
import time
from pathlib import Path

if __name__ == "__main__":
    start = time.perf_counter()
    import spock.cli

    imported = time.perf_counter()
    from spans import Tracer

    tracer = Tracer()
    tracer.add("import", start, imported)
    tracer.install()
    try:
        code = spock.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(Path(sys.argv[1]))
    sys.exit(code)
