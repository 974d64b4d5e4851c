"""The pdclab CLI with spans around its calls into the package.

    python3 perfbench/traced_cli.py SPANS_JSON run CONFIG --out-dir DIR

Used by traced cli_scenarios runs in place of `python -m pdclab.cli`. Times
`import pdclab`, instruments the package, runs the CLI with the remaining
arguments and, when it ends, writes spans, counts and the import figures to
SPANS_JSON.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    import pdclab  # noqa: F401

    import_s = time.perf_counter() - start
    modules_loaded = len(sys.modules)

    import tracing
    from pdclab import cli

    tracer = tracing.Tracer()
    tracer.sample("import.pdclab_s", import_s)
    tracer.sample("import.modules_loaded", modules_loaded)
    undo = tracing.instrument(tracer)
    try:
        return cli.main(argv)
    finally:
        undo()
        spans_path.write_text(json.dumps(tracer.record()))


if __name__ == "__main__":
    sys.exit(main())
