"""Run the public CLI in this process with the tracer installed.

usage: python traced_cli.py SUMMARY_JSON <quantum-descent arguments>

Exits with the CLI's exit code after writing the per-layer metrics of the run
to SUMMARY_JSON.
"""

import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark's directory free of caches

import tracer  # noqa: E402


def main() -> int:
    summary_path, argv = Path(sys.argv[1]), sys.argv[2:]
    t = tracer.Tracer()
    cli = tracer.install(t)
    tracer.count_node_warnings(t)
    code = cli.main(argv)
    summary_path.write_text(json.dumps(tracer.layer_metrics(t)))
    return code


if __name__ == "__main__":
    sys.exit(main())
