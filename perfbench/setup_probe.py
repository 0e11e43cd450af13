"""Set-up phase of one clipreg run, in a fresh interpreter.

    python3 perfbench/setup_probe.py <config.json>

Imports clipreg.cli, loads the config and builds its quadrature (all that
``clipreg decompose`` does before its first ascent) and prints the time of
each phase as one JSON object.
"""

import json
import sys
import time
from pathlib import Path


def main(config_path: str) -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from clipreg import cli

    t1 = time.perf_counter()
    cfg = cli.load_config(config_path)
    t2 = time.perf_counter()
    cli.build_quadrature(cfg.domain, cfg.quadrature.scheme, cfg.quadrature.size,
                         cfg.quadrature.seed)
    t3 = time.perf_counter()
    print(json.dumps({"setup.import_s": t1 - t0, "config.load_config_s": t2 - t1,
                      "measure.build_quadrature_s": t3 - t2}))


if __name__ == "__main__":
    main(sys.argv[1])
