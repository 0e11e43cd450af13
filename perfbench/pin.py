"""Pinned outputs: each workload's round-0 config and the SHA-256 of its report.

    python3 perfbench/pin.py

Run from the root of a source checkout.  Decomposes round 0 of every
workload at the benchmark's seed 0 once, in .perfbench_out/pin/<workload>/,
and prints its config and the SHA-256 of its report.json.  A change that keeps clipreg's arithmetic
prints the same hashes.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

from run import OUT, ROOT, WORKLOADS, make_config

PINNED_SEED = 0


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from clipreg import cli

    for name, w in WORKLOADS.items():
        work = OUT / "pin" / name
        work.mkdir(parents=True, exist_ok=True)
        os.chdir(work)
        cfg = make_config(name, PINNED_SEED, 0)
        with open("config.json", "w") as fh:
            json.dump(cfg, fh, indent=2)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["decompose", "--config", "config.json",
                           "--threads", str(w["threads"])])
        if rc != 0:
            print(f"{name}: decompose exited {rc}", file=sys.stderr)
            return 1
        with open("report.json", "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        print(f"{name} --threads {w['threads']}  sha256 {digest}")
        print(json.dumps(cfg))
    return 0


if __name__ == "__main__":
    sys.exit(main())
