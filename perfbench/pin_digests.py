"""Print digests.json: each workload run once on the pinned seed, its outputs hashed.

Run from the root of a checkout, only when the pinned outputs are meant to
change (new sizes, or a deliberate change of output bytes):

    python3 perfbench/pin_digests.py > perfbench/digests.json
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import run


def main() -> None:
    io_cli = run.require_io_cli()
    import workloads

    run.OUTPUT_ROOT.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, workload in workloads.WORKLOADS.items():
        work = Path(tempfile.mkdtemp(prefix="pin-", dir=run.OUTPUT_ROOT))
        try:
            session = run.Session(io_cli, workload, workloads.FULL)
            session.iterate(run.PINNED_SEED, work / "out")
            if session.failed:
                raise SystemExit(f"{name}: {session.failed} operations failed; nothing pinned")
            digests[name] = run.output_digests(work / "out")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(digests, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
