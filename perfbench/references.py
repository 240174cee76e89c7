"""Regenerate the committed reference digests of every workload.

    PYTHONPATH=src python3 perfbench/references.py [--seeds 0-99] [--workload NAME]

Runs each workload's part grids once per seed (in process, serially,
without a result cache) and writes ``perfbench/references/<workload>.json``: the
per-job digest of the simulated outputs (``rep.payload_digest``, which
leaves out ``kernel_stats``) at both scales.  Workloads with no random
input are stored once, under ``"any"``.  Regenerate only after a change
that alters simulated outputs on purpose.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import grids  # noqa: E402
from perfbench.rep import payload_digest  # noqa: E402
from repro.harness.sweep import SweepEngine  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "references"


def digests(name: str, seed: int, scale: str) -> dict[str, str]:
    table = {}
    for _part, spec in grids.build_parts(name, seed, scale):
        outcomes = SweepEngine(jobs=1, use_cache=False).run(spec)
        failed = [o.job.label for o in outcomes if o.failed]
        if failed:
            raise SystemExit(f"{name} seed {seed}: jobs failed: {failed}")
        table.update({o.job.label: payload_digest(o.payload) for o in outcomes})
    return table


def _seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("0-99"))
    parser.add_argument("--workload", choices=sorted(grids.WORKLOADS))
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(grids.WORKLOADS)
    OUT_DIR.mkdir(exist_ok=True)
    for name in names:
        seeded = grids.WORKLOADS[name].seeded
        keys = args.seeds if seeded else ["any"]
        table = {
            scale: {str(key): digests(name, 0 if key == "any" else key, scale)
                    for key in keys}
            for scale in grids.SCALES
        }
        path = OUT_DIR / f"{name}.json"
        path.write_text(json.dumps(
            {"workload": name, "seed_independent": not seeded, "digests": table},
            indent=1, sort_keys=True) + "\n")
        print(f"wrote {path} ({len(keys)} seed(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
