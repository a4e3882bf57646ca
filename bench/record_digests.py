"""Record the reference output digests that bench/run.py compares against.

    python3 bench/record_digests.py --seeds 0-39

Runs one pass of every workload per seed, requires
every job to pass its independent check, and merges the per-job digests
into bench/digests.json.  Re-record only for a change that is meant to
alter the CLI's output bytes, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def _dump(table: dict) -> str:
    """JSON with one line per (workload, seed)."""
    blocks = []
    for name in sorted(table):
        rows = sorted(table[name].items(), key=lambda item: int(item[0]))
        lines = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(d)}" for seed, d in rows)
        blocks.append(f" {json.dumps(name)}: {{\n{lines}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    cli_main = run.load_cli()
    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    for name in sorted(workloads.WORKLOADS):
        for seed in seeds:
            with run.prepared(name, seed) as jobs:
                outcomes = run.run_pass(cli_main, jobs)
            errors = [o.error for o in outcomes if o.error is not None]
            if errors:
                print(f"{name} seed {seed}: not recorded: {errors[:3]}", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = [o.digest for o in outcomes]
            run.DIGESTS.write_text(_dump(table))
            print(f"{name} seed {seed}: {len(outcomes)} digests", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
