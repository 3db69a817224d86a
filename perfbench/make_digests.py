"""Record the expected report digest of every (size, workload, telesum seed).

    python3 perfbench/make_digests.py

Run this only at the commit whose reports are the reference: the stored
digests are the benchmark's correctness gate, so regenerating them from a
later commit would accept whatever that commit prints.  Refuses to record a
run that exits non-zero or reports a failing check.
"""

import json
import sys

from workloads import DIGESTS, SEED_POOL, WORKLOADS, iteration_digest, run_step, telesum_env


def main() -> int:
    env = telesum_env()
    table = {}
    for size in ("full", "tiny"):
        table[size] = {}
        for name, workload in WORKLOADS.items():
            steps = workload.steps if size == "full" else workload.tiny_steps
            table[size][name] = {}
            for seed in SEED_POOL:
                results = [run_step(workload.argv(s, seed, traced=False), env) for s in steps]
                for step, result in zip(steps, results):
                    if result.exit_code != 0 or result.totals is None or result.totals["fail"]:
                        print(f"error: {name} seed {seed}: {' '.join(step)} failed",
                              file=sys.stderr)
                        return 1
                table[size][name][str(seed)] = iteration_digest([r.sha256 for r in results])
                print(f"{size} {name} {seed} {sum(r.wall_s for r in results):.2f}s", flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
