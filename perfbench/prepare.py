"""Set-up step of one benchmark run: import fedkme and write the workload's inputs.

``run.py`` starts this script several times in a fresh interpreter and times
each start-to-exit, which is the ``setup_s`` metric.

    python3 perfbench/prepare.py --workload NAME --seed N [--tiny]
"""

from __future__ import annotations

import argparse

import common


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(common.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    common.pin_blas_threads()
    common.import_fedkme()
    common.write_inputs(common.WORKLOADS[args.workload], args.seed, args.tiny)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
