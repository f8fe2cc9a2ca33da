"""Print the set-up seconds of one workload measured in this fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

import bench

if __name__ == "__main__":
    sys.path.insert(0, bench.SRC)
    _, seconds = bench.timed_setup(sys.argv[1], int(sys.argv[2]))
    print(repr(seconds))
