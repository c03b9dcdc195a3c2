"""Set-up probe: import fusionloc, load one workload's inputs, print "ready".

``run.py`` starts this program several times and times each start until the
"ready" line to measure set-up time.

usage: python3 perfbench/probe.py WORKLOAD SEED TINY(0|1)
"""

import sys

import workloads

if __name__ == "__main__":
    name, seed, tiny = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    workloads.load(name, seed, "", workloads.load_references(), tiny=tiny)
    print("ready", flush=True)
