"""Record the reference sha256 of every CLI output the benchmark checks.

Run once at the commit whose outputs are the reference (the references in
references.json come from commit 25f70e8); it rewrites references.json:
  python3 perfbench/record_references.py
"""

import json
import tempfile

import workloads

if __name__ == "__main__":
    references = {}
    with tempfile.TemporaryDirectory(dir=workloads.ROOT, prefix=".perfbench-") as workdir:
        for tiny in (False, True):
            for workload in workloads.WORKLOADS:
                for op in workloads.load(workload, 0, workdir, {}, tiny=tiny):
                    if not op.ref_key:
                        continue
                    outcome = op.run()
                    if not outcome.digest:
                        raise SystemExit(f"{op.ref_key} exited with a nonzero code")
                    references[op.ref_key] = outcome.digest
                    print(op.ref_key, outcome.digest, flush=True)
    with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
