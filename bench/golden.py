"""Record the reference outputs the benchmark checks against.

    python3 bench/golden.py

runs every atlas, classify and oracle operation once, untimed, and writes
``bench/golden.json``: the four counts and the atlas digest per atlas
instance, and the digest of the sorted canonical code keys per classify and
oracle instance.  The committed file was recorded from the package as it was
when the benchmark was added; record it again only when an output is meant
to change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    golden = {"atlas": {}, "classify": {}, "oracle": {}}
    tracer = spans.NullTracer()
    for workload in golden:
        ops = sorted(workloads.plan(workload, 0), key=lambda op: op["name"])
        ctxs = workloads.setup(ops)
        for op in ops:
            out = workloads.observe(op, ctxs, tracer)
            if workload == "atlas":
                tag = workloads.row_tag(op["q"], op["n"])
                golden["atlas"].setdefault(tag, {})[op["kind"]] = out["golden"]
            else:
                golden[workload][op["name"]] = out["golden"]["digest"]
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
