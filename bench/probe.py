"""Set-up probe: import randadj from the checkout, make one warm-up call.

    python3 bench/probe.py <workload> <workdir>

Prints one JSON line: `import_s`, the time `import randadj` took, and
`ready`, time.monotonic() when the warm-up call returned. The caller takes
time.monotonic() just before starting this process, so `ready` minus that
is the set-up time a user pays before the first call: interpreter start,
imports and the warm-up call.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

start = time.monotonic()
import randadj.cli  # noqa: E402
import randadj.harness  # noqa: E402,F401

import_s = time.monotonic() - start

import workloads  # noqa: E402

workloads.warmup(sys.argv[1], sys.argv[2])
print(json.dumps({"import_s": import_s, "ready": time.monotonic()}))
