"""EC-ElGamal throughput benchmark: one run of one workload.

    python3 perfbench/run.py --workload bulk-k1 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The package is imported from ``src/``
with the compiled kernel required (``ECELGAMAL_NATIVE=1``) and cached under
``.bench_build/``.  The kernel is built by a first interpreter, before
anything is timed; a second, fresh interpreter (worker.py) then does the run.
``setup_s`` is the time from starting that interpreter until it reports the
program ready, taken to the reference host speed like the worker's
throughputs (see ``CAL_REF_S`` in worker.py).  End-to-end runs
(``--trace 0``) are pinned to one CPU.  The last line of standard output is
the result as JSON.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 600
EXIT_GRACE_S = 150  # beyond --seconds: set-up, the last round and the checks


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "ecelgamal" / "__init__.py").is_file():
        print(f"run.py: no ecelgamal package under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src), ECELGAMAL_NATIVE="1",
               ECELGAMAL_KERNEL_DIR=str(ROOT / ".bench_build" / "ecelgamal-kernel"))

    build = subprocess.run(
        [sys.executable, "-c", "import ecelgamal; ecelgamal.active_backend()"],
        env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("run.py: the kernel did not build or load", file=sys.stderr)
        return 2

    if not args.trace:
        # How much a second CPU delivers comes and goes on a shared host: the
        # same code ran dual mode at 0.95x and at 1.45x single mode in runs
        # minutes apart.  Pinned to one CPU, dual mode's figure is the
        # pipeline's work plus its hand-off cost, which stays put.  The traced
        # run is not pinned, so that it shows the host's 2-thread scaling.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(args.seconds + EXIT_GRACE_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    lines = out.strip().splitlines()
    if ready.strip() != "READY" or proc.returncode != 0 or not lines:
        print(f"run.py: worker failed (exit {proc.returncode})", file=sys.stderr)
        return 2

    result = json.loads(lines[-1])
    host_scale = result.pop("host_scale")
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": setup_s / host_scale, "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
