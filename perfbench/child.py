"""One benchmark solve in a fresh interpreter, as a user's CLI call would run.

Usage (started by run.py, which passes its own monotonic clock reading
taken just before spawning this process):

    python3 perfbench/child.py --spawned-at T --config C --out DIR [--trace F]
    python3 perfbench/child.py --spawned-at T --import-only

Prints one JSON line last: set-up seconds (spawn until ``import terracost``
returns), solve seconds (``terracost.cli.main`` from config path to written
files) and the CLI exit code.  With ``--trace`` the layer spans of the
solve are written to F as JSONL after the clock stops.
"""

import sys
import time

import terracost

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--trace")
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args()
    result = {"setup_s": IMPORTED_AT - args.spawned_at, "module": terracost.__file__}
    if not args.import_only:
        recorder = None
        if args.trace:
            import spans

            recorder = spans.Recorder(args.run_id)
            spans.install(recorder)
        argv = ["solve", "--config", args.config, "--out", args.out, "--threads", "1"]
        start = time.perf_counter()
        code = terracost.cli.main(argv)
        result["solve_s"] = time.perf_counter() - start
        result["exit_code"] = code
        if recorder is not None:
            recorder.write_jsonl(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
