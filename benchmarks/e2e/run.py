"""The driver's entry: one workload, one process, one JSON line.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every per-layer
metric (the traced run of W plus the isolated probes).  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

_STARTED = time.perf_counter()  # before the imports: they are set-up

import argparse
import json
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parent.parent


def _bootstrap() -> None:
    """Import as the package ``benchmarks.e2e`` with the program on the
    path, whatever directory this file was started from."""
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != _HERE]
    sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]
    if not (_ROOT / "src" / "repro").is_dir():
        sys.exit(f"e2e: no program to measure: {_ROOT / 'src' / 'repro'} is missing")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--inject-delay", action="append", default=[], metavar="LAYER=2ms",
                        help="traced run only: sleep inside every span of LAYER")
    parser.add_argument("--out", help="write the full record (environment, samples, budget, spans)")
    args = parser.parse_args(argv)

    _bootstrap()
    from benchmarks.e2e import catalog, harness, spans

    if args.workload not in catalog.WORKLOAD_NAMES:
        parser.error(f"unknown workload {args.workload!r}; pick from {', '.join(catalog.WORKLOAD_NAMES)}")
    inject = dict(spans.parse_delay(text) for text in args.inject_delay)
    record = harness.measure(
        args.workload, args.seed, args.seconds, bool(args.trace), _STARTED,
        scale=args.scale, inject=inject, out=args.out,
    )
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
