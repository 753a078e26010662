"""Run one benchmark workload and print its metrics.

Untraced run (end-to-end metrics)::

    python3 perfbench/run.py --workload tsgemm-uk --seed 1 --seconds 25 --trace 0

Traced run (per-layer metrics): the first half of ``--seconds`` runs
untraced, the second half traced on the same inputs, so the difference
of the two is the tracing overhead.  Span files land in
``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run from the
root of a checkout: the program under test is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("tsgemm-uk", "msbfs-uk", "embed-pubmed", "serve-mixed")


def _use_checkout_source() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}; run from a full checkout")
    sys.path[:0] = [str(src), str(ROOT)]


def _p50_ms(ph) -> float:
    from perfbench.workloads import pct

    return pct(ph.latencies, 50) * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    _use_checkout_source()

    from perfbench import report, workloads
    from perfbench.trace import traced

    w = workloads.WORKLOADS[args.workload](args.seed)
    if not args.trace:
        setups = workloads.time_setups(w)
        phases = [w.run(args.seconds)]
        metrics = report.end_to_end(phases[0], setups)
    else:
        plain = w.run(args.seconds / 2)
        with traced() as tracer:
            ph = w.run(args.seconds / 2, tracer)
        phases = [plain, ph]
        metrics = report.per_layer(tracer.spans, ph, _p50_ms(ph) / _p50_ms(plain) - 1)
        print(report.format_table(args.workload, tracer.spans, ph))
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
        tracer.write(f"{stem}.spans.jsonl", f"{stem}.trace.json")
        print(f"spans: {len(tracer.spans)} written to {stem}.spans.jsonl and {stem}.trace.json")

    last = phases[-1]
    print(
        f"{args.workload} seed={args.seed}: {len(last.latencies)} latency samples, "
        f"{last.exact_units} exact-count op units, {last.attempted} attempted, "
        f"{last.failed} failed, {last.wrong} wrong"
    )
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>16.6f} {report.UNITS[name]}")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(json.dumps({
        "correct": failed == 0 and all(p.wrong == 0 for p in phases),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": report.UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
