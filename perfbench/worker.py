"""One timed operation of the benchmark, in a fresh interpreter.

``run.py`` starts this script once per operation, so no in-process
engine or kernel cache ever carries over from one operation to the
next.  The script imports the program, sets the operation up, stamps
``ready`` (``time.monotonic()``), runs the timed part and writes one
JSON object to the file named by ``--out``.

Usage::

    python3 perfbench/worker.py campaign --out R.json --seed 1995 \
        --cache-dir DIR --jobs 2 --n-defects 1200 --max-classes 6 \
        [--macros comparator,ladder] [--compile DICT.json] [--dry] [--trace]
    python3 perfbench/worker.py fullchip --out R.json --vin 2.5 \
        --n-bits 8 --tstop 2e-10 --dt 1e-11 [--trace]

The sizes have no defaults: ``run.py``'s ``SIZES`` is their one source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402  (the benchmark's own tracer)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def campaign_digest(path_result) -> str:
    """sha256 over every DetectionRecord.to_dict(), in plan order."""
    rows = []
    for name, analysis in path_result.macros.items():
        for kind, result in (("cat", analysis.result),
                             ("noncat", analysis.noncat_result)):
            if result is None:
                continue
            rows.extend([name, kind, r.to_dict()]
                        for r in result.records)
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_campaign(args) -> dict:
    from repro.campaign.runner import CampaignOptions, CampaignRunner
    from repro.core.path import PathConfig

    tracer = None
    if args.trace:
        tracer = spans.Tracer(args.run_id)
        spans.instrument_campaign(tracer)
    config = PathConfig(n_defects=args.n_defects,
                        max_classes=args.max_classes, seed=args.seed)
    options = CampaignOptions(jobs=args.jobs, cache_dir=args.cache_dir)
    runner = CampaignRunner(config, options)
    macros = args.macros.split(",") if args.macros else None
    out = {"ready": time.monotonic()}
    if args.dry:
        return out

    start = time.monotonic()
    campaign = runner.run(macros)
    result = campaign.path_result
    coverage = result.global_coverage()
    out["digest"] = campaign_digest(result)
    end = time.monotonic()
    decoder = result.macros.get("decoder")
    out.update(
        start=start, end=end, wall=end - start,
        coverage=[coverage.voltage_only, coverage.current_only,
                  coverage.both, coverage.undetected],
        analog_tasks=campaign.metrics.total_tasks,
        decoder_faults=(len(decoder.result.records)
                        if decoder is not None else 0),
        metrics=campaign.metrics.as_dict(), jobs=args.jobs)
    if args.compile:
        from repro.diagnosis.build import compile_from_campaign
        t0 = time.monotonic()
        dictionary = compile_from_campaign(campaign)
        dictionary.save(args.compile)
        out["compile_s"] = time.monotonic() - t0
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counts"] = dict(tracer.counts)
    return out


def run_fullchip(args) -> dict:
    import numpy as np

    from repro.adc.fullchip import (build_fullchip, decode_at,
                                    fullchip_transient)
    from repro.circuit import backend

    tracer = None
    calls = {"factor": 0, "solve_lane": 0}
    if args.trace:
        tracer = spans.Tracer(args.run_id)
        for name in calls:
            original = getattr(backend.SparsePattern, name)

            def counted(*a, _name=name, _fn=original, **kw):
                calls[_name] += 1
                return _fn(*a, **kw)

            setattr(backend.SparsePattern, name, counted)
    t0 = time.monotonic()
    chip = build_fullchip(n_bits=args.n_bits, vin=args.vin)
    build_s = time.monotonic() - t0
    out = {"ready": time.monotonic(), "build_s": build_s}

    backend.reset_timings()
    start = time.monotonic()
    if tracer is not None:
        result = tracer.call("circuit.transient", fullchip_transient,
                             (chip,), dict(tstop=args.tstop, dt=args.dt,
                                           solver="sparse"))
    else:
        result = fullchip_transient(chip, tstop=args.tstop, dt=args.dt,
                                    solver="sparse")
    nodes = list(chip.comparator_outputs) + list(chip.decoder_outputs)
    final = [result.at_time(node, args.tstop) for node in nodes]
    code = decode_at(chip, result, args.tstop)
    end = time.monotonic()
    xs = np.asarray(result.xs)
    out.update(
        start=start, end=end, wall=end - start, code=int(code),
        final_nodes=final, final_norm=float(np.linalg.norm(xs[-1])),
        finite=bool(np.all(np.isfinite(xs))),
        timepoints=int(xs.shape[0]), phases=backend.snapshot_timings())
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counts"] = {"circuit.factorizations": calls["factor"],
                         "circuit.lane_solves": calls["solve_lane"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="op", required=True)
    for name in ("campaign", "fullchip"):
        p = sub.add_parser(name)
        p.add_argument("--out", required=True)
        p.add_argument("--trace", action="store_true")
        p.add_argument("--run-id", default="")
    p = sub.choices["campaign"]
    p.add_argument("--dry", action="store_true",
                   help="set up only: stop at the ready stamp")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cache-dir", required=True)
    p.add_argument("--jobs", type=int, required=True)
    p.add_argument("--n-defects", type=int, required=True)
    p.add_argument("--max-classes", type=int, required=True)
    p.add_argument("--macros", default="")
    p.add_argument("--compile", default="",
                   help="also compile the campaign's fault dictionary "
                        "to this path")
    p = sub.choices["fullchip"]
    p.add_argument("--vin", type=float, required=True)
    p.add_argument("--n-bits", type=int, required=True)
    p.add_argument("--tstop", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    args = parser.parse_args(argv)

    out = run_campaign(args) if args.op == "campaign" \
        else run_fullchip(args)
    out["peak_rss_mb"] = _peak_rss_mb()
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
