"""Command-line interface covering the whole workflow: device building,
calibration, entropy characterization, plan construction, bitstream
generation, statistical testing, and performance modeling.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ConfigError, DataPattern, DeviceConfig,
                     calibrated_variation)
from .calibrate import (DEFAULT_TARGET_BLOCK, DEFAULT_TARGET_MAX_SEGMENT,
                        fit_variation)
from .device import build_device
from .entropy import (SibPlan, build_sib_plan, characterize,
                      default_temperature_bins, spatial_profile)
from .perf import (BASELINE_MODES, QUAC_MODES, baseline,
                   idle_scaled_throughput, project, project_to_csv, schedule,
                   storage_bits)
from .pipeline import (ReservedLayout, stream_bits, unpack_bits, write_ascii,
                       write_binary)
from .sts import DEFAULT_ALPHA, population_pass, reports_to_csv, run_tests

__all__ = ["main"]

OUTPUT_DIR_ENV = "QUACTRNG_OUTPUT_DIR"


def _output_dir(args):
    path = Path(args.output_dir or os.environ.get(OUTPUT_DIR_ENV, "."))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_config(args):
    if args.config:
        return DeviceConfig.from_json(args.config)
    variation = calibrated_variation(
        args.seed if args.seed is not None else 0x5EED)
    return DeviceConfig(variation=variation)


def _stamp(config, payload):
    """Embed provenance in every artifact for reproducibility."""
    return {
        "tool_version": __version__,
        "config_hash": config.config_hash(),
        "master_seed": config.variation.master_seed,
        **payload,
    }


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    print(path)


def _cmd_device_build(args):
    config = _load_config(args)
    _write_json(_output_dir(args) / "device.json",
                _stamp(config, config.to_dict()))
    return 0


def _cmd_calibrate(args):
    config = _load_config(args)
    profile = fit_variation(
        master_seed=config.variation.master_seed,
        target_block=args.target_block,
        target_max_segment=args.target_max_segment)
    fitted = DeviceConfig(geometry=config.geometry, timings=config.timings,
                          variation=profile)
    _write_json(_output_dir(args) / "calibrated_device.json",
                _stamp(fitted, fitted.to_dict()))
    return 0


def _parse_patterns(spec):
    if spec == "all":
        return DataPattern.all_patterns()
    return [DataPattern(s) for s in spec.split(",")]


def _cmd_characterize(args):
    config = _load_config(args)
    device = build_device(config)
    patterns = _parse_patterns(args.patterns)
    segments = range(args.segments)
    outdir = _output_dir(args)
    rows = []
    # the map of the pattern that ranks first (the earliest one on a tie)
    top_entropy, top_map = -1.0, None
    for pattern in patterns:
        emap = characterize(device, pattern, segments, trials=args.trials,
                            temperature=args.temperature, method=args.method,
                            workers=args.workers)
        rows.append((str(pattern), float(emap.block_entropy.mean()),
                     float(emap.segment_entropy.mean()),
                     float(emap.segment_entropy.max())))
        if rows[-1][1] > top_entropy:
            top_entropy, top_map = rows[-1][1], emap
    csv_path = outdir / "characterize.csv"
    with open(csv_path, "w") as fh:
        fh.write("pattern,avg_block_entropy,avg_segment_entropy,"
                 "max_segment_entropy\n")
        for r in sorted(rows, key=lambda r: -r[1]):
            fh.write(f"{r[0]},{r[1]:.4f},{r[2]:.4f},{r[3]:.4f}\n")
    print(csv_path)
    if args.spatial:
        prof = spatial_profile(top_map)
        top_map.segment_series_to_csv(outdir / "segment_series.csv")
        _write_json(outdir / "spatial_profile.json", _stamp(config, {
            "pattern": top_map.context["pattern"],
            "detected_period": prof["detected_period"],
            "autocorrelation_peak": prof["autocorrelation_peak"],
            "block_curve": prof["block_curve"].tolist(),
        }))
    _write_json(outdir / "characterize.json", _stamp(config, {
        "trials": args.trials,
        "temperature_c": args.temperature,
        "results": [
            {"pattern": p, "avg_block_entropy": b, "avg_segment_entropy": s,
             "max_segment_entropy": m} for p, b, s, m in rows
        ],
    }))
    return 0


def _cmd_plan(args):
    config = _load_config(args)
    device = build_device(config)
    bins = default_temperature_bins(args.temp_low, args.temp_high, args.bins)
    maps = [
        characterize(device, args.pattern, range(args.segments),
                     trials=args.trials, temperature=(lo + hi) / 2.0,
                     workers=args.workers)
        for lo, hi in bins
    ]
    plan = build_sib_plan(maps, bins)
    out = _output_dir(args) / "plan.json"
    _write_json(out, _stamp(config, plan.to_dict()))
    return 0


def _default_plan(device, temperature):
    emap = characterize(device, "0111", range(1024), trials=1000,
                        temperature=temperature)
    return build_sib_plan([emap], bins=[(temperature - 1.0, temperature + 1.0)])


def _cmd_generate(args):
    config = _load_config(args)
    device = build_device(config)
    plan = SibPlan.from_json(args.plan) if args.plan \
        else _default_plan(device, args.temperature)
    layout = ReservedLayout()
    bits, iterations = stream_bits(device, layout, plan, args.bits,
                                   temperature=args.temperature)
    outdir = _output_dir(args)
    out = outdir / (args.out or "bits.bin")
    write_binary(out, bits)
    print(out)
    if args.ascii:
        write_ascii(outdir / (Path(out).stem + ".txt"), bits)
    _write_json(outdir / "generate.json", _stamp(config, {
        "bits": args.bits,
        "iterations": iterations,
        "temperature_c": args.temperature,
        "output": str(out),
    }))
    return 0


def _read_bits(path):
    data = Path(path).read_bytes()
    if set(data[:64]) <= set(b"01\n\r"):
        text = data.decode().strip()
        bits = np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")
        return bits[bits <= 1]
    return unpack_bits(data, 8 * len(data))


def _cmd_test(args):
    config = _load_config(args)
    bits = _read_bits(args.input)
    outdir = _output_dir(args)
    if args.sequences > 1:
        per = len(bits) // args.sequences
        reports = [run_tests(bits[i * per:(i + 1) * per], alpha=args.alpha)
                   for i in range(args.sequences)]
        verdict, details = population_pass(reports, alpha_pop=args.alpha_pop)
        reports_to_csv(outdir / "sts.csv", reports)
        _write_json(outdir / "sts.json", _stamp(config, {
            "sequences": args.sequences,
            "population_verdict": verdict,
            "details": {k: {"pass_fraction": f, "threshold": t}
                        for k, (f, t) in details.items()},
        }))
        return 0 if verdict else 1
    report = run_tests(bits, alpha=args.alpha)
    reports_to_csv(outdir / "sts.csv", [report])
    _write_json(outdir / "sts.json", _stamp(config, report.to_dict()))
    return 0 if report.all_pass else 1


def _cmd_model(args):
    config = _load_config(args)
    t = config.timings
    outdir = _output_dir(args)
    if args.what == "schedule":
        reports = [schedule(m, t, sib=args.sib) for m in QUAC_MODES]
    elif args.what == "baseline":
        reports = [baseline(m, t) for m in BASELINE_MODES]
    elif args.what == "project":
        rates = [float(r) for r in args.rates.split(",")]
        table = project(list(QUAC_MODES) + list(BASELINE_MODES), rates,
                        timings=t, sib=args.sib)
        project_to_csv(outdir / "projection.csv", table)
        print(outdir / "projection.csv")
        _write_json(outdir / "projection.json", _stamp(config, {
            "sib": args.sib,
            "table": {f"{r:g}": row for r, row in table.items()},
        }))
        return 0
    elif args.what == "idle":
        per_channel = schedule("rc-bgp", t, sib=args.sib).throughput_gbps
        _write_json(outdir / "idle.json", _stamp(config, {
            "per_channel_gbps": per_channel,
            "idle_fraction": args.idle_fraction,
            "system_gbps": idle_scaled_throughput(per_channel,
                                                  args.idle_fraction),
        }))
        return 0
    else:  # storage
        _write_json(outdir / "storage.json", _stamp(config, {
            "row_addr_bits": args.row_bits,
            "col_addr_bits": args.col_bits,
            "temp_ranges": args.temp_ranges,
            "sib_max": args.sib_max,
            "total_bits": storage_bits(args.row_bits, args.col_bits,
                                       args.temp_ranges, args.sib_max),
        }))
        return 0
    _write_json(outdir / f"model_{args.what}.json", _stamp(config, {
        "reports": [
            {"mode": r.mode, "iteration_ns": r.iteration_ns,
             "bits_per_iteration": r.bits_per_iteration,
             "throughput_gbps": r.throughput_gbps,
             "latency_256_ns": r.latency_256_ns}
            for r in reports
        ],
    }))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="quactrng",
        description="Simulator and analysis toolkit for a DRAM TRNG based "
                    "on quadruple row activation.")
    parser.add_argument("--config", help="device configuration JSON")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--output-dir",
                        help=f"artifact directory (default ${OUTPUT_DIR_ENV} "
                             "or the working directory)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("device", help="device configuration commands")
    dsub = p.add_subparsers(dest="device_command", required=True)
    b = dsub.add_parser("build", help="write the device configuration JSON")
    b.set_defaults(func=_cmd_device_build)

    p = sub.add_parser("calibrate",
                       help="fit the variation profile to entropy targets")
    p.add_argument("--target-block", type=float, default=DEFAULT_TARGET_BLOCK)
    p.add_argument("--target-max-segment", type=float,
                   default=DEFAULT_TARGET_MAX_SEGMENT)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("characterize", help="entropy characterization")
    p.add_argument("--patterns", default="0111",
                   help="'all' or comma-separated 4-bit patterns")
    p.add_argument("--segments", type=int, default=512)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--temperature", type=float, default=50.0)
    p.add_argument("--method", default="binomial",
                   choices=["binomial", "exact", "analytic"])
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--spatial", action="store_true",
                   help="emit the spatial profile of the top-ranked pattern")
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("plan", help="build the extraction plan")
    p.add_argument("--pattern", default="0111")
    p.add_argument("--segments", type=int, default=1024)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--temp-low", type=float, default=30.0)
    p.add_argument("--temp-high", type=float, default=90.0)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("generate", help="generate random bits to a file")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--plan", help="plan JSON (default: characterize on the fly)")
    p.add_argument("--temperature", type=float, default=50.0)
    p.add_argument("--out", help="output file name (flat binary)")
    p.add_argument("--ascii", action="store_true",
                   help="also write ASCII '0'/'1' for external test suites")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("test", help="run the statistical test subset")
    p.add_argument("--input", required=True,
                   help="bitstream file (binary or ASCII)")
    p.add_argument("--sequences", type=int, default=1,
                   help="split the input into k sequences and apply the "
                        "population criterion")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--alpha-pop", type=float, default=0.005)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("model", help="performance model")
    p.add_argument("what",
                   choices=["schedule", "baseline", "project", "idle",
                            "storage"])
    p.add_argument("--sib", type=int, default=7)
    p.add_argument("--rates", default="1600,2400,3200,4800,12000")
    p.add_argument("--idle-fraction", type=float, default=0.7413)
    p.add_argument("--row-bits", type=int, default=18)
    p.add_argument("--col-bits", type=int, default=10)
    p.add_argument("--temp-ranges", type=int, default=10)
    p.add_argument("--sib-max", type=int, default=11)
    p.set_defaults(func=_cmd_model)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
