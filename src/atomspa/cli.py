"""Command-line front end: simulate traces, attack them, draw schedules.

Exit codes: 0 success (for attack: scalar recovered or no ground truth
expectation), 2 invalid configuration or arguments, 3 I/O or file format
problems, 4 attack finished but the scalar was not recovered.
"""

import argparse
import json
import os
import sys
from dataclasses import fields
from typing import NamedTuple

from atomspa.field import Curve, get_curve
from atomspa.atoms import (AffinePoint, ScalarK, k_mul, recover_scalar,
                           scalar_for_pattern_counts)
from atomspa.sched import Timing, build_schedules, addressing_diff
from atomspa.leakage import LeakageParams, simulate_trace, write_trace, \
    read_trace
from atomspa.spa import run_attack, write_report
from atomspa.diagram import render_diagram, schedule_svg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NOT_RECOVERED = 4

# reference scenario: 256-bit scalar with 145 one bits below the leading
# one, so a run executes 255 doublings and 145 additions; Timing() and
# LeakageParams() are its machine and power model
DEFAULT_CONFIG = {
    "curve": "P-256",
    "scalar": {"bits": 256, "ones_below_msb": 145, "pick_seed": 1},
    "base_point": "generator",
    "timing": {},
    "leakage": {},
}

# the keys each object section accepts; anything else is a misspelling
SECTION_KEYS = {
    "scalar": set(DEFAULT_CONFIG["scalar"]),
    "base_point": {"x", "y"},
    "timing": {f.name for f in fields(Timing)},
    "leakage": {f.name for f in fields(LeakageParams)},
}


class Scenario(NamedTuple):
    """A parsed scenario config: everything a run is made from."""

    curve: Curve
    scalar: ScalarK
    point: AffinePoint
    timing: Timing
    leakage: LeakageParams


def load_scenario(path=None):
    """Parse a JSON scenario config into a Scenario; a missing path or key
    takes the reference scenario.  Raises ValueError for any config that
    cannot run, and IOError for a file that cannot be read."""
    user = {}
    if path:
        try:
            with open(path) as f:
                user = json.load(f)
        except OSError as e:
            raise IOError(f"cannot read config: {e}") from e
        except (ValueError, RecursionError) as e:
            raise ValueError(f"config is not valid JSON: {e}") from e
        if not isinstance(user, dict):
            raise ValueError(f"config must be a JSON object, not {user!r:.40}")
    # before any default fills in, which would hide a misspelt key
    unknown = [key for key in user if key not in DEFAULT_CONFIG]
    for name, known in SECTION_KEYS.items():
        if isinstance(user.get(name), dict):
            unknown += [f"{name}.{key}" for key in user[name]
                        if key not in known]
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    cfg = {**DEFAULT_CONFIG, **user}
    for name in ("timing", "leakage"):
        if not isinstance(cfg[name], dict):
            raise ValueError(f"{name} must be a JSON object, "
                             f"not {cfg[name]!r}")
    if not isinstance(cfg["curve"], str):
        raise ValueError(f"curve must be a name, not {cfg['curve']!r}")
    curve = get_curve(cfg["curve"])
    return Scenario(curve, _scalar(cfg["scalar"], curve),
                    _point(cfg["base_point"], curve), Timing(**cfg["timing"]),
                    LeakageParams(**cfg["leakage"]))


def _scalar(spec, curve):
    if isinstance(spec, str):
        k = ScalarK.from_string(spec)
    elif not isinstance(spec, dict):
        raise ValueError(f"scalar must be a string or a JSON object, "
                         f"not {spec!r}")
    else:
        spec = {**DEFAULT_CONFIG["scalar"], **spec}
        for name, value in spec.items():
            if type(value) is not int:
                raise ValueError(f"scalar {name} must be an int, "
                                 f"not {value!r}")
        k = scalar_for_pattern_counts(spec["bits"], spec["ones_below_msb"],
                                      curve, seed=spec["pick_seed"])
    if k.value < 2:
        raise ValueError("scalar must be at least 2: k = 1 executes no "
                         "pattern")
    if k.value >= curve.n:
        raise ValueError(f"scalar outside [2, n) on {curve.name}, whose "
                         f"group order is n = {curve.n:#x}")
    return k


def _point(spec, curve):
    if spec == "generator":
        return AffinePoint(curve.gx, curve.gy)
    if not isinstance(spec, dict) or set(spec) != {"x", "y"}:
        raise ValueError(f'base_point must be "generator" or an object with '
                         f'x and y, not {spec!r:.40}')
    coords = []
    for name in ("x", "y"):
        v = spec[name]
        try:
            coords.append(v if type(v) is int else int(v, 16))
        except (TypeError, ValueError):
            raise ValueError(f"bad base point: coordinates must be ints or "
                             f"hex strings, not {name} = {v!r:.40}") from None
    try:
        return AffinePoint(*coords).validate(curve)
    except ValueError as e:
        raise ValueError(f"bad base point: {e}") from e


def cmd_simulate(args):
    curve, k, point, timing, params = load_scenario(args.config)
    d, a = build_schedules(timing)
    _result, seq = k_mul(k, point, curve)
    trace = simulate_trace(seq, d, a, params)

    os.makedirs(args.out_dir, exist_ok=True)
    trace_path = os.path.join(args.out_dir, "trace.bin")
    meta_path = os.path.join(args.out_dir, "trace.json")
    write_trace(trace, trace_path, meta_path)
    nd, na = seq.count("D"), seq.count("A")
    print(f"curve           : {curve.name}")
    print(f"scalar          : 0x{k.value:x} ({k.bit_length} bits)")
    print(f"patterns        : {len(seq)} ({nd} doublings, {na} additions)")
    print(f"pattern length  : {d.cycle_count} cycles, "
          f"{d.cycle_count * params.samples_per_cycle} samples")
    print(f"total samples   : {trace.samples.size:,}")
    print(f"trace           : {trace_path}")
    print(f"metadata        : {meta_path}")
    return EXIT_OK


def cmd_attack(args):
    trace = read_trace(args.trace, args.meta or _sidecar(args.trace))
    report = run_attack(trace)
    paths = write_report(report, args.out_dir)
    for line in report.summary_lines():
        print(line)
    for p in paths:
        print(f"wrote {p}")
    if report.ground_truth is not None:
        if report.recovered_bits != recover_scalar(report.ground_truth):
            print("scalar NOT recovered")
            return EXIT_NOT_RECOVERED
        print("scalar fully recovered")
    return EXIT_OK


def cmd_diagram(args):
    d, a = build_schedules(load_scenario(args.config).timing)
    os.makedirs(args.out_dir, exist_ok=True)
    paths = []
    paths += render_diagram(d, os.path.join(args.out_dir, "pattern_d"))
    paths += render_diagram(a, os.path.join(args.out_dir, "pattern_a"))
    diff = addressing_diff(d, a)
    overlay = os.path.join(args.out_dir, "pattern_overlay.svg")
    with open(overlay, "w") as f:
        f.write(schedule_svg(d, overlay_diff=diff,
                             title="doubling with addressing differences"))
    paths.append(overlay)
    print(f"pattern length        : {d.cycle_count} cycles")
    print(f"differing bus cycles  : {len(diff)}")
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


def _sidecar(trace_path):
    base, _ = os.path.splitext(trace_path)
    return base + ".json"


def build_parser():
    p = argparse.ArgumentParser(
        prog="atomspa",
        description="atomic-pattern scalar multiplication side-channel lab")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a kP power trace")
    sim.add_argument("--config", help="JSON scenario config")
    sim.add_argument("--out-dir", default=".", help="output directory")
    sim.set_defaults(func=cmd_simulate)

    att = sub.add_parser("attack", help="run the SPA attack on a trace")
    att.add_argument("--trace", required=True, help="raw float32 trace file")
    att.add_argument("--meta", help="metadata sidecar (default: the trace "
                     "path with its extension replaced by .json)")
    att.add_argument("--out-dir", default=".", help="report directory")
    att.set_defaults(func=cmd_attack)

    dia = sub.add_parser("diagram", help="draw the pattern schedules")
    dia.add_argument("--config", help="JSON scenario config")
    dia.add_argument("--out-dir", default=".", help="output directory")
    dia.set_defaults(func=cmd_diagram)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
