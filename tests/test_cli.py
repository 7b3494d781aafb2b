"""Command-line workflows: simulate, attack, diagram, exit codes."""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import atomspa
from atomspa.atoms import (AffinePoint, affine_double,
                           scalar_for_pattern_counts)
from atomspa.cli import (DEFAULT_CONFIG, EXIT_CONFIG, EXIT_IO,
                         EXIT_NOT_RECOVERED, EXIT_OK, SECTION_KEYS, Scenario,
                         load_scenario, main)
from atomspa.field import get_curve
from atomspa.leakage import META_COUNTS, LeakageParams, read_trace
from atomspa.sched import Timing
from atomspa.spa import run_attack

REPO = Path(__file__).resolve().parents[1]
P256 = get_curve("P-256")
# 2G, a base point other than the generator
TWO_G = affine_double(P256, AffinePoint(P256.gx, P256.gy))


def small_config(tmp_path, timing=None, **leak):
    cfg = {
        "scalar": {"bits": 20, "ones_below_msb": 9, "pick_seed": 3},
        "leakage": {"alpha": 1.0, "sigma": 0.05, "seed": 2,
                    "samples_per_cycle": 12, **leak},
        "timing": timing or {},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_simulate_then_attack_roundtrip(tmp_path, capsys):
    cfg = small_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg),
                 "--out-dir", str(out)]) == EXIT_OK
    sim_text = capsys.readouterr().out
    assert "patterns" in sim_text

    rc = main(["attack", "--trace", str(out / "trace.bin"),
               "--out-dir", str(out / "report")])
    att_text = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "fully recovered" in att_text
    assert (out / "report" / "attack_summary.txt").exists()
    assert (out / "report" / "attack_correctness.csv").exists()
    assert (out / "report" / "attack_correctness.svg").exists()

    # file-based attack reproduces the in-process result bit for bit
    trace = read_trace(out / "trace.bin", out / "trace.json")
    rep = run_attack(trace)
    assert rep.recovered
    assert f"0x{rep.recovered_scalar.value:x}" in att_text


def test_simulate_deterministic_bytes(tmp_path):
    cfg = small_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out1)]) == EXIT_OK
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out2)]) == EXIT_OK
    assert (out1 / "trace.bin").read_bytes() == (out2 / "trace.bin").read_bytes()
    assert (out1 / "trace.json").read_text() == (out2 / "trace.json").read_text()


def test_seed_override_changes_trace(tmp_path):
    # leakage.seed in the config is the one way a run picks its noise seed
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(small_config(tmp_path)),
          "--out-dir", str(out1)])
    main(["simulate", "--config", str(small_config(tmp_path, seed=99)),
          "--out-dir", str(out2)])
    assert (out1 / "trace.bin").read_bytes() != (out2 / "trace.bin").read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--seed", "5", "--out-dir", str(tmp_path / "c")])
    assert exc.value.code == EXIT_CONFIG


def test_null_leakage_not_recovered(tmp_path, capsys):
    cfg = small_config(tmp_path, alpha=0.0)
    # enough patterns that a spurious grammar-consistent candidate is
    # effectively impossible
    cfg_data = json.loads(cfg.read_text())
    cfg_data["scalar"] = {"bits": 64, "ones_below_msb": 30, "pick_seed": 1}
    cfg.write_text(json.dumps(cfg_data))
    out = tmp_path / "run"
    main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
    capsys.readouterr()
    rc = main(["attack", "--trace", str(out / "trace.bin"),
               "--out-dir", str(out / "report")])
    assert rc == EXIT_NOT_RECOVERED
    assert "NOT recovered" in capsys.readouterr().out


def test_unsatisfiable_scalar_constraint(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scalar": {"bits": 8, "ones_below_msb": 9}}))
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert ("unsatisfiable scalar constraints: 9 ones in 7 free positions"
            in capsys.readouterr().err)


def test_scalar_wider_than_the_order_fails_at_once(tmp_path, capsys):
    # no 2000-bit scalar lies below P-256's 256-bit order, so no random
    # search is tried
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scalar": {"bits": 2000, "ones_below_msb": 5}}))
    t0 = time.perf_counter()
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert time.perf_counter() - t0 < 0.5
    assert "256-bit group order" in capsys.readouterr().err


def test_impossible_bit_counts_fail_at_once(tmp_path, capsys):
    # the smallest 256-bit scalar with 255 ones below its leading one is
    # 2**256 - 1, above P-256's order, so no random search is tried
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scalar": {"ones_below_msb": 255}}))
    t0 = time.perf_counter()
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert time.perf_counter() - t0 < 0.5
    assert "256-bit group order" in capsys.readouterr().err


@pytest.mark.parametrize("leak, message", [
    ({"alpha": 1e308}, "beyond the float32 range"),
    ({"sigma": 1e38}, "beyond the float32 range"),
    ({"alpha": -1e38}, "beyond the float32 range"),
    # 28 patterns of 109 cycles: 4 bytes for each of 3.052e15 samples
    ({"samples_per_cycle": 10**12}, "needs 12,208,000,000,000,000 bytes"),
], ids=["alpha", "sigma", "negative-alpha", "samples_per_cycle"])
def test_impossible_trace_is_config_error(tmp_path, capsys, leak, message):
    cfg = small_config(tmp_path, **leak)
    assert main(["simulate", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "run")]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run" / "trace.bin").exists()


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_samples_are_io_error(tmp_path, capsys, value):
    cfg = small_config(tmp_path)
    out = tmp_path / "run"
    main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
    samples = np.fromfile(out / "trace.bin", dtype="<f4")
    samples[1000] = value
    samples.tofile(out / "trace.bin")
    capsys.readouterr()
    assert main(["attack", "--trace", str(out / "trace.bin"),
                 "--out-dir", str(out / "report")]) == EXIT_IO
    assert "non-finite samples" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [None, -1, 1, 3, 4, "huge"],
                         ids=["empty", "minus-1", "plus-1", "plus-3", "plus-4",
                              "huge-counts"])
def test_trace_of_the_wrong_byte_size_is_io_error(tmp_path, capsys, extra):
    cfg = small_config(tmp_path)
    out = tmp_path / "run"
    main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
    data = (out / "trace.bin").read_bytes()
    meta = out / "trace.json"
    if extra == "huge":
        # three counts whose product has more digits than Python turns
        # into text, and no ground_truth to hold pattern_count down
        fields = json.loads(meta.read_text())
        del fields["ground_truth"]
        fields.update(dict.fromkeys(META_COUNTS, 10**2000))
        meta = tmp_path / "huge.json"
        meta.write_text(json.dumps(fields))
    elif extra is None:
        data = b""
    elif extra < 0:
        data = data[:extra]
    else:
        data += bytes(extra)
    (out / "trace.bin").write_bytes(data)
    capsys.readouterr()
    assert main(["attack", "--trace", str(out / "trace.bin"),
                 "--meta", str(meta),
                 "--out-dir", str(out / "report")]) == EXIT_IO
    assert f"trace file has {len(data)} bytes" in capsys.readouterr().err


def test_bad_curve_and_bad_json(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"curve": "P-257"}))
    assert main(["simulate", "--config", str(cfg),
                 "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    cfg.write_text("{not json")
    assert main(["simulate", "--config", str(cfg),
                 "--out-dir", str(tmp_path)]) == EXIT_CONFIG


def test_missing_trace_is_io_error(tmp_path):
    assert main(["attack", "--trace", str(tmp_path / "missing.bin"),
                 "--out-dir", str(tmp_path)]) == EXIT_IO


@pytest.mark.parametrize("args, status", [
    (["attack", "--trace", "missing.bin"], EXIT_IO),
    (["diagram", "--out-dir", "out"], EXIT_OK),
])
def test_process_exit_status(tmp_path, args, status):
    # the status the shell sees is main()'s return value
    env = {**os.environ,
           "PYTHONPATH": str(Path(atomspa.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "atomspa.cli", *args],
                          cwd=tmp_path, env=env, capture_output=True)
    assert done.returncode == status, done.stderr


def test_unreadable_config_is_io_error(tmp_path, capsys):
    # open() fails on a directory
    assert main(["simulate", "--config", str(tmp_path),
                 "--out-dir", str(tmp_path / "run")]) == EXIT_IO
    assert "cannot read config" in capsys.readouterr().err


def test_custom_base_point_runs_end_to_end(tmp_path, capsys):
    cfg = small_config(tmp_path, samples_per_cycle=3)
    data = json.loads(cfg.read_text())
    data["base_point"] = {"x": f"{TWO_G.x:#x}", "y": TWO_G.y}
    cfg.write_text(json.dumps(data))
    assert load_scenario(cfg).point == TWO_G
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg),
                 "--out-dir", str(out)]) == EXIT_OK
    assert main(["attack", "--trace", str(out / "trace.bin"),
                 "--out-dir", str(out / "report")]) == EXIT_OK
    assert "scalar fully recovered" in capsys.readouterr().out


def test_explicit_scalar_hex(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scalar": "0x1b",
        "leakage": {"alpha": 1.0, "sigma": 0.0, "seed": 0,
                    "samples_per_cycle": 12},
    }))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg),
                 "--out-dir", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "0x1b" in text
    # k = 0b11011: four doublings, three additions
    assert "7 (4 doublings, 3 additions)" in text


def test_scalar_string_of_ones_and_zeros_is_hex(tmp_path):
    # only a 0b prefix makes scalar text binary, whatever its digits
    cfg = tmp_path / "cfg.json"
    for text, value in (("10000000000000000000000000000001", 2**124 + 1),
                        ("0x1011", 0x1011), ("0b1011", 0b1011),
                        ("11", 0x11)):
        cfg.write_text(json.dumps({"scalar": text}))
        assert load_scenario(cfg).scalar.value == value, text


def test_diagram_outputs(tmp_path, capsys):
    out = tmp_path / "dia"
    assert main(["diagram", "--out-dir", str(out)]) == EXIT_OK
    for name in ("pattern_d.svg", "pattern_d.txt", "pattern_a.svg",
                 "pattern_a.txt", "pattern_overlay.svg"):
        assert (out / name).exists()
    text = capsys.readouterr().out
    assert "109 cycles" in text
    overlay = (out / "pattern_overlay.svg").read_text()
    assert overlay.count("<svg") == 1


def test_classical_plan_roundtrip(tmp_path, capsys):
    cfg = small_config(tmp_path, timing={"mul_plan": "classical"})
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg),
                 "--out-dir", str(out)]) == EXIT_OK
    assert "179 cycles" in capsys.readouterr().out
    assert main(["attack", "--trace", str(out / "trace.bin"),
                 "--out-dir", str(out / "report")]) == EXIT_OK
    assert "fully recovered" in capsys.readouterr().out


def test_partial_address_override(tmp_path):
    cfg = small_config(tmp_path, addresses={"X1": 5})
    assert load_scenario(cfg).leakage.address_table()["X1"] == 5
    assert main(["simulate", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "run")]) == EXIT_OK


@pytest.mark.parametrize("section, bad", [
    ("timing", {"mul_plan": "toom"}),
    ("timing", {"mult_wb_deadline": "pp5"}),  # not a timing option
    ("timing", {"mult_wb_lag": 9}),  # unschedulable
    ("leakage", {"addresses": {"MULT": 0b111000}}),  # ADDSUB's default code
    ("leakage", {"addresses": {"X1": "a"}}),
    ("leakage", {"addresses": {"FOO": 3}}),
    ("leakage", {"addresses": {"X1": 3, "X2": 3}}),
    ("leakage", {"addresses": {"X1": 64}}),  # wider than the address lines
    ("leakage", {"addresses": [1, 2]}),
    ("timing", {"mult_wb_lag": 1.5}),
    ("timing", {"mult_wb_lag": -4}),
    ("timing", {"overlap": "no"}),
    ("timing", 5),
    ("leakage", 5),
    ("leakage", {"samples_per_cycle": 1.5}),
    ("leakage", {"samples_per_cycle": True}),
    ("leakage", {"seed": -1}),
    ("leakage", {"seed": 2**64}),
    ("leakage", {"alpha": "x"}),
    ("leakage", {"alpha": False}),
    ("leakage", {"sigma": float("nan")}),
    ("leakage", {"sigma": float("inf")}),
    ("leakage", {"alpha": None}),
    ("leakage", {"addresses": {"X1": -1}}),
    ("scalar", 5),
    ("scalar", 27),
    ("scalar", {"bits": 1}),  # no bit below the leading one
    ("scalar", {"bits": [1]}),
    ("scalar", {"pick_seed": [1]}),
    ("curve", 5),
    ("curve", [1]),
    ("scalar", {"ones_below_msb": -1}),
    ("base_point", {"x": -1, "y": 1}),  # not a field element
    ("base_point", {"x": "f" * 64, "y": 1}),  # hex, but not below p
    ("base_point", {"x": 1, "y": True}),
    ("scalar", {"pick_seed": 1.5}),
    ("scalar", {"ones_below_msb": True}),
    ("leakage", {"alpha": 10**400}),  # finite, but past the float range
])
def test_bad_timing_and_leakage_values(tmp_path, section, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: bad}))
    assert main(["simulate", "--config", str(cfg),
                 "--out-dir", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("cfg, message", [
    ({"unknown_key": 1}, "unknown config keys: ['unknown_key']"),
    ({"scalar": {"bitz": 3}}, "unknown config keys: ['scalar.bitz']"),
    ({"base_point": {"x": 1.5, "y": 2}},
     "coordinates must be ints or hex strings"),
    ({"timing": {"addresses": {"X1": 5}}},
     "unknown config keys: ['timing.addresses']"),
    ({"leakage": {"base_levels": {"mult:pp": 2.0}}},
     "unknown config keys: ['leakage.base_levels']"),
    ({"scalar": {"hex": "0x1b"}}, "unknown config keys: ['scalar.hex']"),
    ({"base_point": {"x": 1, "y": 2, "z": 3}},
     "unknown config keys: ['base_point.z']"),
    ({"leakage": {"alphaa": 1}}, "unknown config keys: ['leakage.alphaa']"),
    ({"scalar": ""}, "scalar must be hexadecimal text ('0x' optional) or "
                     "binary text with a '0b' prefix, not ''"),
    ({"scalar": "xyz"}, "scalar must be hexadecimal text ('0x' optional) or "
                        "binary text with a '0b' prefix, not 'xyz'"),
    ({"scalar": "0b1"}, "scalar must be at least 2: k = 1 executes no "
                        "pattern"),
    ({"base_point": "foo"}, 'base_point must be "generator" or an object '
                            "with x and y, not 'foo'"),
    ({"base_point": [1, 2]}, 'base_point must be "generator" or an object '
                             "with x and y, not [1, 2]"),
    ({"base_point": {"x": "zz", "y": 1}},
     "coordinates must be ints or hex strings, not x = 'zz'"),
    ({"base_point": {"x": 1, "y": 2}}, "(0x1, 0x2) not on P-256"),
    ({"scalar": "f" * 64},
     "scalar outside [2, n) on P-256, whose group order is n = "
     "0xffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"),
], ids=["key", "scalar-key", "coordinate", "timing-addresses", "base-levels",
        "scalar-hex", "base-point-key", "leakage-key", "scalar-empty",
        "scalar-text", "scalar-one", "base-point-text", "base-point-list",
        "coordinate-text", "base-point-off-curve", "scalar-order"])
def test_config_error_names_its_cause(tmp_path, capsys, cfg, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path),
                 "--out-dir", str(tmp_path / "run")]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["simulate", "diagram"])
@pytest.mark.parametrize("cfg", [
    {"leakage": {"alpha": "x"}},
    {"curve": 5},
    {"scalar": {"bits": 2000}},
    {"scalar": "1"},
    {"leakage": {"base_levels": {"mult:pp": 2.0}}},
], ids=["alpha", "curve", "bits", "scalar-one", "base-levels"])
def test_every_subcommand_rejects_what_simulate_rejects(tmp_path, command,
                                                        cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path),
                 "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_deeply_nested_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[" * 100000 + "]" * 100000)
    assert main(["simulate", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "run")]) == EXIT_CONFIG
    assert "config is not valid JSON" in capsys.readouterr().err


def test_default_scenario_is_the_reference():
    curve = get_curve("P-256")
    got = load_scenario(None)
    assert got == Scenario(
        curve=curve, scalar=scalar_for_pattern_counts(256, 145, curve, seed=1),
        point=AffinePoint(curve.gx, curve.gy), timing=Timing(),
        leakage=LeakageParams(alpha=1.0, sigma=0.05, seed=1,
                              samples_per_cycle=300))
    assert got.leakage == LeakageParams()
    assert got.scalar.bit_length == 256
    assert sum(got.scalar.bits[1:]) == 145
    # the benchmark restates the reference shapes; they must agree
    spec = importlib.util.spec_from_file_location("bench_jobs",
                                                  REPO / "bench" / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    assert (jobs.BITS, jobs.ONES, jobs.SAMPLES_PER_CYCLE) == (
        got.scalar.bit_length, sum(got.scalar.bits[1:]),
        got.leakage.samples_per_cycle)


def test_readme_scenario_example_loads(tmp_path):
    # the JSON examples in README are configs the boundary accepts as written
    readme = (REPO / "README.md").read_text()
    scenario, base_point = (block.split("```", 1)[0]
                            for block in readme.split("```json\n")[1:])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(scenario)
    got = load_scenario(cfg)
    assert got.leakage == LeakageParams(alpha=1.0, sigma=0.1, seed=7,
                                        samples_per_cycle=300)
    assert got.timing == Timing(mul_plan="karatsuba4", overlap=True)
    cfg.write_text(base_point)
    assert load_scenario(cfg).point == TWO_G


# every key the config knows and sometimes a misspelling, with values that
# are plausible half the time and any JSON value otherwise
CONFIG_KEYS = st.sampled_from(
    [(key,) for key in DEFAULT_CONFIG]
    + [(name, key) for name, known in SECTION_KEYS.items()
       for key in sorted(known)])
MISSPELT_KEYS = st.sampled_from(
    [("unknown_key",), ("scalar", "bitz"), ("base_point", "z"),
     ("leakage", "alphaa"), ("timing", "addresses")])
PLAUSIBLE = (st.integers(0, 300) | st.floats(0, 2) | st.booleans()
             | st.sampled_from(["P-256", "toy23", "generator", "0x1b",
                                "karatsuba4", "classical"]))
JSON_VALUES = PLAUSIBLE | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(entries=st.lists(st.tuples(CONFIG_KEYS, JSON_VALUES), max_size=5),
       typos=st.lists(st.tuples(MISSPELT_KEYS, JSON_VALUES), max_size=1))
def test_any_config_loads_or_is_config_error(tmp_path_factory, entries,
                                             typos):
    cfg = {}
    for keys, value in entries + typos:
        if len(keys) == 1:
            cfg[keys[0]] = value
        elif isinstance(cfg.setdefault(keys[0], {}), dict):
            cfg[keys[0]][keys[1]] = value
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(cfg))
    try:
        scenario = load_scenario(path)
    except ValueError:
        return
    assert isinstance(scenario, Scenario)


@pytest.mark.parametrize("text", ["[1, 2]", "5", '"0x1b"', "null"])
def test_config_must_be_an_object(tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["simulate", "--config", str(cfg),
                 "--out-dir", str(tmp_path)]) == EXIT_CONFIG


def test_sidecar_missing_key_is_io_error(tmp_path, capsys):
    cfg = small_config(tmp_path)
    out = tmp_path / "run"
    main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
    meta = json.loads((out / "trace.json").read_text())
    del meta["cycles_per_pattern"]
    (out / "trace.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert main(["attack", "--trace", str(out / "trace.bin"),
                 "--out-dir", str(out / "report")]) == EXIT_IO
    assert "cycles_per_pattern" in capsys.readouterr().err


@pytest.mark.parametrize("raw, message", [
    (b"[1]", "trace metadata is not a JSON object"),
    (b'\xff\xfe{"a":1}', "cannot read trace metadata"),  # not UTF-8
    (b'{"seed": ' + b"9" * 5000 + b"}", "cannot read trace metadata"),
    (b"[" * 100000 + b"]" * 100000, "cannot read trace metadata"),
], ids=["list", "not-utf8", "long-int", "deep"])
def test_sidecar_that_is_not_an_object_is_io_error(tmp_path, capsys, raw,
                                                   message):
    cfg = small_config(tmp_path)
    out = tmp_path / "run"
    main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
    (out / "trace.json").write_bytes(raw)
    capsys.readouterr()
    assert main(["attack", "--trace", str(out / "trace.bin"),
                 "--out-dir", str(out / "report")]) == EXIT_IO
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key, edit", [
    ("dtype", lambda meta: "zz"),
    ("ground_truth", lambda meta: 5),
    ("ground_truth", lambda meta: "A" + meta["ground_truth"][1:]),  # grammar
    ("ground_truth", lambda meta: meta["ground_truth"][:-1]),  # one short
], ids=["dtype", "truth-type", "truth-grammar", "truth-length"])
def test_bad_sidecar_is_io_error(tmp_path, capsys, key, edit):
    cfg = small_config(tmp_path)
    out = tmp_path / "run"
    main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
    meta = json.loads((out / "trace.json").read_text())
    meta[key] = edit(meta)
    (out / "trace.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert main(["attack", "--trace", str(out / "trace.bin"),
                 "--out-dir", str(out / "report")]) == EXIT_IO
    assert key in capsys.readouterr().err
