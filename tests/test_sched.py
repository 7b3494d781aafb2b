"""Cycle schedule: atomicity, timing, addressing differences, dataflow."""

import hashlib
import random
import time

import pytest

from atomspa.field import get_curve
from atomspa.atoms import (AffinePoint, DOUBLE_PATTERN, EXT_QX, EXT_QY,
                           PATTERNS, REGISTER_NAMES, fresh_registers,
                           reference_k_mul, run_pattern, to_affine)
from atomspa.sched import (DUMMY_OPS, ISSUE_ORDER, MULT, ScheduleError, Timing,
                           Transaction, _Scheduler, _first_access,
                           addressing_diff, build_schedules)

D_SCHED, A_SCHED = build_schedules()
DIFF = addressing_diff(D_SCHED, A_SCHED)
DIFF_CYCLES = {c for c, _ in DIFF}


def test_cycle_count_is_109():
    assert D_SCHED.cycle_count == 109
    assert A_SCHED.cycle_count == 109


def test_block_state_sequences_identical():
    assert [e.mult_state for e in D_SCHED.events] == \
        [e.mult_state for e in A_SCHED.events]
    assert [e.addsub_state for e in D_SCHED.events] == \
        [e.addsub_state for e in A_SCHED.events]
    assert [e.addsub_op for e in D_SCHED.events] == \
        [e.addsub_op for e in A_SCHED.events]


def test_ten_multiplications_per_pattern():
    assert sum(1 for e in D_SCHED.events if e.mult_state == "pp1") == 10
    # nine partial products each
    pp = sum(1 for e in D_SCHED.events if e.mult_state.startswith("pp"))
    assert pp == 90


def test_six_of_ten_multiplications_overlap_fetches():
    pp_cycles = {e.cycle for e in D_SCHED.events
                 if e.mult_state.startswith("pp")}
    mult_ops = [op.index for op in DOUBLE_PATTERN if op.kind == "mul"]
    overlapping = 0
    for i in mult_ops:
        cycles = []
        for sched in (D_SCHED, A_SCHED):
            for role, cs in sched.op_cycles.get(i, {}).items():
                if role.startswith(("fetch", "latch")) or role.endswith("load"):
                    cycles.extend(cs)
        if any(c in pp_cycles for c in cycles):
            overlapping += 1
    assert overlapping == 6


def test_overlap_disabled_is_strictly_slower():
    d, a = build_schedules(Timing(overlap=False))
    assert d.cycle_count > 109
    assert [e.mult_state for e in d.events] == [e.mult_state for e in a.events]


def test_single_bus_driver_per_cycle():
    for sched in (D_SCHED, A_SCHED):
        for ev in sched.events:
            if ev.dst_names:
                # at most one register receiver plus possibly a block port
                regs = [d for d in ev.dst_names if d in REGISTER_NAMES]
                assert len(regs) <= 1


def test_schedule_determinism():
    d2, a2 = build_schedules()
    assert d2.events == D_SCHED.events
    assert a2.events == A_SCHED.events


def test_diff_nonempty_and_final_writeback_destination():
    assert DIFF
    info = dict(DIFF)[1]
    assert info["d_src"] == MULT and info["a_src"] == MULT
    assert "X2" in info["d_dst"]
    assert "R0" in info["a_dst"]


def test_diff_includes_op8_first_operand_source():
    f1 = D_SCHED.op_cycles[8]["fetch1"][0]
    assert f1 == A_SCHED.op_cycles[8]["fetch1"][0]
    assert f1 in DIFF_CYCLES
    info = dict(DIFF)[f1]
    assert info["d_src"] == "X1" and info["a_src"] == "Z2"
    # the second operand comes from the same register in both patterns
    f2 = D_SCHED.op_cycles[8]["fetch2"][0]
    assert f2 not in DIFF_CYCLES
    assert D_SCHED.events[f2 - 1].src_name == "R0"
    assert A_SCHED.events[f2 - 1].src_name == "R0"


def test_diff_excludes_op2_cycles():
    cycles = set()
    for sched in (D_SCHED, A_SCHED):
        for cs in sched.op_cycles[2].values():
            cycles.update(cs)
    assert cycles
    assert not (cycles & DIFF_CYCLES)
    # same registers, same addressing: first addition reads X2 twice into R2
    f1 = D_SCHED.op_cycles[2]["fetch1"][0]
    assert D_SCHED.events[f1 - 1].src_name == "X2"
    assert A_SCHED.events[f1 - 1].src_name == "X2"


def test_diff_length_checked():
    short = build_schedules(Timing(overlap=False))[0]
    with pytest.raises(ValueError):
        addressing_diff(D_SCHED, short)


def test_op_roles_complete():
    # every operation appears with loads (or a copy) in both schedules
    for sched in (D_SCHED, A_SCHED):
        for op in DOUBLE_PATTERN:
            roles = sched.op_cycles[op.index]
            if op.kind == "copy":
                assert "copy" in roles
            else:
                has_load = any(r.startswith(("fetch", "latch"))
                               or r.endswith("load") for r in roles)
                assert has_load, (sched.kind, op.index, roles)


def test_filler_ops_only_in_addition():
    assert DUMMY_OPS["D"] == frozenset()
    assert DUMMY_OPS["A"] == frozenset({2, 5, 8})
    # the scheduler hoists a multiplication without asking whether it is
    # a filler: every filler op is an add
    for kind, indices in DUMMY_OPS.items():
        assert all(op.kind == "add" for op in PATTERNS[kind]
                   if op.index in indices)


def test_filler_rule_needs_no_pattern_boundary():
    # an op whose result the rest of its own pattern never touches counts
    # as live; so it is, since some pattern reads that register before
    # writing it, and liveness never has to follow it into the next pattern
    for table in PATTERNS.values():
        for i, op in enumerate(table):
            if _first_access(op.dst, table[i + 1:]) is None:
                assert any(_first_access(op.dst, succ) == "read"
                           for succ in PATTERNS.values()), op


def test_issue_order_hoists_op_6_past_op_5():
    # with overlap the multiplication at op 6 issues before the add at op 5,
    # whose result it does not read; without it, table order
    indices = {overlap: [DOUBLE_PATTERN[pos].index for pos in order]
               for overlap, order in ISSUE_ORDER.items()}
    assert indices == {False: list(range(1, 22)),
                       True: [1, 2, 3, 4, 6, 5, *range(7, 22)]}


def test_square_rule():
    # a square forwarded into the multiplier during its producer's
    # write-back fetches the register one cycle later; a square whose first
    # operand is fetched latches the second silently
    squares = {kind: [op.index for op in ops
                      if op.kind == "mul" and op.src1 == op.src2]
               for kind, ops in PATTERNS.items()}
    assert squares == {"D": [1, 13, 15], "A": [4, 13, 15]}
    ops = {op.index: op for op in PATTERNS["A"]}
    for i in squares["A"]:
        (f2,) = A_SCHED.op_cycles[i]["fetch2"]
        assert "fetch1" not in A_SCHED.op_cycles[i]
        forwarded, fetched = A_SCHED.events[f2 - 2], A_SCHED.events[f2 - 1]
        assert forwarded.dst_names == (ops[i].src1, MULT)
        assert (fetched.src_name, fetched.dst_names) == (ops[i].src1, (MULT,))
    # op 4 takes R1 in cycles 13 and 14
    assert A_SCHED.op_cycles[4]["fetch2"] == (14,)
    for i in squares["D"]:
        (f1,) = D_SCHED.op_cycles[i]["fetch1"]
        assert D_SCHED.op_cycles[i]["latch2"] == (f1 + 1,)
        assert D_SCHED.events[f1].src_name is None


def test_unschedulable_configuration_raises():
    # a slow write-back path cannot drain results before the next product
    with pytest.raises(ScheduleError):
        build_schedules(Timing(mult_wb_lag=9))


def test_schedules_of_the_timing_grid_are_pinned(timing_grid):
    # every config of mul_plan x overlap x mult_wb_lag 0..19: the events
    # and op cycles of both patterns, or the error of an unschedulable one
    h = hashlib.sha256()
    built = 0
    for _t, scheds in timing_grid:
        if isinstance(scheds, ScheduleError):
            h.update(repr(str(scheds)).encode())
            continue
        built += 1
        for s in scheds:
            for ev in s.events:
                h.update(repr((ev.cycle, ev.src_name, ev.dst_names,
                               ev.mult_state, ev.addsub_state,
                               ev.reg_store)).encode())
            h.update(repr(sorted(s.op_cycles.items())).encode())
    assert built == 56
    assert h.hexdigest() == (
        "64e6af3d6997ce43f034d91b9167d278e64c27493aba7987b886ec871170bf14")


def test_unbounded_write_back_lag_runs_out_of_slots():
    # the lo + 4000 bound of the slot search is what ends it here
    t0 = time.perf_counter()
    with pytest.raises(ScheduleError, match="no slot"):
        build_schedules(Timing(mult_wb_lag=4000))
    assert time.perf_counter() - t0 < 1


def _tamper_with_run(monkeypatch, tamper):
    """Make every _Scheduler.run hand its result to tamper first."""
    run = _Scheduler.run

    def tampered(self, instances):
        sch = run(self, instances)
        tamper(sch)
        return sch

    monkeypatch.setattr(_Scheduler, "run", tampered)


def test_stray_bus_transaction_breaks_periodicity(monkeypatch):
    def stray(sch):
        bus = sch.ps["A"].bus
        lo, hi = sch.window_starts[-2:]
        c = next(c for c in range(lo, hi) if c not in bus)
        bus[c] = Transaction("X1", ("R0",), 1, "fetch1")

    _tamper_with_run(monkeypatch, stray)
    with pytest.raises(ScheduleError, match="periodic"):
        build_schedules()


def test_uneven_window_starts_are_no_steady_state(monkeypatch):
    def shift(sch):
        sch.window_starts[-1] += 1

    _tamper_with_run(monkeypatch, shift)
    with pytest.raises(ScheduleError, match="steady state"):
        build_schedules()


@pytest.mark.parametrize("bad", [{"mul_plan": "toom"},
                                 {"mult_wb_lag": -1}])
def test_bad_timing_values_raise(bad):
    with pytest.raises(ValueError):
        Timing(**bad)


@pytest.mark.parametrize("plan, cycles, diff, pp", [
    ("karatsuba4", 109, 46, 90),
    ("classical", 179, 46, 160),
])
def test_multiplier_plan_sets_pattern_length(plan, cycles, diff, pp):
    d, a = build_schedules(Timing(mul_plan=plan))
    assert d.cycle_count == a.cycle_count == cycles
    assert len(addressing_diff(d, a)) == diff
    assert sum(e.mult_state.startswith("pp") for e in d.events) == pp
    assert [e.mult_state for e in d.events] == [e.mult_state for e in a.events]
    assert [e.addsub_state for e in d.events] == \
        [e.addsub_state for e in a.events]


def test_schedule_dataflow_matches_repeated_doubling(schedulable_grid):
    """Bus-level replay of a doubling-only stream reproduces 2^n * G.

    Checked over the whole timing grid: both multiplier plans, overlap on
    and off, and multiplier write-back lags 0..10.  Every config either
    raises ScheduleError or gives identical D/A block states, at most one
    register receiver per cycle, and a correct replay.

    Operand values are captured at the scheduled load cycles and results
    are published at the scheduled write-back cycles.  A fetch placed before
    its producer's write-back would capture a stale value and corrupt the
    final point, so this exercises the schedule's dependency handling,
    including port-forwarded loads and the silent repeat-fetch latches.
    """
    curve = get_curve("P-256")
    g = AffinePoint(curve.gx, curve.gy)
    for timing, d, a in schedulable_grid:
        if timing.mult_wb_lag > 10:
            continue
        assert [e.mult_state for e in d.events] == \
            [e.mult_state for e in a.events], timing
        assert [e.addsub_state for e in d.events] == \
            [e.addsub_state for e in a.events], timing
        for ev in d.events + a.events:
            regs = [r for r in ev.dst_names if r in REGISTER_NAMES]
            assert len(regs) <= 1, (timing, ev)
        got = to_affine(_replay(timing, "D")[0], curve)
        want = reference_k_mul(1 << (REPLAYED - 1), g, curve)
        assert (got.x, got.y) == (want.x, want.y), timing


def test_schedule_dataflow_matches_repeated_additions(schedulable_grid):
    """Bus-level replay of an addition-only stream matches run_pattern.

    The addition pattern adds the filler operations, which read whatever
    their registers hold and whose results are dead, and the external
    QX/QY ports.  Starting from random register values, the five
    point registers must equal those of the same number of run_pattern("A")
    calls on the same input.
    """
    curve = get_curve("P-256")
    for timing, _d, _a in schedulable_grid:
        if timing.mult_wb_lag > 10:
            continue
        got, (want, q) = _replay(timing, "A")
        for _ in range(REPLAYED - 1):
            want = run_pattern("A", want, curve, q)
        for reg in ("X1", "X2", "X3", "Z1", "Z2"):
            assert got[reg] == want[reg], (timing, reg)


# instances scheduled per replay; all but the last are checked
REPLAYED = 5


class _RecordingScheduler(_Scheduler):
    """A scheduler that notes where each op of each instance was placed:
    fetches lists (instance, op_index, f1) of the unit ops, which fetch
    their operands at f1 and f1 + 1, and copies (instance, op_index, cycle)
    of the register copies."""

    def __init__(self, timing):
        super().__init__(timing)
        self.fetches = []
        self.copies = []

    def _schedule_unit(self, block, instance, ops):
        super()._schedule_unit(block, instance, ops)
        # the unit computes for its steps right after its two fetch cycles
        f1 = self.last_step[block] - 1 - self.steps[block]
        self.fetches.append((instance, ops["D"].index, f1))

    def _schedule_copy(self, instance, ops):
        before = set(self.ps["D"].bus)
        super()._schedule_copy(instance, ops)
        (cycle,) = set(self.ps["D"].bus) - before
        self.copies.append((instance, ops["D"].index, cycle))


def _replay(timing, kind):
    """Replay pattern `kind` on the bus of a REPLAYED-instance schedule.

    Returns the register file once every op of the first REPLAYED - 1
    instances has landed, and the (registers, addend) it started from.
    Doublings start from G; additions from seeded random registers and a
    random affine addend (run_pattern does not check its input).
    """
    curve = get_curve("P-256")
    f = curve.field
    if kind == "D":
        regs = fresh_registers(AffinePoint(curve.gx, curve.gy))
        q = None
    else:
        rng = random.Random(7)
        regs = {r: rng.randrange(f.p) for r in REGISTER_NAMES}
        q = AffinePoint(rng.randrange(f.p), rng.randrange(f.p))
    start = (dict(regs), q)
    ext = {EXT_QX: q.x, EXT_QY: q.y} if q else {}
    sch = _RecordingScheduler(timing).run(REPLAYED)
    bus = sch.ps[kind].bus
    ops = {op.index: op for op in PATTERNS[kind]}

    # per-instance fetch slots: where each op captures its two operands
    fetch_owner = {}
    for inst, idx, f1 in sch.fetches:
        fetch_owner[f1] = fetch_owner[f1 + 1] = (inst, idx)

    # a block holds one pending result, so each op's write-backs land in
    # instance order: the k-th write-back of op i belongs to instance k
    wb_owner = {}
    drained = {}
    landed = {(inst, idx): c for inst, idx, c in sch.copies}
    for cyc in sorted(bus):
        idx = bus[cyc].op_index
        if bus[cyc].role.startswith("writeback"):
            key = (drained.get(idx, 0), idx)
            drained[idx] = key[0] + 1
            wb_owner[cyc] = key
            landed[key] = cyc
    # the register file holds the state after instance n once every op of
    # instance n landed
    last = REPLAYED - 2
    cutoff = max(landed[(last, op.index)] for op in PATTERNS[kind])

    captured = {}
    snapshot = None

    def result_of(key):
        op = ops[key[1]]
        a, b = captured[key]
        if op.kind == "mul":
            return f.mul(a, b)
        if op.kind == "add":
            return f.add(a, b)
        return f.sub(a, b)

    for cyc in sorted(bus):
        if snapshot is None and cyc > cutoff:
            snapshot = dict(regs)
        tx = bus[cyc]
        op = ops[tx.op_index]
        if tx.role == "copy":
            regs[op.dst] = regs[tx.src]
            continue
        if cyc in wb_owner:
            key = wb_owner[cyc]
            assert len(captured[key]) == 2, f"{timing} {key} incomplete operands"
            value = result_of(key)
            regs[op.dst] = value
            bus_value = value
        else:  # fetch or silent latch: the register or port drives the bus
            bus_value = ext[tx.src] if tx.src in ext else regs[tx.src]
        if cyc in fetch_owner:
            captured.setdefault(fetch_owner[cyc], []).append(bus_value)
    return snapshot, start
