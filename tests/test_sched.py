"""Cycle schedule: atomicity, timing, addressing differences, dataflow."""

import hashlib
import random
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from atomspa.field import get_curve
from atomspa.atoms import (AffinePoint, DOUBLE_PATTERN, EXT_QX, EXT_QY,
                           PATTERNS, REGISTER_NAMES, fresh_registers, k_mul,
                           reference_k_mul, run_pattern, to_affine)
from atomspa.sched import (MULT, ScheduleError, Timing, Transaction,
                           _Scheduler, _fillers, _first_access, _issue_order,
                           addressing_diff, build_schedules)

P256 = get_curve("P-256")
STATE = ("X1", "X2", "X3", "Z1", "Z2")
_ARITH = {"mul": P256.field.mul, "add": P256.field.add,
          "sub": P256.field.sub, "copy": lambda a: a}
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
    fillers = {kind: _fillers(ops) for kind, ops in PATTERNS.items()}
    assert fillers["D"] == frozenset()
    assert fillers["A"] == frozenset({2, 5, 8})
    # the scheduler hoists a multiplication without asking whether it is
    # a filler: every filler op is an add
    for kind, indices in fillers.items():
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
    indices = {overlap: [DOUBLE_PATTERN[pos].index
                         for pos in _issue_order(PATTERNS, overlap)]
               for overlap in (False, True)}
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
        lo, hi = (sch.placed["D", n, 1] for n in (6, 7))
        c = next(c for c in range(lo, hi) if c not in bus)
        bus[c] = Transaction("X1", ("R0",), 1, "fetch1", 6)

    _tamper_with_run(monkeypatch, stray)
    with pytest.raises(ScheduleError, match="periodic"):
        build_schedules()


def test_uneven_window_starts_are_no_steady_state(monkeypatch):
    def shift(sch):
        sch.placed["D", 7, 1] += 1

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


def _swapped(ops):
    """ops with the two operands of every mul and add swapped."""
    return tuple(replace(op, src1=op.src2, src2=op.src1)
                 if op.kind in ("mul", "add") else op for op in ops)


@pytest.mark.parametrize("timing, same, swapped", [
    (Timing(), (92, 0), (110, 49)),
    (Timing(overlap=False), (128, 0), (136, 47)),
    (Timing(mul_plan="classical"), (162, 0), (180, 49)),
], ids=["default", "overlap-off", "classical"])
def test_any_aligned_pair_schedules(timing, same, swapped):
    # the doubling against itself addresses the bus alike in every cycle
    d, a = _Scheduler(timing, {"D": DOUBLE_PATTERN,
                               "A": DOUBLE_PATTERN}).windows()
    assert d.events == a.events
    assert (d.cycle_count, len(addressing_diff(d, a))) == same
    # a commutative swap in the addition moves its fetches and its leak
    d, a = _Scheduler(timing, {"D": DOUBLE_PATTERN,
                               "A": _swapped(PATTERNS["A"])}).windows()
    assert d.cycle_count == a.cycle_count
    assert (d.cycle_count, len(addressing_diff(d, a))) == swapped


def test_misaligned_pair_is_refused():
    moved = list(PATTERNS["A"])
    moved[2], moved[3] = moved[3], moved[2]  # the sub at 3 after the mul at 4
    with pytest.raises(ScheduleError, match="A has mul at position 3 "
                                            "where D has sub"):
        _Scheduler(Timing(), {"D": DOUBLE_PATTERN, "A": tuple(moved)})
    with pytest.raises(ScheduleError, match="A has no op at position 21 "
                                            "where D has sub"):
        _Scheduler(Timing(), {"D": DOUBLE_PATTERN, "A": PATTERNS["A"][:-1]})


def test_schedule_dataflow_matches_repeated_doubling(schedulable_grid):
    """Bus-level replay of a doubling-only run reproduces 2^n * G.

    Checked over every schedulable config of the timing grid: both
    multiplier plans, overlap on and off, and multiplier write-back lags
    0..19.  Each gives identical D/A block states, at most one register
    receiver per cycle, and a correct replay.

    Operand values are captured at the scheduled load cycles and results
    are published at the scheduled write-back cycles.  A fetch placed before
    its producer's write-back would capture a stale value and corrupt the
    final point, so this exercises the schedule's dependency handling,
    including port-forwarded loads and the silent repeat-fetch latches.
    """
    g = AffinePoint(P256.gx, P256.gy)
    for timing, d, a in schedulable_grid:
        assert [e.mult_state for e in d.events] == \
            [e.mult_state for e in a.events], timing
        assert [e.addsub_state for e in d.events] == \
            [e.addsub_state for e in a.events], timing
        for ev in d.events + a.events:
            regs = [r for r in ev.dst_names if r in REGISTER_NAMES]
            assert len(regs) <= 1, (timing, ev)
        got = to_affine(_replay(timing, PATTERNS, "DDDD",
                                fresh_registers(g)), P256)
        want = reference_k_mul(1 << 4, g, P256)
        assert (got.x, got.y) == (want.x, want.y), timing


def test_schedule_dataflow_matches_repeated_additions(schedulable_grid):
    """Bus-level replay of an addition-only run matches run_pattern.

    The addition pattern adds the filler operations, which read whatever
    their registers hold and whose results are dead, and the external
    QX/QY ports.  Starting from random register values, the five
    point registers must equal those of the same number of run_pattern("A")
    calls on the same input.
    """
    start = _random_registers()
    q = AffinePoint(start.pop(EXT_QX), start.pop(EXT_QY))
    want = start
    for _ in range(4):
        want = run_pattern("A", want, P256, q)
    for timing, _d, _a in schedulable_grid:
        got = _replay(timing, PATTERNS, "AAAA", _random_registers())
        for reg in STATE:
            assert got[reg] == want[reg], (timing, reg)


def test_k_mul_run_replays_on_the_timing_grid(schedulable_grid):
    # the run joins the windows as a trace does: D after D, A after D and
    # D after A, so each pattern's tail meets the other kind's head
    g = AffinePoint(P256.gx, P256.gy)
    want, seq = k_mul(0b1011, g, P256)
    seq = "".join(seq)
    assert seq == "DDADA"
    start = dict(fresh_registers(g), **{EXT_QX: g.x, EXT_QY: g.y})
    for timing, _d, _a in schedulable_grid:
        got = to_affine(_check_replay(timing, PATTERNS, seq, start), P256)
        assert (got.x, got.y) == (want.x, want.y), timing


def _random_registers():
    """Seeded random values of the nine registers and the two ports; the
    ports' addend is off the curve, which run_pattern does not check."""
    rng = random.Random(7)
    return {r: rng.randrange(P256.field.p)
            for r in (*REGISTER_NAMES, EXT_QX, EXT_QY)}


def _replay(timing, tables, seq, regs):
    """The register file after the run seq (a string of kinds) from regs
    (ports included), replayed from the scheduler's bus transactions.

    Pattern i of the run is instance i of kind seq[i]; one more instance is
    scheduled, so every result of the run lands.  An op captures the bus
    values of its fetch cycles, the cycle placed records and the next (a
    copy only the first), and its result lands at its write-back.
    """
    sch = _Scheduler(timing, tables).run(len(seq) + 1)
    run = dict(enumerate(seq))
    ops = {kind: {op.index: op for op in table}
           for kind, table in tables.items()}
    bus, reader = {}, {}
    for (kind, n, i), c in sch.placed.items():
        if run.get(n) == kind:
            width = 1 if ops[kind][i].kind == "copy" else 2
            reader.update((f, (n, i)) for f in range(c, c + width))
    for kind in tables:
        for c, tx in sch.ps[kind].bus.items():
            if run.get(tx.instance) == kind:
                assert c not in bus, f"{timing} {seq}: two drivers in {c}"
                bus[c] = ops[kind][tx.op_index], tx
    regs = dict(regs)
    operands = {}
    for c in sorted(bus):
        op, tx = bus[c]
        if tx.role.startswith("writeback"):
            value = _ARITH[op.kind](*operands.pop((tx.instance, op.index)))
            regs[op.dst] = value
        else:  # a register or a port drives the bus
            value = regs[tx.src]
        if c in reader:
            operands.setdefault(reader[c], []).append(value)
        if tx.role == "copy":
            regs[op.dst] = value
    return regs


def _in_order(tables, seq, regs):
    """The register file after the run seq from regs, in table order."""
    regs = dict(regs)
    for kind in seq:
        for op in tables[kind]:
            regs[op.dst] = _ARITH[op.kind](
                *(regs[s] for s in (op.src1, op.src2) if s))
    return regs


def _check_replay(timing, tables, seq, regs):
    """The run replays on the bus as it executes in order; returns the
    replayed register file."""
    got = _replay(timing, tables, seq, regs)
    want = _in_order(tables, seq, regs)
    for reg in STATE:
        assert got[reg] == want[reg], (timing, seq, reg)
    return got


def _check_one_kind_runs(timing, tables):
    """Four patterns of each table replay in order from random registers."""
    for kind in tables:
        _check_replay(timing, tables, kind * 4, _random_registers())


def _with(ops, index, **fields):
    """ops with the named fields of op index replaced."""
    return tuple(replace(op, **fields) if op.index == index else op
                 for op in ops)


def _doubling_with(index, **fields):
    """The reference pair with one op of the doubling changed."""
    return {"D": _with(DOUBLE_PATTERN, index, **fields), "A": PATTERNS["A"]}


# the doubling whose copy takes op 19's product, still in the multiplier
STALE_COPY = _doubling_with(20, src1="X2")
# op 5 as add X2 <- R3 + Z1 reads R3 before op 6 writes it
READ_BEFORE_MUL = _doubling_with(5, src1="R3")
# op 20 as copy X2 <- R3 overwrites op 19's product, still in the multiplier
COPY_OVER_PRODUCT = _doubling_with(20, dst="X2")
# op 2 as add R0 <- X2 + X2 overwrites op 1's square, still in the multiplier
SUM_OVER_SQUARE = _doubling_with(2, dst="R0")
# op 20 as copy X2 <- X2 reads op 19's product, which lands once, before it
COPY_ONTO_ITSELF = _doubling_with(20, src1="X2", dst="X2")


THREE_TIMINGS = pytest.mark.parametrize("timing", [
    Timing(), Timing(overlap=False), Timing(mul_plan="classical"),
], ids=["default", "overlap-off", "classical"])


@THREE_TIMINGS
@pytest.mark.parametrize("tables", [
    STALE_COPY,
    {"D": DOUBLE_PATTERN, "A": DOUBLE_PATTERN},
    {"D": DOUBLE_PATTERN, "A": _swapped(PATTERNS["A"])},
], ids=["stale-copy", "doubling-twice", "swapped-addition"])
def test_aligned_pair_replays_in_order(timing, tables):
    _check_one_kind_runs(timing, tables)


@THREE_TIMINGS
def test_copy_lands_after_its_sources_write_back(timing):
    # the copy reads op 19's product from its register, the cycle after
    # the product's write-back
    d, a = _Scheduler(timing, STALE_COPY).windows()
    (wb,) = d.op_cycles[19]["writeback"]
    assert d.op_cycles[20]["copy"] == a.op_cycles[20]["copy"] == (wb + 1,)


_SWAPPABLE = [op.index for op in DOUBLE_PATTERN if op.kind in ("mul", "add")]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(swaps=st.fixed_dictionaries(
           {kind: st.sets(st.sampled_from(_SWAPPABLE)) for kind in PATTERNS}),
       timing=st.sampled_from([Timing(), Timing(overlap=False)]))
def test_operand_swapped_pairs_replay_in_order(swaps, timing):
    # commutative operand orders, the pairs a register allocation search
    # explores, all schedule and keep the tables' dataflow
    tables = {kind: tuple(replace(op, src1=op.src2, src2=op.src1)
                          if op.index in swaps[kind] else op for op in ops)
              for kind, ops in PATTERNS.items()}
    _check_one_kind_runs(timing, tables)


def test_issue_order_keeps_a_read_ahead_of_the_write():
    # op 6 writes R3, which this doubling's op 5 reads: op 6 stays behind
    indices = [DOUBLE_PATTERN[pos].index
               for pos in _issue_order(READ_BEFORE_MUL, True)]
    assert indices == list(range(1, 22))


@THREE_TIMINGS
@pytest.mark.parametrize("tables", [READ_BEFORE_MUL, COPY_OVER_PRODUCT,
                                    COPY_ONTO_ITSELF],
                         ids=["read-before-mul", "copy-over-product",
                              "copy-onto-itself"])
def test_hazard_pairs_replay_in_order(timing, tables):
    _check_one_kind_runs(timing, tables)


@THREE_TIMINGS
def test_a_result_never_lands_under_an_older_one(timing):
    # op 1's square, bound for R0 too, cannot leave the multiplier before
    # op 2's sum is computed, so the pair is refused
    with pytest.raises(ScheduleError, match="cannot write back MULT result"):
        _Scheduler(timing, SUM_OVER_SQUARE).run(2)


# every single-register mutation of either table: (kind, op index, field,
# register), 994 in all
_MUTATIONS = [(kind, op.index, field, reg)
              for kind, ops in PATTERNS.items() for op in ops
              for field in ("dst", "src1", "src2") if getattr(op, field)
              for reg in REGISTER_NAMES if reg != getattr(op, field)]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(mutation=st.sampled_from(_MUTATIONS))
def test_single_register_mutations_replay_in_order_or_are_refused(mutation):
    kind, index, field, reg = mutation
    tables = dict(PATTERNS, **{kind: _with(PATTERNS[kind], index,
                                           **{field: reg})})
    try:
        _check_one_kind_runs(Timing(), tables)
    except ScheduleError:
        pass


def _mutated(mutation):
    """The reference pair with one register name of one op changed."""
    kind, index, field, reg = mutation
    return dict(PATTERNS, **{kind: _with(PATTERNS[kind], index,
                                         **{field: reg})})


# the mutations that replay in order as one-kind runs but break as D/A runs
# at Timing(): _Scheduler books each kind's bus against that kind's own
# previous instance, never against the other kind's tail.  In the run DDADA
# 19 of them put two drivers on the bus in one cycle (the first 19 here) and
# 8 end with wrong registers; a mend of the D/A join flips these tests.
D_A_JOIN_FAILURES = [
    ("D", 1, "src1", "X2"), ("D", 1, "src2", "X2"), ("D", 21, "dst", "X3"),
    ("A", 1, "src1", "X2"), ("A", 1, "src2", "X2"),
    *(("A", 19, "dst", reg) for reg in ("X1", "X2", "Z1", "Z2", "R1")),
    ("A", 21, "dst", "Z1"),
    *(("A", 21, "src2", reg)
      for reg in ("X1", "X2", "X3", "Z1", "Z2", "R1", "R2", "R3")),
    ("D", 19, "dst", "Z1"),
    *(("D", 21, "dst", reg) for reg in ("X1", "Z1", "Z2", "R1", "R2", "R3")),
    ("A", 21, "dst", "X3"),
]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the scheduler does not book the D/A join")
@pytest.mark.parametrize("mutation", D_A_JOIN_FAILURES,
                         ids=["-".join(map(str, m))
                              for m in D_A_JOIN_FAILURES])
def test_d_a_join_mutations_replay_in_order(mutation):
    _check_replay(Timing(), _mutated(mutation), "DDADA", _random_registers())


@settings(max_examples=20, derandomize=True, deadline=None)
@given(mutation=st.sampled_from([m for m in _MUTATIONS
                                 if m not in D_A_JOIN_FAILURES]))
def test_other_mutations_replay_as_d_a_runs_or_are_refused(mutation):
    try:
        for seq in ("DDADA", "DADDADA", "DADADA"):
            _check_replay(Timing(), _mutated(mutation), seq,
                          _random_registers())
    except ScheduleError:
        pass
