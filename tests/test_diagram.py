"""Schedule diagrams: add/sub colours and the text grid."""

from atomspa.diagram import _op_kind_by_cycle, text_grid
from atomspa.sched import ScheduleError, Timing, build_schedules


def test_both_patterns_colour_each_add_sub_cycle_alike():
    # every schedulable config of mul_plan x overlap x mult_wb_lag 0..19
    built = 0
    for plan in ("karatsuba4", "classical"):
        for overlap in (True, False):
            for lag in range(20):
                try:
                    d, a = build_schedules(Timing(
                        mul_plan=plan, overlap=overlap, mult_wb_lag=lag))
                except ScheduleError:
                    continue
                built += 1
                assert _op_kind_by_cycle(d) == _op_kind_by_cycle(a), \
                    (plan, overlap, lag)
    assert built == 56


def test_forwarded_first_operand_keeps_its_operation_colour():
    d, a = build_schedules()
    # in D, op 13's product reaches op 14 (sub) in its write-back at 72
    assert d.op_cycles[13]["writeback+load"] == (72,)
    assert d.op_cycles[14]["fetch2"] == (73,)
    assert _op_kind_by_cycle(d)[72] == _op_kind_by_cycle(a)[72] == "sub"


def test_classical_grid_labels_all_sixteen_partial_products():
    d, _ = build_schedules(Timing(mul_plan="classical"))
    row = next(line for line in text_grid(d).splitlines()
               if line.startswith("mult"))
    cells = [row[i:i + 4].strip() for i in range(9, len(row), 4)]
    steps = [c for c in cells if c.startswith("P")]
    assert sorted(set(steps)) == sorted(
        [f"PP{i}" for i in range(1, 10)] + [f"P{i}" for i in range(10, 17)])
    assert all(steps.count(s) == 10 for s in set(steps))


def test_grid_names_both_receivers_of_a_forwarded_value():
    # a forwarding write-back latches a register and a unit in one cycle
    forwarded = 0
    for sched in build_schedules():
        lines = text_grid(sched).splitlines()[1:]
        assert len({len(line) for line in lines}) == 1
        rows = {line[:9].strip(): [line[i:i + 4].strip()
                                   for i in range(9, len(line), 4)]
                for line in lines}
        for ev in sched.events:
            if len(ev.dst_names) == 2:
                forwarded += 1
                reg, unit = ev.dst_names
                assert rows["bus dst"][ev.cycle - 1] == reg
                assert rows["fwd dst"][ev.cycle - 1] == unit[:3]
    assert forwarded == 8
