"""Schedule diagrams: add/sub colours and the text grid."""

import hashlib

from atomspa.diagram import schedule_svg, text_grid
from atomspa.sched import Timing, addressing_diff, build_schedules


def test_both_patterns_colour_each_add_sub_cycle_alike(schedulable_grid):
    for t, d, a in schedulable_grid:
        ops = [ev.addsub_op for ev in d.events]
        assert ops == [ev.addsub_op for ev in a.events], t
        # an operation owns exactly the cycles where the unit is busy
        assert all((op is None) == (ev.addsub_state == "idle")
                   and op in (None, "add", "sub")
                   for op, ev in zip(ops, d.events)), t


def test_diagrams_are_pinned(schedulable_grid):
    # every byte of both grids, both SVGs and the overlay over the grid
    h = hashlib.sha256()
    for _t, d, a in schedulable_grid:
        for s in (d, a):
            h.update(schedule_svg(s).encode())
            h.update(text_grid(s).encode())
        h.update(schedule_svg(d, overlay_diff=addressing_diff(d, a),
                              title="doubling with addressing differences")
                 .encode())
    assert h.hexdigest() == (
        "fb5d1a8a9e6045c146bf9cba3cc5edef666eb5708099726fd6397d9356b20292")


def test_forwarded_first_operand_keeps_its_operation_colour():
    d, a = build_schedules()
    # in D, op 13's product reaches op 14 (sub) in its write-back at 72
    assert d.op_cycles[13]["writeback+load"] == (72,)
    assert d.op_cycles[14]["fetch2"] == (73,)
    assert d.events[71].addsub_op == a.events[71].addsub_op == "sub"


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
