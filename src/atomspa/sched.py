"""Cycle-accurate schedule of the atomic patterns on the shared-bus machine.

The machine has one multiplier, one add/subtract unit, nine registers and two
external operand ports, all talking over a single bus: one source drives it
per clock cycle, the controller addresses the source and the receiver(s).
The multiplier takes two fetch cycles plus one cycle per partial product of
its segment plan (nine for karatsuba4, sixteen for classical); operand fetch
for the next product may overlap the last two partial products of the
current one, and a finished product may be written back while the next one
is already computing.  The adder/subtractor takes two fetch cycles plus one
processing cycle.  Each unit's compute steps, output cycles and write-back
lag live in one table, _Scheduler.units.

Both atomic patterns, the doubling D and the addition A, must exhibit the
identical block-state sequence, so both are placed together on one
timeline: each operation of the doubling and the operation at the same
position of the addition take the same cycles, the first ones where the
operands of both are ready, and only the registers they address differ.
The block states, and the add/sub operation that owns each cycle of that
unit, are recorded once, as each operation is placed.
The controller issues the operations in the order _issue_order gives:
table order, except that with overlap on, a multiplication issues ahead of
add/sub work with which it shares no register that either of them writes,
which moves op 6 ahead of op 5.  A square reads one register twice: when the first port
latches the value during its producer's write-back (writeback+load), the
second port fetches the register in the next cycle; otherwise the register
keeps driving the bus and the second port latches silently (latch2).
A register copy takes one bus cycle and reads its source by the fetch
rule: a source still held in a unit is written back first.  Every register
write (a unit's write-back, a forwarded load, a copy) takes its cycle from
one rule, _Scheduler._land: not before the result's earliest cycle, after
the register's last read, after any older result bound for that register,
on a free bus cycle; an older result still held in a unit is written back
first, so results bound for one register land in issue order.
A filler is an op whose result the rest of its own pattern overwrites
before reading it (addition ops 2, 5 and 8, as _fillers finds them); it
reads whatever its registers hold, so it waits for no operand and holds
back no write-back.
The schedule is the steady-state window between consecutive
first-multiplication starts: tail work of a pattern (final write-back, the
register copy, the last subtraction) spills over the boundary and lands at
the head of the next window, which is why the window's first cycle carries
the previous final-product write-back; likewise a window's last cycles may
carry the next pattern's first fetches.  Each Transaction names the
pattern instance it belongs to; _Scheduler.placed records once, for both
kinds, the cycle where each op of each instance was placed.

Besides atoms.PATTERNS, any pair {"D": ..., "A": ...} with the doubling's
op kind at every position schedules by _Scheduler(timing, tables).windows(),
with the fillers and the issue order of that pair.  Only the op kinds are
checked; the tests check dataflow: they join the instances a D/A run
executes, from _Scheduler(timing, tables).run(n), into one bus, and
replay it against in-order execution of the run.
"""

from dataclasses import dataclass
from itertools import zip_longest
from typing import NamedTuple

from atomspa.atoms import PATTERNS, REGISTER_NAMES
from atomspa.field import mul_schedule

MULT = "MULT"
ADDSUB = "ADDSUB"

# a register written back in cycle w can drive the bus from cycle w + 1
READABLE_LAG = 1


def mult_block_state(state):
    """Activity class of a multiplier state: pp1..ppN are all "pp"."""
    return "pp" if state.startswith("pp") else state


@dataclass(frozen=True)
class Timing:
    """Machine timing rules.  Defaults reproduce the reference design:
    109-cycle patterns with six of the ten multiplications pipelined."""

    mul_plan: str = "karatsuba4"  # multiplier segment plan: one pp cycle per step
    overlap: bool = True          # master switch for every overlap rule
    mult_wb_lag: int = 0          # product drivable this many cycles after the output cycle

    def __post_init__(self):
        mul_schedule(self.mul_plan)  # raises ValueError for an unknown plan
        if type(self.overlap) is not bool:
            raise ValueError(f"overlap must be true or false, not {self.overlap!r}")
        if type(self.mult_wb_lag) is not int or self.mult_wb_lag < 0:
            raise ValueError(
                f"mult_wb_lag must be an int >= 0, not {self.mult_wb_lag!r}")


class Transaction(NamedTuple):
    src: str
    dsts: tuple  # receiver names; at most one register plus possibly a block port
    op_index: int
    role: str    # fetch1 | fetch2 | latch2 | writeback | writeback+load | copy
    instance: int  # pattern instance of op_index: the producer's for a write-back


@dataclass(frozen=True)
class CycleEvent:
    cycle: int               # 1-based within the pattern window
    src_name: str            # None when no new addressing is issued
    dst_names: tuple
    mult_state: str
    addsub_state: str
    addsub_op: str           # "add"/"sub" op owning the add/sub cycle; None if idle
    reg_store: tuple         # registers latching a new value this cycle


@dataclass(frozen=True)
class PatternSchedule:
    kind: str
    events: tuple
    cycle_count: int
    op_cycles: dict          # op index -> {role: cycle or tuple of cycles}


class ScheduleError(ValueError):
    pass


def _first_access(reg, ops):
    """"read" or "write", whichever ops do to reg first; None if neither."""
    for op in ops:
        if reg in (op.src1, op.src2):
            return "read"
        if op.dst == reg:
            return "write"
    return None


def _fillers(ops):
    """Indices of the ops of one table whose result the rest of the table
    overwrites before reading it.  An op whose result the rest of its table
    never touches counts as live.
    """
    return frozenset(op.index for i, op in enumerate(ops)
                     if _first_access(op.dst, ops[i + 1:]) == "write")


def _share_a_write(a, b):
    """Whether ops a and b share a register that either of them writes."""
    return a.dst in (b.dst, b.src1, b.src2) or b.dst in (a.src1, a.src2)


def _issue_order(tables, overlap):
    """Table positions in issue order.

    Without overlap, table order.  With it, the first multiplication left
    issues ahead of the ops before it unless it shares with one of them, in
    any table, a register that either op writes.  A filler's operands count
    as real here, which can only hold a multiplication back.
    """
    left = list(range(len(tables["D"])))
    if not overlap:
        return tuple(left)
    order = []
    while left:
        k = left[0]
        m = next((m for m in left if tables["D"][m].kind == "mul"), k)
        if any(_share_a_write(a, ops[m])
               for ops in tables.values() for a in ops[k:m]):
            m = k
        order.append(m)
        left.remove(m)
    return tuple(order)


class _Pending(NamedTuple):
    """A result held in a block's output register until its write-back."""

    op_index: int
    instance: int
    dst: str
    earliest: int   # first cycle the result may drive the bus

    def transaction(self, block, role, *loads):
        """The write-back from block, loading the value into loads too."""
        return Transaction(block, (self.dst, *loads), self.op_index, role,
                           self.instance)


class _PatternState:
    """Per-pattern register/value bookkeeping against the shared timeline."""

    def __init__(self):
        self.bus = {}          # absolute cycle -> Transaction
        self.ready = {r: (0, -1) for r in REGISTER_NAMES}  # reg -> (cycle, instance)
        self.last_read = {r: 0 for r in REGISTER_NAMES}
        self.pending = {}      # block -> _Pending


class _Scheduler:
    def __init__(self, timing, tables):
        # each position runs on the unit its doubling op picks, so every
        # table must have the doubling's op kinds, position by position
        for kind, ops in tables.items():
            for pos, pair in enumerate(zip_longest(ops, tables["D"]), 1):
                here, there = (getattr(op, "kind", "no op") for op in pair)
                if here != there:
                    raise ScheduleError(f"{kind} has {here} at position {pos} "
                                        f"where D has {there}")
        self.t = timing
        self.tables = tables
        self.fillers = {kind: _fillers(ops) for kind, ops in tables.items()}
        self.order = _issue_order(tables, timing.overlap)
        # unit -> (name, steps, out, lag): the unit computes for steps
        # cycles after its two fetch cycles, its result leaves through out
        # output cycles and may drive the bus lag cycles after them
        self.units = {MULT: ("multiplication",
                             mul_schedule(timing.mul_plan).step_count, 1,
                             timing.mult_wb_lag),
                      ADDSUB: ("add/sub", 1, 0, 0)}
        self.ps = {k: _PatternState() for k in tables}
        self.states = {}           # absolute cycle -> multiplier state
        self.addsub = {}           # absolute cycle -> (add/sub state, op kind)
        self.last_step = {}        # block -> last compute cycle of its latest op
        self.barrier = 0           # latest first-partial-product cycle so far
        # (instance, op index) -> both kinds' first fetch or copy cycle
        self.placed = {}

    # -- values and write-backs -----------------------------------------------

    def _ready(self, kind, reg, instance):
        """First cycle reg can drive the bus with the value instance reads."""
        cycle, owner = self.ps[kind].ready[reg]
        if owner < instance:
            # value handed over from the previous pattern: either kind may
            # have produced it, so take the later of the two
            return max(p.ready[reg][0] for p in self.ps.values())
        return cycle

    def _land(self, kind, dst, earliest, hi, txs, unit=None):
        """First cycle from earliest to hi where a result may land in dst.

        The one write rule, for a write-back from unit, a forwarded load and
        a copy: the result lands after dst's last read, after any older
        result bound for dst, and on a cycle that neither the bus nor txs
        holds.  An older result still held in another unit is written back
        first, into txs, unless txs already writes it back.  Returns None
        when no such cycle exists.
        """
        st = self.ps[kind]
        for block, pend in st.pending.items():
            if (pend.dst == dst and block != unit
                    and all(tx.src != block for tx in txs.values())):
                w = self._land(kind, dst, pend.earliest, hi - 1, txs, block)
                if w is None:
                    return None
                txs[w] = pend.transaction(block, "writeback")
        for w in range(max(earliest, st.last_read[dst] + 1), hi + 1):
            if w not in st.bus and w not in txs:
                return w
        return None

    def _commit(self, kind, txs):
        """Put txs on the bus and book their reads and writes."""
        st = self.ps[kind]
        st.bus.update(txs)
        for w, tx in txs.items():
            if tx.role.startswith("writeback"):
                pend = st.pending.pop(tx.src)
                st.ready[pend.dst] = (w + READABLE_LAG, pend.instance)
            elif tx.role == "copy":
                st.ready[tx.dsts[0]] = (w + READABLE_LAG, tx.instance)
            # a filler holds back no write-back (see the module docstring)
            if (tx.src in REGISTER_NAMES
                    and tx.op_index not in self.fillers[kind]):
                st.last_read[tx.src] = max(st.last_read[tx.src], w)

    # -- operand fetches -------------------------------------------------------

    def _plan(self, kind, instance, op, f1, receiver):
        """Bus transactions that bring op's operands into receiver from f1 on.

        Returns cycle -> Transaction, including the write-backs and
        forwarded loads the fetches need, or None when a fetch cycle is
        busy, an operand cannot be ready in time or, for a copy, the write
        rule of _land refuses its destination.
        """
        st = self.ps[kind]
        roles = ("copy",) if op.kind == "copy" else ("fetch1", "fetch2")
        dummy = op.index in self.fillers[kind]
        txs = {}
        for pos, (src, role) in enumerate(zip((op.src1, op.src2), roles), 1):
            c = f1 + pos - 1
            if c in st.bus:
                return None
            if pos == 2 and src == op.src1:
                # a square (see the module docstring); after a
                # write-back+load the register is readable from
                # f1 + READABLE_LAG, this cycle
                role = ("fetch2" if txs[f1].role == "writeback+load"
                        else "latch2")
                txs[c] = Transaction(src, (receiver,), op.index, role, instance)
                continue
            # a filler operation reads whatever the register holds
            if src in REGISTER_NAMES and not dummy:
                producer = None
                for block, pend in st.pending.items():
                    if pend.dst == src:
                        producer = block
                if producer is None:
                    if c < self._ready(kind, src, instance):
                        return None
                else:
                    # the receiving port may latch the value during its
                    # write-back, in cycle c; the multiplier's ports may take
                    # any result in flight, the add/sub unit's first port
                    # only a product, a copy none (two register receivers)
                    forward = self.t.overlap and (
                        receiver == MULT
                        or (role == "fetch1" and producer == MULT))
                    pend = st.pending[producer]
                    w = self._land(kind, src, pend.earliest,
                                   c if forward else c - READABLE_LAG, txs,
                                   producer)
                    if w is None:
                        return None
                    if w == c:
                        txs[c] = pend.transaction(producer, "writeback+load",
                                                  receiver)
                        continue
                    txs[w] = pend.transaction(producer, "writeback")
            # a copy writes its destination in its own cycle
            if (op.kind == "copy"
                    and self._land(kind, op.dst, c, c, txs) is None):
                return None
            txs[c] = Transaction(src, (receiver,), op.index, role, instance)
        return txs

    # -- op placement ----------------------------------------------------------

    def _place(self, lo, instance, ops, receiver):
        """Commit both plans at the first cycle c from lo where both exist.

        Each op's operands go to receiver, a unit, a copy's (receiver None)
        to its destination.  Records c in placed and returns it.
        """
        for c in range(lo, lo + 4000):
            plans = {}
            for kind, op in ops.items():
                plans[kind] = self._plan(kind, instance, op, c,
                                         receiver or op.dst)
                if plans[kind] is None:
                    break
            else:
                for kind, txs in plans.items():
                    self._commit(kind, txs)
                self.placed[instance, ops["D"].index] = c
                return c
        name = self.units[receiver][0] if receiver else "copy"
        raise ScheduleError(f"no slot for {name} op {ops['D'].index}")

    def _schedule_unit(self, instance, ops):
        """Place one op of each pattern (ops: kind -> op) on its unit."""
        block = MULT if ops["D"].kind == "mul" else ADDSUB
        _, steps, out, lag = self.units[block]
        # like every op, issue only after earlier products started
        lo = self.barrier + 1
        if block in self.last_step:
            if self.t.overlap:
                # the next two fetches may overlap the last two compute
                # cycles (the add/sub unit's only one)
                lo = max(lo, self.last_step[block] + 1 - min(2, steps))
            else:
                lo = max(lo, self.last_step[block] + 1 + out)
        f1 = self._place(lo, instance, ops, block)
        first, last = f1 + 2, f1 + 1 + steps
        for kind, op in ops.items():
            # the unit's previous result, and an older one bound for the same
            # register, must leave before this one lands; the latter keeps one
            # pending result per register, which ends _land's recursion
            st, txs = self.ps[kind], {}
            for b, pend in st.pending.items():
                if b == block or pend.dst == op.dst:
                    w = self._land(kind, pend.dst, pend.earliest, last, txs, b)
                    if w is None:
                        raise ScheduleError(f"{kind}: cannot write back {b} "
                                            f"result by cycle {last}")
                    txs[w] = pend.transaction(b, "writeback")
            self._commit(kind, txs)
            st.pending[block] = _Pending(op.index, instance, op.dst,
                                         last + out + lag)
        if block == MULT:
            for i, c in enumerate(range(first, last + 1), start=1):
                self.states[c] = f"pp{i}"
            for c, state in ((f1, "load1"), (f1 + 1, "load2"), (last + 1, "out")):
                self.states.setdefault(c, state)
            self.barrier = first
        else:
            # the next op's first load may take over the store cycle
            self.addsub.update(
                (c, (state, ops["D"].kind))
                for c, state in ((f1, "load1"), (f1 + 1, "load2"),
                                 (last, "store")))
        self.last_step[block] = last

    def run(self, instances):
        for n in range(instances):
            for pos in self.order:
                ops = {kind: table[pos] for kind, table in self.tables.items()}
                if ops["D"].kind == "copy":
                    self._place(self.barrier + 1, n, ops, None)
                else:
                    self._schedule_unit(n, ops)
        return self

    def windows(self):
        """The steady-state PatternSchedule of each table, in table order."""
        placed = self.run(8).placed
        # a window opens on op 1's first partial product, after two fetches
        starts = [placed[n, 1] + 2 for n in range(8)]
        periods = [b - a for a, b in zip(starts, starts[1:])]
        if len(periods) < 3 or periods[-1] != periods[-2]:
            raise ScheduleError(
                f"schedule does not reach a steady state: {periods}")
        period = periods[-1]
        # take the last fully settled window; its successor must repeat it
        schedules = []
        for kind in self.tables:
            window = _window(self, kind, starts[-3], period)
            if window != _window(self, kind, starts[-2], period):
                raise ScheduleError(f"{kind}: schedule is not periodic "
                                    f"over {period} cycles")
            schedules.append(window)
        return tuple(schedules)


def _window(sched, kind, start, period):
    """The PatternSchedule of one kind over cycles start .. start + period - 1."""
    cycles = range(start, start + period)
    txs = [sched.ps[kind].bus.get(c) for c in cycles]
    mult_states = []
    for c in cycles:
        # the window opens on pp1, so an unassigned cycle follows the
        # output cycle or a wait
        mult_states.append(sched.states.get(c) or (
            "wait_first" if mult_states[-1] == "out" else "wait"))
    events = []
    op_cycles = {}
    # the window repeats, so its first cycle follows its last
    for rel, (c, tx, prev_tx, mult_state) in enumerate(
            zip(cycles, txs, txs[-1:] + txs[:-1], mult_states), start=1):
        # registers addressed in the previous cycle latch in this one
        store = tuple(d for d in (prev_tx.dsts if prev_tx else ())
                      if d in REGISTER_NAMES)
        # silent cycle: either an idle bus or a continued drive of the same
        # source with no new addressing
        silent = tx is None or tx.role == "latch2"
        addsub_state, addsub_op = sched.addsub.get(c, ("idle", None))
        events.append(CycleEvent(rel, None if silent else tx.src,
                                 () if silent else tx.dsts, mult_state,
                                 addsub_state, addsub_op, store))
        if tx is not None:
            roles = op_cycles.setdefault(tx.op_index, {})
            roles.setdefault(tx.role, []).append(rel)
    op_cycles = {i: {r: tuple(cs) for r, cs in roles.items()}
                 for i, roles in op_cycles.items()}
    return PatternSchedule(kind, tuple(events), period, op_cycles)


def build_schedules(timing=None):
    """Build the doubling and addition PatternSchedules (shared skeleton).

    Returns (d_sched, a_sched).  Raises ScheduleError when the dependency
    graph cannot be laid out under the given timing rules.
    """
    return _Scheduler(timing or Timing(), PATTERNS).windows()


def addressing_diff(d, a):
    """Cycles where the two patterns address the bus differently.

    Returns a list of (cycle, info) with the differing source/destination
    names of both patterns; empty entries are omitted.
    """
    if d.cycle_count != a.cycle_count:
        raise ValueError("schedules have different lengths")
    diff = []
    for ed, ea in zip(d.events, a.events):
        if ed.src_name != ea.src_name or ed.dst_names != ea.dst_names:
            diff.append((ed.cycle, {
                "d_src": ed.src_name, "a_src": ea.src_name,
                "d_dst": ed.dst_names, "a_dst": ea.dst_names,
            }))
    return diff
