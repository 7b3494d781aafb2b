"""Cycle-accurate schedule of the atomic patterns on the shared-bus machine.

The machine has one multiplier, one add/subtract unit, nine registers and two
external operand ports, all talking over a single bus: one source drives it
per clock cycle, the controller addresses the source and the receiver(s).
The multiplier takes two fetch cycles plus one cycle per partial product of
its segment plan (nine for karatsuba4, sixteen for classical); operand fetch
for the next product may overlap the last two partial products of the
current one, and a finished product may be written back while the next one
is already computing.  The adder/subtractor takes two fetch cycles plus one
processing cycle.

Both atomic patterns must exhibit the identical block-state sequence, so
both are placed together on one timeline: each operation of the doubling and
the operation at the same position of the addition take the same cycles,
the first ones where the operands of both are ready, and only the registers
they address differ.  The block states, and the add/sub operation that owns
each cycle of that unit, are recorded once, as each operation is placed.
The schedule is the steady-state window between consecutive
first-multiplication starts: tail work of a pattern (final write-back, the
register copy, the last subtraction) spills over the boundary and lands at
the head of the next window, which is why the window's first cycle carries
the previous final-product write-back.
"""

from dataclasses import dataclass
from typing import NamedTuple

from atomspa.atoms import (DOUBLE_PATTERN, ADD_PATTERN, PATTERNS,
                           REGISTER_NAMES, EXT_QX, EXT_QY)
from atomspa.field import mul_schedule

MULT = "MULT"
ADDSUB = "ADDSUB"
EXTERNALS = (EXT_QX, EXT_QY)
KINDS = ("D", "A")

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


def _compute_dummies():
    """Operations whose result is overwritten before any read (per pattern).

    Liveness is checked through the pattern and, across the boundary,
    through both possible successor patterns: a value is live if either
    successor reads it before writing it.
    """
    def dead(ops, i):
        first = _first_access(ops[i].dst, ops[i + 1:])
        if first is None:
            return all(_first_access(ops[i].dst, succ) != "read"
                       for succ in PATTERNS.values())
        return first == "write"

    return {kind: frozenset(op.index for i, op in enumerate(ops) if dead(ops, i))
            for kind, ops in PATTERNS.items()}


DUMMY_OPS = _compute_dummies()


class _Pending(NamedTuple):
    """A result held in a block's output register until its write-back."""

    op_index: int
    instance: int
    dst: str
    earliest: int   # first cycle the result may drive the bus


class _PatternState:
    """Per-pattern register/value bookkeeping against the shared timeline."""

    def __init__(self):
        self.bus = {}          # absolute cycle -> Transaction
        self.ready = {r: (0, -1) for r in REGISTER_NAMES}  # reg -> (cycle, instance)
        self.last_read = {r: 0 for r in REGISTER_NAMES}
        self.pending = {}      # block -> _Pending


class _Scheduler:
    def __init__(self, timing):
        self.t = timing
        # a unit computes for this many cycles after its two fetch cycles;
        # a product then leaves through one output cycle
        self.steps = {MULT: mul_schedule(timing.mul_plan).step_count,
                      ADDSUB: 1}
        self.ps = {k: _PatternState() for k in KINDS}
        self.states = {MULT: {}, ADDSUB: {}}  # block -> absolute cycle -> state
        self.addsub_ops = {}       # absolute cycle -> kind of the add/sub op there
        self.last_step = {}        # block -> last compute cycle of its latest op
        self.barrier = 0           # latest first-partial-product cycle so far
        self.window_starts = []    # pp_first of each instance's first multiplication

    # -- values and write-backs -----------------------------------------------

    def _ready(self, kind, reg, instance):
        """First cycle reg can drive the bus with the value instance reads."""
        cycle, owner = self.ps[kind].ready[reg]
        if owner < instance:
            # value handed over from the previous pattern: either kind may
            # have produced it, so take the later of the two
            return max(p.ready[reg][0] for p in self.ps.values())
        return cycle

    def _wb_min(self, kind, pend):
        # the write-back must not clobber a value still to be read
        return max(pend.earliest, self.ps[kind].last_read[pend.dst] + 1)

    def _wb_slot(self, kind, pend, hi, taken=()):
        """First free cycle up to hi where pend may be written back."""
        bus = self.ps[kind].bus
        for w in range(self._wb_min(kind, pend), hi + 1):
            if w not in bus and w not in taken:
                return w
        return None

    def _commit(self, kind, txs, commits):
        """Put txs on the bus and publish the write-backs in commits."""
        st = self.ps[kind]
        st.bus.update(txs)
        for block, w in commits.items():
            pend = st.pending.pop(block)
            st.ready[pend.dst] = (w + READABLE_LAG, pend.instance)

    def _flush(self, kind, block, deadline):
        """Write back block's pending result by deadline, before it is replaced."""
        pend = self.ps[kind].pending.get(block)
        if pend is None:
            return
        w = self._wb_slot(kind, pend, deadline)
        if w is None:
            raise ScheduleError(
                f"{kind}: cannot write back {block} result by cycle {deadline}")
        self._commit(kind, {w: Transaction(block, (pend.dst,), pend.op_index,
                                           "writeback")}, {block: w})

    # -- operand fetches -------------------------------------------------------

    def _plan(self, kind, instance, op, f1, receiver):
        """Bus transactions that bring op's operands into receiver at f1, f1 + 1.

        Returns (txs, commits): cycle -> Transaction, including the
        write-backs and forwarded loads the fetches need, and block ->
        cycle of each pending result they write back.  Returns None when a
        fetch cycle is busy or an operand cannot be ready in time.
        """
        st = self.ps[kind]
        if f1 in st.bus or f1 + 1 in st.bus:
            return None
        dummy = op.index in DUMMY_OPS[kind]
        txs, commits = {}, {}
        for pos, src in ((1, op.src1), (2, op.src2)):
            c = f1 + pos - 1
            if pos == 2 and txs[f1].src == src:
                # same source again: the register keeps driving the bus and
                # the second port latches silently, with no new addressing
                txs[c] = Transaction(src, (receiver,), op.index, "latch2")
                continue
            # a filler operation reads whatever the register holds
            if src not in EXTERNALS and not dummy:
                producer = None
                for block, pend in st.pending.items():
                    if pend.dst == src and block not in commits:
                        producer = block
                if producer is None:
                    # the value is published, or written back by this plan
                    done = [w for b, w in commits.items()
                            if st.pending[b].dst == src]
                    ready = (done[0] + READABLE_LAG if done
                             else self._ready(kind, src, instance))
                    if c < ready:
                        return None
                else:
                    pend = st.pending[producer]
                    w = self._wb_slot(kind, pend, c - READABLE_LAG, taken=txs)
                    if w is not None:
                        txs[w] = Transaction(producer, (pend.dst,),
                                             pend.op_index, "writeback")
                        commits[producer] = w
                    elif (self.t.overlap and c >= self._wb_min(kind, pend)
                          and (receiver == MULT
                               or (pos == 1 and producer == MULT))):
                        # the receiving port latches the value during its
                        # write-back; the multiplier's ports may take any
                        # result in flight, the add/sub unit's first port
                        # only a product
                        txs[c] = Transaction(producer, (pend.dst, receiver),
                                             pend.op_index, "writeback+load")
                        commits[producer] = c
                        continue
                    else:
                        return None
            txs[c] = Transaction(src, (receiver,), op.index, f"fetch{pos}")
        return txs, commits

    # -- op placement ----------------------------------------------------------

    @staticmethod
    def _first_slot(lo, place, what):
        """First cycle c from lo where place(c) is not None, with that value."""
        for c in range(lo, lo + 4000):
            found = place(c)
            if found is not None:
                return c, found
        raise ScheduleError(f"no slot for {what}")

    def _schedule_unit(self, block, instance, ops):
        """Place one op of each pattern (ops: kind -> op) on unit block."""
        steps = self.steps[block]
        out = 1 if block == MULT else 0
        # like every op, issue only after earlier products started
        lo = self.barrier + 1
        if block in self.last_step:
            if self.t.overlap:
                # the next two fetches may overlap the last two compute
                # cycles (the add/sub unit's only one)
                lo = max(lo, self.last_step[block] + 1 - min(2, steps))
            else:
                lo = max(lo, self.last_step[block] + 1 + out)

        def place(f1):
            plans = {}
            for kind, op in ops.items():
                plans[kind] = self._plan(kind, instance, op, f1, block)
                if plans[kind] is None:
                    return None
            return plans

        name = "multiplication" if block == MULT else "add/sub"
        f1, plans = self._first_slot(lo, place, f"{name} op {ops['D'].index}")
        first, last = f1 + 2, f1 + 1 + steps
        earliest = last + out + (self.t.mult_wb_lag if block == MULT else 0)
        for kind, op in ops.items():
            st = self.ps[kind]
            self._commit(kind, *plans[kind])
            # a filler operation reads whatever the register holds, so it
            # puts no write-after-read pressure on pending results
            if op.index not in DUMMY_OPS[kind]:
                for c, src in ((f1, op.src1), (f1 + 1, op.src2)):
                    if src in REGISTER_NAMES:
                        st.last_read[src] = max(st.last_read[src], c)
            # the previous result must leave the unit before this one lands
            self._flush(kind, block, last)
            st.pending[block] = _Pending(op.index, instance, op.dst, earliest)
        states = self.states[block]
        if block == MULT:
            for i, c in enumerate(range(first, last + 1), start=1):
                states[c] = f"pp{i}"
            for c, state in ((f1, "load1"), (f1 + 1, "load2"), (last + 1, "out")):
                states.setdefault(c, state)
            self.barrier = first
            if ops["D"].index == 1:
                self.window_starts.append(first)
        else:
            # the next op's first load may take over the store cycle
            states.update({f1: "load1", f1 + 1: "load2", last: "store"})
            self.addsub_ops.update(dict.fromkeys((f1, f1 + 1, last),
                                                 ops["D"].kind))
        self.last_step[block] = last

    def _schedule_copy(self, instance, ops):
        """Place one register copy of each pattern in a single bus cycle."""
        def place(c):
            for kind, op in ops.items():
                st = self.ps[kind]
                if c in st.bus or c < max(self._ready(kind, op.src1, instance),
                                          st.last_read[op.dst] + 1):
                    return None
            return True

        c, _ = self._first_slot(self.barrier + 1, place,
                                f"copy op {ops['D'].index}")
        for kind, op in ops.items():
            st = self.ps[kind]
            st.bus[c] = Transaction(op.src1, (op.dst,), op.index, "copy")
            st.last_read[op.src1] = max(st.last_read[op.src1], c)
            st.ready[op.dst] = (c + READABLE_LAG, instance)

    @staticmethod
    def _can_hoist(pairs, k, m):
        """May the multiplication at position m issue before ops k..m-1?

        Allowed when none of the skipped operations feeds the multiplication
        an operand or writes its destination, in either pattern.  Every
        filler op is an add, so the multiplication's operands are real.
        """
        for kind_idx in (0, 1):
            mop = pairs[m][kind_idx]
            reads = {mop.src1, mop.src2} & set(REGISTER_NAMES)
            for j in range(k, m):
                jop = pairs[j][kind_idx]
                if jop.dst in reads or jop.dst == mop.dst:
                    return False
        return True

    def run(self, instances):
        pairs = list(zip(DOUBLE_PATTERN, ADD_PATTERN))
        for n in range(instances):
            done = [False] * len(pairs)
            while not all(done):
                k = done.index(False)
                pick = k
                if pairs[k][0].kind != "mul" and self.t.overlap:
                    # the controller prefetches multiplier operands past
                    # independent pending add/sub work
                    for m in range(k + 1, len(pairs)):
                        if done[m]:
                            continue
                        if pairs[m][0].kind == "mul":
                            if self._can_hoist(pairs, k, m):
                                pick = m
                            break
                ops = dict(zip(KINDS, pairs[pick]))
                if ops["D"].kind == "copy":
                    self._schedule_copy(n, ops)
                else:
                    self._schedule_unit(
                        MULT if ops["D"].kind == "mul" else ADDSUB, n, ops)
                done[pick] = True
        return self


def _window(sched, kind, start, period):
    """The PatternSchedule of one kind over cycles start .. start + period - 1."""
    cycles = range(start, start + period)
    txs = [sched.ps[kind].bus.get(c) for c in cycles]
    mult_states = []
    for c in cycles:
        # the window opens on pp1, so an unassigned cycle follows the
        # output cycle or a wait
        mult_states.append(sched.states[MULT].get(c) or (
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
        events.append(CycleEvent(rel, None if silent else tx.src,
                                 () if silent else tx.dsts, mult_state,
                                 sched.states[ADDSUB].get(c, "idle"),
                                 sched.addsub_ops.get(c), store))
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
    t = timing or Timing()
    instances = 8
    sched = _Scheduler(t).run(instances)
    starts = sched.window_starts
    periods = [b - a for a, b in zip(starts, starts[1:])]
    if len(periods) < 3 or periods[-1] != periods[-2]:
        raise ScheduleError(f"schedule does not reach a steady state: {periods}")
    period = periods[-1]
    # take the last fully settled window; its successor must repeat it
    schedules = []
    for kind in KINDS:
        window = _window(sched, kind, starts[-3], period)
        if window != _window(sched, kind, starts[-2], period):
            raise ScheduleError(f"{kind}: schedule is not periodic "
                                f"over {period} cycles")
        schedules.append(window)
    return tuple(schedules)


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
