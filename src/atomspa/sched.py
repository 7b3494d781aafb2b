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

Both atomic patterns must exhibit the identical block-state sequence, so the
schedule is built once against the union of both patterns' data dependencies
(each operation waits for whichever pattern's operand is ready last) and then
stamped twice with the per-pattern register addressing.  The schedule is the
steady-state window between consecutive first-multiplication starts: tail
work of a pattern (final write-back, the register copy, the last subtraction)
spills over the boundary and lands at the head of the next window, which is
why the window's first cycle carries the previous final-product write-back.
"""

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Transaction:
    src: str
    dsts: tuple  # receiver names; at most one register plus possibly a block port
    op_index: int
    role: str    # fetch1 | fetch2 | writeback | copy | writeback+load


@dataclass(frozen=True)
class CycleEvent:
    cycle: int               # 1-based within the pattern window
    src_name: str            # None when no new addressing is issued
    dst_names: tuple
    mult_state: str
    addsub_state: str
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


class _PatternState:
    """Per-pattern register/value bookkeeping against the shared timeline."""

    def __init__(self):
        self.bus = {}          # absolute cycle -> Transaction
        self.ready = {r: (0, -1) for r in REGISTER_NAMES}  # reg -> (cycle, instance)
        self.last_read = {r: 0 for r in REGISTER_NAMES}
        self.pending = {}      # block -> dict(op_index, instance, latch, dst, role)

    def free(self, cycle):
        return cycle not in self.bus


class _Scheduler:
    def __init__(self, timing):
        self.t = timing
        self.pp_count = mul_schedule(timing.mul_plan).step_count
        self.ps = {k: _PatternState() for k in KINDS}
        self.prev_pp_last = None   # last partial-product cycle of the last multiplication
        self.mult_spans = []       # (instance, op_index, f1, f2, pp_first, pp_last)
        self.addsub_spans = []     # (instance, op_index, f1, f2, comp)
        self.copy_cycles = []      # (instance, op_index, cycle)
        self.last_addsub_comp = 0
        self.barrier = 0           # latest first-partial-product cycle so far
        self.window_starts = []    # pp_first of each instance's first multiplication

    # -- write-back helpers -------------------------------------------------

    def _wb_min(self, kind, block, pend):
        lag = self.t.mult_wb_lag if block == MULT else 0
        war = self.ps[kind].last_read[pend["dst"]] + 1
        return max(pend["latch"] + lag, war)

    def _find_wb_slot(self, kind, block, pend, limit, blocked=()):
        lo = self._wb_min(kind, block, pend)
        st = self.ps[kind]
        for w in range(lo, limit + 1):
            if st.free(w) and w not in blocked:
                return w
        return None

    def _commit_wb(self, kind, block, w, forward_to=None):
        st = self.ps[kind]
        pend = st.pending.pop(block)
        dsts = (pend["dst"], forward_to) if forward_to else (pend["dst"],)
        role = "writeback+load" if forward_to else "writeback"
        st.bus[w] = Transaction(block, dsts, pend["op_index"], role)
        st.ready[pend["dst"]] = (w + READABLE_LAG, pend["instance"])

    def _flush_pending(self, kind, block, deadline):
        st = self.ps[kind]
        if block not in st.pending:
            return
        w = self._find_wb_slot(kind, block, st.pending[block], deadline)
        if w is None:
            raise ScheduleError(
                f"{kind}: cannot write back {block} result by cycle {deadline}")
        self._commit_wb(kind, block, w)

    # -- operand feasibility -------------------------------------------------

    def _operand_plan(self, kind, instance, op, pos, fetch_cycle, receiver,
                      taken, commits, dummy, prev_plan=None):
        """Return a plan dict for reading one operand at fetch_cycle, or None.

        taken: cycles already claimed in this pattern by the current op's
        tentative plan; commits: blocks already tentatively written back,
        block -> (cycle, is_port_forward); prev_plan: the plan chosen for
        the operand fetched the cycle before, if any.
        """
        st = self.ps[kind]
        src = op.src1 if pos == 1 else op.src2
        if prev_plan and prev_plan["type"] == "read" and prev_plan["src"] == src:
            # same source again: the register keeps driving the bus and the
            # second port latches silently, with no new addressing
            if st.free(fetch_cycle) and fetch_cycle not in taken:
                return {"type": "latch", "src": src, "cycle": fetch_cycle}
            return None
        busy = (not st.free(fetch_cycle)) or fetch_cycle in taken
        if src in EXTERNALS or dummy:
            if busy:
                return None
            return {"type": "read", "src": src, "cycle": fetch_cycle}
        # real register read: value must be written back early enough
        producer_block = None
        for block, pend in st.pending.items():
            if pend["dst"] == src and block not in commits:
                producer_block = block
        if producer_block is None:
            if src in {st.pending[b]["dst"] for b in commits if b in st.pending}:
                # produced by a block committed earlier in this plan
                block = next(b for b in commits if st.pending[b]["dst"] == src)
                w, _ = commits[block]
                if fetch_cycle < w + READABLE_LAG or busy:
                    return None
                return {"type": "read", "src": src, "cycle": fetch_cycle}
            ready_cycle, ready_inst = st.ready[src]
            if ready_inst < instance:
                # value handed over from the previous pattern: either kind
                # may have produced it, so take the later of the two
                ready_cycle = max(p.ready[src][0] for p in self.ps.values())
            if fetch_cycle < ready_cycle or busy:
                return None
            return {"type": "read", "src": src, "cycle": fetch_cycle}
        pend = st.pending[producer_block]
        w = self._find_wb_slot(kind, producer_block, pend,
                               fetch_cycle - READABLE_LAG, blocked=taken)
        if w is not None and not busy:
            return {"type": "read", "src": src, "cycle": fetch_cycle,
                    "commit": (producer_block, w, False)}
        # the multiplier's ports may latch any result in flight; the add/sub
        # unit's first port only a product, never the unit's own result
        forward_ok = receiver == MULT or (pos == 1 and producer_block == MULT)
        if forward_ok and self.t.overlap:
            # the receiving port latches the value during its write-back
            if fetch_cycle >= self._wb_min(kind, producer_block, pend) \
                    and st.free(fetch_cycle) and fetch_cycle not in taken:
                return {"type": "mc", "src": src, "cycle": fetch_cycle,
                        "commit": (producer_block, fetch_cycle, True)}
        return None

    def _plan_kind(self, kind, instance, op, f1, receiver):
        dummy = op.index in DUMMY_OPS[kind]
        taken = set()
        commits = {}
        ops_plan = []
        prev = None
        for pos in (1, 2):
            p = self._operand_plan(kind, instance, op, pos, f1 + pos - 1,
                                   receiver, taken, commits, dummy,
                                   prev_plan=prev)
            if p is None:
                return None
            taken.add(p["cycle"])
            if "commit" in p:
                block, w, mc = p["commit"]
                taken.add(w)
                commits[block] = (w, mc)
            ops_plan.append((pos, p))
            prev = p
        return ops_plan

    def _plan_fetches(self, instance, op_d, op_a, f1, receiver):
        """Feasibility of fetching both operands at (f1, f1+1) in both patterns."""
        plans = {}
        for kind, op in (("D", op_d), ("A", op_a)):
            plan = self._plan_kind(kind, instance, op, f1, receiver)
            if plan is None:
                return None
            plans[kind] = plan
        return plans

    def _apply_fetches(self, plans, receiver, op_by_kind):
        for kind, ops_plan in plans.items():
            st = self.ps[kind]
            op = op_by_kind[kind]
            dummy = op.index in DUMMY_OPS[kind]
            for pos, p in ops_plan:
                if "commit" in p:
                    block, w, mc = p["commit"]
                    self._commit_wb(kind, block, w,
                                    forward_to=receiver if mc else None)
                if p["type"] == "read":
                    st.bus[p["cycle"]] = Transaction(
                        p["src"], (receiver,), op.index, f"fetch{pos}")
                elif p["type"] == "latch":
                    # bus stays occupied by the continued drive, but the
                    # controller issues no new addressing
                    st.bus[p["cycle"]] = Transaction(
                        p["src"], (receiver,), op.index, f"latch{pos}")
                # a filler operation reads whatever the register holds, so
                # it puts no write-after-read pressure on pending results
                if p["src"] in REGISTER_NAMES and not dummy:
                    st.last_read[p["src"]] = max(st.last_read[p["src"]],
                                                 p["cycle"])

    # -- op scheduling -------------------------------------------------------

    def _schedule_mult(self, instance, op_d, op_a):
        prev_pp_last = self.prev_pp_last
        if prev_pp_last is None:
            lo = 1
        elif self.t.overlap:
            lo = prev_pp_last - 1      # within the last two partial products
        else:
            lo = prev_pp_last + 2      # only after the output cycle
        for f1 in range(lo, lo + 4000):
            plans = self._plan_fetches(instance, op_d, op_a, f1, MULT)
            if plans is None:
                continue
            self._apply_fetches(plans, MULT, {"D": op_d, "A": op_a})
            pp_first = f1 + 2
            pp_last = pp_first + self.pp_count - 1
            # the previous product must have left its output register
            for kind in KINDS:
                self._flush_pending(kind, MULT, pp_last)
            for kind, op in (("D", op_d), ("A", op_a)):
                self.ps[kind].pending[MULT] = {
                    "op_index": op.index, "instance": instance,
                    "latch": pp_last + 1, "dst": op.dst}
            self.prev_pp_last = pp_last
            self.mult_spans.append(
                (instance, op_d.index, f1, f1 + 1, pp_first, pp_last))
            self.barrier = max(self.barrier, pp_first)
            if op_d.index == 1:
                self.window_starts.append(pp_first)
            return
        raise ScheduleError(f"no slot for multiplication op {op_d.index}")

    def _schedule_addsub(self, instance, op_d, op_a):
        # the unit may take its next first operand while storing, and like
        # every non-multiplier op issues only after earlier products started
        gap = 0 if self.t.overlap else 1
        lo = max(self.last_addsub_comp + gap, self.barrier + 1)
        for f1 in range(lo, lo + 4000):
            plans = self._plan_fetches(instance, op_d, op_a, f1, ADDSUB)
            if plans is None:
                continue
            self._apply_fetches(plans, ADDSUB, {"D": op_d, "A": op_a})
            comp = f1 + 2
            # the previous result leaves the unit before this one lands
            for kind in KINDS:
                self._flush_pending(kind, ADDSUB, comp)
            for kind, op in (("D", op_d), ("A", op_a)):
                self.ps[kind].pending[ADDSUB] = {
                    "op_index": op.index, "instance": instance,
                    "latch": comp, "dst": op.dst}
            self.last_addsub_comp = comp
            self.addsub_spans.append((instance, op_d.index, f1, f1 + 1, comp))
            return
        raise ScheduleError(f"no slot for add/sub op {op_d.index}")

    def _schedule_copy(self, instance, op_d, op_a):
        lo = self.barrier + 1
        for c in range(lo, lo + 4000):
            ok = True
            for kind, op in (("D", op_d), ("A", op_a)):
                st = self.ps[kind]
                ready_cycle, ready_inst = st.ready[op.src1]
                if ready_inst < instance:
                    ready_cycle = max(p.ready[op.src1][0] for p in self.ps.values())
                war = st.last_read[op.dst] + 1
                if c < max(ready_cycle, war) or not st.free(c):
                    ok = False
                    break
            if not ok:
                continue
            for kind, op in (("D", op_d), ("A", op_a)):
                st = self.ps[kind]
                st.bus[c] = Transaction(op.src1, (op.dst,), op.index, "copy")
                st.last_read[op.src1] = max(st.last_read[op.src1], c)
                st.ready[op.dst] = (c + READABLE_LAG, instance)
            self.copy_cycles.append((instance, op_d.index, c))
            return
        raise ScheduleError(f"no slot for copy op {op_d.index}")

    def _schedule_one(self, n, op_d, op_a):
        if op_d.kind == "mul":
            self._schedule_mult(n, op_d, op_a)
        elif op_d.kind == "copy":
            self._schedule_copy(n, op_d, op_a)
        else:
            self._schedule_addsub(n, op_d, op_a)

    @staticmethod
    def _can_hoist(pairs, k, m):
        """May the multiplication at position m issue before ops k..m-1?

        Allowed when none of the skipped operations feeds the multiplication
        an operand or writes its destination, in either pattern.
        """
        for kind_idx in (0, 1):
            mop = pairs[m][kind_idx]
            kind = KINDS[kind_idx]
            if mop.index in DUMMY_OPS[kind]:
                reads = set()
            else:
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
                self._schedule_one(n, *pairs[pick])
                done[pick] = True
        return self


def _window_events(sched, start, period):
    """Collect per-pattern transactions and block states for one window."""
    per_kind = {}
    for kind in KINDS:
        txs = {}
        for c, tx in sched.ps[kind].bus.items():
            if start <= c < start + period:
                txs[c - start + 1] = tx
        per_kind[kind] = txs
    # block states (shared between patterns)
    mult_state = {}
    for (_, _, f1, f2, pp_first, pp_last) in sched.mult_spans:
        for i, c in enumerate(range(pp_first, pp_last + 1), start=1):
            if start <= c < start + period:
                mult_state[c - start + 1] = f"pp{i}"
        for c, name in ((f1, "load1"), (f2, "load2")):
            rel = c - start + 1
            if start <= c < start + period and rel not in mult_state:
                mult_state[rel] = name
        out = pp_last + 1
        rel = out - start + 1
        if start <= out < start + period and rel not in mult_state:
            mult_state[rel] = "out"
    # the window opens on pp1, so an unassigned cycle follows the output
    # cycle or a wait
    for rel in range(1, period + 1):
        if rel not in mult_state:
            mult_state[rel] = ("wait_first" if mult_state[rel - 1] == "out"
                               else "wait")
    addsub_state = {}
    for (_, _, f1, f2, comp) in sched.addsub_spans:
        for c, name in ((f1, "load1"), (f2, "load2"), (comp, "store")):
            if start <= c < start + period:
                addsub_state[c - start + 1] = name
    return per_kind, mult_state, addsub_state


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
    # take the last fully settled window (its successor must exist in full)
    start = starts[-3]
    ev_a, mult_state, addsub_state = _window_events(sched, start, period)
    ev_b, mult_b, addsub_b = _window_events(sched, starts[-2], period)
    for rel in range(1, period + 1):
        if mult_state[rel] != mult_b[rel] or \
                addsub_state.get(rel) != addsub_b.get(rel):
            raise ScheduleError("block states not periodic")
        for kind in KINDS:
            x, y = ev_a[kind].get(rel), ev_b[kind].get(rel)
            if (x is None) != (y is None) or (
                    x is not None and (x.src, x.dsts, x.role) != (y.src, y.dsts, y.role)):
                raise ScheduleError(f"bus not periodic at cycle {rel} ({kind})")

    schedules = {}
    for kind in KINDS:
        txs = ev_a[kind]
        events = []
        op_cycles = {}
        for rel in range(1, period + 1):
            tx = txs.get(rel)
            prev_tx = txs.get(rel - 1) if rel > 1 else ev_a[kind].get(period)
            # registers addressed in the previous cycle latch in this one
            store = tuple(d for d in (prev_tx.dsts if prev_tx else ())
                          if d in REGISTER_NAMES
                          and not prev_tx.role.startswith("latch"))
            if tx is None or tx.role.startswith("latch"):
                # silent cycle: either an idle bus or a continued drive of
                # the same source with no new addressing
                events.append(CycleEvent(rel, None, (), mult_state[rel],
                                         addsub_state.get(rel, "idle"), store))
            else:
                events.append(CycleEvent(rel, tx.src, tx.dsts, mult_state[rel],
                                         addsub_state.get(rel, "idle"), store))
            if tx is not None:
                spans = op_cycles.setdefault(tx.op_index, {})
                spans.setdefault(tx.role, []).append(rel)
        op_cycles = {i: {r: tuple(cs) for r, cs in roles.items()}
                     for i, roles in op_cycles.items()}
        schedules[kind] = PatternSchedule(kind, tuple(events), period,
                                          op_cycles)
    d, a = schedules["D"], schedules["A"]
    assert [e.mult_state for e in d.events] == [e.mult_state for e in a.events]
    assert [e.addsub_state for e in d.events] == [e.addsub_state for e in a.events]
    return d, a


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
