"""Schedule diagrams: the three-layer pattern view as SVG and text grid.

Top layer: register activity (addressing marks and the store cycle that
follows).  Middle layer: the add/subtract unit (loads and the processing
cycle, colored by the operation the schedule places there).  Bottom layer:
the multiplier (partial products in red, the output cycle in light red,
waiting cycles pale).  An overlay variant marks every cycle whose bus
addressing differs between the doubling and addition patterns.  Every color
and label is read off the schedule's cycle events; nothing here re-derives
what the scheduler decided.
"""

from atomspa.atoms import REGISTER_NAMES
from atomspa.sched import mult_block_state

MULT_COLORS = {
    "load1": "#9fd49f", "load2": "#9fd49f", "pp": "#e05545",
    "out": "#f6b0a0", "wait_first": "#fbd9d0", "wait": "#ffffff",
}

ADDSUB_COLORS = {"add": "#6f8fd8", "sub": "#c77bc9"}


def text_grid(schedule):
    """Plain-text rendering, one column per clock cycle.

    A cell holds three characters, so the units print as MUL and ADD.  A
    write-back that also forwards its value to a unit names the register
    in the bus dst row and the unit in the fwd dst row.
    """
    n = schedule.cycle_count
    header = "".join(f"{c:<4d}" for c in range(1, n + 1))
    rows = {
        "bus src  ": [],
        "bus dst  ": [],
        "fwd dst  ": [],
        "reg store": [],
        "add/sub  ": [],
        "mult     ": [],
    }
    short = {"load1": "L1", "load2": "L2", "store": "ST", "out": "OUT",
             "wait_first": "w1", "wait": "w", "idle": ""}
    for ev in schedule.events:
        rows["bus src  "].append(ev.src_name or "")
        dst, *fwd = ev.dst_names or ("",)
        rows["bus dst  "].append(dst)
        rows["fwd dst  "].append("+".join(fwd))
        rows["reg store"].append("+".join(ev.reg_store))
        rows["add/sub  "].append(short.get(ev.addsub_state, ev.addsub_state))
        m = ev.mult_state
        if mult_block_state(m) == "pp":
            # three characters a cell: PP1..PP9, then P10, P11, ...
            m = m.upper() if len(m) == 3 else f"P{m[2:]}"
        rows["mult     "].append(short.get(m, m))
    lines = [f"pattern {schedule.kind}, {n} cycles", "cycle    " + header]
    for name, cells in rows.items():
        lines.append(name + "".join(f"{c[:3]:<4s}" for c in cells))
    return "\n".join(lines) + "\n"


def schedule_svg(schedule, overlay_diff=None, title=None):
    """Three-layer SVG; overlay_diff marks differing cycles when given."""
    n = schedule.cycle_count
    left, top, cell = 70, 30, 11
    reg_rows = list(REGISTER_NAMES)
    reg_h = 10
    layer_gap = 14
    reg_band = len(reg_rows) * reg_h
    addsub_y = top + reg_band + layer_gap
    mult_y = addsub_y + 22 + layer_gap
    width = left + n * cell + 20
    height = mult_y + 22 + 40

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="monospace" font-size="9">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="16" font-size="12">'
        f'{title or f"pattern {schedule.kind}"} '
        f'({n} cycles)</text>',
    ]
    reg_y = {r: top + i * reg_h for i, r in enumerate(reg_rows)}
    for r, y in reg_y.items():
        out.append(f'<text x="6" y="{y + 8}">{r}</text>')
    out.append(f'<text x="6" y="{addsub_y + 14}">add/sub</text>')
    out.append(f'<text x="6" y="{mult_y + 14}">mult</text>')

    for ev in schedule.events:
        x = left + (ev.cycle - 1) * cell
        # register layer: addressing (green) and stores (grey)
        for d in ev.dst_names:
            if d in reg_y:
                out.append(f'<rect x="{x}" y="{reg_y[d]}" width="{cell-1}" '
                           f'height="{reg_h-1}" fill="#49b849"/>')
        if ev.src_name in reg_y:
            out.append(f'<rect x="{x}" y="{reg_y[ev.src_name]}" '
                       f'width="{cell-1}" height="{reg_h-1}" fill="none" '
                       f'stroke="#49b849" stroke-width="1"/>')
        for d in ev.reg_store:
            if d in reg_y:
                out.append(f'<rect x="{x}" y="{reg_y[d]}" width="{cell-1}" '
                           f'height="{reg_h-1}" fill="#b5b5b5"/>')
        # add/sub layer
        if ev.addsub_state != "idle":
            color = ADDSUB_COLORS[ev.addsub_op]
            light = ev.addsub_state != "store"
            out.append(f'<rect x="{x}" y="{addsub_y}" width="{cell-1}" '
                       f'height="21" fill="{color}" '
                       f'opacity="{0.55 if light else 1.0}"/>')
        # multiplier layer
        color = MULT_COLORS.get(mult_block_state(ev.mult_state), "#ffffff")
        if color != "#ffffff":
            out.append(f'<rect x="{x}" y="{mult_y}" width="{cell-1}" '
                       f'height="21" fill="{color}"/>')
        if ev.cycle % 10 == 0 or ev.cycle == 1:
            out.append(f'<text x="{x}" y="{height - 22}">{ev.cycle}</text>')

    if overlay_diff:
        for c, _info in overlay_diff:
            x = left + (c - 1) * cell
            out.append(f'<rect x="{x}" y="{top - 4}" width="{cell-1}" '
                       f'height="{mult_y + 25 - top + 4}" fill="none" '
                       f'stroke="#d4a017" stroke-width="1.5"/>')
    out.append(f'<text x="{left}" y="{height - 6}" font-size="10">'
               'green: addressing, grey: store, red: partial products, '
               'light red: output/first wait</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_diagram(schedule, out_base):
    """Write SVG and text grid for a schedule; returns the file paths."""
    svg_path = f"{out_base}.svg"
    txt_path = f"{out_base}.txt"
    with open(svg_path, "w") as f:
        f.write(schedule_svg(schedule))
    with open(txt_path, "w") as f:
        f.write(text_grid(schedule))
    return [svg_path, txt_path]
