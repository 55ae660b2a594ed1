"""Compare two sets of result files, workload by workload.

Each side is a result file or a directory of them (``*.json`` written
by run.py; span files are skipped).  For every workload and metric both
sides' medians and quartiles across runs are printed, with the ratio
NEW / BASE.  Detail figures (medians within a run) are compared the
same way, on their within-run medians.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from common import quartiles


def load(path: str) -> dict:
    """{workload: {metric: [values across runs]}} and units."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    table = defaultdict(lambda: defaultdict(list))
    units = {}
    for f in files:
        doc = json.loads(f.read_text())
        if "workload" not in doc:
            continue
        wl = doc["workload"]
        for name, m in doc.get("metrics", {}).items():
            table[wl][name].append(m["value"])
            units[name] = m["unit"]
        for name, s in doc.get("detail", {}).items():
            table[wl][f"detail.{name}"].append(s["median"])
        table[wl]["runs"].append(1)
    return table, units


def main(base: str, new: str) -> int:
    a, units = load(base)
    b, units_b = load(new)
    units.update(units_b)
    print(f"base={base} new={new}  ratio = new / base")
    for wl in sorted(set(a) | set(b)):
        print(f"[{wl}] runs: base {len(a[wl]['runs'])}, new {len(b[wl]['runs'])}")
        for name in sorted((set(a[wl]) | set(b[wl])) - {"runs"}):
            va, vb = a[wl].get(name), b[wl].get(name)
            if not va or not vb:
                print(f"  {name}: only in {'base' if va else 'new'}")
                continue
            qa, qb = quartiles(va), quartiles(vb)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            unit = f" [{units[name]}]" if name in units else ""
            print(f"  {name}{unit} base median {qa[1]:.6g} (q1 {qa[0]:.6g}, q3 {qa[2]:.6g})"
                  f" | new median {qb[1]:.6g} (q1 {qb[0]:.6g}, q3 {qb[2]:.6g})"
                  f" | new/base {ratio:.4f}")
    return 0
