"""Computation-type aggregation (Fig. 8) and the Fig. 5 breakdown helper."""

from __future__ import annotations

from ..core.taxonomy import ComputationType
from .metrics import by_ctype
from .runner import Row

#: Metrics averaged per computation type in Fig. 8.
FIG8_METRICS = ("l2_mpki", "l3_mpki", "dtlb_penalty", "branch_miss_rate",
                "ipc")

def fig8_table(rows: list[Row]) -> list[list]:
    """Rows: [metric, CompStruct, CompProp, CompDyn]."""
    out = []
    for metric in FIG8_METRICS:
        per = by_ctype(rows, metric)
        out.append([metric,
                    per.get(ComputationType.COMP_STRUCT, float("nan")),
                    per.get(ComputationType.COMP_PROP, float("nan")),
                    per.get(ComputationType.COMP_DYN, float("nan"))])
    return out


def breakdown_table(rows: list[Row]) -> list[list]:
    """Fig. 5 rows: [workload, ctype, frontend, badspec, retiring,
    backend] as fractions."""
    out = []
    for r in rows:
        if r.cpu is None:
            continue
        f = r.cpu.breakdown.fractions()
        out.append([r.workload, r.ctype.value, f["Frontend"],
                    f["BadSpeculation"], f["Retiring"], f["Backend"]])
    return out
