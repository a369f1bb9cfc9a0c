"""Metric exposition: Prometheus text format and JSON, from snapshots.

Both renderers consume the JSON-safe snapshot dict produced by
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` — which is also
exactly what the service's ``stats`` wire op ships — so a remote scraper
(``repro stats --format prom``) renders the same text a local process
would, without the registry objects ever crossing the socket.

The text format follows the Prometheus exposition format 0.0.4:
``# HELP`` / ``# TYPE`` headers, one ``name{labels} value`` line per
sample, histograms as cumulative ``_bucket{le=...}`` series plus
``_sum`` / ``_count``.
"""

from __future__ import annotations

from typing import Any, Mapping

from .metrics import format_number

#: Characters needing escape inside a label value, per the exposition
#: format: backslash, double-quote, newline.
_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def escape_label_value(value: str) -> str:
    return "".join(_LABEL_ESCAPES.get(ch, ch) for ch in str(value))


def _label_str(labels: Mapping[str, str],
               extra: tuple[str, str] | None = None) -> str:
    pairs = [(k, labels[k]) for k in sorted(labels)]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{escape_label_value(v)}"' for k, v in pairs)
    return "{" + body + "}"


def render_prometheus(snapshot: Mapping[str, Any]) -> str:
    """The full exposition text for one registry snapshot."""
    lines: list[str] = []
    for name in sorted(snapshot):
        fam = snapshot[name]
        if fam.get("help"):
            lines.append(f"# HELP {name} {fam['help']}")
        lines.append(f"# TYPE {name} {fam['type']}")
        for sample in fam.get("samples", []):
            labels = sample.get("labels", {})
            if fam["type"] == "histogram":
                for bound, cumulative in sample.get("buckets", ()):
                    lines.append(
                        f"{name}_bucket"
                        f"{_label_str(labels, ('le', str(bound)))} "
                        f"{format_number(float(cumulative))}")
                lines.append(f"{name}_sum{_label_str(labels)} "
                             f"{format_number(float(sample['sum']))}")
                lines.append(f"{name}_count{_label_str(labels)} "
                             f"{format_number(float(sample['count']))}")
            else:
                lines.append(f"{name}{_label_str(labels)} "
                             f"{format_number(float(sample['value']))}")
    return "\n".join(lines) + ("\n" if lines else "")
