"""Prometheus text exposition: rendering, strict parsing, quantiles.

The paper's Section 6.4 workflow — a traffic management centre
repartitioning continuously as congestion evolves — is a *service*,
and services are watched by scraping. This module renders any
:class:`repro.obs.metrics.MetricsRegistry` in the Prometheus text
exposition format (version 0.0.4):

* counters become ``<ns>_<name>_total``;
* gauges keep their name;
* the registry's power-of-two histograms are converted to cumulative
  ``_bucket{le="..."}`` series plus ``_sum`` / ``_count``;
* a trailing ``[key=value,...]`` suffix on a registry metric name is
  parsed into Prometheus labels, so
  ``inc("serve.responses[status=200]", 5)`` exposes
  ``repro_serve_responses_total{status="200"} 5``.

:func:`parse_prometheus` is the matching strict parser — the tests and
the CI gate validate every scrape through it, so the emitted text is
held to the format rules (name charset, label escaping, TYPE-before-
samples, bucket cumulativity) rather than "looks about right".

The one HTTP endpoint for this text is ``repro serve``'s ``/metrics``
(:class:`repro.serve.PartitionServer`).
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "render_prometheus",
    "parse_prometheus",
    "PrometheusSample",
    "quantiles_from_latencies",
]

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")
_LABELLED_RE = re.compile(r"\A(?P<base>[^\[\]]+)\[(?P<labels>[^\[\]]*)\]\Z")

Labels = Dict[str, str]


# ----------------------------------------------------------------------
# rendering
def _sanitize_name(name: str) -> str:
    """Map a registry metric name onto the Prometheus name charset."""
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not out or not re.match(r"[a-zA-Z_:]", out[0]):
        out = "_" + out
    return out


def _split_labels(name: str) -> Tuple[str, Labels]:
    """Split the ``base[key=value,...]`` label convention off a name."""
    match = _LABELLED_RE.match(name)
    if not match:
        return name, {}
    labels: Labels = {}
    body = match.group("labels").strip()
    if body:
        for pair in body.split(","):
            key, sep, value = pair.partition("=")
            if not sep:
                return name, {}  # malformed suffix: treat as plain name
            labels[key.strip()] = value.strip()
    return match.group("base"), labels


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format rules."""
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _format_labels(labels: Labels) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_sanitize_name(k)}="{escape_label_value(str(v))}"'
        for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _bucket_bound(key: str) -> Optional[float]:
    """Upper bound of a registry histogram bucket key (None when unknown)."""
    if key == "<=0":
        return 0.0
    if key.startswith("2^"):
        try:
            return float(2.0 ** int(key[2:]))
        except (ValueError, OverflowError):
            return None
    return None


def render_prometheus(
    metrics: Union[MetricsRegistry, Dict[str, Any]],
    namespace: str = "repro",
    extra_labels: Optional[Labels] = None,
) -> str:
    """Render a registry (or its ``to_dict()`` snapshot) as exposition text.

    Families are emitted with a ``# TYPE`` header before their samples,
    counters get the ``_total`` suffix, histograms become cumulative
    ``le`` buckets. ``extra_labels`` (e.g. ``{"run_id": ...}``) are
    attached to every sample.
    """
    snapshot = metrics.to_dict() if isinstance(metrics, MetricsRegistry) else metrics
    extra = dict(extra_labels or {})
    prefix = _sanitize_name(namespace) + "_" if namespace else ""

    # group series by family so each family renders as one TYPE block
    counters: Dict[str, List[Tuple[Labels, float]]] = {}
    for name, value in snapshot.get("counters", {}).items():
        base, labels = _split_labels(name)
        family = prefix + _sanitize_name(base) + "_total"
        counters.setdefault(family, []).append(({**extra, **labels}, float(value)))

    gauges: Dict[str, List[Tuple[Labels, float]]] = {}
    for name, value in snapshot.get("gauges", {}).items():
        base, labels = _split_labels(name)
        family = prefix + _sanitize_name(base)
        gauges.setdefault(family, []).append(({**extra, **labels}, float(value)))

    lines: List[str] = []
    for family in sorted(counters):
        lines.append(f"# HELP {family} repro counter (monotone total)")
        lines.append(f"# TYPE {family} counter")
        for labels, value in sorted(counters[family], key=lambda lv: sorted(lv[0].items())):
            lines.append(f"{family}{_format_labels(labels)} {_format_value(value)}")
    for family in sorted(gauges):
        lines.append(f"# HELP {family} repro gauge (last value)")
        lines.append(f"# TYPE {family} gauge")
        for labels, value in sorted(gauges[family], key=lambda lv: sorted(lv[0].items())):
            lines.append(f"{family}{_format_labels(labels)} {_format_value(value)}")

    # labelled histogram series of one family (e.g. a latency
    # histogram per [endpoint=..]) must share a single HELP/TYPE block
    # — the exposition format forbids repeating TYPE for a family — so
    # group first
    histograms: Dict[str, List[Tuple[Labels, Dict[str, Any]]]] = {}
    for name, hist in snapshot.get("histograms", {}).items():
        base, labels = _split_labels(name)
        family = prefix + _sanitize_name(base)
        histograms.setdefault(family, []).append(({**extra, **labels}, hist))
    for family in sorted(histograms):
        lines.append(f"# HELP {family} repro histogram")
        lines.append(f"# TYPE {family} histogram")
        series = sorted(histograms[family], key=lambda lh: sorted(lh[0].items()))
        for labels, hist in series:
            count = int(hist.get("count", 0))
            total = float(hist.get("sum", 0.0))
            bounds: List[Tuple[float, int]] = []
            for key, n in hist.get("buckets", {}).items():
                bound = _bucket_bound(str(key))
                if bound is not None:
                    bounds.append((bound, int(n)))
            bounds.sort()
            cumulative = 0
            for bound, n in bounds:
                cumulative += n
                bucket_labels = {**labels, "le": _format_value(bound)}
                lines.append(
                    f"{family}_bucket{_format_labels(bucket_labels)} {cumulative}"
                )
            inf_labels = {**labels, "le": "+Inf"}
            lines.append(f"{family}_bucket{_format_labels(inf_labels)} {count}")
            lines.append(f"{family}_sum{_format_labels(labels)} {_format_value(total)}")
            lines.append(f"{family}_count{_format_labels(labels)} {count}")

    return "\n".join(lines) + "\n" if lines else ""


# ----------------------------------------------------------------------
# quantile estimation (the serving layer's p50/p99 gauges)
def quantiles_from_latencies(
    values: Sequence[float], qs: Sequence[float]
) -> List[float]:
    """Nearest-rank quantiles of one sample list, sorted exactly once
    (0 for each quantile of an empty list).

    The single source of truth for the nearest-rank semantics shared by
    the server's gauge refresh and the load generator's report — both
    need several quantiles of the same latency reservoir, and sorting
    per quantile is wasted work on an 8k-sample deque. Nearest rank
    means a p99 over 100 samples is the worst sample, not an
    interpolation below it.
    """
    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not values:
        return [0.0 for _ in qs]
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    return [
        ordered[min(n - 1, max(0, math.ceil(q * n) - 1))] for q in qs
    ]


# ----------------------------------------------------------------------
# parsing / validation (tests and the CI gate run every scrape through
# this, so the renderer is held to the format rules)
class PrometheusSample:
    """One parsed sample line: name, labels, value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels, value: float) -> None:
        self.name = name
        self.labels = labels
        self.value = value

    def __repr__(self) -> str:
        return f"PrometheusSample({self.name!r}, {self.labels!r}, {self.value!r})"


def _unescape_label_value(raw: str, line_no: int) -> str:
    out: List[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch == "\\":
            if i + 1 >= len(raw):
                raise ValueError(f"line {line_no}: dangling backslash in label value")
            nxt = raw[i + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == "n":
                out.append("\n")
            elif nxt == '"':
                out.append('"')
            else:
                raise ValueError(
                    f"line {line_no}: invalid escape '\\{nxt}' in label value"
                )
            i += 2
        elif ch == '"':
            raise ValueError(f"line {line_no}: unescaped quote in label value")
        elif ch == "\n":
            raise ValueError(f"line {line_no}: raw newline in label value")
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _parse_label_block(block: str, line_no: int) -> Labels:
    labels: Labels = {}
    i = 0
    while i < len(block):
        match = re.match(r"\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*\"", block[i:])
        if not match:
            raise ValueError(f"line {line_no}: malformed label block {block!r}")
        name = match.group(1)
        i += match.end()
        # scan the quoted value honouring escapes
        start = i
        while i < len(block):
            if block[i] == "\\":
                i += 2
                continue
            if block[i] == '"':
                break
            i += 1
        if i >= len(block):
            raise ValueError(f"line {line_no}: unterminated label value")
        labels[name] = _unescape_label_value(block[start:i], line_no)
        i += 1  # closing quote
        rest = block[i:].lstrip()
        if rest.startswith(","):
            i = len(block) - len(rest) + 1
        elif rest:
            raise ValueError(f"line {line_no}: junk after label value: {rest!r}")
        else:
            break
    return labels


def _parse_value(raw: str, line_no: int) -> float:
    raw = raw.strip()
    if raw in ("+Inf", "Inf"):
        return math.inf
    if raw == "-Inf":
        return -math.inf
    if raw == "NaN":
        return math.nan
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"line {line_no}: unparseable sample value {raw!r}")


def parse_prometheus(text: str) -> Tuple[List[PrometheusSample], Dict[str, str]]:
    """Parse (and validate) exposition text.

    Returns ``(samples, types)`` where ``types`` maps family name to
    the declared ``# TYPE``. Raises :class:`ValueError` on any
    violation of the subset of the format this package emits: bad
    metric/label names, bad escapes, samples before their family's
    TYPE line, counter families without ``_total``, histogram buckets
    that are not cumulative or whose ``+Inf`` bucket disagrees with
    ``_count``.
    """
    samples: List[PrometheusSample] = []
    types: Dict[str, str] = {}
    seen_families: List[str] = []

    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                family, kind = parts[2], (parts[3] if len(parts) > 3 else "")
                if not _NAME_RE.match(family):
                    raise ValueError(f"line {line_no}: bad family name {family!r}")
                if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                    raise ValueError(f"line {line_no}: bad TYPE {kind!r}")
                if family in types:
                    raise ValueError(f"line {line_no}: duplicate TYPE for {family}")
                types[family] = kind
                seen_families.append(family)
            continue  # HELP and plain comments need no validation
        match = re.match(r"\A([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)\s*\Z", line)
        if not match:
            raise ValueError(f"line {line_no}: malformed sample line {line!r}")
        name, __, label_block, raw_value = match.groups()
        labels = _parse_label_block(label_block, line_no) if label_block else {}
        for label_name in labels:
            if not _LABEL_NAME_RE.match(label_name):
                raise ValueError(f"line {line_no}: bad label name {label_name!r}")
        samples.append(PrometheusSample(name, labels, _parse_value(raw_value, line_no)))

    # cross-line rules --------------------------------------------------
    by_name: Dict[str, List[PrometheusSample]] = {}
    for sample in samples:
        by_name.setdefault(sample.name, []).append(sample)

    def family_of(name: str) -> Optional[str]:
        if name in types:
            return name
        # histogram series ride under their family's TYPE declaration
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and types.get(base) == "histogram":
                return base
        return None

    for sample in samples:
        if sample.name not in types and family_of(sample.name) is None:
            raise ValueError(f"sample {sample.name} has no TYPE declaration")

    for family, kind in types.items():
        if kind == "counter" and not family.endswith("_total"):
            raise ValueError(f"counter family {family} must end in _total")
        if kind != "histogram":
            continue
        buckets = sorted(
            (s for s in by_name.get(family + "_bucket", [])),
            key=lambda s: math.inf if s.labels.get("le") == "+Inf" else float(s.labels.get("le", "nan")),
        )
        if not buckets:
            raise ValueError(f"histogram {family} has no _bucket samples")
        if buckets[-1].labels.get("le") != "+Inf":
            raise ValueError(f"histogram {family} is missing the +Inf bucket")
        counts = [s.value for s in buckets]
        if any(b > a for a, b in zip(counts[1:], counts)):
            raise ValueError(f"histogram {family} buckets are not cumulative")
        count_samples = by_name.get(family + "_count", [])
        if not count_samples or count_samples[0].value != buckets[-1].value:
            raise ValueError(f"histogram {family}: +Inf bucket != _count")
    return samples, types
