"""Per-layer activation-memory and parameter ledgers.

Two parameter-counting conventions exist:

* ``paper_compat`` (default): conv counts `kh*kw*C_in*C_out`, dense counts
  `in*out`, biases excluded.  This matches the reference ledgers cell for
  cell, which is what the golden tests pin down.
* ``with_biases``: adds `C_out` per conv and `out` per dense for honest
  totals.

Activation memory is counted in elements (one per output activation);
flatten and dropout are views over the previous buffer and hold no
storage of their own, so their rows print zeros.  Byte figures are a
display concern only (8 bytes per element at double precision).

Every per-kind cell comes from the kind's record in `netspec.KINDS`: the
row name prefix, the label, the filter text, whether the layer holds
storage, and the weight shape the parameter cell and its formula follow
from.  This module holds no per-kind rule of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .netspec import KINDS, NetSpec, layer_names, propagate_shapes, spec_id, weight_shapes

__all__ = [
    "CONVENTIONS",
    "ReportRow",
    "ComplexityReport",
    "ArchComparison",
    "analyze",
    "diff_reports",
]

CONVENTIONS = ("paper_compat", "with_biases")

@dataclass(frozen=True)
class ReportRow:
    name: str
    kind: str
    filter_desc: str
    output_shape: tuple[int, ...]
    memory_elements: int
    param_count: int
    memory_formula: str
    param_formula: str


@dataclass(frozen=True)
class ComplexityReport:
    spec_name: str
    spec_ident: str
    convention: str
    rows: tuple[ReportRow, ...]
    total_memory: int
    total_params: int

    def row(self, name: str) -> ReportRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(f"no report row named '{name}'")

    def render(self) -> str:
        """Aligned text table with the ledger's columns."""
        head = ("Name", "Type", "Filter", "Output Size", "Memory", "#Params")
        body = []
        for r in self.rows:
            out = "x".join(str(e) for e in r.output_shape)
            mem = f"{r.memory_formula} ={r.memory_elements:,}" if r.memory_formula else f"{r.memory_elements:,}"
            par = f"{r.param_formula} ={r.param_count:,}" if r.param_formula else f"{r.param_count:,}"
            body.append((r.name, KINDS[r.kind].label, r.filter_desc, out, mem, par))
        body.append(("total", "", "", "", f"{self.total_memory:,}", f"{self.total_params:,}"))
        widths = [max(len(row[i]) for row in [head] + body) for i in range(6)]
        lines = []
        for row in [head] + body:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        lines.insert(1, "-" * len(lines[0]))
        return "\n".join(lines)

    def to_kv(self) -> str:
        """Machine-readable key-value dump, one `key=value` per line."""
        lines = [
            f"spec={self.spec_name}",
            f"id={self.spec_ident}",
            f"convention={self.convention}",
        ]
        for r in self.rows:
            out = "x".join(str(e) for e in r.output_shape)
            lines.append(f"layer.{r.name}.output={out}")
            lines.append(f"layer.{r.name}.memory={r.memory_elements}")
            lines.append(f"layer.{r.name}.params={r.param_count}")
        lines.append(f"total.memory={self.total_memory}")
        lines.append(f"total.params={self.total_params}")
        return "\n".join(lines)


def analyze(spec: NetSpec, convention: str = "paper_compat") -> ComplexityReport:
    """Full ledger: one row per layer plus exact totals."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention '{convention}'; expected one of {CONVENTIONS}")
    shapes = propagate_shapes(spec)
    names = layer_names(spec)
    rows = []
    for i, (layer, weights) in enumerate(zip(spec.layers, weight_shapes(spec, shapes))):
        kind, out = KINDS[layer.kind], shapes[i]
        mem = 0 if kind.view else math.prod(out)
        mem_f = "*".join(map(str, out)) if not kind.view and len(out) > 1 else ""
        par, par_f = 0, ""
        if weights:
            *fan_in, fan_out = weights
            par = math.prod(weights)
            par_f = "*".join(map(str, fan_in))
            par_f = f"({par_f})*{fan_out}" if len(fan_in) > 1 else f"{par_f}*{fan_out}"
            if convention == "with_biases":
                par += fan_out
                par_f += f"+{fan_out}"
        rows.append(
            ReportRow(
                name=names[i],
                kind=layer.kind,
                filter_desc=kind.filter(layer, shapes[i - 1] if i else None),
                output_shape=out,
                memory_elements=mem,
                param_count=par,
                memory_formula=mem_f,
                param_formula=par_f,
            )
        )
    return ComplexityReport(
        spec_name=spec.name,
        spec_ident=spec_id(spec),
        convention=convention,
        rows=tuple(rows),
        total_memory=sum(r.memory_elements for r in rows),
        total_params=sum(r.param_count for r in rows),
    )


@dataclass(frozen=True)
class ArchComparison:
    """Two ledgers' totals side by side, with ratios a/b (`None` when b's total is 0)."""

    a: ComplexityReport
    b: ComplexityReport

    @property
    def param_ratio(self) -> float | None:
        return self.a.total_params / self.b.total_params if self.b.total_params else None

    @property
    def memory_ratio(self) -> float | None:
        return self.a.total_memory / self.b.total_memory if self.b.total_memory else None

    def render(self) -> str:
        pr = "inf" if self.param_ratio is None else f"{self.param_ratio:.1f}x"
        mr = "inf" if self.memory_ratio is None else f"{self.memory_ratio:.1f}x"
        return (
            f"#Params  {self.a.total_params:>12,}  vs {self.b.total_params:>10,}   ratio {pr}\n"
            f"Memory   {self.a.total_memory:>12,}  vs {self.b.total_memory:>10,}   ratio {mr}"
        )


def diff_reports(a: ComplexityReport, b: ComplexityReport) -> ArchComparison:
    """Compare the totals of `a` against `b`."""
    return ArchComparison(a, b)
