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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .netspec import NetSpec, propagate_shapes, spec_id

__all__ = [
    "CONVENTIONS",
    "ReportRow",
    "ComplexityReport",
    "ArchComparison",
    "analyze",
    "diff_reports",
]

CONVENTIONS = ("paper_compat", "with_biases")

_KIND_LABEL = {
    "input": "Image",
    "conv": "Convolution",
    "maxpool": "Max Pooling",
    "dense": "Fully Connected",
    "dropout": "Dropout",
    "flatten": "Flatten",
}


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
            body.append((r.name, _KIND_LABEL[r.kind], r.filter_desc, out, mem, par))
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


def layer_names(spec: NetSpec) -> list[str]:
    """Ledger row names: conv/pool/fc numbered per kind, singletons bare."""
    counters = {"conv": 0, "maxpool": 0, "dense": 0, "dropout": 0, "flatten": 0}
    names = []
    multi = {k: sum(1 for l in spec.layers if l.kind == k) > 1 for k in counters}
    prefix = {"conv": "conv", "maxpool": "pool", "dense": "fc", "dropout": "dropout", "flatten": "flatten"}
    for layer in spec.layers:
        if layer.kind == "input":
            names.append("input")
            continue
        counters[layer.kind] += 1
        base = prefix[layer.kind]
        # conv/pool/fc always carry an index, mirroring the ledger naming
        if layer.kind in ("conv", "maxpool", "dense"):
            names.append(f"{base}{counters[layer.kind]}")
        else:
            names.append(f"{base}{counters[layer.kind]}" if multi[layer.kind] else base)
    return names


def _param_cell(layer, in_shape, convention: str, factored_in=None) -> tuple[int, str]:
    if layer.kind == "conv":
        k, cin, cout = layer.kernel, in_shape[2], layer.out_channels
        count = k * k * cin * cout
        formula = f"({k}*{k}*{cin})*{cout}"
        if convention == "with_biases":
            count += cout
            formula += f"+{cout}"
        return count, formula
    if layer.kind == "dense":
        fin, fout = in_shape[0], layer.out_features
        count = fin * fout
        # show the pre-flatten factorization when the input was a feature map
        if factored_in is not None and len(factored_in) > 1:
            formula = f"({'*'.join(str(e) for e in factored_in)})*{fout}"
        else:
            formula = f"{fin}*{fout}"
        if convention == "with_biases":
            count += fout
            formula += f"+{fout}"
        return count, formula
    return 0, ""


def _memory_cell(layer, out_shape) -> tuple[int, str]:
    # flatten/dropout are views over the previous activation buffer
    if layer.kind in ("flatten", "dropout"):
        return 0, ""
    count = math.prod(out_shape)
    formula = "*".join(str(e) for e in out_shape) if len(out_shape) > 1 else ""
    return count, formula


def _filter_desc(layer, in_shape) -> str:
    if layer.kind == "conv":
        return f"{layer.kernel}x{layer.kernel}x{in_shape[2]}"
    if layer.kind == "maxpool":
        return f"{layer.window}x{layer.window}"
    return ""


def analyze(spec: NetSpec, convention: str = "paper_compat") -> ComplexityReport:
    """Full ledger: one row per layer plus exact totals."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention '{convention}'; expected one of {CONVENTIONS}")
    shapes = propagate_shapes(spec)
    names = layer_names(spec)
    rows = []
    for i, layer in enumerate(spec.layers):
        in_shape = shapes[i - 1] if i else None
        factored = None
        if layer.kind == "dense":
            # walk back through view layers to the shape that was flattened
            j = i - 1
            while j >= 0 and spec.layers[j].kind in ("flatten", "dropout"):
                j -= 1
            if j >= 0:
                factored = shapes[j]
        mem, mem_f = _memory_cell(layer, shapes[i])
        par, par_f = _param_cell(layer, in_shape, convention, factored_in=factored)
        rows.append(
            ReportRow(
                name=names[i],
                kind=layer.kind,
                filter_desc=_filter_desc(layer, in_shape),
                output_shape=shapes[i],
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
    """Totals of two ledgers side by side, with ratios a/b."""

    param_ratio: float | None
    memory_ratio: float | None
    param_delta: int
    memory_delta: int
    a_params: int
    b_params: int
    a_memory: int
    b_memory: int

    def render(self) -> str:
        pr = "inf" if self.param_ratio is None else f"{self.param_ratio:.1f}x"
        mr = "inf" if self.memory_ratio is None else f"{self.memory_ratio:.1f}x"
        return (
            f"#Params  {self.a_params:>12,}  vs {self.b_params:>10,}   ratio {pr}\n"
            f"Memory   {self.a_memory:>12,}  vs {self.b_memory:>10,}   ratio {mr}"
        )


def diff_reports(a: ComplexityReport, b: ComplexityReport) -> ArchComparison:
    """Compare totals of `a` against `b` (ratios are a/b, None when b is 0)."""

    def ratio(x, y):
        return None if y == 0 else x / y

    return ArchComparison(
        param_ratio=ratio(a.total_params, b.total_params),
        memory_ratio=ratio(a.total_memory, b.total_memory),
        param_delta=a.total_params - b.total_params,
        memory_delta=a.total_memory - b.total_memory,
        a_params=a.total_params,
        b_params=b.total_params,
        a_memory=a.total_memory,
        b_memory=b.total_memory,
    )
