"""Declarative parameter sweeps over the campaign executor seam.

A sweep names a grid over five axes — chaos profile, source-rate
multiplier, burstiness, controller, runtime — plus optional explicit
cells, and compiles every grid cell into the same
:class:`~repro.faults.campaigns.CampaignCellSpec` currency chaos
campaigns run on. Sweeps therefore inherit ``--jobs N`` parallelism,
retry/quarantine supervision, crash-safe checkpoint journals with
resume, progress heartbeats, and span profiling without any
sweep-specific execution code.

See :doc:`docs/sweeps` for the TOML spec format and the CLI
(``repro sweep run`` / ``repro sweep report``).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sweeps.grid import (
        CompiledGrid,
        SweepResult,
        compile_grid,
        run_sweep,
        sweep_result_from_journal,
    )
    from repro.sweeps.report import (
        SWEEP_RENDERERS,
        SweepReport,
        build_sweep_report,
        render_sweep_json,
        render_sweep_markdown,
        render_sweep_text,
    )
    from repro.sweeps.spec import (
        AXIS_ORDER,
        CellCoordinate,
        SweepCell,
        SweepSpec,
        expand_cells,
        load_spec,
        spec_fingerprint,
        spec_from_document,
        sweep_label,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sweeps.grid": (
        "CompiledGrid", "SweepResult", "compile_grid", "run_sweep",
        "sweep_result_from_journal",
    ),
    "repro.sweeps.report": (
        "SWEEP_RENDERERS", "SweepReport", "build_sweep_report",
        "render_sweep_json", "render_sweep_markdown", "render_sweep_text",
    ),
    "repro.sweeps.spec": (
        "AXIS_ORDER", "CellCoordinate", "SweepCell", "SweepSpec",
        "expand_cells", "load_spec", "spec_fingerprint", "spec_from_document",
        "sweep_label",
    ),
})

__all__ = [
    "AXIS_ORDER",
    "CellCoordinate",
    "CompiledGrid",
    "SWEEP_RENDERERS",
    "SweepCell",
    "SweepReport",
    "SweepResult",
    "SweepSpec",
    "build_sweep_report",
    "compile_grid",
    "expand_cells",
    "load_spec",
    "render_sweep_json",
    "render_sweep_markdown",
    "render_sweep_text",
    "run_sweep",
    "spec_fingerprint",
    "spec_from_document",
    "sweep_label",
]
