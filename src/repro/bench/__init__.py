"""Benchmark harness: run matrices, overhead computation, table output."""

from .harness import (
    BenchResult, CellMatrix, RunMatrix, attach_overheads,
    compile_workload, run_cells, run_workload, overhead_matrix,
    PAPER_SETTINGS,
)
from .gates import GateReport, evaluate, rolling_baseline
from .kinds import KINDS, BenchKind
from .provision import ProvisionMatrix, ProvisionResult, measure_cell
from .store import CellKey, Record, ResultsStore, records_from_doc
from .tables import format_series, format_table, percent

__all__ = ["BenchResult", "RunMatrix", "attach_overheads",
           "compile_workload", "run_workload",
           "overhead_matrix", "PAPER_SETTINGS",
           "ProvisionMatrix", "ProvisionResult", "measure_cell",
           "format_series", "format_table", "percent",
           "CellKey", "Record", "ResultsStore", "records_from_doc",
           "GateReport", "evaluate", "rolling_baseline",
           "BenchKind", "KINDS", "CellMatrix", "run_cells"]
