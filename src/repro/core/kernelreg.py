"""Provenance of the batch-evaluation kernel, for benchmark records.

The mapping-search evaluator (:mod:`repro.core.batch`) has one kernel, the
pure-Python :class:`repro.core._kernel.PyKernel`.  This module exists for
the benchmark harness, which imports :func:`kernel_provenance` and records
its result next to every run.
"""

from __future__ import annotations


def kernel_provenance(requested: str = "auto") -> dict[str, object]:
    """JSON-ready record naming the evaluator kernel.

    ``requested`` is accepted for the harness's existing call and does not
    change the result: there is only the Python kernel.
    """
    return {"active": "python"}
