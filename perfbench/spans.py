"""Spans recorded around blockcov's public functions, from outside the package.

While ``Tracer.installed()`` is active, the functions listed in
``shim_targets`` are rebound to wrappers in the modules that call them
(``blockcov.pipeline``, ``blockcov.sparsify``, ``blockcov.lowrank``,
``blockcov.cli`` and ``numpy.linalg``); leaving the block restores the
originals. Each call becomes a span with its name, start, end, parent span
and operation id. Spans stay in memory until the run writes them out.
"""

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import blockcov.cli
import blockcov.lowrank
import blockcov.pipeline
import blockcov.sparsify


def shim_targets():
    """(module, attribute, span name) of every wrapped call site."""
    P, S, L, C = blockcov.pipeline, blockcov.sparsify, blockcov.lowrank, blockcov.cli
    return [
        (C, "estimate", "pipeline.estimate"),
        (C, "read_matrix_csv", "io.read_matrix_csv"),
        (C, "write_matrix_csv", "io.write_matrix_csv"),
        (P, "dissimilarity", "permute.dissimilarity"),
        (P, "hclust_complete", "permute.hclust_complete"),
        (P, "leaf_order", "permute.leaf_order"),
        (P, "sample_correlation", "corr.sample_correlation"),
        (L, "sample_correlation", "corr.sample_correlation"),
        (S, "sample_correlation", "corr.sample_correlation"),
        (P, "scree", "lowrank.scree"),
        (L, "scree", "lowrank.scree"),
        (P, "select_rank_cattell", "lowrank.select_rank_cattell"),
        (P, "select_rank_pa", "lowrank.select_rank_pa"),
        (P, "truncate_rank", "lowrank.truncate_rank"),
        (S, "truncate_rank", "lowrank.truncate_rank"),
        (P, "candidate_lambdas", "sparsify.candidate_lambdas"),
        (P, "select_lambda_elbow", "sparsify.select_lambda_elbow"),
        (P, "select_lambda_bl", "sparsify.select_lambda_bl"),
        (P, "hard_threshold", "sparsify.hard_threshold"),
        (S, "hard_threshold", "sparsify.hard_threshold"),
        (P, "sparse_sigma", "sparsify.sparse_sigma"),
        (P, "nearest_correlation", "psd.nearest_correlation"),
        (P, "inv_sqrt", "psd.inv_sqrt"),
        (np.linalg, "eigh", "linalg.eigh"),
        (np.linalg, "eigvalsh", "linalg.eigvalsh"),
    ]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: int
    size: int = 0       # matrix order of a decomposition, bytes of a written file


class Tracer:
    """In-memory span recorder for the operations of one traced run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None

    @contextmanager
    def span(self, name, op=None):
        """Record the enclosed block as a span; ``op`` starts a new operation."""
        if op is not None:
            self._op = op
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self._op)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if name.startswith("linalg."):
                record.size = np.shape(args[0])[-1]
            elif name == "io.write_matrix_csv":
                record.size = os.path.getsize(args[0])
            return result
        return shim

    @contextmanager
    def installed(self):
        """Rebind every shim target for the duration of the block."""
        saved = []
        try:
            for module, attr, name in shim_targets():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summaries(self):
        """Per operation id, per span name: calls, inclusive and self seconds, summed sizes.

        Also counts ``psd.nearest_correlation.iterations``: eigendecompositions
        made directly inside the projection, minus its final one.
        """
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        result = defaultdict(lambda: defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "size": 0, "size3": 0, "iterations": 0}))
        for i, s in enumerate(self.spans):
            entry = result[s.op][s.name]
            entry["calls"] += 1
            entry["s"] += s.end - s.start
            entry["self_s"] += s.end - s.start - child_time[i]
            entry["size"] += s.size
            entry["size3"] += s.size ** 3
            if s.name == "psd.nearest_correlation":
                entry["iterations"] -= 1
            elif s.name == "linalg.eigh" and s.parent is not None and \
                    self.spans[s.parent].name == "psd.nearest_correlation":
                result[s.op]["psd.nearest_correlation"]["iterations"] += 1
        return result
