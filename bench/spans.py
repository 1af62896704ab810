"""In-memory span recorder that wraps cslab's public callables from outside.

A span is (name, start_ns, end_ns, parent index, trial id).  Spans are kept in
a list while a traced call runs; ``Tracer.summary`` turns them into per-layer
metrics.  A span's self time is its duration minus the durations of its direct
children, so the self times of all spans under the root add up to the root's
wall time exactly.  The trial id counts ``generate_bandlimited`` calls, which
begin every sweep trial; the containment campaign draws its trials inside one
call, so its spans all carry trial -1.

Nothing under ``src/`` is edited: ``Tracer.installed`` swaps module and class
attributes for wrappers and restores the originals on exit.  ``lstsq`` is the
numpy solve as called from ``cslab.recovery``; it is reached by giving that
module a proxy for ``np`` whose ``linalg.lstsq`` is wrapped.  Rank failures are
the ``LinAlgError``s raised by recovery's private ``_lstsq_on_support``, the
only place they are observable; CoSaMP catches them and stops.  If that helper
is renamed, installing the tracer fails with a KeyError instead of silently
counting nothing.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
from time import perf_counter_ns

import numpy as np

from cslab import (cli, experiments, metrics, quantization, recovery, results_io, sensing,
                   signal_model, theory)

ROOT = "experiments.harness"

# every span the trace reports, in report order; hot spans also get latency percentiles
SPANS = (
    "signal_model.generate_bandlimited",
    "signal_model.SparseSpectrum",
    "signal_model.add_signal_noise",
    "signal_model.synthesize_vector",
    "signal_model.analyze_vector",
    "signal_model.basis_column",
    "sensing.generate_subsampled_dct_ensemble",
    "sensing.generate_ensemble",
    "sensing.orthogonalize_rows",
    "sensing.estimate_rip_constant",
    "sensing.apply",
    "sensing.apply_transpose",
    "sensing.columns",
    "recovery.oracle_recover",
    "recovery.cosamp",
    "recovery.bandpass_baseline",
    "recovery.lstsq",
    "quantization.quantize",
    "metrics.isnr",
    "metrics.msnr",
    "metrics.rsnr",
    "experiments.aggregate",
    "results_io.build_sweep_config",
    "results_io.write_results",
)
HOT_SPANS = (
    "signal_model.SparseSpectrum",
    "signal_model.basis_column",
    "sensing.apply",
    "sensing.apply_transpose",
    "sensing.columns",
    "recovery.oracle_recover",
    "recovery.cosamp",
    "recovery.lstsq",
    "quantization.quantize",
)


class _Proxy:
    """Attribute-forwarding stand-in for a module, with some names overridden."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Records spans and counts; one instance per traced run."""

    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent, trial); None while open
        self._stack = []
        self.trial = -1
        self._truth_support = None
        self.counts = dict.fromkeys(("columns_entries", "cosamp_runs", "cosamp_iterations",
                                     "cosamp_converged", "cosamp_hits", "alias_failures",
                                     "rank_failures", "quantized_values", "written_bytes",
                                     "theory_calls"), 0)

    # -- recording --------------------------------------------------------

    def _open(self) -> tuple:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _close(self, name: str, index: int, parent: int, start: int) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.trial)

    @contextlib.contextmanager
    def span(self, name: str):
        index, parent = self._open()
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(name, index, parent, start)

    def wrap(self, name: str, fn, on_result=None, on_error=None, new_trial=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_trial:
                tracer.trial += 1
            index, parent = tracer._open()
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                tracer._close(name, index, parent, start)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _counted(self, key: str, fn, error=None):
        """Count calls (or, given ``error``, raises of that type) without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if error is None:
                counts[key] += 1
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            except error:
                counts[key] += 1
                raise

        return counted

    # -- count hooks (run after the span closes) --------------------------

    def _on_spectrum(self, spectrum):
        self._truth_support = spectrum.support

    def _on_columns(self, block):
        self.counts["columns_entries"] += block.size

    def _on_cosamp(self, out):
        c = self.counts
        c["cosamp_runs"] += 1
        c["cosamp_iterations"] += out.iterations
        c["cosamp_converged"] += bool(out.converged)
        truth = self._truth_support
        c["cosamp_hits"] += truth is not None and np.array_equal(out.support_hat, truth)

    def _on_alias(self, exc):
        if isinstance(exc, ValueError):
            self.counts["alias_failures"] += 1

    def _on_quantize(self, values):
        self.counts["quantized_values"] += np.size(values)

    def _on_written(self, paths):
        self.counts["written_bytes"] += sum(p.stat().st_size for p in paths.values())

    # -- installation -----------------------------------------------------

    def _patches(self):
        w = self.wrap
        basis_column = w("signal_model.basis_column", signal_model.basis_column)
        analyze_vector = w("signal_model.analyze_vector", signal_model.analyze_vector)
        aggregate = w("experiments.aggregate", experiments.aggregate)
        build = w("results_io.build_sweep_config", results_io.build_sweep_config)
        write = w("results_io.write_results", results_io.write_results,
                  on_result=self._on_written)
        lstsq = w("recovery.lstsq", np.linalg.lstsq)
        ens = sensing.MeasurementEnsemble
        patches = [
            (signal_model, "generate_bandlimited",
             w("signal_model.generate_bandlimited", signal_model.generate_bandlimited,
               on_result=self._on_spectrum, new_trial=True)),
            (signal_model.SparseSpectrum, "__post_init__",
             w("signal_model.SparseSpectrum", signal_model.SparseSpectrum.__post_init__)),
            (signal_model, "add_signal_noise",
             w("signal_model.add_signal_noise", signal_model.add_signal_noise)),
            (signal_model, "synthesize_vector",
             w("signal_model.synthesize_vector", signal_model.synthesize_vector)),
            (signal_model, "analyze_vector", analyze_vector),
            (recovery, "analyze_vector", analyze_vector),
            (signal_model, "basis_column", basis_column),
            (recovery, "basis_column", basis_column),
            (ens, "apply", w("sensing.apply", ens.apply)),
            (ens, "apply_transpose", w("sensing.apply_transpose", ens.apply_transpose)),
            (ens, "columns", w("sensing.columns", ens.columns, on_result=self._on_columns)),
            (recovery, "oracle_recover", w("recovery.oracle_recover", recovery.oracle_recover)),
            (recovery, "cosamp", w("recovery.cosamp", recovery.cosamp,
                                   on_result=self._on_cosamp)),
            (recovery, "bandpass_baseline", w("recovery.bandpass_baseline",
                                              recovery.bandpass_baseline,
                                              on_error=self._on_alias)),
            (recovery, "np", _Proxy(np, linalg=_Proxy(np.linalg, lstsq=lstsq))),
            (recovery, "_lstsq_on_support",
             self._counted("rank_failures", recovery._lstsq_on_support,
                           error=np.linalg.LinAlgError)),
            (quantization, "quantize", w("quantization.quantize", quantization.quantize,
                                         on_result=self._on_quantize)),
            (experiments, "aggregate", aggregate),
            (results_io, "aggregate", aggregate),
            (results_io, "build_sweep_config", build),
            (cli, "build_sweep_config", build),
            (results_io, "write_results", write),
            (cli, "write_results", write),
        ]
        for name in ("generate_subsampled_dct_ensemble", "generate_ensemble",
                     "orthogonalize_rows", "estimate_rip_constant"):
            patches.append((sensing, name, w(f"sensing.{name}", getattr(sensing, name))))
        for name in ("isnr", "msnr", "rsnr"):
            patches.append((metrics, name, w(f"metrics.{name}", getattr(metrics, name))))
        for name in theory.__all__:
            fn = getattr(theory, name)
            if inspect.isfunction(fn):
                patches.append((theory, name, self._counted("theory_calls", fn)))
        return patches

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved = []
        try:
            for owner, attr, wrapper in self._patches():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reporting --------------------------------------------------------

    def summary(self) -> dict:
        """Per-span totals over every recorded root, plus the count metrics.

        Returns calls, self_ns, durations_ns per span name, the summed
        harness self time, the summed root wall time and the counts.
        """
        if any(s is None for s in self.spans):
            raise RuntimeError("summary() called with a span still open")
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _trial in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        per_span = {name: {"calls": 0, "self_ns": 0, "durations_ns": []} for name in SPANS}
        harness_ns = wall_ns = 0
        for i, (name, start, end, parent, _trial) in enumerate(self.spans):
            self_ns = end - start - child_ns[i]
            if name == ROOT:
                if parent >= 0:
                    raise RuntimeError("the harness span must be a root")
                harness_ns += self_ns
                wall_ns += end - start
                continue
            entry = per_span[name]
            entry["calls"] += 1
            entry["self_ns"] += self_ns
            entry["durations_ns"].append(end - start)
        return {"spans": per_span, "harness_ns": harness_ns, "wall_ns": wall_ns,
                "counts": dict(self.counts)}
