"""The host's speed, measured by a fixed reference kernel, and its identity.

On the shared 2-vCPU host the program's slow plateaus come from
contention for caches and memory, not from losing the CPU (per-call
``thread_time`` tracks wall time within 1%), and they slow different
kinds of code by different amounts: a dense product or a Python loop
slows far less than the engines do.  The reference kernel is therefore a
small, frozen stand-in for the kind of work the engines do — one pass of
a two-block convolution on float64 crossbar readouts (im2col gathers,
read noise, ADC rounding, sign, max-pool) and a T = 20 pass-stacked
binary MLP with dropout masks and a softmax — written against NumPy
alone.  Its time moved in proportion to the served calls' time, where
simpler kernels did not (README.md, "Host measurements").  For a
workload with two engine replicas it adds a product run on both threads
at once (:class:`ReferenceKernel`).  It touches nothing of ``repro``, so
no change to the program can move it.

Boot times are Python imports more than NumPy work, and the kernel does
not track them; a reference *boot* — a fresh interpreter importing the
same third-party and standard modules, nothing of ``repro`` — does.

The host also loses whole vCPUs to the hypervisor now and then (steal);
:class:`HostLog` records the steal counter as the load runs, so the
estimators can leave out the requests it hit.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# The kernel's time on a quiet host: latencies are reported at the host
# speed where the kernel takes REF_MS (README.md, "Estimators").
REF_MS = 1.0


def _gather_plan(h: int, w: int, k: int = 3) -> np.ndarray:
    oh, ow = h - k + 1, w - k + 1
    rows = np.repeat(np.arange(k), k)[:, None] + \
        np.repeat(np.arange(oh), ow)[None, :]
    cols = np.tile(np.arange(k), k)[:, None] + np.tile(np.arange(ow), oh)[None, :]
    return (rows * w + cols).ravel()


class _MiniEngine:
    """The kernel's state."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._noise = np.random.default_rng(3)
        self._masks = np.random.default_rng(5)
        self._image = np.sign(rng.standard_normal((1, 16, 16, 4)))
        self._bars = [(rng.random((rows, cols)) + 1.0,
                       rng.random((rows, cols)) + 1.0)
                      for rows, cols in ((9, 8), (72, 16), (256, 10))]
        self._pad1 = np.zeros((1, 18, 18, 4))
        self._pad2 = np.zeros((8, 10, 10, 4))
        self._plan1 = _gather_plan(18, 18)
        self._plan2 = _gather_plan(10, 10)
        self._w = [np.sign(rng.standard_normal(shape)).astype(np.float32)
                   for shape in ((128, 256), (64, 128), (10, 64))]
        self._x = rng.standard_normal((3, 256))

    def _readout(self, patches: np.ndarray, bar: int) -> np.ndarray:
        g_pos, g_neg = self._bars[bar]
        rows = g_pos.shape[0]
        pos = (patches > 0).astype(np.float64)
        neg = (patches < 0).astype(np.float64)
        n_active = (pos + neg).sum(axis=0)
        g_pos = g_pos * (1 + 0.01 * self._noise.standard_normal(g_pos.shape))
        g_neg = g_neg * (1 + 0.01 * self._noise.standard_normal(g_neg.shape))
        current = 0.1 * (g_pos.T @ pos + g_neg.T @ neg)
        mac = 2.0 * ((current / 0.1 - n_active) / 0.5) - n_active
        return np.rint(np.clip(mac, -rows, rows) / 3.0) * 3.0

    @staticmethod
    def _sign_pool(x: np.ndarray) -> np.ndarray:
        x = np.sign(x * 0.5 - 0.1)
        return np.maximum(np.maximum(x[:, 0::2, 0::2], x[:, 1::2, 0::2]),
                          np.maximum(x[:, 0::2, 1::2], x[:, 1::2, 1::2]))

    def _conv_pass(self) -> None:
        self._pad1[:, 1:17, 1:17, :] = self._image
        patches = np.take(self._pad1.reshape(1, 324, 4), self._plan1,
                          axis=1).reshape(9, -1)
        h = self._sign_pool(self._readout(patches, 0).reshape(8, 16, 16, 4))
        self._pad2[:, 1:9, 1:9, :] = h
        patches = np.take(self._pad2.reshape(8, 100, 4), self._plan2,
                          axis=1).reshape(72, -1)
        h = self._sign_pool(self._readout(patches, 1).reshape(16, 8, 8, 4))
        self._readout(h.reshape(256, 4), 2)

    def _mlp_passes(self, passes: int = 20) -> None:
        w1, w2, w3 = self._w
        rows = self._x.shape[0]
        h = np.sign(self._x).astype(np.float32) @ w1.T
        h = np.sign((np.rint(np.clip(h, -256, 256) / 9.0) * 9.0 - 0.3) / 1.1)
        h = np.broadcast_to(h[None], (passes,) + h.shape).reshape(-1, 128)
        keep = np.repeat(self._masks.random((passes, 128)) < 0.75, rows,
                         axis=0)
        h = (h * keep).astype(np.float32) @ w2.T
        h = np.sign((np.rint(np.clip(h, -128, 128) / 5.0) * 5.0 - 0.2) / 1.3)
        keep = np.repeat(self._masks.random((passes, 64)) < 0.75, rows,
                         axis=0)
        logits = ((h * keep).astype(np.float32) @ w3.T).reshape(
            passes, rows, 10) * 0.7
        e = np.exp(logits - logits.max(axis=2, keepdims=True))
        (e / e.sum(axis=2, keepdims=True)).mean(axis=0)

    def run(self) -> None:
        self._conv_pass()
        self._mlp_passes()


class ReferenceKernel:
    """The kernel.  For a workload whose engine replicas run on
    ``threads`` > 1 threads, a sample adds to one run of the mini-engine
    a float32 product run on every thread at once, with the interpreter
    lock released, as the replicas' products run: how fast two threads
    compute side by side changes with how the host places the vCPUs,
    and the single-threaded mini-engine does not see it."""

    # The product's shape: the replicas' second convolution (80 stacked
    # images, 8x8 positions, 3x3x16 inputs, 32 outputs).
    PRODUCT = ((5120, 144), (144, 32))

    def __init__(self, threads: int = 1):
        self._engine = _MiniEngine()
        self._pool = None
        if threads > 1:
            rng = np.random.default_rng(7)
            self._products = [
                tuple(rng.standard_normal(shape).astype(np.float32)
                      for shape in self.PRODUCT) for _ in range(threads)]
            self._pool = ThreadPoolExecutor(max_workers=threads,
                                            thread_name_prefix="hostref")

    def __call__(self) -> float:
        """Run once; returns milliseconds."""
        t0 = time.perf_counter()
        self._engine.run()
        if self._pool is not None:
            for future in [self._pool.submit(np.matmul, a, b)
                           for a, b in self._products]:
                future.result()
        return (time.perf_counter() - t0) * 1e3

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)


_TICK_MS = 1000.0 / os.sysconf("SC_CLK_TCK")


def steal_ms() -> float:
    """Milliseconds the hypervisor has kept this VM's vCPUs from running
    (the ``steal`` column of ``/proc/stat``, all CPUs, in clock ticks;
    0.0 where the kernel does not report it): time the host gave to
    other guests, not time spent in this one."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) * _TICK_MS
    except (OSError, IndexError, ValueError):
        return 0.0


# A fresh interpreter importing what ``import repro.serving`` imports
# from outside the repository (NumPy and the standard library), and
# nothing of ``repro``: the host-speed reference for boot times.
REFERENCE_BOOT = (
    "import asyncio, concurrent.futures, ctypes, dataclasses, hashlib, "
    "inspect, json, logging, multiprocessing, numpy, subprocess, tempfile")
# Its time on a quiet host: boot times are reported at the host speed
# where the reference boot takes REF_BOOT_S (README.md, "Set-up").
REF_BOOT_S = 0.2


def reference_boot(env: dict, timeout: float) -> float:
    """Seconds for one reference boot."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", REFERENCE_BOOT], env=env,
                   check=True, timeout=timeout)
    return time.monotonic() - t0


class HostLog:
    """What the load generators record of the host while they run."""

    def __init__(self, kernel: ReferenceKernel):
        self.kernel = kernel
        self.refs: list = []    # (perf_counter stamp, reference-kernel ms)
        self.steal: list = []   # (perf_counter stamp, cumulative steal ms)

    def reference(self) -> None:
        """Run the reference kernel once and record its time."""
        self.refs.append((time.perf_counter(), self.kernel()))

    def mark(self) -> None:
        """Record the steal counter."""
        self.steal.append((time.perf_counter(), steal_ms()))


def fingerprint() -> dict:
    """CPU model, core count, NumPy, BLAS and popcount backend."""
    from repro.tensor.bitpack import popcount_backend

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "popcount": popcount_backend()}
