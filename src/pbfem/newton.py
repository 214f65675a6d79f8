"""Newton systems of a plan (``pbfem.plans``), their factorization by
SuperLU, and the Levenberg shift ladder with its worker process.

The matrices of a plan take a few patterns, since only exact zeros are
left out, so SuperLU's COLAMD orders each pattern once: later matrices of
the pattern are relabelled by that column order and factored without
ordering, to the bits of ``splu`` (``_OrderedLU``).  Only this module
calls SuperLU and SciPy's private ``_superlu`` and ``_sparsetools``.
"""

from __future__ import annotations

import ctypes
import mmap
import os
import signal
import sys
import time
from dataclasses import InitVar, dataclass, fields

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse import _sparsetools
from scipy.sparse.linalg._dsolve import _superlu


def _drop(data, indices, indptr, drop):
    """CSC arrays with the slots at the sorted positions ``drop`` left out."""
    if not len(drop):
        return data, indices, indptr
    return (np.delete(data, drop), np.delete(indices, drop),
            (indptr - np.searchsorted(drop, indptr)).astype(np.int32))


class _ColumnOrder:
    """The column order SuperLU's COLAMD gave one pattern (``perm_c``), and
    the relabelled structure of the systems whose matrices take that
    pattern, made on first use."""

    def __init__(self, perm):
        self.perm = perm
        # old[k]: the column that becomes column k
        self.old = np.empty_like(perm)
        self.old[perm] = np.arange(len(perm), dtype=perm.dtype)
        self.indices = self.indptr = None

    def relabel(self, data, indices, indptr):
        """CSC arrays of the matrix whose row and column ``perm[i]`` are row
        and column i of the given one; each column keeps its stored entries
        in their order.  Every call passes the arrays of a system of this
        order's pattern, so the structure made at the first serves all."""
        n = len(self.perm)
        new_indices, new_data = np.empty_like(indices), np.empty_like(data)
        # the column copy that scipy's column indexing runs, without its checks
        _sparsetools.csr_row_index(n, self.old, indptr, indices, data, new_indices, new_data)
        if self.indices is None:
            self.indptr = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(np.diff(indptr)[self.old], out=self.indptr[1:])
            self.indices = self.perm.take(new_indices)
        return new_data, self.indices, self.indptr


def _factor(K, order=None):
    """SuperLU's LU factors of K, bit for bit those of ``splu``; with
    ``order`` (a :class:`_ColumnOrder`), K is a matrix relabelled by it, and
    the factors solve in the labels before it (:class:`_OrderedLU`)."""
    if not np.all(np.isfinite(K.data)):
        # SuperLU neither raises nor warns cleanly on non-finite input
        raise ValueError("non-finite Newton matrix")
    if order is None:
        return scipy.sparse.linalg.splu(K)
    return _OrderedLU(K, order.perm)


class _OrderedLU:
    """LU factors of a matrix A in a column order found before, from A
    relabelled by it (:meth:`_ColumnOrder.relabel`), solving in A's labels.

    SuperLU factors the relabelled matrix without ordering it
    (``ColPerm="NATURAL"``), in the mode ``splu`` runs COLAMD in
    (``SymmetricMode=False``).  The order is already postordered, so SuperLU
    keeps it, and its pivot search in column j prefers the row the order
    maps onto j, as in ``splu(A)``.  Each column keeps A's storage order, in
    which the search meets equal candidates and the factorization its
    rows: the same matrix with sorted columns, which is what the public
    ``splu(..., permc_spec="NATURAL")`` would factor after its
    ``sum_duplicates``, gives other bits.  So the factors, the row
    permutation, the refusals and every solution are those of ``splu(A)``.
    """

    def __init__(self, K, perm):
        self._lu = _superlu.gstrf(K.shape[0], K.nnz, K.data, K.indices, K.indptr,
                                  csc_construct_func=scipy.sparse.csc_matrix, ilu=False,
                                  options=dict(ColPerm="NATURAL", SymmetricMode=False))
        self.perm = perm

    def solve(self, b):
        relabelled = np.empty_like(b)
        relabelled[self.perm] = b
        return self._lu.solve(relabelled)[self.perm]


@dataclass(eq=False)
class _NewtonSystem:
    """Newton model K d = rhs, shifted by mu on the primal diagonal and
    solved by sparse LU, in either form.

    The Gauss-Newton form is (H + mu I) d = -g.  In the saddle form the
    condensed Hessian B + J^T J / omega, numerically unusable at small
    omega (its large entries absorb the curvature of weakly determined
    directions into their round-off), is replaced by the equivalent system

        [ B + mu I   J^T       ] [d]   [ -g_smooth ]
        [ J          -omega I  ] [y] = [ -C        ]

    which keeps every block at its natural scale, so the factorization
    resolves those directions; eliminating y recovers exactly
    (B + mu I + J^T J / omega) d = -(g_smooth + J^T C / omega).

    Holds K without its shift in CSC form, ``diag`` the positions of its
    first ``dim`` (primal) diagonal entries, whether a solve takes one
    pass of iterative refinement (the saddle form does), ``drop``, the
    sorted positions of the plan's slots that K leaves out, and ``plan``,
    the plan's number.  Zeros on the diagonal are left out once the shift
    is added.  A system is rebuilt from its fields alone, so it can be
    solved in another process.

    ``orders`` keeps the column order of every pattern of the plan that
    SuperLU has factored, keyed by the slots the pattern leaves out, never
    by its entries; later matrices of the pattern are factored in it
    (:class:`_OrderedLU`).  It is the plan's own dict, or in the worker
    the one kept for the plan's number.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    diag: np.ndarray
    diag_scale: float
    rhs: np.ndarray
    dim: int
    refine: bool
    drop: np.ndarray
    plan: int
    orders: InitVar[dict]

    def __post_init__(self, orders):
        self.orders = orders

    @classmethod
    def of_plan(cls, plan, data, drop, diag_scale, rhs, refine):
        """The system of ``plan``'s matrix with values ``data``, the slots
        at the sorted positions ``drop`` left out."""
        data, indices, indptr = _drop(data, plan.indices, plan.indptr, drop)
        diag = plan.diag - np.searchsorted(drop, plan.diag) if len(drop) else plan.diag
        return cls(data, indices, indptr, diag, diag_scale, rhs, plan.dim, refine, drop,
                   plan.number, plan.orders)

    def matrix(self, shift, order=None):
        """The Newton matrix at this shift, relabelled by ``order`` if
        given, as SuperLU receives it."""
        if order is None:
            data, indices, indptr, diag = self.data.copy(), self.indices, self.indptr, self.diag
        else:
            data, indices, indptr = order.relabel(self.data, self.indices, self.indptr)
            # a column keeps its entries' order, so its diagonal entry
            # keeps its offset from the column's start
            diag = indptr[order.perm[: self.dim]] + (self.diag - self.indptr[: self.dim])
        data[diag] += shift
        data, indices, indptr = _drop(data, indices, indptr, np.sort(diag[data[diag] == 0]))
        n = len(indptr) - 1
        return scipy.sparse.csc_matrix((data, indices, indptr), shape=(n, n))

    def pattern(self, shift):
        """The key in ``orders`` of the matrix's pattern at this shift: the
        plan's slots left out, and the diagonal entries the shift zeroes."""
        return self.drop.tobytes(), np.flatnonzero(self.data[self.diag] + shift == 0).tobytes()

    def solve(self, shift):
        key = self.pattern(shift)
        order = self.orders.get(key)
        lu = _factor(self.matrix(shift, order), order)
        if order is None:
            # a copy: SuperLU's own array keeps all of its factors alive
            self.orders[key] = _ColumnOrder(lu.perm_c.copy())
        z = lu.solve(self.rhs)
        if self.refine:
            # the graded factors lose a few digits that the residual
            # correction wins back; the residual is formed in the
            # matrix's own labels
            z = z + lu.solve(self.rhs - self.matrix(shift) @ z)
        return z[: self.dim]


# arrays shipped to the shift-ladder worker start at multiples of this many
# bytes of the shared buffer
_ALIGN = 64
# a worker that has not replied within this many seconds is taken as hung
# (its trial takes as long as the local one, milliseconds on every workload)
_REPLY_TIMEOUT_S = 10.0
# glibc's mallopt parameters, and the largest mmap threshold it takes on a
# 64-bit platform
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 32 << 20


def _shipment(system):
    """The fields ``system`` is rebuilt from: the arrays that go through
    the shared buffer, each with its place in it, the other fields, and
    the buffer's size."""
    arrays, places, scalars, size = [], [], {}, 0
    for f in fields(system):
        value = getattr(system, f.name)
        if isinstance(value, np.ndarray):
            arrays.append(value)
            places.append((f.name, value.dtype.str, value.shape, size))
            size += -(-value.nbytes // _ALIGN) * _ALIGN
        else:
            scalars[f.name] = value
    return arrays, places, scalars, size


def _keep_freed_memory():
    """Have glibc's malloc keep what this process frees.  SuperLU's
    workspace is then reused from one factorization to the next instead of
    being handed back to the system and page-faulted in again (on the
    second shift of pendulum-a, 4.8 against 4.2 ms per trial by LGR at 30
    elements, 4.7 against 3.9 ms by FE at 40).  Only the worker does so: it
    holds nothing else, and the memory it keeps is its own."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
        mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


def _shipped_trial(buf, places, scalars, shift, orders):
    """The trial at ``shift`` of the system shipped through ``buf``, in the
    column orders that ``orders`` keeps for its plan, by plan number; the
    order of a pattern factored here for the first time is added."""
    fields = {name: np.ndarray(shape, dtype, buffer=buf, offset=at)
              for name, dtype, shape, at in places}
    system = _NewtonSystem(**fields, **scalars, orders=orders.setdefault(scalars["plan"], {}))
    return _trial(system, shift)


def _serve(conn, main_end, buf):
    """Worker loop: rebuild each system shipped through ``buf`` and try its
    shift, until the main process hangs up."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    main_end.close()
    _keep_freed_memory()
    orders = {}
    conn.send("ready")
    while True:
        try:
            places, scalars, shift = conn.recv()
        except (EOFError, OSError):
            return
        t0 = time.perf_counter()
        try:
            reply = (True, _shipped_trial(buf, places, scalars, shift, orders))
        except Exception:
            # the main process tries the shift itself and meets the error there
            reply = (False, None)
        try:
            conn.send((*reply, time.perf_counter() - t0))
        except OSError:
            return


def _start_worker(size):
    """A forked shift-ladder worker and its shared buffer of ``size``
    bytes, or None where no second core is at hand."""
    if sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2:
        return None
    import multiprocessing  # only solves that fork pay for the import
    if multiprocessing.current_process().daemon:
        return None  # a daemonic process may not have children
    buf = mmap.mmap(-1, size)
    main_end, worker_end = multiprocessing.Pipe()
    proc = multiprocessing.get_context("fork").Process(
        target=_serve, args=(worker_end, main_end, buf), daemon=True)
    try:
        proc.start()
    except OSError:
        main_end.close()
        buf.close()
        return None
    finally:
        worker_end.close()
    return proc, main_end, buf


class _SecondShift:
    """The shift ladder's second trial, factored in a forked worker while
    the first one runs here.

    Most direction calls of a collocation solve need the second shift,
    because SuperLU refuses the first matrix as singular; the worker puts
    the machine's second core to that factorization.  It gets each system's
    arrays through a buffer shared with it, rebuilds the system from its
    fields, right-hand side included, and tries the shift with the class's
    own ``solve``, so its direction is the one this process would compute.
    No column order is shipped: the worker orders each pattern itself, at
    its first accepted factorization there, and keeps the order under the
    plan's number for the rest of the solve.  A trial is sent only when the
    previous direction call of the stage needed the second shift, to a
    worker that is not still busy, and only while the stage's trials pay
    for themselves: while the worker's time on the trials whose direction
    was taken exceeds the time this process spent sending trials and
    waiting for replies, both summed over the stage.  Each stage starts
    with a clean account, so that one late reply early on (a host's
    scheduling hiccup of a few milliseconds) does not end the trials for
    the whole solve.  The worker is forked at the first call that needs the
    second shift, and anew when a later system outgrows its buffer.  A
    worker that fails or does not reply costs the local factorization,
    never a different result, and ends the trials for the solve.
    """

    def __init__(self):
        self._worker = None  # process, connection, buffer
        self._pending = False  # a message from the worker is due
        self._failed = False
        self.new_stage()

    def submit(self, system, shift) -> bool:
        """Send the trial at ``shift`` to the worker; False when it is not
        sent."""
        if not (self._wanted and self.paid) or self._worker is None:
            return False
        t0 = time.perf_counter()
        _, conn, buf = self._worker
        arrays, places, scalars, size = _shipment(system)
        # a worker still starting, or still on a trial nobody took, is
        # not waited for
        if size > len(buf) or self._pending and not (conn.poll(0) and self._receive()):
            return False
        for a, (_, dtype, shape, at) in zip(arrays, places):
            np.ndarray(shape, dtype, buffer=buf, offset=at)[...] = a
        try:
            conn.send((places, scalars, shift))
        except OSError:
            self._fail()
            return False
        self._pending = True
        self._spent_s += time.perf_counter() - t0
        return True

    def take(self, system, shift):
        """The trial :meth:`submit` sent: the worker's direction, or the
        local one when the worker gave none."""
        t0 = time.perf_counter()
        reply = self._receive()
        if reply is None or not reply[0]:
            return _trial(system, shift)
        _, d, worker_s = reply
        self._saved_s += worker_s
        self._spent_s += time.perf_counter() - t0
        self.paid = self._saved_s > self._spent_s
        return d

    def new_stage(self):
        """The next call starts a stage: it has no previous call, and the
        stage's account starts clean.  The buffer's pages are handed back
        to the system until a trial is sent again: a later stage may use
        another Newton form."""
        self._wanted = False  # the previous call of the stage needed the second shift
        self.paid = True
        self._saved_s = 0.0  # the worker's time on the trials taken
        self._spent_s = 0.0  # this process's time sending and waiting
        if self._worker is not None and self._drain():
            self._worker[2].madvise(mmap.MADV_REMOVE)

    def after(self, system, needed_second):
        """Note whether a direction call needed the second shift; fork a
        worker that can take ``system`` if the next call will want one."""
        self._wanted = needed_second
        if not (needed_second and self.paid) or self._failed:
            return
        size = _shipment(system)[3]
        if self._worker is not None and size <= len(self._worker[2]):
            return
        self.close()
        self._worker = _start_worker(size)
        self._failed = self._worker is None
        self._pending = not self._failed  # its "ready"

    def _receive(self):
        """The message due from the worker (its "ready", or its reply to
        the trial in flight), or None when it died or did not send it in
        time."""
        self._pending = False
        conn = self._worker[1]
        try:
            if conn.poll(_REPLY_TIMEOUT_S):
                return conn.recv()
        except (EOFError, OSError):
            pass
        self._fail()
        return None

    def _drain(self) -> bool:
        """Wait out a message nobody took; False when the worker failed."""
        return not self._pending or self._receive() is not None

    def _fail(self):
        self.close()
        self._failed = True

    def close(self):
        """Stop the worker.  It holds nothing to save, so it is killed and
        not left to finish a trial in flight; a worker whose main process
        died without closing exits when its connection ends."""
        if self._worker is None:
            return
        proc, conn, buf = self._worker
        self._worker, self._pending = None, False
        conn.close()
        proc.kill()
        proc.join()
        proc.close()
        buf.close()


def _next_shift(shift, floor, scale):
    return max(floor * scale, 4.0 * shift) if shift else max(floor * scale, 1e-8 * scale)


def _trial(system, shift):
    """The Newton direction at ``shift``, or None when SuperLU refuses the
    matrix."""
    try:
        return system.solve(shift)
    except (RuntimeError, ValueError):
        return None


def _newton_direction(system, g, floor, mu, ahead=None):
    """Solve the shifted Newton model, escalating the shift until the
    factorization succeeds and yields a descent direction.  Returns the
    direction and the shift that produced it.

    With ``ahead`` (a :class:`_SecondShift`), the second shift may be tried
    in its worker while the first is tried here; the ladder's shifts and
    directions are the same either way."""
    scale = system.diag_scale
    shift = mu
    second = ahead is not None and ahead.submit(system, _next_shift(shift, floor, scale))
    for k in range(40):
        d = ahead.take(system, shift) if second and k == 1 else _trial(system, shift)
        if d is not None and np.all(np.isfinite(d)) and float(g @ d) < 0.0:
            break
        shift = _next_shift(shift, floor, scale)
    else:
        d = None
    if ahead is not None:
        ahead.after(system, needed_second=k > 0)
    return d, shift
