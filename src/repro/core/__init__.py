"""The paper's synchronization algorithms (the core contribution).

Four ways to execute contended critical sections, all sharing one
interface (:class:`~repro.core.api.SyncPrimitive`):

* :class:`~repro.core.mp_server.MPServer` -- Section 4.1: a dedicated
  server thread receives CS requests over *hardware message passing*
  and executes them; no coherence stalls remain on its critical path.
* :class:`~repro.core.hybcomb.HybComb` -- Section 4.2, Algorithm 1: the
  novel hybrid combining algorithm.  Message passing moves requests and
  responses; cache-coherent shared memory manages combiner identity.
* :class:`~repro.core.shm_server.ShmServer` -- Section 3 / RCL [17]:
  the same server idea implemented purely over shared memory with one
  cache-line channel per client (the paper's SHM-SERVER baseline).
* :class:`~repro.core.ccsynch.CCSynch` -- Section 3 / Fatourou &
  Kallimanis [11]: the state-of-the-art shared-memory combining
  algorithm (the paper's CC-SYNCH baseline).

Plus flat combining (:mod:`repro.core.flatcombining`, the [13] ancestor
of CC-SYNCH, as an extension baseline) and classic spin locks
(:mod:`repro.core.locks`) used by some object baselines and extension
benchmarks.

Critical-section bodies are registered in an :class:`~repro.core.api.OpTable`
and referenced by opcode, mirroring the paper's optimization of sending
"a unique opcode of the CS to the servicing thread, rather than a
function pointer" so calls can be inlined.
"""

from repro.core.api import OpTable, SyncPrimitive
from repro.core.ccsynch import CCSynch
from repro.core.flatcombining import FlatCombining
from repro.core.hybcomb import HybComb
from repro.core.locks import MCSLock, TicketLock, TTASLock
from repro.core.mp_server import MPServer
from repro.core.shm_server import ShmServer

__all__ = [
    "CCSynch",
    "FlatCombining",
    "HybComb",
    "MCSLock",
    "MPServer",
    "OpTable",
    "ShmServer",
    "SyncPrimitive",
    "TTASLock",
    "TicketLock",
]
