"""The four benchmark workloads, built through the public API.

Each scenario builds one testbed (or fleet) from a spec, runs its setup
(session login, file creation, warm-start or prewarm) and a warm-up
window, then hands the benchmark a fixed-length timed window in
*simulated* seconds.  Because the window is fixed in simulated time,
everything the model computes in it repeats exactly for one seed; only
the host time it takes varies.

After the window, :meth:`Scenario.read_back` reads a deterministic
sample of byte ranges back through the simulated clients and compares
them with the file image (and, for ``sfs-mix``, with the writes the
clients made), so a simulator that returns wrong bytes fails the run.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.copymodel.materialize import materialize
from repro.experiments.common import scaled_memory_config, warm_caches
from repro.http.client import HttpClient, response_body
from repro.nfs.client import NfsClient, read_reply_data
from repro.obs.metrics import Histogram
from repro.servers.config import MB, ServerMode
from repro.servers.spec import ClusterSpec, TestbedSpec
from repro.servers.testbed import run_until_complete
from repro.sim.process import start
from repro.workloads.fleetzipf import FleetZipfWorkload
from repro.workloads.microbench import AllHitReadWorkload
from repro.workloads.specsfs import SpecSfsWorkload
from repro.workloads.specweb import SpecWebWorkload

KB = 1024
BLOCK = 4096


class Outcomes:
    """Failed operations seen by the clients, across the whole run.

    The NFS and HTTP clients' reply handlers are bound at construction,
    so :meth:`install` wraps them on the classes before any testbed is
    built.  Each wrapper inspects the reply status and hands the
    original handler's generator back unchanged.
    """

    def __init__(self) -> None:
        self.error_replies = 0
        self._saved: List[Tuple[type, str, Any]] = []

    def install(self) -> None:
        outcomes = self
        nfs_on_reply = NfsClient.__dict__["_on_reply"]
        http_on_response = HttpClient.__dict__["_on_response"]

        def on_reply(client: Any, dgram: Any) -> Any:
            if not dgram.message.ok:
                outcomes.error_replies += 1
            return nfs_on_reply(client, dgram)

        def on_response(client: Any, conn: Any, dgram: Any) -> Any:
            if not dgram.message.ok:
                outcomes.error_replies += 1
            return http_on_response(client, conn, dgram)

        self._saved = [(NfsClient, "_on_reply", nfs_on_reply),
                       (HttpClient, "_on_response", http_on_response)]
        NfsClient._on_reply = on_reply  # type: ignore[method-assign]
        HttpClient._on_response = on_response  # type: ignore[method-assign]

    def remove(self) -> None:
        for owner, name, fn in self._saved:
            setattr(owner, name, fn)
        self._saved = []


class WriteLog:
    """Client-side record of every NFS WRITE: what, where, and when.

    ``sfs-mix`` writes fresh virtual payloads; the read-back compares
    each sampled block with the write that must have landed last.
    """

    def __init__(self) -> None:
        #: (ino, offset, payload, issued_at, completed_at)
        self.writes: List[Tuple[int, int, Any, float, float]] = []
        self._original: Any = None

    def install(self) -> None:
        log = self
        original = NfsClient.__dict__["write"]

        def write(client: Any, fh: Any, offset: int, data: Any,
                  trace: Any = None) -> Any:
            issued = client.host.sim.now
            dgram = yield from original(client, fh, offset, data, trace)
            log.writes.append((fh.ino, offset, data, issued,
                               client.host.sim.now))
            return dgram

        self._original = original
        NfsClient.write = write  # type: ignore[method-assign]

    def remove(self) -> None:
        if self._original is not None:
            NfsClient.write = self._original  # type: ignore[method-assign]
            self._original = None


def _bytes(payload: Any) -> bytes:
    return materialize(payload, why="client_verify")


class Scenario:
    """One workload: build, warm, time a window, check the bytes."""

    name = ""
    #: simulated seconds of warm-up (after setup) and of the timed window
    warmup_s = 0.15
    window_s = 1.0
    #: byte ranges read back and compared after the window
    readback_samples = 32
    #: issue the read-back reads all at once instead of one at a time
    readback_concurrent = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)

    # -- phases (timed separately by the runner) --------------------------

    def build(self) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        raise NotImplementedError

    def warmup_window(self) -> None:
        self.sim.run(until=self.sim.now + self.warmup_s)
        self.target.reset_measurements()
        self._backend0 = self._backend_counts()
        self._disk0 = sum(tb.raid.busy_time() for tb in self.testbeds())

    def timed_window(self, slices: int, clock: Any, pace: Any
                     ) -> Tuple[List[float], List[float]]:
        """Run the window as ``slices`` equal spans of simulated time;
        return the host time of each span and of the ``pace()`` call
        made right before it.  Events at or before a span's end run in
        that span, so the simulated results are the same as from one
        ``run`` over the whole window."""
        start = self.sim.now
        spent = []
        paced = []
        for k in range(1, slices + 1):
            until = start + self.window_s if k == slices \
                else start + self.window_s * k / slices
            paced.append(pace())
            t0 = clock()
            self.sim.run(until=until)
            spent.append(clock() - t0)
        return spent, paced

    # -- results -----------------------------------------------------------

    @property
    def sim(self) -> Any:
        return self.target.sim

    def testbeds(self) -> List[Any]:
        return [self.target]

    def ops(self) -> int:
        return int(sum(tb.meters.throughput.ops.value
                       for tb in self.testbeds()))

    def nbytes(self) -> int:
        return int(sum(tb.meters.throughput.bytes.value
                       for tb in self.testbeds()))

    def latency(self) -> Histogram:
        """Request latency over the window, merged across testbeds.

        :class:`Histogram` has no merge operation, so the buckets of
        each testbed's ``request.latency`` histogram are summed here.
        """
        merged = Histogram("request.latency", unit="s")
        for tb in self.testbeds():
            part = tb.meters.request_latency
            merged.count += part.count
            merged.total += part.total
            merged._zeros += part._zeros
            if part.count:
                merged._min = min(merged._min, part._min)
                merged._max = max(merged._max, part._max)
            for key, n in part._buckets.items():
                merged._buckets[key] = merged._buckets.get(key, 0) + n
        return merged

    def counter(self, name: str) -> float:
        return sum(tb.server_host.counters[name].value
                   for tb in self.testbeds())

    def _backend_counts(self) -> Tuple[int, int]:
        return (sum(tb.target.reads_served for tb in self.testbeds()),
                sum(tb.target.commands_served for tb in self.testbeds()))

    def backend(self) -> Tuple[int, int]:
        """(iSCSI reads, iSCSI writes) served during the window."""
        reads, commands = self._backend_counts()
        reads -= self._backend0[0]
        commands -= self._backend0[1]
        return reads, commands - reads

    def server_cpu_util(self) -> float:
        tbs = self.testbeds()
        return sum(tb.server_cpu_utilization() for tb in tbs) / len(tbs)

    def nic_util(self) -> float:
        """Mean transmit utilisation of the server NICs."""
        values = [value for tb in self.testbeds()
                  for name, value in tb.meters.utilizations().items()
                  if name.startswith("server_nic")]
        return sum(values) / len(values)

    def disk_util(self) -> float:
        """Mean utilisation of the storage servers' disks over the
        window (busy time is a lifetime total, so it is diffed)."""
        tbs = self.testbeds()
        busy = sum(tb.raid.busy_time() for tb in tbs) - self._disk0
        n_disks = sum(len(tb.raid.disks) for tb in tbs)
        return busy / (n_disks * self.window_s)

    # -- correctness -------------------------------------------------------

    def read_back(self) -> Tuple[int, int]:
        """Read sampled ranges through the clients; (checked, mismatched)."""
        checks = self._readback_plan()
        if self.readback_concurrent:
            procs = [start(self.sim, self._read_one(check),
                           name=f"bench-readback-{i}")
                     for i, check in enumerate(checks)]
        else:
            procs = [start(self.sim, self._read_all(checks),
                           name="bench-readback")]
        for proc in procs:
            run_until_complete(self.sim, proc)
        return len(checks), sum(proc.value for proc in procs)

    def _read_all(self, checks: List[Any]) -> Any:
        """Read and compare one range at a time (bodies can be large);
        returns the number of mismatches."""
        mismatched = 0
        for check in checks:
            mismatched += yield from self._read_one(check)
        return mismatched

    def _read_one(self, check: Any) -> Any:
        """Read and compare one range; returns 1 on a mismatch, else 0."""
        issued = self.sim.now
        data = yield from self._read(check)
        return 0 if self._matches(check, (data, issued, self.sim.now)) else 1

    def _readback_plan(self) -> List[Any]:
        raise NotImplementedError

    def _read(self, check: Any) -> Any:
        raise NotImplementedError

    def _matches(self, check: Any, got: Any) -> bool:
        raise NotImplementedError


class NfsHit(Scenario):
    """Figure 5(b) point: NCache, 2 NICs, 8 nfsd, 2 x 6 streams of random
    32 KB reads over a prewarmed 5 MB file."""

    name = "nfs-hit"
    window_s = 1.0
    request = 32 * KB

    def build(self) -> None:
        spec = TestbedSpec.nfs(ServerMode.NCACHE, flush_interval_s=None,
                               n_server_nics=2, n_daemons=8, seed=self.seed)
        self.target = spec.build()
        self.workload = AllHitReadWorkload(self.target, self.request,
                                           streams_per_client=6,
                                           seed=self.seed)
        self.target.setup()

    def warm(self) -> None:
        run_until_complete(self.sim, self.workload.prewarm())
        self.workload.start()

    def _readback_plan(self) -> List[Any]:
        return [self.rng.randrange(self.workload.n_slots) * self.request
                for _ in range(self.readback_samples)]

    def _read(self, offset: int) -> Any:
        client = self.target.clients[0]
        dgram = yield from client.read(self.workload.fh, offset,
                                       self.request)
        return _bytes(read_reply_data(dgram))

    def _matches(self, offset: int, got: Any) -> bool:
        image = self.target.image
        want = image.file_payload(image.lookup("hotfile"), offset,
                                  self.request)
        return got[0] == _bytes(want)


class SfsMix(Scenario):
    """Figure 7, 75%-regular point: NCache, 512 MB fs with a 10% active
    set, 5:1 read:write, metadata mix, 2 x 8 outstanding, flush daemon
    every 50 ms over up to 16 blocks, warm caches."""

    name = "sfs-mix"
    warmup_s = 0.3
    window_s = 1.0

    def __init__(self, seed: int, writes: Optional[WriteLog] = None) -> None:
        super().__init__(seed)
        self.writes = writes

    def build(self) -> None:
        spec = TestbedSpec.nfs(ServerMode.NCACHE, flush_interval_s=0.05,
                               n_server_nics=1, n_daemons=16, seed=self.seed)
        self.target = spec.build()
        self.target.flush_daemon.max_blocks_per_pass = 16
        self.workload = SpecSfsWorkload(self.target, pct_regular=0.75,
                                        fs_size_bytes=512 * MB,
                                        outstanding_per_client=8,
                                        seed=self.seed)
        self.target.setup()

    def warm(self) -> None:
        warm_caches(self.target, self.workload.names)
        self.workload.start()

    def _readback_plan(self) -> List[Any]:
        """Half the blocks most recently written, half random blocks."""
        wl = self.workload
        written = sorted({(ino, offset + b * BLOCK)
                          for ino, offset, data, _, _ in
                          self.writes.writes[-4 * self.readback_samples:]
                          for b in range(data.length // BLOCK)})
        picks = self.rng.sample(written,
                                min(len(written), self.readback_samples // 2))
        by_ino = {fh.ino: fh for fh in wl.handles}
        plan = [(by_ino[ino], offset) for ino, offset in picks]
        blocks = wl.file_size // BLOCK
        while len(plan) < self.readback_samples:
            plan.append((wl.handles[self.rng.randrange(wl.n_files)],
                         self.rng.randrange(blocks) * BLOCK))
        return plan

    def _read(self, check: Any) -> Any:
        fh, offset = check
        dgram = yield from self.target.clients[0].read(fh, offset, BLOCK)
        return _bytes(read_reply_data(dgram))

    def _matches(self, check: Any, got: Any) -> bool:
        """The block must hold one write that may have landed last, or
        the original file bytes if no write can have landed."""
        fh, offset = check
        data, read_issued, read_done = got
        covering = [(payload, off, issued, done)
                    for ino, off, payload, issued, done in self.writes.writes
                    if ino == fh.ino and off <= offset < off + payload.length]
        # A write is a candidate unless a later write to the block was
        # issued after it completed and itself completed before the read
        # was issued, or it was issued after the read completed.
        candidates = [
            payload.slice(offset - off, BLOCK)
            for payload, off, issued, done in covering
            if issued < read_done and not any(
                i2 > done and d2 < read_issued
                for _, _, i2, d2 in covering)]
        if not any(done < read_issued for _, _, _, done in covering):
            image = self.target.image
            candidates.append(image.file_payload(image.inode(fh.ino),
                                                 offset, BLOCK))
        return any(data == _bytes(c) for c in candidates)


class WebMiss(Scenario):
    """Figure 6(a)-style point: kHTTPd over TCP in original mode, memory
    scaled down 4x, Zipf-0.75 working set of 400 MB (about twice the
    buffer cache)."""

    name = "web-miss"
    warmup_s = 1.0
    window_s = 12.0

    def build(self) -> None:
        spec = TestbedSpec.web(ServerMode.ORIGINAL, connections_per_client=6,
                               n_server_nics=2, seed=self.seed,
                               **scaled_memory_config(4))
        self.target = spec.build()
        self.workload = SpecWebWorkload(self.target,
                                        working_set_bytes=400 * MB,
                                        seed=self.seed)
        self.target.setup()

    def warm(self) -> None:
        warm_caches(self.target, self.workload.paths)
        self.workload.start()

    def _readback_plan(self) -> List[Any]:
        return self.rng.sample(range(len(self.workload.paths)),
                               self.readback_samples)

    def _read(self, index: int) -> Any:
        client = self.target.http_clients[0]
        _response, dgram = yield from client.get(self.workload.paths[index])
        return response_body(dgram)

    def _matches(self, index: int, got: Any) -> bool:
        image = self.target.image
        inode = image.lookup(self.workload.paths[index])
        return got[0] == _bytes(image.file_payload(inode, 0, inode.size))


class FleetCoop(Scenario):
    """fleet_scaling (n=4, coop, repl=2) point: 4 NCache NFS nodes at an
    equal aggregate budget, FleetZipf over 192 x 128 KB files, alpha 0.9,
    32 streams, 0.5 ms think time."""

    name = "fleet-coop"
    warmup_s = 0.3
    window_s = 1.0
    request = 32 * KB
    #: one at a time, the 32 reads would keep the loaded fleet running
    #: for about a third of a simulated second after every window
    readback_concurrent = True

    def build(self) -> None:
        spec = ClusterSpec(
            testbed=TestbedSpec.nfs(ServerMode.NCACHE, flush_interval_s=None,
                                    seed=self.seed,
                                    **scaled_memory_config(32 * 4)),
            n_servers=4, replication=2, cooperative=True, group_blocks=16)
        self.target = spec.build()
        self.workload = FleetZipfWorkload(
            n_files=192, file_size=128 * KB, request_size=self.request,
            zipf_alpha=0.9, n_logical_clients=1_000_000, n_streams=32,
            think_time_s=0.0005, seed=self.seed).bind(self.target)
        self.target.setup()

    def warm(self) -> None:
        self.workload.start()

    def testbeds(self) -> List[Any]:
        return self.target.testbeds

    def _readback_plan(self) -> List[Any]:
        slots = self.workload.file_size // self.request
        return [(self.rng.randrange(self.workload.n_files),
                 self.rng.randrange(slots) * self.request,
                 self.rng.randrange(1_000_000))
                for _ in range(self.readback_samples)]

    def _read(self, check: Any) -> Any:
        index, offset, salt = check
        path = self.workload.paths[index]
        testbed = self.target.route(path, offset, salt=salt).testbed
        dgram = yield from testbed.clients[0].read(
            testbed.file_handle(path), offset, self.request)
        return testbed, _bytes(read_reply_data(dgram))

    def _matches(self, check: Any, got: Any) -> bool:
        index, offset, _ = check
        (testbed, data), _, _ = got
        image = testbed.image
        inode = image.lookup(self.workload.paths[index])
        return data == _bytes(image.file_payload(inode, offset, self.request))


SCENARIOS: Dict[str, type] = {cls.name: cls for cls in
                              (NfsHit, SfsMix, WebMiss, FleetCoop)}
