"""The node-level network cost model driven by the grid topology.

Every pair of machines has pLogP parameters derived from the topology (see
:meth:`repro.topology.grid.Grid.node_link_parameters`): two machines of the
same cluster use the cluster's intra-parameters, machines of different
clusters use the inter-cluster link.  On top of those the network adds the two
ingredients that make an *execution* different from a *prediction*:

* **NIC occupancy** — a machine injects messages one at a time; a new send
  issued while the NIC is busy waits for it to free up (this is the physical
  counterpart of the gap bookkeeping in the schedule evaluation); and
* **noise** — optional log-normal multiplicative jitter applied independently
  to the gap and latency of every message, seeded for reproducibility, which
  is how the "measured" curves of Figure 6 differ from the "predicted" curves
  of Figure 5 without changing their shape.  An execution draws its noise
  keyed by message (:meth:`SimulatedNetwork.draw_noise`): message ``i`` of a
  program, in CSR order, scales its gap by factor ``2i`` and its latency by
  factor ``2i + 1``, so the draws never depend on event order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.grid import Grid
from repro.utils.rng import RandomStream
from repro.utils.validation import check_non_negative


@dataclass(frozen=True)
class NetworkConfig:
    """Tunable behaviour of the simulated network.

    Attributes
    ----------
    noise_sigma:
        Standard deviation of the log-normal multiplicative noise applied to
        every per-message gap and latency (0 disables noise, the default).
    seed:
        Seed of the noise stream.
    receive_overhead:
        Fixed per-message receive-side processing cost added to the delivery
        time (seconds).  Models the ``o_r`` term that pLogP folds into the
        gap; kept explicit so failure-injection tests can exaggerate it.
    """

    noise_sigma: float = 0.0
    seed: int = 12061968
    receive_overhead: float = 0.0

    def __post_init__(self) -> None:
        check_non_negative(self.noise_sigma, "noise_sigma")
        check_non_negative(self.receive_overhead, "receive_overhead")


class SimulatedNetwork:
    """Per-node message timing for a grid.

    The network is stateful: it tracks when each node's NIC becomes free.  It
    does not own a clock — the execution layer passes in the issue time of
    each send and receives back the computed timestamps — which keeps it
    trivially reusable both inside the event-driven executor and inside the
    closed-form measurement oracle.
    """

    def __init__(self, grid: Grid, config: NetworkConfig | None = None) -> None:
        if not isinstance(grid, Grid):
            raise TypeError("grid must be a Grid")
        self.grid = grid
        self.config = config if config is not None else NetworkConfig()
        if not isinstance(self.config, NetworkConfig):
            raise TypeError("config must be a NetworkConfig")
        self._nic_free_at = [0.0] * grid.num_nodes
        self._noise = RandomStream(seed=self.config.seed)
        self._message_count = 0

    # -- state ------------------------------------------------------------------

    @property
    def message_count(self) -> int:
        """Number of messages transmitted since construction (or reset)."""
        return self._message_count

    def nic_free_at(self, rank: int) -> float:
        """When the given node's NIC becomes available for a new injection."""
        return self._nic_free_at[rank]

    def reset(self) -> None:
        """Clear NIC occupancy and restart the noise stream."""
        self._nic_free_at = [0.0] * self.grid.num_nodes
        self._noise = RandomStream(seed=self.config.seed)
        self._message_count = 0

    # -- timing ------------------------------------------------------------------

    def draw_noise(self, count: int) -> list[float] | None:
        """The next ``count`` noise factors of the stream (``None`` noise-free).

        An execution of an ``M``-message program draws ``2 * M`` factors at
        once; message ``i`` uses factor ``2i`` on its gap and ``2i + 1`` on
        its latency (see :meth:`transmit`).  A warm network that is not reset
        continues the stream where the previous execution left it.
        """
        if self.config.noise_sigma <= 0.0:
            return None
        return self._noise.lognormal_array(0.0, self.config.noise_sigma, count).tolist()

    def _perturb(self, value: float) -> float:
        if self.config.noise_sigma <= 0.0 or value == 0.0:
            return value
        return value * self._noise.lognormal(0.0, self.config.noise_sigma)

    def transmit(
        self,
        source: int,
        destination: int,
        message_size: float,
        issue_time: float,
        noise: tuple[float, float] | None = None,
    ) -> tuple[float, float, float]:
        """Transmit one message and return its timing.

        Parameters
        ----------
        source, destination:
            Global ranks of the two machines.
        message_size:
            Message size in bytes.
        issue_time:
            Time at which the sender *wants* to start the transmission (it may
            be delayed by NIC occupancy).
        noise:
            The message's ``(gap, latency)`` noise factors from
            :meth:`draw_noise`.  ``None`` draws them from the stream on the
            spot instead (skipping zero values), which is what the
            :meth:`round_trip_oracle` probes do.

        Returns
        -------
        (start_time, sender_release_time, delivery_time):
            When the injection actually started, when the sender's NIC frees
            up, and when the destination holds the message.
        """
        check_non_negative(message_size, "message_size")
        check_non_negative(issue_time, "issue_time")
        if source == destination:
            raise ValueError("a node cannot transmit a message to itself")
        params = self.grid.node_link_parameters(source, destination)
        if noise is None:
            gap = self._perturb(params.gap(message_size))
            latency = self._perturb(params.latency)
        else:
            gap = params.gap(message_size) * noise[0]
            latency = params.latency * noise[1]
        start = max(issue_time, self._nic_free_at[source])
        release = start + gap
        delivery = release + latency + self.config.receive_overhead
        self._nic_free_at[source] = release
        self._message_count += 1
        return start, release, delivery

    # -- measurement support --------------------------------------------------------

    def round_trip_oracle(self, source: int, destination: int):
        """A ping-pong oracle for :class:`repro.model.measurement.MeasurementProcedure`.

        Each call simulates a fresh ping of the requested size followed by an
        empty pong, starting from an idle network.  *All* execution-visible
        state is saved and restored around the probe — NIC occupancy, the
        noise stream and the message counter — so probing mid-execution
        neither delays the execution's sends nor shifts its subsequent noise
        draws nor inflates its message count.
        """

        def oracle(message_size: float) -> float:
            saved_nic = list(self._nic_free_at)
            saved_count = self._message_count
            saved_noise = self._noise.state
            # Probe from idle NICs: a round trip measures the link, not the
            # backlog the execution happens to have queued on the endpoints.
            self._nic_free_at[source] = 0.0
            self._nic_free_at[destination] = 0.0
            try:
                _, _, arrival = self.transmit(source, destination, message_size, 0.0)
                _, _, back = self.transmit(destination, source, 0.0, arrival)
                return back
            finally:
                self._nic_free_at = saved_nic
                self._message_count = saved_count
                self._noise.state = saved_noise

        return oracle
