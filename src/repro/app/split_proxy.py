"""TCP splitting at the access point (paper S7 discussion).

The paper notes TCP splitting as a possible way to simplify TACK
deployment: a proxy at the AP terminates the WAN connection and
re-originates a fresh connection over the WLAN last hop, so each
segment runs the transport best suited to it — at the cost of
end-to-end reliability semantics (the WAN sender may believe data was
delivered that the proxy still holds).

:class:`SplitTransfer` composes two independent connections back to
back: bytes delivered by the WAN receiver are immediately written into
the WLAN sender.  The proxy's buffering is implicit in the WLAN
sender's pending queue; :attr:`proxy_held_bytes` exposes the
reliability gap the paper warns about.
"""

from __future__ import annotations

from typing import Optional

from repro.core.flavors import make_connection
from repro.core.params import TackParams
from repro.netsim.engine import Simulator
from repro.netsim.paths import PathHandle


class SplitTransfer:
    """A server -> proxy -> client transfer over two connections.

    Parameters
    ----------
    wan_path / wlan_path:
        Pre-built paths for the two segments (the proxy sits between).
    wan_scheme / wlan_scheme:
        Transport flavor per segment — e.g. legacy ``tcp-bbr`` over the
        WAN and ``tcp-tack`` over the WLAN, the deployment S7 sketches.
    """

    def __init__(
        self,
        sim: Simulator,
        wan_path: PathHandle,
        wlan_path: PathHandle,
        wan_scheme: str = "tcp-bbr",
        wlan_scheme: str = "tcp-tack",
        params: Optional[TackParams] = None,
        wan_rtt_hint: float = 0.05,
        wlan_rtt_hint: float = 0.01,
        proxy_buffer_bytes: int = 4 * 1024 * 1024,
    ):
        self.sim = sim
        self.proxy_buffer_bytes = proxy_buffer_bytes
        self.wan_conn = make_connection(sim, wan_scheme, params=params,
                                        flow_id=0, initial_rtt_s=wan_rtt_hint)
        self.wlan_conn = make_connection(sim, wlan_scheme, params=params,
                                         flow_id=1, initial_rtt_s=wlan_rtt_hint)
        self.wan_conn.wire(wan_path.forward, wan_path.reverse)
        self.wlan_conn.wire(wlan_path.forward, wlan_path.reverse)
        # Backpressure: the proxy reads from the WAN connection only
        # while its relay buffer (the WLAN sender's pending bytes) is
        # below the watermark; unread data then shrinks the WAN
        # receiver's advertised window, throttling the server — how a
        # real split proxy couples the two segments.
        self.wan_conn.receiver.auto_drain = False
        self.wan_conn.receiver.rcv_buffer_bytes = proxy_buffer_bytes
        self.wan_conn.receiver.on_deliver(self._relay)
        self._relayed = 0
        self._pump_timer = None

    def _relay(self, nbytes: int, now: float) -> None:
        """Proxy: hand WAN-delivered bytes to the WLAN sender."""
        self._relayed += nbytes
        self.wlan_conn.sender.write(nbytes)

    def _pump(self) -> None:
        room = self.proxy_buffer_bytes - self.wlan_conn.sender.pending_bytes
        if room > 0:
            self.wan_conn.receiver.read(room)
        self._pump_timer = self.sim.call_in(0.002, self._pump)

    # ------------------------------------------------------------------
    def start_bulk(self) -> None:
        self.wlan_conn.sender.start()
        self.wan_conn.start_bulk()
        self._pump()

    def start_transfer(self, nbytes: int) -> None:
        self.wlan_conn.sender.start()
        self.wan_conn.start_transfer(nbytes)
        self._pump()

    @property
    def delivered_bytes(self) -> int:
        """Bytes the *client* has received in order."""
        return self.wlan_conn.receiver.stats.bytes_delivered

    @property
    def proxy_held_bytes(self) -> int:
        """Bytes the WAN sender believes delivered but the client has
        not received — the reliability gap of splitting (paper S7)."""
        return max(0, self.wan_conn.sender.cum_acked - self.delivered_bytes)

    def total_acks(self) -> int:
        return self.wan_conn.ack_count() + self.wlan_conn.ack_count()

    @property
    def completed(self) -> bool:
        total = self.wan_conn.sender.total_bytes
        return total is not None and self.delivered_bytes >= total
