"""Application workloads driving the transport and WLAN substrates.

* :mod:`repro.app.udp_blast` -- the paper's UDP measurement tool
  (S3.2, Fig. 3 / Fig. 9(b)): fixed-rate unreliable sender plus an
  L-counting ACK responder.
* :mod:`repro.app.bulk` -- long-lived bulk flows over any scheme.
* :mod:`repro.app.video` -- Miracast-like screen projection (S6.4,
  Fig. 11): CBR frame source, playback buffer, rebuffering ratio and
  macroblocking counters.
* :mod:`repro.app.cross_traffic` -- background flows for contended
  WAN trials (Fig. 14/15).
"""

from repro.app.udp_blast import UdpBlaster, UdpAckResponder, run_contention_trial
from repro.app.bulk import BulkFlow
from repro.app.video import VideoSession, VideoStats

__all__ = [
    "BulkFlow",
    "UdpAckResponder",
    "UdpBlaster",
    "VideoSession",
    "VideoStats",
    "run_contention_trial",
]
