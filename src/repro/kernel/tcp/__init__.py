"""TCP: the transmit and receive halves of a connection, and congestion
control."""

from .ack import AckInfo
from .receiver import TcpReceiver
from .sender import TcpSender

__all__ = ["AckInfo", "TcpReceiver", "TcpSender"]
