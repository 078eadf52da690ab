"""Performance model of the durable storage device.

Parameterized to the paper's testbed SSD — a 480 GB Intel Optane drive
with 2 GB/s write bandwidth and 146k IOPS — and used by every store to
convert byte counts into virtual seconds.  The model is the standard
``latency + size/bandwidth`` affine cost with an IOPS floor:

    write(bytes) = max(latency + bytes / write_bw, 1 / iops)

Reads use a separate (higher) bandwidth, matching Optane's asymmetry.
The device also keeps cumulative counters so experiments can report
bytes written per scheme (the log-size comparison behind Fig. 12b/c).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError


@dataclass
class DeviceStats:
    """Cumulative traffic counters for one device."""

    bytes_written: int = 0
    bytes_read: int = 0
    write_ops: int = 0
    read_ops: int = 0
    write_seconds: float = 0.0
    read_seconds: float = 0.0


@dataclass
class StorageDevice:
    """Affine latency/bandwidth/IOPS model of an SSD.

    Defaults match the paper's Intel Optane drive.  ``write_seconds`` /
    ``read_seconds`` return the virtual time one flush/fetch takes; the
    caller decides which core(s) to charge it to and whether the async
    I/O path hides part of it.
    """

    write_bandwidth: float = 2.0e9  # bytes/second
    read_bandwidth: float = 2.5e9  # bytes/second
    iops: float = 146_000.0
    latency: float = 20e-6  # seconds, per operation setup
    stats: DeviceStats = field(default_factory=DeviceStats)

    def __post_init__(self) -> None:
        for name in ("write_bandwidth", "read_bandwidth", "iops"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        if self.latency < 0:
            raise ConfigError("latency must be >= 0")

    @property
    def _min_op_time(self) -> float:
        return 1.0 / self.iops

    def write(self, num_bytes: int) -> float:
        """Account one flush of ``num_bytes`` and return its duration."""
        if num_bytes < 0:
            raise ConfigError("cannot write a negative byte count")
        seconds = max(
            self.latency + num_bytes / self.write_bandwidth, self._min_op_time
        )
        self.stats.bytes_written += num_bytes
        self.stats.write_ops += 1
        self.stats.write_seconds += seconds
        return seconds

    def read(self, num_bytes: int) -> float:
        """Account one fetch of ``num_bytes`` and return its duration."""
        if num_bytes < 0:
            raise ConfigError("cannot read a negative byte count")
        seconds = max(
            self.latency + num_bytes / self.read_bandwidth, self._min_op_time
        )
        self.stats.bytes_read += num_bytes
        self.stats.read_ops += 1
        self.stats.read_seconds += seconds
        return seconds
