"""Device profiles.

A :class:`DeviceProfile` turns per-operation cost descriptors into
milliseconds.  Its four coefficients have a physical reading:

* ``conv_ns_per_mac`` -- cost of a dense KxK convolution / linear MAC,
* ``pwconv_ns_per_mac`` -- cost of a pointwise (1x1) convolution MAC
  (noticeably higher than dense KxK on these boards because 1x1 layers have
  low arithmetic intensity and vanilla PyTorch does not fuse them),
* ``dwconv_ns_per_mac`` -- cost of a depthwise-convolution MAC (much higher
  on ARM CPUs with vanilla PyTorch, because depthwise kernels are
  memory-bound and poorly vectorised),
* ``ns_per_element`` -- cost of moving one activation element through the
  memory hierarchy (batch-norm, residual adds, pooling and layer overheads
  are dominated by this term),
* ``ms_per_layer`` -- fixed per-operation dispatch overhead.

Default values are obtained by a non-negative least-squares fit of the model
against the Raspberry Pi 4 and Odroid XU-4 latencies reported in the paper's
Tables 1 and 3 (see ``repro.hardware.calibration``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class DeviceProfile:
    """Analytic latency model coefficients for one edge device."""

    name: str
    conv_ns_per_mac: float
    pwconv_ns_per_mac: float
    dwconv_ns_per_mac: float
    ns_per_element: float
    ms_per_layer: float
    memory_mb: float = 1024.0

    def __post_init__(self) -> None:
        if min(
            self.conv_ns_per_mac,
            self.pwconv_ns_per_mac,
            self.dwconv_ns_per_mac,
            self.ns_per_element,
            self.ms_per_layer,
        ) < 0:
            raise ValueError("device profile coefficients must be non-negative")
        if self.memory_mb <= 0:
            raise ValueError("memory_mb must be positive")

    def op_latency_ms(self, kind: str, macs: float, elements: float) -> float:
        """Latency of a single primitive operation in milliseconds."""
        if kind == "dwconv":
            compute_ns = macs * self.dwconv_ns_per_mac
        elif kind == "pwconv":
            compute_ns = macs * self.pwconv_ns_per_mac
        elif kind in ("conv", "linear"):
            compute_ns = macs * self.conv_ns_per_mac
        else:  # bn, add, pool: bandwidth-bound
            compute_ns = 0.0
        memory_ns = elements * self.ns_per_element
        return (compute_ns + memory_ns) / 1e6 + self.ms_per_layer


# Coefficients fitted against the paper's reported latencies (see
# repro.hardware.calibration.fit_device_profile).
RASPBERRY_PI_4 = DeviceProfile(
    name="Raspberry Pi 4B",
    conv_ns_per_mac=0.0247,
    pwconv_ns_per_mac=0.01,
    dwconv_ns_per_mac=65.9,
    ns_per_element=8.15,
    ms_per_layer=0.97,
    memory_mb=8192.0,
)

ODROID_XU4 = DeviceProfile(
    name="Odroid XU-4",
    conv_ns_per_mac=0.196,
    pwconv_ns_per_mac=0.509,
    dwconv_ns_per_mac=201.9,
    ns_per_element=0.50,
    ms_per_layer=0.05,
    memory_mb=2048.0,
)

_DEVICES: Dict[str, DeviceProfile] = {
    "raspberry-pi-4": RASPBERRY_PI_4,
    "odroid-xu4": ODROID_XU4,
}


def list_devices() -> List[str]:
    """Names of the built-in device profiles."""
    return sorted(_DEVICES)


def get_device(name: str) -> DeviceProfile:
    """Look up a built-in device profile by name."""
    key = name.lower().strip()
    if key not in _DEVICES:
        raise KeyError(f"unknown device {name!r}; known: {', '.join(sorted(_DEVICES))}")
    return _DEVICES[key]
