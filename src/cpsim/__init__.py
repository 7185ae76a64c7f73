"""Performance model for 2.5D chiplet DNN accelerators that use silicon
photonics for both computation and inter-chiplet communication."""

from .config import SimConfig, SimOptions, default_config, load_config, parse_config, with_kind
from .devices import DeviceParams, OpticalPath, PcmcState, replace
from .engine import RunMetrics, simulate_model
from .mapper import MappingPlan, map_model
from .platform import PlatformTopology, build_topology, default_platform
from .workload import DnnModelSpec, LayerSpec, load_model, load_shipped_model, param_count

__version__ = "0.1.0"

__all__ = [
    "DeviceParams", "DnnModelSpec", "LayerSpec", "MappingPlan", "OpticalPath",
    "PcmcState", "PlatformTopology", "RunMetrics", "SimConfig", "SimOptions",
    "build_topology", "default_config", "default_platform", "load_config",
    "load_model", "load_shipped_model", "map_model", "param_count", "parse_config",
    "replace", "simulate_model", "with_kind", "__version__",
]
