"""Network substrate: simulation engine, fluid flows, links, topology, NAT, geo.

This subpackage replaces the real Internet in the reproduction.  See
DESIGN.md §2 for the substitution rationale.
"""

from repro.net.sim import Simulator, Clock, Event, SimulationError
from repro.net.flows import FlowNetwork, Flow, Resource
from repro.net.links import AccessLink, BroadbandModel, mbps
from repro.net.nat import NATType, NATProfile, NATModel, can_connect
from repro.net.geo import (
    World, Country, City, Region, GeoDatabase, GeoRecord,
    build_core_world, haversine_km,
)
from repro.net.topology import ASTopology, AutonomousSystem, build_topology
from repro.net.addressing import IPAllocator
from repro.net.lan import LanSite

__all__ = [
    "Simulator", "Clock", "Event", "SimulationError",
    "FlowNetwork", "Flow", "Resource",
    "AccessLink", "BroadbandModel", "mbps",
    "NATType", "NATProfile", "NATModel", "can_connect",
    "World", "Country", "City", "Region", "GeoDatabase", "GeoRecord",
    "build_core_world", "haversine_km",
    "ASTopology", "AutonomousSystem", "build_topology",
    "IPAllocator",
    "LanSite",
]
