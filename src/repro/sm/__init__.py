"""Streaming-multiprocessor model: warps, CTA slots, and the SM core."""

from repro.sm.warp import Warp
from repro.sm.scheduler import CtaSlot, CtaSlotScheduler
from repro.sm.smcore import SmCore

__all__ = ["Warp", "CtaSlot", "CtaSlotScheduler", "SmCore"]
