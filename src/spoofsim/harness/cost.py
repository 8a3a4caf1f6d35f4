"""Disruption-cost model for attack-induced flight events.

Fuel burn is tabulated in gallons per (aircraft type, event); dollar cost is
gallons times the jet-fuel price, and kilograms are derived from gallons via
the fuel density.  A diversion is costed as a wide operational band in GBP
rather than a fuel figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

B737_800 = "B737_800"
B777_200 = "B777_200"

MISSED_APPROACH = "missed_approach"
SECOND_APPROACH = "second_approach"
DIVERSION = "diversion"

#: Jet-fuel price, US cents per gallon.
FUEL_PRICE_CENTS_PER_GAL = 184.58
#: Jet-fuel density, kg per gallon.
DENSITY_KG_PER_GAL = 3.039

#: Extra fuel burned per event, gallons (authoritative for costing).
GALLONS: Dict[Tuple[str, str], float] = {
    (B737_800, MISSED_APPROACH): 41.79,
    (B737_800, SECOND_APPROACH): 75.68,
    (B777_200, MISSED_APPROACH): 111.55,
    (B777_200, SECOND_APPROACH): 279.69,
}

#: Published kg figures for the same events; one pair (777 missed approach)
#: is inconsistent with gallons x density and is flagged in report notes.
PUBLISHED_KG: Dict[Tuple[str, str], float] = {
    (B737_800, MISSED_APPROACH): 127.0,
    (B737_800, SECOND_APPROACH): 230.0,
    (B777_200, MISSED_APPROACH): 399.0,
    (B777_200, SECOND_APPROACH): 850.0,
}

#: Operational cost band for a diversion, GBP.
DIVERSION_BAND_GBP: Tuple[float, float] = (10_000.0, 80_000.0)


@dataclass(frozen=True)
class CostReport:
    aircraft_type: str
    event: str
    extra_fuel_kg: float
    gallons: float
    usd: float
    diversion_band_gbp: Optional[Tuple[float, float]] = None
    note: str = ""

    def to_record(self) -> dict:
        return {
            "aircraft_type": self.aircraft_type,
            "event": self.event,
            "extra_fuel_kg": round(self.extra_fuel_kg, 2),
            "gallons": self.gallons,
            "usd": round(self.usd, 2),
            "diversion_band_gbp": list(self.diversion_band_gbp)
            if self.diversion_band_gbp
            else None,
            "note": self.note,
        }


def disruption_cost(event: str, aircraft_type: str) -> CostReport:
    if aircraft_type not in (B737_800, B777_200):
        raise ValueError(f"unknown aircraft type {aircraft_type!r}")
    if event == DIVERSION:
        return CostReport(
            aircraft_type=aircraft_type,
            event=event,
            extra_fuel_kg=0.0,
            gallons=0.0,
            usd=0.0,
            diversion_band_gbp=DIVERSION_BAND_GBP,
            note="diversion costed as an operational band, not a fuel figure",
        )
    key = (aircraft_type, event)
    if key not in GALLONS:
        raise ValueError(f"unknown event {event!r}")
    gallons = GALLONS[key]
    kg = gallons * DENSITY_KG_PER_GAL
    usd = gallons * FUEL_PRICE_CENTS_PER_GAL / 100.0
    note = ""
    published = PUBLISHED_KG.get(key)
    if published is not None and abs(published - kg) / kg > 0.02:
        note = (
            f"published {published:.0f} kg differs from gallons x density "
            f"({kg:.0f} kg); gallons treated as authoritative"
        )
    return CostReport(
        aircraft_type=aircraft_type,
        event=event,
        extra_fuel_kg=kg,
        gallons=gallons,
        usd=usd,
        note=note,
    )


def all_cost_reports() -> list:
    reports = []
    for aircraft in (B737_800, B777_200):
        for event in (MISSED_APPROACH, SECOND_APPROACH):
            reports.append(disruption_cost(event, aircraft))
        reports.append(disruption_cost(DIVERSION, aircraft))
    return reports
