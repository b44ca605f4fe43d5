"""The cells of each benchmark workload, built from the workload seed.

A cell is one optimised design: one call to ``bench.run_scheme`` with a
scenario and the ``PcrbEngine`` built for it during set-up. A workload's
cells form one round; a run repeats whole rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from isac_beamkit import PcrbEngine, bench
from isac_beamkit.model import ArrayConfig, RxArchitecture, Scenario, realize_channel
from isac_beamkit.scenarios import (
    channel_seed,
    default_ofdm_scenario,
    default_scenario,
    sensing_scenario,
)

# the acceptance setting of the rate-constrained optimisers
AO_LIGHT = {"n_init": 48, "max_outer": 4, "wmmse_rounds": 2, "sca_iters": 4}

PROPOSED = bench.Scheme.parse("proposed")
FULLY_DIGITAL = bench.Scheme.parse("fully_digital")

# 2.0 bits is met by the sensing optimum (sensing branch of the digital
# solver); 3.5 and 4.5 bits need the rate dual
NARROWBAND_BITS = (2.0, 3.5, 4.5)
NARROWBAND_DRAWS = 8
OFDM_STARTS = 4

PARTIAL = RxArchitecture.PARTIALLY_CONNECTED
FULL = RxArchitecture.FULLY_CONNECTED
# (n_tx, n_rx, receive architecture, (n_rf_tx, n_rf_rx) splits of 8 chains);
# a partially-connected receiver needs n_rf_rx to divide n_rx
SENSING_LAYOUTS = (
    (8, 12, PARTIAL, ((2, 6), (4, 4), (6, 2))),
    (8, 12, FULL, ((2, 6), (4, 4), (6, 2))),
    (32, 32, PARTIAL, ((4, 4), (6, 2), (7, 1))),
    (32, 32, FULL, ((4, 4), (6, 2))),
    (64, 64, PARTIAL, ((4, 4), (6, 2))),
    (64, 64, FULL, ((4, 4), (6, 2))),
)


@dataclass
class Cell:
    label: str
    scheme: bench.Scheme
    scenario: Scenario
    engine: PcrbEngine
    ao_options: dict


def _draw_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def isac_narrowband(seed: int) -> list[Cell]:
    """``ao_p1`` on the reference 8x12 scenario, per channel draw and rate target."""
    cells = []
    for draw in _draw_seeds(seed, NARROWBAND_DRAWS):
        for bits in NARROWBAND_BITS:
            sc = default_scenario(rate_target_bits=bits, seed=draw)
            cells.append(
                Cell(f"narrowband draw={draw} bits={bits}", PROPOSED, sc, PcrbEngine(sc), AO_LIGHT)
            )
    return cells


def isac_ofdm(seed: int) -> list[Cell]:
    """``ao_p2`` on the reference K=16 channel, one cell per start seed."""
    base = default_ofdm_scenario()
    cells = []
    for start in _draw_seeds(seed, OFDM_STARTS):
        sc = base.replace(seed=start)
        cells.append(Cell(f"ofdm start={start}", PROPOSED, sc, PcrbEngine(sc), AO_LIGHT))
    return cells


def _sensing_at(base: Scenario, draw: int, arrays: ArrayConfig) -> Scenario:
    channel = realize_channel(arrays, base.channel_spec, 1, channel_seed(draw))
    return base.replace(arrays=arrays, channel=channel)


def sensing_arrays(seed: int) -> list[Cell]:
    """Sensing-only ``ao_p0`` over RF splits, plus ``fully_digital`` per array size.

    With a zero rate target neither the channel draw nor the scenario seed
    changes a design: ``ao_p0`` starts from all-ones phases.
    """
    (draw,) = _draw_seeds(seed, 1)
    base = sensing_scenario(seed=draw)
    cells = []
    for n_tx, n_rx, arch, splits in SENSING_LAYOUTS:
        for n_rf_tx, n_rf_rx in splits:
            arrays = ArrayConfig(n_tx, n_rx, base.arrays.n_user, n_rf_tx, n_rf_rx, arch)
            sc = _sensing_at(base, draw, arrays)
            label = f"sensing {n_tx}x{n_rx} {arch.value} {n_rf_tx}/{n_rf_rx}"
            cells.append(Cell(label, PROPOSED, sc, PcrbEngine(sc), {}))
        if arch is PARTIAL:
            # fully_digital builds its own fully-digital scenario and engine
            first = cells[-len(splits)]
            cells.append(
                Cell(f"sensing {n_tx}x{n_rx} fully_digital", FULLY_DIGITAL, first.scenario, first.engine, {})
            )
    return cells


WORKLOADS = {
    "isac_narrowband": isac_narrowband,
    "isac_ofdm": isac_ofdm,
    "sensing_arrays": sensing_arrays,
}
