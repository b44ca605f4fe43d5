"""Sensing-only hybrid beamforming and the receive-chain trade.

Optimizes the transceiver for pure angle estimation, shows the monotone
objective trace, compares RF-chain allocations under a fixed total budget,
and reports the probability-weighted power focusing of the final pattern.

Run:  python3 demos/02_sensing_optimization.py
"""

import numpy as np

import isac_beamkit as bk
from isac_beamkit.bench import pattern_mass_near_prior, power_pattern
from isac_beamkit.isac_opt import ao_isac

scenario = bk.sensing_scenario()
report = ao_isac(scenario)
print("sensing-only optimization (3 tx / 6 rx chains)")
print("  PCRB trace :", " -> ".join(f"{x:.3e}" for x in report.trace[:6]))
print(f"  final PCRB : {report.final_pcrb:.4e} rad^2 after {report.iterations} iterations")

thetas, power = power_pattern(scenario, report.design)
mass = pattern_mass_near_prior(thetas, power, scenario.angle_prior)
print(f"  {100*mass:.1f}% of the received-power mass sits within +-3 sigma of the prior means")

print("\nRF-chain allocation under a total budget of 8 chains:")
for n_rf_tx in (2, 4, 5, 6, 7):
    sc = bk.sensing_scenario(n_rf_tx=n_rf_tx, n_rf_rx=8 - n_rf_tx)
    rep = ao_isac(sc)
    print(f"  tx chains {n_rf_tx} / rx chains {8-n_rf_tx}: PCRB {rep.final_pcrb:.4e}")
print("receive chains dominate: the best allocation puts the minimum at the transmitter")
