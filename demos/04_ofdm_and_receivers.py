"""Wideband OFDM ISAC and the fully-connected receive architecture.

Optimizes per-subcarrier digital covariances under a common analog pair,
then contrasts the partially-connected receiver with the DFT-codebook
fully-connected one on the narrowband problem.

Run:  python3 demos/04_ofdm_and_receivers.py    (a few minutes)
"""

import math

import isac_beamkit as bk
from isac_beamkit.model import RxArchitecture
from isac_beamkit.isac_opt import ao_p1, ao_p2

LN2 = math.log(2.0)

print("wideband OFDM ISAC (8 sub-carriers, 8-tap channel)")
sc = bk.default_ofdm_scenario(subcarriers=8, rate_target_bits=5.0)
rep = ao_p2(sc, n_init=16, max_outer=4)
print(f"  PCRB {rep.final_pcrb:.4e}, average rate {rep.final_rate/LN2:.2f} bps/Hz, "
      f"power {rep.power_used:.3f} W")
ranks = [int((abs(r.diagonal()) > 1e-12).sum()) for r in rep.design.r_bb[:4]]
print(f"  first sub-carrier digital ranks: {ranks} (streams adapt per carrier)")

print("\nreceive architectures on the narrowband problem (4.5 bps/Hz)")
for arch, n_rf_rx, label in (
    (RxArchitecture.PARTIALLY_CONNECTED, 6, "partially connected (6 chains)"),
    (RxArchitecture.FULLY_CONNECTED, 6, "fully connected, DFT rows (6 chains)"),
    (RxArchitecture.FULLY_DIGITAL, 12, "fully digital"),
):
    sc = bk.default_scenario(n_rf_rx=n_rf_rx, rx_architecture=arch)
    rep = ao_p1(sc, n_init=16, max_outer=5)
    print(f"  {label:38s} PCRB {rep.final_pcrb:.4e}")
