"""Dilate the amplitude-damping instrument and read its invariants back."""

import numpy as np

from qmeasure import (
    KrausInstrument,
    OutcomeSpace,
    dilate,
    from_realization,
    instrument_of,
    instruments_equal,
    invariants,
)

A0 = np.array([[1.0, 0.0], [0.0, np.sqrt(0.5)]])
A1 = np.array([[0.0, np.sqrt(0.5)], [0.0, 0.0]])


def main():
    t = KrausInstrument(OutcomeSpace(("0", "1")), {"0": [A0], "1": [A1]}, 2)

    for mode in ("minimal", "invariant"):
        g = dilate(t, mode=mode)
        inv = invariants(g)
        print(f"mode {mode}: ancilla dim {g.dim_k}, "
              f"round trip {instruments_equal(instrument_of(g), t)}")
        print(f"  weights (alpha, k): {inv.beta_profile}")
        print(f"  total measure: "
              + ", ".join(f"{l}={v:.4f}" for l, v in zip(inv.space.labels, inv.total_nu)))

        scalar, operator = from_realization(g).orthonormality_deviations()
        print(f"  table deviations: operator {operator:.2e}, scalar {scalar:.2e}")

    # the minimal dilation concentrates the pointer, the spread one weights
    # every atom; both induce the identical instrument
    print("operator measure at atom '0' (spread mode):")
    print(np.round(invariants(dilate(t, mode="invariant")).total_theta[0], 4))


if __name__ == "__main__":
    main()
