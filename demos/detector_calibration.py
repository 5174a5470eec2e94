"""Calibrate the running-mean loss monitor.

The monitor keeps a per-channel running mean of observed deliveries and
flags the channel when that mean leaves the band [rate - tol, rate + tol],
edges included, within 1e-12 (the package's ``DetectionSpec.monitor``).
This script measures two things over many trials on a single channel with
nominal rate 0.7 and tolerance 0.1:

  * the false-alarm probability at a fixed sample count when the channel
    is honest, against the two-sided concentration (Hoeffding) bound
  * how quickly attacks of varying depth are caught, where depth is how
    far the attacker's rate sits from nominal

An attacker parked inside the band is never caught by this monitor; the
attack synthesis in the rest of the package exploits exactly that gap.

    python3 demos/detector_calibration.py
"""

import math

import numpy as np

from dropattack import ChannelSpec, DetectionSpec

RATE = 0.7
TOL = 0.1
TRIALS = 2000
STEPS = 1000

channel = ChannelSpec(mean_diag=np.array([RATE]))
detection = DetectionSpec(tol_diag=np.array([TOL]))


def monitor(alpha, rng, min_steps=1):
    draws = (rng.random((TRIALS, STEPS, 1)) < alpha).astype(float)
    return detection.monitor(channel, draws, min_steps)


def main():
    rng = np.random.default_rng(2026)
    lo, hi = detection.bounds(channel)
    lo, hi = float(lo[0]), float(hi[0])
    print(f"channel rate {RATE}, tolerance {TOL}, safe band "
          f"[{lo:.2f}, {hi:.2f}]")
    print(f"{TRIALS} trials of {STEPS} steps each\n")

    # honest channel: false alarms at checkpoints vs the Hoeffding bound
    means, _ = monitor(RATE, rng)
    print("honest channel, false-alarm probability at step k")
    print(f"  {'k':>5}  {'measured':>9}  {'bound':>9}")
    for k in (50, 100, 300, 1000):
        outside = np.mean(~detection.contains(channel, means[:, k - 1]))
        bound = 2.0 * math.exp(-2.0 * k * TOL * TOL)
        print(f"  {k:>5}  {outside:9.4f}  {bound:9.2e}")

    # shifted channel: cumulative probability that the running mean has
    # left the band at least once, monitor armed after a short warmup
    warmup = 30
    print(f"\nshifted channel, cumulative detection probability "
          f"(monitor armed after {warmup} samples)")
    print(f"  {'rate':>6}  {'position':>12}  {'by 100':>7}  "
          f"{'by 300':>7}  {'by 1000':>8}")
    for alpha in (0.70, 0.65, 0.62, 0.58, 0.50, 0.40):
        _, first = monitor(alpha, rng, min_steps=warmup + 1)
        if alpha == RATE:
            tag = "nominal"
        elif detection.contains(channel, [alpha]):
            tag = "inside band"
        else:
            tag = f"outside {max(lo - alpha, alpha - hi):+.2f}"
        cells = [float(np.mean((first >= 0) & (first < k)))
                 for k in (100, 300, 1000)]
        print(f"  {alpha:>6.2f}  {tag:>12}  {cells[0]:7.1%}  "
              f"{cells[1]:7.1%}  {cells[2]:8.1%}")

    print("\ntwo different readings, both useful: a one-shot membership")
    print("test at a late step is nearly silent on an honest channel, but")
    print("checking every step accrues false alarms from early-sample")
    print("noise, which is why the episode harness takes a warmup length.")
    print("edges belong to the band (within 1e-12): a rate parked at the")
    print("nominal is invisible in distribution, one on an edge is flagged")
    print("eventually, and one outside is caught within tens of samples")


if __name__ == "__main__":
    main()
