"""Photon counting saturates the quantum Cramer-Rao bound: a simulation check.

With the signal loss off (gamma_b = 0) the reduced model relaxes onto a
two-photon-dissipation manifold with Poissonian number statistics. The script
evolves the master equation at three couplings bracketing the working point,
assembles delta^2 g from the simulated photon statistics and the quantum
Fisher information from the simulated Gaussian moments, and prints the
product, which should sit at 1 up to truncation and stencil error.
"""

import argparse
import sys

from pdclab import analytic, metrology
from pdclab.dynamics import SystemParams, build_reduced_model, evolve_open
from pdclab.hilbert import FockSpace, coherent_state, density_from_state


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--g", type=float, default=0.1)
    ap.add_argument("--lambda-a", type=float, default=12.0)
    ap.add_argument("--gamma-a", type=float, default=10.0)
    ap.add_argument("--kappa-e", type=float, default=0.018)
    ap.add_argument("--dim", type=int, default=34)
    ap.add_argument("--time", type=float, default=250.0)
    ap.add_argument("--step", type=float, default=1e-3, help="coupling stencil")
    args = ap.parse_args(argv)

    def params_at(g: float) -> SystemParams:
        return SystemParams(g=g, lambda_a=args.lambda_a, gamma_a=args.gamma_a,
                            gamma_b=0.0, kappa_e=args.kappa_e)

    def simulate(g: float):
        p = params_at(g)
        seed = coherent_state(0.8 * analytic.moment_gb0(0, 1, p), FockSpace(args.dim))
        return evolve_open(build_reduced_model(p, args.dim),
                           density_from_state(seed), args.time)

    h = args.step
    states = {dg: simulate(args.g + dg) for dg in (-h, 0.0, h)}

    def evolved(g: float):
        return states[round(g - args.g, 12)]

    rec = metrology.photon_stats(evolved, args.g, step=h)
    d2 = metrology.error_propagation(rec)
    qfi = metrology.qfi_gaussian_family(
        lambda g: metrology.gaussian_moments(evolved(g)), args.g, step=h).value

    p0 = params_at(args.g)
    print(f"simulated <n> = {rec.mean:.6f}   Var(n) = {rec.variance:.6f}   "
          f"d<n>/dg = {rec.dmean_dg:.4f}")
    print(f"photon-counting delta^2 g   = {d2:.8e}")
    print(f"Gaussian-moment QFI         = {qfi:.8e}")
    print(f"product delta^2 g x QFI     = {d2 * qfi:.8f}")
    print(f"closed-form algebra product = "
          f"{analytic.delta2_g('gb0', 'photon', p0) * analytic.qfi_gb0_closed(p0):.8f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
