#!/usr/bin/env python3
"""Estimate the averaged 1-point correlation by three routes and compare:
truncated expansion, exact rejection sampling, and grand-canonical MCMC.

Example:
    python scripts/compare_samplers.py --z 0.05 --samples 50000
"""
import argparse
import math

from markedgibbs.cluster import (averaged_correlation, correlation_tail_bound)
from markedgibbs.gibbsmc import (EMPTY_BOUNDARY, SamplerConfig, mcmc_run,
                                 rejection_sample_batch, summarize_samples)
from markedgibbs.lpintegrate import QuadratureScheme, philox_rng
from markedgibbs.potential import build_model, check_integrability


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", default="toy-repulsive-spin")
    ap.add_argument("--z", type=float, default=0.05)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--samples", type=int, default=50000)
    ap.add_argument("--order", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    model = build_model(args.model, z=args.z, beta=args.beta)
    region = model.space.box

    scheme = QuadratureScheme.tensor((48, 24, 12, 8), seed=args.seed)
    expansion = averaged_correlation(model, region, m=1, N=args.order,
                                     scheme=scheme)
    c_beta = check_integrability(model, 24).c_beta
    budget = expansion.error + correlation_tail_bound(model, args.order + 1,
                                                      c_beta)

    rng = philox_rng(args.seed, 1)
    rej = summarize_samples(
        rejection_sample_batch(model, region, EMPTY_BOUNDARY, args.samples, rng),
        model, region)
    chain = mcmc_run(model, region, EMPTY_BOUNDARY,
                     SamplerConfig(seed=args.seed + 1, sweeps=args.samples,
                                   burn_in=min(max(1000, args.samples // 20),
                                               args.samples // 2)))

    print(f"{'route':<12} {'rho_avg':>10} {'uncertainty':>12}")
    print(f"{'expansion':<12} {expansion.value:>10.6f} {budget:>12.2e}")
    print(f"{'rejection':<12} {rej.rho_hat:>10.6f} {rej.rho_hat_se:>12.2e}")
    print(f"{'mcmc':<12} {chain.rho_hat:>10.6f} {chain.rho_hat_se:>12.2e}")
    gap_rm = abs(rej.rho_hat - chain.rho_hat)
    se_rm = math.hypot(rej.rho_hat_se, chain.rho_hat_se)
    print(f"\nrejection vs mcmc: gap {gap_rm:.2e} ({gap_rm / se_rm:.2f} s.e.)")
    print(f"mcmc acceptance: " + ", ".join(
        f"{k}={v:.3f}" for k, v in chain.acceptance.items()))


if __name__ == "__main__":
    main()
