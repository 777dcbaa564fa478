#!/usr/bin/env python3
"""Conjecture scan: do the labeled seeds generate sub-bimodules of the
predicted dimensions?

For each admissible label (lam, mu) the scan closes the conjectural seed
K^{-(lam+mu)/2} c^{lam-mu} (mirror letter b when mu > lam) under both
actions and compares the resulting dimension with ((lam+1)(mu+1))^2.  The
outcome is reported as conjecture-consistent or NOT consistent — it is
measured, never assumed.  For (1, 1) the scan additionally tests whether
the closure of K^-1 coincides, as a subspace, with the shipped reference
closure of E K^-1: same dimension and mutual containment of bases.  Each
label's line ends with the process's peak RSS so far, so one scan shows
how memory grows with the closure dimension.

Usage: python3 scripts/conjecture_scan.py [--max-total 4] [--cap 2048]
"""
import argparse
import resource
import sys
import time

sys.path.insert(0, "src")

from hopflab.bimodlab import core, vectors  # noqa: E402


def predicted(lam, mu):
    return ((lam + 1) * (mu + 1)) ** 2


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def scan(max_total, cap):
    cfg = core.LabConfig(closure_cap=cap)
    all_ok = True
    for total in range(0, max_total + 1):
        for lam in range(total + 1):
            mu = total - lam
            if (lam - mu) % 2:
                continue
            seed = vectors.h_lambda_mu_seed(lam, mu)
            t0 = time.perf_counter()
            try:
                mod = core.closure([seed], side="bi", config=cfg,
                                   name="conj(%d,%d)" % (lam, mu))
            except core.LocalFinitenessExceeded:
                print("(%d,%d): closure exceeded cap %d — unresolved  "
                      "[peak RSS %.1f MB]" % (lam, mu, cap, peak_rss_mb()))
                all_ok = False
                continue
            want = predicted(lam, mu)
            ok = mod.dim == want
            all_ok = all_ok and ok
            print("(%d,%d): closure dim %d, predicted %d -> %s  "
                  "[%.2fs, peak RSS %.1f MB]"
                  % (lam, mu, mod.dim, want,
                     "conjecture-consistent" if ok else "NOT consistent",
                     time.perf_counter() - t0, peak_rss_mb()))
            if (lam, mu) == (1, 1):
                ref = core.standard_module("H11")
                same = (mod.dim == ref.dim
                        and all(ref.ech.contains(b) for b in mod.basis)
                        and all(mod.ech.contains(b) for b in ref.basis))
                print("        closure of K^-1 equals the reference "
                      "closure of E K^-1: %s" % same)
                all_ok = all_ok and same
    return all_ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-total", type=int, default=4,
                    help="largest lam+mu to scan (default 4)")
    ap.add_argument("--cap", type=int, default=2048,
                    help="closure dimension cap (default 2048)")
    args = ap.parse_args()
    t0 = time.perf_counter()
    ok = scan(args.max_total, args.cap)
    print("scan result: %s  [%.2fs, peak RSS %.1f MB]"
          % ("all labels conjecture-consistent" if ok
             else "inconsistencies or unresolved labels above",
             time.perf_counter() - t0, peak_rss_mb()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
