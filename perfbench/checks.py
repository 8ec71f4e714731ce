"""Checks of the program's outputs.  Each returns a list of failures.

Every check takes plain numbers, so the tests can feed it a wrong
value and see it fail.  The tolerances are stated here, next to the
property they test.

A failure is a str.  A KnownFault is one that a named fault of the
program explains exactly: it still counts its operation as failed, but
does not make the run's outputs wrong.
"""

from __future__ import annotations

import math

# acceptance tolerance on fitted growth exponents (criterion 2 of the
# project's acceptance suite uses [2.7, 3.3] around a = 3)
SLOPE_TOL = 0.3
# quadrature against frobenius MC, and the max-norm bracket, in standard
# errors of the MC estimates; chosen well above the largest |z| seen
# over many seeds so that a correct program never trips it
Z_MAX = 6.0
# factorization round trips (criterion 5)
RECON_TOL = 1e-9
FORM_TOL = 1e-8
# near-wall blow-up and coarse stability (criteria 6 and 7)
BLOWUP_MIN = 5.0
COARSE_BAND = (0.5, 2.0)
DEPTH_SPREAD_MAX = 3.0


class KnownFault(str):
    pass


def identical(first: bytes | None, again: bytes | None, what: str) -> list[str]:
    if first is None or again is None:
        return [f"{what}: no output"]
    return [] if first == again else [f"{what}: rerun output differs from the first run"]


def strictly_increasing(values, what: str) -> list[str]:
    bad = [i for i in range(1, len(values)) if not values[i] > values[i - 1]]
    return [f"{what}: not strictly increasing at position {bad[0]}"] if bad else []


def nondecreasing(values, what: str) -> list[str]:
    bad = [i for i in range(1, len(values)) if values[i] < values[i - 1]]
    return [f"{what}: decreases at position {bad[0]}"] if bad else []


def equal(got, want, what: str) -> list[str]:
    return [] if got == want else [f"{what}: got {got}, expected {want}"]


def slope_near(slope: float, want: float, what: str) -> list[str]:
    if math.isfinite(slope) and abs(slope - want) <= SLOPE_TOL:
        return []
    return [f"{what}: slope {slope:.4f} not within {SLOPE_TOL} of {want}"]


def boundary_counts(got, exact, on_sphere) -> list[str]:
    """Frobenius ball counts at T = sqrt(k) against the exact ones.

    on_sphere[i] is the number of forms with norm squared exactly k.
    The program's per-grid filter sqrt(norm2) < T drops those forms
    whenever the float T squared rounds above k (the known threshold
    fault), so a count short by exactly that many is a KnownFault; any
    other difference is a plain failure.
    """
    if len(got) != len(exact):
        return [f"boundary: {len(got)} counts, expected {len(exact)}"]
    out = []
    for i, (g, e, w) in enumerate(zip(got, exact, on_sphere)):
        if g == e:
            continue
        if w > 0 and g == e - w:
            out.append(KnownFault(
                f"boundary: count {g} at position {i} misses the {w} forms on the "
                f"sphere T^2 = k (exact {e}): the known frobenius threshold fault"))
        else:
            out.append(f"boundary: count {g} at position {i}, expected {e}")
    return out


def at_most(small, large, what: str) -> list[str]:
    bad = [i for i, (a, b) in enumerate(zip(small, large)) if a > b]
    return [f"{what}: {small[bad[0]]} > {large[bad[0]]} at position {bad[0]}"] if bad else []


def partition(members, degenerate, ball: int) -> list[str]:
    """Sign sectors plus their shared degenerate tally give the ball."""
    out = []
    if len(set(degenerate)) != 1:
        out.append(f"partition: degenerate tallies differ across sectors {sorted(set(degenerate))}")
    elif sum(members) + degenerate[0] != ball:
        out.append(
            f"partition: members {sum(members)} + degenerate {degenerate[0]} != ball {ball}"
        )
    return out


def frames_complement(full, cap, anticap) -> list[str]:
    """full, cap, anticap: lists of (members, degenerate) per T."""
    out = []
    for i, (f, c, a) in enumerate(zip(full, cap, anticap)):
        if c[0] + a[0] != f[0]:
            out.append(f"frames: cap {c[0]} + anticap {a[0]} != full {f[0]} at position {i}")
        if not c[1] == a[1] == f[1]:
            out.append(f"frames: degenerate tallies {f[1]}, {c[1]}, {a[1]} differ at position {i}")
    return out


def within_band(got: int, sure: int, ambiguous: int, what: str) -> list[str]:
    """Agreement off the walls: sure <= got <= sure + ambiguous."""
    if sure <= got <= sure + ambiguous:
        return []
    return [f"{what}: {got} outside [{sure}, {sure + ambiguous}] from the eigh classifier"]


def round_trip(rel_err: float, form_err: float) -> list[str]:
    out = []
    if not rel_err <= RECON_TOL:
        out.append(f"round trip: relative reconstruction error {rel_err:.3e} > {RECON_TOL}")
    if not form_err <= FORM_TOL:
        out.append(f"round trip: |h J h^T - J| = {form_err:.3e} > {FORM_TOL}")
    return out


def sweep(cells, near_c: float, far_c: float) -> list[str]:
    """cells: dicts with c, depth, fine (list of ratios) and coarse (list)."""
    out = []
    far = [c for c in cells if c["c"] == far_c]
    near = [c for c in cells if c["c"] == near_c]
    if not far or not near:
        return ["sweep: a c value has no cells"]
    for cell in far:
        vals = cell["fine"] + cell["coarse"]
        if not vals or any(v is None for v in vals):
            out.append(f"sweep: empty cell at c={far_c}, depth={cell['depth']}")
        elif not all(math.isfinite(v) for v in vals):
            out.append(f"sweep: non-finite ratio at c={far_c}, depth={cell['depth']}")
    for key in ("fine", "coarse"):
        if all(v is None for cell in near for v in cell[key]):
            out.append(f"sweep: no {key} ratio at c={near_c}")
    if out:
        return out

    def top(group, key):
        return max(v for c in group for v in c[key] if v is not None)

    blowup = top(near, "fine") / top(far, "fine")
    if not blowup >= BLOWUP_MIN:
        out.append(f"sweep: fine blow-up near the wall {blowup:.2f}x < {BLOWUP_MIN}x")
    coarse = top(near, "coarse") / top(far, "coarse")
    if not COARSE_BAND[0] <= coarse <= COARSE_BAND[1]:
        out.append(f"sweep: coarse near/deep ratio {coarse:.3f} outside {COARSE_BAND}")
    depths = sorted({c["depth"] for c in far})
    shallow = top([c for c in far if c["depth"] == depths[0]], "fine")
    deep = top([c for c in far if c["depth"] == depths[-1]], "fine")
    spread = max(shallow, deep) / min(shallow, deep)
    if not spread < DEPTH_SPREAD_MAX:
        out.append(f"sweep: fine ratios shallow/deep spread {spread:.2f}x >= {DEPTH_SPREAD_MAX}x")
    return out


def agree(a: float, b: float, err: float, what: str) -> list[str]:
    if math.isfinite(a) and math.isfinite(b) and abs(a - b) <= Z_MAX * err:
        return []
    return [f"{what}: {a:.6g} vs {b:.6g} differ by more than {Z_MAX} x {err:.3g}"]


def bracket(low: float, value: float, high: float, err: float, what: str) -> list[str]:
    if low - Z_MAX * err <= value <= high + Z_MAX * err:
        return []
    return [f"{what}: {value:.6g} outside [{low:.6g}, {high:.6g}] by more than {Z_MAX} x {err:.3g}"]


def conclusive(ratio: float, inconclusive: bool) -> list[str]:
    out = []
    if not math.isfinite(ratio) or ratio < 0:
        out.append(f"well-roundedness: ratio {ratio} is not a finite nonnegative number")
    if inconclusive:
        out.append("well-roundedness: estimate is inconclusive")
    return out
