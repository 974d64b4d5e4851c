"""Independent correctness checks for the benchmark's outputs.

Nothing here calls the solvers of pdclab. Every reference is assembled from
plain numpy: Fock operators, the Lindblad generator applied to a matrix, the
Liouvillian's parity blocks built column by column from that generator, the
three-level and mean-field closed forms, and the Gaussian QFI in the
purity form of Pinel et al. (PRA 88, 040102, 2013). Each checker returns a
list of problems; an empty list means the output passed.

The dissipator convention is the package's documented one:
rho_dot = -i[H, rho] + sum_c r_c (2 c rho c^dag - c^dag c rho - rho c^dag c).
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# --- model assembly ----------------------------------------------------------------


def destroy(d: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, d)), 1).astype(complex)


def reduced_generator(p: dict, d: int):
    """Hamiltonian and channels of the adiabatically reduced signal mode."""
    b = destroy(d)
    b2 = b @ b
    eps = p["g"] * p["lambda_a"] / p["gamma_a"]
    h = eps * (b2 + b2.conj().T)
    two_photon = 2.0 * p["g"] ** 2 / p["gamma_a"] + p.get("kappa_e", 0.0)
    return h, [(p["gamma_b"], b), (two_photon, b2)]


def full_generator(p: dict, d_a: int, d_b: int):
    """Hamiltonian and channels of the two-mode model on C^d_a (x) C^d_b."""
    a = np.kron(destroy(d_a), np.eye(d_b))
    b = np.kron(np.eye(d_a), destroy(d_b))
    bd = b.conj().T
    ad = a.conj().T
    h = p["g"] * (a @ bd @ bd + ad @ b @ b) + 1j * p["lambda_a"] * (ad - a)
    return h, [(p["gamma_a"], a), (p["gamma_b"], b)]


def lindblad_apply(h, channels, rho: np.ndarray) -> np.ndarray:
    out = -1j * (h @ rho - rho @ h)
    for rate, c in channels:
        if rate == 0.0:
            continue
        cd = c.conj().T
        n = cd @ c
        out = out + rate * (2.0 * c @ rho @ cd - n @ rho - rho @ n)
    return out


def parity_blocks(h, channels, d: int) -> list[np.ndarray]:
    """Liouvillian of a single mode split by the parity of n - m.

    Every term of the reduced model moves |n><m| to |n'><m'| with n' - m'
    of the same parity, so the two blocks are exact. Columns are the
    generator applied to each basis element |n><m| of the block.
    """
    n, m = np.indices((d, d))
    blocks = []
    for parity in (0, 1):
        inside = (n - m) % 2 == parity
        rows, cols = n[inside], m[inside]
        block = np.empty((rows.size, rows.size), dtype=complex)
        unit = np.zeros((d, d), dtype=complex)
        for k, (i, j) in enumerate(zip(rows, cols)):
            unit[i, j] = 1.0
            image = lindblad_apply(h, channels, unit)
            unit[i, j] = 0.0
            if np.any(image[~inside] != 0.0):
                raise ValueError("generator leaves its parity block")
            block[:, k] = image[rows, cols]
        blocks.append(block)
    return blocks


def reference_gap(p: dict, d: int) -> float:
    """Smallest nonzero decay rate of the reduced model, from its parity blocks.

    Zero modes are the eigenvalues with |Re z| below 1e-10 times the infinity
    norm of the generator, the threshold the gap is defined with.
    """
    h, channels = reduced_generator(p, d)
    blocks = parity_blocks(h, channels, d)
    scale = max(np.abs(blk).sum(axis=1).max() for blk in blocks)
    eps = 1e-10 * scale
    rates = []
    for blk in blocks:
        ev = np.linalg.eigvals(blk)
        decaying = ev.real[ev.real < -eps]
        if decaying.size:
            rates.append(-decaying.max())
    return float(min(rates))


# --- density-matrix properties -------------------------------------------------------


def state_problems(rho: np.ndarray, label: str, tol: float = 1e-9) -> list[str]:
    """Trace one, Hermitian, positive."""
    problems = []
    tr = np.trace(rho)
    if abs(tr - 1.0) > tol:
        problems.append(f"{label}: trace {tr:.3e} is not 1")
    herm = np.abs(rho - rho.conj().T).max()
    if herm > tol:
        problems.append(f"{label}: Hermiticity defect {herm:.3e}")
    lo = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0]
    if lo < -tol:
        problems.append(f"{label}: negative eigenvalue {lo:.3e}")
    return problems


def residual_problems(h, channels, rho: np.ndarray, label: str) -> list[str]:
    """|L(rho)| against the size of the terms it is made of."""
    res = np.abs(lindblad_apply(h, channels, rho)).max()
    scale = np.abs(h).max() + sum(r * np.abs(c).max() ** 2 for r, c in channels)
    if res > 1e-10 * scale:
        return [f"{label}: stationarity residual {res:.3e} above {1e-10 * scale:.3e}"]
    return []


def rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


# --- steady_sweep ------------------------------------------------------------------


def check_reduced_steady(p: dict, d: int, rho: np.ndarray, nb: float, nb_series: float):
    label = f"reduced d={d}"
    h, channels = reduced_generator(p, d)
    problems = state_problems(rho, label)
    problems += residual_problems(h, channels, rho, label)
    own_nb = float(np.real(np.arange(d) @ np.diag(rho)))
    if not rel_close(own_nb, nb, 1e-9):
        problems.append(f"{label}: reported N_b {nb!r} differs from tr(n rho) {own_nb!r}")
    if not rel_close(nb, nb_series, 1e-6):
        problems.append(f"{label}: N_b {nb!r} differs from the moment series {nb_series!r}")
    return problems


def check_full_steady(p: dict, d_a: int, d_b: int, rho: np.ndarray):
    """Stationarity of <a>: -i g <b^2> - gamma_a <a> + lambda_a = 0.

    The truncated pump breaks [a, a^dag] = 1 only on its top level, so the
    identity holds up to lambda_a d_a times that level's population.
    """
    label = f"full {d_a}x{d_b}"
    h, channels = full_generator(p, d_a, d_b)
    problems = state_problems(rho, label)
    problems += residual_problems(h, channels, rho, label)
    a, b = channels[0][1], channels[1][1]
    mean_a = np.trace(a @ rho)
    mean_b2 = np.trace(b @ b @ rho)
    drift = abs(-1j * p["g"] * mean_b2 - p["gamma_a"] * mean_a + p["lambda_a"])
    top = float(np.real(np.diag(rho)[(d_a - 1) * d_b :].sum()))
    bound = p["lambda_a"] * d_a * top + 1e-12 * p["lambda_a"]
    if drift > bound:
        problems.append(f"{label}: d<a>/dt = {drift:.3e} exceeds {bound:.3e}")
    return problems


def check_degenerate(outcome) -> list[str]:
    kernel_dim = getattr(outcome, "kernel_dim", None)
    if type(outcome).__name__ != "SteadyStateDegenerateError":
        return [f"degenerate case returned {type(outcome).__name__}, not SteadyStateDegenerateError"]
    if kernel_dim is None or kernel_dim <= 1:
        return [f"degenerate case reported kernel_dim={kernel_dim}"]
    return []


# --- spectra_dynamics --------------------------------------------------------------


def check_gap(gap: float, reference: float, tol: float, label: str) -> list[str]:
    if not rel_close(gap, reference, tol):
        return [f"{label}: gap {gap!r} vs reference {reference!r} (tolerance {tol})"]
    return []


def check_gap_pinned(gap: float, gamma_b: float) -> list[str]:
    """Criterion 6, signal loss on: the gap stays within a factor 2 of gamma_b."""
    if not 0.5 * gamma_b <= gap <= 2.0 * gamma_b:
        return [f"gap {gap:.4g} not pinned near gamma_b={gamma_b:.4g}"]
    return []


def check_gap_collapse(gap_hi: float, gap_lo: float) -> list[str]:
    """Criterion 6, gamma_b = 0: the gap falls >= 10x as g drops 100x."""
    if not gap_hi >= 10.0 * gap_lo:
        return [f"gamma_b=0 gap ratio {gap_hi / gap_lo:.3g} below 10"]
    return []


def photon_uncertainty(rhos: tuple[np.ndarray, np.ndarray, np.ndarray], step: float) -> float:
    """Photon-counting delta^2 g = Var(n) / (d<n>/dg)^2 from states at g-h, g, g+h."""
    n = np.arange(rhos[0].shape[0])
    pops = [np.real(np.diag(r)) for r in rhos]
    mean = n @ pops[1]
    var = (n * n) @ pops[1] - mean * mean
    slope = (n @ pops[2] - n @ pops[0]) / (2.0 * step)
    return var / slope**2


def _quadrature_moments(rho: np.ndarray):
    """Mean (x, p) and covariance in shot-noise units (vacuum covariance = I)."""
    b = destroy(rho.shape[0])
    x = b + b.conj().T
    y = -1j * (b - b.conj().T)
    ops = (x, y)
    mean = np.array([np.trace(o @ rho).real for o in ops])
    cov = np.empty((2, 2))
    for i, oi in enumerate(ops):
        for j, oj in enumerate(ops):
            sym = 0.5 * np.trace((oi @ oj + oj @ oi) @ rho).real
            cov[i, j] = sym - mean[i] * mean[j]
    return mean, cov


def gaussian_qfi(rhos: tuple[np.ndarray, np.ndarray, np.ndarray], step: float) -> float:
    """Single-mode Gaussian QFI, purity form:
    F = Tr[(s^-1 s')^2] / (2(1 + mu^2)) + 2 mu'^2 / (1 - mu^4) + X'^T s^-1 X',
    mu = 1/sqrt(det s); the middle term vanishes for a state that stays pure."""
    moments = [_quadrature_moments(r) for r in rhos]
    mean, cov = moments[1]
    d_mean = (moments[2][0] - moments[0][0]) / (2.0 * step)
    d_cov = (moments[2][1] - moments[0][1]) / (2.0 * step)
    mus = [1.0 / math.sqrt(np.linalg.det(c)) for _, c in moments]
    mu, d_mu = mus[1], (mus[2] - mus[0]) / (2.0 * step)
    inv = np.linalg.inv(cov)
    first = np.trace(inv @ d_cov @ inv @ d_cov) / (2.0 * (1.0 + mu * mu))
    middle = 0.0 if abs(1.0 - mu**4) < 1e-10 else 2.0 * d_mu**2 / (1.0 - mu**4)
    return float(first + middle + d_mean @ inv @ d_mean)


def check_criterion4(rhos, step: float, reported: tuple[float, float]) -> list[str]:
    """delta^2 g (photon counting) x Gaussian QFI = 1 within 1%, and the
    program's two factors equal the ones computed here."""
    problems = []
    for k, rho in enumerate(rhos):
        problems += state_problems(rho, f"evolved state {k}", tol=1e-7)
    d2 = photon_uncertainty(rhos, step)
    qfi = gaussian_qfi(rhos, step)
    if abs(d2 * qfi - 1.0) > 0.01:
        problems.append(f"delta2_g x QFI = {d2 * qfi:.6f}, not 1 within 1%")
    if not rel_close(reported[0], d2, 1e-6):
        problems.append(f"reported delta2_g {reported[0]!r} vs {d2!r}")
    if not rel_close(reported[1], qfi, 1e-6):
        problems.append(f"reported QFI {reported[1]!r} vs {qfi!r}")
    return problems


# --- cli_scenarios -----------------------------------------------------------------


def parse_cfg(text: str) -> dict:
    """Flat 'key = value' config, '#' comments; values kept as strings."""
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = (s.strip() for s in line.split("=", 1))
            out[key] = value
    return out


def cfg_params(cfg: dict) -> dict:
    p = {"kappa_e": 0.0}
    for key, value in cfg.items():
        if key.startswith("params."):
            p[key[len("params.") :]] = float(value)
    return p


def read_table(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def check_cli_item(cfg: dict, code: int, files: dict[str, bytes], first: dict[str, bytes]):
    """Exit status, verdicts, byte-determinism and the closed forms of one run.

    `files` maps output file names to contents; `first` holds the contents
    from the first run of the same config (or `files` itself).
    """
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    name = cfg["name"]
    expected = {f"{name}_{t.strip()}.{ext}" for t in cfg["tasks"].split(",") for ext in ("csv", "json")}
    if set(files) != expected:
        problems.append(f"output files {sorted(files)} != {sorted(expected)}")
        return problems
    if files != first:
        changed = sorted(k for k in files if files[k] != first.get(k))
        problems.append(f"outputs differ from the first run of {name}: {changed}")
    for fname, data in files.items():
        if fname.endswith(".json"):
            failed = [c["quantity"] for c in json.loads(data)["comparisons"] if not c["pass"]]
            if failed:
                problems.append(f"{fname}: failed comparisons {failed}")

    p = cfg_params(cfg)
    for task in (t.strip() for t in cfg["tasks"].split(",")):
        rows = read_table(files[f"{name}_{task}.csv"])
        problems += [f"{name}_{task}: {msg}" for msg in _task_identities(task, p, rows)]
    return problems


def _task_identities(task: str, p: dict, rows: list[dict]) -> list[str]:
    problems = []
    if task == "meanfield":
        for row in rows:
            lam = float(row["lambda_a"])
            lam_c = p["gamma_a"] * p["gamma_b"] / (2.0 * p["g"])
            above = lam > lam_c
            if not rel_close(float(row["lambda_c"]), lam_c, 1e-15):
                problems.append(f"lambda_c {row['lambda_c']} != {lam_c!r}")
            if int(row["branches"]) != (2 if above else 0):
                problems.append(f"{row['branches']} branches at lambda_a={lam}")
            if row["normal_stable"] != ("false" if above else "true"):
                problems.append(f"normal_stable={row['normal_stable']} at lambda_a={lam}")
    elif task == "occupation":
        for row in rows:
            g, lam = float(row["g"]), p["lambda_a"]
            a = 2 * g * g + p["gamma_a"] * (p["kappa_e"] + p["gamma_b"])
            nb3 = 2 * g * g * lam * lam / (a * a + 2 * g * g * lam * lam)
            if not rel_close(float(row["Nb_three_level"]), nb3, 1e-12):
                problems.append(f"Nb_three_level {row['Nb_three_level']} != {nb3!r} at g={g}")
    elif task == "sensor":
        for row in rows:
            g, lam = float(row["g"]), p["lambda_a"]
            two_photon = 2 * g * g / p["gamma_a"] + p["kappa_e"]
            n_b = 2 * g * lam / (p["gamma_a"] * two_photon)
            if not rel_close(float(row["delta2_lambda"]) * n_b, lam * lam, 1e-12):
                problems.append(f"delta2_lambda * N_b != lambda_a^2 at g={g}")
    return problems
