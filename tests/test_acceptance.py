"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS/FAIL line
with the measured numbers (outside the capture plugin, so the lines always
reach the console).  The Monte Carlo criteria use frozen master seeds, so
every run reproduces the same numbers.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from ddprach import (
    ChannelRealization,
    ChannelTap,
    FrameBuffers,
    WaveformParams,
    add_awgn,
    apply_channel,
    build_trajectory,
    circular_correlation,
    generate_zc,
    heisenberg_modulate,
    isfft,
    los_point_count,
    parse_config,
    pitch_angle,
    propulsion_power,
    range_from_toa,
    receive_and_estimate_toa,
    run_simulate,
    sfft,
    transmit,
    wigner_demodulate,
)
from ddprach.cli import main
from ddprach.uav_scenario import (
    INDUCED_POWER_CORRECTION,
    PROFILE_DRAG_COEFFICIENT,
    AirframeConfig,
)


@pytest.fixture
def report(capsys):
    """One PASS/FAIL console line per criterion, then the actual assert."""

    def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
        line = f"criterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


# ---------------------------------------------------------------------------
# 1. sequence autocorrelation
# ---------------------------------------------------------------------------

def test_c01_cazac_autocorrelation(report):
    start = time.perf_counter()
    worst_sidelobe = 0.0
    worst_peak_err = 0.0
    for root in (1, 2, 25):
        zc = generate_zc(root, 139)
        profile = circular_correlation(zc, zc)
        peak = profile[0]
        worst_peak_err = max(worst_peak_err, abs(peak - 139.0**2) / 139.0**2)
        worst_sidelobe = max(worst_sidelobe, profile[1:].max() / peak)
    elapsed = time.perf_counter() - start
    ok = worst_sidelobe <= 1e-9 and worst_peak_err <= 1e-6 and elapsed < 1.0
    report(1, "cazac autocorrelation", ok,
            f"sidelobe/peak={worst_sidelobe:.2e} peak_err={worst_peak_err:.2e} "
            f"t={elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. transform and modem round trips
# ---------------------------------------------------------------------------

def test_c02_transform_round_trips(report):
    start = time.perf_counter()
    worst_parseval = 0.0
    worst_transform = 0.0
    worst_modem = 0.0
    for m, n in ((16, 8), (64, 16), (1024, 4)):
        rng = np.random.default_rng(m + n)
        data = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        tf = isfft(data)
        worst_parseval = max(
            worst_parseval,
            abs(np.linalg.norm(tf) - np.linalg.norm(data))
            / np.linalg.norm(data),
        )
        back = sfft(tf)
        worst_transform = max(
            worst_transform,
            np.max(np.abs(back - data)) / np.max(np.abs(data)),
        )

        framing = WaveformParams(n_dft=2 * m, m=m, n=n, n_zc=13)  # cp_len = n_dft // 8
        samples = heisenberg_modulate(tf, framing.n_dft, framing.cp_len)
        ideal = ChannelRealization(
            0, 0.0, [ChannelTap(gain=1.0, delay_s=0.0, doppler_hz=0.0)], True
        )
        for received in (samples, apply_channel(framing, ideal, samples)):
            rx_dd = sfft(wigner_demodulate(received, framing.n_dft, framing.cp_len, m, n))
            worst_modem = max(
                worst_modem,
                np.max(np.abs(rx_dd - data)) / np.max(np.abs(data)),
            )
    elapsed = time.perf_counter() - start
    ok = (
        worst_parseval <= 1e-10
        and worst_transform <= 1e-10
        and worst_modem <= 1e-9
        and elapsed < 10.0
    )
    report(2, "transform/modem round trip", ok,
            f"parseval={worst_parseval:.2e} transform={worst_transform:.2e} "
            f"modem={worst_modem:.2e} t={elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. noiseless integer-delay exactness
# ---------------------------------------------------------------------------

def test_c03_noiseless_exact_delays(report):
    start = time.perf_counter()
    exact = 0
    cases = 0
    for scheme in ("otfs", "ofdm"):
        for root in (1, 2):
            params = WaveformParams(
                delta_f_hz=15e3, n_dft=32, m=16, n=4, n_zc=13, root=root,
                cp_len=32, modulation=scheme,
            )
            tx = transmit(params)
            fs = params.sample_rate
            for delay in range(0, 32, 2):  # every bin-aligned delay under the CP
                cases += 1
                tap = ChannelTap(gain=1.0, delay_s=delay / fs, doppler_hz=0.0)
                rx = apply_channel(params, ChannelRealization(0, 0.0, [tap], True), tx)
                est = receive_and_estimate_toa(rx, params)
                exact += est.detected and est.sample_delay == delay
    elapsed = time.perf_counter() - start
    ok = cases == 64 and exact == cases and elapsed < 10.0
    report(3, "noiseless exactness", ok,
            f"{exact}/{cases} exact t={elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. distance quantization law
# ---------------------------------------------------------------------------

def test_c04_resolution_law(report):
    quantum = range_from_toa(1, 15e3, 2048)
    cfg = parse_config({
        "scenario": {
            "trajectory": {"height_m": 400.0, "dp_m": 60.0, "count": 5,
                           "speed_mps": 10.0},
        },
        "channel": {"nlos": None},
        "noise": {"snr_db": None},
        "seed": 5,
    })
    records = run_simulate(cfg)
    worst_frac = 0.0
    for rec in records:
        assert rec.detected
        ratio = rec.est_d_m / quantum
        worst_frac = max(worst_frac, abs(ratio - round(ratio)))
    ok = abs(quantum - 9.7587) <= 0.001 and worst_frac < 1e-9
    report(4, "resolution law", ok,
            f"quantum={quantum:.6f}m offgrid={worst_frac:.1e}")


# ---------------------------------------------------------------------------
# 5. Doppler-robustness ordering
# ---------------------------------------------------------------------------

def _doppler_stats(master_seed: int, eps: float, trials: int) -> dict:
    """Paired two-scheme runs over a 3-tap channel at SNR 5 dB."""
    params = {s: WaveformParams(modulation=s) for s in ("otfs", "ofdm")}
    # both schemes share one channel pass and one noise draw per trial
    stack = np.stack([transmit(params[s]) for s in params])
    # one set of buffers plans the stacked rows once for all trials
    buffers = FrameBuffers(stack)
    fs = params["otfs"].sample_rate
    doppler = eps * params["otfs"].delta_f_hz
    errors = {s: [] for s in params}
    detected = {s: 0 for s in params}
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([master_seed, 1, trial]))
        d0 = rng.uniform(20.0, 120.0)           # LoS delay [samples]
        excess = rng.uniform(2.0, 12.0, size=2)  # echo delays [samples]
        phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
        gains = [1.0, 10 ** (-3 / 20), 10 ** (-6 / 20)]
        taps = [
            ChannelTap(g * np.exp(1j * p), (d0 + e) / fs, doppler)
            for g, p, e in zip(gains, phases, [0.0, *excess])
        ]
        true_d = range_from_toa(d0, 15e3, 2048)
        realization = ChannelRealization(0, true_d, taps, True)
        noise_seed = np.random.SeedSequence([master_seed, 2, trial])
        rx = apply_channel(params["otfs"], realization, stack, buffers=buffers)
        rx = add_awgn(rx, 5.0, noise_seed, buffers=buffers)
        for scheme, samples in zip(params, rx):
            est = receive_and_estimate_toa(samples, params[scheme], target_pfa=1e-3)
            if not est.detected:
                continue
            detected[scheme] += 1
            est_d = range_from_toa(est.sample_delay, 15e3, 2048)
            errors[scheme].append(true_d - est_d)
    return {
        scheme: {
            "mean_abs": float(np.mean(np.abs(errors[scheme]))),
            "rmse": float(np.sqrt(np.mean(np.square(errors[scheme])))),
            "det": detected[scheme] / trials,
        }
        for scheme in params
    }


def test_c05_doppler_robustness_ordering(report):
    start = time.perf_counter()
    trials, seeds = 500, (101, 202, 303)
    stats = {
        eps: [_doppler_stats(seed, eps, trials) for seed in seeds]
        for eps in (0.01, 0.25)
    }

    def seed_mean(eps, scheme, key):
        return float(np.mean([s[scheme][key] for s in stats[eps]]))

    det_ok = all(
        seed_mean(eps, scheme, "det") >= 0.9
        for eps in stats for scheme in ("otfs", "ofdm")
    )
    low_otfs = seed_mean(0.01, "otfs", "mean_abs")
    low_ofdm = seed_mean(0.01, "ofdm", "mean_abs")
    high_ratio = seed_mean(0.25, "otfs", "rmse") / seed_mean(0.25, "ofdm", "rmse")
    elapsed = time.perf_counter() - start
    ok = det_ok and low_otfs <= low_ofdm and high_ratio <= 0.8 and elapsed < 300.0
    report(5, "doppler robustness", ok,
            f"quasi-static mean|e| {low_otfs:.2f} vs {low_ofdm:.2f}m, "
            f"high-mobility rmse ratio {high_ratio:.3f}, t={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. subcarrier-spacing trend
# ---------------------------------------------------------------------------

def test_c06_spacing_trend(report):
    start = time.perf_counter()
    base = parse_config({
        "scenario": {
            "trajectory": {"height_m": 30.0, "dp_m": 0.5, "count": 20,
                           "speed_mps": 10.0},
            "tilt_deg": 80.0,
        },
        "noise": {"snr_db": 15.0},
        "trials": 3,
        "seed": 3,
    })
    means = {s: [] for s in ("otfs", "ofdm")}
    # the mean leaves out missed records: each spacing's detected/attempted
    # count shows how many
    counts = {s: [] for s in means}
    for delta_f in (15e3, 30e3, 60e3):
        cfg = replace(base, waveform=replace(base.waveform, delta_f_hz=delta_f))
        records = run_simulate(cfg)
        for scheme in means:
            attempted = [r for r in records if r.scheme == scheme]
            hits = [r for r in attempted if r.detected]
            means[scheme].append(float(np.mean([abs(r.error_m) for r in hits])))
            counts[scheme].append(f"{len(hits)}/{len(attempted)}")
    elapsed = time.perf_counter() - start
    ok = elapsed < 300.0
    for scheme, (m15, m30, m60) in means.items():
        ok = ok and m30 <= m15 + 1e-9 and m60 <= m30 + 1e-9 and m60 < m15
    detail = " ".join(
        f"{s}: " + "/".join(f"{m:.2f}" for m in means[s]) + f" ({' '.join(counts[s])})"
        for s in means
    )
    report(6, "spacing trend", ok,
           f"mean|e| over detected (detected/attempted) 15/30/60kHz [m] {detail}")


# ---------------------------------------------------------------------------
# 7. LoS bound scaling
# ---------------------------------------------------------------------------

def test_c07_los_bound_slope(report):
    start = time.perf_counter()
    params = WaveformParams(delta_f_hz=15e3, n_dft=122, m=61, n=4, n_zc=61,
                            modulation="otfs")
    tx = transmit(params)
    fs = params.sample_rate
    true_delay = 11.0  # waveform samples, half a delay bin: unbiased flanks
    true_d = range_from_toa(true_delay, params.delta_f_hz, params.n_dft)
    sigma2 = 1e-5
    h2_values = (1.0, 0.1, 0.01, 1e-3)
    rmses = []
    for h2 in h2_values:
        tap = ChannelTap(math.sqrt(h2), true_delay / fs, 0.0)
        rx0 = apply_channel(params, ChannelRealization(0, true_d, [tap], True), tx)
        errors = []
        for trial in range(200):
            rx = add_awgn(rx0, noise_power_watts=sigma2,
                          seed=np.random.SeedSequence([11, trial]))
            est = receive_and_estimate_toa(rx, params, target_pfa=1e-3,
                                           interpolate_peak=True)
            assert est.detected
            est_d = range_from_toa(est.refined_sample_delay,
                                   params.delta_f_hz, params.n_dft)
            errors.append(true_d - est_d)
        rmses.append(float(np.sqrt(np.mean(np.square(errors)))))
    slope = float(np.polyfit(np.log10(np.sqrt(h2_values)), np.log10(rmses), 1)[0])
    elapsed = time.perf_counter() - start
    ok = abs(slope + 1.0) <= 0.15 and elapsed < 300.0
    report(7, "bound scaling", ok, f"slope={slope:.3f} t={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. geometric LoS window
# ---------------------------------------------------------------------------

def test_c08_geometry_oracle(report):
    rng = np.random.default_rng(88)
    worst = 0
    for _ in range(20):
        beam_edge = rng.uniform(25.0, 75.0)    # 180 - fnb - tilt [deg]
        tilt = rng.uniform(0.0, 30.0)
        fnb = 180.0 - beam_edge - tilt
        height = rng.uniform(10.0, 60.0)
        dp = rng.uniform(0.3, 1.5)
        points = build_trajectory(height, dp, 1, 10.0)  # overhead only; walk manually
        assert points[0].elevation_deg == 90.0
        # brute force: last index (walking outward) still inside the first null
        brute = 0
        i = 1
        while True:
            elevation = math.degrees(math.atan2(height, i * dp))
            if 180.0 - elevation - tilt > fnb:
                break
            brute = i
            i += 1
        closed_form = los_point_count(height, dp, fnb, tilt, p0=0)
        worst = max(worst, abs(closed_form - brute))
    ok = worst <= 1
    report(8, "geometry oracle", ok, f"max |closed-form - brute| = {worst}")


# ---------------------------------------------------------------------------
# 9. airframe physics spot checks
# ---------------------------------------------------------------------------

def test_c09_airframe_spot_checks(report):
    cfg = AirframeConfig()
    # Zeng's hover constants for the airframe's weight, in the code's order
    weight = cfg.mass_kg * cfg.gravity_mps2
    rho_a = cfg.air_density_kgpm3 * cfg.rotor_disc_area_m2
    p0 = PROFILE_DRAG_COEFFICIENT / 8.0 * rho_a * cfg.rotor_solidity * cfg.tip_speed_mps**3
    pi = (1.0 + INDUCED_POWER_CORRECTION) * weight * math.sqrt(weight / (2.0 * rho_a))
    hover_exact = propulsion_power(0.0, cfg) == p0 + pi
    no_tilt_at_rest = pitch_angle(0.0, cfg) == (90.0, 0.0)
    tilts = [pitch_angle(v, cfg)[1] for v in np.linspace(0.5, 30.0, 60)]
    monotone = all(b > a for a, b in zip(tilts, tilts[1:]))
    speeds = np.linspace(0.0, 30.0, 301)
    powers = [propulsion_power(v, cfg) for v in speeds]
    best = int(np.argmin(powers))
    interior_min = 0 < best < len(speeds) - 1 and powers[best] < powers[0]
    ok = hover_exact and no_tilt_at_rest and monotone and interior_min
    report(9, "airframe physics", ok,
            f"hover={powers[0]:.1f}W min={powers[best]:.1f}W "
            f"at {speeds[best]:.1f}m/s")


# ---------------------------------------------------------------------------
# 10. run determinism
# ---------------------------------------------------------------------------

def test_c10_determinism(report, tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(
        "scenario:\n"
        "  trajectory: {height_m: 30.0, dp_m: 0.5, count: 4, speed_mps: 10.0}\n"
        "noise: {snr_db: 10.0}\n"
        "trials: 2\n"
        "seed: 9\n"
    )

    def run(name, threads):
        out = tmp_path / name
        rc = main([
            "simulate", "--config", str(cfg_path), "--out", str(out),
            "--threads", str(threads),
        ])
        assert rc == 0
        return (out / "results.csv").read_bytes()

    first = run("a", 1)
    second = run("b", 1)
    threaded = run("c", 8)
    ok = first == second and first == threaded
    report(10, "determinism", ok,
            f"{len(first)} bytes, repeat and 8-thread runs identical")
