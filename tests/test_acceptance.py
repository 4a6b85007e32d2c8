"""Acceptance checklist: one test per numbered criterion, each printing a
PASS/FAIL line with the measured quantities.  Run with -s (or read the
captured output) to see the lines."""

import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_model, random_observation, random_sparse_problem
from nlcs.cli import main
from nlcs.experiments import SolveParams, run_audio, run_synth
from nlcs.linops import spectral_norm
from nlcs.measurements import (
    GeneralLinear,
    GeneralQuantizer,
    OneBit,
    apply_measurement,
    cost,
    feasibility_intervals,
    gradient,
    project,
    project_linear,
)
from nlcs.pipeline import FrameSpec, SyntheticSpec, speech_like_signal, wav_write
from nlcs.solvers import (
    L1,
    HomotopyConfig,
    SolverConfig,
    sparse_code_adaptive,
    sparse_code_fixed,
)
from test_measurements import (
    clip_cost_closed_form,
    onebit_cost_closed_form,
    quantizer_cost_closed_form,
)

CRITERION_FAMILIES = ("clip", "quant", "onebit", "mask", "identity", "linear")


def _report(tag: str, ok: bool, detail: str) -> bool:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def _signal_dim(obs):
    if isinstance(obs.model, GeneralLinear):
        return obs.model.matrix.shape[1]
    return obs.values.shape[0]


def _sample_away_from_bounds(obs, rng, margin=1e-4):
    n = _signal_dim(obs)
    if isinstance(obs.model, GeneralLinear):
        return 2.0 * rng.standard_normal(n)
    iv = feasibility_intervals(obs)
    while True:
        x = 2.0 * rng.standard_normal(n)
        near = (np.isfinite(iv.lower) & (np.abs(x - iv.lower) < margin)) | \
               (np.isfinite(iv.upper) & (np.abs(x - iv.upper) < margin))
        if not near.any():
            return x


def test_acceptance_01_gradient_matches_finite_differences():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    h = 1e-5
    for family in CRITERION_FAMILIES:
        for _ in range(200):
            obs, _ = random_observation(family, rng, n=8)
            x = _sample_away_from_bounds(obs, rng)
            g = gradient(obs, x)
            fd = np.empty_like(x)
            for i in range(x.shape[0]):
                e = np.zeros_like(x)
                e[i] = h
                fd[i] = (cost(obs, x + e) - cost(obs, x - e)) / (2 * h)
            rel = np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 10.0
    assert _report("  1", ok, f"gradient vs central differences: worst rel err "
                              f"{worst:.3e} (< 1e-5), {elapsed:.1f}s (< 10s)")


def test_acceptance_02_projection_properties():
    rng = np.random.default_rng(102)
    inexact_clamps = 0
    worst_affine, worst_nonexp, worst_lip = 0.0, 0.0, 0.0
    for family in CRITERION_FAMILIES:
        obs, _ = random_observation(family, rng, n=10)
        n = _signal_dim(obs)
        separable = not isinstance(obs.model, GeneralLinear)
        if separable:
            iv = feasibility_intervals(obs)
            proj = lambda v: project(iv, v)  # noqa: E731
        else:
            proj = lambda v: project_linear(obs.model, obs.values, v)  # noqa: E731
        for _ in range(1000):
            x1 = 2.0 * rng.standard_normal(n)
            x2 = 2.0 * rng.standard_normal(n)
            p1 = proj(x1)
            p2 = proj(x2)
            if separable:
                if not np.array_equal(proj(p1), p1):
                    inexact_clamps += 1
            else:
                worst_affine = max(worst_affine, np.abs(proj(p1) - p1).max())
            gap = np.linalg.norm(x1 - x2)
            worst_nonexp = max(worst_nonexp, np.linalg.norm(p1 - p2) - gap)
            gdiff = np.linalg.norm(gradient(obs, x1) - gradient(obs, x2))
            worst_lip = max(worst_lip, gdiff - gap)
    ok = (inexact_clamps == 0 and worst_affine <= 1e-12
          and worst_nonexp <= 1e-12 and worst_lip <= 1e-12)
    assert _report("  2", ok,
                   f"idempotence: {inexact_clamps} inexact clamps, affine "
                   f"re-projection dev {worst_affine:.2e}; non-expansiveness "
                   f"slack {worst_nonexp:.2e}, gradient Lipschitz slack "
                   f"{worst_lip:.2e} (<= 1e-12)")


def test_acceptance_03_closed_form_equivalence():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        obs, _ = random_observation("clip", rng, n=10)
        x = 2.0 * rng.standard_normal(10)
        want = clip_cost_closed_form(obs.values, obs.reliable, obs.clip_pos,
                                     obs.clip_neg, x)
        worst = max(worst, abs(cost(obs, x) - want))
    for family in ("quant", "gquant"):
        for _ in range(100):
            obs, _ = random_observation(family, rng, n=10)
            iv = feasibility_intervals(obs)
            x = 2.0 * rng.standard_normal(10)
            want = quantizer_cost_closed_form(iv.lower, iv.upper, np.isfinite(iv.lower),
                                              np.isfinite(iv.upper), x)
            worst = max(worst, abs(cost(obs, x) - want))
    for _ in range(100):
        obs, _ = random_observation("onebit", rng, n=10)
        x = 2.0 * rng.standard_normal(10)
        worst = max(worst, abs(cost(obs, x) - onebit_cost_closed_form(obs.values, x)))

    worst_chain = 0.0
    half_lines = GeneralQuantizer(np.array([-np.inf, 0.0, np.inf]),
                                  np.array([-1.0, 1.0]))
    for _ in range(100):
        x_true = rng.standard_normal(10)
        obs_bit = apply_measurement(OneBit(), x_true)
        obs_q = apply_measurement(half_lines, x_true)
        x = 2.0 * rng.standard_normal(10)
        pos = obs_bit.values > 0
        c_bit = cost(obs_bit, x)
        c_clip = clip_cost_closed_form(np.zeros(10), np.zeros(10, dtype=bool),
                                       pos, ~pos, x)
        worst_chain = max(worst_chain, abs(c_bit - c_clip),
                          abs(c_bit - cost(obs_q, x)))
    ok = worst <= 1e-12 and worst_chain <= 1e-12
    assert _report("  3", ok, f"closed forms dev {worst:.2e}, one-bit/clip/"
                              f"quantizer chain dev {worst_chain:.2e} (<= 1e-12)")


def test_acceptance_04_solver_monotonicity():
    rng = np.random.default_rng(104)
    worst = -np.inf
    for family in CRITERION_FAMILIES:
        for _ in range(50):
            d, _, x, obs = random_sparse_problem(family, rng, n=16, m=32, k=3)
            mu = 1.0 / spectral_norm(d) ** 2
            cfg = SolverConfig(L1(1e-2), step=mu, max_iters=150)
            _, trace = sparse_code_fixed(d, obs, np.zeros(32), cfg)
            worst = max(worst, float(np.max(np.diff(trace.objectives))))
    ok = worst <= 1e-12
    assert _report("  4", ok, f"fixed-lam objective: worst per-iteration "
                              f"increase {worst:.2e} (<= 1e-12)")


@pytest.mark.slow
def test_acceptance_05_homotopy_properties():
    rng = np.random.default_rng(105)
    min_stages = np.inf
    worst_psi, worst_lvl, worst_final = 0.0, 0.0, 0.0
    for _ in range(50):
        d, _, x, obs = random_sparse_problem("clip", rng, n=32, m=64, k=4)
        hcfg = HomotopyConfig(SolverConfig(L1(1.0), max_iters=1500, rel_tol=1e-12),
                              epsilon=1e-3, decay=0.5, max_stages=40)
        _, tr = sparse_code_adaptive(d, obs, np.zeros(64), hcfg)
        min_stages = min(min_stages, len(tr.stages))
        psi = np.array([s.penalty for s in tr.stages])
        lvl = np.array([s.consistency for s in tr.stages])
        worst_psi = max(worst_psi, float(np.max(-np.diff(psi), initial=0.0)))
        worst_lvl = max(worst_lvl, float(np.max(np.diff(lvl), initial=0.0)))
        worst_final = max(worst_final, tr.consistency)
    ok = (min_stages >= 6 and worst_psi <= 1e-9 and worst_lvl <= 1e-9
          and worst_final <= 1e-3)
    assert _report("  5", ok,
                   f"homotopy: >= {int(min_stages)} stages, penalty decrease "
                   f"{worst_psi:.2e} and data-term increase {worst_lvl:.2e} "
                   f"(<= 1e-9), final consistency {worst_final:.2e} (<= 1e-3)")


def test_acceptance_06_noise_bound():
    rng = np.random.default_rng(106)
    violations = 0
    trials = 0
    magnitudes = (0.01, 0.1, 0.5)
    for family in ("clip", "quant", "gquant", "onebit", "mask", "identity",
                   "linear"):
        for i in range(100):
            d, alpha, x, _ = random_sparse_problem(family, rng, n=16, m=32, k=3)
            noise = rng.standard_normal(16)
            noise *= magnitudes[i % 3] / np.linalg.norm(noise)
            model = random_model(family, rng, 16)
            obs = apply_measurement(model, x + noise)
            trials += 1
            if cost(obs, x) > 0.5 * float(noise @ noise) + 1e-15:
                violations += 1
    ok = violations == 0
    assert _report("  6", ok, f"noisy-truth bound held in {trials - violations}"
                              f"/{trials} trials")


@pytest.fixture(scope="module")
def synth_results():
    spec = SyntheticSpec(seed=11, count=200)
    params = SolveParams(lam=1e-2, epsilon=1e-3, decay=0.5, iters=400)
    t0 = time.perf_counter()
    _, clip_res = run_synth(spec, "clip", [0.2, 0.4],
                            ["adaptive", "fixed", "baseline"], params, seed=11)
    _, quant_res = run_synth(spec, "quant", [2, 3],
                             ["adaptive", "fixed", "baseline"], params, seed=11)
    elapsed = time.perf_counter() - t0
    return clip_res, quant_res, elapsed


def test_acceptance_07a_synthetic_declipping(synth_results):
    clip_res, _, elapsed = synth_results
    ok = elapsed < 120.0
    details = [f"{elapsed:.0f}s (< 120s)"]
    for theta in (0.2, 0.4):
        med = {m: float(np.median(clip_res[(theta, m)]))
               for m in ("adaptive", "fixed", "baseline")}
        ok = ok and med["adaptive"] >= med["fixed"] \
                and med["adaptive"] >= med["baseline"] + 2.0
        details.append(f"theta={theta}: adaptive {med['adaptive']:.2f} >= "
                       f"fixed {med['fixed']:.2f}, >= baseline "
                       f"{med['baseline']:.2f} + 2dB")
    assert _report(" 7a", ok, "; ".join(details))


def test_acceptance_07b_synthetic_dequantization(synth_results):
    _, quant_res, _ = synth_results
    ok = True
    details = []
    for bits in (2, 3):
        med = {m: float(np.median(quant_res[(bits, m)]))
               for m in ("adaptive", "fixed", "baseline")}
        ok = ok and med["adaptive"] >= med["baseline"] \
                and med["fixed"] >= med["baseline"]
        details.append(f"bits={bits}: adaptive {med['adaptive']:.2f} / fixed "
                       f"{med['fixed']:.2f} vs baseline {med['baseline']:.2f}")
    assert _report(" 7b", ok, "consistent >= noisy baseline; " + "; ".join(details))


@pytest.fixture(scope="module")
def bundled_signal():
    return speech_like_signal(seed=0, seconds=2.0)


@pytest.mark.slow
def test_acceptance_08_audio_dictionary_learning(bundled_signal):
    x = bundled_signal
    fs = FrameSpec(256, 0.75)
    params = SolveParams(iters=50, k=32, outer_iters=50, inner_iters=20)
    t0 = time.perf_counter()
    learned = run_audio("declip", x, fs, params, ["iht"], level=0.2,
                        learn_dict=True, reference=x)[0].snr_db
    coded = run_audio("declip", x, fs, params, ["iht"], level=0.2,
                      reference=x)[0].snr_db
    classical = run_audio("declip", x, fs, params, ["baseline"], level=0.2,
                          reference=x)[0].snr_db
    cons_full = run_audio("declip", x, fs, params, ["iht"], level=1.0,
                          reference=x)[0].snr_db
    base_full = run_audio("declip", x, fs, params, ["baseline"], level=1.0,
                          reference=x)[0].snr_db
    elapsed = time.perf_counter() - t0
    gap = abs(cons_full - base_full)
    ok = (learned >= coded >= classical and gap <= 0.1 and elapsed < 300.0)
    assert _report("  8", ok,
                   f"theta=0.2: learned {learned:.2f} >= fixed-dict {coded:.2f} "
                   f">= inpainting {classical:.2f} dB; theta=1.0 gap "
                   f"{gap:.4f} dB (<= 0.1); {elapsed:.0f}s (< 300s)")


@pytest.mark.slow
def test_acceptance_09_one_bit_ordering(bundled_signal):
    x = bundled_signal
    fs = FrameSpec(256, 0.75)
    params = SolveParams(iters=50, k=32, outer_iters=50, inner_iters=20)
    learned = run_audio("onebit", x, fs, params, ["iht"], learn_dict=True,
                        reference=x)[0].snr_db
    coded = run_audio("onebit", x, fs, params, ["iht"], reference=x)[0].snr_db
    ok = learned >= coded
    assert _report("  9", ok, f"angular SNR: learned {learned:.4f} >= "
                              f"fixed-dict {coded:.4f} dB")


def _strip_runtime(text: str) -> str:
    out = []
    for line in text.splitlines():
        if line.startswith("#") or "," not in line:
            out.append(line)
            continue
        parts = line.split(",")
        if parts[-2] != "runtime_s":
            parts[-2] = "X"
        out.append(",".join(parts))
    return "\n".join(out)


def test_acceptance_10_cli_determinism(tmp_path):
    out = tmp_path / "synth.csv"
    args = ["synth", "--distortion", "clip", "--theta", "0.4", "--method",
            "adaptive,fixed", "--seed", "5", "--count", "12", "--out", str(out)]
    assert main(args) == 0
    first = out.read_text()
    assert main(args) == 0
    synth_same = _strip_runtime(first) == _strip_runtime(out.read_text())

    wav = tmp_path / "voice.wav"
    wav_write(wav, 0.9 * speech_like_signal(seed=3, seconds=0.5), 16000)
    est = tmp_path / "out.wav"
    args = ["declip", str(wav), "--theta", "0.3", "--reference", str(wav),
            "--iters", "20", "--out", str(est)]
    assert main(args) == 0
    csv_path = tmp_path / "out.csv"
    first = csv_path.read_text()
    wav_first = est.read_bytes()
    assert main(args) == 0
    audio_same = (_strip_runtime(first) == _strip_runtime(csv_path.read_text())
                  and wav_first == est.read_bytes())
    ok = synth_same and audio_same
    assert _report(" 10", ok, f"byte-identical reruns (runtime column aside): "
                              f"synth {synth_same}, audio {audio_same}")
