"""Peer tracking: quintic fits, extrapolation, association; the footprint
shapes peers broadcast sizes for."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from swarmplan import prediction
from swarmplan.geometry import Circle, Square, footprint_from_size
from swarmplan.prediction import (PeerState, PeerTrack, associate, fit_quintic,
                                  predict_tracks, update_tracks, _jerk_gram)


def state(stamp, p, v=(0, 0), a=(0, 0), size=(0.3,)):
    return PeerState(stamp=stamp, position=np.array(p, float),
                     velocity=np.array(v, float),
                     acceleration=np.array(a, float), size=size)


def oracle(track, t, order):
    """Order-th derivative of the window's quintic, one axis at a time."""
    t1, t2 = track.states[0].stamp, track.states[-1].stamp
    coeffs = fit_quintic(track.states, t1, t2, prediction.LAMBDA_JERK)
    out = np.empty(2)
    for ax in range(2):
        c = coeffs[:, ax]
        for _ in range(order):
            c = P.polyder(c)
        out[ax] = P.polyval(t - t1, c)
    return out


# --- oracles: the per-track forms the batched kernels replace ---------------

def _state_rows(s):
    """Position/velocity/acceleration observation rows at relative time s."""
    return np.array([
        [1.0, s, s ** 2, s ** 3, s ** 4, s ** 5],
        [0.0, 1.0, 2 * s, 3 * s ** 2, 4 * s ** 3, 5 * s ** 4],
        [0.0, 0.0, 2.0, 6 * s, 12 * s ** 2, 20 * s ** 3],
    ])


def oracle_fit(states, t1, t2, lambda_jerk):
    """fit_quintic with its design matrix stacked state by state."""
    A = np.vstack([_state_rows(st.stamp - t1) for st in states])
    b = np.vstack([np.stack([st.position, st.velocity, st.acceleration])
                   for st in states])
    H = A.T @ A + lambda_jerk * _jerk_gram(t2 - t1)
    return np.linalg.solve(H, A.T @ b)


def association_score(track, state):
    """Mismatch between one track's prediction and an incoming state."""
    p, v, a = P.polyval(state.stamp - track.t_ref, track.stack)
    dp = np.linalg.norm(p - state.position)
    dv = np.linalg.norm(v - state.velocity)
    da = np.linalg.norm(a - state.acceleration)
    return float(dp + prediction.W_VELOCITY * dv
                 + prediction.W_ACCELERATION * da)


def scalar_associate(tracks, state):
    """associate, scoring one track at a time."""
    best_idx = None
    best = np.inf
    for i, tr in enumerate(tracks):
        score = association_score(tr, state)
        if score < best - 1e-12:
            best = score
            best_idx = i
    if best_idx is None or best > prediction.GATE:
        return None
    return best_idx


def random_track(rng, n_states):
    """A track of n_states random states, 0.02-0.2 s apart; one state
    leaves it on its bootstrap."""
    t = float(rng.uniform(-3.0, 3.0))
    tr = PeerTrack(state(t, *rng.normal(size=(3, 2))))
    for _ in range(n_states - 1):
        t += float(rng.uniform(0.02, 0.2))
        tr.push(state(t, *rng.normal(size=(3, 2))))
    return tr


class TestConstantAccel:
    """A one-state track extrapolates P + v dt + a dt^2 (no 1/2)."""

    def test_printed_form_no_half(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            stamp = float(rng.uniform(-5.0, 5.0))
            p, v, a = rng.normal(size=(3, 2))
            tr = PeerTrack(state(stamp, p, v, a))
            for dt in rng.uniform(-1.0, 3.0, size=5):
                pos, vel, acc = predict_tracks([tr], [stamp + dt])[0, 0]
                assert np.allclose(pos, p + v * dt + a * dt * dt,
                                   rtol=0.0, atol=1e-12)
                assert np.allclose(vel, v + 2.0 * a * dt, rtol=0.0, atol=1e-12)
                assert np.allclose(acc, 2.0 * a, rtol=0.0, atol=1e-12)

    def test_zero_accel_is_linear(self):
        tr = PeerTrack(state(1.0, [0.0, 0.0], v=[2.0, 1.0]))
        assert np.allclose(predict_tracks([tr], [4.0])[0, 0, 0], [6.0, 3.0], atol=1e-12)


class TestJerkGram:
    def test_matches_numerical_integral(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.normal(size=6)
            T = float(rng.uniform(0.3, 3.0))
            J = _jerk_gram(T)
            got = float(a @ J @ a)
            ts = np.linspace(0, T, 40001)
            jerk = 6 * a[3] + 24 * a[4] * ts + 60 * a[5] * ts ** 2
            want = float(np.trapezoid(jerk ** 2, ts))
            assert got == pytest.approx(want, rel=1e-6)

    def test_psd(self):
        J = _jerk_gram(2.0)
        assert np.allclose(J, J.T)
        assert np.linalg.eigvalsh(J).min() >= -1e-12


class TestQuinticFit:
    def quintic_states(self, coeffs, stamps):
        from numpy.polynomial import polynomial as P
        out = []
        for t in stamps:
            pos = [P.polyval(t, coeffs[:, ax]) for ax in range(2)]
            vel = [P.polyval(t, P.polyder(coeffs[:, ax])) for ax in range(2)]
            acc = [P.polyval(t, P.polyder(coeffs[:, ax], 2)) for ax in range(2)]
            out.append(state(t, pos, vel, acc))
        return out

    def test_recovers_exact_quintic(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            coeffs = rng.normal(size=(6, 2))
            stamps = np.sort(rng.uniform(0.0, 2.0, size=8))
            if np.min(np.diff(stamps)) < 1e-3:
                continue
            states = self.quintic_states(coeffs, stamps)
            got = fit_quintic(states, stamps[0], stamps[-1], lambda_jerk=1e-10)
            # Shift the reference: compare by evaluation, not raw coefficients.
            from numpy.polynomial import polynomial as P
            for t in np.linspace(stamps[0], stamps[-1], 7):
                for ax in range(2):
                    want = P.polyval(t, coeffs[:, ax])
                    have = P.polyval(t - stamps[0], got[:, ax])
                    assert have == pytest.approx(want, abs=1e-6)

    def test_nonsingular_with_single_state(self):
        st = [state(0.5, [1.0, 2.0], v=[0.3, 0.1], a=[0.0, 0.2])]
        coeffs = fit_quintic(st, 0.0, 1.0, lambda_jerk=0.1)
        assert np.all(np.isfinite(coeffs))

    def test_rejects_empty_or_degenerate_window(self):
        with pytest.raises(ValueError):
            fit_quintic([], 0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            fit_quintic([state(0.0, [0, 0])], 1.0, 1.0, 0.1)

    def test_smoothing_shrinks_jerk(self):
        # Heavier regularization must not increase the fitted jerk energy.
        rng = np.random.default_rng(7)
        stamps = np.linspace(0.0, 2.0, 10)
        states = [state(t, rng.normal(size=2), rng.normal(size=2), rng.normal(size=2))
                  for t in stamps]
        energies = []
        for lam in (1e-6, 1e-2, 1e2):
            c = fit_quintic(states, 0.0, 2.0, lam)
            J = _jerk_gram(2.0)
            energies.append(sum(float(c[:, ax] @ J @ c[:, ax]) for ax in range(2)))
        assert energies[0] >= energies[1] >= energies[2]


class TestTrackPrediction:
    def test_single_state_uses_constant_accel(self):
        st = state(0.5, [0, 0], v=[1, 0], a=[0.5, 0])
        tr = PeerTrack(st)
        times = np.array([0.5, 1.0, 2.5])
        dt = (times - st.stamp)[:, None]
        want = st.position + st.velocity * dt + st.acceleration * dt * dt
        assert np.allclose(tr.predict_positions(times), want, rtol=0.0, atol=1e-12)

    def test_equal_stamps_bootstrap_newest_state(self):
        # A window that spans no time has nothing to fit: the newest state's
        # bootstrap is the prediction.
        tr = PeerTrack(state(1.0, [0, 0], v=[1, 0]))
        tr.push(state(1.0, [0.2, 0.1], v=[0, 1], a=[0.5, 0]))
        assert np.allclose(predict_tracks([tr], [2.0])[0, 0],
                           [[0.7, 1.1], [1.0, 1.0], [1.0, 0.0]], rtol=0.0, atol=1e-12)

    def test_fitted_track_matches_polyder_oracle(self):
        # predict and predict_positions equal, bit for bit, the per-axis
        # derivatives and evaluations of the window's fit.
        rng = np.random.default_rng(13)
        for _ in range(20):
            tr = PeerTrack(state(0.0, *rng.normal(size=(3, 2))))
            for t in np.cumsum(rng.uniform(0.02, 0.2, size=int(rng.integers(1, 25)))):
                tr.push(state(float(t), *rng.normal(size=(3, 2))))
                times = t + rng.uniform(-0.5, 2.0, size=6)
                for s in times:
                    want = np.stack([oracle(tr, s, k) for k in range(3)])
                    assert np.array_equal(predict_tracks([tr], [s])[0, 0], want)
                want = np.stack([oracle(tr, s, 0) for s in times])
                assert np.array_equal(tr.predict_positions(times), want)

    def test_window_capped(self, monkeypatch):
        monkeypatch.setattr(prediction, "TRACK_WINDOW", 5)
        tr = PeerTrack(state(0.0, [0.0, 0.0], v=[1, 0]))
        for k in range(1, 12):
            tr.push(state(0.1 * k, [0.1 * k, 0.0], v=[1, 0]))
        assert len(tr.states) == 5
        assert tr.states[0].stamp == pytest.approx(0.7)

    def test_fitted_track_matches_linear_motion(self, monkeypatch):
        monkeypatch.setattr(prediction, "LAMBDA_JERK", 1e-8)
        tr = PeerTrack(state(0.0, [0.0, 1.0], v=[2.0, -1.0]))
        for k in range(1, 10):
            t = 0.1 * k
            tr.push(state(t, [2.0 * t, 1.0 - t], v=[2.0, -1.0]))
        p, v, _ = predict_tracks([tr], [1.5])[0, 0]
        assert np.allclose(p, [3.0, -0.5], atol=1e-6)
        assert np.allclose(v, [2.0, -1.0], atol=1e-6)

    def test_vectorized_prediction_matches_scalar(self):
        tr = PeerTrack(state(0.0, [0.0, 1.0], v=[1.0, 0.0]))
        for k in range(1, 8):
            t = 0.1 * k
            tr.push(state(t, [np.sin(t), np.cos(t)], v=[np.cos(t), -np.sin(t)]))
        times = np.linspace(0.8, 2.0, 9)
        pos = tr.predict_positions(times)
        for k, t in enumerate(times):
            assert np.allclose(pos[k], predict_tracks([tr], [t])[0, 0, 0], atol=1e-12)

    def test_staleness(self, monkeypatch):
        monkeypatch.setattr(prediction, "STALENESS", 0.5)
        tr = PeerTrack(state(1.0, [0, 0]))
        assert not tr.is_stale(1.4)
        assert tr.is_stale(1.6)


class TestAssociation:
    def test_matching_track_updated(self):
        tracks = []
        update_tracks(tracks, state(0.0, [0, 0], v=[1, 0]))
        idx = update_tracks(tracks, state(0.1, [0.1, 0], v=[1, 0]))
        assert idx == 0
        assert len(tracks) == 1
        assert len(tracks[0].states) == 2

    def test_distant_state_creates_new_track(self):
        tracks = []
        update_tracks(tracks, state(0.0, [0, 0], v=[1, 0]))
        idx = update_tracks(tracks, state(0.1, [5.0, 5.0], v=[0, 0]))
        assert idx == 1
        assert len(tracks) == 2

    def test_tie_breaks_to_lowest_index(self):
        # Two identical tracks; the incoming state fits both equally.
        tracks = [PeerTrack(state(0.0, [0, 0])),
                  PeerTrack(state(0.0, [0, 0]))]
        idx = associate(tracks, state(0.1, [0.0, 0.0]))
        assert idx == 0

    def test_crossing_targets_stay_separated(self):
        # Two peers crossing paths; prediction keeps their tracks apart.
        rng = np.random.default_rng(11)
        for _ in range(20):
            tracks = []
            truth = []  # track index per peer
            va = np.array([1.0, 0.8]) + rng.normal(scale=0.05, size=2)
            vb = np.array([1.0, -0.8]) + rng.normal(scale=0.05, size=2)
            pa0 = np.array([0.0, -2.0])
            pb0 = np.array([0.0, 2.0])
            for k in range(40):
                t = 0.1 * k
                pa = pa0 + va * t
                pb = pb0 + vb * t
                for who, (p, v) in enumerate(((pa, va), (pb, vb))):
                    noisy = p + rng.normal(scale=0.005, size=2)
                    idx = update_tracks(tracks, state(t, noisy, v=v))
                    if k == 0:
                        truth.append(idx)
                    else:
                        assert idx == truth[who], f"mislabel at k={k}"
            assert len(tracks) == 2


def origin_square(h):
    """Axis-aligned square of half extent h about the origin."""
    return Square([[-h, -h], [h, -h], [h, h], [-h, h]])


class TestFootprints:
    def test_round_sizes(self):
        fp = footprint_from_size((0.3,))
        assert isinstance(fp, Circle)
        assert fp.radius == pytest.approx(0.3)
        assert np.array_equal(fp.center, [0.0, 0.0])
        fp2 = footprint_from_size((0.2, 0.4))
        assert fp2.radius == pytest.approx(0.4)

    def test_three_sizes_square(self):
        fp = footprint_from_size((0.1, 0.2, 0.3))
        assert isinstance(fp, Square)
        h = np.sqrt(2) * 0.3
        assert fp.corners == pytest.approx(
            h * np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]]))

    def test_support_functions(self):
        c = footprint_from_size((0.5,))
        for th in np.linspace(0, 2 * np.pi, 13):
            u = np.array([np.cos(th), np.sin(th)])
            assert c.support(u) == pytest.approx(0.5)
        s = origin_square(1.0)
        assert s.support(np.array([1.0, 0.0])) == pytest.approx(1.0)
        assert s.support(np.array([np.sqrt(0.5), np.sqrt(0.5)])) == pytest.approx(np.sqrt(2))

    def test_contains(self):
        s = origin_square(1.0)
        assert s.contains(np.array([0.9, -0.9]))
        assert not s.contains(np.array([1.1, 0.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            footprint_from_size(())
        with pytest.raises(ValueError):
            footprint_from_size((0.1, 0.2, 0.3, 0.4))
        with pytest.raises(ValueError):
            footprint_from_size((-0.1,))


class TestBatchedKernels:
    """The one-pass kernels equal their per-track forms bit for bit."""

    def test_predict_tracks_matches_polyval(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            tracks = [random_track(rng, int(n))
                      for n in rng.integers(1, 25, size=int(rng.integers(1, 9)))]
            # States sharing one stamp keep the newest state's bootstrap.
            twin = PeerTrack(state(1.0, *rng.normal(size=(3, 2))))
            twin.push(state(1.0, *rng.normal(size=(3, 2))))
            tracks.append(twin)
            times = rng.uniform(-4.0, 8.0, size=int(rng.integers(1, 40)))
            got = predict_tracks(tracks, times)
            assert got.shape == (len(tracks), len(times), 3, 2)
            # The first orders alone, as the region cut asks for positions.
            for orders in (1, 2):
                first = predict_tracks(tracks, times, orders)
                assert first.shape == (len(tracks), len(times), orders, 2)
                assert first.tobytes() == np.ascontiguousarray(
                    got[:, :, :orders]).tobytes()
            for i, tr in enumerate(tracks):
                for j, t in enumerate(times):
                    want = P.polyval(t - tr.t_ref, tr.stack)
                    assert np.array_equal(got[i, j], want)
                    assert np.array_equal(predict_tracks([tr], [t])[0, 0], want)
                assert np.array_equal(
                    tr.predict_positions(times),
                    P.polyval((times - tr.t_ref)[:, None], tr.stack[:, 0],
                              tensor=False))

    def test_fit_matches_stacked_state_rows(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            n = int(rng.integers(1, 21))
            stamps = np.cumsum(rng.uniform(0.0, 0.3, size=n)) + rng.uniform(-5, 5)
            # Python floats as the bus sends them, and numpy scalars.
            stamps = stamps.tolist() if rng.random() < 0.5 else list(stamps)
            states = [state(t, *rng.normal(size=(3, 2))) for t in stamps]
            t2 = stamps[-1] + float(rng.uniform(0.01, 0.5))
            lam = float(rng.choice([1e-8, prediction.LAMBDA_JERK, 1.0]))
            assert np.array_equal(fit_quintic(states, stamps[0], t2, lam),
                                  oracle_fit(states, stamps[0], t2, lam))

    def test_associate_matches_scalar_loop(self):
        rng = np.random.default_rng(79)
        hits = 0
        for _ in range(300):
            tracks = [random_track(rng, int(n))
                      for n in rng.integers(1, 8, size=int(rng.integers(1, 7)))]
            src = tracks[int(rng.integers(len(tracks)))]
            t = src.latest.stamp + float(rng.uniform(0.0, 0.2))
            p, v, a = P.polyval(t - src.t_ref, src.stack)
            st = state(t, p + rng.normal(scale=0.3, size=2),
                       v + rng.normal(scale=0.3, size=2),
                       a + rng.normal(scale=0.3, size=2))
            want = scalar_associate(tracks, st)
            assert associate(tracks, st) == want
            hits += want is not None
        assert 0 < hits < 300

    def test_near_ties_and_gate(self):
        # Resting one-state tracks on the x axis score their distance to a
        # resting state at the origin.  Offsets below 1e-12 tie (the lower
        # index wins), larger ones do not; a score of exactly GATE passes.
        rng = np.random.default_rng(83)
        gate = prediction.GATE
        ulp = np.spacing(gate)
        pools = [[0.5, 0.5 + 4e-13, 0.5 - 6e-13, 0.5 - 1.1e-12, 0.5 + 2e-12],
                 [gate, gate + ulp, gate - 5e-13, gate + 3 * ulp],
                 [gate + ulp, gate + 2 * ulp],
                 [gate - 2e-12, gate - 1.5e-12, gate - 0.5e-12]]
        outcomes = set()
        for pool in pools:
            for _ in range(30):
                order = rng.permutation(len(pool))
                tracks = [PeerTrack(state(0.0, [pool[i], 0.0])) for i in order]
                st = state(0.0, [0.0, 0.0])
                scores = [association_score(tr, st) for tr in tracks]
                assert sorted(scores) == sorted(pool)
                want = scalar_associate(tracks, st)
                assert associate(tracks, st) == want
                outcomes.add(None if want is None else pool[order[want]])
        # A tie kept the earlier track, an exact-gate score passed, and
        # scores just past the gate opened a new track.
        assert {gate, None} <= outcomes
        assert outcomes & {0.5 + 4e-13, 0.5 - 6e-13, 0.5}
