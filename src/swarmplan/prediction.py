"""Anonymous peer tracking and motion prediction from broadcast states.

Broadcasts carry no sender identity, so incoming states are associated to
tracks by how well each track's current prediction explains them.  Tracks
keep a sliding window of states and fit a jerk-regularized quintic per axis.
Until the window spans time, the newest state's constant-acceleration
bootstrap P + v dt + a dt^2 fills in as the same kind of polynomial, a
quadratic about its stamp, so every prediction is one evaluation of one
coefficient stack.

One evaluator, `predict_tracks`, runs Horner's rule over the polynomials
of many tracks at once, in `P.polyval`'s order, for association (all three
orders), the region cuts and the one-track view
`PeerTrack.predict_positions` (positions alone).
"""

from dataclasses import dataclass

import numpy as np

TRACK_WINDOW = 20       # states kept per track
LAMBDA_JERK = 0.05      # smoothness weight in the quintic fit
GATE = 1.0              # association score admitted to a track
W_VELOCITY = 0.5        # association weight on velocity mismatch
W_ACCELERATION = 0.1    # association weight on acceleration mismatch
STALENESS = 0.5         # seconds without updates before a track is stale


@dataclass
class PeerState:
    """One broadcast sample: kinematic state plus the sender's size descriptor."""

    stamp: float
    position: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray
    size: tuple = ()

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        self.acceleration = np.asarray(self.acceleration, dtype=float)


def _jerk_gram(T):
    """Gram matrix J with a' J a = integral_0^T (jerk of sum a_i s^i)^2 ds."""
    J = np.zeros((6, 6))
    J[3, 3] = 36.0 * T
    J[3, 4] = J[4, 3] = 72.0 * T ** 2
    J[4, 4] = 192.0 * T ** 3
    J[3, 5] = J[5, 3] = 120.0 * T ** 3
    J[4, 5] = J[5, 4] = 360.0 * T ** 4
    J[5, 5] = 720.0 * T ** 5
    return J


def fit_quintic(states, t1, t2, lambda_jerk):
    """Least-squares quintic through the window, regularized by jerk energy.

    Minimizes |A a - b|^2 + lambda_jerk * integral of squared jerk over
    [0, t2 - t1], with position, velocity, and acceleration rows for every
    state.  Returns (6, 2) coefficients per axis in powers of (t - t1).
    The system is nonsingular for lambda_jerk > 0 and t2 > t1.
    """
    if not states:
        raise ValueError("cannot fit an empty window")
    T = t2 - t1
    if T <= 0:
        raise ValueError(f"window must have positive length, got {T}")
    rows = []
    for st in states:
        s = st.stamp - t1
        # Python's ** on the float, as numpy's ** rounds some powers apart.
        s2, s3, s4, s5 = s ** 2, s ** 3, s ** 4, s ** 5
        rows += [[1.0, s, s2, s3, s4, s5],
                 [0.0, 1.0, 2 * s, 3 * s2, 4 * s3, 5 * s4],
                 [0.0, 0.0, 2.0, 6 * s, 12 * s2, 20 * s3]]
    A = np.array(rows)
    b = np.array([(st.position, st.velocity, st.acceleration)
                  for st in states]).reshape(-1, 2)
    H = A.T @ A + lambda_jerk * _jerk_gram(T)
    return np.linalg.solve(H, A.T @ b)


class PeerTrack:
    """Sliding-window history of one anonymous peer and its motion polynomial.

    `stack` (6, 3, 2) holds the position, velocity and acceleration
    polynomials of both axes in powers of (t - t_ref), differentiated once
    per fit.  A window spanning positive time holds its jerk-regularized
    quintic about the oldest stamp; otherwise (a new track, or states that
    share one stamp) it holds the newest state's bootstrap P + v dt + a dt^2
    as the quadratic [p, v, a, 0, 0, 0] about that state's stamp.
    """

    def __init__(self, state):
        self.states = []
        self.push(state)

    @property
    def latest(self):
        return self.states[-1]

    def push(self, state):
        self.states = (self.states + [state])[-TRACK_WINDOW:]
        t1, t2 = self.states[0].stamp, state.stamp
        self.stack = np.zeros((6, 3, 2))
        if t2 > t1:
            self.stack[:, 0] = fit_quintic(self.states, t1, t2, LAMBDA_JERK)
            self.t_ref = t1
        else:
            self.stack[:3, 0] = state.position, state.velocity, state.acceleration
            self.t_ref = t2
        j = np.arange(1.0, 6.0)[:, None]     # P.polyder's j * c[j]
        self.stack[:5, 1] = self.stack[1:, 0] * j
        self.stack[:4, 2] = self.stack[1:5, 1] * j[:4]

    def is_stale(self, now):
        return now - self.latest.stamp > STALENESS

    def predict_positions(self, times):
        """Positions (n, 2) at an array of times."""
        return predict_tracks([self], times, 1)[0, :, 0]


def predict_tracks(tracks, times, orders=3):
    """Position, velocity and acceleration, or the first `orders` of them,
    (tracks, times, orders, 2), each equal bit for bit to the track's own
    `P.polyval`: c[-1] + x*0, then c[-i] + v*x.
    """
    c = np.array([tr.stack for tr in tracks])[:, None, :, :orders]
    t_ref = np.array([tr.t_ref for tr in tracks])
    x = (np.asarray(times)[None, :] - t_ref[:, None])[..., None, None]
    v = c[:, :, -1] + x * 0
    for i in range(2, 7):
        v = c[:, :, -i] + v * x
    return v


def associate(tracks, state):
    """Index of the track that best explains `state`, or None for a new track.

    A score is the position error plus W_VELOCITY and W_ACCELERATION times
    the velocity and acceleration errors of the track's prediction.  The
    best must pass the gate; ties within 1e-12 go to the lowest index.
    """
    if not tracks:
        return None
    d = (predict_tracks(tracks, [state.stamp])[:, 0]
         - np.array([state.position, state.velocity, state.acceleration]))
    err = np.sqrt(np.vecdot(d, d))
    scores = err[:, 0] + W_VELOCITY * err[:, 1] + W_ACCELERATION * err[:, 2]
    best_idx = None
    best = np.inf
    for i, score in enumerate(scores.tolist()):
        if score < best - 1e-12:
            best = score
            best_idx = i
    if best_idx is None or best > GATE:
        return None
    return best_idx


def update_tracks(tracks, state):
    """Associate one incoming state, updating or creating a track in place."""
    idx = associate(tracks, state)
    if idx is None:
        tracks.append(PeerTrack(state))
        return len(tracks) - 1
    tracks[idx].push(state)
    return idx
