"""Pinhole projection and pose recovery from point correspondences.

The tracker knows the 3D positions of identified flashers and their
pixel locations in the current frame; recovering the camera pose is a
perspective-n-point problem. The start depends on the point count:

- Six or more points: a direct linear transform gives the start, and a
  caller's start pose is ignored (the exact DLT converges in fewer steps).
- Four or five points: the DLT is underdetermined. A caller's start pose,
  typically the previous frame's fix, is refined alone first and kept when
  its final reprojection RMS is at most WARM_RMS_PX. Otherwise, or without
  a start, a fixed fan of rotation seeds is refined and the best
  reprojection wins: the lowest final cost, the first seed on a tie. A
  rejected start leaves the result exactly as if none was given.

Coplanar point sets make the problem ambiguous and are rejected up front.

Refinement is Levenberg-Marquardt over a 6-vector increment, three
rotation components applied through the exponential map on the left and
three translation components, which sidesteps gimbal issues without
quaternion bookkeeping. One routine refines a stack of starting poses,
each against its own points or against points the stack shares: the fan
is a stack of its seeds that keep every point in front, and a run's
frames of one point count are a stack of one DLT start per frame. Each
seed has its own damping, retry count and iteration cap; the linear
solves, SVDs and exponentials run batched over the seeds still active. A
seed stops when its step falls below round-off of its parameters
(STEP_RTOL), when the Gauss-Newton model predicts a negligible relative
decrease of its cost (COST_RTOL), or after MAX_RETRIES rejected steps in
a row. Poses stay raw (R, t) arrays: solve_pnp builds only its result as
a Pose, and solve_pnp_frames builds none.

A run's poses come from solve_pnp_frames, as one Fixes record of arrays.
Its frames of six or more points ignore their start, so they do not
depend on each other: they are grouped by point count and solved in
stacks of at most FRAME_CHUNK frames, through one batched DLT and one
refinement. Frames of four or five points follow in order, each handed
the previous frame's fix as its start. Every fix takes Pose's
rigid-transform check, as one stacked call. The batch is exact, not an
approximation: every batched step acts on each seed's own matrices with
the LAPACK and BLAS call that seed would get alone, and reductions run
along each seed's own axis, so a frame's pose is bitwise the one
solve_pnp gives it, whatever shares its stack. A singular damped system
makes numpy's batched solve raise for the whole stack; the stack is then
solved seed by seed and only the singular seed takes the least-norm
(pinv) step, so that one frame's pose never depends on which other
frames share its batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

COPLANARITY_RTOL = 1e-9
# a seed stops once its step is below STEP_RTOL of its parameters' scale,
# or the model predicts a cost decrease below COST_RTOL of its cost
STEP_RTOL = 1e-12
COST_RTOL = 1e-12
MAX_ITERATIONS = 200
MAX_RETRIES = 8
# a start pose at 4-5 points is kept when its refined per-coordinate
# reprojection RMS is at most this; otherwise the seed fan runs
WARM_RMS_PX = 1.0

ORTHONORMALITY_TOL = 1e-10
# log_so3(exp_so3(w)) is w to 3e-11 rad up to a turn of pi - HALF_TURN_MARGIN, 2e-9 rad
# at pi - 1e-3, 0.27 rad at pi - 1e-7, and 0 at pi (TestHelpers in tests/test_pose.py)
HALF_TURN_MARGIN = 1e-2
# most frames of one point count solve_pnp_frames refines as one stack; it
# bounds the stack's arrays and leaves every result as it is
FRAME_CHUNK = 256


class DegenerateConfigurationError(ValueError):
    """Point set is coplanar; pose recovery would be ambiguous."""


class InsufficientDataError(ValueError):
    """Fewer correspondences than the minimum of four."""


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole camera, focal lengths and principal point in pixels: the one camera model.

    Pixels are (row, col) everywhere: a camera-frame point (x, y, z) images
    at col = fx * x / z + cx and row = fy * y / z + cy. image_size is
    (rows, cols); None leaves the image unbounded.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    image_size: tuple[int, int] | None = None

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")

    def pixels(self, cam: np.ndarray) -> np.ndarray:
        """Pixels (..., 2) of camera-frame points (..., 3); meaningless at z <= 0."""
        z = cam[..., 2]
        out = np.empty(cam.shape[:-1] + (2,))
        out[..., 0] = self.fy * cam[..., 1] / z + self.cy
        out[..., 1] = self.fx * cam[..., 0] / z + self.cx
        return out

    def rays(self, pixels: np.ndarray) -> np.ndarray:
        """Normalised rays (x / z, y / z) (..., 2) of pixels (..., 2): pixels' inverse."""
        return np.stack([(pixels[..., 1] - self.cx) / self.fx,
                         (pixels[..., 0] - self.cy) / self.fy], axis=-1)

    def jacobian(self, cam: np.ndarray) -> np.ndarray:
        """Jacobian (..., 2m, 6) of pixels(cam) over (rotation increment, translation).

        The increment acts in camera frame: Xc' = exp(w) Xc + dt, so
        dXc/dw = -[Xc]x and dXc/dt = I.
        """
        fx, fy = self.fx, self.fy
        iz = 1.0 / cam[..., 2]
        u, v = cam[..., 0] * iz, cam[..., 1] * iz
        jac = np.zeros(cam.shape[:-1] + (2, 6))
        row, col = jac[..., 0, :], jac[..., 1, :]
        row[..., 0], row[..., 1], row[..., 2] = -fy * (1.0 + v * v), fy * u * v, fy * u
        row[..., 4], row[..., 5] = fy * iz, -fy * v * iz
        col[..., 0], col[..., 1], col[..., 2] = -fx * u * v, fx * (1.0 + u * u), -fx * v
        col[..., 3], col[..., 5] = fx * iz, -fx * u * iz
        return jac.reshape(cam.shape[:-2] + (2 * cam.shape[-2], 6))

    def sees(self, pixels: np.ndarray, depth: np.ndarray) -> np.ndarray:
        """Whether each pixel (..., 2) at its depth (...) is in front and inside the image."""
        seen = depth > 0
        if self.image_size is not None:
            (rows, cols), (n_rows, n_cols) = np.moveaxis(pixels, -1, 0), self.image_size
            seen &= (0 <= rows) & (rows < n_rows) & (0 <= cols) & (cols < n_cols)
        return seen


def _check_rigid(rotation: np.ndarray, translation: np.ndarray) -> None:
    """Raise ValueError unless each pose of a stack (..., 3, 3), (..., 3) is rigid."""
    # a NaN fails each test; huge or non-finite entries fail it without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.abs(rotation @ rotation.swapaxes(-1, -2) - np.eye(3))
    if not (gap <= ORTHONORMALITY_TOL).all():
        raise ValueError("rotation is not orthonormal")
    if not (np.abs(np.linalg.det(rotation) - 1.0) <= ORTHONORMALITY_TOL).all():
        raise ValueError("rotation determinant is not +1")
    if not np.isfinite(translation).all():
        raise ValueError("translation is not finite")


@dataclass(frozen=True)
class Pose:
    """World-to-camera rigid transform."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        _check_rigid(r, t)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    def transform(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self.rotation.T + self.translation


# _SKEW_BASIS[i] is the cross-product matrix of the i-th unit vector
_SKEW_BASIS = np.array(
    [[[0, 0, 0], [0, 0, -1], [0, 1, 0]],
     [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
     [[0, -1, 0], [1, 0, 0], [0, 0, 0]]],
    dtype=float,
).reshape(3, 9)


def exp_so3(w: np.ndarray) -> np.ndarray:
    """Rotation matrix for an axis-angle 3-vector (Rodrigues).

    A stack of vectors (..., 3) gives a stack of matrices (..., 3, 3).
    """
    w = np.asarray(w, dtype=float)
    # sin(t)/t rounds to exactly 1 at this floor, so t = 0 needs no branch
    theta = np.maximum(np.linalg.norm(w, axis=-1), 1e-300)[..., None, None]
    k = (w @ _SKEW_BASIS).reshape(w.shape[:-1] + (3, 3))
    half = 0.5 * theta
    a = np.sin(theta) / theta
    b = 0.5 * (np.sin(half) / half) ** 2  # (1 - cos t) / t^2
    return np.eye(3) + a * k + b * (k @ k)


def log_so3(r: np.ndarray) -> np.ndarray:
    """Axis-angle 3-vector of one rotation matrix: exp_so3's inverse below pi."""
    angle = rotation_angle(r)
    if angle < 1e-12:
        return np.zeros(3)
    w = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    return w / (2.0 * np.sin(angle)) * angle


def nearest_rotation(m: np.ndarray) -> np.ndarray:
    """Closest proper rotation to each 3x3 matrix of a stack (..., 3, 3)."""
    u, _, vt = np.linalg.svd(m)
    u[..., :, 2] *= np.sign(np.linalg.det(u @ vt))[..., None]
    return u @ vt


def project_points(K: CameraIntrinsics, rotation, translation, points
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Pixels (..., m, 2) and camera depths (..., m) of world points (m, 3).

    rotation (..., 3, 3) and translation (..., 3) are a pose's arrays, or
    a stack of poses'. A pixel at nonpositive depth means nothing. Each
    point goes through each pose as its own (1, 3) row times R^T, because
    the pinned scenario reports were taken with that product: the plain
    (m, 3) @ R^T product runs another BLAS kernel, which can round the last
    bit differently and so would move the pixels of every pinned report.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 1, 3)
    rotation, translation = np.asarray(rotation), np.asarray(translation)
    cam = points @ rotation.swapaxes(-1, -2)[..., None, :, :] + translation[..., None, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        return K.pixels(cam[..., 0, :]), cam[..., 0, 2]


def project(K: CameraIntrinsics, pose: Pose, point) -> tuple[float, float]:
    """Pinhole projection of one world point; raises behind the camera."""
    (pixel,), (z,) = project_points(K, pose.rotation, pose.translation, point)
    if z <= 0:
        raise ValueError(f"point has nonpositive depth {z}")
    return pixel[0], pixel[1]


def _coplanar(points: np.ndarray) -> np.ndarray:
    """Whether each point set of a stack (..., m, 3) is rank-deficient.

    Deficiency means the centered points' smallest singular value is below
    COPLANARITY_RTOL of the largest, which also catches collinear and
    coincident sets.
    """
    centered = points - points.mean(axis=-2, keepdims=True)
    sv = np.linalg.svd(centered, compute_uv=False)
    return sv[..., -1] < COPLANARITY_RTOL * sv[..., 0]


def _camera(rot: np.ndarray, trans: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Camera-frame points (S, m, 3) for a stack of poses (S, 3, 3), (S, 3)."""
    return points @ rot.swapaxes(-1, -2) + trans[:, None, :]


def reprojection_residuals(K, pose, points, pixels) -> np.ndarray:
    """Stacked (row, col) reprojection errors in pixels."""
    return (K.pixels(pose.transform(points)) - pixels).reshape(-1)


def _normal_equations(jac: np.ndarray, res: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    jt = jac.swapaxes(-1, -2)
    return jt @ jac, (jt @ res[..., None])[..., 0]


def _damped_steps(damped: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """LM steps (S, 6) solving each damped system of a stack (S, 6, 6), (S, 6).

    A singular system makes the batched solve raise; the stack is then
    solved seed by seed, and only the singular seed takes the least-norm
    step, so no seed's step depends on the other seeds of its stack.
    """
    rhs = -grad[..., None]
    try:
        return np.linalg.solve(damped, rhs)[..., 0]
    except np.linalg.LinAlgError:
        if len(damped) > 1:
            return np.concatenate(
                [_damped_steps(damped[i : i + 1], grad[i : i + 1]) for i in range(len(damped))])
        return (np.linalg.pinv(damped) @ rhs)[..., 0]


def _refine_stack(K, rot, trans, points, pixels):
    """Levenberg-Marquardt on each pose of a stack (S, 3, 3), (S, 3).

    points (S, m, 3) and pixels (S, m, 2) are per seed; shared ones,
    (m, 3) and (m, 2), are broadcast. Returns the refined rotations,
    translations and final costs. A trial step is accepted when every
    point stays in front and the cost does not rise; damping then drops
    tenfold (to zero below 1e-12), otherwise it rises tenfold (to at
    least 1e-6). Arrays hold only the seeds still active; a seed that
    stops is written out and dropped.
    """
    out_rot, out_trans, out_cost = np.empty_like(rot), np.empty_like(trans), np.empty(len(rot))
    if not len(rot):
        return out_rot, out_trans, out_cost
    points = np.broadcast_to(points, (len(rot),) + points.shape[-2:])
    pixels = np.broadcast_to(pixels, (len(rot),) + pixels.shape[-2:])
    cam = _camera(rot, trans, points)
    res = (K.pixels(cam) - pixels).reshape(len(cam), -1)
    cost = (res * res).sum(axis=-1)
    hess, grad = _normal_equations(K.jacobian(cam), res)
    idx = np.arange(len(rot))
    lam = np.zeros(len(rot))
    retries = np.zeros(len(rot), dtype=int)
    steps = np.zeros(len(rot), dtype=int)
    while True:
        delta = _damped_steps(hess + lam[:, None, None] * np.eye(6), grad)
        # cost decrease the damped Gauss-Newton model predicts for the step
        predicted = 0.5 * (lam * (delta * delta).sum(-1) - (grad * delta).sum(-1))
        scale = 1.0 + np.abs(trans).max(axis=-1)
        keep = (
            (predicted > COST_RTOL * cost)
            & (np.abs(delta).max(axis=-1) > STEP_RTOL * scale)
            & (retries < MAX_RETRIES)
            & (steps < MAX_ITERATIONS)
        )
        if not keep.all():
            done = idx[~keep]
            out_rot[done], out_trans[done], out_cost[done] = rot[~keep], trans[~keep], cost[~keep]
            if not keep.any():
                return out_rot, out_trans, out_cost
            idx, rot, trans, cost, hess, grad, lam, retries, steps, delta, points, pixels = (
                a[keep] for a in (idx, rot, trans, cost, hess, grad, lam, retries, steps, delta,
                                  points, pixels)
            )
        dr = exp_so3(delta[:, :3])
        cand_rot = nearest_rotation(dr @ rot)
        cand_trans = (dr @ trans[..., None])[..., 0] + delta[:, 3:]
        cam = _camera(cand_rot, cand_trans, points)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            res = (K.pixels(cam) - pixels).reshape(len(cam), -1)
            cand_cost = (res * res).sum(axis=-1)
            cand_hess, cand_grad = _normal_equations(K.jacobian(cam), res)
        ok = (cam[..., 2] > 0).all(axis=-1) & (cand_cost <= cost)
        rot = np.where(ok[:, None, None], cand_rot, rot)
        trans = np.where(ok[:, None], cand_trans, trans)
        cost = np.where(ok, cand_cost, cost)
        hess = np.where(ok[:, None, None], cand_hess, hess)
        grad = np.where(ok[:, None], cand_grad, grad)
        lam = np.where(ok, np.where(lam > 1e-12, lam / 10.0, 0.0), np.maximum(lam * 10.0, 1e-6))
        retries = np.where(ok, 0, retries + 1)
        steps = steps + ok


class Fixes(NamedTuple):
    """The world-to-camera fix of each frame of a run, NaN where not solved."""

    rotation: np.ndarray  # (F, 3, 3)
    translation: np.ndarray  # (F, 3)
    solved: np.ndarray  # (F,) bool


def _dlt_stack(K, points, pixels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """solve_pnp of each 6+ point problem of a stack (F, m, 3), (F, m, 2).

    A direct linear transform gives each problem's start, refined as one
    stack. Returns the indices solved, with their rotations and
    translations; the rest are where solve_pnp raises DegenerateConfigurationError:
    coplanar points, no start (the projection's depth row has no positive
    finite norm), or a start with a point behind the camera.
    """
    kept = np.flatnonzero(~_coplanar(points))
    points, pixels = points[kept], pixels[kept]
    u, v = np.moveaxis(K.rays(pixels), -1, 0)
    f, m = points.shape[:2]
    a = np.zeros((f, 2 * m, 12))
    hom = np.concatenate([points, np.ones((f, m, 1))], axis=-1)
    a[:, 0::2, 0:4] = hom
    a[:, 0::2, 8:12] = -u[..., None] * hom
    a[:, 1::2, 4:8] = hom
    a[:, 1::2, 8:12] = -v[..., None] * hom
    _, _, vt = np.linalg.svd(a, full_matrices=False)
    p = vt[:, -1].reshape(f, 3, 4)
    # fix scale and sign so rotation rows are unit and depths positive; the
    # norm is sqrt of a dot product, as np.linalg.norm takes of one vector
    d = p[:, 2, :3]
    norm = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
    started = (0.0 < norm) & (norm < np.inf)
    p = p[started] / norm[started, None, None]
    behind = np.median((hom[started] @ p[:, 2, :, None])[..., 0], axis=-1) < 0
    p = np.where(behind[:, None, None], -p, p)
    rot, trans = nearest_rotation(p[:, :, :3]), p[:, :, 3]
    kept, points, pixels = kept[started], points[started], pixels[started]
    front = (_camera(rot, trans, points)[..., 2] > 0).all(axis=-1)
    rot, trans, _ = _refine_stack(K, rot[front], trans[front], points[front], pixels[front])
    return kept[front], rot, trans


# fan rotations: the identity and quarter turns about z, x, y and the body diagonal
_SEED_AXIS_ANGLES = np.array([np.zeros(3)] + [
    np.array(axis) * angle
    for axis in ([0, 0, 1], [1, 0, 0], [0, 1, 0], [1 / np.sqrt(3.0)] * 3)
    for angle in (np.pi / 2, np.pi, 3 * np.pi / 2)
])


def _seed_poses(points) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic rotation fan with a depth heuristic for small sets."""
    rot = exp_so3(_SEED_AXIS_ANGLES)
    centroid = points.mean(axis=0)
    spread = float(np.linalg.norm(points - centroid, axis=1).mean()) or 1.0
    # place the cloud centroid on the optical axis a few spreads out
    trans = np.array([0.0, 0.0, 4.0 * spread]) - rot @ centroid
    return rot, trans


def _solve_few(K, points, pixels, start) -> tuple[np.ndarray, np.ndarray]:
    """solve_pnp of 4 or 5 points on raw arrays: start is an (R, t) pair or None."""
    if _coplanar(points):
        raise DegenerateConfigurationError("points are coplanar")
    if start is not None:
        rot, trans = start[0][None], start[1][None]
        if (_camera(rot, trans, points)[..., 2] > 0).all():
            rot, trans, cost = _refine_stack(K, rot, trans, points, pixels)
            if cost[0] <= 2 * len(points) * WARM_RMS_PX**2:
                return rot[0], trans[0]
    rot, trans = _seed_poses(points)
    front = (_camera(rot, trans, points)[..., 2] > 0).all(axis=-1)
    if not front.any():
        raise DegenerateConfigurationError("no candidate kept all points in front")
    rot, trans, cost = _refine_stack(K, rot[front], trans[front], points, pixels)
    best = int(np.argmin(cost))  # first seed wins a tie
    return rot[best], trans[best]


def solve_pnp(K: CameraIntrinsics, points, pixels, start: Pose | None = None) -> Pose:
    """Pose minimizing squared reprojection error over the given pairs.

    points are world 3D, pixels are observed (row, col). Requires at
    least 4 non-coplanar points. At 6 or more the DLT gives the start and
    start is ignored. At 4 or 5, start (e.g. the previous frame's fix) is
    refined alone when it keeps every point in front, and returned when
    its final cost is at most 2 * m * WARM_RMS_PX**2 for m points;
    otherwise the 13-seed rotation fan runs, with the same result as
    start=None.
    """
    points, pixels = _correspondences(points, pixels)
    if len(points) < 6:
        start = None if start is None else (start.rotation, start.translation)
        return Pose(*_solve_few(K, points, pixels, start))
    solved, rot, trans = _dlt_stack(K, points[None], pixels[None])
    if not solved.size:
        raise DegenerateConfigurationError(
            "points are coplanar" if _coplanar(points) else
            "no DLT start: its depth row is zero or not finite, or a point is behind")
    return Pose(rot[0], trans[0])


def solve_pnp_frames(K: CameraIntrinsics, frames) -> Fixes:
    """solve_pnp over a run of frames, each (points, pixels) or None, as one Fixes record.

    Bitwise what a loop of solve_pnp(K, points, pixels, start=previous fix)
    gives: a frame is unsolved where it is None or solve_pnp raises
    DegenerateConfigurationError, and a fix that is not a rigid transform
    raises Pose's ValueError.
    """
    problems = [None if f is None else _correspondences(*f) for f in frames]
    sizes = np.array([0 if problem is None else len(problem[0]) for problem in problems])
    rotation = np.full((len(problems), 3, 3), np.nan)
    translation, solved = np.full((len(problems), 3), np.nan), np.zeros(len(problems), dtype=bool)
    for m in np.unique(sizes[sizes >= 6]):
        stack = np.flatnonzero(sizes == m)
        for lo in range(0, len(stack), FRAME_CHUNK):
            chunk = stack[lo : lo + FRAME_CHUNK]
            points, pixels = (np.stack(a) for a in zip(*(problems[i] for i in chunk)))
            done, rot, trans = _dlt_stack(K, points, pixels)
            rotation[chunk[done]], translation[chunk[done]], solved[chunk[done]] = rot, trans, True
    for i in np.flatnonzero((sizes == 4) | (sizes == 5)):
        start = (rotation[i - 1], translation[i - 1]) if i and solved[i - 1] else None
        try:
            rotation[i], translation[i] = _solve_few(K, *problems[i], start)
            solved[i] = True
        except DegenerateConfigurationError:
            pass
    _check_rigid(rotation[solved], translation[solved])
    return Fixes(rotation, translation, solved)


def _correspondences(points, pixels) -> tuple[np.ndarray, np.ndarray]:
    """points (m, 3) and pixels (m, 2) as float arrays, checked for m >= 4 pairs."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
    if len(points) != len(pixels):
        raise ValueError("points and pixels length mismatch")
    if len(points) < 4:
        raise InsufficientDataError(f"need >= 4 correspondences, got {len(points)}")
    return points, pixels


def rotation_angle(r: np.ndarray) -> float:
    """Geodesic angle of a rotation matrix, radians; an array for a stack (..., 3, 3)."""
    c = (np.trace(r, axis1=-2, axis2=-1) - 1.0) / 2.0
    angle = np.arccos(np.clip(c, -1.0, 1.0))
    return float(angle) if angle.ndim == 0 else angle


def pose_errors(est_rot, est_trans, truth_rot, truth_trans) -> tuple[np.ndarray, np.ndarray]:
    """(rotation errors rad, translation errors m) of each pair of two pose stacks.

    Rotations are (P, 3, 3) and translations (P, 3).

    The translation norm is the square root of a dot product, as
    np.linalg.norm takes of one vector, so each pair's errors are bitwise
    what it gives alone.
    """
    d = est_trans - truth_trans
    return (
        rotation_angle(est_rot @ truth_rot.swapaxes(-1, -2)),
        np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0]),
    )


def pose_error(estimate: Pose, truth: Pose) -> tuple[float, float]:
    """(rotation error rad, translation error m) between two poses: pose_errors of one pair."""
    r_err, t_err = pose_errors(estimate.rotation[None], estimate.translation[None],
                               truth.rotation[None], truth.translation[None])
    return float(r_err[0]), float(t_err[0])
