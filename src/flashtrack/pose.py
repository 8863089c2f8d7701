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
a row. Trial poses stay raw (R, t) arrays; only the returned pose is
built, and checked, as a Pose.

A run's poses come from solve_pnp_frames. Its frames of six or more
points ignore their start, so they do not depend on each other: they are
grouped by point count and solved in stacks of at most FRAME_CHUNK
frames, through one batched DLT and one refinement. Frames of four or
five points follow in order, each handed the previous frame's result as
its start. The batch is exact, not an approximation: every batched step
acts on each seed's own matrices with the LAPACK and BLAS call that seed
would get alone, and reductions run along each seed's own axis, so a
frame's pose is bitwise the one solve_pnp gives it, whatever shares its
stack. A singular damped system makes numpy's batched solve raise for the
whole stack; the stack is then solved seed by seed and only the singular
seed takes the least-norm (pinv) step, so that one frame's pose never
depends on which other frames share its batch.

Pixels are (row, col) everywhere: col = fx * x / z + cx and
row = fy * y / z + cy. project_points projects many points as one stack
of (1, 3) rows, each times R^T, which is the product project takes for
one point; the plain (m, 3) @ R^T product runs another BLAS kernel that
can round the last bit differently, and a simulated frame's pixels must
stay the ones project gives.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# most frames of one point count solve_pnp_frames refines as one stack; it
# bounds the stack's arrays and leaves every result as it is
FRAME_CHUNK = 256


class DegenerateConfigurationError(ValueError):
    """Point set is coplanar; pose recovery would be ambiguous."""


class InsufficientDataError(ValueError):
    """Fewer correspondences than the minimum of four."""


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    image_size: tuple[int, int] | None = None

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")


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
        # written so that a NaN fails each test; huge or non-finite entries
        # fail it without an overflow or invalid-value warning
        with np.errstate(over="ignore", invalid="ignore"):
            orthonormal = np.abs(r @ r.T - np.eye(3)).max() <= ORTHONORMALITY_TOL
        if not orthonormal:
            raise ValueError("rotation is not orthonormal")
        if not abs(np.linalg.det(r) - 1.0) <= ORTHONORMALITY_TOL:
            raise ValueError("rotation determinant is not +1")
        if not np.isfinite(t).all():
            raise ValueError("translation is not finite")

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


def _nearest_rotation(m: np.ndarray) -> np.ndarray:
    """Closest proper rotation to each 3x3 matrix of a stack (..., 3, 3)."""
    u, _, vt = np.linalg.svd(m)
    u[..., :, 2] *= np.sign(np.linalg.det(u @ vt))[..., None]
    return u @ vt


def project_points(K: CameraIntrinsics, rotation, translation, points
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Pixels (..., m, 2) and camera depths (..., m) of world points (m, 3).

    rotation (..., 3, 3) and translation (..., 3) are a pose's arrays, or
    a stack of poses'. Each point goes through each pose as its own (1, 3)
    row of a stack (..., m, 1, 3), the product project takes for one
    point, so every pixel is bitwise project's. A pixel at nonpositive
    depth means nothing.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 1, 3)
    rotation, translation = np.asarray(rotation), np.asarray(translation)
    cam = points @ rotation.swapaxes(-1, -2)[..., None, :, :] + translation[..., None, None, :]
    x, y, z = np.moveaxis(cam[..., 0, :], -1, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.stack([K.fy * y / z + K.cy, K.fx * x / z + K.cx], axis=-1), z


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


def _residuals(K, cam: np.ndarray, pixels) -> np.ndarray:
    """Stacked (row, col) errors (..., 2m) of camera points (..., m, 3) at pixels (..., m, 2)."""
    z = cam[..., 2]
    res = np.empty(cam.shape[:-1] + (2,))
    res[..., 0] = K.fy * cam[..., 1] / z + K.cy - pixels[..., 0]
    res[..., 1] = K.fx * cam[..., 0] / z + K.cx - pixels[..., 1]
    return res.reshape(cam.shape[:-2] + (2 * cam.shape[-2],))


def _jacobian(K, cam: np.ndarray) -> np.ndarray:
    """Jacobian (..., 2m, 6) of _residuals over (rotation increment, translation).

    The increment acts in camera frame: Xc' = exp(w) Xc + dt, so
    dXc/dw = -[Xc]x and dXc/dt = I.
    """
    iz = 1.0 / cam[..., 2]
    u, v = cam[..., 0] * iz, cam[..., 1] * iz
    jac = np.zeros(cam.shape[:-1] + (2, 6))
    row, col = jac[..., 0, :], jac[..., 1, :]
    row[..., 0], row[..., 1], row[..., 2] = -K.fy * (1.0 + v * v), K.fy * u * v, K.fy * u
    row[..., 4], row[..., 5] = K.fy * iz, -K.fy * v * iz
    col[..., 0], col[..., 1], col[..., 2] = -K.fx * u * v, K.fx * (1.0 + u * u), -K.fx * v
    col[..., 3], col[..., 5] = K.fx * iz, -K.fx * u * iz
    return jac.reshape(cam.shape[:-2] + (2 * cam.shape[-2], 6))


def _camera(rot: np.ndarray, trans: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Camera-frame points (S, m, 3) for a stack of poses (S, 3, 3), (S, 3)."""
    return points @ rot.swapaxes(-1, -2) + trans[:, None, :]


def reprojection_residuals(K, pose, points, pixels) -> np.ndarray:
    """Stacked (row, col) reprojection errors in pixels."""
    return _residuals(K, pose.transform(points), pixels)


def reprojection_jacobian(K, pose, points) -> np.ndarray:
    """Jacobian of the residuals over (rotation increment, translation)."""
    return _jacobian(K, pose.transform(points))


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
    res = _residuals(K, cam, pixels)
    cost = (res * res).sum(axis=-1)
    hess, grad = _normal_equations(_jacobian(K, cam), res)
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
        cand_rot = _nearest_rotation(dr @ rot)
        cand_trans = (dr @ trans[..., None])[..., 0] + delta[:, 3:]
        cam = _camera(cand_rot, cand_trans, points)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            res = _residuals(K, cam, pixels)
            cand_cost = (res * res).sum(axis=-1)
            cand_hess, cand_grad = _normal_equations(_jacobian(K, cam), res)
        ok = (cam[..., 2] > 0).all(axis=-1) & (cand_cost <= cost)
        rot = np.where(ok[:, None, None], cand_rot, rot)
        trans = np.where(ok[:, None], cand_trans, trans)
        cost = np.where(ok, cand_cost, cost)
        hess = np.where(ok[:, None, None], cand_hess, hess)
        grad = np.where(ok[:, None], cand_grad, grad)
        lam = np.where(ok, np.where(lam > 1e-12, lam / 10.0, 0.0), np.maximum(lam * 10.0, 1e-6))
        retries = np.where(ok, 0, retries + 1)
        steps = steps + ok


def _dlt_stack_poses(K, points, pixels) -> list[Pose | None]:
    """solve_pnp of each 6+ point problem of a stack (F, m, 3), (F, m, 2).

    A direct linear transform gives each problem's start, refined as one
    stack. None where solve_pnp raises DegenerateConfigurationError:
    coplanar points, no start (the projection's depth row has no positive
    finite norm), or a start with a point behind the camera.
    """
    poses: list[Pose | None] = [None] * len(points)
    kept = np.flatnonzero(~_coplanar(points))
    if not kept.size:
        return poses
    points, pixels = points[kept], pixels[kept]
    u = (pixels[..., 1] - K.cx) / K.fx
    v = (pixels[..., 0] - K.cy) / K.fy
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
    rot, trans = _nearest_rotation(p[:, :, :3]), p[:, :, 3]
    kept, points, pixels = kept[started], points[started], pixels[started]
    front = (_camera(rot, trans, points)[..., 2] > 0).all(axis=-1)
    rot, trans, _ = _refine_stack(K, rot[front], trans[front], points[front], pixels[front])
    for i, r, t in zip(kept[front], rot, trans):
        poses[i] = Pose(r, t)
    return poses


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
    if _coplanar(points):
        raise DegenerateConfigurationError("points are coplanar")

    if len(points) >= 6:
        pose = _dlt_stack_poses(K, points[None], pixels[None])[0]
        if pose is None:
            raise DegenerateConfigurationError(
                "no DLT start: its depth row is zero or not finite, or a point is behind")
        return pose
    if start is not None:
        rot, trans = start.rotation[None], start.translation[None]
        if (_camera(rot, trans, points)[..., 2] > 0).all():
            rot, trans, cost = _refine_stack(K, rot, trans, points, pixels)
            if cost[0] <= 2 * len(points) * WARM_RMS_PX**2:
                return Pose(rot[0], trans[0])
    rot, trans = _seed_poses(points)
    front = (_camera(rot, trans, points)[..., 2] > 0).all(axis=-1)
    if not front.any():
        raise DegenerateConfigurationError("no candidate kept all points in front")
    rot, trans, cost = _refine_stack(K, rot[front], trans[front], points, pixels)
    best = int(np.argmin(cost))  # first seed wins a tie
    return Pose(rot[best], trans[best])


def solve_pnp_frames(K: CameraIntrinsics, frames) -> list[Pose | None]:
    """solve_pnp over a run of frames, each (points, pixels) or None.

    Gives what a loop of solve_pnp(K, points, pixels, start=previous
    result) gives, bitwise: a Pose per frame, or None for a None frame and
    where solve_pnp raises DegenerateConfigurationError. Frames of 6 or
    more points ignore their start, so they are solved first, stacked by
    point count in chunks of at most FRAME_CHUNK; frames of 4 or 5 points
    follow in order, each started from the previous frame's result.
    """
    problems = [None if f is None else _correspondences(*f) for f in frames]
    poses: list[Pose | None] = [None] * len(problems)
    stacks: dict[int, list[int]] = {}
    for i, problem in enumerate(problems):
        if problem is not None and len(problem[0]) >= 6:
            stacks.setdefault(len(problem[0]), []).append(i)
    for stack in stacks.values():
        for lo in range(0, len(stack), FRAME_CHUNK):
            chunk = stack[lo : lo + FRAME_CHUNK]
            points, pixels = (np.stack(a) for a in zip(*(problems[i] for i in chunk)))
            for i, pose in zip(chunk, _dlt_stack_poses(K, points, pixels)):
                poses[i] = pose
    for i, problem in enumerate(problems):
        if problem is not None and len(problem[0]) < 6:
            try:
                poses[i] = solve_pnp(K, *problem, start=poses[i - 1] if i else None)
            except DegenerateConfigurationError:
                pass
    return poses


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
