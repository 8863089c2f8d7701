"""Pose recovery: projection, PnP solve, Jacobian, degeneracy."""

import numpy as np
import pytest

from flashtrack import pose
from flashtrack.pose import (
    CameraIntrinsics,
    DegenerateConfigurationError,
    InsufficientDataError,
    Pose,
    exp_so3,
    log_so3,
    pose_error,
    project,
    project_points,
    reprojection_jacobian,
    reprojection_residuals,
    rotation_angle,
    solve_pnp,
)

K = CameraIntrinsics(600.0, 600.0, 320.0, 240.0)


def random_pose(rng) -> Pose:
    w = rng.normal(0.0, 0.4, 3)
    return Pose(exp_so3(w), rng.normal([0, 0, 4.0], [0.3, 0.3, 0.5]))


def cube_points(side=1.0):
    h = side / 2.0
    return np.array(
        [[x, y, z] for x in (-h, h) for y in (-h, h) for z in (-h, h)]
    )


class TestPoseType:
    def test_identity(self):
        p = Pose.identity()
        assert np.allclose(p.rotation, np.eye(3))
        assert np.allclose(p.translation, 0.0)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 2.0, [0, 0, 0])

    # a refused rotation raises no overflow or invalid-value warning first
    @pytest.mark.filterwarnings("error")
    def test_non_finite_rotation_rejected(self):
        for bad in (np.full((3, 3), np.nan), np.where(np.eye(3) == 1, np.inf, 0.0)):
            with pytest.raises(ValueError, match="orthonormal"):
                Pose(bad, [0, 0, 0])

    @pytest.mark.filterwarnings("error")
    def test_huge_rotation_rejected(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Pose(np.diag([1e200, 1.0, 1.0]), [0, 0, 0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_translation_rejected(self, value):
        with pytest.raises(ValueError, match="translation"):
            Pose(np.eye(3), [0.0, value, 4.0])

    def test_reflection_rejected(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Pose(r, [0, 0, 0])

    def test_transform_applies_rigid_motion(self):
        p = Pose(exp_so3([0, 0, np.pi / 2]), [1.0, 0.0, 0.0])
        out = p.transform(np.array([[1.0, 0.0, 0.0]]))
        assert np.allclose(out, [[1.0, 1.0, 0.0]], atol=1e-12)


class TestProjection:
    def test_pinhole_row_col_convention(self):
        # x maps to columns via fx, y to rows via fy
        pose = Pose.identity()
        row, col = project(K, pose, np.array([0.1, 0.2, 2.0]))
        assert col == pytest.approx(600.0 * 0.1 / 2.0 + 320.0)
        assert row == pytest.approx(600.0 * 0.2 / 2.0 + 240.0)

    def test_point_behind_camera_rejected(self):
        pose = Pose.identity()
        with pytest.raises(ValueError):
            project(K, pose, np.array([0.0, 0.0, -1.0]))

    def test_matches_homogeneous_matrix_oracle(self):
        rng = np.random.default_rng(3)
        pose = random_pose(rng)
        pts = rng.normal(0.0, 0.5, (10, 3))
        m = np.eye(4)
        m[:3, :3] = pose.rotation
        m[:3, 3] = pose.translation
        for p in pts:
            cam = (m @ np.append(p, 1.0))[:3]
            want = (
                600.0 * cam[1] / cam[2] + 240.0,
                600.0 * cam[0] / cam[2] + 320.0,
            )
            got = project(K, pose, p)
            assert np.allclose(got, want, atol=1e-12)

    def test_stacked_projection_is_project_bitwise(self):
        """project_points on 24 points equals project on each, to the bit.

        Each point must go through the pose as its own (1, 3) row: the
        plain (24, 3) @ R.T product rounds differently in the last bit, so
        a switch to it fails here. Points behind the camera have
        nonpositive depth in the stack where project raises.
        """
        rng = np.random.default_rng(14)
        behind = 0
        for _ in range(200):
            pose = Pose(exp_so3(rng.normal(0.0, 1.5, 3)), rng.normal(0.0, 2.0, 3))
            pts = rng.normal(0.0, 3.0, (24, 3))
            pixels, depth = project_points(K, pose.rotation, pose.translation, pts)
            for p, pixel, z in zip(pts, pixels, depth):
                # project as it was before project_points existed: one (1, 3) row
                x, y, want_z = pose.transform(p.reshape(1, 3))[0]
                assert z == want_z
                if z <= 0:
                    behind += 1
                    with pytest.raises(ValueError, match="nonpositive depth"):
                        project(K, pose, p)
                    continue
                assert np.array_equal(pixel, project(K, pose, p))
                assert np.array_equal(pixel, [K.fy * y / z + K.cy, K.fx * x / z + K.cx])
        assert behind > 100

    def test_pose_stack_is_each_pose_bitwise(self):
        """project_points of a stack of poses is project_points of each."""
        rng = np.random.default_rng(15)
        rot = exp_so3(rng.normal(0.0, 1.5, (30, 3)))
        trans = rng.normal(0.0, 2.0, (30, 3))
        pts = rng.normal(0.0, 3.0, (24, 3))
        pixels, depth = project_points(K, rot, trans, pts)
        assert pixels.shape == (30, 24, 2) and depth.shape == (30, 24)
        for r, t, pixel, z in zip(rot, trans, pixels, depth):
            want_pixel, want_z = project_points(K, r, t, pts)
            assert np.array_equal(pixel, want_pixel) and np.array_equal(z, want_z)

    # a point on the camera plane divides by zero depth without a warning
    @pytest.mark.filterwarnings("error")
    def test_zero_depth_projects_without_warning(self):
        pts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        pixels, depth = project_points(K, np.eye(3), np.zeros(3), pts)
        assert depth.tolist() == [0.0, 0.0]
        assert not np.isfinite(pixels).any()
        assert not K.sees(pixels, depth).any()

    def test_rays_invert_pixels(self):
        rng = np.random.default_rng(16)
        cam = rng.normal([0.0, 0.0, 4.0], [1.0, 1.0, 2.0], (50, 3))
        cam[:, 2] = np.abs(cam[:, 2]) + 0.1
        rays = K.rays(K.pixels(cam))
        assert rays.shape == (50, 2)
        assert np.allclose(rays, cam[:, :2] / cam[:, 2:], rtol=0.0, atol=1e-14)

    def test_sees_at_the_image_edges(self):
        bounded = CameraIntrinsics(600.0, 600.0, 320.0, 240.0, image_size=(480, 640))
        pixels = np.array([[0.0, 10.0], [480.0, 10.0], [10.0, -1e-9], [10.0, 639.5], [10.0, 10.0]])
        depth = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
        # row 0 is in view, row = rows is not, a negative col is not, depth 0 is not
        assert bounded.sees(pixels, depth).tolist() == [True, False, False, True, False]

    def test_sees_without_image_size_bounds_by_depth_only(self):
        pixels = np.array([[-1e6, 1e6], [5e3, -5e3], [0.0, 0.0], [1.0, 1.0]])
        depth = np.array([1.0, 2.0, -1.0, 0.0])
        assert K.image_size is None
        assert K.sees(pixels, depth).tolist() == [True, True, False, False]


class TestSolvePnp:
    def test_recovers_pose_from_cube(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            truth = random_pose(rng)
            pts = cube_points()
            pix = np.array([project(K, truth, p) for p in pts])
            est = solve_pnp(K, pts, pix)
            r_err, t_err = pose_error(est, truth)
            assert r_err < 1e-6 and t_err < 1e-6

    def test_recovers_from_minimal_four_points(self):
        rng = np.random.default_rng(1)
        pts = np.array(
            [[0.5, 0.4, 0.1], [-0.5, 0.3, -0.2], [0.2, -0.5, 0.3], [-0.3, -0.4, -0.4]]
        )
        for _ in range(5):
            truth = random_pose(rng)
            pix = np.array([project(K, truth, p) for p in pts])
            est = solve_pnp(K, pts, pix)
            pix_back = np.array([project(K, est, p) for p in pts])
            assert np.allclose(pix_back, pix, atol=1e-4)

    def test_noise_degrades_gracefully(self):
        rng = np.random.default_rng(2)
        truth = Pose.identity().__class__(np.eye(3), [0.0, 0.0, 4.0])
        pts = cube_points()
        pix = np.array([project(K, truth, p) for p in pts])
        errs = []
        for sigma in (0.01, 0.04):
            est = solve_pnp(K, pts, pix + rng.normal(0, sigma, pix.shape))
            errs.append(pose_error(est, truth)[1])
        assert errs[0] < 0.01 and errs[1] < 0.05

    def test_coplanar_points_raise(self):
        pts = np.array(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0],
             [0.5, 0.2, 0.0], [0.2, 0.8, 0.0]]
        )
        truth = Pose(np.eye(3), [0.0, 0.0, 4.0])
        pix = np.array([project(K, truth, p) for p in pts])
        with pytest.raises(DegenerateConfigurationError):
            solve_pnp(K, pts, pix)

    def test_dlt_on_a_cube_scaled_past_the_svd_range_raises(self):
        # at 1e200 the DLT's depth row comes out with norm 0
        truth = Pose(exp_so3([0.1, -0.2, 0.05]), np.array([0.1, -0.2, 4.0]) * 1e200)
        pts = cube_points() * 1e200
        pix = np.array([project(K, truth, p) for p in pts])
        with pytest.raises(DegenerateConfigurationError, match="depth row"):
            solve_pnp(K, pts, pix)

    @pytest.mark.xfail(
        strict=True,
        reason="the DLT start is not normalised: at 1e16 it raises 'no candidate kept all "
        "points in front', at 1e20 it returns a translation 1.97x the scale off",
    )
    @pytest.mark.parametrize("scale", [1e16, 1e20])
    def test_dlt_on_a_scaled_cube_is_scale_free(self, scale):
        self.assert_scaled_cube_solved(8, scale)

    @pytest.mark.parametrize("scale", [1.0, 1e16, 1e20, 1e60])
    def test_fan_on_a_scaled_cube_is_scale_free(self, scale):
        self.assert_scaled_cube_solved(5, scale)

    @staticmethod
    def assert_scaled_cube_solved(corners, scale):
        truth = Pose(exp_so3([0.1, -0.2, 0.05]), np.array([0.1, -0.2, 4.0]) * scale)
        pts = cube_points()[:corners] * scale
        pix = np.array([project(K, truth, p) for p in pts])
        r_err, t_err = pose_error(solve_pnp(K, pts, pix), truth)
        assert r_err < 1e-6 and t_err < 1e-6 * scale

    def test_fewer_than_four_points_raise(self):
        pts = cube_points()[:3]
        truth = Pose(np.eye(3), [0.0, 0.0, 4.0])
        pix = np.array([project(K, truth, p) for p in pts])
        with pytest.raises(InsufficientDataError):
            solve_pnp(K, pts, pix)


@pytest.fixture
def solve_calls(monkeypatch):
    """Right-hand sides handed to the linear solve, in call order."""
    calls = []
    real_solve = np.linalg.solve

    def recording_solve(a, b):
        calls.append(np.array(b, copy=True))
        return real_solve(a, b)

    monkeypatch.setattr(pose.np.linalg, "solve", recording_solve)
    return calls


class TestRefinement:
    """The one Levenberg-Marquardt routine over a stack of starting poses."""

    def five_point_problem(self, seed=6):
        rng = np.random.default_rng(seed)
        pts = cube_points()[[0, 1, 2, 4, 7]]
        truth = random_pose(rng)
        pix = np.array([project(K, truth, p) for p in pts])
        return pts, pix + rng.normal(0.0, 0.5, pix.shape)

    def test_batched_fan_matches_seeds_refined_alone(self):
        pts, pix = self.five_point_problem()
        rot, trans = pose._seed_poses(pts)
        front = (pose._camera(rot, trans, pts)[..., 2] > 0).all(axis=-1)
        rot, trans = rot[front], trans[front]
        assert len(rot) > 1
        b_rot, b_trans, b_cost = pose._refine_stack(K, rot, trans, pts, pix)
        alone = [
            pose._refine_stack(K, rot[i : i + 1], trans[i : i + 1], pts, pix)
            for i in range(len(rot))
        ]
        a_cost = np.array([a[2][0] for a in alone])
        np.testing.assert_allclose(b_cost, a_cost, rtol=1e-9)
        best = int(np.argmin(a_cost))
        assert int(np.argmin(b_cost)) == best
        est = solve_pnp(K, pts, pix)
        assert np.allclose(est.rotation, alone[best][0][0], atol=1e-9)
        assert np.allclose(est.translation, alone[best][1][0], atol=1e-9)

    def test_exact_cube_needs_at_most_two_rejected_steps(self, solve_calls):
        # a rejected step leaves the pose, so the next solve repeats its
        # right-hand side; the last solve is counted as rejected too
        rhs = solve_calls
        rng = np.random.default_rng(0)
        for _ in range(10):
            truth = random_pose(rng)
            pts = cube_points()
            pix = np.array([project(K, truth, p) for p in pts])
            rhs.clear()
            solve_pnp(K, pts, pix)
            repeats = sum(np.array_equal(a, b) for a, b in zip(rhs, rhs[1:]))
            assert rhs and repeats + 1 <= 2

    def test_seeds_stopping_at_different_iterations_keep_their_own_result(self, solve_calls):
        pts, pix = self.five_point_problem(seed=8)
        best = solve_pnp(K, pts, pix)
        rot = np.stack(
            [best.rotation, exp_so3([0.05, -0.02, 0.03]) @ best.rotation,
             exp_so3([0.4, 0.3, -0.2]) @ best.rotation]
        )
        trans = best.translation + np.array([[0.0], [0.05], [-0.4]])
        alone, counts = [], []
        for i in range(3):
            solve_calls.clear()
            alone.append(pose._refine_stack(K, rot[i : i + 1], trans[i : i + 1], pts, pix))
            counts.append(len(solve_calls))
        assert len(set(counts)) == 3, counts
        b_rot, b_trans, b_cost = pose._refine_stack(K, rot, trans, pts, pix)
        for i, (a_rot, a_trans, a_cost) in enumerate(alone):
            np.testing.assert_allclose(b_rot[i], a_rot[0], rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(b_trans[i], a_trans[0], rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(b_cost[i], a_cost[0], rtol=1e-9)
        # the seed started at the optimum stays there
        np.testing.assert_allclose(b_trans[0], best.translation, atol=1e-9)


def f3_problem():
    """bench/README.md F3: five flashers on a 3 m arc, camera at identity, f = 300."""
    k = CameraIntrinsics(300.0, 300.0, 320.0, 240.0)
    bearing = np.radians([-40.0, -20.0, 0.0, 20.0, 40.0])
    heights = [-0.8, 0.5, -0.2, 0.9, -0.5]
    pts = np.column_stack([3.0 * np.sin(bearing), heights, 3.0 * np.cos(bearing)])
    pix = np.array([project(k, Pose.identity(), p) for p in pts])
    return k, pts, pix


def max_pose_gap(a: Pose, b: Pose) -> float:
    return max(np.abs(a.rotation - b.rotation).max(), np.abs(a.translation - b.translation).max())


def assert_bitwise_equal(a: Pose, b: Pose):
    assert np.array_equal(a.rotation, b.rotation) and np.array_equal(a.translation, b.translation)


class TestWarmStart:
    """A start pose is refined alone at 4-5 points and ignored at 6+."""

    def near(self, p: Pose) -> Pose:
        return Pose(exp_so3([0.03, -0.02, 0.01]) @ p.rotation, p.translation + [0.05, -0.04, 0.1])

    @pytest.mark.xfail(
        strict=True,
        reason="F3: the cold 13-seed fan ends 3.0 m off at cost 5.5e4 px^2 without raising",
    )
    def test_f3_cold_fan_finds_the_truth(self):
        k, pts, pix = f3_problem()
        assert max_pose_gap(solve_pnp(k, pts, pix), Pose.identity()) < 1e-9

    def test_f3_warm_start_near_truth_recovers_it(self):
        k, pts, pix = f3_problem()
        est = solve_pnp(k, pts, pix, start=self.near(Pose.identity()))
        assert max_pose_gap(est, Pose.identity()) < 1e-9

    def test_ignored_at_six_or_more_points(self):
        rng = np.random.default_rng(5)
        truth = random_pose(rng)
        pts = cube_points()
        pix = np.array([project(K, truth, p) for p in pts]) + rng.normal(0.0, 0.5, (8, 2))
        for m in (6, 8):
            cold = solve_pnp(K, pts[:m], pix[:m])
            assert_bitwise_equal(solve_pnp(K, pts[:m], pix[:m], start=self.near(truth)), cold)

    def test_start_behind_camera_gives_the_cold_result(self, solve_calls):
        pts, pix = TestRefinement().five_point_problem()
        cold = solve_pnp(K, pts, pix)
        cold_solves = len(solve_calls)
        solve_calls.clear()
        behind = Pose(np.eye(3), [0.0, 0.0, -10.0])
        assert_bitwise_equal(solve_pnp(K, pts, pix, start=behind), cold)
        assert len(solve_calls) == cold_solves

    def test_start_refined_above_the_gate_gives_the_cold_result(self, solve_calls):
        # 5 px noise leaves even the optimum far above 2 * m * WARM_RMS_PX^2
        rng = np.random.default_rng(6)
        truth = random_pose(rng)
        pts = cube_points()[[0, 1, 2, 4, 7]]
        pix = np.array([project(K, truth, p) for p in pts]) + rng.normal(0.0, 5.0, (5, 2))
        cold = solve_pnp(K, pts, pix)
        solve_calls.clear()
        assert_bitwise_equal(solve_pnp(K, pts, pix, start=self.near(truth)), cold)
        # the refined start ran, then the fan
        assert solve_calls[0].shape[0] == 1 and max(c.shape[0] for c in solve_calls) > 1

    def test_accepted_start_skips_the_fan(self, solve_calls):
        pts, pix = TestRefinement().five_point_problem()
        cold = solve_pnp(K, pts, pix)
        solve_calls.clear()
        est = solve_pnp(K, pts, pix, start=self.near(cold))
        assert solve_calls and all(c.shape[0] == 1 for c in solve_calls)
        assert max_pose_gap(est, cold) < 1e-9


class TestJacobian:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(4)
        pose = random_pose(rng)
        pts = cube_points()
        pix = np.array([project(K, pose, p) for p in pts]) + rng.normal(
            0, 0.5, (8, 2)
        )
        jac = reprojection_jacobian(K, pose, pts)
        eps = 1e-6
        num = np.zeros_like(jac)
        for k in range(6):
            delta = np.zeros(6)
            delta[k] = eps
            dr = exp_so3(delta[:3])
            plus = Pose(dr @ pose.rotation, dr @ pose.translation + delta[3:])
            dr = exp_so3(-delta[:3])
            minus = Pose(dr @ pose.rotation, dr @ pose.translation - delta[3:])
            num[:, k] = (
                reprojection_residuals(K, plus, pts, pix)
                - reprojection_residuals(K, minus, pts, pix)
            ) / (2 * eps)
        rel = np.linalg.norm(jac - num) / np.linalg.norm(num)
        assert rel < 1e-5


class TestHelpers:
    def test_rotation_angle(self):
        assert rotation_angle(np.eye(3)) == pytest.approx(0.0)
        assert rotation_angle(exp_so3([0.3, 0, 0])) == pytest.approx(0.3)

    def test_log_inverts_exp_below_pi(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            w = rng.normal(0.0, 1.0, 3)
            w *= rng.uniform(1e-6, np.pi - 1e-3) / np.linalg.norm(w)
            assert np.allclose(log_so3(exp_so3(w)), w, rtol=0.0, atol=1e-9)

    def test_log_of_identity_is_zero(self):
        assert np.array_equal(log_so3(np.eye(3)), np.zeros(3))

    def test_pose_error_zero_for_identical(self):
        p = Pose(exp_so3([0.1, 0.2, 0.3]), [1, 2, 3])
        r_err, t_err = pose_error(p, p)
        # arccos near the identity amplifies float eps to ~sqrt(eps)
        assert r_err == pytest.approx(0.0, abs=1e-7)
        assert t_err == 0.0

    def test_stacked_pose_errors_are_each_pair_bitwise(self):
        """pose_errors over stacks gives, pair by pair, the angle of R_est R_true^T
        and np.linalg.norm of the translation gap, to the bit."""
        rng = np.random.default_rng(16)
        truth = exp_so3(rng.normal(0.0, 1.0, (40, 3)))
        est = exp_so3(rng.normal(0.0, 1e-4, (40, 3))) @ truth
        truth_t, est_t = rng.normal(0.0, 3.0, (2, 40, 3))
        est_t[:20] = truth_t[:20] + rng.normal(0.0, 1e-6, (20, 3))
        rad, metres = pose.pose_errors(est, est_t, truth, truth_t)
        for i in range(40):
            c = (np.trace(est[i] @ truth[i].T) - 1.0) / 2.0
            want = (float(np.arccos(np.clip(c, -1.0, 1.0))),
                    float(np.linalg.norm(est_t[i] - truth_t[i])))
            assert (rad[i], metres[i]) == want
            assert pose_error(Pose(est[i], est_t[i]), Pose(truth[i], truth_t[i])) == want


def solve_loop(k, frames):
    """solve_pnp frame by frame, each started from the previous frame's result."""
    poses, previous = [], None
    for frame in frames:
        try:
            previous = None if frame is None else solve_pnp(k, *frame, start=previous)
        except DegenerateConfigurationError:
            previous = None
        poses.append(previous)
    return poses


def frame_sequence(count=15, seed=9):
    """Frames of a camera moving past a cloud, in a fixed cycle of point counts.

    The cycle holds None, 4 to 8 points, a coplanar frame, and a 7-point
    frame with two points behind the camera, which the DLT cannot start.
    """
    rng = np.random.default_rng(seed)
    cloud = np.vstack([cube_points(), rng.normal(0.0, 0.4, (4, 3))])
    cycle = [None, 4, 5, 6, 5, 7, 8, "coplanar", 5, "behind", 4, 8, 5, 6, 6]
    frames = []
    for i in range(count):
        kind = cycle[i % len(cycle)]
        truth = Pose(exp_so3([0.02 * i, -0.01 * i, 0.005 * i]), [0.01 * i, -0.02, 4.0])
        if kind is None:
            frames.append(None)
            continue
        if kind == "coplanar":
            pts = np.column_stack([rng.uniform(-0.5, 0.5, (6, 2)), np.zeros(6)])
        elif kind == "behind":
            pts = np.vstack([cloud[:5], [[0.1, 0.2, -4.5], [-0.2, 0.1, -5.0]]])
        else:
            pts = cloud[rng.permutation(len(cloud))[:kind]]
        cam = truth.transform(pts)
        pix = np.column_stack(
            [K.fy * cam[:, 1] / cam[:, 2] + K.cy, K.fx * cam[:, 0] / cam[:, 2] + K.cx])
        frames.append((pts, pix + rng.normal(0.0, 0.3, pix.shape)))
    return frames


def assert_same_poses(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a is None) == (b is None)
        if a is not None:
            assert_bitwise_equal(a, b)


class TestSolvePnpFrames:
    """A run's frames solved in one call, 6+ point frames as stacks."""

    def test_matches_a_warm_started_loop_bitwise(self):
        frames = frame_sequence()
        got = pose.solve_pnp_frames(K, frames)
        assert_same_poses(got, solve_loop(K, frames))
        kinds = [None if f is None else len(f[0]) for f in frames]
        # every kind of frame is there: a result for each point count, and
        # None for the coplanar frame and the one the DLT leaves behind the camera
        assert {m for m, p in zip(kinds, got) if p is not None} == {4, 5, 6, 7, 8}
        assert got[7] is None and got[9] is None and kinds[7] == 6 and kinds[9] == 7
        # the 5-point frame after the coplanar one starts cold, others warm
        assert got[6] is not None and got[8] is not None

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_chunking_leaves_the_results(self, monkeypatch, chunk):
        frames = frame_sequence(count=40, seed=10)
        want = pose.solve_pnp_frames(K, frames)
        monkeypatch.setattr(pose, "FRAME_CHUNK", chunk)
        assert_same_poses(pose.solve_pnp_frames(K, frames), want)

    def test_empty_run_and_frames_without_points(self):
        assert pose.solve_pnp_frames(K, []) == []
        assert pose.solve_pnp_frames(K, [None, None]) == [None, None]

    def test_too_few_points_raise(self):
        pts = cube_points()[:3]
        with pytest.raises(InsufficientDataError):
            pose.solve_pnp_frames(K, [None, (pts, np.zeros((3, 2)))])


class TestStackedRefinement:
    def test_empty_stack_returns_at_once(self):
        rot, trans, cost = pose._refine_stack(K, np.empty((0, 3, 3)), np.empty((0, 3)),
                                              cube_points(), np.zeros((8, 2)))
        assert rot.shape == (0, 3, 3) and trans.shape == (0, 3) and cost.shape == (0,)

    def test_singular_seed_leaves_the_other_seeds_alone(self, monkeypatch):
        # seed 1 sees six points at one spot on its optical axis, so two
        # columns of its Jacobian are zero and its first undamped system is
        # exactly singular; seed 0 is a well-posed 6-point problem
        rng = np.random.default_rng(11)
        truth = random_pose(rng)
        pts = np.stack([cube_points()[:6], np.tile([0.0, 0.0, 4.0], (6, 1))])
        pix = np.stack([
            np.array([project(K, truth, p) for p in pts[0]]) + rng.normal(0.0, 0.5, (6, 2)),
            np.tile([K.cy + 3.0, K.cx - 2.0], (6, 1)),
        ])
        near = Pose(exp_so3([0.03, -0.02, 0.01]) @ truth.rotation, truth.translation + 0.05)
        rot = np.stack([near.rotation, np.eye(3)])
        trans = np.stack([near.translation, np.zeros(3)])
        pinv_calls = []
        real_pinv = np.linalg.pinv
        monkeypatch.setattr(
            pose.np.linalg, "pinv", lambda a: pinv_calls.append(len(a)) or real_pinv(a))
        stacked = pose._refine_stack(K, rot, trans, pts, pix)
        assert pinv_calls and set(pinv_calls) == {1}  # only the singular seed, alone
        for i in range(2):
            alone = pose._refine_stack(K, rot[i : i + 1], trans[i : i + 1], pts[i], pix[i])
            for got, want in zip(stacked, alone):
                assert np.array_equal(got[i], want[0])
