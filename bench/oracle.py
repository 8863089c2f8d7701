"""Reference computations the benchmark checks the program against.

Nothing here imports flashtrack: code-book facts come from Burnside
counting and pure-Python rotation/error enumeration, scenario ground
truth from quaternion interpolation of the trajectory knots and a
pinhole projection written out again.
"""

from __future__ import annotations

import math

import numpy as np

# robust book sizes for n = 7..21, the reference table the acceptance
# suite pins
ROBUST_SIZES = {
    7: 2, 8: 4, 9: 3, 10: 5, 11: 6, 12: 8, 13: 12, 14: 15, 15: 25,
    16: 35, 17: 52, 18: 83, 19: 138, 20: 231, 21: 376,
}
LOCKON_FPS = (30, 45, 60, 75, 90, 120, 180, 240)


# --------------------------------------------------------------- code-books

def necklaces(n: int) -> int:
    """Binary necklaces of length n, by Burnside over the rotation group."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            phi = sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)
            total += phi * 2 ** (n // d)
    return total // n


def lockon_string(n: int, fps: int) -> str:
    hundredths = 100 * n // fps
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def rotations(bits: str) -> list[str]:
    return [bits[i:] + bits[:i] for i in range(len(bits))]


def single_errors(bits: str) -> set[str]:
    """Every flip, adjacent duplication and deletion of one bit string."""
    out = set()
    for j in range(len(bits)):
        out.add(bits[:j] + ("1" if bits[j] == "0" else "0") + bits[j + 1 :])
        out.add(bits[: j + 1] + bits[j] + bits[j + 1 :])
        out.add(bits[:j] + bits[j + 1 :])
    return out


def claim_slots(word: str, robust: bool) -> set[int]:
    """Table slots a word claims: its rotations, plus their single errors."""
    strings = set(rotations(word))
    if robust:
        for r in list(strings):
            strings |= single_errors(r)
    return {int(s, 2) for s in strings}


def check_book(n: int, words: list[str], entries, robust: bool) -> list[str]:
    """Problems with one book and its table; empty when it is sound.

    Claim sets must be pairwise disjoint, and every claimed slot must
    hold the 1-based identifier of the word that claims it.
    """
    problems = []
    owner: dict[int, int] = {}
    for ident, word in enumerate(words, start=1):
        if len(word) != n:
            problems.append(f"n={n}: word {word} has the wrong length")
        for slot in claim_slots(word, robust):
            if slot in owner:
                problems.append(f"n={n}: slot {slot} claimed by {owner[slot]} and {ident}")
            owner[slot] = ident
            if int(entries[slot]) != ident:
                problems.append(
                    f"n={n}: slot {slot} holds {int(entries[slot])}, expected {ident}"
                )
    return problems


def check_report(rows: list[dict], bits: range) -> list[str]:
    """Problems with one `codebook report` output; empty when it is right."""
    problems = []
    if [r.get("bits") for r in rows] != list(bits):
        return [f"rows cover {[r.get('bits') for r in rows]}, expected {list(bits)}"]
    for row in rows:
        n = row["bits"]
        if row["necklace_classes"] != necklaces(n):
            problems.append(f"n={n}: necklace_classes {row['necklace_classes']}")
        if row["initial_size"] != necklaces(n) - 2:
            problems.append(f"n={n}: initial_size {row['initial_size']}")
        if row.get("robust_size") != ROBUST_SIZES[n]:
            problems.append(f"n={n}: robust_size {row.get('robust_size')}")
        want = {str(f): lockon_string(n, f) for f in LOCKON_FPS}
        if row.get("lockon_s") != want:
            problems.append(f"n={n}: lockon_s {row.get('lockon_s')}")
    return problems


# ------------------------------------------------------------ ground truth

def _quaternion(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of a rotation matrix (Shepperd)."""
    tr = np.trace(r)
    if tr > 0:
        s = 2.0 * math.sqrt(tr + 1.0)
        q = [0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s]
    else:
        i = int(np.argmax(np.diag(r)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = 2.0 * math.sqrt(1.0 + r[i, i] - r[j, j] - r[k, k])
        q = [0.0, 0.0, 0.0, 0.0]
        q[0] = (r[k, j] - r[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (r[j, i] + r[i, j]) / s
        q[1 + k] = (r[k, i] + r[i, k]) / s
    q = np.array(q)
    return q / np.linalg.norm(q)


def _matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _slerp(q0: np.ndarray, q1: np.ndarray, s: float) -> np.ndarray:
    if np.dot(q0, q1) < 0:
        q1 = -q1
    c = min(1.0, float(np.dot(q0, q1)))
    angle = math.acos(c)
    if angle < 1e-12:
        return q0
    return (math.sin((1 - s) * angle) * q0 + math.sin(s * angle) * q1) / math.sin(angle)


class Trajectory:
    """Camera pose at any time: slerp between knots, linear translation."""

    def __init__(self, knots: list[dict]):
        self.times = [k["t_s"] for k in knots]
        self.rots = [np.asarray(k["rotation"], dtype=float).reshape(3, 3) for k in knots]
        self.quats = [_quaternion(r) for r in self.rots]
        self.trans = [np.asarray(k["translation_m"], dtype=float) for k in knots]

    def at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        if t <= self.times[0]:
            return self.rots[0], self.trans[0]
        if t >= self.times[-1]:
            return self.rots[-1], self.trans[-1]
        i = next(i for i in range(len(self.times) - 1) if self.times[i] <= t <= self.times[i + 1])
        s = (t - self.times[i]) / (self.times[i + 1] - self.times[i])
        rot = _matrix(_slerp(self.quats[i], self.quats[i + 1], s))
        return rot, (1 - s) * self.trans[i] + s * self.trans[i + 1]


def project(intr: dict, rot: np.ndarray, trans: np.ndarray, points: np.ndarray):
    """(rows, cols, depths) of world points under a world-to-camera pose."""
    cam = np.asarray(points, dtype=float).reshape(-1, 3) @ rot.T + trans
    z = cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = intr["fy_px"] * cam[:, 1] / z + intr["cy_px"]
        cols = intr["fx_px"] * cam[:, 0] / z + intr["cx_px"]
    return rows, cols, z


def _coplanar(points: np.ndarray) -> bool:
    centered = points - points.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    return bool(sv[-1] < 1e-6 * sv[0])


class ScenarioOracle:
    """Ground truth for one scenario dict, and the checks on its report.

    A fix is due at a frame when at least 4 non-coplanar flashers have
    been in the image on every frame of the last two code cycles. A
    reported pose is correct when it puts every identified flasher
    within `bound_px` of the flasher's noise-free pixel; the bound is
    1e-6 px plus six pixel-noise sigmas.
    """

    def __init__(self, raw: dict):
        self.raw = raw
        self.intr = raw["camera"]["intrinsics"]
        self.positions = np.array([f["position_m"] for f in raw["flashers"]], dtype=float)
        self.trajectory = Trajectory(raw["trajectory"])
        fps = raw["camera"]["sensor"]["fps"]
        cycle_s = raw["codebook"]["bits"] * raw["flashers"][0]["bit_period_s"]
        self.window = math.ceil(2.0 * cycle_s * fps - 1e-9)
        self.bound_px = 1e-6 + 6.0 * raw["noise"].get("pixel_sigma", 0.0)
        hb = raw["heartbeat"]
        if hb.get("enabled") and not hb["timeout_s"] > hb["period_s"] > 0:
            raise ValueError("the oracle assumes flashers never fall asleep")

    def pixels(self, t: float):
        rot, trans = self.trajectory.at(t)
        rows, cols, z = project(self.intr, rot, trans, self.positions)
        h, w = self.intr["image_size"]
        visible = (z > 0) & (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
        return rows, cols, visible

    def check(self, report: dict) -> dict:
        """Counts of operations and failures for one simulate report.

        Operations are frames that are due a fix or carry a pose, and
        each flasher's final lock. Raises ValueError on a report whose
        shape is wrong, which no count can stand for.
        """
        frames = report["per_frame"]
        flashers = report["per_flasher"]
        if len(flashers) != len(self.positions):
            raise ValueError(f"{len(flashers)} flashers reported, {len(self.positions)} configured")
        ids = [f["identifier"] for f in flashers]
        if len(set(ids)) != len(ids) or any(not isinstance(i, int) or i < 1 for i in ids):
            raise ValueError(f"identifiers {ids} are not distinct positive integers")
        flasher_of = {ident: k for k, ident in enumerate(ids)}
        expected = int(math.floor(self.raw["duration_s"] * self.raw["camera"]["sensor"]["fps"])) + 1
        if len(frames) != expected:
            raise ValueError(f"{len(frames)} frames reported, {expected} expected")

        out = {"frames_checked": 0, "good_fixes": 0, "flashers": len(ids),
               "failed_frames": [], "wrong_lock_flashers": []}
        run = np.zeros(len(self.positions), dtype=int)
        for entry in frames:
            rows, cols, visible = self.pixels(entry["t_s"])
            run = np.where(visible, run + 1, 0)
            steady = np.flatnonzero(run >= self.window)
            due = len(steady) >= 4 and not _coplanar(self.positions[steady])
            pose = entry["pose"]
            if not due and pose is None:
                continue
            out["frames_checked"] += 1
            good = False
            if pose is not None:
                good = self._pose_good(pose, entry["identified"], flasher_of, rows, cols)
                out["good_fixes"] += int(good)
            if not good:
                out["failed_frames"].append(entry["frame"])
        for k, fl in enumerate(flashers):
            if fl["locked_identifier"] not in (None, ids[k]):
                out["wrong_lock_flashers"].append(k)
        return out

    def _pose_good(self, pose, identified, flasher_of, rows, cols) -> bool:
        if not identified or any(i not in flasher_of for i in identified):
            return False
        ks = [flasher_of[i] for i in identified]
        rot = np.asarray(pose["rotation"], dtype=float).reshape(3, 3)
        trans = np.asarray(pose["translation_m"], dtype=float)
        er, ec, z = project(self.intr, rot, trans, self.positions[ks])
        if not (z > 0).all():
            return False
        err = np.hypot(er - rows[ks], ec - cols[ks])
        return bool(err.max() <= self.bound_px)
