"""Scenario inputs for the two simulate workloads, as plain dicts.

Each builder returns the JSON-ready dict that `flashtrack simulate`
reads. Trajectories are written from yaw/pitch/roll angles by this
module's own rotation code, so the benchmark's ground truth never goes
through the program's pose helpers.
"""

from __future__ import annotations

import math

import numpy as np


def rotation(yaw: float, pitch: float = 0.0, roll: float = 0.0) -> np.ndarray:
    """World-to-camera rotation for a camera turned by the given angles (rad).

    Axes follow the camera convention: x right, y down, z forward. Yaw
    turns about y, pitch about x, roll about z, applied in that order.
    """
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cp, -sp], [0.0, sp, cp]])
    rz = np.array([[cr, -sr, 0.0], [sr, cr, 0.0], [0.0, 0.0, 1.0]])
    camera_to_world = ry @ rx @ rz
    return camera_to_world.T


def knot(t: float, centre, yaw: float, pitch: float = 0.0, roll: float = 0.0) -> dict:
    """Trajectory knot for a camera at world point `centre`."""
    r = rotation(yaw, pitch, roll)
    trans = -r @ np.asarray(centre, dtype=float)
    return {
        "t_s": t,
        "rotation": r.ravel().tolist(),
        "translation_m": trans.tolist(),
    }


def _camera(f_px: float, sensor: dict, clock_ppm: float) -> dict:
    return {
        "intrinsics": {
            "fx_px": f_px,
            "fy_px": f_px,
            "cx_px": 320.0,
            "cy_px": 240.0,
            "image_size": [480, 640],
        },
        "sensor": sensor,
        "clock_ppm": clock_ppm,
    }


CUBE_FPS = 30.0
CUBE_BITS = 12


def cube() -> dict:
    """8-flasher hue cube seen by a drifting tracker that swings past it.

    The camera starts 3 m in front of the unit cube with all corners in
    view, holds for 1 s, then yaws and rolls over 1.2 s until the cube
    sits on the right image edge with only 5 corners left in the image,
    holds there for 0.6 s and swings back. Flashes move at most about
    6 px a frame, well inside the 20 px association gate and the 34 px
    between the closest corners. The tracker clock runs 2 % slow, which
    duplicates one bit every 50 frames (at most one slip per 12-bit
    code cycle). Pixels are exact.
    """
    corners = [[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (-0.5, 0.5)]
    eye = [0.0, 0.0, -3.0]
    yaw, roll = -0.38, 0.45
    return {
        "flashers": [
            {
                "id": "auto",
                "position_m": c,
                "scheme": "hue",
                "clock_ppm": 0.0,
                "bit_period_s": 1.0 / CUBE_FPS,
            }
            for c in corners
        ],
        "camera": _camera(
            600.0,
            {"kind": "ccd", "fps": CUBE_FPS, "exposure_mid_s": 0.5 / CUBE_FPS},
            -20000.0,
        ),
        "trajectory": [
            knot(0.0, eye, 0.0),
            knot(1.0, eye, 0.0),
            knot(2.2, eye, yaw, 0.0, roll),
            knot(2.8, eye, yaw, 0.0, roll),
            knot(4.0, eye, 0.0),
        ],
        "heartbeat": {"enabled": False},
        "noise": {},
        "codebook": {"bits": CUBE_BITS, "mode": "robust"},
        "duration_s": 4.0,
        "seed": 7,
    }


ROOM_FPS = 30.0
ROOM_BITS = 15
ROOM_FLASHERS = 24
ROOM_PIXEL_SIGMA = 0.3
ROOM_LEVEL_SIGMA = 2.0


def room_positions(count: int = ROOM_FLASHERS) -> np.ndarray:
    """Flashers on a 200-degree arc of wall, 2.6-3.4 m out, at mixed heights.

    A fixed layout: bearings evenly spaced, range and height following
    fixed incommensurate sequences so that no four visible flashers are
    coplanar.
    """
    out = []
    for i in range(count):
        bearing = math.radians(-100.0 + 200.0 * i / (count - 1))
        rng_m = 3.0 + 0.4 * math.sin(2.3 * i + 0.4)
        height = 0.9 * math.sin(1.7 * i + 1.1)
        out.append([rng_m * math.sin(bearing), height, rng_m * math.cos(bearing)])
    return np.array(out)


def room(noise_seed: int, duration_s: float = 6.0) -> dict:
    """Intensity-coded room panned by a rolling-shutter camera.

    24 flashers with clocks spread over +/-40 ppm, heartbeat every 2 s,
    identifiers spread within a 2 m visibility radius, level noise
    sigma 2 against a 100/20 level pair and 0.3 px pixel noise. The
    camera pans -60..+60 degrees and back with a slight tilt, so tracks
    open and close at both image edges.
    """
    positions = room_positions()
    ppm = [40.0 * math.sin(0.9 * i + 0.3) for i in range(len(positions))]
    half = duration_s / 2.0
    rows = 480
    return {
        "flashers": [
            {
                "id": "auto",
                "position_m": p.tolist(),
                "scheme": "intensity",
                "clock_ppm": ppm[i],
                "bit_period_s": 1.0 / ROOM_FPS,
            }
            for i, p in enumerate(positions)
        ],
        "camera": _camera(
            400.0,
            {
                "kind": "cmos",
                "fps": ROOM_FPS,
                "rows": rows,
                "row_readout_s": 0.8 / (ROOM_FPS * rows),
                "exposure_mid_s": 0.1 / ROOM_FPS,
            },
            25.0,
        ),
        "trajectory": [
            knot(0.0, [0.0, 0.0, 0.0], math.radians(-60.0), math.radians(4.0)),
            knot(half, [0.2, 0.0, 0.1], math.radians(60.0), math.radians(-4.0)),
            knot(duration_s, [0.0, 0.0, 0.0], math.radians(-60.0), math.radians(4.0)),
        ],
        "heartbeat": {"enabled": True, "period_s": 2.0, "timeout_s": 10.0},
        "noise": {
            "pixel_sigma": ROOM_PIXEL_SIGMA,
            "intensity_sigma": ROOM_LEVEL_SIGMA,
        },
        "codebook": {"bits": ROOM_BITS, "mode": "robust"},
        "visibility_radius_m": 2.0,
        "duration_s": duration_s,
        "seed": noise_seed,
    }
