"""Synthetic scene builders shared by the module tests and the acceptance suite."""

import json

import numpy as np

from rovercv.raster import Raster


def floor_box_scene(w=200, h=200, box=(80, 60, 40, 40), floor_val=200, box_val=40):
    """Bright floor with one dark box; returns (raster, truth mask 0=floor 1=obstacle)."""
    img = np.full((h, w), floor_val, dtype=np.uint8)
    x, y, bw, bh = box
    img[y:y + bh, x:x + bw] = box_val
    truth = np.zeros((h, w), dtype=np.int32)
    truth[y:y + bh, x:x + bw] = 1
    return Raster(img), truth


def stain_scene(w=200, h=200, stain=(30, 120, 24, 24), amplitude=10):
    """Floor with a dark box plus a low-amplitude checkered stain patch."""
    img = np.full((h, w), 180, dtype=np.int64)
    img[40:80, 120:170] = 40  # genuine obstacle so the threshold has two classes
    sx, sy, sw, sh = stain
    yy, xx = np.mgrid[sy:sy + sh, sx:sx + sw]
    img[sy:sy + sh, sx:sx + sw] += np.where((xx + yy) % 2 == 0, amplitude, -amplitude)
    return Raster(np.clip(img, 0, 255).astype(np.uint8)), stain


def calibration_scene(img_w=400, img_h=300, rect_w=120, rect_h=80):
    """White background with a centered black rectangle (the reference object)."""
    img = np.full((img_h, img_w), 255, dtype=np.uint8)
    x0 = (img_w - rect_w) // 2
    y0 = (img_h - rect_h) // 2
    img[y0:y0 + rect_h, x0:x0 + rect_w] = 0
    return Raster(img)


def noisy_calibration_scene():
    """A 640x480 shot of a 480x360 card with uniform integer noise in [-40, 40]
    per pixel: the card's outline breaks up into fragments and no rectangle is
    left to measure."""
    rng = np.random.default_rng(0)
    base = calibration_scene(640, 480, 480, 360).pixels.astype(np.int64)
    noisy = base + rng.integers(-40, 41, base.shape)
    return Raster(np.clip(noisy, 0, 255).astype(np.uint8))


def pinhole_render(object_width_cm, distance_cm, focal_px, img_w=400, img_h=300):
    """Ideal pinhole projection of a rectangular object onto a white image."""
    width_px = int(round(object_width_cm * focal_px / distance_cm))
    height_px = max(int(round(width_px * 0.75)), 4)
    return calibration_scene(img_w, img_h, width_px, height_px), width_px


def road_frame(w=320, h=240, left_bottom_x=60.0, right_bottom_x=260.0,
               left_top_x=140.0, right_top_x=180.0, horizon_frac=0.6):
    """Road frame with a painted boundary band at each analytic lane line.

    Each band jumps from the 100-value road to 140 exactly at the line and
    decays back inward in steps too gentle to pass the edge threshold (even
    across the staircase rows of a slanted line), so the only detectable edge
    sits on the analytic line itself. Returns (frame, truth) with the lines'
    endpoints clipped to [horizon_y, h-1].
    """
    horizon_y = int(round(horizon_frac * (h - 1)))
    img = np.full((h, w), 100, dtype=np.uint8)
    band = [140 - 3 * k for k in range(13)]

    def draw(bot_x, top_x, inward):
        for y in range(horizon_y, h):
            t = (y - horizon_y) / ((h - 1) - horizon_y)
            x = int(round(top_x + t * (bot_x - top_x)))
            for k, value in enumerate(band):
                col = x + inward * k
                if 0 <= col < w:
                    img[y, col] = value
        return {"x0": top_x, "y0": float(horizon_y), "x1": bot_x, "y1": float(h - 1)}

    truth_left = draw(left_bottom_x, left_top_x, inward=+1)
    truth_right = draw(right_bottom_x, right_top_x, inward=-1)
    return Raster(img), {"left": truth_left, "right": truth_right, "horizon_y": horizon_y}


def rasterize_segment(h, w, x0, y0, x1, y1):
    """Digital segment: dense samples of the analytic line, rounded to pixels."""
    img = np.zeros((h, w), dtype=np.uint8)
    steps = int(np.hypot(x1 - x0, y1 - y0)) * 2 + 1
    for t in np.linspace(0.0, 1.0, steps):
        x = int(round(x0 + t * (x1 - x0)))
        y = int(round(y0 + t * (y1 - y0)))
        if 0 <= x < w and 0 <= y < h:
            img[y, x] = 255
    return Raster(img)


def car_patch(rng, size=64):
    """Car-like training texture: red body with a dark lattice, lightly jittered."""
    base = np.empty((size, size, 3), dtype=np.int64)
    base[..., 0] = 170
    base[..., 1] = 45
    base[..., 2] = 45
    for y0 in range(8, size, 16):
        base[y0:y0 + 6, :] = (25, 25, 70)
    for x0 in range(8, size, 16):
        base[:, x0:x0 + 6] = (25, 25, 70)
    jitter = rng.integers(-10, 11, size=base.shape)
    return Raster(np.clip(base + jitter, 0, 255).astype(np.uint8))


def noise_patch(rng, size=64):
    return Raster(rng.integers(0, 256, size=(size, size, 3)).astype(np.uint8))


def noise_frame(rng, w=256, h=128):
    return Raster(rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8))


def frame_with_cars(rng, positions, w=256, h=128, size=64):
    """Noise frame with car textures embedded at the given (x, y) corners."""
    frame = noise_frame(rng, w, h).pixels.copy()
    truth = []
    for x, y in positions:
        frame[y:y + size, x:x + size] = car_patch(rng, size).pixels
        truth.append((x, y, size, size))
    return Raster(frame), truth


def training_set(rng, n_per_class=200):
    cars = [car_patch(rng) for _ in range(n_per_class)]
    noise = [noise_patch(rng) for _ in range(n_per_class)]
    return cars, noise


def corridor_frame(w=64, h=48, wall_px=6):
    """Ground view of a straight corridor: bright floor, dark walls at both sides."""
    img = np.full((h, w), 200, dtype=np.uint8)
    img[:, :wall_px] = 30
    img[:, w - wall_px:] = 30
    return Raster(img)


def write_replay(tmp_path, frames, motions):
    """Write numbered frames plus a JSONL replay script; returns the script path."""
    from rovercv.raster import save_pnm

    lines = []
    for i, (frame, (forward, rotate)) in enumerate(zip(frames, motions)):
        name = f"frame_{i:04d}.pnm"
        save_pnm(tmp_path / name, frame)
        lines.append(json.dumps({"frame": name, "forward_cm": forward, "rotate_deg": rotate}))
    script = tmp_path / "replay.jsonl"
    script.write_text("\n".join(lines) + "\n")
    return script
