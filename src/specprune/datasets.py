"""Seeded two-domain synthetic glyph datasets.

Ten 8x8 digit glyphs with per-sample jitter (integer translation, intensity
scaling, pixel noise) form the source domain; the target domain is the same
generator composed with a fixed affine intensity transform, a fixed extra
translation, and additional noise. A zero shift makes the two domains
identically distributed.
"""

from dataclasses import dataclass

import numpy as np

N_CLASSES = 10

_GLYPH_ART = [
    # 0
    ["........", "..###...", ".#...#..", ".#...#..",
     ".#...#..", ".#...#..", "..###...", "........"],
    # 1
    ["........", "...#....", "..##....", "...#....",
     "...#....", "...#....", "..###...", "........"],
    # 2
    ["........", "..###...", ".#...#..", "....#...",
     "...#....", "..#.....", ".#####..", "........"],
    # 3
    ["........", ".####...", ".....#..", "..###...",
     ".....#..", ".....#..", ".####...", "........"],
    # 4
    ["........", ".#..#...", ".#..#...", ".#..#...",
     ".#####..", "....#...", "....#...", "........"],
    # 5
    ["........", ".#####..", ".#......", ".####...",
     ".....#..", ".....#..", ".####...", "........"],
    # 6
    ["........", "..###...", ".#......", ".####...",
     ".#...#..", ".#...#..", "..###...", "........"],
    # 7
    ["........", ".#####..", ".....#..", "....#...",
     "...#....", "..#.....", "..#.....", "........"],
    # 8
    ["........", "..###...", ".#...#..", "..###...",
     ".#...#..", ".#...#..", "..###...", "........"],
    # 9
    ["........", "..###...", ".#...#..", ".#...#..",
     "..####..", ".....#..", "..###...", "........"],
]

GLYPHS = np.array([[[1.0 if ch == "#" else 0.0 for ch in row] for row in art]
                   for art in _GLYPH_ART])


@dataclass(frozen=True)
class DomainShiftConfig:
    """Fixed source-to-target transform: x -> gain * translate(x) + offset + noise."""

    gain: float = 0.55
    offset: float = 0.35
    dx: int = 1
    dy: int = 0
    noise_std_extra: float = 0.05

    def is_zero(self):
        return (self.gain == 1.0 and self.offset == 0.0 and self.dx == 0
                and self.dy == 0 and self.noise_std_extra == 0.0)


@dataclass(frozen=True)
class DomainDataset:
    """One split of one domain: features (n, 1, 8, 8) and integer class labels."""

    domain: str
    split: str
    features: np.ndarray
    labels: np.ndarray
    n_classes: int = N_CLASSES

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if len(self.features) != len(self.labels):
            raise ValueError("feature/label counts disagree")
        if len(self.labels) and int(self.labels.max()) >= self.n_classes:
            raise ValueError("label exceeds class count")

    def __len__(self):
        return len(self.labels)

    def subset(self, n):
        """The first n samples."""
        if n >= len(self):
            return self
        return DomainDataset(self.domain, self.split, self.features[:n],
                             self.labels[:n], self.n_classes)


@dataclass(frozen=True)
class DomainSplits:
    """Train and test splits of one domain."""

    train: DomainDataset
    test: DomainDataset


def shift_image(img, dy, dx):
    """Integer translation of the last two axes with zero fill (content may
    clip at the border); leading axes index a batch of images."""
    out = np.zeros_like(img)
    h, w = img.shape[-2:]
    ys, yd = (slice(0, h - dy), slice(dy, h)) if dy >= 0 else (slice(-dy, h), slice(0, h + dy))
    xs, xd = (slice(0, w - dx), slice(dx, w)) if dx >= 0 else (slice(-dx, w), slice(0, w + dx))
    out[..., yd, xd] = img[..., ys, xs]
    return out


def _draw_samples(rng, n, shift=None, base_noise_std=0.05):
    """Balanced, shuffled glyph samples; optionally composed with a domain shift.

    The jittered glyphs are translated in one batch per (dy, dx) offset."""
    classes = rng.permutation(np.arange(n) % N_CLASSES)
    jitter = rng.integers(-1, 2, size=(n, 2))
    intensity = rng.uniform(0.8, 1.2, size=n)
    noise = rng.normal(0.0, base_noise_std, size=(n, 8, 8))
    glyphs = GLYPHS[classes] * intensity[:, None, None]
    imgs = np.empty((n, 8, 8))
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            group = (jitter[:, 0] == dy) & (jitter[:, 1] == dx)
            imgs[group] = shift_image(glyphs[group], dy, dx)
    imgs += noise
    if shift is not None and not shift.is_zero():
        extra = rng.normal(0.0, shift.noise_std_extra, size=(n, 8, 8)) \
            if shift.noise_std_extra > 0 else 0.0
        imgs = shift.gain * shift_image(imgs, shift.dy, shift.dx) + shift.offset + extra
    return imgs[:, None, :, :], classes


def make_two_domain(seed, n_per_split, shift=DomainShiftConfig()):
    """Generate (source, target) DomainSplits, deterministic in the seed."""
    if n_per_split < 100:
        raise ValueError("n_per_split must be at least 100")
    streams = np.random.SeedSequence(seed).spawn(4)
    out = []
    for domain, use_shift, (ss_train, ss_test) in (
        ("source", None, streams[:2]),
        ("target", shift, streams[2:]),
    ):
        splits = {}
        for split, ss in (("train", ss_train), ("test", ss_test)):
            rng = np.random.default_rng(ss)
            feats, labels = _draw_samples(rng, n_per_split, shift=use_shift)
            splits[split] = DomainDataset(domain, split, feats, labels)
        out.append(DomainSplits(**splits))
    return out[0], out[1]

