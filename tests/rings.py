"""Ring gaps shared by the model and golden-output tests.

Large rings are built in code rather than committed as files. Each
builder returns a list of floats summing to 2*pi within the package's
angle-sum tolerance.
"""
import math
import random

TWO_PI = 2.0 * math.pi


def closed_gaps(weights):
    """Gaps proportional to weights, rescaled to 2*pi, the last one closing
    the ring exactly."""
    scale = TWO_PI / math.fsum(weights)
    gaps = [w * scale for w in weights[:-1]]
    gaps.append(TWO_PI - math.fsum(gaps))
    return gaps


def jittered_gaps(n, seed):
    # built the way the benchmark's verify-ring workload builds its rings
    rng = random.Random(seed)
    return closed_gaps([1.0 + 0.2 * (2.0 * rng.random() - 1.0) for _ in range(n)])


def periodic_gaps(weights, k):
    """The gaps of weights, rescaled, repeated k times: a ring that a
    rotation by len(weights) places leaves bit for bit unchanged."""
    scale = TWO_PI / (k * math.fsum(weights))
    return [w * scale for w in weights] * k
