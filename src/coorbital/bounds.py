"""The solver's angle constants, insets, grid counts and gates, each defined
only here. README's "Tolerances" table gives what each one gates and the
manifest key that prints it. Imports only ``math``, so never loads numpy."""

import math

# angles: the full turn; band edges at the kernel zeros (curve, catalog, theorems)
TWO_PI = 2.0 * math.pi
PI_THIRD = math.pi / 3.0
FIVE_PI_THIRD = 5.0 * math.pi / 3.0
# the bracket of f's derivative zero below pi (kernel)
CRITICAL_LO = 3.0 * math.pi / 5.0
CRITICAL_HI = 2.0 * math.pi / 3.0

# insets
# root scans in theta1 start and stop this far inside the strip (curve, catalog)
EDGE_INSET = 1e-6
BRACKET_INSET = 1e-9
GRID_INSET = 1e-4
KERNEL_GRID_DELTA = 1e-4
# the catalog's endpoint scans stop this far below the strip's top
STRIP_TOP_INSET = 1e-9
# the D4 count's theta2 grid starts and stops this far inside its band (curve)
D4_BAND_INSET = 1e-3

# grid counts
SCAN_STEPS = 2000
# the lazy scans and grids sample a box of at most this many nodes in full (rootfind)
SCAN_LEAF_NODES = 16
SCAN_CELLS = 4000
GRID_POINTS = 2000
# the most theta2 lines one trace may ask for (cli); refused before any grid is built
TRACE_MAX_STEPS = 1000000
# the most rows one kernel table may ask for (cli); refused before any row is computed
KERNEL_MAX_STEPS = 10000000

# root finding
WIDTH_TOL = 1e-12
# width target of every root the package prints (kernel, curve, catalog, theorems)
ROOT_WIDTH_TOL = 1e-14
RESID_TOL = 1e-10
MAX_ITER = 200
# rounding bounds of the interval enclosures (interval): math.sin and math.cos
# are trusted to this many ulps, and a kernel enclosure is widened by
# KERNEL_ROUND_K * eps * (max|f| + 1), which covers two float evaluations of f
LIBM_ULPS = 1
KERNEL_ROUND_K = 16.0

# trace and classification gates
TRACE_RESID_GATE = 1e-10
BOUNDARY_TOL = 1e-9
DEGENERATE_TOL = 1e-9
DENOM_TOL = 1e-12

# case gates
RESIDUAL_GATE = 1e-9
SQUARE_RESIDUAL_GATE = 1e-12

# catalog
CATALOG_TOL = 1e-3
# the theta2 = pi/3 line's upper crossing A must match T36's root this closely
CROSS_CHECK_TOL = 1e-9
# scans on lines where f(theta2) is a rounding-level residue stay this
# far from the theta4 -> 0 corner, where that residue times the
# diverging f(theta4) would fabricate a sign change
CORNER_MARGIN = 1e-3
# collision-edge offsets for the endpoint limits; the branch angle is
# extrapolated to offset zero in the cube-root variable h**(1/3)
ENDPOINT_OFFSETS = (1e-3, 1e-4, 1e-5)

# verify: ring closure, collisions, null-space rank and the verdict
VERIFY_THRESHOLD = 1e-8
VERIFY_RENORM_LIMIT = 1e-9
ANGLE_SUM_TOL = 1e-12
# kernel arguments this close to 0 or 2*pi count as collisions (model)
COLLISION_TOL = 1e-12
RANK_TOL = 1e-9
