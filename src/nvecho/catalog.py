"""Names and defaults read where the numerics that use them are not loaded.

The packaged scenario names and their aliases (``scenarios``), from which
the CLI builds its parser without loading numpy, and the exponential fit's
skip and point count (``estimator``), against which ``config`` checks each
fitted ``times`` grid without importing the fit.
"""

SCENARIO_NAMES = ("fig1c", "fig1d", "fig2", "fig4", "s5")
SCENARIO_ALIASES = {"fig2c": "fig2", "fig2d": "fig2"}

DEFAULT_SKIP = 3  # initial points an exponential fit skips
MIN_FIT_POINTS = 5  # points an exponential fit needs after its skip
