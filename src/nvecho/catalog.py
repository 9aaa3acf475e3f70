"""Names and defaults the command line offers before it loads any numerics.

The packaged scenario names and their aliases (``scenarios``) and the
exponential fit's default skip (``estimator``) live here, in a module that
imports nothing, so the CLI builds its parser without loading numpy.
"""

SCENARIO_NAMES = ("fig1c", "fig1d", "fig2", "fig4", "s5")
SCENARIO_ALIASES = {"fig2c": "fig2", "fig2d": "fig2"}

DEFAULT_SKIP = 3  # initial points an exponential fit skips unless told otherwise
