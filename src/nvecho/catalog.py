"""Names and defaults read where the numerics that use them are not loaded.

The packaged scenario names and their aliases (``scenarios``), from which
the CLI builds its parser without loading numpy; the exponential fit's
skip and point count (``estimator``), against which ``config`` checks each
fitted ``times`` grid without importing the fit; the Monte Carlo draws
and seed of a run that names none (``noise``), which ``sequences`` takes as
its defaults without importing the ensemble averages; and the default linear
response's temperature slopes (``response.LinearResponse``), from which the
vee fit reads a rate table's branch without loading the response models.
"""

SCENARIO_NAMES = ("fig1c", "fig1d", "fig2", "fig4", "s5")
SCENARIO_ALIASES = {"fig2c": "fig2", "fig2d": "fig2"}

DEFAULT_SKIP = 3  # initial points an exponential fit skips
MIN_FIT_POINTS = 5  # points an exponential fit needs after its skip

DEFAULT_SAMPLES = 1 << 20  # Monte Carlo draws and seed of a run that names none
DEFAULT_SEED = 12345

QUADRUPOLE_HZ_PER_K = 39.0  # default linear temperature slopes, Hz per K
HYPERFINE_HZ_PER_K = 204.0
